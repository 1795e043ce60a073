"""Impact inverted index: build, term-at-a-time search, and an exhaustive oracle.

Posting lists are doc-ordered and held in three columns, the same in memory
and on disk: term t's postings sit at `offsets[t]:offsets[t+1]` of `ordinals`
(doc ordinals, ascending within a term) and `impacts`.  Quantization is
max-scaled linear with half-up rounding.  Search counts multiply-accumulate
operations (ops_count), the engine's deterministic latency proxy.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import SparseVector

FORMAT = "lsrkit-impact-index-v2"


@dataclass(frozen=True)
class Quantization:
    """`exact` stores float impacts; otherwise impacts are integers in [1, 2^bits - 1]."""

    mode: str = "exact"  # exact | bits
    bits: int = 8

    def __post_init__(self):
        if self.mode not in ("exact", "bits"):
            raise ValueError(f"unknown quantization mode {self.mode!r}")
        if self.mode == "bits" and not 1 <= self.bits <= 16:
            raise ValueError("bits must be in 1..16")


@dataclass
class ImpactIndex:
    offsets: list[int]  # term t's postings are [offsets[t], offsets[t+1])
    ordinals: list[int]  # doc ordinals, ascending within a term
    impacts: list  # float weights (exact) or int levels (bits)
    doc_table: list[str]  # ordinal -> doc_id
    quantization: Quantization
    scale: float  # corpus max weight; 0 for an empty index
    vocab_id: dict | None = None  # identity of the vocabulary the term ids index, if recorded
    weights: list[float] = field(init=False, repr=False)  # impacts dequantized

    def __post_init__(self):
        if self.quantization.mode == "exact":
            self.weights = self.impacts
        else:
            levels = 2**self.quantization.bits - 1
            self.weights = [impact * self.scale / levels for impact in self.impacts]

    @property
    def total_postings(self) -> int:
        return len(self.ordinals)


def build_index(
    vectors: Iterable[tuple[str, SparseVector]], quantization: Quantization = Quantization()
) -> ImpactIndex:
    """Transcribe (doc, term, weight) nonzeros into doc-ordered posting lists.

    Quantized impact = round_half_up(w * (2^bits - 1) / max_w); impacts that
    quantize to 0 are dropped.
    """
    doc_table: list[str] = []
    seen: set[str] = set()
    raw: list[SparseVector] = []
    max_w = 0.0
    for doc_id, vec in vectors:
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        for w in vec.entries.values():
            if not 0 < w < math.inf:
                raise ValueError(f"non-positive or non-finite weight in document {doc_id!r}")
            max_w = max(max_w, w)
        doc_table.append(doc_id)
        raw.append(vec)

    levels = 2**quantization.bits - 1
    per_term: dict[int, tuple[list[int], list]] = {}
    for ordinal, vec in enumerate(raw):
        for t, w in vec.entries.items():
            if quantization.mode == "bits":
                impact = math.floor(w * levels / max_w + 0.5)
                if impact == 0:
                    continue
            else:
                impact = w
            ords, imps = per_term.setdefault(t, ([], []))
            ords.append(ordinal)
            imps.append(impact)

    offsets = [0]
    ordinals: list[int] = []
    impacts: list = []
    for t in range(max(per_term, default=-1) + 1):
        ords, imps = per_term.get(t, ((), ()))
        ordinals += ords
        impacts += imps
        offsets.append(len(ordinals))
    return ImpactIndex(offsets, ordinals, impacts, doc_table, quantization, scale=max_w)


def _ranked(scored: dict[str, float], k: int) -> list[tuple[str, float]]:
    """Top-k by score descending, ties broken by doc_id lexicographic ascending."""
    order = sorted(scored.items(), key=lambda it: (-it[1], it[0]))
    return order[:k]


def exhaustive_search(
    q: SparseVector, vectors: list[tuple[str, SparseVector]], k: int
) -> list[tuple[str, float]]:
    """Oracle: exact dot product against every document; zero scores excluded."""
    scored = {}
    for doc_id, vec in vectors:
        s = q.dot(vec)
        if s != 0.0:
            scored[doc_id] = s
    return _ranked(scored, k)


def index_search(
    index: ImpactIndex, q: SparseVector, k: int
) -> tuple[list[tuple[str, float]], int]:
    """Term-at-a-time accumulation over posting lists.

    ops_count is the number of multiply-accumulate operations, i.e. the sum of
    posting-list lengths across query terms present in the index.
    """
    offsets, ordinals, weights = index.offsets, index.ordinals, index.weights
    num_terms = len(offsets) - 1
    acc: dict[int, float] = {}
    ops = 0
    for t in sorted(q.entries):
        if not 0 <= t < num_terms:
            continue
        wq = q.entries[t]
        lo, hi = offsets[t], offsets[t + 1]
        for o, w in zip(ordinals[lo:hi], weights[lo:hi]):
            acc[o] = acc.get(o, 0.0) + wq * w
        ops += hi - lo
    scored = {index.doc_table[o]: s for o, s in acc.items() if s != 0.0}
    return _ranked(scored, k), ops


# ---------------------------------------------------------------------------
# On-disk layout: header.json + postings.bin, the three columns back to back
# ---------------------------------------------------------------------------

# little-endian fixed-width dtypes of offsets, ordinals and impacts
DTYPES = {"exact": ("<i8", "<i4", "<f8"), "bits": ("<i8", "<i4", "<u2")}


def save_index(index: ImpactIndex, directory: str | Path) -> int:
    """Write header.json and postings.bin; returns the bytes written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    columns = (index.offsets, index.ordinals, index.impacts)
    payload = b"".join(np.asarray(c, d).tobytes() for c, d in zip(columns, DTYPES[index.quantization.mode]))
    header = json.dumps({
        "format": FORMAT,
        "quantization": {"mode": index.quantization.mode, "bits": index.quantization.bits},
        "scale": index.scale,
        "doc_table": index.doc_table,
        "vocab": index.vocab_id,
        "num_offsets": len(index.offsets),
        "total_postings": index.total_postings,
        "payload_bytes": len(payload),
        "crc32": zlib.crc32(payload),
    }).encode("utf-8")
    (directory / "postings.bin").write_bytes(payload)
    (directory / "header.json").write_bytes(header)
    return len(payload) + len(header)


def load_index(directory: str | Path) -> ImpactIndex:
    """Read an index written by `save_index`; any inconsistency raises ValueError."""
    directory = Path(directory)
    header = json.loads((directory / "header.json").read_text(encoding="utf-8"))
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise ValueError(f"unrecognized index format in {directory}; rebuild older indexes")
    try:
        quant = Quantization(**header["quantization"])
        scale = float(header["scale"])
        doc_table = list(header["doc_table"])
        vocab_id = header["vocab"]
        num_offsets = int(header["num_offsets"])
        total = int(header["total_postings"])
        payload_bytes = int(header["payload_bytes"])
        crc = int(header["crc32"])
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"corrupt index in {directory}: bad header field ({e!r})") from e
    _require(all(isinstance(d, str) for d in doc_table), directory, "doc ids must be strings")
    _require(math.isfinite(scale) and scale >= 0, directory, "scale must be finite and non-negative")

    blob = (directory / "postings.bin").read_bytes()
    _require(len(blob) == payload_bytes, directory, f"postings.bin is {len(blob)} bytes, header says {payload_bytes}")
    _require(zlib.crc32(blob) == crc, directory, "postings.bin fails its crc32 check")
    dtypes = [np.dtype(d) for d in DTYPES[quant.mode]]
    counts = (num_offsets, total, total)
    sizes = [n * d.itemsize for n, d in zip(counts, dtypes)]
    _require(min(counts) >= 0 and sum(sizes) == len(blob), directory, "column lengths do not match the payload")
    offsets, ordinals, impacts = (
        np.frombuffer(blob, d, n, int(pos)) for d, n, pos in zip(dtypes, counts, np.cumsum([0] + sizes))
    )
    # checked as arrays, before the conversion to lists that search reads
    _require(len(offsets) and offsets[0] == 0 and offsets[-1] == total and (np.diff(offsets) >= 0).all(),
             directory, f"offsets must run from 0 to {total} without decreasing")
    _require(not total or (ordinals.min() >= 0 and ordinals.max() < len(doc_table)),
             directory, f"doc ordinal outside the doc table of {len(doc_table)}")
    ascending = np.diff(ordinals) > 0
    starts = offsets[1:-1]
    ascending[starts[(starts > 0) & (starts < total)] - 1] = True  # the next term starts over
    _require(ascending.all(), directory, "doc ordinals not strictly ascending within a term")
    if quant.mode == "exact":
        _require((np.isfinite(impacts) & (impacts > 0)).all(), directory, "impacts must be finite and positive")
    else:
        levels = 2**quant.bits - 1
        _require(not total or (impacts.min() >= 1 and impacts.max() <= levels), directory, f"impacts outside 1..{levels}")
    return ImpactIndex(offsets.tolist(), ordinals.tolist(), impacts.tolist(), doc_table, quant, scale, vocab_id)


def _require(ok, directory: Path, problem: str) -> None:
    if not ok:
        raise ValueError(f"corrupt index in {directory}: {problem}")
