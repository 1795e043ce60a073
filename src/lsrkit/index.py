"""Impact inverted index: build, term-at-a-time search, and an exhaustive oracle.

Posting lists are doc-ordered and held in three numpy columns, in memory as
on disk and in the same dtypes (`DTYPES`): term t's postings sit at
`offsets[t]:offsets[t+1]` of `ordinals` (doc ordinals, ascending within a
term) and `impacts`.  Quantization is max-scaled linear with half-up
rounding.  Build and search run in numpy over whole columns and posting
slices, with no Python loop per posting.  An index whose postings fill at
least `TABLE_FILL` of its term x doc grid is also searched from a dense
term-major table of its weights, built on its first search; both forms add
each doc's products in ascending term order, so they give the same bits.
Search counts multiply-accumulate operations (ops_count), the engine's
deterministic latency proxy, from the posting lists in either form.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import SparseVector, json_list, json_number, read_json, vector_columns

FORMAT = "lsrkit-impact-index-v2"

#: The share of the term x doc grid the postings must fill for search to use a dense term table,
#: which costs 8 bytes a cell: at most 8 / TABLE_FILL = 32 bytes a posting.  Measured on a 2-vCPU VM
#: (numpy 2.4) over data/toy's splade_max docs, pruned by topk_prune to fills from 0.027 to 0.999:
#: splade_max's queries (263 terms at the median) took 0.24-0.30 ms on the table against 0.57-1.46 ms
#: on posting slices at every fill, while deepimpact's 3-term binary queries lost 0-8 us a query on
#: the table (0.041 against 0.035 ms at fill 0.027).  bm25-scaled's index (fill 0.0024) would need
#: a 2 GB table.  0.25 keeps the sparse indexes of short queries (deepimpact-toy's fill is 0.047) on
#: slices.
TABLE_FILL = 0.25


@dataclass(frozen=True)
class Quantization:
    """`exact` stores float impacts; otherwise impacts are integers in [1, 2^bits - 1]."""

    mode: str = "exact"  # exact | bits
    bits: int = 8

    def __post_init__(self):
        if self.mode not in ("exact", "bits"):
            raise ValueError(f'mode must be "exact" or "bits", got {self.mode!r}')
        if type(self.bits) is not int or (self.mode == "bits" and not 1 <= self.bits <= 16):
            raise ValueError(f"bits must be an integer in 1..16, got {self.bits!r}")


@dataclass
class ImpactIndex:
    offsets: np.ndarray  # term t's postings are [offsets[t], offsets[t+1])
    ordinals: np.ndarray  # doc ordinals, ascending within a term
    impacts: np.ndarray  # float weights (exact) or int levels (bits)
    doc_table: list[str]  # ordinal -> doc_id
    quantization: Quantization
    scale: float  # corpus max weight; 0 for an empty index
    vocab_id: dict | None = None  # identity of the vocabulary the term ids index, if recorded
    weights: np.ndarray = field(init=False, repr=False)  # impacts dequantized

    def __post_init__(self):
        self.offsets, self.ordinals, self.impacts = (
            np.asarray(c, d) for c, d in zip((self.offsets, self.ordinals, self.impacts), DTYPES[self.quantization.mode])
        )
        if self.quantization.mode == "exact":
            self.weights = self.impacts
        else:
            self.weights = self.impacts * self.scale / (2**self.quantization.bits - 1)

    @property
    def total_postings(self) -> int:
        return len(self.ordinals)

    @cached_property
    def doc_rank(self) -> np.ndarray:
        """ordinal -> rank of its doc_id in lexicographic order, the tie-break of a ranking."""
        rank = np.empty(len(self.doc_table), np.int64)
        rank[sorted(range(len(self.doc_table)), key=self.doc_table.__getitem__)] = np.arange(len(self.doc_table))
        return rank

    @cached_property
    def term_table(self) -> np.ndarray | None:
        """table[t, ordinal] = the weight of doc ordinal's posting for term t, 0.0 where it has none;
        None unless the postings fill `TABLE_FILL` of the grid and the index has 2 docs or more (numpy
        reduces a 1-wide table pairwise, not row after row)."""
        num_terms, num_docs = len(self.offsets) - 1, len(self.doc_table)
        if num_terms == 0 or num_docs < 2 or self.total_postings < TABLE_FILL * num_terms * num_docs:
            return None
        table = np.zeros((num_terms, num_docs))
        table[np.repeat(np.arange(num_terms), np.diff(self.offsets)), self.ordinals] = self.weights
        return table


def build_index(
    vectors: Iterable[tuple[str, SparseVector]], quantization: Quantization = Quantization()
) -> ImpactIndex:
    """Transcribe (doc, term, weight) nonzeros into doc-ordered posting lists.

    Weights are finite and > 0 and term ids non-negative, by the
    `core.SparseVector` contract.  Quantized impact =
    round_half_up(w * (2^bits - 1) / max_w); impacts that quantize to 0 are
    dropped.  One stable sort by term keeps doc order within each posting list.
    """
    doc_table, lengths, terms, w = vector_columns(vectors)
    _check_doc_table(doc_table, "")
    ordinals = np.repeat(np.arange(len(doc_table)), lengths)

    max_w = float(w.max()) if len(w) else 0.0
    if quantization.mode == "bits":
        levels = 2**quantization.bits - 1
        impacts = np.floor(w * levels / max_w + 0.5)
        kept = impacts != 0
        terms, ordinals, impacts = terms[kept], ordinals[kept], impacts[kept]
    else:
        impacts = w
    # The same order as sorting the int64 ids, but numpy radix-sorts 8- and 16-bit keys.
    order = np.argsort(terms.astype(np.min_scalar_type(terms.max(initial=0))), kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(terms))))
    return ImpactIndex(offsets, ordinals[order], impacts[order], doc_table, quantization, scale=max_w)


def _check_doc_table(doc_table: list[str], context: str) -> None:
    """A ValueError, `context` then the problem, unless every doc id is a string, nonempty and with no
    whitespace (`read_vectors`' id rule: a run file's field), and none is repeated: the first is named."""
    try:
        joined = "".join(doc_table)  # a TypeError at the first id that is no string, in one C loop
    except TypeError:
        raise ValueError(f"{context}doc ids must be strings") from None
    if len(set(doc_table)) < len(doc_table):
        seen: set[str] = set()
        raise ValueError(f"{context}duplicate doc_id {next(d for d in doc_table if d in seen or seen.add(d))!r}")
    if "" in doc_table or (joined and joined.split() != [joined]):
        raise ValueError(f"{context}doc ids must be nonempty with no whitespace")


def exhaustive_search(
    q: SparseVector, vectors: list[tuple[str, SparseVector]], k: int
) -> list[tuple[str, float]]:
    """Oracle: exact dot product against every document, zero scores excluded; the top k by score
    descending, ties broken by doc_id lexicographic ascending."""
    scored = {}
    for doc_id, vec in vectors:
        s = q.dot(vec)
        if s != 0.0:
            scored[doc_id] = s
    return sorted(scored.items(), key=lambda it: (-it[1], it[0]))[:k]


def index_search(
    index: ImpactIndex, q: SparseVector, k: int
) -> tuple[list[tuple[str, float]], int]:
    """Term-at-a-time accumulation over the query's terms in ascending term order.

    The query's entries ascend by term id and its weights are finite and > 0,
    by the `core.SparseVector` contract; terms past the index's last add nothing.
    On posting slices, the query terms' slices are concatenated in ascending
    term order and one `np.bincount` adds them in that order, so each doc's
    score is the same float sum as a term-by-term loop.  On the dense term
    table (`ImpactIndex.term_table`), the query's rows are scaled and reduced
    along axis 0, which numpy adds row after row for a table 2 or more docs
    wide: the same sum, plus 0.0 for each term a doc lacks, which changes no
    sum.  Docs scoring exactly 0 are left out; the top k are ranked by score
    descending, ties by doc_id ascending.  ops_count is the number of
    multiply-accumulate operations, i.e. the sum of posting-list lengths
    across query terms present in the index.
    """
    offsets, num_terms = index.offsets, len(index.offsets) - 1
    if index.term_table is not None:
        inside = np.searchsorted(q.terms, num_terms)  # terms ascend: those the index has come first
        terms, wq = q.terms[:inside], q.weights[:inside]
        ops = int((offsets[terms + 1] - offsets[terms]).sum())
        if k <= 0 or not ops:
            return [], ops
        rows = index.term_table[terms]
        rows *= wq[:, None]  # in place: a second m x N array costs more than the arithmetic
        acc = np.add.reduce(rows, axis=0)
    else:
        ordinals, weights = index.ordinals, index.weights
        spans = [(offsets[t], offsets[t + 1], w) for t, w in zip(q.terms.tolist(), q.weights.tolist()) if t < num_terms]
        ops = int(sum(hi - lo for lo, hi, _ in spans))
        if k <= 0 or not ops:
            return [], ops
        acc = np.bincount(
            np.concatenate([ordinals[lo:hi] for lo, hi, _ in spans]),
            np.concatenate([wq * weights[lo:hi] for lo, hi, wq in spans]),
            minlength=len(index.doc_table),
        )
    hits = (acc != 0.0).nonzero()[0]
    scores = acc[hits]
    if len(hits) > k:  # sort only the hits at or above the k-th score
        kept = scores >= np.partition(scores, len(hits) - k)[len(hits) - k]
        hits, scores = hits[kept], scores[kept]
    order = np.lexsort((index.doc_rank[hits], -scores))[:k]
    return [(index.doc_table[o], s) for o, s in zip(hits[order].tolist(), scores[order].tolist())], ops


# ---------------------------------------------------------------------------
# On-disk layout: header.json + postings.bin, the three columns back to back
# ---------------------------------------------------------------------------

# little-endian fixed-width dtypes of offsets, ordinals and impacts
DTYPES = {"exact": ("<i8", "<i4", "<f8"), "bits": ("<i8", "<i4", "<u2")}


def save_index(index: ImpactIndex, directory: str | Path) -> int:
    """Write header.json and postings.bin; returns the bytes written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = b"".join(c.tobytes() for c in (index.offsets, index.ordinals, index.impacts))
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
    header = read_json(directory / "header.json")
    if not isinstance(header, dict) or header.get("format") != FORMAT:
        raise ValueError(f"unrecognized index format in {directory}; rebuild older indexes")
    try:
        quant = Quantization(**header["quantization"])
        scale = json_number(header["scale"], "scale")
        doc_table, vocab_id = json_list(header["doc_table"], "doc_table"), header["vocab"]
        num_offsets, total, payload_bytes, crc = (
            header[key] for key in ("num_offsets", "total_postings", "payload_bytes", "crc32")
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"corrupt index in {directory}: bad header field ({e!r})") from e
    _require(all(type(n) is int for n in (num_offsets, total, payload_bytes, crc)), directory,
             "num_offsets, total_postings, payload_bytes and crc32 must be JSON integers")
    _check_doc_table(doc_table, f"corrupt index in {directory}: ")
    _require(scale >= 0, directory, "scale must be non-negative")

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
    _require(len(offsets) and offsets[0] == 0 and offsets[-1] == total and (np.diff(offsets) >= 0).all(),
             directory, f"offsets must run from 0 to {total} without decreasing")
    _require(not total or (ordinals.min() >= 0 and ordinals.max() < len(doc_table)),
             directory, f"doc ordinal outside the doc table of {len(doc_table)}")
    ascending = np.diff(ordinals) > 0
    starts = offsets[1:-1]
    ascending[starts[(starts > 0) & (starts < total)] - 1] = True  # the next term starts over
    _require(ascending.all(), directory, "doc ordinals not strictly ascending within a term")
    if quant.mode == "exact":
        _require(not total or (impacts.min() > 0 and impacts.max() < math.inf), directory,
                 "impacts must be finite and positive")  # min() propagates a NaN, which fails > 0
    else:
        levels = 2**quant.bits - 1
        _require(not total or (impacts.min() >= 1 and impacts.max() <= levels), directory, f"impacts outside 1..{levels}")
    return ImpactIndex(offsets, ordinals, impacts, doc_table, quant, scale, vocab_id)


def _require(ok, directory: Path, problem: str) -> None:
    if not ok:
        raise ValueError(f"corrupt index in {directory}: {problem}")
