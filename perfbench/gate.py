"""Correctness gate: every query's top-k against `index.exhaustive_search`.

In exact mode the oracle scores the encoded doc vectors.  In bits mode it
scores doc vectors re-quantized by the documented formula: impact =
round_half_up(w * (2^b - 1) / max_w), zero impacts dropped, weight =
impact * max_w / (2^b - 1).  Rankings must list the same doc ids and every
score must agree within 1e-9, the acceptance tests' tolerance.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from lsrkit import index
from lsrkit.core import SparseVector

SCORE_TOLERANCE = 1e-9


def oracle_vectors(doc_vectors, quantization) -> list:
    if quantization.mode == "exact":
        return doc_vectors
    levels = 2**quantization.bits - 1
    max_w = max((w for _, v in doc_vectors for w in v.entries.values()), default=0.0)
    out = []
    for doc_id, vec in doc_vectors:
        kept = {}
        for t, w in vec.entries.items():
            impact = math.floor(w * levels / max_w + 0.5)
            if impact:
                kept[t] = impact * max_w / levels
        out.append((doc_id, SparseVector(kept)))
    return out


def rankings_match(got, expected) -> bool:
    if [d for d, _ in got] != [d for d, _ in expected]:
        return False
    return all(abs(a - b) <= SCORE_TOLERANCE for (_, a), (_, b) in zip(got, expected))


def failed_queries(rankings: dict, query_vectors: list, doc_vectors: list, quantization, k: int) -> list[str]:
    """Query ids whose ranking differs from the oracle or is missing.

    The oracle is handed only the documents that share a term with the query;
    the rest score exactly 0, which `exhaustive_search` excludes anyway.
    """
    docs = oracle_vectors(doc_vectors, quantization)
    by_term: dict[int, list[int]] = {}
    for pos, (_, vec) in enumerate(docs):
        for t in vec.entries:
            by_term.setdefault(t, []).append(pos)
    failed = []
    for qid, qvec in query_vectors:
        candidates = sorted({pos for t in qvec.entries for pos in by_term.get(t, ())})
        expected = index.exhaustive_search(qvec, [docs[p] for p in candidates], k)
        if qid not in rankings or not rankings_match(rankings[qid], expected):
            failed.append(qid)
    return failed


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
