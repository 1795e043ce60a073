"""TREC-style evaluation: MRR@K, NDCG@K, Recall@K over run files and qrels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .core import numbered_lines, write_lines


@dataclass(frozen=True)
class Qrels:
    """Relevance judgments: (query_id, doc_id) -> integer grade >= 0 (`read_qrels` checks it)."""

    judgments: Mapping[tuple[str, str], int]
    _relevant: dict[str, dict[str, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        relevant: dict[str, dict[str, int]] = {}
        for (qid, did), grade in self.judgments.items():
            if grade >= 1:
                relevant.setdefault(qid, {})[did] = grade
        object.__setattr__(self, "_relevant", relevant)

    def relevant_docs(self, qid: str) -> dict[str, int]:
        """doc_id -> grade of the docs judged relevant (grade >= 1) to `qid`; do not modify it."""
        return self._relevant.get(qid, {})


@dataclass
class RunFile:
    """Per query: ranked (doc_id, score) list, scores non-increasing."""

    rankings: dict[str, list[tuple[str, float]]] = field(default_factory=dict)

    def __post_init__(self):
        for qid, ranking in self.rankings.items():
            scores = [s for _, s in ranking]
            if any(a < b for a, b in zip(scores, scores[1:])):
                raise ValueError(f"query {qid!r}: scores increase down the ranking")
            docs = [d for d, _ in ranking]
            if len(set(docs)) != len(docs):
                raise ValueError(f"query {qid!r}: duplicate doc_id in ranking")


def check_cutoff(metric: str, k: int) -> None:
    """A metric's cutoff must be at least 1; the error names it as `metric@k`."""
    if k < 1:
        raise ValueError(f"{metric}@{k}: k must be >= 1")


def _mean_gain(run: RunFile, qrels: Qrels, metric: str, k: int, gain) -> float:
    """Mean of `gain(top_k_ranking, relevant_docs)` over the run's queries with a judged-relevant doc."""
    check_cutoff(metric, k)
    qids = [qid for qid in run.rankings if qrels.relevant_docs(qid)]
    if not qids:
        raise ValueError("no queries with judged-relevant documents")
    total = 0.0
    for qid in qids:  # not `sum`, which compensates float rounding from Python 3.12 on
        total += gain(run.rankings[qid][:k], qrels.relevant_docs(qid))
    return total / len(qids)


def mrr_at_k(run: RunFile, qrels: Qrels, k: int) -> float:
    """Mean reciprocal rank of the first relevant doc within the top k."""

    def gain(top: list[tuple[str, float]], relevant: dict[str, int]) -> float:
        for rank, (did, _) in enumerate(top, start=1):
            if did in relevant:
                return 1.0 / rank
        return 0.0

    return _mean_gain(run, qrels, "mrr", k, gain)


def ndcg_at_k(run: RunFile, qrels: Qrels, k: int) -> float:
    """NDCG with gain 2^grade - 1 and log2(rank + 1) discount (trec_eval convention)."""

    def gain(top: list[tuple[str, float]], relevant: dict[str, int]) -> float:
        ideal_grades = sorted(relevant.values(), reverse=True)[:k]
        ideal = sum((2**g - 1) / math.log2(r + 1) for r, g in enumerate(ideal_grades, start=1))
        dcg = sum(
            (2 ** relevant.get(did, 0) - 1) / math.log2(rank + 1)
            for rank, (did, _) in enumerate(top, start=1)
        )
        return dcg / ideal

    return _mean_gain(run, qrels, "ndcg", k, gain)


def recall_at_k(run: RunFile, qrels: Qrels, k: int) -> float:
    """Mean fraction of judged-relevant docs retrieved within the top k."""

    def gain(top: list[tuple[str, float]], relevant: dict[str, int]) -> float:
        return len(relevant.keys() & {did for did, _ in top}) / len(relevant)

    return _mean_gain(run, qrels, "recall", k, gain)


# ---------------------------------------------------------------------------
# TREC text formats
# ---------------------------------------------------------------------------


def write_run(run: RunFile, path: str | Path, tag: str = "lsrkit") -> None:
    """Run line format: `qid Q0 docid rank score tag`, space-separated."""
    write_lines(path, (f"{qid} Q0 {did} {rank} {score:.6g} {tag}"
                       for qid, ranking in run.rankings.items()
                       for rank, (did, score) in enumerate(ranking, start=1)))


def read_run(path: str | Path) -> RunFile:
    """Read a run file; a bad line, a non-finite score, a rank out of order, a
    score above the one before it or a repeated (qid, docid) is a ValueError
    naming path:line."""
    rankings: dict[str, list[tuple[str, float]]] = {}
    seen: set[tuple[str, str]] = set()
    with numbered_lines(path) as lines:
        for _, line in lines:
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(f"expected 6 fields, got {len(parts)}")
            qid, _, did, rank_s, score_s, _tag = parts
            rank, score = int(rank_s), float(score_s)  # numbered_lines names the line of a bad number
            if not math.isfinite(score):
                raise ValueError(f"score {score_s} is not finite")
            ranking = rankings.setdefault(qid, [])
            if rank != len(ranking) + 1:
                raise ValueError(f"rank {rank} is not contiguous for query {qid!r}")
            if (qid, did) in seen:
                raise ValueError(f"doc {did!r} is ranked twice for query {qid!r}")
            if ranking and score > ranking[-1][1]:
                raise ValueError(f"score {score_s} rises down the ranking of query {qid!r}")
            seen.add((qid, did))
            ranking.append((did, score))
    run = RunFile.__new__(RunFile)  # the loop has made `RunFile.__post_init__`'s checks, line by line
    run.rankings = rankings
    return run


def write_qrels(qrels: Qrels, path: str | Path) -> None:
    """Qrels line format: `qid 0 docid grade`."""
    write_lines(path, (f"{qid} 0 {did} {grade}" for (qid, did), grade in qrels.judgments.items()))


def read_qrels(path: str | Path) -> Qrels:
    """Read a qrels file; a bad line, a bad or negative grade or a repeated
    (qid, docid) is a ValueError naming path:line."""
    judgments: dict[tuple[str, str], int] = {}
    with numbered_lines(path) as lines:
        for _, line in lines:
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"expected 4 fields, got {len(parts)}")
            qid, _, did, grade_s = parts
            grade = int(grade_s)
            if grade < 0:
                raise ValueError(f"grade {grade} is negative")
            if (qid, did) in judgments:
                raise ValueError(f"({qid}, {did}) is judged twice")
            judgments[(qid, did)] = grade
    return Qrels(judgments=judgments)
