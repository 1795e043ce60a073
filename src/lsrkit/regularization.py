"""Sparsity control: batch FLOPs penalty, Lp norms, and top-k pruning.

The penalties take a dense N x |V| batch of encoder outputs and return the
value with its gradient; the trainer looks them up by kind in `PENALTIES`.
One top-k rule (largest weight first, then the smaller term id) serves both
inference-time pruning and the trainer's mask.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import SparseVector


class RegularizerKind(str, enum.Enum):
    FLOPS = "flops"
    L1 = "l1"
    L2 = "l2"
    TOPK = "topk"
    NONE = "none"


@dataclass(frozen=True)
class RegularizerConfig:
    kind: RegularizerKind = RegularizerKind.NONE
    weight: float = 0.0  # penalty coefficient, for flops/l1/l2
    k: int = 0  # retained-term count, for topk

    def __post_init__(self):
        if not 0 <= self.weight < math.inf:
            raise ValueError(f"weight: penalty coefficient must be finite and >= 0, got {self.weight}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.kind == RegularizerKind.TOPK and self.k < 1:  # k = 0 would leave every vector empty
            raise ValueError(f"k must be >= 1 for topk, got {self.k}")


def _batch_size(batch: np.ndarray) -> int:
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise ValueError("penalties require a nonempty N x |V| batch")
    return batch.shape[0]


def flops_penalty(batch: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared mean activation per dimension, summed over the vocabulary.

    Returns the value and its N x |V| gradient, 2 * mean_i / N in every row.
    """
    n = _batch_size(batch)
    mean = batch.mean(axis=0)
    return float(mean @ mean), np.broadcast_to(2.0 * mean / n, batch.shape)


def lp_penalty(batch: np.ndarray, p: int) -> tuple[float, np.ndarray]:
    """Mean L1 or L2 norm over the N rows of the batch, with its N x |V| gradient.

    The L2 gradient of an all-zero row is defined as the zero row.
    """
    n = _batch_size(batch)
    if p == 1:
        return float(np.abs(batch).sum()) / n, np.sign(batch) / n
    if p == 2:
        norms = np.linalg.norm(batch, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        return float(norms.sum()) / n, batch / (safe[:, None] * n)
    raise ValueError("p must be 1 or 2")


#: batch penalties by kind: N x |V| batch -> (value, N x |V| gradient)
PENALTIES = {
    RegularizerKind.FLOPS: flops_penalty,
    RegularizerKind.L1: functools.partial(lp_penalty, p=1),
    RegularizerKind.L2: functools.partial(lp_penalty, p=2),
}


def topk_positions(weights: np.ndarray, term_ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest weights along the last axis, ties broken by the smaller term id."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return np.lexsort((term_ids, -weights), axis=-1)[..., :k]


def topk_prune(v: SparseVector, k: int) -> SparseVector:
    """Keep the k largest weights, ties broken by smaller term id."""
    if k >= v.nnz:
        return v
    return v.take(topk_positions(v.weights, v.terms, k))


def topk_mask(w: np.ndarray, k: int) -> np.ndarray:
    """0/1 mask over a dense |V|-vector, or over each row of an N x |V| stack, that keeps its k largest
    positive weights."""
    keep = topk_positions(w, np.broadcast_to(np.arange(w.shape[-1]), w.shape), k)
    mask = np.zeros_like(w)
    np.put_along_axis(mask, keep, np.take_along_axis(w, keep, axis=-1) > 0, axis=-1)
    return mask


def topk_schedule(start_k: int, end_k: int, steps: int, step: int) -> int:
    """Linear k decay across training steps; constant when steps <= 1."""
    if steps <= 1:
        return end_k
    frac = min(max(step, 0), steps - 1) / (steps - 1)
    return round(start_k + (end_k - start_k) * frac)
