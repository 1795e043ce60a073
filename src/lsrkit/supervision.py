"""Labels, losses, and a head-only trainer over frozen backbone embeddings.

Every loss returns its gradient next to its value; a pairwise loss of
`LOSSES` maps an N×C matrix of candidate scores, one triple's
`[positive, negatives...]` per row, and the teacher's scores in the same
layout to the N losses and the gradient wrt every score, each row with the
bits it has alone.  The trainer trains the heads of one
`config.MethodConfig`: it reads the encoders, regularizers, `shared_heads`
and supervision recipe from the config, builds term-recall labels from its
own triples when the loss is `term_mse`, and runs
the encoders' own dense heads (`encoders.stack_forward` / `head_backward`),
`LOSSES` and `regularization.PENALTIES`, so the code that trains is the code
that encodes and the code the finite-difference checks cover; no autodiff
dependency is needed.

The backbone and the vocabulary embeddings are frozen, so each neural side's
texts are embedded as one `encoders.Embeddings` batch in one `embed` call and
stacked once per call by `encoders.stack_forward`, the one place that picks a
head kind's kernel.  Each step runs one stacked forward and one
`head_backward` per trained side.  A side that does not train (a binary side,
or one the caller keeps) has fixed rows, computed once per call: its
`encode_binary` vectors, or its forward at the given heads; a step only masks
them and adds their penalty's value.  Every kernel gives each text the bits
it gets alone.

The pairwise loss runs over all triples at once, with the bits of a loop
over them: per candidate count, one stacked `np.matmul` that runs a `ddot`
per (query, candidate) pair and one loss call, and the gradient rows summed
in triple order by occurrence rounds (`_TripleBatch`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection, Mapping

import numpy as np

from .config import MethodConfig
from .core import TokenizedText, json_list, json_number, json_object, numbered_lines, parse_json
from .encoders import DIFFERENTIABLE, Embeddings, EncoderKind, HeadParameters, encode_binary, head_backward, stack_forward
from .regularization import PENALTIES, RegularizerConfig, RegularizerKind, topk_mask, topk_schedule


#: a triple's teacher scores: (positive, negatives)
TeacherScores = tuple[float, tuple[float, ...]]


@dataclass(frozen=True)
class TrainingTriple:
    query: TokenizedText
    positive: TokenizedText
    negatives: tuple[TokenizedText, ...]
    teacher_scores: TeacherScores | None = None

    def __post_init__(self):
        if self.teacher_scores is not None:
            _, negs = self.teacher_scores
            if len(negs) != len(self.negatives):
                raise ValueError("teacher negative scores do not match negatives")


#: per doc_id: {term id: fraction of the doc's relevant queries containing the term}
TermRecallLabels = dict[str, dict[int, float]]


def compute_term_recall(relevant_queries: Mapping[str, list[TokenizedText]]) -> TermRecallLabels:
    """Docs without relevant queries get no labels."""
    labels: TermRecallLabels = {}
    for doc_id, queries in relevant_queries.items():
        if not queries:
            continue
        counts: dict[int, int] = {}
        for q in queries:
            for t in set(q.token_ids):
                counts[t] = counts.get(t, 0) + 1
        labels[doc_id] = {t: c / len(queries) for t, c in counts.items()}
    return labels


def term_mse_loss(pred: np.ndarray, labels: Mapping[int, float]) -> tuple[float, np.ndarray]:
    """Mean squared error over the labeled terms only, with its |V|-vector gradient."""
    if not labels:
        raise ValueError("term_mse_loss requires a nonempty label set")
    n = len(labels)
    terms = np.fromiter(labels, dtype=np.int64, count=n)
    diff = pred[terms] - np.fromiter(labels.values(), dtype=np.float64, count=n)
    grad = np.zeros_like(pred)
    grad[terms] = 2.0 * diff / n
    return float(diff @ diff) / n, grad


def contrastive_nll(scores: np.ndarray, teacher: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Softmax negative log-likelihood of the positive among each row's candidate scores.

    `scores` is N×C, one triple's `[positive, negatives...]` per row; the teacher
    is not used.  Computed with max-shift stabilization; returns the N losses
    and the gradient wrt every score.  Each row has the bits it has alone: its
    sum runs along the fast axis of a C-contiguous array, and its log is
    `math.log` (`np.log` may differ in the last bit).
    """
    if scores.shape[1] < 2:
        raise ValueError("contrastive_nll requires at least one negative")
    shifted = np.ascontiguousarray(scores - scores.max(axis=1, keepdims=True))
    exp = np.exp(shifted)
    sums = exp.sum(axis=1)
    grad = exp / sums[:, None]
    loss = -(shifted[:, 0] - np.fromiter(map(math.log, sums.tolist()), np.float64, len(sums)))
    grad[:, 0] -= 1.0
    return loss, grad


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row of `x` summed left to right from 0.0, as a Python loop adds (and `sum` before Python 3.12)."""
    # Prefix sums run in order; `+ 0.0` gives the zero start's sign (a sum of -0.0s is 0.0).
    return np.add.accumulate(x, axis=1)[:, -1] + 0.0


def margin_mse_loss(scores: np.ndarray, teacher: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared difference of student vs teacher (positive - negative) margins.

    `scores` is the student's N×C `[positive, negatives...]` rows and `teacher`
    the teacher's, in the same layout; returns the N losses and the gradient wrt
    every student score.
    """
    if teacher.shape != scores.shape:
        raise ValueError("student and teacher must score the same negatives")
    if scores.shape[1] < 2:
        raise ValueError("margin_mse_loss requires at least one negative")
    n = scores.shape[1] - 1
    diffs = (scores[:, :1] - scores[:, 1:]) - (teacher[:, :1] - teacher[:, 1:])
    margin_grads = 2.0 * diffs / n
    return _row_sums(diffs * diffs) / n, np.concatenate((_row_sums(margin_grads)[:, None], -margin_grads), axis=1)


#: pairwise losses: (N×C candidate scores, N×C teacher scores or None) -> (N losses, N×C score gradients)
LOSSES = {"contrastive": contrastive_nll, "margin_mse": margin_mse_loss}


def _occurrence_rounds(targets: np.ndarray, sources: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Contributions, listed in adding order as (target row, source row), split into rounds.

    `targets` names every row 0..n-1 at least once.  Round k holds, sorted by
    target, every target's k-th contribution, so round 0 holds each row once,
    and no target repeats within a round.
    """
    rank, seen = np.empty(len(targets), np.int64), {}
    for i, t in enumerate(targets.tolist()):
        rank[i] = seen[t] = seen.get(t, -1) + 1
    if sorted(seen) != list(range(len(seen))):
        raise ValueError("every row must receive a contribution")
    by_round = np.lexsort((targets, rank))
    return [(targets[kth], sources[kth]) for kth in np.split(by_round, np.flatnonzero(np.diff(rank[by_round])) + 1)]


def _scatter(rounds: list[tuple[np.ndarray, np.ndarray]], contributions: Callable) -> np.ndarray:
    """Each row's contributions (`contributions(sources)`, one per source) summed from 0 in listed order:
    round 0 writes every row, and each later round adds to its rows with one fancy-index `+=`."""
    (_, first), *later = rounds
    G = contributions(first)
    G += 0.0  # as the first addend of a zero row: 0.0 + -0.0 is 0.0
    for rows, sources in later:
        G[rows] += contributions(sources)
    return G


class _TripleBatch:
    """The pairwise loss of every triple as whole-batch array ops, with the bits of a loop over triples.

    Built once per `train_heads` call from each triple's query row, candidate
    rows (`[positive, negatives...]`) and teacher scores.  Triples are grouped
    by candidate count, each group in triple order, and a loss runs on one N×C
    score matrix per count: padding rows to one length would regroup numpy's
    pairwise row sums.  A group's scores are one `np.matmul` of its query rows
    as (1, n) matrices by its candidate rows as (n, 1) ones: numpy runs each
    such item as one `ddot`, the bits of `Wq[q].dot(Wd[d])`, which a GEMM or
    `einsum` over the group does not keep.  A query
    row's gradient is `scale·(g0·d0 + ((0 + g1·d1) + g2·d2)…)` and a candidate
    row's `(scale·g)·wq`; both are summed per row in triple order by occurrence
    rounds (`_scatter`), and only for the sides asked for: per trained side.
    `np.add.at` on rows costs more than the loop it replaces, and
    `np.add.reduceat` does not add a segment's rows in order.
    """

    def __init__(self, loss: Callable, candidates: list[tuple[int, list[int], TeacherScores | None]]):
        self.loss, self.scale = loss, 1.0 / len(candidates)
        counts = np.array([len(rows) for _, rows, _ in candidates])
        order = np.argsort(counts, kind="stable")
        self.unsort = np.argsort(order)  # each triple's place in the grouped order
        grouped = [candidates[i] for i in order]
        d_rows = np.array([r for _, rows, _ in grouped for r in rows], dtype=np.int64)
        q_rows = np.array([q for q, _, _ in grouped], dtype=np.int64)
        self.pair_q = np.repeat(q_rows, counts[order])
        # Per count: its query rows (N), its candidate rows (N×C) and its teacher scores (N×C or None).
        pair_start = np.r_[0, np.cumsum(counts[order])]
        self.groups, first = [], 0
        for count, size in zip(*np.unique(counts, return_counts=True)):
            pairs = slice(pair_start[first], pair_start[first + size])
            teachers = [t for _, _, t in grouped[first:first + size]]
            teacher = None if None in teachers else np.array([[pos, *negs] for pos, negs in teachers])
            self.groups.append((q_rows[first:first + size], d_rows[pairs].reshape(size, count), teacher))
            first += size
        # Contributions in triple order: a query row's is its triple's (in the grouped order), a
        # candidate row's is its pair's.
        self.q_rounds = _occurrence_rounds(np.array([q for q, _, _ in candidates]), self.unsort)
        pair_of = [pair_start[t] + c for t, count in zip(self.unsort.tolist(), counts.tolist()) for c in range(count)]
        self.d_rounds = _occurrence_rounds(np.array([r for _, rows, _ in candidates for r in rows]), np.array(pair_of))

    def __call__(self, Wq: np.ndarray, Wd: np.ndarray, sides: Collection[str]) -> tuple[float, dict[str, np.ndarray]]:
        """The loss, the mean over triples summed in triple order, and its gradients wrt the rows of each
        side named in `sides`: "q" for the query rows `Wq`, "d" for the doc rows `Wd`."""
        losses, score_grads, q_grads = [], [], []
        for q_rows, d_rows, teacher in self.groups:
            scores = np.matmul(Wq[q_rows][:, None, None, :], Wd[d_rows][:, :, :, None])
            loss, g = self.loss(scores.reshape(d_rows.shape), teacher)
            losses.append(loss)
            score_grads.append(g.ravel())
            if "q" in sides:
                rest = np.zeros((len(d_rows), Wd.shape[1]))
                for c in range(1, d_rows.shape[1]):
                    rest += g[:, c, None] * Wd[d_rows[:, c]]
                q_grads.append(self.scale * (g[:, :1] * Wd[d_rows[:, 0]] + rest))
        total = _row_sums((np.concatenate(losses)[self.unsort] * self.scale)[None])[0]
        grads = {}
        if "q" in sides:
            q_grad = np.concatenate(q_grads)
            grads["q"] = _scatter(self.q_rounds, lambda sources: q_grad[sources])
        if "d" in sides:
            scaled = self.scale * np.concatenate(score_grads)
            grads["d"] = _scatter(self.d_rounds, lambda sources: scaled[sources, None] * Wq[self.pair_q[sources]])
        return float(total), grads


# ---------------------------------------------------------------------------
# Head-only trainer
# ---------------------------------------------------------------------------


#: share of the steps over which the regularizer weight ramps up quadratically
WARMUP_FRACTION = 1.0 / 3.0


@dataclass
class TrainResult:
    query_heads: HeadParameters
    doc_heads: HeadParameters
    loss_history: list[float]


def _reg_lambda(cfg: RegularizerConfig, step: int, steps: int) -> float:
    if cfg.kind not in PENALTIES:
        return 0.0
    warm = max(1, int(steps * WARMUP_FRACTION))
    ramp = min(1.0, (step / warm) ** 2)
    return cfg.weight * ramp


def train_heads(
    config: MethodConfig,
    triples: list[TrainingTriple],
    embed: Callable[[list[TokenizedText]], Embeddings],
    query_heads: HeadParameters,
    doc_heads: HeadParameters,
    keep: Collection[str] = (),
) -> TrainResult:
    """Full-batch gradient descent on loss + lambda * regularizer; heads only.

    Trains `config`'s heads: its encoders and regularizers per side,
    `shared_heads`, and `supervision.{loss,steps,lr}`.  A side trains when its
    encoder is differentiable and the side ("query" or "doc") is not in `keep`;
    a binary side, or a kept one, comes back unchanged.  Shared heads train
    both sides or neither.  `term_mse` labels each positive with the term
    recall of the queries it answers in `triples`; `contrastive` and
    `margin_mse` need negatives on every triple, and `margin_mse` teacher
    scores too, both checked before any text is embedded.  A pairwise loss
    groups the triples by candidate count once per call; at each step, one
    `LOSSES` call per count maps the per-pair `ddot` scores to score gradients,
    and each query or doc row of a trained side sums its gradients in triple
    order, one occurrence round at a time (`_TripleBatch`).

    Starts from copies of the given heads (shared heads: the query heads serve
    both sides) and reads |V| and d off them.  Backbone embeddings are frozen
    inputs supplied by `embed`, called once per neural side with the side's
    distinct texts, which gives one `Embeddings` batch.  Once per call,
    `encoders.stack_forward` stacks each neural side's texts and picks its
    head kind's kernel; each step runs one stacked forward and one
    `head_backward` per trained side.  A side that does not train has fixed
    rows, computed once per call: a binary side's `encode_binary` vectors, or
    a kept side's forward at the given heads.  A step applies its top-k mask,
    if any, and adds its penalty's value to the loss, but runs no backward
    for it.  A step whose loss is not finite raises a ValueError naming the
    step, before that step's update; numpy's floating-point warnings are off
    in the step loop.  Deterministic: iteration order and summation order are
    fixed, gradients adding doc rows first, then query rows, text by text, so
    the stacked and per-text forms give the same bits.
    """
    trains = {}
    for side, cfg in (("query", config.query), ("doc", config.doc)):
        if cfg.encoder not in DIFFERENTIABLE | {EncoderKind.BINARY}:
            raise ValueError(f"{side} encoder {cfg.encoder.value!r} has no trainable head and cannot appear "
                             "in training")
        trains[side[0]] = cfg.encoder in DIFFERENTIABLE and side not in keep
    if config.shared_heads and trains["q"] != trains["d"]:
        raise ValueError("shared heads train both sides or neither, so keep cannot name one side")
    if not triples:
        raise ValueError("no training triples")
    loss_kind, steps, lr = config.supervision.loss, config.supervision.steps, config.supervision.lr

    def lacking(t: TrainingTriple, need: str) -> ValueError:
        return ValueError(f"{config.paths.triples}: {loss_kind} requires {need}, and the triple with "
                          f"query {t.query.doc_id!r} and positive {t.positive.doc_id!r} has none")

    if loss_kind == "term_mse":
        relevant: dict[str, list[TokenizedText]] = {}
        for t in triples:
            relevant.setdefault(t.positive.doc_id, []).append(t.query)
        doc_labels = compute_term_recall(relevant)
    else:
        for t in triples:
            if not t.negatives:
                raise lacking(t, "negatives")
            if loss_kind == "margin_mse" and t.teacher_scores is None:
                raise lacking(t, "teacher scores")

    q_heads = query_heads.copy()
    d_heads = q_heads if config.shared_heads else doc_heads.copy()
    vocab_size, dim = q_heads.mlm_bias.size, q_heads.mlp_weight.size

    # Per side: one row per distinct text, in doc_id order, embedded once.
    texts = {
        "q": sorted({t.query.doc_id: t.query for t in triples}.values(), key=lambda text: text.doc_id),
        "d": sorted({d.doc_id: d for t in triples for d in (t.positive, *t.negatives)}.values(),
                    key=lambda text: text.doc_id),
    }
    row = {side: {text.doc_id: r for r, text in enumerate(texts[side])} for side in texts}
    # Each triple's rows, resolved once: for term_mse the positive's row and its labels; for a pairwise
    # loss the query's row, the candidates' rows ([positive, negatives...]) and the teacher's scores.
    if loss_kind == "term_mse":
        labeled = [(row["d"][t.positive.doc_id], labels) for t in triples
                   if (labels := doc_labels.get(t.positive.doc_id))]
    else:
        pairwise = _TripleBatch(LOSSES[loss_kind], [
            (row["q"][t.query.doc_id], [row["d"][d.doc_id] for d in (t.positive, *t.negatives)], t.teacher_scores)
            for t in triples])
    params = {"q": q_heads, "d": d_heads}
    regs = {"q": config.query.regularizer, "d": config.doc.regularizer}
    trained = [side for side in ("d", "q") if trains[side]]  # doc rows first: with shared heads, the adding order

    # A side that trains runs its stacked forward at every step; one that does not has fixed rows, computed here:
    # a binary side's `encode_binary` vectors, or a kept side's forward at the given heads.
    forwards, fixed = {}, {}
    for side, kind in (("q", config.query.encoder), ("d", config.doc.encoder)):
        if kind is EncoderKind.BINARY:
            fixed[side] = np.zeros((len(texts[side]), vocab_size))
            for r, vec in enumerate(map(encode_binary, texts[side])):
                fixed[side][r, vec.terms] = vec.weights
        elif trains[side]:
            forwards[side] = stack_forward(kind, texts[side], embed(texts[side]), params[side])
        else:
            fixed[side], _ = stack_forward(kind, texts[side], embed(texts[side]), params[side])(params[side])

    def zero_grads() -> dict:
        return {"mlp_weight": np.zeros(dim), "mlp_bias": 0.0, "mlm_bias": np.zeros(vocab_size)}

    def apply(params: HeadParameters, grads: dict) -> None:
        for name, g in grads.items():
            setattr(params, name, getattr(params, name) - lr * g)

    loss_history: list[float] = []
    with np.errstate(all="ignore"):  # a step whose loss is not finite is reported below
        for step in range(steps):
            W, caches, masks = dict(fixed), {}, {}
            for side, forward in forwards.items():
                W[side], caches[side] = forward(params[side])
            for side in W:
                # Training-time top-k pruning with a linear k-decay schedule from |V|.
                if regs[side].kind is RegularizerKind.TOPK:
                    masks[side] = topk_mask(W[side], topk_schedule(vocab_size, regs[side].k, steps, step))
                    W[side] = W[side] * masks[side]
            if loss_kind == "term_mse":
                G = {side: np.zeros_like(W[side]) for side in trained}
                total_loss = 0.0
                for r, labels in labeled:
                    loss, grad = term_mse_loss(W["d"][r], labels)
                    total_loss += loss / len(triples)
                    if "d" in G:
                        G["d"][r] += grad / len(triples)
            else:
                total_loss, G = pairwise(W["q"], W["d"], trained)

            # Batch penalties (FLOPs / L1 / L2) with quadratic warm-up; a side that does not train adds only
            # the value.
            for side, cfg in regs.items():
                if lam := _reg_lambda(cfg, step, steps):
                    value, grad = PENALTIES[cfg.kind](W[side])
                    total_loss += lam * value
                    if side in G:
                        G[side] += lam * grad
            if not math.isfinite(total_loss):
                raise ValueError(f"training diverged at step {step + 1} of {steps}: the loss is {total_loss}")

            q_grads = zero_grads()
            grads = {"q": q_grads, "d": q_grads if config.shared_heads else zero_grads()}
            for side in trained:
                head_backward(caches[side], G[side] * masks[side] if side in masks else G[side], grads[side])
            if trains["q"]:
                apply(q_heads, q_grads)
            if trains["d"] and not config.shared_heads:
                apply(d_heads, grads["d"])
            loss_history.append(total_loss)

    return TrainResult(query_heads=q_heads, doc_heads=d_heads, loss_history=loss_history)


# ---------------------------------------------------------------------------
# Triples file
# ---------------------------------------------------------------------------


def read_triples(
    path: str | Path,
    queries: Mapping[str, TokenizedText],
    docs: Mapping[str, TokenizedText],
) -> list[TrainingTriple]:
    """Triples file: one JSON object per line with q/pos/negs ids and optional teacher scores."""
    out: list[TrainingTriple] = []
    with numbered_lines(path) as lines:
        for _, line in lines:
            rec = parse_json(line)
            try:
                rec = json_object(rec, "record")
                teacher = None
                if rec.get("teacher") is not None:
                    scores = json_object(rec["teacher"], "teacher")
                    teacher_negs = json_list(scores["negs"], "teacher.negs")
                    teacher = (json_number(scores["pos"], "teacher.pos"),
                               tuple(json_number(s, "teacher.negs") for s in teacher_negs))
                out.append(
                    TrainingTriple(
                        query=queries[rec["q"]],
                        positive=docs[rec["pos"]],
                        negatives=tuple(docs[n] for n in json_list(rec["negs"], "negs")),
                        teacher_scores=teacher,
                    )
                )
            except (KeyError, ValueError, TypeError) as e:
                raise ValueError(f"bad triple record ({e})") from e
    return out
