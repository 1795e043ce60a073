"""Labels, losses (with gradient checks), and the head-only trainer."""

import functools
import math
import operator
from dataclasses import replace

import numpy as np
import pytest

from conftest import heads_bytes, method_config, one_text_stack, text

from lsrkit import encoders, supervision
from lsrkit.encoders import EncoderKind, backbone_table, init_head_parameters, toy_backbone
from lsrkit.regularization import RegularizerConfig, RegularizerKind
from lsrkit.supervision import (
    TrainingTriple,
    compute_term_recall,
    contrastive_nll,
    margin_mse_loss,
    read_triples,
    term_mse_loss,
    train_heads,
)
from lsrkit.synthetic import make_synthetic_task


def one_row(loss, scores, teacher=None):
    """`loss` on a one-row batch of `scores` and `teacher` (positive, negatives): the row's loss and gradient."""
    teacher = None if teacher is None else np.array([[teacher[0], *teacher[1]]], dtype=float)
    losses, grads = loss(np.array([scores], dtype=float), teacher)
    return losses[0], grads[0]


class TestTermRecall:
    def test_ratio_over_relevant_queries(self):
        labels = compute_term_recall({"d": [text("q1", 0, 1), text("q2", 0, 2)]})
        assert labels["d"] == pytest.approx({0: 1.0, 1: 0.5, 2: 0.5})

    def test_single_query(self):
        labels = compute_term_recall({"d": [text("q1", 0)]})
        assert labels["d"] == {0: 1.0}

    def test_absent_term_has_no_entry(self):
        labels = compute_term_recall({"d": [text("q1", 0)]})
        assert 1 not in labels["d"]

    def test_doc_without_queries_excluded_with_warning(self):
        labels = compute_term_recall({"d": []})
        assert "d" not in labels


class TestTermMseLoss:
    def test_exact_match_is_zero(self):
        loss, _ = term_mse_loss(np.array([1.0, 0.0]), {0: 1.0})
        assert loss == 0.0

    def test_unit_error(self):
        loss, _ = term_mse_loss(np.zeros(2), {0: 1.0})
        assert loss == pytest.approx(1.0)

    def test_hand_evaluation(self):
        loss, _ = term_mse_loss(np.array([0.5, 0.5]), {0: 1.0, 1: 0.0})
        assert loss == pytest.approx(0.25)

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            term_mse_loss(np.zeros(2), {})


class TestContrastiveNll:
    def test_uniform_scores(self):
        loss, _ = one_row(contrastive_nll, np.array([1.0, 1.0, 1.0, 1.0]))
        assert loss == pytest.approx(math.log(4.0))

    def test_dominant_positive(self):
        loss, _ = one_row(contrastive_nll, np.array([40.0, 0.0, 0.0]))
        assert loss < 1e-6

    def test_closed_form(self):
        loss, _ = one_row(contrastive_nll, np.array([1.0, 0.0]))
        assert loss == pytest.approx(math.log(1.0 + math.exp(-1.0)))

    def test_no_negatives_rejected(self):
        with pytest.raises(ValueError):
            one_row(contrastive_nll, np.array([1.0]))

    def test_shift_invariance(self, rng):
        for _ in range(30):
            pos = float(rng.normal())
            negs = rng.normal(size=4).tolist()
            c = float(rng.normal()) * 10
            scores = np.array([pos, *negs])
            base, _ = one_row(contrastive_nll, scores)
            shifted, _ = one_row(contrastive_nll, scores + c)
            assert shifted == pytest.approx(base, abs=1e-9)


class TestMarginMse:
    def test_matching_margins(self):
        # margins 1 and 2 on both sides
        assert one_row(margin_mse_loss, np.array([3.0, 2.0, 1.0]), (3.0, (2.0, 1.0)))[0] == 0.0

    def test_single_pair(self):
        # student margin 1, teacher margin 3
        assert one_row(margin_mse_loss, np.array([1.0, 0.0]), (3.0, (0.0,)))[0] == pytest.approx(4.0)

    def test_hand_evaluation(self):
        # student margins 1 and 2, teacher margins 0 and 0
        assert one_row(margin_mse_loss, np.array([2.0, 1.0, 0.0]), (0.0, (0.0, 0.0)))[0] == pytest.approx(2.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            one_row(margin_mse_loss, np.array([1.0, 0.0]), (0.0, (1.0, 2.0)))

    def test_margin_form_invariant_to_score_shift(self, rng):
        # adding a constant to both scores of a pair leaves the margin unchanged
        for _ in range(20):
            s_pos, s_neg = rng.normal(size=2)
            teacher = (float(rng.normal(size=1)[0]), (0.0,))
            c = float(rng.normal()) * 5
            base = one_row(margin_mse_loss, np.array([s_pos, s_neg]), teacher)[0]
            shifted = one_row(margin_mse_loss, np.array([s_pos + c, s_neg + c]), teacher)[0]
            assert shifted == pytest.approx(base, abs=1e-9)


# The per-triple forms the batched losses and trainer replaced, kept as oracles: every row of a batch,
# and every step of `train_heads`, must have their bits.


def one_triple_contrastive(scores, teacher=None):
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    grad = exp / exp.sum()
    loss = -float(shifted[0] - math.log(exp.sum()))
    grad[0] -= 1.0
    return loss, grad


def left_sum(values):
    """Floats added left to right from 0, as `sum` adds them before Python 3.12 (which compensates)."""
    return functools.reduce(operator.add, values, 0)


def one_triple_margin_mse(scores, teacher):
    t_pos, t_negs = teacher
    s_pos, *s_negs = scores.tolist()
    n = len(s_negs)
    diffs = [(s_pos - s) - (t_pos - t) for s, t in zip(s_negs, t_negs)]
    margin_grads = [2.0 * d / n for d in diffs]
    return left_sum(d * d for d in diffs) / n, np.array([left_sum(margin_grads), *(-g for g in margin_grads)])


ONE_TRIPLE = {contrastive_nll: one_triple_contrastive, margin_mse_loss: one_triple_margin_mse}


class PerTripleLoop:
    """The trainer's pairwise step as a loop over triples, each adding into its rows' views in place."""

    def __init__(self, loss, candidates):
        self.loss, self.candidates = ONE_TRIPLE[loss], candidates

    def __call__(self, Wq, Wd, sides):
        Gq, Gd = np.zeros_like(Wq), np.zeros_like(Wd)
        q_rows, d_rows, q_grads, d_grads = list(Wq), list(Wd), list(Gq), list(Gd)
        total_loss, scale = 0.0, 1.0 / len(self.candidates)
        for qr, rows, teacher in self.candidates:
            wq = q_rows[qr]
            loss, g = self.loss(np.array([wq @ d_rows[r] for r in rows]), teacher)
            total_loss += loss * scale
            q_grads[qr] += scale * (g[0] * d_rows[rows[0]] + sum((gi * d_rows[r] for gi, r in zip(g[1:], rows[1:])),
                                                                 np.zeros(Wd.shape[1])))
            for gi, r in zip(g, rows):
                d_grads[r] += scale * gi * wq
        return total_loss, {side: G for side, G in (("q", Gq), ("d", Gd)) if side in sides}


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestBatchedLosses:
    """A batch row has the bits of its one-row batch and of the per-triple form, at every candidate count
    around numpy's pairwise-sum blocks (8 and 128 elements)."""

    COUNTS = (2, 3, 8, 9, 10, 17, 128, 129, 131, 200)

    def _batch(self, rng, count):
        scores = rng.normal(scale=3.0, size=(7, count))
        scores[1] = 0.0  # equal scores: every shifted score is 0
        scores[2, 1:] = -800.0  # negatives whose exp underflows to 0
        teacher = rng.normal(scale=3.0, size=(7, count))
        teacher[3] = scores[3]  # matching margins: every diff is 0
        return scores, teacher

    @pytest.mark.parametrize("loss", [contrastive_nll, margin_mse_loss], ids=["contrastive", "margin_mse"])
    def test_every_row_has_its_own_bits(self, rng, loss):
        for count in self.COUNTS:
            scores, teacher = self._batch(rng, count)
            losses, grads = loss(scores, teacher)
            assert losses.shape == (7,) and grads.shape == (7, count)
            for i in range(7):
                alone = loss(scores[i:i + 1], teacher[i:i + 1])
                oracle = ONE_TRIPLE[loss](scores[i], (teacher[i, 0], tuple(teacher[i, 1:])))
                assert bits(losses[i]) == bits(alone[0][0]) == bits(oracle[0]), (count, i)
                assert bits(grads[i]) == bits(alone[1][0]) == bits(oracle[1]), (count, i)

    def test_batch_of_another_layout_keeps_the_bits(self, rng):
        """A Fortran-ordered batch gets the bits of its C-ordered copy."""
        scores, _ = self._batch(rng, 131)
        ordered = contrastive_nll(scores)
        assert all(bits(a) == bits(b) for a, b in zip(contrastive_nll(np.asfortranarray(scores)), ordered))


class TestLossGradients:
    """Central finite differences, 1e-5 step, 1e-4 relative tolerance."""

    def test_term_mse(self, rng):
        for _ in range(100):
            ids = rng.choice(10, size=4, replace=False)
            pred = np.zeros(10)
            for t in ids[:3]:
                pred[t] = rng.uniform(0.1, 2)
            labels = {int(t): float(rng.uniform(0, 1)) for t in ids}
            _, grad = term_mse_loss(pred, labels)
            t = int(ids[rng.integers(len(ids))])
            h = 1e-5
            up, dn = pred.copy(), pred.copy()
            up[t] += h
            dn[t] -= h
            num = (term_mse_loss(up, labels)[0] - term_mse_loss(dn, labels)[0]) / (2 * h)
            assert grad[t] == pytest.approx(num, rel=1e-4, abs=1e-8)

    def test_contrastive(self, rng):
        for _ in range(100):
            pos = float(rng.normal())
            negs = rng.normal(size=int(rng.integers(1, 5))).tolist()
            scores = np.array([pos, *negs])
            _, grad = one_row(contrastive_nll, scores)
            h = 1e-5
            up = scores.copy(); up[0] += h
            dn = scores.copy(); dn[0] -= h
            num_pos = (one_row(contrastive_nll, up)[0] - one_row(contrastive_nll, dn)[0]) / (2 * h)
            assert grad[0] == pytest.approx(num_pos, rel=1e-4, abs=1e-8)
            k = int(rng.integers(len(negs)))
            up = scores.copy(); up[1 + k] += h
            dn = scores.copy(); dn[1 + k] -= h
            num_neg = (one_row(contrastive_nll, up)[0] - one_row(contrastive_nll, dn)[0]) / (2 * h)
            assert grad[1 + k] == pytest.approx(num_neg, rel=1e-4, abs=1e-8)

    def test_margin_mse(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            scores = rng.normal(size=n + 1)
            teacher = (float(rng.normal()), tuple(rng.normal(size=n).tolist()))
            _, grad = one_row(margin_mse_loss, scores, teacher)
            h = 1e-5
            for k in range(n + 1):  # the positive's score and every negative's
                up = scores.copy(); up[k] += h
                dn = scores.copy(); dn[k] -= h
                num = (one_row(margin_mse_loss, up, teacher)[0] - one_row(margin_mse_loss, dn, teacher)[0]) / (2 * h)
                assert grad[k] == pytest.approx(num, rel=1e-4, abs=1e-8)


def small_task(**kwargs):
    defaults = dict(num_docs=60, num_queries=20, vocab_size=60, seed=11)
    defaults.update(kwargs)
    task = make_synthetic_task(**defaults)
    docs = {d.doc_id: d for d in task.docs}
    queries = {q.doc_id: q for q in task.queries}
    triples = [
        TrainingTriple(
            query=queries[r["q"]],
            positive=docs[r["pos"]],
            negatives=tuple(docs[n] for n in r["negs"]),
            teacher_scores=(r["teacher"]["pos"], tuple(r["teacher"]["negs"])),
        )
        for r in task.triples
    ]
    return task, triples


class TestTrainHeads:
    DIM = 8

    def _embed(self, vocab_size):
        table = backbone_table(vocab_size, self.DIM, 11)
        return lambda texts: toy_backbone(texts, table, 11)

    def _heads(self, vocab_size, seed, **kwargs):
        """Seeded query and doc heads, seeds `seed` and `seed + 1`."""
        return (
            init_head_parameters(vocab_size, self.DIM, seed, **kwargs),
            init_head_parameters(vocab_size, self.DIM, seed + 1, **kwargs),
        )

    def test_lr_zero_returns_initialization(self):
        task, triples = small_task()
        v = task.vocab.size
        config = method_config("mlm", "mlm", shared_heads=True, steps=5, lr=0.0)
        result = train_heads(config, triples, self._embed(v), *self._heads(v, 2))
        init = init_head_parameters(v, self.DIM, 2)
        assert np.array_equal(result.query_heads.mlm_bias, init.mlm_bias)
        assert np.array_equal(result.query_heads.mlp_weight, init.mlp_weight)

    def test_deterministic_given_seed(self):
        task, triples = small_task()
        v = task.vocab.size
        config = method_config("mlp", "mlm", steps=10, lr=0.3)
        a = train_heads(config, triples, self._embed(v), *self._heads(v, 4))
        b = train_heads(config, triples, self._embed(v), *self._heads(v, 4))
        assert np.array_equal(a.query_heads.mlp_weight, b.query_heads.mlp_weight)
        assert np.array_equal(a.doc_heads.mlm_bias, b.doc_heads.mlm_bias)
        assert a.loss_history == b.loss_history

    def test_contrastive_loss_decreases_on_separable_task(self):
        task, triples = small_task()
        v = task.vocab.size
        config = method_config("mlp", "mlp", steps=50, lr=0.3)
        result = train_heads(config, triples, self._embed(v), *self._heads(v, 4))
        hist = result.loss_history[:50]
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_non_differentiable_encoder_rejected(self):
        """A bm25_query side is rejected; a binary side is never trained, and its heads come back unchanged."""
        task, triples = small_task()
        v = task.vocab.size
        with pytest.raises(ValueError, match="no trainable head"):
            train_heads(method_config("bm25_query", "mlm", steps=1), triples, self._embed(v), *self._heads(v, 0))
        heads = self._heads(v, 0)
        result = train_heads(method_config("binary", "mlm", steps=1), triples, self._embed(v), *heads)
        assert heads_bytes(result.query_heads) == heads_bytes(heads[0])
        assert heads_bytes(result.doc_heads) != heads_bytes(heads[1])

    def test_kept_side_comes_back_unchanged(self):
        """A side in `keep` is not trained; shared heads cannot keep one side only."""
        task, triples = small_task()
        v = task.vocab.size
        start = dict(zip(("query", "doc"), self._heads(v, 4)))
        for kept, trained in (("query", "doc"), ("doc", "query")):
            result = train_heads(method_config("mlp", "mlm", steps=3, lr=0.3), triples, self._embed(v),
                                 start["query"], start["doc"], keep=(kept,))
            assert heads_bytes(getattr(result, f"{kept}_heads")) == heads_bytes(start[kept])
            assert heads_bytes(getattr(result, f"{trained}_heads")) != heads_bytes(start[trained])
        with pytest.raises(ValueError, match="keep cannot name one side"):
            train_heads(method_config("mlm", "mlm", shared_heads=True, steps=1), triples, self._embed(v),
                        start["query"], start["doc"], keep=("doc",))

    def test_frozen_binary_query_side_allowed(self):
        task, triples = small_task()
        v = task.vocab.size
        config = method_config("binary", "mlm", steps=5, lr=0.3)
        result = train_heads(config, triples, self._embed(v), *self._heads(v, 0))
        assert len(result.loss_history) == 5

    def test_binary_side_is_not_embedded(self):
        """A binary side reads no embeddings: `embed` is called once, with the doc side's distinct texts."""
        task, triples = small_task()
        v = task.vocab.size
        embed, calls = self._embed(v), []
        result = train_heads(method_config("binary", "mlm", steps=5, lr=0.3), triples,
                             lambda texts: calls.append([t.doc_id for t in texts]) or embed(texts), *self._heads(v, 0))
        assert calls == [sorted({d.doc_id for t in triples for d in (t.positive, *t.negatives)})]
        assert len(result.loss_history) == 5

    def _mean_doc_nnz(self, task, heads):
        embed = self._embed(task.vocab.size)
        counts = [
            int((one_text_stack(EncoderKind.MLM, d, embed([d]), heads)[0] > 0).sum())
            for d in task.docs
        ]
        return float(np.mean(counts))

    def test_flops_weight_sweep_shrinks_doc_nnz(self):
        task, triples = small_task()
        v = task.vocab.size
        nnz = []
        for lam in (0.0, 0.01, 0.1, 1.0):
            reg = RegularizerConfig(kind=RegularizerKind.FLOPS, weight=lam)
            config = method_config("mlm", "mlm", shared_heads=True, reg=reg, steps=80, lr=0.5)
            result = train_heads(config, triples, self._embed(v), *self._heads(v, 3))
            nnz.append(self._mean_doc_nnz(task, result.doc_heads))
        assert all(a >= b for a, b in zip(nnz, nnz[1:])), nnz
        assert nnz[-1] < nnz[0]

    def test_margin_mse_training_runs(self):
        task, triples = small_task()
        v = task.vocab.size
        config = method_config("mlm", "mlm", shared_heads=True, loss="margin_mse", steps=20, lr=0.05)
        result = train_heads(config, triples, self._embed(v), *self._heads(v, 3))
        assert result.loss_history[-1] < result.loss_history[0]

    def test_term_mse_training_reduces_loss(self):
        task, triples = small_task()
        v = task.vocab.size
        config = method_config("mlp", "mlp", loss="term_mse", steps=40, lr=0.3)
        result = train_heads(config, triples, self._embed(v), *self._heads(v, 3, mlp_log_normalize=False))
        assert result.loss_history[-1] < result.loss_history[0]


class TestBatchedTrainer:
    """`train_heads` gives the bytes of the per-triple loop (`PerTripleLoop`): heads and `repr(loss_history)`."""

    DIM = 6
    FLOPS = RegularizerConfig(RegularizerKind.FLOPS, weight=0.1)
    TOPK = RegularizerConfig(RegularizerKind.TOPK, k=3)

    def _triples(self):
        """Triples with 1, 4, 9 and 130 negatives, two of each count and interleaved, so the counts form
        groups out of triple order; a query in two triples, a doc in four (twice among one triple's
        negatives, and positive and negative of another), an empty negative, and teacher scores on all."""
        task, _ = small_task(num_docs=160, num_queries=8, vocab_size=40, seed=5)
        docs, queries = task.docs, task.queries
        rng = np.random.default_rng(3)
        negatives = {
            1: [(docs[2],), (docs[7],)],
            4: [(docs[2], docs[9], docs[2], text("d_empty")), (docs[3], docs[4], docs[5], docs[6])],
            9: [tuple(docs[10:19]), (docs[2], *docs[20:28])],
            130: [tuple(docs[30:160]), (*docs[28:30], *docs[32:160])],
        }
        layout = [(9, 0), (1, 0), (130, 0), (4, 0), (1, 1), (9, 1), (4, 1), (130, 1)]
        triples = []
        for i, (count, k) in enumerate(layout):
            negs = negatives[count][k]
            teacher = (float(rng.normal()), tuple(rng.normal(size=len(negs)).tolist()))
            triples.append(TrainingTriple(queries[i % 6], docs[i % 3], negs, teacher))
        return task, triples

    @pytest.mark.parametrize("loss", ["contrastive", "margin_mse"])
    @pytest.mark.parametrize("query, doc, shared, keep, regs", [
        ("mlm", "mlm", True, (), None), ("mlp", "mlp", True, (), None), ("mlp", "mlm", False, (), None),
        ("mlm", "mlp", False, (), None), ("binary", "mlp", False, (), None), ("binary", "mlm", False, (), None),
        ("mlm", "mlp", False, ("query",), (FLOPS, FLOPS)), ("mlm", "mlp", False, ("doc",), (FLOPS, TOPK)),
    ], ids=["mlm-shared", "mlp-shared", "mlp-mlm", "mlm-mlp", "binary-mlp", "binary-mlm", "mlm-mlp-keep-query",
            "mlm-mlp-keep-doc-topk"])
    def test_bytes_equal_the_per_triple_loop(self, monkeypatch, loss, query, doc, shared, keep, regs):
        """Also with a side that does not train, binary or kept: its heads come back as they went in, and a kept
        side's penalty value and top-k mask still shape the loss."""
        task, triples = self._triples()
        v = task.vocab.size
        table = backbone_table(v, self.DIM, 11)
        config = method_config(query, doc, shared_heads=shared, loss=loss, steps=4, lr=0.3)
        if regs:
            config = replace(config, query=replace(config.query, regularizer=regs[0]),
                             doc=replace(config.doc, regularizer=regs[1]))
        start = (init_head_parameters(v, self.DIM, 4), init_head_parameters(v, self.DIM, 5))

        def train(config=config):
            result = train_heads(config, triples, lambda texts: toy_backbone(texts, table, 11), *start, keep=keep)
            return heads_bytes(result.query_heads), heads_bytes(result.doc_heads), repr(result.loss_history)

        batched = train()
        fixed = [i for i, side in enumerate(("query", "doc")) if side in keep or (query, doc)[i] == "binary"]
        assert [batched[i] for i in fixed] == [heads_bytes(start[i]) for i in fixed]
        for side in keep:  # without the kept side's regularizer, the loss moves
            bare = train(replace(config, **{side: replace(getattr(config, side), regularizer=RegularizerConfig())}))
            assert bare[2] != batched[2]
        monkeypatch.setattr(supervision, "_TripleBatch", PerTripleLoop)
        assert batched == train()

    @staticmethod
    def _spy(monkeypatch, module, name) -> list:
        """Replace `module.name` with a wrapper that records each call; returns the record."""
        calls, fn = [], getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        return calls

    def test_binary_side_has_no_backward(self, monkeypatch):
        """binary/mlp runs `head_backward` once per step, for the doc side alone."""
        task, triples = self._triples()
        v = task.vocab.size
        table = backbone_table(v, self.DIM, 11)
        calls = self._spy(monkeypatch, supervision, "head_backward")
        train_heads(method_config("binary", "mlp", steps=5), triples, lambda texts: toy_backbone(texts, table, 11),
                    init_head_parameters(v, self.DIM, 4), init_head_parameters(v, self.DIM, 5))
        assert len(calls) == 5

    @pytest.mark.parametrize("keep", ["query", "doc"])
    def test_kept_side_runs_its_forward_once(self, monkeypatch, keep):
        """On mlm/mlp, the kept side's kernel runs once per call and the trained side's once per step."""
        task, triples = self._triples()
        v = task.vocab.size
        table = backbone_table(v, self.DIM, 11)
        calls = {side: self._spy(monkeypatch, encoders, kernel)
                 for side, kernel in (("query", "frozen_forward"), ("doc", "mlp_forward"))}
        train_heads(method_config("mlm", "mlp", steps=5), triples, lambda texts: toy_backbone(texts, table, 11),
                    init_head_parameters(v, self.DIM, 4), init_head_parameters(v, self.DIM, 5), keep=(keep,))
        assert {side: len(c) for side, c in calls.items()} == {side: 1 if side == keep else 5 for side in calls}

    @pytest.mark.parametrize("n", [3, 17, 24, 300, 301, 5000])
    def test_scores_are_the_dot_of_each_pair(self, n):
        """The stacked matmul scores each (query, candidate) pair with the bits of `Wq[q].dot(Wd[d])`,
        over rows of mixed magnitudes, at widths around BLAS's unrolled blocks."""
        rng = np.random.default_rng(n)
        Wq, Wd = (rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-8, 8, size=(rows, n)) for rows in (3, 9))
        candidates = [(0, [1, 2], None), (1, [4, 0, 8], None), (0, [5, 6], None), (2, [7, 3, 7], None)]
        seen = []

        def recording_loss(scores, teacher):
            seen.append(scores.copy())
            return np.zeros(len(scores)), np.zeros_like(scores)

        supervision._TripleBatch(recording_loss, candidates)(Wq, Wd, ("q", "d"))
        by_count = [[c for c in candidates if len(c[1]) == count] for count in (2, 3)]
        want = [np.array([[Wq[q].dot(Wd[d]) for d in rows] for q, rows, _ in group]) for group in by_count]
        assert [bits(x) for x in seen] == [bits(x) for x in want]


class TestTrainerGradients:
    """End-to-end parameter gradients vs finite differences through one step."""

    def _numeric_check(self, config, triples, embed, start, name, index=None, side="query"):
        """Checks the gradient of the `side` heads' field `name` at `index`, or of the scalar field `name`."""
        def at(heads):
            value = getattr(heads, name)
            return value if index is None else value[index]

        # one GD step with lr recovers the gradient: grad = (init - updated) / lr
        lr = config.supervision.lr
        result = train_heads(config, triples, embed, start["query"], start["doc"])
        grad = (at(start[side]) - at(getattr(result, f"{side}_heads"))) / lr

        h = 1e-5

        def loss_with(delta):
            heads = start[side].copy()
            if index is None:
                setattr(heads, name, at(heads) + delta)
            else:
                getattr(heads, name)[index] += delta
            probe = replace(config, supervision=replace(config.supervision, steps=1, lr=0.0))
            probe_heads = {**start, side: heads}
            return train_heads(probe, triples, embed, probe_heads["query"], probe_heads["doc"]).loss_history[0]

        numeric = (loss_with(h) - loss_with(-h)) / (2 * h)
        assert grad == pytest.approx(numeric, rel=1e-3, abs=1e-7)

    def _task(self):
        task, triples = small_task(num_docs=20, num_queries=8, vocab_size=24)
        v, dim = task.vocab.size, 6
        table = backbone_table(v, dim, 11)
        return triples, (lambda texts: toy_backbone(texts, table, 11)), v, dim

    @staticmethod
    def _seeded(v, dim, seed):
        return {"query": init_head_parameters(v, dim, seed), "doc": init_head_parameters(v, dim, seed + 1)}

    def test_mlm_bias_gradient(self, rng):
        triples, embed, v, dim = self._task()
        config = method_config("mlm", "mlm", shared_heads=True, steps=1, lr=0.25)
        for index in rng.integers(0, v, size=5):
            self._numeric_check(config, triples, embed, self._seeded(v, dim, 5), "mlm_bias", int(index))

    def test_mlp_weight_gradient(self, rng):
        triples, embed, v, dim = self._task()
        config = method_config("mlp", "mlp", shared_heads=True, steps=1, lr=0.25)
        for index in range(dim):
            self._numeric_check(config, triples, embed, self._seeded(v, dim, 5), "mlp_weight", index)

    def test_mlm_bias_gradient_margin_mse(self, rng):
        triples, embed, v, dim = self._task()
        config = method_config("mlm", "mlm", shared_heads=True, loss="margin_mse", steps=1, lr=0.25)
        for index in rng.integers(0, v, size=5):
            self._numeric_check(config, triples, embed, self._seeded(v, dim, 5), "mlm_bias", int(index))

    def test_quality_mlm_softplus_doc_bias_gradient(self, rng):
        # EPIC's doc head: MLM with quality heads and softplus, MLP query head
        triples, embed, v, dim = self._task()
        config = method_config("mlp", "mlm", steps=1, lr=0.25)
        start = {"query": init_head_parameters(v, dim, 5),
                 "doc": init_head_parameters(v, dim, 6, activation="softplus", use_quality_heads=True)}
        for index in rng.integers(0, v, size=5):
            self._numeric_check(config, triples, embed, start, "mlm_bias", int(index), side="doc")

    def test_cls_mlm_doc_bias_gradient_term_mse(self, rng):
        # TILDE's doc head: CLS-MLM trained on term recall under a frozen binary query side
        triples, embed, v, dim = self._task()
        config = method_config("binary", "cls_mlm", loss="term_mse", steps=1, lr=0.25)
        labeled = sorted({term for t in triples for term in t.query.token_ids})
        for index in rng.choice(labeled, size=5, replace=False):
            self._numeric_check(config, triples, embed, self._seeded(v, dim, 5), "mlm_bias", int(index),
                                side="doc")

    def test_sparta_mlm_doc_bias_gradient(self, rng):
        # SPARTA: a frozen binary query side and a trained ReLU MLM doc head
        triples, embed, v, dim = self._task()
        config = method_config("binary", "mlm", steps=1, lr=0.25)
        for index in rng.integers(0, v, size=5):
            self._numeric_check(config, triples, embed, self._seeded(v, dim, 5), "mlm_bias", int(index),
                                side="doc")

    def test_shared_mlm_bias_gradient_with_empty_negative(self, rng):
        """An empty negative scores 0 and adds no gradient; a start bias of -1 on the even
        terms leaves those columns non-positive for some texts, so their max sits below ReLU's kink."""
        triples, embed, v, dim = self._task()
        first = triples[0]
        triples = [replace(first, negatives=(text("d_empty"), *first.negatives[1:])), *triples[1:]]
        start = self._seeded(v, dim, 5)
        start["query"].mlm_bias = np.where(np.arange(v) % 2 == 0, -1.0, 0.0)

        def max_logits(t):
            emb = embed([t])
            return (emb.ctx @ emb.table.T).max(axis=0) + start["query"].mlm_bias

        assert all((max_logits(t) <= 0).any() for t in (first.query, first.positive))
        config = method_config("mlm", "mlm", shared_heads=True, steps=1, lr=0.25)
        for index in [0, 1, *rng.integers(0, v, size=4)]:
            self._numeric_check(config, triples, embed, start, "mlm_bias", int(index))

    def test_exp_mlp_doc_gradient_with_empty_and_repeated_docs(self):
        """DeepImpact's doc side: an expansion-MLP head under a frozen binary query side, trained as one
        token stack.  The first triple gains an empty negative (no tokens, no gradient) and, next to
        it in the stack, a negative that repeats two of the query's terms, each occurrence above
        ReLU's kink, so its gradient sums over their positions."""
        triples, embed, v, dim = self._task()
        first = triples[0]
        extra = (text("d_empty"), text("d_repeated", 15, 15, 14, 14))
        triples = [replace(first, negatives=(*extra, *first.negatives), teacher_scores=None), *triples[1:]]
        config = method_config("binary", "exp_mlp", steps=1, lr=0.25)
        for index in range(dim):
            self._numeric_check(config, triples, embed, self._seeded(v, dim, 5), "mlp_weight", index, side="doc")
        self._numeric_check(config, triples, embed, self._seeded(v, dim, 5), "mlp_bias", side="doc")

    HEADS = {
        "mlm": (EncoderKind.MLM, "mlm_bias"),
        "mlp": (EncoderKind.MLP, "mlp_weight"),
    }

    def _indices(self, head, v, dim, rng):
        return [int(i) for i in rng.integers(0, v, size=5)] if head == "mlm" else range(dim)

    @pytest.mark.parametrize("head", ["mlm", "mlp"])
    @pytest.mark.parametrize("kind", [RegularizerKind.FLOPS, RegularizerKind.L1, RegularizerKind.L2])
    def test_regularized_gradient_at_full_weight(self, rng, kind, head):
        """The penalty weight ramps from 0 at step 0 to its full value at step 1 of two,
        so the step-1 update (h1 - h2) / lr is the gradient of loss_history[1], which a
        central difference reads at lr = 0 from h1."""
        triples, embed, v, dim = self._task()
        encoder, name = self.HEADS[head]
        reg = RegularizerConfig(kind=kind, weight=0.1)
        options = {"shared_heads": True, "reg": reg, "steps": 2, "lr": 0.25}
        start = self._seeded(v, dim, 5)
        h1 = train_heads(method_config(encoder, encoder, **{**options, "steps": 1}), triples, embed,
                         start["query"], start["doc"]).query_heads
        h2 = train_heads(method_config(encoder, encoder, **options), triples, embed,
                         start["query"], start["doc"]).query_heads

        def loss_with(index, delta, probe=method_config(encoder, encoder, **{**options, "lr": 0.0})):
            heads = h1.copy()
            getattr(heads, name)[index] += delta
            return train_heads(probe, triples, embed, heads, heads).loss_history[1]

        def penalty(texts):  # naive: over the distinct texts of a side at h1
            w = np.concatenate([one_text_stack(encoder, t, embed([t]), h1)[0] for t in texts])
            if kind is RegularizerKind.FLOPS:
                return float((w.mean(axis=0) ** 2).sum())
            return float(np.mean([np.linalg.norm(row, ord=1 if kind is RegularizerKind.L1 else 2) for row in w]))

        queries = {t.query.doc_id: t.query for t in triples}.values()
        docs = {d.doc_id: d for t in triples for d in (t.positive, *t.negatives)}.values()
        unregularized = method_config(encoder, encoder, **{**options, "lr": 0.0, "reg": RegularizerConfig()})
        in_loss = loss_with(0, 0.0) - loss_with(0, 0.0, unregularized)
        assert in_loss == pytest.approx(reg.weight * (penalty(queries) + penalty(docs)), rel=1e-9)
        h = 1e-5
        for index in self._indices(head, v, dim, rng):
            grad = (getattr(h1, name) - getattr(h2, name))[index] / options["lr"]
            numeric = (loss_with(index, h) - loss_with(index, -h)) / (2 * h)
            assert grad == pytest.approx(numeric, rel=1e-3, abs=1e-7)

    @pytest.mark.parametrize("head, k", [("mlm", 5), ("mlp", 3)])
    def test_topk_masked_gradient(self, rng, head, k):
        # at steps=1 the k schedule is at its end value: the mask keeps k terms per text
        triples, embed, v, dim = self._task()
        encoder, name = self.HEADS[head]
        reg = RegularizerConfig(kind=RegularizerKind.TOPK, k=k)
        config = method_config(encoder, encoder, shared_heads=True, reg=reg, steps=1, lr=0.25)
        for index in self._indices(head, v, dim, rng):
            self._numeric_check(config, triples, embed, self._seeded(v, dim, 5), name, index)


class TestTriplesFile:
    def test_round_trip(self, tmp_path):
        task, triples = small_task(num_docs=20, num_queries=5, vocab_size=30)
        path = tmp_path / "triples.jsonl"
        import json

        with open(path, "w") as f:
            for rec in task.triples:
                f.write(json.dumps(rec) + "\n")
        docs = {d.doc_id: d for d in task.docs}
        queries = {q.doc_id: q for q in task.queries}
        loaded = read_triples(path, queries, docs)
        assert len(loaded) == len(triples)
        assert loaded[0].query.doc_id == triples[0].query.doc_id
        assert loaded[0].teacher_scores == triples[0].teacher_scores

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        path.write_text('{"q": "missing"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":1:"):
            read_triples(path, {}, {})
