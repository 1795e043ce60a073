"""Encoder architectures, checked against independent dense evaluations."""

import functools
import hashlib
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import encode_one, make_bundle, make_heads, method_config, one_text_stack, text, to_dense

from lsrkit.core import SparseVector, TokenizedText, build_vocabulary, compute_corpus_stats, term_counts
from lsrkit.encoders import (
    Bm25Params,
    EncoderKind,
    argmax_forward,
    backbone_table,
    encode_binary,
    encode_bm25_doc,
    encode_bm25_query,
    expand_text,
    frozen_forward,
    frozen_input,
    head_backward,
    init_head_parameters,
    mlp_forward,
    read_expansion_file,
    read_head_parameters,
    softplus,
    stack_forward,
    token_stack,
    toy_backbone,
    write_head_parameters,
)
from lsrkit.pipeline import Resources, encode_side
from lsrkit.regularization import RegularizerConfig, RegularizerKind

# ---------------------------------------------------------------------------
# Independent dense oracles for the four encoder formulas
# ---------------------------------------------------------------------------


def dense_binary(ids, vocab_size):
    w = np.zeros(vocab_size)
    for t in ids:
        w[t] = 1.0
    return w


def dense_mlp(ids, ctx, W, b, vocab_size, log_normalize=True, act="relu"):
    w = np.zeros(vocab_size)
    for i in range(vocab_size):
        for j, t in enumerate(ids):
            if t != i:
                continue
            z = float(ctx[j] @ W + b)
            a = max(z, 0.0) if act == "relu" else math.log1p(math.exp(-abs(z))) + max(z, 0.0)
            w[i] += math.log(a + 1.0) if log_normalize else a
    return w


def dense_mlm(ids, ctx, E, bias, q=1.0, g=None, act="relu"):
    vocab_size = E.shape[0]
    g = np.ones(len(ids)) if g is None else g
    w = np.zeros(vocab_size)
    for i in range(vocab_size):
        best = 0.0
        for j in range(len(ids)):
            z = float(ctx[j] @ E[i] + bias[i])
            a = (max(z, 0.0) if act == "relu" else math.log1p(math.exp(-abs(z))) + max(z, 0.0)) * g[j]
            best = max(best, a)
        w[i] = q * math.log1p(best)
    return w


def dense_cls_mlm(cls, E, bias, act="relu"):
    z = E @ cls + bias
    if act == "relu":
        return np.maximum(z, 0.0)
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def textbook_bm25(query_ids, doc_ids, stats, k1=0.9, b=0.4):
    """Standalone BM25 scorer, independent of the encoder decomposition."""
    tf = {}
    for t in doc_ids:
        tf[t] = tf.get(t, 0) + 1
    total = 0.0
    for t in set(query_ids):
        if t not in tf:
            continue
        df = stats.doc_freq.get(t, 0)
        idf = math.log(1.0 + (stats.num_docs - df + 0.5) / (df + 0.5))
        denom = tf[t] + k1 * (1.0 - b + b * len(doc_ids) / stats.avg_doc_len)
        total += idf * tf[t] * (k1 + 1.0) / denom
    return total


class TestBinary:
    def test_dedup(self):
        assert encode_binary(text("d", 0, 1, 0)) == SparseVector({0: 1.0, 1: 1.0})

    def test_empty(self):
        assert encode_binary(text("d")) == SparseVector()

    def test_single(self):
        assert encode_binary(text("d", 2)) == SparseVector({2: 1.0})


class TestMlp:
    def test_relu_drops_negative_logit(self):
        # d=1, W=1, b=0, tokens [a,b] with h=[2,-3]: a gets ln 3, b is dropped
        emb = make_bundle([[2.0], [-3.0]], [[0.0], [0.0]])
        heads = make_heads(2, 1)
        got = encode_one("mlp", text("d", 0, 1), emb, heads)
        assert got.entries == pytest.approx({0: math.log(3.0)})

    def test_repeated_token_sums_over_positions(self):
        emb = make_bundle([[2.0], [2.0]], [[0.0], [0.0]])
        got = encode_one("mlp", text("d", 0, 0), emb, make_heads(2, 1))
        assert got.entries == pytest.approx({0: 2.0 * math.log(3.0)})

    def test_empty_text(self):
        emb = make_bundle([], [[0.0], [0.0]])
        assert encode_one("mlp", text("d"), emb, make_heads(2, 1)) == SparseVector()

    def test_no_log_normalization_variant(self):
        emb = make_bundle([[2.0]], [[0.0]])
        got = encode_one("mlp", text("d", 0), emb, make_heads(1, 1, mlp_log_normalize=False))
        assert got.entries == pytest.approx({0: 2.0})

    def test_shape_mismatch_rejected(self):
        emb = make_bundle([[2.0]], [[0.0]])
        with pytest.raises(ValueError):
            encode_one("mlp", text("d", 0, 1), emb, make_heads(1, 1))

    def test_matches_dense_oracle_randomized(self, rng):
        vocab_size, dim = 12, 4
        for _ in range(50):
            ids = tuple(rng.integers(0, vocab_size, size=rng.integers(0, 8)))
            ctx = rng.standard_normal((len(ids), dim))
            emb = make_bundle(ctx, rng.standard_normal((vocab_size, dim)))
            W = rng.standard_normal(dim)
            heads = make_heads(vocab_size, dim, mlp_weight=W, mlp_bias=0.3)
            got = encode_one("mlp", TokenizedText("d", ids), emb, heads)
            want = dense_mlp(ids, ctx, W, 0.3, vocab_size)
            assert to_dense(got, vocab_size) == pytest.approx(want.tolist(), abs=1e-12)


class TestExpandText:
    def test_dedup_append(self):
        got = expand_text(text("d", 0, 1), {"d": [1, 2]})
        assert got.token_ids == (0, 1, 2)

    def test_empty_expansion(self):
        assert expand_text(text("d", 0), {"d": []}).token_ids == (0,)

    def test_expansion_of_empty_text(self):
        assert expand_text(text("d"), {"d": [5, 6]}).token_ids == (5, 6)

    def test_missing_doc_warns_and_passes_through(self):
        got = expand_text(text("d", 0), {})
        assert got.token_ids == (0,)


class TestExpansionFile:
    def test_reads_terms_per_doc(self, tmp_path):
        path = tmp_path / "exp.tsv"
        path.write_text("d1\tb a\nd2\t\n\n", encoding="utf-8")
        assert read_expansion_file(path, {"a": 0, "b": 1}, {"d1", "d2", "q1"}) == {"d1": [1, 0], "d2": []}

    @pytest.mark.parametrize("line", ["d2 a", "d1\tb", "d 2\ta", "\tb"],
                             ids=["no_tab", "repeated_id", "id_with_space", "empty_id"])
    def test_bad_line_names_path_and_line(self, tmp_path, line):
        """`d2 a` is no doc `"d2 a"` without terms, a second d1 line does not replace the first, and
        an id no collection line can have (`read_collection`'s rule) is no id either."""
        path = tmp_path / "exp.tsv"
        path.write_text(f"d1\ta\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"exp\.tsv:2: (missing tab|repeated id 'd1'|id '(d 2)?' is empty)"):
            read_expansion_file(path, {"a": 0, "b": 1}, {"d1", "d2", "d 2", ""})

    def test_id_outside_the_texts_names_path_and_line(self, tmp_path):
        path = tmp_path / "exp.tsv"
        path.write_text("d1\ta\nq1\tb\nnodoc\ta\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"exp\.tsv:3: id 'nodoc' names no doc or query"):
            read_expansion_file(path, {"a": 0, "b": 1}, {"d1", "q1"})


class TestMlm:
    def test_expands_to_non_input_term(self):
        # |V|=2, e=[1,1], b=0, token a (id 0) with h=2: both dims get ln 3
        emb = make_bundle([[2.0]], [[1.0], [1.0]])
        got = encode_one("mlm", text("d", 0), emb, make_heads(2, 1))
        assert got.entries == pytest.approx({0: math.log(3.0), 1: math.log(3.0)})

    def test_all_negative_logits_give_zero_vector(self):
        emb = make_bundle([[-2.0]], [[1.0], [1.0]])
        assert encode_one("mlm", text("d", 0), emb, make_heads(2, 1)) == SparseVector()

    def test_max_aggregation_over_positions(self):
        emb = make_bundle([[1.0], [4.0]], [[1.0]])
        got = encode_one("mlm", text("d", 0, 0), emb, make_heads(1, 1))
        assert got.entries == pytest.approx({0: math.log(5.0)})

    def test_empty_text(self):
        emb = make_bundle([], [[1.0]])
        assert encode_one("mlm", text("d"), emb, make_heads(1, 1)) == SparseVector()

    @staticmethod
    def _relu_head(ids, ctx, E, bias):
        """ReLU MLM of a one-text stack on a hand-built bundle, its dense oracle, and the bias gradient of sum(w)."""
        emb = make_bundle(ctx, E)
        heads = make_heads(len(E), len(E[0]), mlm_bias=bias)
        w, cache = one_text_stack("mlm", TokenizedText("d", ids), emb, heads)
        grads = {"mlp_weight": np.zeros(len(E[0])), "mlp_bias": 0.0, "mlm_bias": np.zeros(len(E))}
        head_backward(cache, np.ones((1, len(E))), grads)
        want = dense_mlm(ids, emb.ctx_embeddings, emb.input_embeddings, np.asarray(bias, dtype=np.float64))
        return w[0], cache, want, grads["mlm_bias"]

    def test_tied_max_logit(self):
        # column 0: both positions give logit 1 + 0.5; column 1: 2 at position 0, -1 at position 1
        w, _, want, grad = self._relu_head((0, 1), [[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [2.0, -1.0]], [0.5, 0.0])
        assert want.tolist() == [math.log1p(1.5), math.log1p(2.0)]
        assert w.tolist() == pytest.approx(want.tolist(), abs=1e-12)
        # shifting the bias moves both tied logits alike: dw/db = 1 / (1 + m)
        assert grad.tolist() == [1.0 / 2.5, 1.0 / 3.0]

    def test_column_of_nonpositive_logits(self):
        # column 0's logits are 0 and -1: weight 0 and no gradient (ReLU's kink counts as 0)
        w, _, want, grad = self._relu_head((0, 1), [[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 1.0]], [0.0, 0.0])
        assert want.tolist() == [0.0, math.log1p(1.0)]
        assert w.tolist() == pytest.approx(want.tolist(), abs=1e-12)
        assert grad.tolist() == [0.0, 0.5]

    def test_empty_text_gives_zeros_and_no_gradient(self):
        w, _, want, grad = self._relu_head((), [], [[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0])
        assert w.tolist() == want.tolist() == [0.0, 0.0]
        assert grad.tolist() == [0.0, 0.0]

    def test_matches_dense_oracle_randomized(self, rng):
        vocab_size, dim = 10, 3
        for _ in range(50):
            ids = tuple(rng.integers(0, vocab_size, size=rng.integers(1, 6)))
            ctx = rng.standard_normal((len(ids), dim))
            E = rng.standard_normal((vocab_size, dim))
            bias = rng.standard_normal(vocab_size)
            emb = make_bundle(ctx, E)
            got = encode_one("mlm", TokenizedText("d", ids), emb, make_heads(vocab_size, dim, mlm_bias=bias))
            want = dense_mlm(ids, ctx, E, bias)
            assert to_dense(got, vocab_size) == pytest.approx(want.tolist(), abs=1e-12)

    def test_log_of_max_equals_max_of_logs(self, rng):
        # log(1 + max_j x_j) == max_j log(1 + x_j) for x_j >= 0
        vocab_size, dim = 8, 3
        for _ in range(30):
            ids = tuple(rng.integers(0, vocab_size, size=4))
            ctx = rng.standard_normal((len(ids), dim))
            E = rng.standard_normal((vocab_size, dim))
            emb = make_bundle(ctx, E)
            got = encode_one("mlm", TokenizedText("d", ids), emb, make_heads(vocab_size, dim))
            logits = ctx @ E.T
            alt = np.max(np.log1p(np.maximum(logits, 0.0)), axis=0)
            assert to_dense(got, vocab_size) == pytest.approx(alt.tolist(), abs=1e-12)

    def test_permutation_invariance_with_quality_heads_off(self, rng):
        vocab_size, dim = 8, 3
        ids = (1, 4, 2, 7)
        ctx = rng.standard_normal((len(ids), dim))
        E = rng.standard_normal((vocab_size, dim))
        heads = make_heads(vocab_size, dim)
        base = encode_one("mlm", TokenizedText("d", ids), make_bundle(ctx, E), heads)
        perm = [2, 0, 3, 1]
        permuted = encode_one(
            "mlm",
            TokenizedText("d", tuple(ids[p] for p in perm)),
            make_bundle(ctx[perm], E),
            heads,
        )
        assert to_dense(base, vocab_size) == pytest.approx(to_dense(permuted, vocab_size))

    def test_quality_heads_scale_inside_the_max(self, rng):
        vocab_size, dim = 6, 3
        ids = (0, 3)
        ctx = rng.standard_normal((len(ids), dim))
        E = rng.standard_normal((vocab_size, dim))
        heads = make_heads(vocab_size, dim, use_quality_heads=True)
        heads.quality_weight = rng.standard_normal(dim)
        heads.importance_weight = rng.standard_normal(dim)
        cls = ctx.mean(axis=0)
        emb = make_bundle(ctx, E, cls=cls)
        got = encode_one("mlm", TokenizedText("d", ids), emb, heads)
        q = float(softplus(cls @ heads.quality_weight))
        g = softplus(ctx @ heads.importance_weight)
        want = dense_mlm(ids, ctx, E, np.zeros(vocab_size), q=q, g=g)
        assert to_dense(got, vocab_size) == pytest.approx(want.tolist(), abs=1e-12)


class TestFrozenStack:
    """`frozen_forward` and `head_backward` over a stack of `frozen_input` rows, directly and through
    `stack_forward`, give the bits of one-text stacks, text by text, added onto a running total in
    text order."""

    @pytest.mark.parametrize("kind, activation", [
        (EncoderKind.MLM, "relu"), (EncoderKind.CLS_MLM, "relu"), (EncoderKind.CLS_MLM, "softplus"),
        (EncoderKind.BINARY, "relu"),
    ])
    def test_stack_equals_per_text_loop(self, rng, kind, activation):
        vocab_size, dim = 12, 4
        E = rng.standard_normal((vocab_size, dim))
        heads = make_heads(vocab_size, dim, mlm_bias=rng.standard_normal(vocab_size), activation=activation)
        texts = [TokenizedText(f"d{i}", tuple(int(t) for t in rng.integers(0, vocab_size, size=n)))
                 for i, n in enumerate((3, 0, 5, 1, 4))]
        embs = [make_bundle(rng.standard_normal((len(t), dim)), E, cls=rng.standard_normal(dim)) for t in texts]
        G = rng.standard_normal((len(texts), vocab_size))
        start = rng.standard_normal(vocab_size)
        rows = np.stack([frozen_input(kind, t, e, heads) for t, e in zip(texts, embs)])
        for W, cache in (frozen_forward(kind, rows, heads), stack_forward(kind, texts, embs, heads)(heads)):
            stacked = {"mlp_weight": np.zeros(dim), "mlp_bias": 0.0, "mlm_bias": start.copy()}
            head_backward(cache, G, stacked)
            looped = {"mlp_weight": np.zeros(dim), "mlp_bias": 0.0, "mlm_bias": start.copy()}
            for i, (t, e) in enumerate(zip(texts, embs)):
                w, c = one_text_stack(kind, t, e, heads)
                assert w.tobytes() == W[i].tobytes()
                head_backward(c, G[i:i + 1], looped)
            assert stacked["mlm_bias"].tobytes() == looped["mlm_bias"].tobytes()

    def test_no_frozen_input_where_a_parameter_reaches_inside(self):
        emb = make_bundle([[1.0]], [[1.0], [2.0]])
        for kind, options in [
            (EncoderKind.MLP, {}), (EncoderKind.EXP_MLP, {}),
            (EncoderKind.MLM, {"activation": "softplus"}), (EncoderKind.MLM, {"use_quality_heads": True}),
        ]:
            assert frozen_input(kind, text("d", 0), emb, make_heads(2, 1, **options)) is None


class TestMlpStack:
    """`mlp_forward` over a `token_stack`, directly and through `stack_forward`, and `head_backward` of
    its cache give the bits of one-text stacks, text by text, added onto a running total in text
    order.

    The stack is large enough that a BLAS form (`ctx @ w` for the logits, `ctx.T @ gz` for
    the weight gradient) gives some rows other bits than it gives the texts alone."""

    @pytest.mark.parametrize("kind", [EncoderKind.MLP, EncoderKind.EXP_MLP])
    @pytest.mark.parametrize("activation", ["relu", "softplus"])
    @pytest.mark.parametrize("log_normalize", [True, False])
    def test_stack_equals_per_text_loop(self, rng, kind, activation, log_normalize):
        vocab_size, dim = 12, 16
        E = rng.standard_normal((vocab_size, dim))
        heads = make_heads(vocab_size, dim, mlp_weight=rng.standard_normal(dim), mlp_bias=0.1,
                           activation=activation, mlp_log_normalize=log_normalize)
        lengths = [3, 0, 5, 1, *rng.integers(0, 12, size=56)]
        texts = [TokenizedText(f"d{i}", tuple(int(t) for t in rng.integers(0, vocab_size, size=n)))
                 for i, n in enumerate(lengths)]
        texts[2] = text("d2", 7, 3, 7, 7, 3)  # repeated tokens sum over their positions
        embs = [make_bundle(rng.standard_normal((len(t), dim)), E) for t in texts]
        G = rng.standard_normal((len(texts), vocab_size))
        start = rng.standard_normal(dim)

        def totals():
            return {"mlp_weight": start.copy(), "mlp_bias": 0.25, "mlm_bias": np.zeros(vocab_size)}

        for W, cache in (mlp_forward(token_stack(texts, embs, vocab_size), heads),
                         stack_forward(kind, texts, embs, heads)(heads)):
            stacked = totals()
            head_backward(cache, G, stacked)
            looped = totals()
            for i, (t, e) in enumerate(zip(texts, embs)):
                w, c = one_text_stack(kind, t, e, heads)
                assert w.tobytes() == W[i].tobytes(), t.doc_id
                head_backward(c, G[i:i + 1], looped)
            assert stacked["mlp_weight"].tobytes() == looped["mlp_weight"].tobytes()
            assert stacked["mlp_bias"] == looped["mlp_bias"]
            assert not W[1].any()

    def test_stack_without_tokens(self):
        W, cache = mlp_forward(token_stack([text("a"), text("b")], [make_bundle([], [[1.0]])] * 2, 1), make_heads(1, 1))
        assert W.shape == (2, 1) and not W.any() and cache is None


class TestArgmaxStack:
    """`argmax_forward` and `head_backward` over N texts give the bits of one-text stacks, added onto a
    running total in text order; an empty text's row is zero and passes no gradient."""

    @pytest.mark.parametrize("activation, quality", [("softplus", False), ("relu", True)])
    def test_stack_equals_per_text_loop(self, rng, activation, quality):
        vocab_size, dim = 12, 4
        E = rng.standard_normal((vocab_size, dim))
        bias = rng.standard_normal(vocab_size)
        bias[0] = -50.0  # column 0: under ReLU every token gives 0, a tie the first token wins
        heads = make_heads(vocab_size, dim, mlm_bias=bias, activation=activation, use_quality_heads=quality)
        heads.quality_weight, heads.importance_weight = rng.standard_normal((2, dim))
        texts = [TokenizedText(f"d{i}", tuple(int(t) for t in rng.integers(0, vocab_size, size=n)))
                 for i, n in enumerate((3, 0, 5, 1, 4))]
        ctxs = [rng.standard_normal((len(t), dim)) for t in texts]
        ctxs[2][3] = ctxs[2][1]  # equal rows: every column of text 2 has tied maxima
        embs = [make_bundle(c, E, cls=rng.standard_normal(dim)) for c in ctxs]
        G = rng.standard_normal((len(texts), vocab_size))
        start = rng.standard_normal(vocab_size)
        for forward in (functools.partial(argmax_forward, embs), stack_forward(EncoderKind.MLM, texts, embs, heads)):
            W, cache = forward(heads)
            stacked = {"mlp_weight": np.zeros(dim), "mlp_bias": 0.0, "mlm_bias": start.copy()}
            head_backward(cache, G, stacked)
            looped = {"mlp_weight": np.zeros(dim), "mlp_bias": 0.0, "mlm_bias": start.copy()}
            for i, (t, e) in enumerate(zip(texts, embs)):
                w, c = one_text_stack(EncoderKind.MLM, t, e, heads)
                assert w.tobytes() == W[i].tobytes(), t.doc_id
                head_backward(c, G[i:i + 1], looped)
            assert stacked["mlm_bias"].tobytes() == looped["mlm_bias"].tobytes()
            assert not W[1].any() and not cache["gstar"][1].any()

    def test_stack_forward_rejects_a_kind_without_dense_head(self):
        with pytest.raises(ValueError, match="no dense head"):
            stack_forward(EncoderKind.BM25_DOC, [text("d", 0)], [make_bundle([[1.0]], [[1.0]])], make_heads(1, 1))


class TestClsMlm:
    def test_positive_dim_only(self):
        emb = make_bundle([], [[1.0], [-1.0]], cls=[2.0])
        got = encode_one("cls_mlm", text("d"), emb, make_heads(2, 1))
        assert got.entries == pytest.approx({0: 2.0})

    def test_zero_cls_and_nonpositive_bias(self):
        emb = make_bundle([], [[1.0], [-1.0]], cls=[0.0])
        got = encode_one("cls_mlm", text("d"), emb, make_heads(2, 1, mlm_bias=[0.0, -1.0]))
        assert got == SparseVector()

    def test_bias_only(self):
        emb = make_bundle([], [[1.0]], cls=[0.0])
        got = encode_one("cls_mlm", text("d"), emb, make_heads(1, 1, mlm_bias=[0.5]))
        assert got.entries == pytest.approx({0: 0.5})

    def test_matches_dense_oracle_randomized(self, rng):
        vocab_size, dim = 9, 4
        for _ in range(30):
            E = rng.standard_normal((vocab_size, dim))
            cls = rng.standard_normal(dim)
            bias = rng.standard_normal(vocab_size)
            emb = make_bundle(np.zeros((0, dim)), E, cls=cls)
            got = encode_one("cls_mlm", text("d"), emb, make_heads(vocab_size, dim, mlm_bias=bias))
            want = dense_cls_mlm(cls, E, bias)
            assert to_dense(got, vocab_size) == pytest.approx(want.tolist(), abs=1e-12)


class TestBm25:
    def test_query_idf(self):
        stats = compute_corpus_stats([TokenizedText("d1", (0,)), TokenizedText("d2", (1,))])
        got = encode_bm25_query(text("q", 0), stats)
        assert got.entries.get(0, 0.0) == pytest.approx(math.log(2.0))

    def test_idf_positive_even_for_ubiquitous_terms(self):
        docs = [TokenizedText(f"d{i}", (0,)) for i in range(5)]
        stats = compute_corpus_stats(docs)
        got = encode_bm25_query(text("q", 0), stats)
        assert got.entries.get(0, 0.0) == pytest.approx(math.log(1.0 + 0.5 / 5.5))
        assert got.entries.get(0, 0.0) > 0

    def test_empty_query(self):
        stats = compute_corpus_stats([TokenizedText("d1", (0,))])
        assert encode_bm25_query(text("q"), stats) == SparseVector()

    def test_doc_weight_at_length_parity(self):
        stats = compute_corpus_stats([TokenizedText("d1", (0, 1))])
        (got,) = encode_bm25_doc([TokenizedText("d1", (0, 1))], stats, Bm25Params(k1=0.9, b=0.4))
        assert got.entries.get(0, 0.0) == pytest.approx(1.0)

    def test_saturation_bound(self):
        stats = compute_corpus_stats(
            [TokenizedText("d1", tuple([0] * 10**6)), TokenizedText("d2", tuple([1] * 10**6))]
        )
        (got,) = encode_bm25_doc([TokenizedText("d1", tuple([0] * 10**6))], stats)
        assert got.entries.get(0, 0.0) == pytest.approx(1.9, abs=1e-3)

    def test_empty_doc(self):
        stats = compute_corpus_stats([TokenizedText("d1", (0,))])
        assert encode_bm25_doc([TokenizedText("d2", ())], stats) == [SparseVector()]

    def test_degenerate_stats_rejected(self):
        stats = compute_corpus_stats([TokenizedText("d1", ())])
        with pytest.raises(ValueError):
            encode_bm25_doc([TokenizedText("d1", (0,))], stats)


@pytest.mark.parametrize("params", [{"k1": math.nan}, {"k1": math.inf}, {"k1": -0.1}, {"b": math.nan}, {"b": 1.1}])
def test_bm25_params_must_be_finite_and_in_range(params):
    with pytest.raises(ValueError, match=f"{next(iter(params))} must be"):
        Bm25Params(**params)


def bm25_doc_oracle(text: TokenizedText, stats, params: Bm25Params = Bm25Params()) -> SparseVector:
    """The per-text BM25 doc encoder the batch replaced, kept as a naive oracle."""
    if len(text) == 0:
        return SparseVector()
    if stats.degenerate:
        raise ValueError("degenerate corpus stats: avg_doc_len undefined")
    tf: dict[int, int] = {}
    for t in text.token_ids:
        tf[t] = tf.get(t, 0) + 1
    norm = params.k1 * (1.0 - params.b + params.b * len(text) / stats.avg_doc_len)
    return SparseVector({t: f * (params.k1 + 1.0) / (f + norm) for t, f in tf.items()})


def hex_entries(vectors: list[SparseVector]) -> list[dict[int, str]]:
    """Each vector's entries with the weights as `float.hex`: equal exactly when keys and bits are."""
    return [{t: w.hex() for t, w in v.entries.items()} for v in vectors]


BATCH_VOCAB = 1000


@pytest.fixture(scope="module")
def bm25_batch():
    """40 docs over ids up to 999: two empty ones mid-batch, heavy repeats, ids 0 and |V|-1, a 10**6-token doc."""
    rng = np.random.default_rng(19)
    texts = [TokenizedText(f"d{i}", rng.integers(0, BATCH_VOCAB, size=rng.integers(1, 30)).tolist())
             for i in range(40)]
    texts[5] = TokenizedText("d5", ())
    texts[17] = TokenizedText("d17", ())
    texts[9] = TokenizedText("d9", (BATCH_VOCAB - 1, 0, BATCH_VOCAB - 1, 300, 300, 300, 0))
    texts[12] = TokenizedText("d12", rng.integers(400, 410, size=25).tolist())
    texts[23] = TokenizedText("d23", rng.integers(0, BATCH_VOCAB, size=10**6).tolist())
    return texts, compute_corpus_stats(texts)


class TestBm25DocBatch:
    """`encode_bm25_doc` over a batch has the keys and bits of the per-text oracle."""

    @pytest.mark.parametrize("corpus", ["batch", "short docs"])
    @pytest.mark.parametrize("k1, b", [(0.9, 0.4), (0.0, 0.4), (0.9, 0.0), (0.9, 1.0), (1.2, 0.75), (1e308, 1.0)])
    def test_matches_per_text_oracle_bit_for_bit(self, bm25_batch, corpus, k1, b):
        """Stats of the short docs (mean length near 15) round b * length / avg_doc_len differently from
        b * (length / avg_doc_len).  At k1=1e308 a repeated term's tf * (k1 + 1) overflows to inf, so
        the oracle refuses that text's vector, and the batch refuses the same first text."""
        texts, stats = bm25_batch
        if corpus == "short docs":
            stats = compute_corpus_stats([t for t in texts if len(t) < 100])
        params = Bm25Params(k1=k1, b=b)
        expected, refused = [], []
        for t in texts:
            try:
                expected.append(bm25_doc_oracle(t, stats, params))
            except ValueError as e:
                refused.append(f"text {t.doc_id!r}: {e}")
        assert bool(refused) == (k1 == 1e308)
        if refused:
            with pytest.raises(ValueError, match=f"^{re.escape(refused[0])}$"):
                encode_bm25_doc(texts, stats, params)
            return
        got = encode_bm25_doc(texts, stats, params)
        assert hex_entries(got) == hex_entries(expected)
        for v in got:
            assert list(v.entries) == sorted(v.entries)
            assert 0.0 not in v.entries.values()
            assert all(type(t) is int and type(w) is float for t, w in v.entries.items())

    def test_overflowing_norm_weighs_a_term_zero(self):
        """At k1=1e308 a long doc's norm overflows to inf, so its terms (tf 1) weigh 0.0 and are dropped,
        while a short doc's stay finite: the oracle's bits."""
        texts = [TokenizedText("short", (1,)), TokenizedText("long", tuple(range(10, 40)))]
        stats, params = compute_corpus_stats(texts), Bm25Params(k1=1e308, b=1.0)
        got = encode_bm25_doc(texts, stats, params)
        assert hex_entries(got) == hex_entries([bm25_doc_oracle(t, stats, params) for t in texts])
        assert got[0].nnz == 1 and got[1] == SparseVector()

    def test_ends_of_the_vocabulary_and_repeats(self, bm25_batch):
        texts, stats = bm25_batch
        got = encode_bm25_doc(texts, stats)
        assert set(got[9].entries) == {0, 300, BATCH_VOCAB - 1}
        assert got[5] == got[17] == SparseVector()
        assert len(got[23]) == len(set(texts[23].token_ids))

    @pytest.mark.parametrize("n_chunks", [1, 3, 8])
    def test_chunks_match_one_batch(self, bm25_batch, n_chunks):
        texts, stats = bm25_batch
        size = -(-len(texts) // n_chunks)
        chunked = [v for i in range(0, len(texts), size) for v in encode_bm25_doc(texts[i:i + size], stats)]
        assert hex_entries(chunked) == hex_entries(encode_bm25_doc(texts, stats))

    @pytest.mark.parametrize("corpus", [[], [TokenizedText("d0", ()), TokenizedText("d1", ())]])
    def test_degenerate_stats(self, corpus):
        stats = compute_corpus_stats(corpus)
        empty = [TokenizedText("a", ()), TokenizedText("b", ())]
        assert encode_bm25_doc(empty, stats) == [SparseVector(), SparseVector()]
        assert encode_bm25_doc([], stats) == []
        for batch in ([TokenizedText("c", (3,))], [*empty, TokenizedText("c", (3,))]):
            with pytest.raises(ValueError, match="degenerate corpus stats"):
                encode_bm25_doc(batch, stats)
            with pytest.raises(ValueError, match="degenerate corpus stats"):
                bm25_doc_oracle(batch[-1], stats)

    def test_negative_term_id_names_the_text(self, bm25_batch):
        texts, stats = bm25_batch
        with pytest.raises(ValueError, match="text 'bad': term id -1 "):
            encode_bm25_doc([*texts[:3], TokenizedText("bad", (4, -1)), *texts[3:5]], stats)


def counts_oracle(texts: list[TokenizedText]):
    """`term_counts` the naive way: a Counter of (row, term id) over every token."""
    pairs = sorted(Counter((row, t) for row, text in enumerate(texts) for t in text.token_ids).items())
    return ([len(t) for t in texts], [r for (r, _), _ in pairs], [t for (_, t), _ in pairs], [n for _, n in pairs])


def corpus_oracle(texts: list[TokenizedText]):
    """(doc_freq, avg_doc_len) the naive way: a Counter over each doc's set of ids, and the token total over n."""
    n = len(texts)
    return dict(Counter(t for text in texts for t in set(text.token_ids))), (sum(map(len, texts)) / n if n else 0.0)


class TestTermCounts:
    """`core.term_counts`, and `compute_corpus_stats` and `encode_bm25_doc` built on it, against naive oracles."""

    ids = st.one_of(st.integers(0, 40), st.sampled_from([0, BATCH_VOCAB - 1, 2**40]))

    @settings(max_examples=40, deadline=None)
    # the 10**6-token doc only in the explicit examples: its naive oracle takes about 0.3 s
    @given(docs=st.lists(st.lists(ids, max_size=25), max_size=12), with_long_doc=st.just(False))
    @example(docs=[], with_long_doc=False)
    @example(docs=[[], []], with_long_doc=False)
    @example(docs=[], with_long_doc=True)
    @example(docs=[[3, 3, 3], [], [0, BATCH_VOCAB - 1, 0]], with_long_doc=True)
    @example(docs=[[2**40, 3, 2**40], [], [0, 2**40]], with_long_doc=False)
    def test_matches_the_naive_oracles(self, bm25_batch, docs, with_long_doc):
        texts = [TokenizedText(f"d{i}", ids) for i, ids in enumerate(docs)]
        if with_long_doc:
            texts.insert(len(texts) // 2, bm25_batch[0][23])  # 10**6 tokens
        columns = term_counts(texts)
        assert [c.tolist() for c in columns] == list(counts_oracle(texts))
        assert all(c.dtype == np.int64 for c in columns)
        doc_freq, avgdl = corpus_oracle(texts)
        stats = compute_corpus_stats(texts)
        assert stats.doc_freq == doc_freq and list(stats.doc_freq) == sorted(doc_freq)
        assert all(type(t) is int and type(df) is int for t, df in stats.doc_freq.items())
        assert stats.avg_doc_len.hex() == avgdl.hex() and stats.num_docs == len(texts)
        assert stats.degenerate == (not texts or avgdl == 0.0)
        assert hex_entries(encode_bm25_doc(texts, stats)) == hex_entries([bm25_doc_oracle(t, stats) for t in texts])

    def test_the_test_batch(self, bm25_batch):
        texts, stats = bm25_batch
        assert (stats.doc_freq, stats.avg_doc_len) == corpus_oracle(texts)
        assert [c.tolist() for c in term_counts(texts)] == list(counts_oracle(texts))

    @pytest.mark.parametrize("bad", [-1, -(2**70), "limit", 2**63, 2**70])
    @pytest.mark.parametrize("count", [term_counts, compute_corpus_stats])
    def test_id_out_of_range_names_the_text(self, count, bad):
        """Over 3 texts, ids from 0 to `limit` - 1 key (text, term) pairs into int64; others are errors."""
        limit = np.iinfo(np.int64).max // 3
        good = [TokenizedText("a", (0, 1)), TokenizedText("b", ()), TokenizedText("c", (limit - 1, 0))]
        assert term_counts(good)[2].tolist() == [0, 1, 0, limit - 1]
        assert compute_corpus_stats(good).doc_freq == {0: 2, 1: 1, limit - 1: 1}
        bad = limit if bad == "limit" else bad
        with pytest.raises(ValueError, match=f"text 'bad': term id {bad} is outside"):
            count([good[0], TokenizedText("bad", (2, bad)), good[2]])


class TestScore:
    def test_shared_support(self):
        assert SparseVector({0: 2.0}).dot(SparseVector({0: 3.0, 1: 1.0})) == 6.0

    def test_disjoint_supports(self):
        assert SparseVector({0: 1.0}).dot(SparseVector({1: 1.0})) == 0.0

    def test_bm25_composition_equals_textbook_oracle(self, rng):
        docs = [
            TokenizedText(f"d{i}", tuple(rng.integers(0, 50, size=rng.integers(3, 30))))
            for i in range(100)
        ]
        queries = [tuple(rng.integers(0, 50, size=rng.integers(1, 5))) for _ in range(100)]
        stats = compute_corpus_stats(docs)
        params = Bm25Params(k1=0.9, b=0.4)
        doc_vecs = encode_bm25_doc(docs, stats, params)
        for q_ids in queries:
            qv = encode_bm25_query(TokenizedText("q", q_ids), stats)
            for d, dv in zip(docs, doc_vecs):
                want = textbook_bm25(q_ids, d.token_ids, stats)
                assert qv.dot(dv) == pytest.approx(want, abs=1e-9)


class TestToyBackbone:
    def test_deterministic(self):
        t = text("d", 3, 1, 4)
        a = toy_backbone(t, 10, 8, seed=5)
        b = toy_backbone(t, 10, 8, seed=5)
        assert np.array_equal(a.ctx_embeddings, b.ctx_embeddings)
        assert np.array_equal(a.input_embeddings, b.input_embeddings)
        assert np.array_equal(a.cls_embedding, b.cls_embedding)

    def test_context_sensitivity(self):
        a = toy_backbone(text("d", 1, 5, 2), 10, 8, seed=0)
        b = toy_backbone(text("d", 3, 5, 4), 10, 8, seed=0)
        assert not np.array_equal(a.ctx_embeddings[1], b.ctx_embeddings[1])

    def test_empty_text(self):
        emb = toy_backbone(text("d"), 10, 8, seed=0)
        assert emb.ctx_embeddings.shape == (0, 8)
        assert np.array_equal(emb.cls_embedding, np.zeros(8))

    def test_seed_changes_embeddings(self):
        t = text("d", 1, 2)
        a = toy_backbone(t, 10, 8, seed=0)
        b = toy_backbone(t, 10, 8, seed=1)
        assert not np.array_equal(a.ctx_embeddings, b.ctx_embeddings)

    def test_given_table(self):
        """A passed-in table gives the same bundle bit for bit; it is read-only and must be |V| x d."""
        t = text("d", 3, 1, 4, 1)
        table = backbone_table(10, 8, seed=5)
        ref, emb = toy_backbone(t, 10, 8, seed=5), toy_backbone(t, 10, 8, 5, table)
        for field in ("ctx_embeddings", "cls_embedding", "input_embeddings"):
            assert getattr(ref, field).tobytes() == getattr(emb, field).tobytes()
        assert emb.input_embeddings is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        with pytest.raises(ValueError, match="backbone table"):
            toy_backbone(t, 11, 8, 5, table)


def naive_normals(dim, *parts):
    """The first `dim` normals of a fresh Philox generator keyed by the blake2b digest of repr(parts)."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=16).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "little"))).standard_normal(dim)


def naive_backbone(ids, vocab_size, dim, seed):
    """The toy backbone's table, context rows and sequence slot, one fresh generator per row."""
    table = np.zeros((vocab_size, dim))
    for i in range(vocab_size):
        table[i] = naive_normals(dim, "emb", seed, i) / math.sqrt(dim)
    ctx = np.zeros((len(ids), dim))
    for j, t in enumerate(ids):
        prev_t = ids[j - 1] if j > 0 else -1
        next_t = ids[j + 1] if j + 1 < len(ids) else -1
        noise = naive_normals(dim, "ctx", seed, prev_t, t, next_t, j % 2) / math.sqrt(dim)
        ctx[j] = (table[t] + noise) / math.sqrt(2.0)
    return table, ctx, ctx.mean(axis=0) if len(ids) else np.zeros(dim)


class TestBackboneBits:
    """`toy_backbone` and `backbone_table` draw the bits of a fresh generator per row
    from one generator that is re-keyed per row."""

    TEXTS = {
        "empty": (),
        "one_token": (7,),
        "repeated": (3, 3, 3, 5, 3, 5, 5),
        "forty": tuple((i * 17 + 5) % 30 for i in range(40)),
    }

    def test_equal_to_a_generator_per_row(self):
        # consecutive calls change the dim, so state left over from the last row or call would show
        for seed, name, dim in itertools.product((0, 11), self.TEXTS, (1, 3, 24)):
            ids = self.TEXTS[name]
            table, ctx, cls = naive_backbone(ids, 30, dim, seed)
            assert backbone_table(30, dim, seed).tobytes() == table.tobytes(), (seed, name, dim)
            emb = toy_backbone(text("d", *ids), 30, dim, seed)
            assert emb.ctx_embeddings.shape == (len(ids), dim)
            assert emb.ctx_embeddings.tobytes() == ctx.tobytes(), (seed, name, dim)
            assert emb.cls_embedding.tobytes() == cls.tobytes(), (seed, name, dim)
            assert emb.input_embeddings.tobytes() == table.tobytes(), (seed, name, dim)

    def test_pinned_digests(self):
        """Digests of the bits before the generator was re-keyed, so numpy drift in the state API fails here."""
        table = backbone_table(300, 24, 7)
        assert hashlib.sha256(table.tobytes()).hexdigest() == (
            "362935d2ce6781755387a89c881df30376631227815e53eccbd7fd960b77c135")
        emb = toy_backbone(text("d", 5, 17, 5, 299, 0, 17), 300, 24, 7, table)
        assert hashlib.sha256(emb.ctx_embeddings.tobytes() + emb.cls_embedding.tobytes()).hexdigest() == (
            "418ada90be0e7c4cc5e7f92fe09c791b3daf280ff18bb481e5497f801a9c8338")


class TestEncoderProperties:
    """Cross-cutting invariants, exercised with the toy backbone."""

    def _random_case(self, rng, vocab_size=20, dim=6):
        ids = tuple(int(t) for t in rng.integers(0, vocab_size, size=rng.integers(1, 10)))
        t = TokenizedText("d", ids)
        emb = toy_backbone(t, vocab_size, dim, seed=int(rng.integers(1000)))
        heads = init_head_parameters(vocab_size, dim, seed=int(rng.integers(1000)))
        return t, emb, heads

    def test_all_stored_weights_positive(self, rng):
        stats = compute_corpus_stats(
            [TokenizedText(f"d{i}", tuple(rng.integers(0, 20, size=8))) for i in range(20)]
        )
        for _ in range(40):
            t, emb, heads = self._random_case(rng)
            outputs = [
                encode_binary(t),
                encode_one("mlp", t, emb, heads),
                encode_one("mlm", t, emb, heads),
                encode_one("cls_mlm", t, emb, heads),
                encode_bm25_query(t, stats),
                *encode_bm25_doc([t], stats),
            ]
            for v in outputs:
                assert all(w > 0 for w in v.entries.values())

    def test_support_constraints(self, rng):
        expanded_somewhere = False
        for _ in range(40):
            t, emb, heads = self._random_case(rng)
            support = set(t.token_ids)
            assert set(encode_binary(t).entries) <= support
            assert set(encode_one("mlp", t, emb, heads).entries) <= support
            if not set(encode_one("mlm", t, emb, heads).entries) <= support:
                expanded_somewhere = True
            if not set(encode_one("cls_mlm", t, emb, heads).entries) <= support:
                expanded_somewhere = True
        assert expanded_somewhere, "MLM encoders never expanded beyond the input"

    def test_mlp_monotone_in_single_logit(self, rng):
        # raising one position's pre-activation logit never lowers its term weight
        for _ in range(20):
            t, emb, heads = self._random_case(rng)
            j = int(rng.integers(len(t)))
            before = encode_one("mlp", t, emb, heads).entries.get(t.token_ids[j], 0.0)
            bumped = emb.ctx_embeddings.copy()
            bumped[j] += heads.mlp_weight * 0.5  # moves z_j up by 0.5*|W|^2
            emb2 = make_bundle(bumped, emb.input_embeddings, cls=emb.cls_embedding)
            after = encode_one("mlp", t, emb2, heads).entries.get(t.token_ids[j], 0.0)
            assert after >= before - 1e-12

    def test_mlm_monotone_in_bias(self, rng):
        for _ in range(20):
            t, emb, heads = self._random_case(rng)
            i = int(rng.integers(len(heads.mlm_bias)))
            before = encode_one("mlm", t, emb, heads).entries.get(i, 0.0)
            heads2 = heads.copy()
            heads2.mlm_bias[i] += 0.7
            after = encode_one("mlm", t, emb, heads2).entries.get(i, 0.0)
            assert after >= before - 1e-12
            cls_before = encode_one("cls_mlm", t, emb, heads).entries.get(i, 0.0)
            cls_after = encode_one("cls_mlm", t, emb, heads2).entries.get(i, 0.0)
            assert cls_after >= cls_before - 1e-12


class TestParameterFiles:
    def test_head_parameter_round_trip(self, tmp_path, rng):
        heads = init_head_parameters(7, 4, seed=1, activation="softplus", use_quality_heads=True)
        heads.mlm_bias[:] = rng.standard_normal(7)
        path = tmp_path / "heads.json"
        write_head_parameters(heads, path)
        loaded = read_head_parameters(path)
        assert np.array_equal(loaded.mlp_weight, heads.mlp_weight)
        assert np.array_equal(loaded.mlm_bias, heads.mlm_bias)
        assert loaded.activation == "softplus"
        assert loaded.use_quality_heads


def meets_the_contract(vec: SparseVector) -> bool:
    """The `core.SparseVector` contract: an int64 column of strictly ascending ids in [0, 2**63) and a
    float64 column, as long, of weights that are finite and > 0, checked entry by entry."""
    terms, weights = vec.terms.tolist(), vec.weights.tolist()
    return vec.terms.dtype == np.int64 and vec.weights.dtype == np.float64 and len(terms) == len(weights) and all(
        0 <= t < 2**63 and 0.0 < w < math.inf for t, w in zip(terms, weights)
    ) and all(a < b for a, b in zip(terms, terms[1:]))


CONTRACT_VOCAB = 12


@st.composite
def encode_batches(draw):
    """(texts, expansions): an empty text and up to 6 more over a 12-term vocabulary, empty ones and
    repeated terms included, and expansion terms for some of them."""
    token_ids = st.lists(st.integers(0, CONTRACT_VOCAB - 1), max_size=8)
    texts = [TokenizedText("empty", ())]
    texts += [TokenizedText(f"t{i}", draw(token_ids)) for i in range(draw(st.integers(0, 6)))]
    expansions = {t.doc_id: draw(token_ids) for t in texts[1:] if draw(st.booleans())}
    return texts, expansions


class TestEncodeSideContract:
    """Every encoder kind, through `pipeline.encode_side`, emits vectors that meet the SparseVector contract."""

    @pytest.mark.parametrize("kind", list(EncoderKind), ids=[k.value for k in EncoderKind])
    @settings(max_examples=25, deadline=None)
    @given(batch=encode_batches(), seed=st.integers(0, 3), topk=st.booleans())
    def test_every_vector_meets_the_contract(self, kind, batch, seed, topk):
        """With seeded heads (a zero mlm_bias) a text with no terms, expansions included, gets the empty vector."""
        texts, expansions = batch
        side = "query" if kind is EncoderKind.BM25_QUERY else "doc"
        query, doc = (kind.value, "bm25_doc") if side == "query" else ("mlp", kind.value)
        reg = RegularizerConfig(kind=RegularizerKind.TOPK, k=2) if topk else RegularizerConfig()
        vocab = build_vocabulary(f"w{i}" for i in range(CONTRACT_VOCAB))
        res = Resources(vocab=vocab, docs=texts, queries=texts, stats=compute_corpus_stats(texts),
                        expansions=expansions)
        out = encode_side(method_config(query, doc, reg=reg), side, texts, res, seed)
        assert [vid for vid, _ in out] == [t.doc_id for t in texts]
        assert all(meets_the_contract(vec) for _, vec in out)
        assert not topk or all(vec.nnz <= 2 for _, vec in out)
        expanded = expansions if kind is EncoderKind.EXP_MLP else {}
        for t, (_, vec) in zip(texts, out):
            if not t.token_ids + tuple(expanded.get(t.doc_id, ())):
                assert vec == SparseVector()
