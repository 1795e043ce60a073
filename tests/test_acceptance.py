"""Acceptance gate: nine criteria, one pass/fail line each.

Every criterion re-derives its expected values with an independent oracle
(textbook formulas, dense matrix evaluations, brute-force enumeration) and
checks the engine against it at a stated tolerance.  The per-criterion lines
are echoed in the terminal summary.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

import conftest
from conftest import encode_one, make_bundle, make_heads, method_config, one_text_stack, text

from lsrkit.config import load_config
from lsrkit.core import (
    SparseVector,
    compute_corpus_stats,
    read_collection,
    read_vocabulary,
)
from lsrkit.encoders import (
    backbone_table,
    Bm25Params,
    EncoderKind,
    encode_binary,
    encode_bm25_doc,
    encode_bm25_query,
    expand_text,
    init_head_parameters,
    softplus,
    toy_backbone,
)
from lsrkit.evaluation import Qrels, RunFile, mrr_at_k, ndcg_at_k, recall_at_k
from lsrkit.index import Quantization, build_index, exhaustive_search, index_search
from lsrkit.pipeline import format_report, run_pipeline
from lsrkit.regularization import RegularizerConfig, RegularizerKind, flops_penalty, lp_penalty
from lsrkit.supervision import (
    TrainingTriple,
    contrastive_nll,
    margin_mse_loss,
    term_mse_loss,
    train_heads,
)
from lsrkit.synthetic import make_synthetic_task

PKG_ROOT = Path(__file__).resolve().parent.parent


def record(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{status}] criterion {num}: {description}{suffix}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


def triples_of(task):
    docs = {d.doc_id: d for d in task.docs}
    queries = {q.doc_id: q for q in task.queries}
    return [
        TrainingTriple(
            query=queries[r["q"]],
            positive=docs[r["pos"]],
            negatives=tuple(docs[n] for n in r["negs"]),
            teacher_scores=(r["teacher"]["pos"], tuple(r["teacher"]["negs"])),
        )
        for r in task.triples
    ]


class TestCriterion1:
    def test_bm25_equivalence(self):
        """Decomposed BM25 (query IDF x doc saturated TF) equals textbook BM25, <= 1e-9."""
        start = time.monotonic()
        task = make_synthetic_task(num_docs=100, num_queries=50, vocab_size=120, seed=1)
        stats = compute_corpus_stats(task.docs)
        params = Bm25Params()

        def textbook(q, d):
            tf = {}
            for t in d.token_ids:
                tf[t] = tf.get(t, 0) + 1
            total = 0.0
            for t in set(q.token_ids):
                if t not in tf:
                    continue
                df = stats.doc_freq[t]
                idf = math.log(1.0 + (stats.num_docs - df + 0.5) / (df + 0.5))
                denom = tf[t] + params.k1 * (
                    1.0 - params.b + params.b * len(d) / stats.avg_doc_len
                )
                total += idf * tf[t] * (params.k1 + 1.0) / denom
            return total

        doc_vecs = encode_bm25_doc(task.docs, stats, params)
        worst = 0.0
        for q in task.queries:
            qv = encode_bm25_query(q, stats)
            for d, dv in zip(task.docs, doc_vecs):
                worst = max(worst, abs(qv.dot(dv) - textbook(q, d)))
        elapsed = time.monotonic() - start
        ok = worst <= 1e-9 and elapsed < 5.0
        record(1, "BM25 decomposition matches textbook BM25 on 100x50 pairs",
               ok, f"max abs diff {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2:
    def test_index_matches_oracle(self):
        """Exact-mode index search equals exhaustive search on 1000 random queries."""
        start = time.monotonic()
        rng = np.random.default_rng(2)
        docs = []
        for i in range(300):
            ids = rng.choice(80, size=int(rng.integers(3, 12)), replace=False)
            docs.append((f"d{i:03d}", SparseVector({int(t): float(rng.uniform(0.1, 3)) for t in ids})))
        index = build_index(docs, Quantization(mode="exact"))
        ok = True
        worst = 0.0
        for _ in range(1000):
            ids = rng.choice(80, size=int(rng.integers(1, 6)), replace=False)
            q = SparseVector({int(t): float(rng.uniform(0.1, 2)) for t in ids})
            expected = exhaustive_search(q, docs, k=50)
            got, _ = index_search(index, q, k=50)
            if [d for d, _ in got] != [d for d, _ in expected]:
                ok = False
                break
            for (_, a), (_, b) in zip(got, expected):
                worst = max(worst, abs(a - b))
        elapsed = time.monotonic() - start
        ok = ok and worst <= 1e-9 and elapsed < 10.0
        record(2, "index search equals the exhaustive oracle on 1000 queries",
               ok, f"max score diff {worst:.2e}, {elapsed:.1f}s")


class TestCriterion3:
    def test_encoder_formulas_and_support(self):
        """Hand examples, dense-oracle agreement, non-negativity, support matrix."""
        checks = []

        # hand examples with fixed embeddings
        emb = make_bundle(ctx=[[2.0], [-3.0]], input_emb=[[1.0], [1.0], [1.0]])
        heads = make_heads(3, 1)
        v = encode_one("mlp", text("x", 0, 1), emb, heads)
        checks.append(abs(v.entries.get(0, 0.0) - math.log(3.0)) <= 1e-12 and v.entries.get(1, 0.0) == 0.0)
        emb_rep = make_bundle(ctx=[[2.0], [2.0]], input_emb=[[1.0], [1.0], [1.0]])
        v = encode_one("mlp", text("x", 0, 0), emb_rep, heads)
        checks.append(abs(v.entries.get(0, 0.0) - 2 * math.log(3.0)) <= 1e-12)
        emb2 = make_bundle(ctx=[[2.0]], input_emb=[[1.0], [2.0], [-1.0]])
        v = encode_one("mlm", text("x", 0), emb2, make_heads(3, 1))
        checks.append(abs(v.entries.get(0, 0.0) - math.log(3.0)) <= 1e-12
                      and abs(v.entries.get(1, 0.0) - math.log(5.0)) <= 1e-12 and v.entries.get(2, 0.0) == 0.0)
        v = encode_one("cls_mlm", text("x", 0), make_bundle(ctx=[[1.0]], input_emb=[[2.0], [0.5]], cls=[1.0]),
                       make_heads(2, 1))
        checks.append(v.entries.get(0, 0.0) == 2.0 and v.entries.get(1, 0.0) == 0.5)

        # dense oracle agreement on randomized toy-backbone inputs
        rng = np.random.default_rng(3)
        V, D = 30, 6
        heads = init_head_parameters(V, D, 3)
        worst = 0.0
        support_ok = True
        expanded_support_seen = False
        for _ in range(50):
            ids = tuple(int(t) for t in rng.integers(0, V, size=int(rng.integers(1, 8))))
            t = text("x", *ids)
            emb = toy_backbone(t, V, D, seed=3)
            z = emb.ctx_embeddings @ heads.mlp_weight + heads.mlp_bias
            dense_mlp = np.zeros(V)
            for j, tok in enumerate(ids):
                dense_mlp[tok] += math.log1p(max(z[j], 0.0))
            logits = emb.ctx_embeddings @ emb.input_embeddings.T + heads.mlm_bias
            dense_mlm = np.log1p(np.maximum(logits, 0.0).max(axis=0))
            dense_cls = np.maximum(emb.cls_embedding @ emb.input_embeddings.T + heads.mlm_bias, 0.0)
            for kind, dense in (("mlp", dense_mlp), ("mlm", dense_mlm), ("cls_mlm", dense_cls)):
                got = encode_one(kind, t, emb, heads)
                full = np.zeros(V)
                for term, w in got.entries.items():
                    full[term] = w
                worst = max(worst, float(np.abs(full - dense).max()))
                if any(w < 0 for w in got.entries.values()):
                    support_ok = False
            # support constraints
            if not set(encode_binary(t).entries) <= set(ids):
                support_ok = False
            if not set(encode_one("mlp", t, emb, heads).entries) <= set(ids):
                support_ok = False
            mlm_support = set(encode_one("mlm", t, emb, heads).entries)
            if mlm_support - set(ids):
                expanded_support_seen = True

        # expansion encoder: support confined to input plus expansion terms
        ids = (0, 1)
        expanded = expand_text(text("e", *ids), {"e": [5, 6]})
        emb = toy_backbone(expanded, V, D, seed=3)
        exp_vec = encode_one("mlp", expanded, emb, heads)
        support_ok = support_ok and set(exp_vec.entries) <= {0, 1, 5, 6}

        ok = all(checks) and worst <= 1e-12 and support_ok and expanded_support_seen
        record(3, "encoder outputs match dense-vector oracles and the support matrix",
               ok, f"max dense diff {worst:.2e}, MLM expansion observed: {expanded_support_seen}")


class TestCriterion4:
    def test_gradients_match_finite_differences(self):
        """Central differences, 1e-5 step, 1e-4 relative tolerance, 100 instances each."""
        rng = np.random.default_rng(4)
        h = 1e-5

        def rel_err(analytic, numeric):
            return abs(analytic - numeric) / max(abs(numeric), 1e-8)

        worst = {"flops": 0.0, "l1": 0.0, "l2": 0.0, "term_mse": 0.0,
                 "contrastive": 0.0, "margin_mse": 0.0}

        def bumped(a, index, delta):
            out = a.copy()
            out[index] += delta
            return out

        for _ in range(100):
            V = 12
            batch = np.zeros((int(rng.integers(1, 4)), V))
            for row in batch:
                ids = rng.choice(V, size=4, replace=False)
                for t in ids:
                    row[t] = rng.uniform(0.1, 2)
            _, grads = flops_penalty(batch)
            b = int(rng.integers(len(batch)))
            t = int(np.flatnonzero(batch[b])[0])
            numeric = (flops_penalty(bumped(batch, (b, t), h))[0]
                       - flops_penalty(bumped(batch, (b, t), -h))[0]) / (2 * h)
            worst["flops"] = max(worst["flops"], rel_err(grads[b, t], numeric))

            v = batch[:1]
            tt = (0, int(np.flatnonzero(v[0])[0]))
            for name, p in (("l1", 1), ("l2", 2)):
                _, grad = lp_penalty(v, p)
                num = (lp_penalty(bumped(v, tt, h), p)[0] - lp_penalty(bumped(v, tt, -h), p)[0]) / (2 * h)
                worst[name] = max(worst[name], rel_err(grad[tt], num))

            labels = {int(k): float(rng.uniform(0, 1)) for k in rng.choice(V, size=4, replace=False)}
            tt = next(iter(labels))
            pred = np.zeros(V)
            pred[tt] = rng.uniform(0.1, 2)
            _, grad = term_mse_loss(pred, labels)
            num = (term_mse_loss(bumped(pred, tt, h), labels)[0]
                   - term_mse_loss(bumped(pred, tt, -h), labels)[0]) / (2 * h)
            worst["term_mse"] = max(worst["term_mse"], rel_err(grad[tt], num))

            pos = float(rng.normal())
            negs = rng.normal(size=3).tolist()
            scores = np.array([[pos, *negs]])  # the pairwise losses take a batch of triples: here one row
            _, grad = contrastive_nll(scores)
            num = (contrastive_nll(bumped(scores, (0, 0), h))[0][0]
                   - contrastive_nll(bumped(scores, (0, 0), -h))[0][0]) / (2 * h)
            worst["contrastive"] = max(worst["contrastive"], rel_err(grad[0, 0], num))

            scores = rng.normal(size=(1, 4))
            teacher = np.array([[float(rng.normal()), *rng.normal(size=3).tolist()]])
            _, grad = margin_mse_loss(scores, teacher)
            num = (margin_mse_loss(bumped(scores, (0, 0), h), teacher)[0][0]
                   - margin_mse_loss(bumped(scores, (0, 0), -h), teacher)[0][0]) / (2 * h)
            worst["margin_mse"] = max(worst["margin_mse"], rel_err(grad[0, 0], num))

        top = max(worst.values())
        record(4, "regularizer and loss gradients match finite differences within 1e-4",
               top <= 1e-4, f"worst relative error {top:.2e}")


class TestCriterion5:
    def test_flops_weight_controls_sparsity(self):
        """Mean document nnz is non-increasing in the FLOPs weight; 1.0 beats 0."""
        start = time.monotonic()
        task = make_synthetic_task(num_docs=200, num_queries=40, vocab_size=150, seed=7)
        V, D = task.vocab.size, 16
        triples = triples_of(task)
        table = backbone_table(V, D, 7)
        embed = lambda t: toy_backbone(t, V, D, 7, table)
        nnz = []
        for lam in (0.0, 0.01, 0.1, 1.0):
            reg = RegularizerConfig(kind=RegularizerKind.FLOPS, weight=lam)
            config = method_config("mlm", "mlm", shared_heads=True, reg=reg, steps=150, lr=0.5)
            result = train_heads(config, triples, embed,
                                 init_head_parameters(V, D, 3), init_head_parameters(V, D, 4))
            counts = [
                int((one_text_stack(EncoderKind.MLM, d, embed(d), result.doc_heads)[0] > 0).sum())
                for d in task.docs
            ]
            nnz.append(float(np.mean(counts)))
        elapsed = time.monotonic() - start
        ok = all(a >= b for a, b in zip(nnz, nnz[1:])) and nnz[-1] < nnz[0] and elapsed < 120
        record(5, "FLOPs weight sweep {0, 0.01, 0.1, 1.0} monotonically shrinks doc nnz",
               ok, "nnz " + " -> ".join(f"{x:.1f}" for x in nnz) + f", {elapsed:.0f}s")


class TestCriterion6:
    def test_query_mlp_swap_cuts_ops_with_stable_recall(self):
        """With a trained MLM doc side, an MLP query encoder cuts ops_count >= 50%
        while Recall@100 moves by <= 2 absolute points."""
        start = time.monotonic()
        task = make_synthetic_task(num_docs=200, num_queries=40, vocab_size=150, seed=7)
        V, D = task.vocab.size, 24
        triples = triples_of(task)
        table = backbone_table(V, D, 7)
        embed = lambda t: toy_backbone(t, V, D, 7, table)
        reg = RegularizerConfig(kind=RegularizerKind.FLOPS, weight=0.1)

        base = train_heads(
            method_config("mlm", "mlm", reg=reg, steps=150, lr=0.5),
            triples, embed, init_head_parameters(V, D, 3), init_head_parameters(V, D, 4),
        )
        variant = train_heads(
            method_config("mlp", "mlm", reg=reg, steps=150, lr=0.5),
            triples, embed, init_head_parameters(V, D, 3), base.doc_heads, keep=("doc",),
        )

        def encode_all(kind, texts, heads):
            return [
                (t.doc_id, encode_one(kind, t, embed(t), heads))
                for t in texts
            ]

        index = build_index(encode_all(EncoderKind.MLM, task.docs, base.doc_heads))

        def evaluate(query_vecs):
            ops = 0
            rankings = {}
            for qid, qv in query_vecs:
                ranked, o = index_search(index, qv, 100)
                ops += o
                if ranked:
                    rankings[qid] = ranked
            return ops, recall_at_k(RunFile(rankings=rankings), task.qrels, 100)

        ops_mlm, rec_mlm = evaluate(encode_all(EncoderKind.MLM, task.queries, base.query_heads))
        ops_mlp, rec_mlp = evaluate(encode_all(EncoderKind.MLP, task.queries, variant.query_heads))
        reduction = 1.0 - ops_mlp / ops_mlm
        delta = abs(rec_mlp - rec_mlm)
        elapsed = time.monotonic() - start
        ok = reduction >= 0.5 and delta <= 0.02
        record(6, "MLM->MLP query swap cuts ops_count >= 50% with Recall@100 within 2 points",
               ok, f"ops {ops_mlm} -> {ops_mlp} (-{100 * reduction:.1f}%), "
                   f"recall {rec_mlm:.3f} -> {rec_mlp:.3f} (delta {100 * delta:.2f} pts), {elapsed:.0f}s")


class TestCriterion7:
    def test_metrics_match_brute_force(self):
        """MRR/NDCG/Recall equal brute-force enumeration, <= 1e-12."""

        def brute(rankings, judgments, k):
            mrr_vals, ndcg_vals, rec_vals = [], [], []
            for qid, docs in rankings.items():
                grades = {d: g for (q, d), g in judgments.items() if q == qid and g >= 1}
                if not grades:
                    continue
                rr = 0.0
                for rank, d in enumerate(docs[:k], start=1):
                    if d in grades:
                        rr = 1.0 / rank
                        break
                mrr_vals.append(rr)
                dcg = sum((2 ** grades.get(d, 0) - 1) / math.log2(r + 1)
                          for r, d in enumerate(docs[:k], start=1))
                ideal = sum((2 ** g - 1) / math.log2(r + 1)
                            for r, g in enumerate(sorted(grades.values(), reverse=True)[:k], start=1))
                ndcg_vals.append(dcg / ideal)
                rec_vals.append(len(set(grades) & set(docs[:k])) / len(grades))
            n = len(mrr_vals)
            return sum(mrr_vals) / n, sum(ndcg_vals) / n, sum(rec_vals) / n

        worst = 0.0
        rng = np.random.default_rng(7)
        # exhaustive over permutations for <= 4 docs
        judgments = {("q", "a"): 2, ("q", "c"): 1}
        for n in (2, 3, 4):
            docs = ["a", "b", "c", "d"][:n]
            for perm in itertools.permutations(docs):
                rankings = {"q": list(perm)}
                run = RunFile(rankings={
                    "q": [(d, float(n - i)) for i, d in enumerate(perm)]
                })
                qrels = Qrels({k: v for k, v in judgments.items() if k[1] in docs})
                for k in range(1, n + 1):
                    expect = brute(rankings, dict(qrels.judgments), k)
                    got = (mrr_at_k(run, qrels, k), ndcg_at_k(run, qrels, k), recall_at_k(run, qrels, k))
                    worst = max(worst, max(abs(a - b) for a, b in zip(got, expect)))
        # randomized instances up to 8 docs
        for _ in range(200):
            n = int(rng.integers(2, 9))
            docs = [f"d{i}" for i in range(n)]
            rankings, judgments = {}, {}
            for qi in range(int(rng.integers(1, 4))):
                qid = f"q{qi}"
                order = list(rng.permutation(docs))
                rankings[qid] = order[: int(rng.integers(1, n + 1))]
                for d in docs:
                    g = int(rng.integers(0, 3))
                    if g:
                        judgments[(qid, d)] = g
            if not judgments:
                judgments[("q0", docs[0])] = 1
            run = RunFile(rankings={
                qid: [(d, float(len(r) - i)) for i, d in enumerate(r)]
                for qid, r in rankings.items()
            })
            qrels = Qrels(judgments)
            for k in (1, 3, 8):
                expect = brute(rankings, judgments, k)
                got = (mrr_at_k(run, qrels, k), ndcg_at_k(run, qrels, k), recall_at_k(run, qrels, k))
                worst = max(worst, max(abs(a - b) for a, b in zip(got, expect)))
        record(7, "MRR/NDCG/Recall equal brute-force enumeration",
               worst <= 1e-12, f"max abs diff {worst:.2e}")


class TestCriterion8:
    def test_all_bundled_configs_run(self, tmp_path):
        """Every bundled method config completes encode -> index -> search -> eval."""
        start = time.monotonic()
        config_paths = sorted((PKG_ROOT / "configs").glob("*.json"))
        reports = []
        ok = len(config_paths) == 14
        for p in config_paths:
            config = load_config(p)
            report = run_pipeline(config, tmp_path / config.name, seed=config.backbone_seed)
            reports.append(report)
            if not report.metrics or report.ops_count < 0:
                ok = False
        table = format_report(reports)
        first_line = table.splitlines()[0]
        ok = ok and all(col in first_line for col in ("mrr@10", "ndcg@10", "d_nnz", "ops_count"))
        elapsed = time.monotonic() - start
        ok = ok and elapsed < 300
        record(8, "all 14 bundled method configs complete the full pipeline",
               ok, f"{len(reports)} configs, {elapsed:.0f}s")
        print(table)


class TestCriterion9:
    def test_quantization_error(self):
        """8-bit mean relative score error < 1%; error shrinks monotonically 4 -> 16 bits."""
        vocab = read_vocabulary(PKG_ROOT / "data" / "toy" / "vocab.txt")
        docs = list(read_collection(PKG_ROOT / "data" / "toy" / "collection.tsv", vocab))
        queries = list(read_collection(PKG_ROOT / "data" / "toy" / "queries.tsv", vocab))
        stats = compute_corpus_stats(docs)
        doc_vecs = [(d.doc_id, v) for d, v in zip(docs, encode_bm25_doc(docs, stats))]
        query_vecs = [encode_bm25_query(q, stats) for q in queries]
        truth = [dict(exhaustive_search(q, doc_vecs, k=len(docs))) for q in query_vecs]

        errors = {}
        for bits in range(4, 17):
            index = build_index(doc_vecs, Quantization(mode="bits", bits=bits))
            rels = []
            for q, exact in zip(query_vecs, truth):
                approx = dict(index_search(index, q, k=len(docs))[0])
                rels.extend(abs(approx.get(d, 0.0) - s) / s for d, s in exact.items())
            errors[bits] = float(np.mean(rels))
        monotone = all(errors[b] > errors[b + 1] for b in range(4, 16))
        ok = errors[8] < 0.01 and monotone
        record(9, "8-bit mean relative score error < 1% and error decreases 4 -> 16 bits",
               ok, f"8-bit error {100 * errors[8]:.3f}%, monotone: {monotone}")
