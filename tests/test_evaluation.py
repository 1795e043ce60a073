"""Retrieval metrics against brute-force oracles plus TREC text formats."""

import itertools
import math

import numpy as np
import pytest

from lsrkit.evaluation import (
    Qrels,
    RunFile,
    mrr_at_k,
    ndcg_at_k,
    read_qrels,
    read_run,
    recall_at_k,
    write_qrels,
    write_run,
)


def run_of(rankings):
    # assign decreasing synthetic scores so the ordering constraint holds
    return RunFile(
        rankings={
            qid: [(did, float(len(docs) - i)) for i, did in enumerate(docs)]
            for qid, docs in rankings.items()
        }
    )


def oracle_mrr(rankings, judgments, k):
    vals = []
    for qid, docs in rankings.items():
        relevant = {d for (q, d), g in judgments.items() if q == qid and g >= 1}
        if not relevant:
            continue
        rr = 0.0
        for rank, did in enumerate(docs[:k], start=1):
            if did in relevant:
                rr = 1.0 / rank
                break
        vals.append(rr)
    return sum(vals) / len(vals)


def oracle_ndcg(rankings, judgments, k):
    vals = []
    for qid, docs in rankings.items():
        grades = {d: g for (q, d), g in judgments.items() if q == qid and g >= 1}
        if not grades:
            continue
        dcg = sum(
            (2 ** grades.get(d, 0) - 1) / math.log2(r + 1)
            for r, d in enumerate(docs[:k], start=1)
        )
        ideal = sum(
            (2**g - 1) / math.log2(r + 1)
            for r, g in enumerate(sorted(grades.values(), reverse=True)[:k], start=1)
        )
        vals.append(dcg / ideal)
    return sum(vals) / len(vals)


def oracle_recall(rankings, judgments, k):
    vals = []
    for qid, docs in rankings.items():
        relevant = {d for (q, d), g in judgments.items() if q == qid and g >= 1}
        if not relevant:
            continue
        vals.append(len(relevant & set(docs[:k])) / len(relevant))
    return sum(vals) / len(vals)


class TestMetricExamples:
    def test_mrr_relevant_first(self):
        run = run_of({"q1": ["a", "b"]})
        qrels = Qrels({("q1", "a"): 1})
        assert mrr_at_k(run, qrels, 10) == 1.0

    def test_mrr_relevant_third(self):
        run = run_of({"q1": ["a", "b", "c"]})
        qrels = Qrels({("q1", "c"): 1})
        assert mrr_at_k(run, qrels, 10) == pytest.approx(1 / 3)

    def test_mrr_beyond_cutoff_is_zero(self):
        run = run_of({"q1": [f"d{i}" for i in range(11)]})
        qrels = Qrels({("q1", "d10"): 1})  # rank 11
        assert mrr_at_k(run, qrels, 10) == 0.0

    def test_ndcg_relevant_second(self):
        run = run_of({"q1": ["a", "b"]})
        qrels = Qrels({("q1", "b"): 1})
        assert ndcg_at_k(run, qrels, 10) == pytest.approx(1 / math.log2(3), abs=1e-12)

    def test_ndcg_rewards_grade_order(self):
        qrels = Qrels({("q1", "a"): 2, ("q1", "b"): 1})
        good = ndcg_at_k(run_of({"q1": ["a", "b"]}), qrels, 10)
        swapped = ndcg_at_k(run_of({"q1": ["b", "a"]}), qrels, 10)
        assert good == pytest.approx(1.0)
        assert swapped < good

    def test_recall_half(self):
        run = run_of({"q1": ["a", "x"]})
        qrels = Qrels({("q1", "a"): 1, ("q1", "b"): 1})
        assert recall_at_k(run, qrels, 2) == 0.5

    def test_unjudged_query_excluded_from_mean(self):
        run = run_of({"q1": ["a"], "q2": ["b"]})
        qrels = Qrels({("q1", "a"): 1})
        assert mrr_at_k(run, qrels, 10) == 1.0
        assert recall_at_k(run, qrels, 10) == 1.0
        assert ndcg_at_k(run, qrels, 10) == 1.0

    def test_no_judged_queries_rejected(self):
        run = run_of({"q1": ["a"]})
        qrels = Qrels({("q2", "b"): 1})
        for metric in (mrr_at_k, ndcg_at_k, recall_at_k):
            with pytest.raises(ValueError):
                metric(run, qrels, 10)

    def test_k_validation(self):
        run = run_of({"q1": ["a"]})
        qrels = Qrels({("q1", "a"): 1})
        for name, metric in (("mrr", mrr_at_k), ("ndcg", ndcg_at_k), ("recall", recall_at_k)):
            with pytest.raises(ValueError, match=f"{name}@0"):
                metric(run, qrels, 0)


class TestMetricProperties:
    def _random_case(self, rng):
        num_docs = int(rng.integers(2, 9))
        docs = [f"d{i}" for i in range(num_docs)]
        rankings = {}
        judgments = {}
        for qi in range(int(rng.integers(1, 4))):
            qid = f"q{qi}"
            order = list(rng.permutation(docs))
            rankings[qid] = order[: int(rng.integers(1, num_docs + 1))]
            for d in docs:
                g = int(rng.integers(0, 3))
                if g:
                    judgments[(qid, d)] = g
        if not any(g >= 1 for g in judgments.values()):
            judgments[("q0", docs[0])] = 1
        return rankings, judgments

    def test_matches_oracle_on_random_cases(self, rng):
        for _ in range(300):
            rankings, judgments = self._random_case(rng)
            run, qrels = run_of(rankings), Qrels(judgments)
            k = int(rng.integers(1, 10))
            assert mrr_at_k(run, qrels, k) == pytest.approx(oracle_mrr(rankings, judgments, k), abs=1e-12)
            assert ndcg_at_k(run, qrels, k) == pytest.approx(oracle_ndcg(rankings, judgments, k), abs=1e-12)
            assert recall_at_k(run, qrels, k) == pytest.approx(oracle_recall(rankings, judgments, k), abs=1e-12)

    def test_all_permutations_of_small_rankings(self):
        docs = ["a", "b", "c", "d"]
        judgments = {("q", "a"): 2, ("q", "c"): 1}
        qrels = Qrels(judgments)
        for perm in itertools.permutations(docs):
            rankings = {"q": list(perm)}
            run = run_of(rankings)
            for k in (1, 2, 4):
                assert mrr_at_k(run, qrels, k) == pytest.approx(oracle_mrr(rankings, judgments, k), abs=1e-12)
                assert ndcg_at_k(run, qrels, k) == pytest.approx(oracle_ndcg(rankings, judgments, k), abs=1e-12)
                assert recall_at_k(run, qrels, k) == pytest.approx(oracle_recall(rankings, judgments, k), abs=1e-12)

    def test_range_and_k_monotonicity(self, rng):
        for _ in range(100):
            rankings, judgments = self._random_case(rng)
            run, qrels = run_of(rankings), Qrels(judgments)
            prev = (0.0, 0.0, 0.0)
            for k in range(1, 10):
                vals = (mrr_at_k(run, qrels, k), ndcg_at_k(run, qrels, k), recall_at_k(run, qrels, k))
                assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)
                # MRR and recall only gain from a deeper cutoff
                assert vals[0] >= prev[0] - 1e-12 and vals[2] >= prev[2] - 1e-12
                prev = vals

    def test_invariant_to_monotone_score_transform(self, rng):
        # metrics depend on rank order only, not on score magnitudes
        rankings, judgments = self._random_case(rng)
        qrels = Qrels(judgments)
        base = run_of(rankings)
        squashed = RunFile(
            rankings={
                qid: [(d, math.tanh(s)) for d, s in ranking]
                for qid, ranking in base.rankings.items()
            }
        )
        for k in (1, 3, 5):
            assert mrr_at_k(base, qrels, k) == mrr_at_k(squashed, qrels, k)
            assert ndcg_at_k(base, qrels, k) == ndcg_at_k(squashed, qrels, k)
            assert recall_at_k(base, qrels, k) == recall_at_k(squashed, qrels, k)


class TestRunFileValidation:
    def test_increasing_scores_rejected(self):
        with pytest.raises(ValueError, match="increase"):
            RunFile(rankings={"q": [("a", 1.0), ("b", 2.0)]})

    def test_duplicate_docs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RunFile(rankings={"q": [("a", 2.0), ("a", 1.0)]})

    def test_ties_preserve_given_order(self):
        run = RunFile(rankings={"q": [("b", 1.0), ("a", 1.0)]})
        assert [d for d, _ in run.rankings["q"]] == ["b", "a"]


class TestTrecFormats:
    def test_run_round_trip(self, tmp_path):
        run = RunFile(rankings={"q1": [("a", 2.5), ("b", 1.0)], "q2": [("c", 0.75)]})
        path = tmp_path / "run.txt"
        write_run(run, path, tag="t")
        loaded = read_run(path)
        assert loaded.rankings == run.rankings

    def test_run_line_shape(self, tmp_path):
        path = tmp_path / "run.txt"
        write_run(RunFile(rankings={"q1": [("a", 2.0)]}), path, tag="sys")
        assert path.read_text(encoding="utf-8") == "q1 Q0 a 1 2 sys\n"

    def test_rank_gap_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 a 1 2.0 t\nq1 Q0 b 3 1.0 t\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            read_run(path)

    def test_bad_field_count_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 a 1 2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="6 fields"):
            read_run(path)

    def test_qrels_round_trip(self, tmp_path):
        qrels = Qrels({("q1", "a"): 2, ("q2", "b"): 0})
        path = tmp_path / "qrels.txt"
        write_qrels(qrels, path)
        assert read_qrels(path).judgments == dict(qrels.judgments)

    def test_qrels_bad_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 a high\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1:"):
            read_qrels(path)
