"""Impact index: quantization, term-at-a-time search (posting slices and term table) vs. the exhaustive oracle."""

import json
import math
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lsrkit.core import SparseVector
from lsrkit.index import (
    TABLE_FILL,
    ImpactIndex,
    Quantization,
    build_index,
    exhaustive_search,
    index_search,
    load_index,
    save_index,
)


def postings(idx):
    """The columns as {term id: [(doc ordinal, impact)]}, absent and empty terms left out."""
    out = {}
    for t in range(len(idx.offsets) - 1):
        lo, hi = idx.offsets[t], idx.offsets[t + 1]
        if hi > lo:
            out[t] = list(zip(idx.ordinals[lo:hi], idx.impacts[lo:hi]))
    return out


def columns(idx):
    return idx.offsets.tolist(), idx.ordinals.tolist(), idx.impacts.tolist()


def random_corpus(rng, num_docs=200, vocab_size=40, max_nnz=9):
    docs = []
    for i in range(num_docs):
        nnz = int(rng.integers(3, max_nnz + 1))
        ids = rng.choice(vocab_size, size=nnz, replace=False)
        docs.append((f"d{i:03d}", SparseVector({int(t): float(rng.uniform(0.1, 3.0)) for t in ids})))
    return docs


def random_query(rng, vocab_size=40):
    nnz = int(rng.integers(1, 6))
    ids = rng.choice(vocab_size, size=nnz, replace=False)
    return SparseVector({int(t): float(rng.uniform(0.1, 2.0)) for t in ids})


class TestQuantization:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            Quantization(mode="float")
        with pytest.raises(ValueError):
            Quantization(mode="bits", bits=0)
        with pytest.raises(ValueError):
            Quantization(mode="bits", bits=17)

    def test_eight_bit_levels(self):
        # max weight 2.0 maps to 255; weight 1.0 maps to 127.5, rounded half up
        docs = [("a", SparseVector({0: 2.0, 1: 1.0}))]
        idx = build_index(docs, Quantization(mode="bits", bits=8))
        assert postings(idx)[0] == [(0, 255.0)]
        assert postings(idx)[1] == [(0, 128.0)]
        assert idx.weights[0] == pytest.approx(2.0)
        assert idx.weights[1] == pytest.approx(2.0 * 128 / 255)

    def test_zero_impact_dropped(self):
        docs = [("a", SparseVector({0: 1.0, 1: 0.001}))]
        idx = build_index(docs, Quantization(mode="bits", bits=4))
        assert 1 not in postings(idx)
        assert idx.total_postings == 1

    def test_exact_mode_stores_weights(self):
        docs = [("a", SparseVector({0: 1.25}))]
        idx = build_index(docs)
        assert postings(idx)[0] == [(0, 1.25)]
        assert idx.weights is idx.impacts
        assert idx.weights[0] == 1.25


class TestBuildIndex:
    def test_duplicate_doc_rejected(self):
        docs = [("a", SparseVector({0: 1.0})), ("a", SparseVector({1: 1.0}))]
        with pytest.raises(ValueError, match="duplicate"):
            build_index(docs)

    def test_negative_weight_rejected(self):
        """Refused where the vector is built, so build_index never sees it."""
        with pytest.raises(ValueError, match="term 0 has weight -1.0, not a finite number > 0"):
            build_index([("a", SparseVector({0: -1.0}))])

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    @pytest.mark.parametrize("mode", ["exact", "bits"])
    def test_non_finite_weight_rejected(self, w, mode):
        """Refused where the vector is built, so build_index never sees it."""
        with pytest.raises(ValueError, match=f"term 1 has weight {w!r}, not a finite number > 0"):
            build_index([("a", SparseVector({0: 1.0})), ("b", SparseVector({1: w}))], Quantization(mode=mode))

    def test_posting_structure(self):
        docs = [("a", SparseVector({0: 1.0, 2: 2.0})), ("b", SparseVector({2: 3.0}))]
        idx = build_index(docs)
        assert idx.doc_table == ["a", "b"]
        assert postings(idx)[2] == [(0, 2.0), (1, 3.0)]
        assert idx.offsets.tolist() == [0, 1, 1, 3]
        assert idx.total_postings == 3


    @pytest.mark.parametrize("base", [0, 1_000, 65_520], ids=["uint8-keys", "uint16-keys", "uint32-keys"])
    def test_narrow_sort_keys_keep_the_int64_order(self, rng, base):
        """The posting sort runs on the narrowest unsigned type that holds the largest term id (here
        |V| < 256, ids past 256, and ids past 65,536); its columns equal a stable sort of the int64 ids."""
        docs = [(d, SparseVector({base + t: w for t, w in v.entries.items()})) for d, v in random_corpus(rng)]
        idx = build_index(docs)
        entries = [(t, i, w) for i, (_, v) in enumerate(docs) for t, w in v.entries.items()]
        terms = np.array([t for t, _, _ in entries], np.int64)
        order = np.argsort(terms, kind="stable")
        assert idx.offsets.tolist() == [0, *np.cumsum(np.bincount(terms)).tolist()]
        assert idx.ordinals.tolist() == [entries[j][1] for j in order]
        assert idx.impacts.tolist() == [entries[j][2] for j in order]


class TestExhaustiveSearch:
    def test_hand_example(self):
        docs = [("a", SparseVector({0: 2.0})), ("b", SparseVector({0: 1.0, 1: 5.0}))]
        q = SparseVector({0: 1.0})
        assert exhaustive_search(q, docs, k=10) == [("a", 2.0), ("b", 1.0)]

    def test_zero_scores_excluded(self):
        docs = [("a", SparseVector({5: 1.0}))]
        assert exhaustive_search(SparseVector({0: 1.0}), docs, k=10) == []

    def test_tie_breaks_by_doc_id(self):
        docs = [("b", SparseVector({0: 1.0})), ("a", SparseVector({0: 1.0}))]
        ranked = exhaustive_search(SparseVector({0: 1.0}), docs, k=2)
        assert [d for d, _ in ranked] == ["a", "b"]


class TestIndexSearch:
    def test_exact_mode_matches_oracle_bitwise(self, rng):
        docs = random_corpus(rng)
        idx = build_index(docs)
        for _ in range(1000):
            q = random_query(rng)
            expected = exhaustive_search(q, docs, k=50)
            got, _ = index_search(idx, q, k=50)
            assert got == expected  # scores bitwise equal, same order

    def test_ops_count_is_sum_of_posting_lengths(self, rng):
        docs = random_corpus(rng, num_docs=60)
        idx = build_index(docs)
        for _ in range(50):
            q = random_query(rng)
            _, ops = index_search(idx, q, k=10)
            assert ops == sum(len(postings(idx).get(t, ())) for t in q.entries)

    def test_empty_query(self):
        idx = build_index([("a", SparseVector({0: 1.0}))])
        ranked, ops = index_search(idx, SparseVector(), k=10)
        assert ranked == [] and ops == 0

    def test_k_truncates(self, rng):
        docs = random_corpus(rng, num_docs=30)
        idx = build_index(docs)
        q = random_query(rng)
        full, _ = index_search(idx, q, k=30)
        short, _ = index_search(idx, q, k=3)
        assert short == full[:3]


@pytest.fixture(scope="module")
def suite():
    rng = np.random.default_rng(0)
    docs = random_corpus(rng)
    queries = [random_query(rng) for _ in range(50)]
    truth = [dict(exhaustive_search(q, docs, k=200)) for q in queries]
    return docs, queries, truth


class TestQuantizationError:
    """Max-scaled linear quantization loses about one bit of score accuracy per bit removed."""

    def _mean_rel_error(self, docs, queries, truth, bits):
        idx = build_index(docs, Quantization(mode="bits", bits=bits))
        rels = []
        for q, exact in zip(queries, truth):
            approx = dict(index_search(idx, q, k=200)[0])
            rels.extend(abs(approx.get(d, 0.0) - s) / s for d, s in exact.items())
        return float(np.mean(rels))

    def test_error_decreases_with_bits(self, suite):
        docs, queries, truth = suite
        errors = [self._mean_rel_error(docs, queries, truth, b) for b in range(4, 17)]
        assert all(a > b for a, b in zip(errors, errors[1:])), errors

    def test_error_halves_per_bit(self, suite):
        docs, queries, truth = suite
        errors = {b: self._mean_rel_error(docs, queries, truth, b) for b in range(6, 16)}
        for b in range(6, 15):
            ratio = errors[b + 1] / errors[b]
            assert 0.375 <= ratio <= 0.625, (b, ratio)

    def test_eight_bits_under_one_percent(self, suite):
        docs, queries, truth = suite
        assert self._mean_rel_error(docs, queries, truth, 8) < 0.01


class TestSerialization:
    def test_round_trip_exact(self, rng, tmp_path):
        docs = random_corpus(rng, num_docs=80)
        idx = build_index(docs)
        save_index(idx, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert columns(loaded) == columns(idx)
        assert loaded.doc_table == idx.doc_table
        assert loaded.scale == idx.scale
        for _ in range(20):
            q = random_query(rng)
            assert index_search(loaded, q, k=20) == index_search(idx, q, k=20)

    def test_round_trip_quantized(self, rng, tmp_path):
        docs = random_corpus(rng, num_docs=80)
        idx = build_index(docs, Quantization(mode="bits", bits=8))
        save_index(idx, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert columns(loaded) == columns(idx)
        assert loaded.quantization == idx.quantization
        for _ in range(20):
            q = random_query(rng)
            assert index_search(loaded, q, k=20) == index_search(idx, q, k=20)

    def test_bad_format_rejected(self, tmp_path):
        d = tmp_path / "idx"
        d.mkdir()
        (d / "header.json").write_text('{"format": "other"}', encoding="utf-8")
        (d / "postings.bin").write_bytes(b"")
        with pytest.raises(ValueError, match="format"):
            load_index(d)

    def test_v1_index_rejected(self, tmp_path):
        d = tmp_path / "idx"
        d.mkdir()
        (d / "header.json").write_text('{"format": "lsrkit-impact-index-v1"}', encoding="utf-8")
        (d / "postings.bin").write_bytes(b"\x00\x01\x00")
        with pytest.raises(ValueError, match="unrecognized index format"):
            load_index(d)

    def test_saved_size_is_the_files_size(self, rng, tmp_path):
        idx = build_index(random_corpus(rng, num_docs=20), Quantization(mode="bits", bits=8))
        written = save_index(idx, tmp_path / "idx")
        assert written == sum(p.stat().st_size for p in (tmp_path / "idx").iterdir())
        assert (tmp_path / "idx" / "postings.bin").stat().st_size == 8 * len(idx.offsets) + 6 * idx.total_postings


# hypothesis strategies: a small sparse corpus with positive finite weights
weights = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)
sparse_vectors = st.dictionaries(st.integers(0, 30), weights, min_size=1, max_size=8).map(SparseVector)
corpora = st.lists(sparse_vectors, min_size=1, max_size=25).map(lambda vs: [(f"d{i}", v) for i, v in enumerate(vs)])


def save_and_load(idx):
    with tempfile.TemporaryDirectory() as tmp:
        save_index(idx, tmp)
        return load_index(tmp)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(docs=corpora, queries=st.lists(sparse_vectors, min_size=1, max_size=5))
    def test_index_search_equals_oracle_bitwise(self, docs, queries):
        built = build_index(docs)
        loaded = save_and_load(built)
        for q in queries:
            expected = exhaustive_search(q, docs, k=10)
            assert index_search(built, q, k=10)[0] == expected
            assert index_search(loaded, q, k=10)[0] == expected

    @settings(max_examples=60, deadline=None)
    @given(docs=corpora, bits=st.integers(1, 16))
    def test_bits_round_trip_columns(self, docs, bits):
        built = build_index(docs, Quantization(mode="bits", bits=bits))
        loaded = save_and_load(built)
        assert columns(loaded) == columns(built)
        assert loaded.weights.tolist() == built.weights.tolist()
        assert (loaded.doc_table, loaded.scale, loaded.quantization) == (built.doc_table, built.scale, built.quantization)


# few distinct weights, so that scores tie; doc ids d0..d13 sort apart from their ordinals (d10 < d2)
tied_vectors = st.dictionaries(st.integers(0, 6), st.sampled_from([0.25, 0.5, 1.0, 2.0]), max_size=4).map(SparseVector)
tied_corpora = st.lists(tied_vectors, min_size=1, max_size=14).map(lambda vs: [(f"d{i}", v) for i, v in enumerate(vs)])
# term ids past the index's last term included, up to the largest a vector holds; the empty query too
edge_queries = st.dictionaries(
    st.integers(0, 9) | st.just(2**63 - 1), st.sampled_from([0.5, 1.0, 1.5]), max_size=5
).map(SparseVector)
quantizations = st.one_of(st.just(Quantization()), st.integers(1, 16).map(lambda b: Quantization(mode="bits", bits=b)))


def dequantized(docs, quant):
    """The vectors search scores against: weights rounded to their impact level, zero levels dropped."""
    if quant.mode == "exact":
        return docs
    levels = 2**quant.bits - 1
    max_w = max((w for _, v in docs for w in v.entries.values()), default=0.0)
    return [
        (doc_id, SparseVector({t: math.floor(w * levels / max_w + 0.5) * max_w / levels for t, w in v.entries.items()}))
        for doc_id, v in docs
    ]


class TestSearchEdges:
    @settings(max_examples=150, deadline=None)
    @given(docs=tied_corpora, queries=st.lists(edge_queries, min_size=1, max_size=4), quant=quantizations)
    def test_every_k_equals_oracle_bitwise(self, docs, queries, quant):
        """Ties at the k-th place keep doc_id order, at every k from 0 past the number of hits."""
        built = build_index(docs, quant)
        loaded = save_and_load(built)
        scored = dequantized(docs, quant)
        for q in queries:
            for k in range(len(docs) + 2):
                expected = exhaustive_search(q, scored, k)
                assert index_search(built, q, k)[0] == expected
                assert index_search(loaded, q, k)[0] == expected

    @settings(max_examples=100, deadline=None)
    @given(docs=tied_corpora, q=edge_queries, quant=quantizations, k=st.integers(0, 3))
    def test_ops_is_sum_of_query_posting_lengths(self, docs, q, quant, k):
        """Term ids past the index's last add nothing; k does not change ops."""
        postings_of = {t: sum(t in v.entries for _, v in dequantized(docs, quant)) for t in q.entries}
        assert index_search(build_index(docs, quant), q, k)[1] == sum(postings_of.values())

    def test_tie_at_the_boundary_goes_to_the_smaller_doc_id(self):
        docs = [(f"d{i}", SparseVector({0: 1.0} if i in (9, 10) else {1: 1.0})) for i in range(11)]
        idx = build_index(docs)
        assert index_search(idx, SparseVector({0: 2.0}), k=1) == ([("d10", 2.0)], 2)
        assert index_search(idx, SparseVector({0: 2.0}), k=2) == ([("d10", 2.0), ("d9", 2.0)], 2)

    def test_k_zero_and_empty_query(self):
        idx = build_index([("a", SparseVector({0: 1.0}))])
        assert index_search(idx, SparseVector({0: 1.0}), k=0) == ([], 1)
        assert index_search(idx, SparseVector(), k=5) == ([], 0)
        assert index_search(idx, SparseVector({2**63 - 1: 1.0, 1: 1.0}), k=5) == ([], 0)

    def test_scores_are_python_floats(self):
        idx = build_index([("a", SparseVector({0: 1.5}))], Quantization(mode="bits", bits=8))
        ((doc_id, score),) = index_search(idx, SparseVector({0: 1.0}), k=5)[0]
        assert type(doc_id) is str and type(score) is float


def slice_reference(idx, q, k):
    """The posting-slice arithmetic, written out: one bincount of every query term's products in
    ascending term order, nonzero scores ranked by score descending, then doc id."""
    terms = [t for t in sorted(q.entries) if 0 <= t < len(idx.offsets) - 1]
    spans = [slice(idx.offsets[t], idx.offsets[t + 1]) for t in terms]
    acc = np.bincount(
        np.concatenate([idx.ordinals[s] for s in spans]),
        np.concatenate([q.entries[t] * idx.weights[s] for t, s in zip(terms, spans)]),
        minlength=len(idx.doc_table),
    )
    hits = np.flatnonzero(acc)
    rank = np.argsort(np.argsort(np.array(idx.doc_table)[hits]))
    order = np.lexsort((rank, -acc[hits]))[:k]
    return [(idx.doc_table[o], float(acc[o])) for o in hits[order]]


def as_bits(ranked):
    """A ranking with each score as its hex string, so that NaN scores compare equal."""
    return [(doc_id, score.hex()) for doc_id, score in ranked]


@st.composite
def grid_corpora(draw, dense: bool):
    """Docs over a grid `num_terms` terms wide whose postings fill at least half of it (dense) or less
    than TABLE_FILL of it (sparse; doc 0 holds the last term, which pins the grid's width)."""
    num_terms = draw(st.integers(8, 48))
    num_docs = draw(st.integers(1, 12))
    low, high = (num_terms // 2, num_terms) if dense else (0, num_terms // 8)
    vectors = [
        draw(st.dictionaries(st.integers(0, num_terms - 1), weights, min_size=low, max_size=high))
        for _ in range(num_docs)
    ]
    vectors[0][num_terms - 1] = draw(weights)
    return [(f"d{i}", SparseVector(v)) for i, v in enumerate(vectors)]


#: up to 40 terms, past numpy's 8-wide pairwise block, some past the grid's last term
long_queries = st.dictionaries(st.integers(0, 52), weights, max_size=40).map(SparseVector)


class TestTermTable:
    """An index that fills TABLE_FILL of its term x doc grid is searched from a dense term table,
    with the bits and ops of the posting slices."""

    def test_table_holds_the_dequantized_weights(self, rng):
        docs = random_corpus(rng, num_docs=30, vocab_size=12, max_nnz=9)
        idx = build_index(docs, Quantization(mode="bits", bits=8))
        expected = np.zeros((len(idx.offsets) - 1, len(docs)))
        for t, plist in postings(idx).items():
            for ordinal, impact in plist:
                expected[t, ordinal] = impact * idx.scale / 255
        assert idx.term_table.tobytes() == expected.tobytes()

    def test_one_doc_index_sums_row_after_row(self, rng):
        """numpy sums a 1-wide table pairwise, whose bits differ from a loop's over 150 terms of mixed
        magnitudes; a 1-doc index keeps to its posting slices."""
        terms = rng.permutation(150)
        doc = SparseVector({int(t): float(w) for t, w in zip(terms, 10.0 ** rng.uniform(-6, 6, 150))})
        q = SparseVector({int(t): float(w) for t, w in zip(terms, 10.0 ** rng.uniform(-3, 3, 150))})
        idx = build_index([("a", doc)])
        assert idx.term_table is None
        assert index_search(idx, q, k=1) == (exhaustive_search(q, [("a", doc)], k=1), 150)

    def test_term_ids_outside_the_table_add_nothing(self, rng):
        docs = random_corpus(rng, num_docs=30, vocab_size=12, max_nnz=9)
        idx = build_index(docs)
        assert idx.term_table is not None
        q = SparseVector({2: 0.5, 12: 1.0, 2**40: 1.0, 2**63 - 1: 1.0})
        assert index_search(idx, q, k=30) == (exhaustive_search(q, docs, k=30), len(postings(idx)[2]))

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), queries=st.lists(long_queries, min_size=1, max_size=4), quant=quantizations)
    def test_either_form_equals_oracle_bitwise(self, dense, data, queries, quant):
        docs = data.draw(grid_corpora(dense))
        built = build_index(docs, quant)
        loaded = save_and_load(built)
        num_terms, num_docs = len(built.offsets) - 1, len(docs)
        fill = built.total_postings / (num_terms * num_docs) if num_terms else 0.0
        assert (built.term_table is not None) == (num_docs >= 2 and num_terms > 0 and fill >= TABLE_FILL)
        if quant.mode == "exact":  # bits mode may drop postings that quantize to 0
            assert (built.term_table is not None) == (dense and num_docs >= 2)
        scored = dequantized(docs, quant)
        for q in queries:
            ops = sum(t in v.entries for _, v in scored for t in q.entries)
            for k in (0, 1, 10, num_docs + 1):
                expected = exhaustive_search(q, scored, k)
                assert index_search(built, q, k) == (expected, ops)
                assert index_search(loaded, q, k) == (expected, ops)


class TestBuildEdges:
    def test_top_term_all_zero_impacts_gets_no_offsets_entry(self):
        docs = [("a", SparseVector({0: 1000.0, 3: 0.001})), ("b", SparseVector({2: 1000.0, 5: 0.002}))]
        idx = build_index(docs, Quantization(mode="bits", bits=4))
        assert idx.offsets.tolist() == [0, 1, 1, 2]
        assert idx.ordinals.tolist() == [0, 1]

    def test_doc_without_entries_keeps_its_ordinal(self):
        idx = build_index([("a", SparseVector()), ("b", SparseVector({1: 2.0})), ("c", SparseVector())])
        assert idx.doc_table == ["a", "b", "c"]
        assert (idx.offsets.tolist(), idx.ordinals.tolist()) == ([0, 0, 1], [1])
        assert index_search(idx, SparseVector({1: 1.0}), k=3) == ([("b", 2.0)], 1)

    def test_empty_corpus(self):
        idx = save_and_load(build_index([], Quantization(mode="bits", bits=8)))
        assert (idx.offsets.tolist(), idx.total_postings, idx.scale) == ([0], 0, 0.0)
        assert index_search(idx, SparseVector({0: 1.0}), k=3) == ([], 0)

    @pytest.mark.parametrize(
        "docs, match",
        [
            ([("a", {0: 1.0}), ("b", {1: 1.0}), ("b", {2: 1.0})], "duplicate doc_id 'b'"),
            ([("a", {0: 1.0}), (7, {1: 1.0})], "^doc ids must be strings$"),
            ([("a", {0: 1.0}), ("b", {1: -1.0, 2: 1.0})], "^term 1 has weight -1.0, not a finite number > 0$"),
            ([("a", {0: 1.0}), ("b", {1: math.nan}), ("c", {2: -1.0})], "^term 1 has weight nan, "),
            ([("a", {0: 1.0}), ("b", {-2: 1.0}), ("c", {-3: 1.0})], r"^term id -2 is outside \[0, 2\*\*63\)$"),
            ([("a", {0: 1.0}), ("b", {-2: 1.0, 1: 1.0}), ("c", {3: math.inf})], "^term id -2 is outside "),
        ],
        ids=["duplicate", "not-a-string", "negative-weight", "first-bad-weight", "first-negative-term",
             "negative-term-first"],
    )
    @pytest.mark.parametrize("quant", [Quantization(), Quantization(mode="bits", bits=8)], ids=["exact", "bits"])
    def test_bad_input_names_the_doc(self, docs, match, quant):
        """build_index names a repeated doc id.  A vector that breaks the `SparseVector` contract is
        refused where it is built, in doc order, so the error is the first bad doc's (b's, not c's)
        and build_index never runs."""
        with pytest.raises(ValueError, match=match):
            build_index([(d, SparseVector(e)) for d, e in docs], quant)


@pytest.fixture(scope="module")
def saved_payload(tmp_path_factory):
    docs = random_corpus(np.random.default_rng(3), num_docs=12, vocab_size=10, max_nnz=4)
    d = tmp_path_factory.mktemp("idx")
    save_index(build_index(docs, Quantization(mode="bits", bits=8)), d)
    return d, (d / "postings.bin").read_bytes()


class TestCorruption:
    """Any damage to postings.bin raises ValueError, never another exception or a changed index."""

    def _load_with(self, saved_payload, payload, match):
        d, original = saved_payload
        (d / "postings.bin").write_bytes(payload)
        try:
            with pytest.raises(ValueError, match=match):
                load_index(d)
        finally:
            (d / "postings.bin").write_bytes(original)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncation(self, saved_payload, data):
        original = saved_payload[1]
        cut = data.draw(st.integers(0, len(original) - 1))
        self._load_with(saved_payload, original[:cut], match="bytes, header says")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_one_byte_changed(self, saved_payload, data):
        original = saved_payload[1]
        pos = data.draw(st.integers(0, len(original) - 1))
        flip = data.draw(st.integers(1, 255))
        payload = bytearray(original)
        payload[pos] ^= flip
        self._load_with(saved_payload, bytes(payload), match="crc32")

    @pytest.mark.parametrize(
        "offsets, ordinals, impacts, bits",
        [
            ([1, 1], [0], [1.0], None),
            ([0, 2, 1, 2], [0, 1], [1.0, 1.0], None),
            ([0, 1], [0, 1], [1.0, 1.0], None),
            ([0, 1], [2], [1.0], None),
            ([0, 1], [-1], [1.0], None),
            ([0, 2], [1, 0], [1.0, 1.0], None),
            ([0, 2], [0, 0], [1.0, 1.0], None),
            ([0, 1], [0], [math.nan], None),
            ([0, 1], [0], [math.inf], None),
            ([0, 1], [0], [0.0], None),
            ([0, 1], [0], [-1.0], None),
            ([0, 1], [0], [0], 8),
            ([0, 1], [0], [256], 8),
        ],
        ids=[
            "offsets-start-past-0", "offsets-decrease", "offsets-end-short", "ordinal-past-doc-table",
            "ordinal-negative", "ordinals-descend", "ordinal-repeats", "impact-nan", "impact-inf",
            "impact-zero", "impact-negative", "level-zero", "level-above-max",
        ],
    )
    def test_inconsistent_columns_rejected(self, tmp_path, offsets, ordinals, impacts, bits):
        quant = Quantization() if bits is None else Quantization(mode="bits", bits=bits)
        save_index(ImpactIndex(offsets, ordinals, impacts, ["a", "b"], quant, scale=1.0), tmp_path)
        with pytest.raises(ValueError, match="corrupt index"):
            load_index(tmp_path)

    def test_ordinals_restart_at_term_boundary(self, tmp_path):
        save_index(ImpactIndex([0, 1, 1, 2], [1, 0], [1.0, 2.0], ["a", "b"], Quantization(), scale=2.0), tmp_path)
        assert load_index(tmp_path).ordinals.tolist() == [1, 0]

    @pytest.mark.parametrize(
        "key, change",
        [
            ("payload_bytes", lambda v: v + 1),
            ("crc32", lambda v: v ^ 1),
            ("num_offsets", lambda v: v + 1),
            ("total_postings", lambda v: v - 1),
            ("scale", lambda v: math.nan),
            ("scale", lambda v: -v),
            ("doc_table", lambda v: list(range(len(v)))),
            ("quantization", lambda v: {"mode": "bits", "bits": 40}),
            ("vocab", None),
        ],
        ids=[
            "payload-bytes", "crc32", "num-offsets", "total-postings", "scale-nan", "scale-negative",
            "doc-ids-not-strings", "quantization", "field-missing",
        ],
    )
    def test_inconsistent_header_rejected(self, tmp_path, key, change):
        save_index(build_index([("a", SparseVector({0: 1.0, 3: 2.0})), ("b", SparseVector({3: 1.5}))]), tmp_path)
        header = json.loads((tmp_path / "header.json").read_text(encoding="utf-8"))
        if change is None:
            del header[key]
        else:
            header[key] = change(header[key])
        (tmp_path / "header.json").write_text(json.dumps(header), encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt index"):
            load_index(tmp_path)

    @pytest.mark.parametrize(
        "key, value",
        [("quantization", {"mode": "bits", "bits": 8.5}), ("doc_table", ["a", "a", "c"]), ("scale", "2.5")],
        ids=["bits-not-an-integer", "doc-id-repeated", "scale-a-string"],
    )
    def test_ill_typed_header_field_rejected(self, tmp_path, key, value):
        """`bits` is a JSON integer (8.5 bits would dequantize with 2**8.5 - 1 levels), doc ids are
        unique (a repeated one would rank twice) and `scale` is a JSON number; each failure names the index."""
        docs = [("a", SparseVector({0: 1.0})), ("b", SparseVector({0: 2.0})), ("c", SparseVector({0: 2.5}))]
        save_index(build_index(docs, Quantization(mode="bits", bits=8)), tmp_path)
        header = json.loads((tmp_path / "header.json").read_text(encoding="utf-8"))
        header[key] = value
        (tmp_path / "header.json").write_text(json.dumps(header), encoding="utf-8")
        with pytest.raises(ValueError, match=f"corrupt index in {re.escape(str(tmp_path))}"):
            load_index(tmp_path)

    @pytest.mark.parametrize("doc_table", [["a", "", "c"], ["a", "b c", "d"], ["a", "b", "c\t"], ["a", "b", "\u00a0"]],
                             ids=["empty", "inner-space", "trailing-tab", "nbsp"])
    def test_doc_id_empty_or_with_whitespace_rejected(self, tmp_path, doc_table):
        """Such an id would give a run line with another field count, which `eval` refuses: the index is
        corrupt, by the id rule of `read_vectors`, and `build_index` refuses to build it."""
        docs = [("a", SparseVector({0: 1.0})), ("b", SparseVector({0: 2.0})), ("c", SparseVector({1: 2.5}))]
        with pytest.raises(ValueError, match="^doc ids must be nonempty with no whitespace$"):
            build_index([(doc_id, vec) for doc_id, (_, vec) in zip(doc_table, docs)])
        save_index(build_index(docs), tmp_path)
        header = json.loads((tmp_path / "header.json").read_text(encoding="utf-8"))
        header["doc_table"] = doc_table
        (tmp_path / "header.json").write_text(json.dumps(header), encoding="utf-8")
        with pytest.raises(ValueError, match="corrupt index in .*: doc ids must be nonempty with no whitespace"):
            load_index(tmp_path)
