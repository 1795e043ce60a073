"""Core types: vocabulary, tokenized text, sparse vectors, corpus statistics, and the line-file contract."""

import dataclasses
import json
import math
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import to_dense

from lsrkit.core import (
    WRITE_SLICE,
    CorpusStats,
    SparseVector,
    TokenizedText,
    Vocabulary,
    build_vocabulary,
    compute_corpus_stats,
    read_collection,
    read_json,
    read_vocabulary,
    vector_columns,
    write_collection,
    write_lines,
    write_vocabulary,
)
from lsrkit.encoders import read_expansion_file
from lsrkit.evaluation import read_qrels, read_run
from lsrkit.pipeline import COLUMN_MAX_DISTINCT_SHARE, read_vectors, write_vectors
from lsrkit.supervision import read_triples


class TestBuildVocabulary:
    def test_dedup(self):
        vocab = build_vocabulary(["a", "b", "a"])
        assert vocab.term_to_id == {"a": 0, "b": 1}

    def test_empty(self):
        assert build_vocabulary([]).size == 0

    def test_first_seen_order(self):
        vocab = build_vocabulary(["x", "y", "z", "y"])
        assert vocab.term_to_id == {"x": 0, "y": 1, "z": 2}

    def test_round_trip_property(self):
        vocab = build_vocabulary(f"w{i % 37}" for i in range(200))
        for term in vocab.terms:
            assert vocab.terms[vocab.term_to_id[term]] == term

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(terms=("a", "a"), term_to_id={"a": 0})


class TestTokenizedText:
    def test_token_ids_become_a_tuple(self):
        text = TokenizedText("d1", [3, 1, 3])
        assert text.token_ids == (3, 1, 3) and type(text.token_ids) is tuple
        assert text == TokenizedText(doc_id="d1", token_ids=(3, 1, 3))
        assert hash(text) == hash(TokenizedText("d1", (3, 1, 3)))
        assert repr(text) == "TokenizedText(doc_id='d1', token_ids=(3, 1, 3))"
        assert not hasattr(text, "__dict__")  # slots: built once per text of every collection read

    @pytest.mark.parametrize("field", ["doc_id", "token_ids", "other"])
    def test_assignment_raises(self, field):
        text = TokenizedText("d1", (0,))
        with pytest.raises((dataclasses.FrozenInstanceError, AttributeError)):
            setattr(text, field, ())
        assert text == TokenizedText("d1", (0,))


class TestCorpusStats:
    def test_hand_count(self):
        docs = [
            TokenizedText("d1", (0, 1)),
            TokenizedText("d2", (0,)),
        ]
        stats = compute_corpus_stats(docs)
        assert stats.num_docs == 2
        assert stats.doc_freq == {0: 2, 1: 1}
        assert stats.avg_doc_len == 1.5
        assert not stats.degenerate

    def test_single_empty_doc_is_degenerate(self):
        stats = compute_corpus_stats([TokenizedText("d1", ())])
        assert stats.num_docs == 1
        assert stats.avg_doc_len == 0.0
        assert stats.degenerate

    def test_df_counts_presence_not_occurrences(self):
        stats = compute_corpus_stats([TokenizedText("d1", (0, 0, 0))])
        assert stats.doc_freq[0] == 1

    def test_empty_corpus(self):
        stats = compute_corpus_stats([])
        assert stats.num_docs == 0
        assert stats.degenerate

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        docs = [
            TokenizedText(f"d{i}", tuple(rng.integers(0, 20, size=rng.integers(0, 10))))
            for i in range(30)
        ]
        base = compute_corpus_stats(docs)
        shuffled = list(docs)
        rng.shuffle(shuffled)
        other = compute_corpus_stats(shuffled)
        assert base.doc_freq == other.doc_freq
        assert base.avg_doc_len == other.avg_doc_len


sparse_weights = st.floats(min_value=0.0, max_value=10, exclude_min=True)
sparse_entries = st.dictionaries(st.integers(min_value=0, max_value=63), sparse_weights, max_size=20)

#: entries that break the SparseVector contract, each with the error that names it
BAD_ENTRIES = {
    "nan": ({3: math.nan}, "term 3 has weight nan, not a finite number > 0"),
    "inf": ({3: math.inf}, "term 3 has weight inf, not a finite number > 0"),
    "-inf": ({3: -math.inf}, "term 3 has weight -inf, not a finite number > 0"),
    "negative": ({3: -0.5}, "term 3 has weight -0.5, not a finite number > 0"),
    "negative-id": ({-1: 0.5}, r"term id -1 is outside \[0, 2\*\*63\)"),
    "id-past-int64": ({2**63: 0.5}, r"term id 9223372036854775808 is outside \[0, 2\*\*63\)"),
}


class TestSparseVector:
    def test_zero_weights_dropped_at_construction(self):
        v = SparseVector({1: 0.0, 2: 3.0})
        assert v.entries == {2: 3.0}
        assert v.nnz == 1

    @given(sparse_entries)
    def test_entries_ascend_by_term_id(self, a):
        v = SparseVector(a)
        assert list(v.entries.items()) == sorted(a.items())
        assert all(type(t) is int and type(w) is float for t, w in v.entries.items())

    @pytest.mark.parametrize("bad", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
    def test_entry_outside_the_contract_is_rejected(self, bad):
        """Each constructor refuses the entry, naming its term: the mapping one after sorting (the
        first bad term in term order), `from_dense` for a weight, `from_columns` naming the text too."""
        entries, problem = bad
        with pytest.raises(ValueError, match=f"^{problem}$"):
            SparseVector({9: 1.0, **entries, 0: 2.0})
        (t, w), = entries.items()
        if 0 <= t < 2**63:
            with pytest.raises(ValueError, match=f"^{problem}$"):
                SparseVector.from_dense([0.0, 1.0, 0.0, w, 2.0])
            texts = [TokenizedText("a", (0, 1)), TokenizedText("b", (1, 3, 5))]
            rows, terms, weights = np.array([0, 0, 1, 1, 1]), np.array([0, 1, 1, 3, 5]), np.array([1.0, 2, 1, w, 0])
            with pytest.raises(ValueError, match=f"^text 'b': {problem}$"):
                SparseVector.from_columns(texts, rows, terms, weights)

    @pytest.mark.parametrize("entries, problem", [
        ({1.7: 0.5}, "term id 1.7 is not an int"),
        ({True: 0.5}, "term id True is not an int"),
        ({"3": 0.5}, "term id '3' is not an int"),
        ({2: "0.5"}, "term 2 has weight '0.5', not a finite number > 0"),
        ({2: True}, "term 2 has weight True, not a finite number > 0"),
        ({2: np.True_}, "term 2 has weight np.True_, not a finite number > 0"),
        ({2: None}, "term 2 has weight None, not a finite number > 0"),
    ], ids=["float-id", "bool-id", "str-id", "str-weight", "bool-weight", "numpy-bool-weight", "none-weight"])
    def test_mapping_constructor_coerces_nothing(self, entries, problem):
        """An id or weight of another type is refused, not converted, whatever else the mapping holds."""
        with pytest.raises(ValueError, match=f"^{problem}$"):
            SparseVector({0: 1.0, **entries, 9: 2.0})

    def test_mapping_constructor_takes_python_and_numpy_numbers(self):
        got = SparseVector({np.int32(7): np.float32(0.5), 3: 2, np.uint8(5): np.int64(4), 1: 1.5})
        assert got == SparseVector({1: 1.5, 3: 2.0, 5: 4.0, 7: 0.5})

    @pytest.mark.parametrize("values", [np.float64(2.0), [[0.0, 1.0, 0.0], [0.0, 0.0, 3.0]]], ids=["0-D", "2-D"])
    def test_from_dense_refuses_all_but_1d(self, values):
        with pytest.raises(ValueError, match="^from_dense takes a 1-D array, not a [02]-D one$"):
            SparseVector.from_dense(values)

    def test_from_columns_drops_zeros(self):
        """One vector per text, a text without entries included; zero weights are not stored."""
        texts = [TokenizedText(d, ()) for d in "abc"]
        got = SparseVector.from_columns(texts, np.array([0, 0, 2, 2]), np.array([1, 4, 0, 300]),
                                        np.array([0.5, 0.0, 2.0, 1.5]))
        assert got == [SparseVector({1: 0.5}), SparseVector(), SparseVector({0: 2.0, 300: 1.5})]
        assert [list(v.entries) for v in got] == [[1], [], [0, 300]]

    @given(st.lists(st.dictionaries(st.integers(0, 63), st.just(0.0) | sparse_weights, max_size=20), max_size=8))
    def test_from_columns_round_trip(self, batch):
        """`vector_columns` of `from_columns`' vectors gives back its columns with the zeros dropped, and
        each vector is the mapping constructor's, its columns int64 ascending and float64."""
        texts = [TokenizedText(f"t{i}", ()) for i in range(len(batch))]
        rows = np.array([i for i, e in enumerate(batch) for _ in e], np.int64)
        terms = np.array([t for e in batch for t in sorted(e)], np.int64)
        weights = np.array([e[t] for e in batch for t in sorted(e)], np.float64)
        got = SparseVector.from_columns(texts, rows, terms, weights)
        assert got == [SparseVector(e) for e in batch]
        for vec in got:
            assert vec.terms.dtype == np.int64 and vec.weights.dtype == np.float64
            assert (np.diff(vec.terms) > 0).all()
        ids, lengths, got_terms, got_weights = vector_columns(zip((t.doc_id for t in texts), got))
        kept = weights != 0.0
        assert ids == [t.doc_id for t in texts]
        assert lengths.tolist() == np.bincount(rows[kept], minlength=len(batch)).tolist()
        assert got_terms.dtype == np.int64 and got_terms.tolist() == terms[kept].tolist()
        assert got_weights.dtype == np.float64 and got_weights.tobytes() == weights[kept].tobytes()

    @given(sparse_entries, sparse_entries)
    @settings(max_examples=200)
    def test_arithmetic_matches_dense_oracle(self, a, b):
        va, vb = SparseVector(a), SparseVector(b)
        da = np.array(to_dense(va, 64))
        db = np.array(to_dense(vb, 64))
        assert va.dot(vb) == pytest.approx(float(da @ db), abs=1e-9)

    @given(sparse_entries)
    def test_dense_round_trip(self, a):
        v = SparseVector(a)
        assert SparseVector.from_dense(to_dense(v, 64)) == v


class TestFromDense:
    """`from_dense` keeps what the comprehension `{i: float(v) for i, v in enumerate(values) if v != 0.0}`
    keeps: the same keys in the same order, the same value bits, Python ints and floats."""

    @staticmethod
    def _check(values):
        want = {i: float(v) for i, v in enumerate(values) if v != 0.0}
        got = SparseVector.from_dense(values).entries
        assert list(got) == list(want)
        assert [struct.pack("<d", w) for w in got.values()] == [struct.pack("<d", w) for w in want.values()]
        assert all(type(k) is int for k in got) and all(type(w) is float for w in got.values())

    @pytest.mark.parametrize("values", [
        np.array([0.0, 1.5, -0.0, 0.0, 5e-324, 3.25, 1e308]),
        [0, 1.5, -0.0, 0.0, 2, 7],
        np.zeros(6),
        [0.0, -0.0],
        [],
        np.array([]),
        np.array([3, 0, 1, 0, 2**40]),
        [0, 5, 0, 7],
        np.array([0.1, 0.0, 0.3], dtype=np.float32),
    ], ids=["array", "list", "zeros", "signed_zeros", "empty_list", "empty_array", "int_array", "int_list",
            "float32"])
    def test_equals_the_comprehension(self, values):
        self._check(values)

    @given(st.lists(st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 3) | st.just(-0.0), max_size=30))
    def test_equals_the_comprehension_on_lists(self, values):
        self._check(values)
        self._check(np.array(values, dtype=np.float64))


class TestFileFormats:
    def test_vocabulary_file_round_trip(self, tmp_path):
        vocab = build_vocabulary(["alpha", "beta", "gamma"])
        path = tmp_path / "vocab.txt"
        write_vocabulary(vocab, path)
        loaded = read_vocabulary(path)
        assert loaded.terms == vocab.terms

    @pytest.mark.parametrize("text, line, problem", [
        ("a\nb\na\n", 3, "duplicate vocabulary term 'a' \\(first on line 1\\)"),
        ("a\n\nb\n", 2, "blank line"),
        ("a\nb\n\n", 3, "blank line"),
        ("a\n \nb\n", 2, "blank line"),
        ("a\nb c\n", 2, "vocabulary term .* contains whitespace"),
        ("a\n b\n", 2, "vocabulary term .* contains whitespace"),
        ("a\nb\xa0\n", 2, "vocabulary term .* contains whitespace"),
    ], ids=["duplicate", "blank", "blank-at-end", "spaces-only", "inner-space", "leading-space", "nbsp"])
    def test_bad_vocabulary_line_named(self, tmp_path, text, line, problem):
        """Ids are line numbers, so a line that is no usable term is an error at that line."""
        path = tmp_path / "vocab.txt"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError, match=f"vocab.txt:{line}: {problem}"):
            read_vocabulary(path)

    @pytest.mark.parametrize("text", [b"x\ny\nz\n", b"x\ny\nz", b"x\r\ny\r\nz\r\n"], ids=["lf", "no-final-newline", "crlf"])
    def test_vocabulary_ids_are_line_numbers(self, tmp_path, text):
        path = tmp_path / "vocab.txt"
        path.write_bytes(text)
        assert read_vocabulary(path).term_to_id == {"x": 0, "y": 1, "z": 2}

    def test_collection_round_trip(self, tmp_path):
        vocab = build_vocabulary(["a", "b", "c"])
        docs = [TokenizedText("d1", (0, 1, 0)), TokenizedText("d2", ())]
        path = tmp_path / "coll.tsv"
        write_collection(docs, vocab, path)
        loaded = list(read_collection(path, vocab))
        assert loaded == docs

    def test_unknown_token_reports_line(self, tmp_path):
        vocab = build_vocabulary(["a"])
        path = tmp_path / "coll.tsv"
        path.write_text("d1\ta zzz\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1:"):
            list(read_collection(path, vocab))

    def test_repeated_id_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "coll.tsv"
        path.write_text("d1\ta\nd2\ta\nd1\t\n", encoding="utf-8")
        docs = read_collection(path, build_vocabulary(["a"]))
        assert [next(docs).doc_id, next(docs).doc_id] == ["d1", "d2"]  # still read line by line
        with pytest.raises(ValueError, match=r"coll\.tsv:3: repeated id 'd1' \(first on line 1\)"):
            next(docs)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "coll.tsv"
        path.write_text("justonefield\n", encoding="utf-8")
        with pytest.raises(ValueError, match="tab"):
            list(read_collection(path, build_vocabulary([])))


A_TEXT = TokenizedText("q1", (0,))
#: Per line reader: how to call it on a path, a good line and a bad line.
LINE_READERS = {
    "collection": (lambda path: list(read_collection(path, build_vocabulary(["a"]))), "d1\ta", "d2 a"),
    "expansions": (lambda path: read_expansion_file(path, {"a": 0}, {"d1", "d2"}), "d1\ta", "d2 a"),
    "vectors": (lambda path: read_vectors(path, build_vocabulary(["a"])), '{"id": "d1", "vector": {"a": 1.0}}',
                '{"id": "d2"}'),
    "triples": (lambda path: read_triples(path, {"q1": A_TEXT}, {"d1": A_TEXT}), '{"q": "q1", "pos": "d1", "negs": []}',
                "[1]"),
    "run": (read_run, "q1 Q0 d1 1 2.0 t", "q1 Q0 d2 2"),
    "qrels": (read_qrels, "q1 0 d1 1", "q1 0 d2"),
}


class TestLineFiles:
    """Every line reader goes through `core.numbered_lines`, every line writer through `core.write_lines`."""

    @pytest.mark.parametrize("reader", sorted(LINE_READERS))
    def test_blank_lines_are_skipped_but_counted(self, tmp_path, reader):
        """Empty lines and lines of only whitespace (a TAB too) are no records, yet they keep their numbers."""
        read, good, bad = LINE_READERS[reader]
        plain, path = tmp_path / "plain", tmp_path / "file"
        plain.write_text(f"{good}\n", encoding="utf-8")
        blanks = "\n   \n\t\n \t \n"  # lines 2 to 5
        path.write_text(f"{good}\n{blanks}\t", encoding="utf-8")  # line 6: a TAB and no newline
        assert read(path) == read(plain)
        path.write_text(f"{good}\n{blanks}{bad}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:6: "):
            read(path)

    @pytest.mark.parametrize("reader, line, key", [
        ("vectors", '{"id": "d2", "vector": {"a": 1.0, "a": 2.0}}', "a"),
        ("triples", '{"q": "q1", "pos": "d1", "negs": [], "pos": "d2"}', "pos"),
    ])
    def test_repeated_json_key_is_named(self, tmp_path, reader, line, key):
        """json.loads keeps the last value of a repeated key; every JSON input refuses the object."""
        read, good, _ = LINE_READERS[reader]
        path = tmp_path / "file"
        path.write_text(f"{good}\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: repeated key '{key}' in a JSON object$"):
            read(path)
        path.write_text('{"top_k": 10, "paths": {}, "top_k": 5}', encoding="utf-8")  # a whole-file JSON input
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: repeated key 'top_k' in a JSON object$"):
            read_json(path)

    def test_write_lines_ends_every_line(self, tmp_path):
        path = tmp_path / "out.txt"
        write_lines(path, ["a", "", "b c"])
        assert path.read_bytes() == b"a\n\nb c\n"
        write_lines(path, [])
        assert path.read_bytes() == b""

    def test_write_lines_holds_one_slice_not_the_file(self, tmp_path):
        """The lines are joined and encoded a slice at a time: the peak is under half the text's size."""
        lines = [f"q{i:06d} Q0 d{i:06d} 1 {i / 7!r} run" for i in range(20 * WRITE_SLICE)]
        text = "".join(f"{line}\n" for line in lines).encode()
        tracemalloc.start()
        try:
            write_lines(tmp_path / "big.txt", lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.txt").read_bytes() == text
        assert peak < len(text) / 2, (peak, len(text))

    @pytest.mark.parametrize("failure", ["raises", "unencodable", "raises-after-a-slice", "unencodable-after-a-slice"])
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, failure):
        """A line that raises, or one that fails only when written (a lone surrogate is no UTF-8),
        leaves the earlier file byte-identical and no temporary file beside it, also after whole
        slices of lines were written."""
        path = tmp_path / "run.trec"
        path.write_bytes(b"earlier\n")

        def lines():
            for _ in range(2 * WRITE_SLICE + 1 if failure.endswith("-after-a-slice") else 1):
                yield "q1 Q0 d1 1 2 t"
            if failure.startswith("raises"):
                raise ValueError("line 2 failed")
            yield "q1 Q0 \ud800 2 1 t"

        with pytest.raises(ValueError):
            write_lines(path, lines())
        assert path.read_bytes() == b"earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.trec"]

    def test_written_file_has_the_mode_a_plain_open_gives(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x\n", encoding="utf-8")
        write_lines(tmp_path / "atomic.txt", ["x"])
        assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(plain).st_mode


#: Weights at the edges of repr's forms: the least subnormal, exponent forms on both sides, the largest float.
EDGE_WEIGHTS = (5e-324, 1e-05, 1e16, 1.7976931348623157e308)
#: Terms hold any character but lone surrogates (quotes, backslashes, controls and non-ASCII too);
#: ids hold none that `str.split` splits on, since `read_vectors` refuses such an id.
JSON_TERMS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=5)
JSON_IDS = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Z")), min_size=1, max_size=5)


def json_dumps_lines(vectors, vocab) -> bytes:
    """The oracle of `write_vectors`: one json.dumps record per vector, terms in ascending id order."""
    return "".join(
        json.dumps({"id": vid, "vector": {vocab.terms[t]: w for t, w in sorted(vec.entries.items())}}) + "\n"
        for vid, vec in vectors
    ).encode("utf-8")


@st.composite
def vector_batches(draw, few_distinct: bool):
    """(vocab, vectors) with each vector's terms in any order, empty vectors and empty batches
    included, whose share of distinct weights is on one side of `write_vectors`' selection."""
    vocab = build_vocabulary(draw(st.lists(JSON_TERMS, min_size=1, max_size=10, unique=True)))
    if few_distinct:
        weight = st.sampled_from(draw(st.lists(st.sampled_from(EDGE_WEIGHTS + (1.0,)), min_size=1, max_size=3)))
    else:
        weight = st.one_of(st.sampled_from(EDGE_WEIGHTS), st.floats(min_value=5e-324, allow_infinity=False))
    vectors = [
        (vid, SparseVector({t: draw(weight) for t in draw(st.lists(st.integers(0, vocab.size - 1), unique=True))}))
        for vid in draw(st.lists(JSON_IDS, max_size=8, unique=True))
    ]
    weights = [w for _, vec in vectors for w in vec.entries.values()]
    assume((len(set(weights)) <= COLUMN_MAX_DISTINCT_SHARE * len(weights)) == few_distinct)
    return vocab, vectors


class TestVectorFiles:
    """`write_vectors` writes columns or records by the batch's share of distinct weights;
    either way its bytes are json.dumps' and `read_vectors` reads the vectors back."""

    @pytest.mark.parametrize("few_distinct", [True, False], ids=["columns", "records"])
    def test_bytes_are_json_dumps_and_read_back(self, tmp_path_factory, few_distinct):
        path = tmp_path_factory.mktemp("vectors") / "v.jsonl"

        @settings(max_examples=150, deadline=None)
        @given(vector_batches(few_distinct))
        def check(batch):
            vocab, vectors = batch
            write_vectors(vectors, vocab, path)
            assert path.read_bytes() == json_dumps_lines(vectors, vocab)
            assert read_vectors(path, vocab) == vectors

        check()
