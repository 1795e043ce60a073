"""Shared vocabulary, tokenized-text, sparse-vector and corpus-statistics types.

The sparse-vector contract: a `SparseVector` is two numpy columns, `terms`, int64 ids strictly
ascending in [0, 2**63), and `weights`, float64, each finite and > 0 (exact zeros are dropped).  Only
the constructors here build one, each checking the contract where it builds: the mapping constructor
sorts and checks, `from_dense` checks its row and `from_columns` a batch's weights column, each vector
a slice of the batch's columns.  An entry that breaks it is a ValueError, so every later stage takes a
vector as it is, with no re-sort or re-check, and `vector_columns` concatenates a batch's columns.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np


@dataclass(frozen=True)
class Vocabulary:
    """Dense term-id assignment: every id in [0, size) maps to exactly one term."""

    terms: tuple[str, ...]
    term_to_id: Mapping[str, int] = field(repr=False)

    def __post_init__(self):
        if len(self.terms) != len(self.term_to_id):
            raise ValueError("duplicate terms in vocabulary")
        for i, term in enumerate(self.terms):
            if self.term_to_id[term] != i:
                raise ValueError(f"non-dense id assignment for term {term!r}")

    @property
    def size(self) -> int:
        return len(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def build_vocabulary(tokens: Iterable[str]) -> Vocabulary:
    """Assign ids to distinct tokens in first-seen order."""
    term_to_id: dict[str, int] = {}
    for tok in tokens:
        if tok not in term_to_id:
            term_to_id[tok] = len(term_to_id)
    return Vocabulary(terms=tuple(term_to_id), term_to_id=term_to_id)


@dataclass(frozen=True, init=False)
class TokenizedText:
    """A pre-tokenized query or document: a doc id plus a sequence of term ids, kept as a tuple."""

    __slots__ = ("doc_id", "token_ids")
    doc_id: str
    token_ids: tuple[int, ...]

    def __init__(self, doc_id: str, token_ids: Iterable[int]):
        # frozen: fields are set through object.__setattr__, as the generated __init__ sets them
        object.__setattr__(self, "doc_id", doc_id)
        object.__setattr__(self, "token_ids", tuple(token_ids))

    def __len__(self) -> int:
        return len(self.token_ids)


class SparseVector:
    """Vocabulary-dimension vector: the `terms` and `weights` columns of this module's contract, never
    written to.  Training keeps its gradients in dense numpy arrays, never in this type."""

    __slots__ = ("terms", "weights")

    def __init__(self, entries: Mapping[int, float] = {}):
        """The vector of {term id: weight} `entries`, sorted, and checked by `_checked` unless every entry
        is a Python int and float in the contract."""
        if not all(type(t) is int and 0 <= t < 2**63 and type(w) is float and 0.0 < w < math.inf
                   for t, w in entries.items()):
            entries = _checked(entries)
        ids = sorted(entries)
        self.terms = np.array(ids, np.int64)
        self.weights = np.fromiter(map(entries.__getitem__, ids), np.float64, len(ids))

    @classmethod
    def _of(cls, terms: np.ndarray, weights: np.ndarray) -> "SparseVector":  # columns that keep the contract
        vec = cls.__new__(cls)
        vec.terms, vec.weights = terms, weights
        return vec

    @property
    def entries(self) -> dict[int, float]:
        """{term id: weight} in ascending term order, Python ints and floats: a new dict at each read."""
        return dict(zip(self.terms.tolist(), self.weights.tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseVector) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SparseVector({self.entries!r})"

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def nnz(self) -> int:
        return len(self.terms)

    def dot(self, other: "SparseVector") -> float:
        """Dot product over the shared support, added entry by entry in ascending term-id order."""
        a, b = sorted((self.entries, other.entries), key=len)
        total = 0.0
        for t, w in a.items():
            if t in b:
                total += w * b[t]
        return total

    def take(self, positions: np.ndarray) -> "SparseVector":
        """The vector of this one's entries at distinct `positions`: a subset keeps the contract."""
        positions = np.sort(positions)
        return self._of(self.terms[positions], self.weights[positions])

    @classmethod
    def from_dense(cls, values) -> "SparseVector":
        """The nonzero entries of a 1-D array or list, in index order; any other shape is a ValueError."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"from_dense takes a 1-D array, not a {values.ndim}-D one")
        terms = np.flatnonzero(values)
        if len(terms) and not (values.min() >= 0.0 and values.max() < math.inf):  # min() propagates a NaN
            _checked(dict(zip(terms.tolist(), values[terms].tolist())))  # raises, naming the first bad entry
        return cls._of(terms, values[terms])

    @classmethod
    def from_columns(
        cls, texts: Sequence[TokenizedText], rows: np.ndarray, terms: np.ndarray, weights: np.ndarray
    ) -> list["SparseVector"]:
        """One vector per text of `texts` from the row and term id columns of `term_counts(texts)` and a
        weights column: zeros are dropped and the rest checked at once, a bad one being a ValueError
        naming its text.  Each vector's columns are slices of the batch's."""
        kept = np.flatnonzero(weights)
        if len(kept) < len(weights):
            rows, terms, weights = rows[kept], terms[kept], weights[kept]
        if len(weights) and not (weights.min() > 0.0 and weights.max() < math.inf):
            bad = int(np.argmin((weights > 0.0) & (weights < math.inf)))  # the first entry that fails
            raise ValueError(f"text {texts[rows[bad]].doc_id!r}: {_weight_problem(terms[bad], float(weights[bad]))}")
        ends = np.cumsum(np.bincount(rows, minlength=len(texts))).tolist()
        return [cls._of(terms[start:end], weights[start:end]) for start, end in zip([0, *ends], ends)]


def _checked(entries: Mapping) -> dict:
    """`entries` without zero weights if each id is an int in [0, 2**63) and each weight an int or float, finite
    as a float64 and >= 0 (numpy's too, never a bool); else a ValueError naming the first that is not, in term
    order."""
    for t in entries:
        if type(t) is bool or not isinstance(t, (int, np.integer)):
            raise ValueError(f"term id {t!r} is not an int")
    for t, w in sorted(entries.items()):  # ids are distinct: no two weights are compared
        if not 0 <= t < 2**63:
            raise ValueError(f"term id {t} is outside [0, 2**63)")
        if type(w) is bool or not isinstance(w, (int, float, np.integer, np.floating)) or not _finite_float(w):
            raise ValueError(_weight_problem(t, w))
    return {t: w for t, w in entries.items() if w != 0}


def _finite_float(w) -> bool:
    """Whether number `w` is >= 0 and finite as a float64: an int beyond the float range is not."""
    try:
        return 0.0 <= float(w) < math.inf
    except OverflowError:
        return False


def _weight_problem(term, weight) -> str:
    return f"term {term} has weight {weight!r}, not a finite number > 0"


def vector_columns(
    vectors: Iterable[tuple[str, SparseVector]],
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """(ids, nnz per vector, term ids, weights) of `vectors`, their columns one after another."""
    vectors = list(vectors)
    lengths = np.fromiter((v.nnz for _, v in vectors), np.int64, len(vectors))
    terms = np.concatenate([np.empty(0, np.int64), *(v.terms for _, v in vectors)])  # a batch may be empty
    return [vid for vid, _ in vectors], lengths, terms, np.concatenate([np.empty(0), *(v.weights for _, v in vectors)])


def term_counts(texts: Sequence[TokenizedText]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(token count per text, then per distinct (text, term) pair: its text's row, its term id and
    its count) of `texts`, the pairs ascending by row and then by term id, all int64.

    Every token is keyed `row * size + term id`, size one past the batch's largest id, and one
    `np.unique(..., return_counts=True)` counts the keys.  A term id that is negative, or so large
    that a key leaves int64, is a ValueError naming its text.
    """
    token_ids = [t.token_ids for t in texts]
    lengths = np.fromiter(map(len, token_ids), np.int64, len(token_ids))
    total = int(lengths.sum())
    limit = np.iinfo(np.int64).max // max(len(texts), 1)  # every id below it keys into int64
    try:
        ids = np.fromiter(itertools.chain.from_iterable(token_ids), np.int64, total)
    except OverflowError:  # an id beyond int64
        raise _term_id_out_of_range(texts, limit) from None
    size = int(ids.max()) + 1 if total else 1
    if total and (ids.min() < 0 or size > limit):
        raise _term_id_out_of_range(texts, limit)
    keys, tf = np.unique(np.repeat(np.arange(len(texts), dtype=np.int64) * size, lengths) + ids, return_counts=True)
    rows = keys // size
    return lengths, rows, keys - rows * size, tf


def _term_id_out_of_range(texts: Sequence[TokenizedText], limit: int) -> ValueError:
    """The error naming the first text of `texts` with a term id outside [0, limit)."""
    text, t = next((text, t) for text in texts for t in text.token_ids if not 0 <= t < limit)
    return ValueError(f"text {text.doc_id!r}: term id {t} is outside [0, {limit})")


@dataclass(frozen=True)
class CorpusStats:
    """Document frequencies and length statistics over a tokenized corpus."""

    num_docs: int
    doc_freq: Mapping[int, int]
    avg_doc_len: float
    degenerate: bool  # num_docs == 0 or avg_doc_len == 0: BM25 doc weights undefined


def compute_corpus_stats(docs: Sequence[TokenizedText]) -> CorpusStats:
    """Presence-based document frequencies, keyed in ascending term-id order, and the mean
    document length, from the (doc, term) pairs of `term_counts`."""
    lengths, _, terms, _ = term_counts(docs)
    n = len(docs)
    avgdl = int(lengths.sum()) / n if n else 0.0  # a Python int over n: the bits of sum(map(len, docs)) / n
    if len(terms) and terms.max() >= len(terms):  # sparse ids: no table as long as the largest id
        present, df = np.unique(terms, return_counts=True)
    else:
        df = np.bincount(terms)
        present = np.flatnonzero(df)
        df = df[present]
    return CorpusStats(
        num_docs=n,
        doc_freq=dict(zip(present.tolist(), df.tolist())),
        avg_doc_len=avgdl,
        degenerate=(n == 0 or avgdl == 0.0),
    )


@contextlib.contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """`path` opened to read as UTF-8; bytes that are not UTF-8 are a ValueError naming `path:line`.

    Text mode decodes in chunks, so a reader's line count is off when decoding
    fails: the failing line is found by reading the file once more, which only
    a bad file pays.
    """
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise _not_utf8(path) from e


def _not_utf8(path: str | Path) -> ValueError:
    """The error naming the first line of `path` that is not UTF-8, lines counted as text mode counts them."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line.encode("utf-8")  # an undecodable byte was read as a lone surrogate, which fails here
            except UnicodeEncodeError:
                return ValueError(f"{path}:{lineno}: not UTF-8")
    return ValueError(f"{path}: not UTF-8")  # the file changed after the failed read


@contextlib.contextmanager
def numbered_lines(path: str | Path) -> Iterator[Iterator[tuple[int, str]]]:
    """(line number, line), newline kept, of each line of the UTF-8 file `path` that is not blank
    (empty or only whitespace); blank lines are counted.  A ValueError raised in the block is
    re-raised naming the line read last, `path:line: ...`, except a byte that is not UTF-8."""
    lineno = 0

    def nonblank(f):
        nonlocal lineno
        for lineno, line in enumerate(f, start=1):
            if not line.isspace():
                yield lineno, line

    with open_text(path) as f:
        try:
            yield nonblank(f)
        except UnicodeDecodeError:
            raise
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from e


#: Lines `write_lines` joins and writes at a time, so that it holds one slice's text, not the file's.
#: On a 2-vCPU VM, 50,000 lines of 330 characters (16.6 MB) were written in 25 ms with a peak of
#: 0.2 MB under tracemalloc, against 51 ms and 33.3 MB for one join of the whole file (64 to 512
#: lines a slice took 24-34 ms); 2,000 lines of 5 KB took 24 ms and 2.6 MB, against 17 ms and 20 MB.
WRITE_SLICE = 256


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Replace the file `path` by `lines`, each ended by "\n", in UTF-8, through a new file in its
    directory renamed over it: a line that raises or a write that fails (a full disk) leaves
    the file at `path` as it was, and no new file."""
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    f = open(tmp, "x", encoding="utf-8", newline="\n")  # the umask's mode, as a plain open gives
    try:
        with f:
            lines = iter(lines)
            while chunk := list(itertools.islice(lines, WRITE_SLICE)):
                chunk.append("")  # ends the slice's last line
                f.write("\n".join(chunk))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_vocabulary(path: str | Path) -> Vocabulary:
    """Vocabulary file: one term per line; the term on line n has id n - 1.

    A blank line, a term containing whitespace (it could never match a
    whitespace-split token) or a repeated term is a ValueError naming path:line.
    """
    with open_text(path) as f:
        terms = [line.rstrip("\n") for line in f]
    term_to_id: dict[str, int] = {}
    for i, term in enumerate(terms):
        if term.split() != [term]:
            problem = f"vocabulary term {term!r} contains whitespace" if term.strip() else "blank line in vocabulary"
            raise ValueError(f"{path}:{i + 1}: {problem}")
        if term in term_to_id:
            raise ValueError(f"{path}:{i + 1}: duplicate vocabulary term {term!r} (first on line {term_to_id[term] + 1})")
        term_to_id[term] = i
    return Vocabulary(terms=tuple(terms), term_to_id=term_to_id)


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    write_lines(path, vocab.terms)


def parse_collection(
    lines: Iterable[tuple[int, str]], term_to_id: Mapping[str, int]
) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(doc_id, token ids) of each of one collection file's `numbered_lines`, under the collection
    line rule: `doc_id<TAB>token token token`, each doc_id once, nonempty and with no whitespace,
    every token in `term_to_id`.  A line that breaks it is a ValueError."""
    first_line: dict[str, int] = {}
    for lineno, line in lines:
        doc_id, tab, body = line.partition("\t")
        if not tab:
            raise ValueError("missing tab separator")
        if doc_id.split() != [doc_id]:
            raise ValueError(f"id {doc_id!r} is empty or contains whitespace")
        if first_line.setdefault(doc_id, lineno) != lineno:
            raise ValueError(f"repeated id {doc_id!r} (first on line {first_line[doc_id]})")
        try:
            token_ids = tuple(map(term_to_id.__getitem__, body.split()))
        except KeyError as e:
            raise ValueError(f"unknown token {e.args[0]!r}") from e
        yield doc_id, token_ids


def read_collection(path: str | Path, vocab: Vocabulary) -> Iterator[TokenizedText]:
    """Collection file: the texts `parse_collection` reads from its lines, one by one."""
    with numbered_lines(path) as lines:
        yield from itertools.starmap(TokenizedText, parse_collection(lines, vocab.term_to_id))


def write_collection(docs: Iterable[TokenizedText], vocab: Vocabulary, path: str | Path) -> None:
    write_lines(path, (f"{doc.doc_id}\t{' '.join(vocab.terms[t] for t in doc.token_ids)}" for doc in docs))


class _RepeatedKeyError(ValueError):
    """A JSON object that gives one key twice, which `json.loads` would read as its last value."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict, for `json.loads`' object_pairs_hook."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise _RepeatedKeyError(f"repeated key {key!r} in a JSON object")
    return obj


def parse_json(text: str, path: str | Path | None = None):
    """`json.loads(text)` of the file `path`, or of a line that `numbered_lines` names.  Text that is
    no JSON, JSON nested deeper than the parser can recurse (a RecursionError) or an object that
    gives a key twice is a ValueError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:
        if isinstance(e, RecursionError):
            problem = "JSON nested too deeply to parse"
        elif isinstance(e, _RepeatedKeyError):
            problem = str(e)
        else:
            problem = f"not JSON ({e})"
        raise ValueError(problem if path is None else f"{path}: {problem}") from e


def read_json(path: str | Path):
    """The JSON document in the UTF-8 file `path`, read by `parse_json`."""
    with open_text(path) as f:
        return parse_json(f.read(), path)


def json_object(value, what: str) -> dict:
    """`value` if it is a JSON object (a record or a nested object a reader reads), else a ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def json_list(value, what: str) -> list:
    """`value` if it is a JSON list, else a ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, not {type(value).__name__}")
    return value


def json_number(value, what: str) -> float:
    """`value` as a float if it is a finite JSON number (an int or a float, never a bool), else a ValueError."""
    try:
        number = float(value) if type(value) in (int, float) else None
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if number is None or not math.isfinite(number):
        problem = type(value).__name__ if number is None else number
        raise ValueError(f"{what} must be a finite JSON number, not {problem}")
    return number
