"""Sparse encoders: binary, MLP, expansion-MLP, MLM, CLS-MLM, and the BM25 pair.

The binary and BM25 query encoders map one TokenizedText to a SparseVector;
the BM25 doc encoder maps a batch of texts to one vector each.  The neural
heads (MLP, expansion-MLP, MLM, CLS-MLM) map N texts and their one backbone
batch, an `Embeddings`, to dense N x |V| weights, with the gradient
`head_backward`: `stack_forward` is the one place that checks a batch and
picks a head kind's kernel (`mlp_forward` over a `token_stack`,
`frozen_forward` over `frozen_input` rows, or `argmax_forward`), for encoding
and for training alike.  Every kernel reads a text's rows as slices of the
batch and gives each text the bits it gets in a one-text stack.
Query-document similarity is the dot product of the two encoded vectors.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import itertools
import json
import math
import struct
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Container, Mapping

import numpy as np

from .core import (
    CorpusStats,
    SparseVector,
    TokenizedText,
    json_list,
    json_number,
    json_object,
    numbered_lines,
    parse_collection,
    read_json,
    term_counts,
    write_lines,
)


class EncoderKind(str, enum.Enum):
    BINARY = "binary"
    MLP = "mlp"
    EXP_MLP = "exp_mlp"
    MLM = "mlm"
    CLS_MLM = "cls_mlm"
    BM25_QUERY = "bm25_query"
    BM25_DOC = "bm25_doc"


#: Encoders whose output support is confined to the (expanded) input terms.
NON_EXPANDING = frozenset({EncoderKind.BINARY, EncoderKind.MLP, EncoderKind.EXP_MLP})
#: Encoders with trainable head parameters.
DIFFERENTIABLE = frozenset({EncoderKind.MLP, EncoderKind.EXP_MLP, EncoderKind.MLM, EncoderKind.CLS_MLM})


@dataclass(frozen=True)
class Embeddings:
    """Frozen backbone outputs of a batch of N texts, consumed by the neural heads.

    ctx: T x d contextualized token embeddings, the texts' tokens one after another.
    cls: N x d, each text's sequence-level slot.
    table: |V| x d vocabulary input embeddings.
    """

    ctx: np.ndarray
    cls: np.ndarray
    table: np.ndarray


ACTIVATIONS = ("relu", "softplus")


@dataclass
class HeadParameters:
    """Parameters of the linear scoring heads on top of frozen embeddings."""

    mlp_weight: np.ndarray  # (d,)
    mlp_bias: float
    mlm_bias: np.ndarray  # (|V|,)
    quality_weight: np.ndarray  # (d,), sequence-quality head input
    quality_bias: float
    importance_weight: np.ndarray  # (d,), per-token importance head input
    importance_bias: float
    activation: str = "relu"  # one of ACTIVATIONS
    mlp_log_normalize: bool = True
    use_quality_heads: bool = False

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    def copy(self) -> "HeadParameters":
        return replace(
            self,
            mlp_weight=self.mlp_weight.copy(),
            mlm_bias=self.mlm_bias.copy(),
            quality_weight=self.quality_weight.copy(),
            importance_weight=self.importance_weight.copy(),
        )


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self):
        if not 0 <= self.k1 < math.inf:  # false for NaN
            raise ValueError(f"k1 must be finite and >= 0, got {self.k1}")
        if not 0 <= self.b <= 1:
            raise ValueError(f"b must be in [0, 1], got {self.b}")


def softplus(x):
    """log(1 + exp(x)) with the numerically stable branch for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def activate(x, kind: str):
    if kind == "relu":
        return np.maximum(np.asarray(x, dtype=np.float64), 0.0)
    return softplus(x)


def activate_grad(x, kind: str):
    """Derivative of the activation; ReLU uses 0 at the kink."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return (x > 0).astype(np.float64)
    return 1.0 / (1.0 + np.exp(-x))  # sigmoid


def encode_binary(text: TokenizedText) -> SparseVector:
    """Presence indicator: weight 1 for each distinct input term."""
    return SparseVector(dict.fromkeys(text.token_ids, 1.0))


def _quality_scores(cls: np.ndarray, ctx: np.ndarray, head: HeadParameters):
    """A text's sequence quality q and per-token importance g from its cls and ctx rows: softplus of linear maps."""
    q = float(softplus(cls @ head.quality_weight + head.quality_bias))
    g = softplus(ctx @ head.importance_weight + head.importance_bias)
    return q, g


def expand_text(text: TokenizedText, expansions: Mapping[str, list[int]]) -> TokenizedText:
    """Append external expansion terms, deduplicated against the original text."""
    if text.doc_id not in expansions:
        return text
    seen = set(text.token_ids)
    extra = []
    for t in expansions[text.doc_id]:
        if t not in seen:
            seen.add(t)
            extra.append(t)
    return TokenizedText(doc_id=text.doc_id, token_ids=text.token_ids + tuple(extra))


# ---------------------------------------------------------------------------
# Stacked dense heads, shared by encoding and training
# ---------------------------------------------------------------------------


def frozen_input(kind: EncoderKind, emb: Embeddings, offsets: list[int], head: HeadParameters) -> np.ndarray | None:
    """The N x |V| rows of a batch's dense head that no trainable parameter reaches, or None if there are none;
    text i's ctx rows are offsets[i]:offsets[i + 1].

    CLS-MLM: the bias-free logits h_0 . e_i.  ReLU MLM without quality heads:
    the column max of a text's bias-free logits, max_j h_j . e_i (-inf for an
    empty text).  Adding b_i rounds monotonically and ReLU is monotone, so
    max_j relu(h_j . e_i + b_i) is relu(max_j h_j . e_i + b_i) bit for bit.  MLP
    heads, and MLM with softplus or quality heads, have no such rows: their
    weight, or their per-token arg-max, moves with the parameters.  Products
    are taken text by text: a BLAS product's bits per row depend on its row count.
    """
    if kind is EncoderKind.CLS_MLM:
        return np.array([cls @ emb.table.T for cls in emb.cls])
    if kind is EncoderKind.MLM and head.activation == "relu" and not head.use_quality_heads:
        return np.array([(emb.ctx[start:end] @ emb.table.T).max(axis=0, initial=-np.inf)
                         for start, end in itertools.pairwise(offsets)])
    return None


def frozen_forward(kind: EncoderKind, x: np.ndarray, head: HeadParameters) -> tuple[np.ndarray, dict]:
    """Weights and `head_backward` cache from an N x |V| stack of `frozen_input` rows.

    CLS-MLM: w_i = act(h_0 . e_i + b_i), no log and no max.  ReLU MLM:
    w_i = log(1 + relu(max_j h_j . e_i + b_i)).  Elementwise, so each row gets
    the bits it gets alone.
    """
    z = x + head.mlm_bias
    if kind is EncoderKind.CLS_MLM:
        return activate(z, head.activation), {"kind": kind, "head": head, "z": z}
    m = activate(z, "relu")
    return np.log1p(m), {"kind": kind, "head": head, "m": m, "zstar": z, "gstar": 1.0, "q": 1.0}


#: the per-token heads, whose weights `mlp_forward` computes over a token stack
MLP_HEADS = frozenset({EncoderKind.MLP, EncoderKind.EXP_MLP})


def token_stack(texts: list[TokenizedText], emb: Embeddings, offsets: list[int]) -> dict:
    """The input of `mlp_forward` for N texts: the batch's ctx rows as they are (T x d), each token's slot
    `row * |V| + term id` in the N x |V| weights, and each non-empty text's start offset."""
    n, vocab_size = len(texts), emb.table.shape[0]
    ids = np.fromiter(itertools.chain.from_iterable(t.token_ids for t in texts), np.intp, offsets[-1])
    return {
        "ctx": emb.ctx,
        "slots": np.repeat(np.arange(0, n * vocab_size, vocab_size), np.diff(offsets)) + ids,
        "starts": [start for start, end in itertools.pairwise(offsets) if end > start],
        "shape": (n, vocab_size),
    }


def mlp_forward(stack: dict, head: HeadParameters) -> tuple[np.ndarray, dict | None]:
    """MLP/expansion-MLP weights of a `token_stack`, an array of the stack's `shape`, and the `head_backward` cache.

    A term's weight sums its occurrences' log(1 + act(h_j . W + b)), or without
    log normalization (the uniCOIL-style variant) act(h_j . W + b), so the
    support is the input terms.  Batch-invariant: each text's row has the bits
    it has in a one-text stack.  The logits are one einsum, whose bits per
    token, unlike those of a BLAS GEMV (`ctx @ w`), do not depend on the
    number of rows; the activations are added in token order, so repeated
    terms sum as in a loop.  The cache is None for a stack without tokens.
    """
    w = np.zeros(stack["shape"])
    if not len(stack["ctx"]):
        return w, None
    z = np.einsum("ij,j->i", stack["ctx"], head.mlp_weight) + head.mlp_bias
    a = activate(z, head.activation)
    np.add.at(w.reshape(-1), stack["slots"], np.log1p(a) if head.mlp_log_normalize else a)
    return w, {"kind": EncoderKind.MLP, "head": head, "z": z, "a": a, **stack}


def argmax_forward(emb: Embeddings, offsets: list[int], head: HeadParameters) -> tuple[np.ndarray, dict]:
    """MLM weights of N texts by the first-max arg-max over each text's tokens, an N x |V| array, and the
    `head_backward` cache: the MLM head with softplus or quality heads, which has no `frozen_input`.

    Text by text, on its slice of the batch, with no padded N x L x |V| stack: column i's first max m_i of
    the activated logits, times each token's importance g under quality heads, gives w_i = q * log(1 + m_i).
    The cache holds per row m, its logit zstar, its token's g (gstar) and q.  An empty text's row is zero
    with gstar 0, so it passes no gradient.
    """
    n, vocab_size = len(offsets) - 1, emb.table.shape[0]
    w, m, zstar, gstar = (np.zeros((n, vocab_size)) for _ in range(4))
    q, cols = np.ones((n, 1)), np.arange(vocab_size)
    for i, (start, end) in enumerate(itertools.pairwise(offsets)):
        if end == start:
            continue
        ctx = emb.ctx[start:end]
        logits = ctx @ emb.table.T + head.mlm_bias  # L x |V|
        a = activate(logits, head.activation)
        g = np.ones(len(logits))
        if head.use_quality_heads:
            q[i], g = _quality_scores(emb.cls[i], ctx, head)
            a = a * g[:, None]
        jstar = a.argmax(axis=0)  # first max wins ties
        m[i], zstar[i], gstar[i] = a[jstar, cols], logits[jstar, cols], g[jstar]
        w[i] = q[i] * np.log1p(m[i])
    return w, {"kind": EncoderKind.MLM, "head": head, "m": m, "zstar": zstar, "gstar": gstar, "q": q}


def stack_forward(
    kind: EncoderKind, texts: list[TokenizedText], emb: Embeddings, head: HeadParameters
) -> Callable[[HeadParameters], tuple[np.ndarray, dict | None]]:
    """The dense head of N >= 1 texts as a function of its parameters, heads -> (N x |V| weights, cache).

    The one place that checks a batch, once (its T ctx rows are the texts' tokens, one cls row per text),
    and maps a head kind to its kernel, for encoding and for training: `mlp_forward` over a
    `token_stack`, `frozen_forward` over `frozen_input` rows, or `argmax_forward`.  Inputs that no
    trainable parameter reaches are computed here, once; `head` fixes only the options that do not
    train.  Each row has the bits of the text's one-text stack.
    """
    if kind not in DIFFERENTIABLE:
        raise ValueError(f"encoder kind {kind.value!r} has no dense head")
    offsets = list(itertools.accumulate(map(len, texts), initial=0))  # text i's ctx rows: offsets[i]:offsets[i + 1]
    if emb.ctx.shape[0] != offsets[-1] or emb.cls.shape[0] != len(texts):
        raise ValueError(f"embeddings of {emb.ctx.shape[0]} tokens and {emb.cls.shape[0]} texts do not match "
                         f"{offsets[-1]} tokens in {len(texts)} texts")
    if kind in MLP_HEADS:
        return functools.partial(mlp_forward, token_stack(texts, emb, offsets))
    x = frozen_input(kind, emb, offsets, head)
    if x is not None:
        return functools.partial(frozen_forward, kind, x)
    return functools.partial(argmax_forward, emb, offsets)


def head_backward(cache: dict | None, grad_w: np.ndarray, grads: dict) -> None:
    """Accumulate head-parameter gradients given dLoss/dWeights, `grad_w`, for the N x |V| weights of a
    `stack_forward` kernel.

    Chain rule through log/softplus/ReLU/max.  MLM's max routes its gradient to
    the column's max logit zstar: in the max form of `frozen_input`, that is the
    column max itself, with g = q = 1; otherwise it is the first-max arg-max
    position's logit, times that token's importance g and the sequence quality q.
    MLP heads sum each text's token gradients with `np.add.reduceat`, whose bits
    depend only on that text's tokens.  A stack's per-text rows are added one
    after another, in row order, as a loop over its texts would add them.
    `grads` holds "mlp_weight", "mlp_bias" and "mlm_bias", as zeros before the
    first text.
    """
    if cache is None:
        return
    kind, head = cache["kind"], cache["head"]
    if kind is EncoderKind.CLS_MLM:
        rows = grad_w * activate_grad(cache["z"], head.activation)
    elif kind is EncoderKind.MLM:
        fprime = activate_grad(cache["zstar"], head.activation)
        rows = grad_w * cache["q"] * cache["gstar"] * fprime / (1.0 + cache["m"])
    else:
        fprime = activate_grad(cache["z"], head.activation)
        if head.mlp_log_normalize:
            fprime = fprime / (1.0 + cache["a"])
        gz = grad_w.reshape(-1)[cache["slots"]] * fprime
        _add_rows(np.add.reduceat(cache["ctx"] * gz[:, None], cache["starts"], axis=0), grads["mlp_weight"])
        for s in np.add.reduceat(gz, cache["starts"]).tolist():
            grads["mlp_bias"] += s
        return
    _add_rows(rows, grads["mlm_bias"])


def _add_rows(rows: np.ndarray, total: np.ndarray) -> None:
    """total += rows[0] + rows[1] + ..., in place and row after row: ((total + row_0) + row_1) + ...

    numpy sums pairwise only along the fast axis, so this is a loop's order when rows are 2 or more wide.
    """
    rows[0] += total
    np.add.reduce(rows, axis=0, out=total)


def idf(term_id: int, stats: CorpusStats) -> float:
    """Robertson-Sparck-Jones IDF with +1 inside the log (non-negative for all df)."""
    df = stats.doc_freq.get(term_id, 0)
    return math.log(1.0 + (stats.num_docs - df + 0.5) / (df + 0.5))


def encode_bm25_query(text: TokenizedText, stats: CorpusStats) -> SparseVector:
    return SparseVector({t: idf(t, stats) for t in set(text.token_ids)})


def encode_bm25_doc(
    texts: list[TokenizedText], stats: CorpusStats, params: Bm25Params = Bm25Params()
) -> list[SparseVector]:
    """Saturated term frequency with document-length normalization, one vector per text.

    One pass over the batch's (doc, term, tf) columns from `core.term_counts`,
    handed to `SparseVector.from_columns`.  A weight is tf * (k1 + 1) / (tf + norm),
    norm = k1 * (1 - b + b * length / avg_doc_len): the IEEE operations, in
    order, of the per-text formula, so each weight has the bits it has alone.
    A k1 so large that norm overflows to inf weighs a term 0.0, which is
    dropped.  An empty text gives an empty vector; a non-empty one on
    degenerate stats is a ValueError, and so is a term id that `term_counts`
    rejects (a negative one) or a weight that is not finite (k1 near the
    float limit), naming its text.
    """
    lengths, rows, terms, tf = term_counts(texts)
    if stats.degenerate and len(terms):
        raise ValueError("degenerate corpus stats: avg_doc_len undefined")
    with np.errstate(over="ignore", invalid="ignore"):  # Python floats overflow to inf silently too
        norm = params.k1 * (1.0 - params.b + params.b * lengths / stats.avg_doc_len)
        weights = tf * (params.k1 + 1.0) / (tf + norm[rows])
    return SparseVector.from_columns(texts, rows, terms, weights)


# ---------------------------------------------------------------------------
# Deterministic toy backbone (test-scale stand-in for a transformer encoder)
# ---------------------------------------------------------------------------


_KEY_WORDS = struct.Struct("<2Q")


def _hash_key(parts: tuple) -> tuple[int, int]:
    """The 128-bit Philox key of `parts`: a blake2b digest of their repr, as two little-endian words."""
    return _KEY_WORDS.unpack(hashlib.blake2b(repr(parts).encode(), digest_size=16).digest())


#: one Philox bit generator and its Generator per thread, built on first use by `_hashed_normals`
_PHILOX = threading.local()


def _hashed_normals(rows: list[tuple], dim: int) -> np.ndarray:
    """len(rows) x dim standard normals; row r is the first `dim` draws of a new Philox generator keyed
    by `_hash_key(rows[r])`.

    Philox's key and counter are its whole state (Salmon et al., SC 2011), so
    the thread's one generator, re-keyed before each row with the counter at 0
    and the buffers empty, draws the bits of a new generator per row at a
    fraction of its cost.  Each row sets the whole state, so no row and no
    call depends on another, and threads share no generator.
    """
    pair = getattr(_PHILOX, "pair", None)
    if pair is None:
        bit_generator = np.random.Philox(key=0)
        pair = _PHILOX.pair = (bit_generator, np.random.Generator(bit_generator))
    bit_generator, gen = pair
    # one state record, re-keyed per row; Python ints and tuples, which the setter reads faster than numpy's
    key_state = {"counter": (0, 0, 0, 0), "key": None}
    state = {"bit_generator": "Philox", "state": key_state, "buffer": (0, 0, 0, 0), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(rows), dim))
    for row, parts in zip(out, rows):
        key_state["key"] = _hash_key(parts)
        bit_generator.state = state
        gen.standard_normal(out=row)
    return out


def backbone_table(vocab_size: int, dim: int, seed: int) -> np.ndarray:
    """The toy backbone's |V| x d input-embedding table, read-only: e_i depends on (i, seed).

    Row i is hashed normals of ("emb", seed, i) over sqrt(d).  Building it
    dominates `toy_backbone`, so callers that embed many texts build it once
    and pass it in.
    """
    table = _hashed_normals([("emb", seed, i) for i in range(vocab_size)], dim) / math.sqrt(dim)
    table.flags.writeable = False
    return table


def toy_backbone(texts: list[TokenizedText], table: np.ndarray, seed: int) -> Embeddings:
    """Deterministic, context-sensitive embeddings of a batch of texts, in one `Embeddings`.

    h_j depends on (previous token, token, next token, position parity, seed),
    so the same token gets different embeddings in different contexts.  Half of
    h_j's variance comes from the token's own input embedding e_{t_j}, mimicking
    a real backbone where h_j . e_i is largest for the input term itself:
    h_j = (e_{t_j} + n_j / sqrt(d)) / sqrt(2), where n_j is hashed normals of
    that context.  The batch's context rows are drawn by one `_hashed_normals`
    call and combined by one gather and one elementwise pass, with the bits each
    text gets in a batch of one.  e_i is row i of `table`, which must be
    `backbone_table(|V|, d, seed)`; |V| and d are its shape.  A text's h_0 is
    the mean of its h_j (zero for an empty text).
    """
    dim = table.shape[1]
    contexts = [("ctx", seed, ids[j - 1] if j > 0 else -1, t, ids[j + 1] if j + 1 < len(ids) else -1, j % 2)
                for ids in (text.token_ids for text in texts) for j, t in enumerate(ids)]
    noise = _hashed_normals(contexts, dim)
    token_ids = np.fromiter(itertools.chain.from_iterable(text.token_ids for text in texts), np.intp, len(contexts))
    ctx = (table[token_ids] + noise / math.sqrt(dim)) / math.sqrt(2.0)
    cls = [ctx[start:end].mean(axis=0) if end > start else np.zeros(dim)
           for start, end in itertools.pairwise(itertools.accumulate(map(len, texts), initial=0))]
    return Embeddings(ctx=ctx, cls=np.array(cls).reshape(len(texts), dim), table=table)


def init_head_parameters(
    vocab_size: int,
    dim: int,
    seed: int,
    activation: str = "relu",
    mlp_log_normalize: bool = True,
    use_quality_heads: bool = False,
) -> HeadParameters:
    """Seeded head initialization; scales chosen so roughly half the logits activate."""
    draws = _hashed_normals([("heads", seed, vocab_size, dim)], 3 * dim)[0]  # one keyed generator's draws, in turn
    mlp_weight, quality_weight, importance_weight = draws.reshape(3, dim)
    return HeadParameters(
        mlp_weight=mlp_weight,
        mlp_bias=0.0,
        mlm_bias=np.zeros(vocab_size),
        quality_weight=quality_weight,
        quality_bias=0.0,
        importance_weight=importance_weight,
        importance_bias=0.0,
        activation=activation,
        mlp_log_normalize=mlp_log_normalize,
        use_quality_heads=use_quality_heads,
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


#: the tensors of a head-parameter file, in file order, with their number of axes
HEAD_TENSORS = {"mlp_weight": 1, "mlp_bias": 0, "mlm_bias": 1, "quality_weight": 1, "quality_bias": 0,
                "importance_weight": 1, "importance_bias": 0}


def head_record(head: HeadParameters) -> str:
    """The one line of a heads file: a JSON record of named tensors with declared shapes, and the options.

    A tensor holding a value that is not finite, which no JSON number holds, is a ValueError naming it.
    """
    tensors = {}
    for name in HEAD_TENSORS:
        value = np.asarray(getattr(head, name))
        if not np.isfinite(value).all():
            raise ValueError(f"tensor {name} holds {value[~np.isfinite(value)].flat[0]}, not a finite number")
        tensors[name] = {"shape": list(value.shape), "data": value.tolist()}
    return json.dumps({"tensors": tensors, "activation": head.activation,
                       "mlp_log_normalize": head.mlp_log_normalize, "use_quality_heads": head.use_quality_heads})


def write_head_parameters(head: HeadParameters, path: str | Path) -> None:
    """Heads file: the `head_record` line, written by `core.write_lines`."""
    write_lines(path, [head_record(head)])


def read_head_parameters(path: str | Path) -> HeadParameters:
    """Heads from a `write_head_parameters` file: tensors of finite JSON numbers in their declared
    shapes of JSON integers, and typed options.

    Anything else is a ValueError naming the file; `pipeline.side_heads` checks the fit to a config.
    """
    record = read_json(path)
    try:
        record = json_object(record, "heads file")
        tensors = json_object(record["tensors"], "tensors")
        values = {}
        for name, ndim in HEAD_TENSORS.items():
            t = json_object(tensors[name], name)
            shape = json_list(t["shape"], f"tensor {name} shape")
            if len(shape) != ndim or any(type(n) is not int for n in shape):
                raise ValueError(f"tensor {name} shape must list {ndim} JSON integers, not {shape}")
            what = f"tensor {name} data"
            if ndim:
                values[name] = np.array([json_number(x, what) for x in json_list(t["data"], what)])
            else:
                values[name] = json_number(t["data"], what)
            if list(np.shape(values[name])) != shape:
                raise ValueError(f"tensor {name} has shape {list(np.shape(values[name]))}, declared {shape}")
        for flag in ("mlp_log_normalize", "use_quality_heads"):
            if not isinstance(record[flag], bool):
                raise ValueError(f"{flag} must be true or false")
        heads = HeadParameters(
            **values,
            activation=record["activation"],
            mlp_log_normalize=record["mlp_log_normalize"],
            use_quality_heads=record["use_quality_heads"],
        )
    except KeyError as e:
        raise ValueError(f"{path}: bad heads file (missing {e})") from e
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad heads file ({e})") from e
    return heads


def read_expansion_file(
    path: str | Path, term_to_id: Mapping[str, int], text_ids: Container[str]
) -> dict[str, list[int]]:
    """Expansion-terms file: a collection file (`core.parse_collection`) of each text's expansion terms.
    An id outside `text_ids` (the docs and queries), which `expand_text` would never use, is a
    ValueError naming path:line, as an unknown term is."""
    out: dict[str, list[int]] = {}
    with numbered_lines(path) as lines:
        for doc_id, token_ids in parse_collection(lines, term_to_id):
            if doc_id not in text_ids:
                raise ValueError(f"id {doc_id!r} names no doc or query")
            out[doc_id] = list(token_ids)
    return out
