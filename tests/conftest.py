from pathlib import Path

import numpy as np
import pytest

from lsrkit.config import MethodConfig, PathsConfig, SideConfig, SupervisionConfig
from lsrkit.core import SparseVector, TokenizedText
from lsrkit.encoders import EmbeddingBundle, EncoderKind, HeadParameters, stack_forward
from lsrkit.regularization import RegularizerConfig


def make_bundle(ctx, input_emb, cls=None):
    """EmbeddingBundle from plain nested lists."""
    ctx = np.asarray(ctx, dtype=np.float64)
    input_emb = np.asarray(input_emb, dtype=np.float64)
    if ctx.size == 0:
        ctx = ctx.reshape(0, input_emb.shape[1])
    d = input_emb.shape[1]
    cls = np.zeros(d) if cls is None else np.asarray(cls, dtype=np.float64)
    return EmbeddingBundle(ctx_embeddings=ctx, cls_embedding=cls, input_embeddings=input_emb)


def make_heads(
    vocab_size,
    dim,
    mlp_weight=None,
    mlp_bias=0.0,
    mlm_bias=None,
    activation="relu",
    mlp_log_normalize=True,
    use_quality_heads=False,
):
    return HeadParameters(
        mlp_weight=np.ones(dim) if mlp_weight is None else np.asarray(mlp_weight, dtype=np.float64),
        mlp_bias=mlp_bias,
        mlm_bias=np.zeros(vocab_size) if mlm_bias is None else np.asarray(mlm_bias, dtype=np.float64),
        quality_weight=np.zeros(dim),
        quality_bias=0.0,
        importance_weight=np.zeros(dim),
        importance_bias=0.0,
        activation=activation,
        mlp_log_normalize=mlp_log_normalize,
        use_quality_heads=use_quality_heads,
    )


def one_text_stack(kind, text, emb, heads):
    """(1 x |V| weights, cache) of `text` alone through `stack_forward`: the per-text side that
    N-text stacks are checked against."""
    return stack_forward(EncoderKind(kind), [text], [emb], heads)(heads)


def to_dense(vec: SparseVector, size: int) -> list[float]:
    """`vec` as a dense list of `size` floats, 0.0 off its terms."""
    dense = np.zeros(size)
    dense[vec.terms] = vec.weights
    return dense.tolist()


def encode_one(kind, text, emb, heads) -> SparseVector:
    """`text`'s sparse vector under a neural head, from its one-text stack."""
    return SparseVector.from_dense(one_text_stack(kind, text, emb, heads)[0][0])


def heads_bytes(heads: HeadParameters) -> dict:
    """Every field of `heads`: the bytes of the arrays, the other values as they are."""
    return {name: value.tobytes() if isinstance(value, np.ndarray) else value for name, value in vars(heads).items()}


def method_config(query, doc, *, shared_heads=False, reg=RegularizerConfig(), loss="contrastive", steps=100, lr=0.5):
    """A MethodConfig to train with: the encoder kinds, one regularizer on both sides and the supervision recipe.

    Its paths name no real files; `paths.triples` is "triples.jsonl", for errors to name, and
    `paths.expansions` is set, so either side may be exp_mlp.
    """
    return MethodConfig(
        name="test",
        query=SideConfig(EncoderKind(query), regularizer=reg),
        doc=SideConfig(EncoderKind(doc), regularizer=reg),
        paths=PathsConfig(Path("vocab.txt"), Path("collection.tsv"), Path("queries.tsv"), triples=Path("triples.jsonl"),
                          expansions=Path("expansions.tsv")),
        shared_heads=shared_heads,
        supervision=SupervisionConfig(loss, steps, lr),
    )


def text(doc_id, *ids):
    return TokenizedText(doc_id=doc_id, token_ids=tuple(ids))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


#: one line per acceptance criterion, echoed after the test summary
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
