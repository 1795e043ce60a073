"""Encode / index / search / eval / train / ablate pipelines behind the CLI."""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Mapping

import numpy as np

from .config import MethodConfig, ValidationError, apply_toggle
from .core import (
    CorpusStats,
    SparseVector,
    TokenizedText,
    Vocabulary,
    compute_corpus_stats,
    json_number,
    json_object,
    numbered_lines,
    parse_json,
    read_collection,
    read_vocabulary,
    vector_columns,
    write_lines,
)
from .encoders import (
    DIFFERENTIABLE,
    NON_EXPANDING,
    EncoderKind,
    HeadParameters,
    backbone_table,
    encode_binary,
    encode_bm25_doc,
    encode_bm25_query,
    expand_text,
    init_head_parameters,
    read_expansion_file,
    read_head_parameters,
    stack_forward,
    toy_backbone,
)
from .evaluation import Qrels, RunFile, check_cutoff, mrr_at_k, ndcg_at_k, read_qrels, read_run, recall_at_k, write_run
from .index import ImpactIndex, build_index, index_search, load_index, save_index
from .regularization import RegularizerKind, topk_prune
from .supervision import TrainResult, read_triples, train_heads


@dataclass
class Resources:
    """Loaded data shared by pipeline stages."""

    vocab: Vocabulary
    docs: list[TokenizedText]
    queries: list[TokenizedText]
    stats: CorpusStats
    expansions: dict[str, list[int]]
    tables: dict[tuple[int, int], np.ndarray] = field(default_factory=dict, repr=False)

    def embedding_table(self, dim: int, seed: int) -> np.ndarray:
        """The backbone's read-only |V| x dim input-embedding table at `seed`, built on first use."""
        key = (dim, seed)
        if key not in self.tables:
            self.tables[key] = backbone_table(self.vocab.size, dim, seed)
        return self.tables[key]


def load_resources(config: MethodConfig) -> Resources:
    vocab = read_vocabulary(config.paths.vocab)
    docs = list(read_collection(config.paths.collection, vocab))
    queries = list(read_collection(config.paths.queries, vocab))
    expansions = (
        read_expansion_file(config.paths.expansions, vocab.term_to_id, {t.doc_id for t in docs + queries})
        if config.paths.expansions
        else {}
    )
    return Resources(
        vocab=vocab,
        docs=docs,
        queries=queries,
        stats=compute_corpus_stats(docs),
        expansions=expansions,
    )


def side_heads(config: MethodConfig, side: str, seed: int, vocab_size: int) -> HeadParameters:
    """Heads from the side's configured file when it names one, otherwise seeded initialization.

    The one head set-up of encoding and training; a named heads file must exist and fit the config side.
    """
    cfg = config.query if side == "query" else config.doc
    path = config.paths.query_heads if side == "query" else config.paths.doc_heads
    if path is not None:
        heads = read_head_parameters(path)
        fits = {
            "mlm_bias length": (heads.mlm_bias.size, vocab_size),
            "d-vector lengths": ({heads.mlp_weight.size, heads.quality_weight.size, heads.importance_weight.size},
                                 {config.backbone_dim}),
            "activation": (heads.activation, cfg.activation),
            "mlp_log_normalize": (heads.mlp_log_normalize, cfg.log_normalize),
            "use_quality_heads": (heads.use_quality_heads, cfg.quality_heads),
        }
        for what, (got, want) in fits.items():
            if got != want:
                raise ValidationError(f"{path}: {what} is {got!r}, the config's {side} side needs {want!r}")
        return heads
    return init_head_parameters(
        vocab_size,
        config.backbone_dim,
        seed if config.shared_heads or side == "query" else seed + 1,
        activation=cfg.activation,
        mlp_log_normalize=cfg.log_normalize,
        use_quality_heads=cfg.quality_heads,
    )


def side_texts(kind: EncoderKind, texts: list[TokenizedText], res: Resources) -> list[TokenizedText]:
    """The texts a side's encoder sees, in encoding and in training: expanded for exp_mlp."""
    if kind is EncoderKind.EXP_MLP:
        return [expand_text(text, res.expansions) for text in texts]
    return texts


#: Texts that `encode_side` embeds and runs through one `stack_forward` at a time: a slice's N x |V|
#: weights are held at once, not the batch's.  On a 2-vCPU VM, encoding 2,000 docs at |V| = 5,000
#: with an MLP head took 0.248-0.252 s for 64 to 512 texts a slice, with a tracemalloc peak of 12.8 MB
#: at 256 (4.3 MB at 64, 24.1 MB at 512), against 0.277 s and 91.2 MB for one stack of the batch; with
#: a ReLU MLM head, 64 texts a slice took 1.87 s and 256 took 1.79 s.
ENCODE_SLICE = 256


def encode_side(
    config: MethodConfig,
    side: str,
    texts: list[TokenizedText],
    res: Resources,
    seed: int,
    heads: HeadParameters | None = None,
) -> list[tuple[str, SparseVector]]:
    """Encode a batch of texts with the configured encoder for one side.

    BM25 doc weights come from one (doc, term, tf) column pass over the whole
    batch; a neural head embeds each slice of ENCODE_SLICE texts in one
    `toy_backbone` call and runs it through one `stack_forward`; binary and
    BM25 query encode one text at a time.  A vector that breaks the
    `core.SparseVector` contract (a head that gives a NaN weight) is a
    ValidationError naming its text.  Applies inference-time top-k pruning
    when the side's regularizer is topk, and audits the support constraint
    for non-expanding encoders.
    """
    cfg = config.query if side == "query" else config.doc
    kind = cfg.encoder
    texts = side_texts(kind, texts, res)
    if kind is EncoderKind.BM25_DOC:
        if res.stats.degenerate and any(map(len, texts)):
            raise ValidationError(f"{config.paths.collection}: every document is empty, so BM25 doc weights "
                                  "are undefined (no average doc length)")
        vectors = iter(encode_bm25_doc(texts, res.stats, config.bm25))
    elif kind is EncoderKind.BM25_QUERY:
        vectors = (encode_bm25_query(text, res.stats) for text in texts)
    elif kind is EncoderKind.BINARY:
        vectors = map(encode_binary, texts)
    else:
        table = res.embedding_table(config.backbone_dim, seed)
        if heads is None:
            heads = side_heads(config, side, seed, res.vocab.size)

        def rows():  # one slice's N x |V| weights at a time
            for start in range(0, len(texts), ENCODE_SLICE):
                part = texts[start:start + ENCODE_SLICE]
                yield from stack_forward(kind, part, toy_backbone(part, table, seed), heads)(heads)[0]

        vectors = map(SparseVector.from_dense, rows())
    out: list[tuple[str, SparseVector]] = []
    for text in texts:
        try:
            vec = next(vectors)
        except ValueError as e:  # the text's vector breaks the SparseVector contract
            raise ValidationError(f"text {text.doc_id!r}: {e}") from e
        if cfg.regularizer.kind is RegularizerKind.TOPK:
            vec = topk_prune(vec, cfg.regularizer.k)
        if kind in NON_EXPANDING and not set(text.token_ids).issuperset(vec.terms.tolist()):
            raise ValidationError(
                f"{config.name}: {kind.value} emitted a term outside the input for {text.doc_id!r}"
            )
        out.append((text.doc_id, vec))
    return out


#: The largest share of distinct weights in a batch that `write_vectors` writes as columns.
#: The column form calls `float.__repr__` once per distinct weight instead of once per weight,
#: but assembles its lines at about a third of a repr's cost per weight more than the C
#: encoder builds its dicts (measured on 250-term MLM doc vectors).  It breaks even at a
#: share of about 0.7; at most half keeps a margin.
COLUMN_MAX_DISTINCT_SHARE = 0.5


def write_vectors(
    vectors: list[tuple[str, SparseVector]], vocab: Vocabulary, path: str | Path
) -> None:
    """Encoded-vector file: one JSON object per line, the bytes of json.dumps({"id": ..., "vector":
    {term: weight, ...}}) with the terms in ascending id order, the order of every vector's entries.

    A batch with few distinct weights (BM25 weights depend only on tf and doc length, binary ones
    are all 1) is written as columns, each distinct weight formatted once; any other batch goes
    through the C encoder record by record."""
    ids, lengths, terms, weights = vector_columns(vectors)
    ordered = np.sort(weights)  # np.unique's values, without the 1.7 MB import of numpy.ma that np.unique makes
    distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    if len(distinct) > COLUMN_MAX_DISTINCT_SHARE * len(weights):
        encode, term = json.JSONEncoder(allow_nan=False).encode, vocab.terms.__getitem__  # json.dumps' output
        lines = [encode({"id": vid, "vector": dict(zip(map(term, vec.terms.tolist()), vec.weights.tolist()))})
                 for vid, vec in vectors]
    else:
        lines = _column_lines(ids, lengths, terms, weights, distinct, vocab)
    del ids, lengths, terms, weights, ordered, distinct  # free the columns before write_lines copies the lines
    write_lines(path, lines)


def _column_lines(
    ids: list[str], lengths: np.ndarray, terms: np.ndarray, weights: np.ndarray, distinct: np.ndarray,
    vocab: Vocabulary,
) -> list[str]:
    """`write_vectors`' lines from its columns: each term the batch uses escaped once as a key,
    each of the sorted `distinct` weights formatted once, and one join per line."""
    ends = np.cumsum(lengths)
    used = np.flatnonzero(np.bincount(terms, minlength=vocab.size)).tolist()
    first, later = np.empty(vocab.size, dtype=object), np.empty(vocab.size, dtype=object)
    first[used] = keys = [encode_basestring_ascii(vocab.terms[t]) + ": " for t in used]
    later[used] = [", " + key for key in keys]
    reprs = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)
    parts = np.empty(2 * len(terms), dtype=object)  # key, weight, key, weight, ...
    parts[0::2] = later[terms]
    parts[1::2] = reprs[np.searchsorted(distinct, weights)]
    starts = (ends - lengths)[lengths > 0]
    parts[2 * starts] = first[terms[starts]]  # a vector's first key has no ", " before it
    parts = parts.tolist()
    ends = (2 * ends).tolist()
    return [f'{{"id": {encode_basestring_ascii(vid)}, "vector": {{{"".join(parts[start:end])}}}}}'
            for vid, start, end in zip(ids, [0, *ends], ends)]


def read_vectors(path: str | Path, vocab: Vocabulary) -> list[tuple[str, SparseVector]]:
    """Records written by `write_vectors`: whitespace-free string ids, each once, and vectors the
    `SparseVector` constructor takes from finite JSON number weights (a negative one is refused)."""
    out = []
    first_line: dict[str, int] = {}
    with numbered_lines(path) as lines:
        for lineno, line in lines:
            rec = parse_json(line)
            try:
                rec = json_object(rec, "record")
                vid, weights = rec["id"], json_object(rec["vector"], "vector")
                if not isinstance(vid, str) or vid.split() != [vid]:
                    raise ValueError(f"id must be a nonempty string with no whitespace, got {json.dumps(vid)}")
                if first_line.setdefault(vid, lineno) != lineno:
                    raise ValueError(f"repeated id {vid!r}, first on line {first_line[vid]}")
                vector = {vocab.term_to_id[t]: json_number(w, "weight") for t, w in weights.items()}
                out.append((vid, SparseVector(vector)))
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"bad vector record ({e})") from e
    return out


def run_encode(config: MethodConfig, side: str, input_path: Path, output_path: Path, seed: int) -> dict:
    res = load_resources(config)
    texts = list(read_collection(input_path, res.vocab))
    vectors = encode_side(config, side, texts, res, seed)
    write_vectors(vectors, res.vocab, output_path)
    nnz = [v.nnz for _, v in vectors]
    return {"count": len(vectors), "mean_nnz": statistics.fmean(nnz) if nnz else 0.0}


def vocab_identity(vocab: Vocabulary) -> dict:
    """Size and sha256 of the terms: what an index records to check its vocab at search."""
    digest = hashlib.sha256("\n".join(vocab.terms).encode("utf-8")).hexdigest()
    return {"size": vocab.size, "sha256": digest}


def run_index(config: MethodConfig, vectors_path: Path, out_dir: Path) -> dict:
    vocab = read_vocabulary(config.paths.vocab)
    vectors = read_vectors(vectors_path, vocab)
    index = build_index(vectors, config.quantization)
    index.vocab_id = vocab_identity(vocab)
    return {
        "num_docs": len(index.doc_table),
        "total_postings": index.total_postings,
        "bytes_on_disk": save_index(index, out_dir),
    }


def run_search(config: MethodConfig, index_dir: Path, query_vectors_path: Path, run_path: Path) -> dict:
    vocab = read_vocabulary(config.paths.vocab)
    index = load_index(index_dir)
    if index.vocab_id != vocab_identity(vocab):
        raise ValidationError(f"index {index_dir} was built with vocab {index.vocab_id}; {config.paths.vocab} differs")
    queries = read_vectors(query_vectors_path, vocab)
    run, total_ops = search_all(index, queries, config.top_k)
    write_run(run, run_path, tag=config.name)
    nnz = [qvec.nnz for _, qvec in queries]
    return {
        "queries": len(queries),
        "ops_count": total_ops,
        "mean_query_nnz": statistics.fmean(nnz) if nnz else 0.0,
        "max_query_nnz": max(nnz, default=0),
    }


def search_all(index: ImpactIndex, queries: list[tuple[str, SparseVector]], k: int) -> tuple[RunFile, int]:
    """Top-k per query in query order (no ranking for a query without hits) and the summed ops_count."""
    rankings: dict[str, list[tuple[str, float]]] = {}
    total_ops = 0
    for qid, qvec in queries:
        ranked, ops = index_search(index, qvec, k)
        total_ops += ops
        if ranked:
            rankings[qid] = ranked
    return RunFile(rankings=rankings), total_ops


def evaluate(run: RunFile, qrels: Qrels, ks: dict[str, int]) -> dict[str, float]:
    """MRR, NDCG and Recall at the cutoffs ks["mrr"], ks["ndcg"] and ks["recall"]."""
    return {
        f"mrr@{ks['mrr']}": mrr_at_k(run, qrels, ks["mrr"]),
        f"ndcg@{ks['ndcg']}": ndcg_at_k(run, qrels, ks["ndcg"]),
        f"recall@{ks['recall']}": recall_at_k(run, qrels, ks["recall"]),
    }


def run_eval(run_path: Path, qrels_path: Path, ks: dict[str, int] | None = None) -> dict:
    ks = ks or {"mrr": 10, "ndcg": 10, "recall": 1000}
    return evaluate(read_run(run_path), read_qrels(qrels_path), ks)


def run_train(
    config: MethodConfig,
    seed: int,
    res: Resources | None = None,
    keep: Mapping[str, HeadParameters] = {},
) -> TrainResult:
    """Train the configured heads on the configured triples; `res` defaults to `load_resources(config)`.

    A side ("query" or "doc") in `keep` starts from the heads given for it and keeps
    them; any other side starts from `side_heads`.
    """
    if config.paths.triples is None:
        raise ValidationError(f"{config.name}: training requires paths.triples")
    if res is None:
        res = load_resources(config)
    queries = {q.doc_id: q for q in side_texts(config.query.encoder, res.queries, res)}
    docs = {d.doc_id: d for d in side_texts(config.doc.encoder, res.docs, res)}
    triples = read_triples(config.paths.triples, queries, docs)
    return train_heads(
        config,
        triples,
        embed=lambda texts: toy_backbone(texts, res.embedding_table(config.backbone_dim, seed), seed),
        query_heads=keep["query"] if "query" in keep else side_heads(config, "query", seed, res.vocab.size),
        doc_heads=keep["doc"] if "doc" in keep else side_heads(config, "doc", seed, res.vocab.size),
        keep=keep,
    )


@dataclass
class PipelineReport:
    name: str
    metrics: dict[str, float]
    mean_query_nnz: float
    mean_doc_nnz: float
    ops_count: int


def run_pipeline(
    config: MethodConfig,
    workdir: Path,
    seed: int,
    query_heads: HeadParameters | None = None,
    doc_heads: HeadParameters | None = None,
    recall_k: int = 1000,
    res: Resources | None = None,
) -> PipelineReport:
    """encode -> index -> search -> eval on the configured data, in one call.

    A side without heads given encodes with `side_heads`; trained heads come
    from `run_train`.  `res` defaults to `load_resources(config)`.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if res is None:
        res = load_resources(config)

    doc_vectors = encode_side(config, "doc", res.docs, res, seed, heads=doc_heads)
    query_vectors = encode_side(config, "query", res.queries, res, seed, heads=query_heads)
    write_vectors(doc_vectors, res.vocab, workdir / "docs.jsonl")
    write_vectors(query_vectors, res.vocab, workdir / "queries.jsonl")

    index = build_index(doc_vectors, config.quantization)
    run, total_ops = search_all(index, query_vectors, config.top_k)
    write_run(run, workdir / "run.trec", tag=config.name)

    metrics: dict[str, float] = {}
    if config.paths.qrels:
        metrics = evaluate(run, read_qrels(config.paths.qrels), {"mrr": 10, "ndcg": 10, "recall": recall_k})
    d_nnz = [v.nnz for _, v in doc_vectors]
    q_nnz = [v.nnz for _, v in query_vectors]
    return PipelineReport(
        name=config.name,
        metrics=metrics,
        mean_query_nnz=statistics.fmean(q_nnz) if q_nnz else 0.0,
        mean_doc_nnz=statistics.fmean(d_nnz) if d_nnz else 0.0,
        ops_count=total_ops,
    )


def run_ablation(
    config: MethodConfig,
    toggles: list[str],
    workdir: Path,
    seed: int,
    train: bool = False,
    recall_k: int = 1000,
) -> list[PipelineReport]:
    """Controlled single-change comparison: base row plus one row per toggle.

    Every toggle and `recall_k` is checked before the first run.  Toggles change
    no path, so every row reads the one `Resources` loaded for the base config.
    With training enabled, an encoder-kind toggle retrains only the changed
    side, from its seeded heads, and keeps the other side's trained base heads
    fixed, so metric deltas are attributable to that single change.
    """
    check_cutoff("recall", recall_k)
    variants = [apply_toggle(config, toggle) for toggle in toggles]
    workdir = Path(workdir)
    res = load_resources(config)
    base_q = base_d = None
    if train:
        base_result = run_train(config, seed, res=res)
        base_q, base_d = base_result.query_heads, base_result.doc_heads
    reports = [
        run_pipeline(
            config, workdir / "base", seed,
            query_heads=base_q, doc_heads=base_d, recall_k=recall_k, res=res,
        )
    ]
    for i, variant in enumerate(variants):
        vq, vd = base_q, base_d
        if train:
            changed = [s for s in ("query", "doc") if getattr(variant, s).encoder != getattr(config, s).encoder]
            side = changed[0] if changed else None
            if side is None or getattr(variant, side).encoder in DIFFERENTIABLE:
                keep = {"query": base_q} if side == "doc" else {"doc": base_d} if side == "query" else {}
                result = run_train(variant, seed, res=res, keep=keep)
                vq, vd = result.query_heads, result.doc_heads
        reports.append(
            run_pipeline(
                variant, workdir / f"variant_{i}", seed,
                query_heads=vq, doc_heads=vd, recall_k=recall_k, res=res,
            )
        )
    return reports


def format_report(reports: list[PipelineReport]) -> str:
    """Aligned plain-text table: metrics, nnz, and ops_count per config."""
    metric_keys: list[str] = []
    for r in reports:
        for key in r.metrics:
            if key not in metric_keys:
                metric_keys.append(key)
    header = ["config"] + metric_keys + ["q_nnz", "d_nnz", "ops_count"]
    rows = [header]
    for r in reports:
        rows.append(
            [r.name]
            + [f"{r.metrics.get(k, float('nan')):.4f}" for k in metric_keys]
            + [f"{r.mean_query_nnz:.1f}", f"{r.mean_doc_nnz:.1f}", str(r.ops_count)]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def report_json(reports: list[PipelineReport]) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2)
