"""Digest the outputs of one lsrkit checkout, to show that a change leaves them unchanged.

    python tools/golden_outputs.py SRC_DIR OUT.json
    python tools/golden_outputs.py --diff A.json B.json

SRC_DIR is the root of a checkout (its `src/`, `configs/` and `data/` are
used).  For every bundled config the script runs `run_train` at the config's
backbone seed, digesting `repr(loss_history)` and the bytes of both heads; it
runs `run_pipeline` untrained and, for splade_max, deepimpact, epic and tilde,
also with the trained heads as `query_heads` and `doc_heads`; and it runs the
CLI path `run_index` -> `run_search` on the untrained vectors.  Next, it
runs a trained `run_ablation` of splade_max with six toggles (the L1 and L2
ones are the only bundled runs of the trainer's L1/L2 penalty) and digests its
`report_json`.  Then, on one shared `Resources`, it encodes splade_max's
queries at seeds s, s + 1 and s again (s its backbone seed), so a per-seed
cache that returned another seed's embeddings would change a digest.
Last, for every bundled config it builds, saves and loads an index of the
untrained doc vectors, in the config's quantization and in exact mode, and
digests the `index_search` ranking and ops of every untrained query at
k = 0, 1, 10 and the number of docs.  Finally it digests `pipeline.evaluate`
at several cutoffs on one seeded run and graded qrels (`graded_qrels`):
several grades per query, zero grades, judged docs the run misses, and
queries with no judgments or no ranking.  Then it writes a small synthetic
task with one doc and one query emptied, heads whose bias columns start on
both sides of ReLU's kink, and one config per entry of `EDGE_SETUPS` (shared
ReLU MLM, binary/MLM under MarginMSE, binary/CLS-MLM, and three arg-max MLM
doc sides: EPIC's softplus with quality heads and top-k, ReLU with quality
heads, softplus under L1), and digests `run_train` on each
(`repr(loss_history)` and both heads).  Last of all, it encodes the toy
data with BM25, which no bundled config uses, and digests the vector files
and the exact-index rankings (`bm25`), and it digests `write_vectors` on
hand-built batches whose terms, ids and weights no bundled vocabulary or
encoder gives (`vectors`).  Then it encodes 600 docs, some empty, with each
neural head kind in `ENCODE_EDGE_SIDES` in one `encode_side` call, a batch
past the ends of 256-text slices, and digests the vector files
(`encode_edges`).
OUT.json maps each output to its sha256.  Two checkouts give the same
outputs exactly when their OUT.json files are byte-identical
(`cmp A.json B.json`).  Only calls that older checkouts also have are used.
`--diff A.json B.json` prints the nested key of every digest that differs
between two OUT.json files, or that only one of them has, one per line as
`train / deepimpact / doc_heads`, and exits 1 if there is any.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

TRAINED = ("splade_max", "deepimpact", "epic", "tilde")
ABLATION = (
    "splade_max",
    ["query_encoder=mlp", "doc_encoder=mlp", "regularizer=topk:50", "regularizer=l1:0.01",
     "regularizer=l2:0.01", "shared_heads=false"],
)


#: (name, query encoder, doc encoder, shared_heads, supervision loss, doc-side settings over the FLOPs
#: regularizer) of the edge-case training digests; the last three are arg-max MLM doc sides, EPIC's first
EDGE_SETUPS = (
    ("shared relu mlm", "mlm", "mlm", True, "contrastive", {}),
    ("binary/mlm", "binary", "mlm", False, "margin_mse", {}),
    ("binary/cls_mlm", "binary", "cls_mlm", False, "contrastive", {}),
    ("mlp/epic mlm", "mlp", "mlm", False, "contrastive",
     {"activation": "softplus", "quality_heads": True, "regularizer": {"kind": "topk", "k": 5}}),
    ("mlp/relu quality mlm", "mlp", "mlm", False, "contrastive", {"quality_heads": True}),
    ("binary/softplus mlm, l1", "binary", "mlm", False, "margin_mse",
     {"activation": "softplus", "regularizer": {"kind": "l1", "weight": 0.1}}),
)


#: (name, doc side) of the `encode_edges` digests: every neural head kind, MLM both in the max form
#: (ReLU) and by arg-max (EPIC's softplus with quality heads)
ENCODE_EDGE_SIDES = (
    ("mlp", {"encoder": "mlp"}),
    ("mlp, no log", {"encoder": "mlp", "log_normalize": False}),
    ("exp_mlp", {"encoder": "exp_mlp"}),
    ("relu mlm", {"encoder": "mlm"}),
    ("arg-max mlm", {"encoder": "mlm", "activation": "softplus", "quality_heads": True}),
    ("cls_mlm", {"encoder": "cls_mlm"}),
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def heads_sha256(heads) -> str:
    """sha256 over every field of a HeadParameters: array bytes, repr of the rest."""
    h = hashlib.sha256()
    for name, value in sorted(vars(heads).items()):
        h.update(name.encode())
        h.update(value.tobytes() if hasattr(value, "tobytes") else repr(value).encode())
    return h.hexdigest()


def graded_case(seed: int = 7, n_queries: int = 60, n_docs: int = 20):
    """A seeded (RunFile, Qrels) pair whose qrels are graded 0-3, some queries judged and not ranked."""
    from lsrkit.evaluation import Qrels, RunFile

    rng = random.Random(seed)
    docs = [f"d{i}" for i in range(n_docs)]
    rankings, judgments = {}, {}
    for q in range(n_queries):
        qid = f"q{q}"
        if q % 7 != 3:  # every seventh query is judged but not ranked
            ranked = rng.sample(docs, rng.randint(1, 12))
            scores = sorted((round(rng.uniform(0, 10), 2) for _ in ranked), reverse=True)
            rankings[qid] = list(zip(ranked, scores))
        if q % 5 != 0:  # every fifth query has no judgments
            for did in rng.sample(docs, rng.randint(1, 10)):
                judgments[(qid, did)] = rng.choice((0, 0, 1, 1, 2, 3))
    return RunFile(rankings=rankings), Qrels(judgments)


def edge_training(work: Path) -> dict:
    """`run_train` digests on a small task whose first doc (a positive) and second query are empty."""
    from lsrkit import pipeline
    from lsrkit.config import load_config
    from lsrkit.core import TokenizedText, write_collection, write_vocabulary
    from lsrkit.encoders import init_head_parameters, write_head_parameters
    from lsrkit.synthetic import make_synthetic_task

    task = make_synthetic_task(num_docs=24, num_queries=8, vocab_size=40, seed=3)
    empty = {task.docs[0].doc_id, task.queries[1].doc_id}

    def emptied(texts):
        return [TokenizedText(t.doc_id, () if t.doc_id in empty else t.token_ids) for t in texts]

    work.mkdir()
    write_vocabulary(task.vocab, work / "vocab.txt")
    write_collection(emptied(task.docs), task.vocab, work / "collection.tsv")
    write_collection(emptied(task.queries), task.vocab, work / "queries.tsv")
    (work / "triples.jsonl").write_text("".join(json.dumps(r) + "\n" for r in task.triples), encoding="utf-8")
    v, dim, seed = task.vocab.size, 6, 3

    def heads_file(name: str, s: int, side: dict) -> str:
        """Seed-s heads that fit `side`, a third of their bias columns at -0.5 and the rest at 0.3."""
        heads = init_head_parameters(v, dim, s, activation=side.get("activation", "relu"),
                                     use_quality_heads=side.get("quality_heads", False))
        heads.mlm_bias = np.where(np.arange(v) % 3 == 0, -0.5, 0.3)
        write_head_parameters(heads, work / name)
        return name

    out = {}
    reg = {"kind": "flops", "weight": 0.1}
    for i, (name, query, doc, shared, loss, doc_settings) in enumerate(EDGE_SETUPS):
        doc_side = {"encoder": doc, "regularizer": reg, **doc_settings}
        query_heads = heads_file(f"edge_{i}_query.json", seed, {})
        config = {
            "name": f"edge_{i}",  # a config name has no whitespace; `name` keys the digests
            "query": {"encoder": query, "regularizer": reg},
            "doc": doc_side,
            "shared_heads": shared,
            "supervision": {"loss": loss, "steps": 6, "lr": 0.5},
            "backbone": {"seed": seed, "dim": dim},
            "paths": {
                "vocab": "vocab.txt", "collection": "collection.tsv", "queries": "queries.tsv",
                "triples": "triples.jsonl", "query_heads": query_heads,
                "doc_heads": query_heads if shared else heads_file(f"edge_{i}_doc.json", seed + 1, doc_side),
            },
        }
        path = work / f"edge_{i}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        result = pipeline.run_train(load_config(path), seed)
        out[name] = {
            "loss_history": hashlib.sha256(repr(result.loss_history).encode()).hexdigest(),
            "query_heads": heads_sha256(result.query_heads),
            "doc_heads": heads_sha256(result.doc_heads),
        }
    return out


def bm25(data: Path, work: Path) -> dict:
    """Digests of BM25 on `data` (a toy task), which no bundled config encodes with.

    Encodes the docs (in one call, and in calls of 7 docs) and the queries with
    `bm25_doc`/`bm25_query` through `encode_side` and `write_vectors`, then
    builds, saves and loads an exact index and digests the `index_search`
    ranking and ops of every query at k = 10 and the number of docs.
    """
    from lsrkit import index, pipeline
    from lsrkit.config import load_config

    work.mkdir()
    config_path = work / "bm25.json"
    files = {"vocab": "vocab.txt", "collection": "collection.tsv", "queries": "queries.tsv", "qrels": "qrels.txt"}
    config_path.write_text(json.dumps({
        "name": "bm25",
        "query": {"encoder": "bm25_query"},
        "doc": {"encoder": "bm25_doc"},
        "quantization": {"mode": "exact"},
        "bm25": {"k1": 0.9, "b": 0.4},
        "paths": {key: str(data / name) for key, name in files.items()},
    }), encoding="utf-8")
    config = load_config(config_path)
    res = pipeline.load_resources(config)
    seed = config.backbone_seed
    docs = pipeline.encode_side(config, "doc", res.docs, res, seed)
    chunked = [v for i in range(0, len(res.docs), 7)
               for v in pipeline.encode_side(config, "doc", res.docs[i:i + 7], res, seed)]
    queries = pipeline.encode_side(config, "query", res.queries, res, seed)
    out = {}
    for name, vectors in (("docs.jsonl", docs), ("docs.jsonl, 7 per call", chunked), ("queries.jsonl", queries)):
        pipeline.write_vectors(vectors, res.vocab, work / "vectors.jsonl")
        out[name] = sha256(work / "vectors.jsonl")
    index.save_index(index.build_index(docs, config.quantization), work / "index")
    loaded = index.load_index(work / "index")
    results = [index.index_search(loaded, q, k) for _, q in queries for k in (10, len(docs))]
    out["search"] = hashlib.sha256(repr(results).encode()).hexdigest()
    return out


#: Weights at the edges of repr's forms: the least subnormal, exponent forms on both sides, the largest float.
EDGE_WEIGHTS = (5e-324, 1e-05, 1e16, 1.7976931348623157e308)


def edge_vectors(work: Path) -> dict:
    """Digests of `write_vectors` on a hand-built batch and on the empty batch.

    The bundled vocabularies are ASCII (`t0000`...), so no config reaches the
    escaping of a term or an id: here they hold quotes, backslashes, control
    characters and non-ASCII characters, one outside the BMP.  The vectors hold
    their terms out of id order, two of them none, and the weights include
    EDGE_WEIGHTS.  The batch is written twice: with the four edge weights only
    (few distinct) and with every weight distinct.
    """
    from lsrkit import pipeline
    from lsrkit.core import SparseVector, build_vocabulary

    vocab = build_vocabulary(
        ["plain", 'quo"te', "back\\slash", "caf\u00e9", "\u65e5\u672c", "\U0001f600", "tab\tnl\n", "\x00"])
    ids = ["d0", 'q"1', "b\\2", "\u00e93", "\u65e54", "\U0001f6005", "e6"]
    orders = [(0, 1, 2), (7, 3, 0, 5), (), (6, 4, 2, 1, 0), (3,), (), (5, 6, 7, 0, 1, 2, 3, 4)]
    slots = [(vid, order, sum(map(len, orders[:i]))) for i, (vid, order) in enumerate(zip(ids, orders))]
    weights = {
        "few distinct": lambda j: EDGE_WEIGHTS[j % 4],
        "all distinct": lambda j: EDGE_WEIGHTS[j] if j < 4 else j / 3,
    }
    work.mkdir()
    out = {}
    for name, weight in weights.items():
        batch = [(vid, SparseVector({t: weight(first + k) for k, t in enumerate(order)}))
                 for vid, order, first in slots]
        pipeline.write_vectors(batch, vocab, work / "vectors.jsonl")
        out[name] = sha256(work / "vectors.jsonl")
    pipeline.write_vectors([], vocab, work / "vectors.jsonl")
    out["empty batch"] = sha256(work / "vectors.jsonl")
    return out


def encode_edges(work: Path) -> dict:
    """Digests of `encode_side` over 600 synthetic docs per `ENCODE_EDGE_SIDES` entry, in one call.

    Docs 0, 255, 256, 300, 511, 512 and 599 are empty: the first and last of a
    batch and of 256-text slices, where a stacked encoder starts or ends a stack.
    Every third doc has expansion terms (one of them empty).
    """
    from lsrkit import pipeline
    from lsrkit.config import load_config
    from lsrkit.core import TokenizedText, write_collection, write_vocabulary
    from lsrkit.synthetic import make_synthetic_task

    task = make_synthetic_task(num_docs=600, num_queries=4, vocab_size=60, seed=11)
    empty = {0, 255, 256, 300, 511, 512, 599}
    docs = [TokenizedText(d.doc_id, () if i in empty else d.token_ids) for i, d in enumerate(task.docs)]
    work.mkdir()
    write_vocabulary(task.vocab, work / "vocab.txt")
    write_collection(docs, task.vocab, work / "collection.tsv")
    write_collection(task.queries, task.vocab, work / "queries.tsv")
    (work / "expansions.tsv").write_text(
        "".join(f"{d.doc_id}\t{' '.join(task.vocab.terms[(7 * i + j) % task.vocab.size] for j in range(3))}\n"
                for i, d in enumerate(docs) if i % 3 == 0),
        encoding="utf-8")
    out = {}
    for name, side in ENCODE_EDGE_SIDES:
        path = work / "edges.json"
        path.write_text(json.dumps({
            "name": "edges",
            "query": {"encoder": "binary"},
            "doc": side,
            "backbone": {"seed": 5, "dim": 8},
            "paths": {"vocab": "vocab.txt", "collection": "collection.tsv", "queries": "queries.tsv",
                      "expansions": "expansions.tsv"},
        }), encoding="utf-8")
        config = load_config(path)
        res = pipeline.load_resources(config)
        vectors = pipeline.encode_side(config, "doc", res.docs, res, config.backbone_seed)
        pipeline.write_vectors(vectors, res.vocab, work / "vectors.jsonl")
        out[name] = sha256(work / "vectors.jsonl")
    return out


def digests(src_dir: Path, work: Path) -> dict:
    sys.path.insert(0, str(src_dir / "src"))
    from lsrkit import index, pipeline
    from lsrkit.config import load_config

    out: dict = {"untrained": {}, "trained": {}, "cli": {}, "train": {}}
    for config_path in sorted((src_dir / "configs").glob("*.json")):
        config = load_config(config_path)
        name = config_path.stem
        result = pipeline.run_train(config, config.backbone_seed)
        for kind in ("untrained", "trained") if name in TRAINED else ("untrained",):
            run_dir = work / kind / name
            heads = {"query_heads": result.query_heads, "doc_heads": result.doc_heads} if kind == "trained" else {}
            pipeline.run_pipeline(config, run_dir, config.backbone_seed, **heads)
            out[kind][name] = {f: sha256(run_dir / f) for f in ("docs.jsonl", "queries.jsonl", "run.trec")}
        run_dir = work / "untrained" / name
        pipeline.run_index(config, run_dir / "docs.jsonl", run_dir / "index")
        pipeline.run_search(config, run_dir / "index", run_dir / "queries.jsonl", run_dir / "cli.trec")
        out["cli"][name] = sha256(run_dir / "cli.trec")
        out["train"][name] = {
            "loss_history": hashlib.sha256(repr(result.loss_history).encode()).hexdigest(),
            "query_heads": heads_sha256(result.query_heads),
            "doc_heads": heads_sha256(result.doc_heads),
        }
        print(f"{name}: done", file=sys.stderr)
    name, toggles = ABLATION
    config = load_config(src_dir / "configs" / f"{name}.json")
    reports = pipeline.run_ablation(config, toggles, work / "ablation", config.backbone_seed, train=True)
    out["ablation"] = {name: hashlib.sha256(pipeline.report_json(reports).encode()).hexdigest()}
    res = pipeline.load_resources(config)
    s = config.backbone_seed
    out["shared_resources"] = {}
    for i, seed in enumerate((s, s + 1, s)):
        vectors = pipeline.encode_side(config, "query", res.queries, res, seed)
        pipeline.write_vectors(vectors, res.vocab, work / "shared.jsonl")
        out["shared_resources"][f"{i}: {name} queries, seed {seed}"] = sha256(work / "shared.jsonl")
    out["search"] = {}
    for config_path in sorted((src_dir / "configs").glob("*.json")):
        config = load_config(config_path)
        run_dir = work / "untrained" / config_path.stem
        vocab = pipeline.load_resources(config).vocab
        docs = pipeline.read_vectors(run_dir / "docs.jsonl", vocab)
        queries = pipeline.read_vectors(run_dir / "queries.jsonl", vocab)
        for quant in (config.quantization, index.Quantization("exact")):
            index.save_index(index.build_index(docs, quant), run_dir / "search_index")
            loaded = index.load_index(run_dir / "search_index")
            results = [index.index_search(loaded, q, k) for _, q in queries for k in (0, 1, 10, len(docs))]
            key = f"{config_path.stem}, {quant.mode}"
            out["search"][key] = hashlib.sha256(repr(results).encode()).hexdigest()
    run, qrels = graded_case()
    out["graded_qrels"] = {}
    for ks in ({"mrr": 10, "ndcg": 10, "recall": 1000}, {"mrr": 1, "ndcg": 3, "recall": 5}):
        metrics = pipeline.evaluate(run, qrels, ks)
        out["graded_qrels"][repr(ks)] = hashlib.sha256(repr(metrics).encode()).hexdigest()
    out["edge_training"] = edge_training(work / "edge")
    out["bm25"] = bm25(src_dir / "data" / "toy", work / "bm25")
    out["vectors"] = edge_vectors(work / "vectors")
    out["encode_edges"] = encode_edges(work / "encode_edges")
    return out


def changed_keys(a, b, path: tuple[str, ...] = ()) -> list[str]:
    """The nested keys, joined by " / ", whose digests differ between OUT.json objects `a` and `b`."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [key for k in sorted(a.keys() | b.keys()) for key in changed_keys(a.get(k), b.get(k), (*path, k))]
    return [] if a == b else [" / ".join(path)]


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        a, b = (json.loads(Path(name).read_text(encoding="utf-8")) for name in argv[1:])
        changed = changed_keys(a, b)
        print("\n".join(changed) if changed else "no digest differs")
        return 1 if changed else 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src_dir, out_path = Path(argv[0]).resolve(), Path(argv[1])
    with tempfile.TemporaryDirectory() as work:
        result = digests(src_dir, Path(work))
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
