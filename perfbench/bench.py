"""Run one workload through lsrkit's public entry points and measure it.

One pipeline pass is what the CLI does, stage by stage, in one process:
load_config + load_resources (set-up), run_train, encode_side over the docs,
write_vectors, build_index + save_index, load_index, then per query
encode_side + index_search against the loaded index, write_run and run_eval.
A single caller drives it in a closed loop: each call starts when the
previous one returns.  Passes repeat until the measuring time is spent.

Every unit of work (a stage, a chunk of docs, one query) is timed once per
pass, and its time is the best of its repetitions; percentiles are taken
across queries.  Shared cloud VMs alternate between a fast and a slow state,
about 1.6x apart, for seconds at a time (measured on a 2-vCPU VM with a
fixed pure-Python probe).  A median over a 30 s run lands in the slow state
in about one run in six; the best of a few repetitions spread over the run
rarely does.

End-to-end metrics come from untraced passes.  With tracing on, untraced and
traced passes alternate: per-layer metrics come from the traced ones, and the
difference in pipeline time between the two is the tracing overhead.

bm25-scaled has nothing to train.  Its `train_s` is the time to fit BM25's
only parameters, the corpus statistics (`core.compute_corpus_stats`).
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from lsrkit import config, core, evaluation, index, pipeline

import gate
import spans
from workloads import Workload, prepare

MIN_PASSES = 2  # run-file hashes are compared across passes; tracing needs one of each kind
# Stages shorter than REPEAT_BUDGET_S are repeated within a pass.  Docs are
# encoded in DOC_CHUNKS calls; queries are grouped by QUERY_GROUP between
# speed probes.
REPEAT_BUDGET_S = 0.5
MAX_REPEATS = 25
DOC_CHUNKS = 8
QUERY_GROUP = 10
# Best-of-3 time of `_probe_work` on the reference machine (2-vCPU Intel Xeon
# cloud VM, Python 3.11) in its fast state.  Times are reported at this speed.
REF_PROBE_S = 0.0006

LAYER_UNITS = {
    "core.read_collection_s": "s",
    "core.tokens_read": "count",
    "encoders.backbone_calls": "count",
    "encoders.backbone_s": "s",
    "encoders.backbone_ms_p50": "ms",
    "encoders.head_calls": "count",
    "encoders.head_s": "s",
    "encoders.doc_nnz_p50": "count",
    "encoders.doc_nnz_p95": "count",
    "encoders.doc_nnz_max": "count",
    "encoders.query_nnz_p50": "count",
    "encoders.query_nnz_p95": "count",
    "encoders.query_nnz_max": "count",
    "regularization.calls": "count",
    "regularization.s": "s",
    "supervision.train_self_s": "s",
    "supervision.steps": "count",
    "supervision.step_ms": "ms",
    "supervision.embed_calls": "count",
    "index.build_s": "s",
    "index.save_s": "s",
    "index.load_s": "s",
    "index.postings": "count",
    "index.bytes_on_disk": "bytes",
    "index.bytes_per_posting": "bytes",
    "index.search_s": "s",
    "index.search_ms_p50": "ms",
    "index.search_ms_p95": "ms",
    "index.ops_count": "count",
    "index.ops_per_query_p50": "count",
    "index.ops_per_query_p95": "count",
    "index.ops_per_query_max": "count",
    "index.ns_per_op": "ns",
    "index.posting_len_p50": "count",
    "index.posting_len_p95": "count",
    "index.posting_len_max": "count",
    "evaluation.write_run_s": "s",
    "evaluation.eval_s": "s",
    "pipeline.write_vectors_s": "s",
    "pipeline.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}

HEADS = tuple(
    f"encoders.{f}"
    for f in ("encode_binary", "encode_mlp", "encode_mlm", "encode_cls_mlm", "encode_bm25_query", "encode_bm25_doc")
)
BACKBONE = "encoders.toy_backbone"
TRAINER = "supervision.train_heads"

#: Per-span counts: tokens per text read, ops per search, steps per training run.
COUNTERS = {
    "core.read_collection": len,
    "index.index_search": lambda result: result[1],
    TRAINER: lambda result: len(result.loss_history),
}


def _probe_work() -> None:
    d: dict[int, float] = {}
    for i in range(4000):
        k = i * 7 % 1009
        d[k] = d.get(k, 0.0) + i * 0.5


class Stopwatch:
    """Times units of work and reports them at the reference machine speed.

    After each group of units it runs a fixed pure-Python probe (best of 3).
    Each raw time is scaled by REF_PROBE_S over the mean of the probes just
    before and just after its group, so a stretch of slow machine scales the
    units timed in it back to the reference speed.
    """

    def __init__(self):
        self.probes = [self._probe()]
        self.probing_s = 0.0
        self.samples: dict[str, list[float]] = {}  # scaled
        self.raw: dict[str, list[float]] = {}
        self._pending: list[tuple[str, float]] = []

    @staticmethod
    def _probe() -> float:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - t0)
        return best

    def add(self, key: str, raw_s: float) -> None:
        self._pending.append((key, raw_s))

    def flush(self) -> None:
        t0 = time.perf_counter()
        after = self._probe()
        self.probing_s += time.perf_counter() - t0
        scale = REF_PROBE_S / ((self.probes[-1] + after) / 2)
        for key, raw_s in self._pending:
            self.samples.setdefault(key, []).append(raw_s * scale)
            self.raw.setdefault(key, []).append(raw_s)
        self._pending.clear()
        self.probes.append(after)

    def pass_scale(self) -> float:
        return REF_PROBE_S / statistics.fmean(self.probes)


@dataclass
class Pass:
    """One pipeline pass: scaled timing samples per unit of work, and what the gate needs."""

    samples: dict[str, list[float]]
    raw: dict[str, list[float]]
    probes: list[float]
    run_sha256: str
    query_errors: int
    rankings: dict = field(repr=False)
    query_vectors: list = field(repr=False)
    doc_vectors: list = field(repr=False)
    quality: dict[str, float] = field(default_factory=dict)
    index_postings: int = 0
    index_bytes: int = 0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _setup(config_path: Path):
    cfg = config.load_config(config_path)
    return cfg, pipeline.load_resources(cfg)


def _chunks(items: list, n: int) -> list[list]:
    size = -(-len(items) // n)
    return [items[i:i + size] for i in range(0, len(items), size)]


def run_pass(workload: Workload, config_path: Path, work: Path, repeat: bool) -> Pass:
    """One pass through the pipeline.

    With `repeat`, stages too short to time once are repeated within the pass
    (set-up, index write and read) and the repeats are left out of
    `pipeline_s`.  Docs are encoded in DOC_CHUNKS calls, each a throughput
    sample; the vectors are the same as from one call.
    """
    clock = time.perf_counter
    watch = Stopwatch()
    samples = watch.samples
    repeated = 0.0
    t0 = clock()
    cfg, res = _setup(config_path)
    watch.add("setup_s", clock() - t0)
    watch.flush()
    while repeat and len(samples["setup_s"]) < MAX_REPEATS and sum(samples["setup_s"]) < REPEAT_BUDGET_S:
        r0 = clock()
        _setup(config_path)
        watch.add("setup_s", clock() - r0)
        repeated += clock() - r0
        watch.flush()
    t1 = clock()
    seed = cfg.backbone_seed
    q_heads = d_heads = None
    if workload.train:
        trained = pipeline.run_train(cfg, seed)
        q_heads, d_heads = trained.query_heads, trained.doc_heads
    else:
        core.compute_corpus_stats(res.docs)
    watch.add("train_s", clock() - t1)
    watch.flush()
    doc_vectors = []
    for chunk in _chunks(res.docs, DOC_CHUNKS):
        c0 = clock()
        doc_vectors += pipeline.encode_side(cfg, "doc", chunk, res, seed, heads=d_heads)
        watch.add("doc_s", (clock() - c0) / len(chunk))
        watch.flush()
    pipeline.write_vectors(doc_vectors, res.vocab, work / "docs.jsonl")
    while True:
        c0 = clock()
        built = index.build_index(doc_vectors, cfg.quantization)
        index.save_index(built, work / "index")
        c1 = clock()
        loaded = index.load_index(work / "index")
        c2 = clock()
        if "index_build_s" in samples:
            repeated += c2 - c0
        watch.add("index_build_s", c1 - c0)
        watch.add("index_load_s", c2 - c1)
        watch.flush()
        spent = sum(samples["index_build_s"]) + sum(samples["index_load_s"])
        if not repeat or spent >= REPEAT_BUDGET_S or len(samples["index_build_s"]) >= MAX_REPEATS:
            break
    rankings: dict = {}
    query_vectors: list = []
    errors = 0
    for i, text in enumerate(res.queries, start=1):
        q0 = clock()
        try:
            ((qid, qvec),) = pipeline.encode_side(cfg, "query", [text], res, seed, heads=q_heads)
            ranked, _ = index.index_search(loaded, qvec, cfg.top_k)
        except Exception:  # a failed query is counted, the pass goes on
            errors += 1
            if errors == 1:
                traceback.print_exc(file=sys.stderr)
        else:
            watch.add("query_s", clock() - q0)
            rankings[qid] = ranked
            query_vectors.append((qid, qvec))
        if i % QUERY_GROUP == 0 or i == len(res.queries):
            watch.flush()
    run_path = work / "run.trec"
    evaluation.write_run(evaluation.RunFile({q: r for q, r in rankings.items() if r}), run_path, tag=cfg.name)
    quality = pipeline.run_eval(run_path, cfg.paths.qrels)
    pass_s = clock() - t0 - repeated - watch.probing_s
    samples["pipeline_s"] = [pass_s * watch.pass_scale()]
    watch.raw["pipeline_s"] = [pass_s]
    return Pass(
        samples=samples,
        raw=watch.raw,
        probes=watch.probes,
        run_sha256=gate.sha256_file(run_path),
        query_errors=errors,
        rankings=rankings,
        query_vectors=query_vectors,
        doc_vectors=doc_vectors,
        quality=quality,
        index_postings=built.total_postings,
        index_bytes=sum(p.stat().st_size for p in (work / "index").iterdir()),
    )


def _dist(prefix: str, values: list[int]) -> dict:
    if not values:
        return {f"{prefix}_p50": None, f"{prefix}_p95": None, f"{prefix}_max": None}
    return {
        f"{prefix}_p50": _percentile(values, 50),
        f"{prefix}_p95": _percentile(values, 95),
        f"{prefix}_max": max(values),
    }


def layer_metrics(tracer: spans.Tracer, first: int, p: Pass) -> dict:
    """Per-layer numbers of one traced pass (spans from index `first` on).

    Times are scaled to the reference speed by the pass's mean probe.  A
    metric is None when the function it is read from no longer exists or was
    never called.
    """
    sp = tracer.spans
    own = range(first, len(sp))
    self_s = spans.self_times(sp, first)

    def layer(i):
        return sp[i][spans.NAME].split(".", 1)[0]

    def calls(*names):
        return [i for i in own if sp[i][spans.NAME] in names]

    def total_s(idxs):
        return sum(spans.duration_s(sp[i]) for i in idxs)

    def layer_top(name):  # spans of a layer not nested in a span of the same layer
        return [i for i in own if layer(i) == name and (sp[i][spans.PARENT] < 0 or layer(sp[i][spans.PARENT]) != name)]

    def need(*names):
        return all(n in tracer.wrapped for n in names)

    def ms_p(idxs, q):
        return _percentile([spans.duration_s(sp[i]) * 1e3 for i in idxs], q) if idxs else None

    m: dict = {}
    reads = calls("core.read_collection")
    m["core.read_collection_s"] = total_s(reads) if need("core.read_collection") else None
    m["core.tokens_read"] = sum(sp[i][spans.COUNT] for i in reads) if need("core.read_collection") else None

    backbone = calls(BACKBONE)
    m["encoders.backbone_calls"] = len(backbone) if need(BACKBONE) else None
    m["encoders.backbone_s"] = total_s(backbone) if need(BACKBONE) else None
    m["encoders.backbone_ms_p50"] = ms_p(backbone, 50)
    heads = calls(*HEADS)
    m["encoders.head_calls"] = len(heads)
    m["encoders.head_s"] = total_s(heads)
    m.update(_dist("encoders.doc_nnz", [v.nnz for _, v in p.doc_vectors]))
    m.update(_dist("encoders.query_nnz", [v.nnz for _, v in p.query_vectors]))

    reg = layer_top("regularization")
    m["regularization.calls"] = len(reg) if "regularization" not in tracer.absent_layers else None
    m["regularization.s"] = total_s(reg) if "regularization" not in tracer.absent_layers else None

    trainer = calls(TRAINER)
    if need(TRAINER, BACKBONE):
        embeds = [i for i in backbone if spans.has_ancestor(sp, i, TRAINER)]
        train_self = total_s(trainer) - total_s(embeds)
        steps = sum(sp[i][spans.COUNT] for i in trainer)
        m["supervision.train_self_s"] = train_self
        m["supervision.steps"] = steps
        m["supervision.step_ms"] = train_self / steps * 1e3 if steps else None
        m["supervision.embed_calls"] = len(embeds)
    else:
        m.update({k: None for k in ("supervision.train_self_s", "supervision.steps",
                                    "supervision.step_ms", "supervision.embed_calls")})

    for stage in ("build", "save", "load"):
        name = f"index.{stage}_index"
        m[f"index.{stage}_s"] = total_s(calls(name)) if need(name) else None
    m["index.postings"] = p.index_postings
    m["index.bytes_on_disk"] = p.index_bytes
    m["index.bytes_per_posting"] = p.index_bytes / p.index_postings if p.index_postings else None
    searches = calls("index.index_search")
    ops = [sp[i][spans.COUNT] for i in searches]
    search_s = total_s(searches)
    m["index.search_s"] = search_s if need("index.index_search") else None
    m["index.search_ms_p50"] = ms_p(searches, 50)
    m["index.search_ms_p95"] = ms_p(searches, 95)
    m["index.ops_count"] = sum(ops) if searches else None
    m.update(_dist("index.ops_per_query", ops))
    m["index.ns_per_op"] = search_s * 1e9 / sum(ops) if sum(ops) else None
    posting_len: dict[int, int] = {}
    for _, vec in p.doc_vectors:
        for t in vec.entries:
            posting_len[t] = posting_len.get(t, 0) + 1
    m.update(_dist("index.posting_len", list(posting_len.values())))

    m["evaluation.write_run_s"] = total_s(calls("evaluation.write_run")) if need("evaluation.write_run") else None
    evals = [i for i in layer_top("evaluation") if sp[i][spans.NAME] != "evaluation.write_run"]
    m["evaluation.eval_s"] = total_s(evals) if evals else None
    m["pipeline.write_vectors_s"] = total_s(calls("pipeline.write_vectors")) if need("pipeline.write_vectors") else None
    m["pipeline.self_s"] = sum(self_s[i - first] for i in own if layer(i) == "pipeline")
    m["trace.spans"] = len(own)
    scale = REF_PROBE_S / statistics.fmean(p.probes)
    return {k: v * scale if v is not None and LAYER_UNITS[k] in ("s", "ms", "ns") else v for k, v in m.items()}


def _median_metrics(samples: list[dict]) -> dict:
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples if s[name] is not None]
        out[name] = statistics.median(values) if values else None
    return out


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, build_dir: Path) -> dict:
    """Measure one workload; returns the result record (see run.py for its shape)."""
    run_dir = _fresh_dir(build_dir / f"run-{os.getpid()}")
    try:
        config_path = prepare(workload, seed, build_dir / "tasks", run_dir)
        return _measure(workload, seed, seconds, trace, config_path, run_dir, build_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, config_path, run_dir, build_dir) -> dict:
    cfg = config.load_config(config_path)
    tracer = spans.Tracer(COUNTERS) if trace else None
    plain: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    hashes: list[str] = []
    gate_failures: dict[str, int] = {}
    attempted = failed = 0
    peak_rss_mb = None
    measured = last = 0.0
    while len(hashes) < MIN_PASSES or measured + last <= seconds:
        use_trace = trace and len(hashes) % 2 == 1
        work = _fresh_dir(run_dir / "work")
        gc.collect()
        gc.disable()  # as timeit does: where a collection lands is noise, not cost of the stage
        start = time.perf_counter()
        try:
            if use_trace:
                tracer.run_id = f"{workload.name}-s{seed}-p{len(hashes)}"
                first = len(tracer.spans)
                with tracer:
                    p = run_pass(workload, config_path, work, repeat=False)
            else:
                p = run_pass(workload, config_path, work, repeat=True)
        finally:
            gc.enable()
        last = time.perf_counter() - start
        measured += last
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if p.run_sha256 not in gate_failures:
            bad = gate.failed_queries(p.rankings, p.query_vectors, p.doc_vectors, cfg.quantization, cfg.top_k)
            gate_failures[p.run_sha256] = len(bad)
            if bad:
                print(f"gate: {len(bad)} queries differ from the oracle, e.g. {bad[:5]}", file=sys.stderr)
        attempted += len(p.query_vectors) + p.query_errors
        failed += p.query_errors + gate_failures[p.run_sha256]
        hashes.append(p.run_sha256)
        if use_trace:
            traced.append((p, layer_metrics(tracer, first, p)))
        else:
            plain.append(p)
        p.rankings = p.query_vectors = p.doc_vectors = None  # keep only the numbers

    deterministic = len(set(hashes)) == 1
    names = {name for p in plain for name in p.samples}
    pooled = {name: [x for p in plain for x in p.samples.get(name, ())] for name in names}
    query_ms = [x * 1e3 for x in pooled.get("query_s", ())]
    e2e = {
        "setup_s": statistics.median(pooled["setup_s"]),
        "train_s": statistics.median(pooled["train_s"]),
        "doc_encode_per_s": 1 / statistics.median(pooled["doc_s"]),
        "index_build_s": statistics.median(pooled["index_build_s"]),
        "index_load_s": statistics.median(pooled["index_load_s"]),
        "query_ms_p50": _percentile(query_ms, 50) if query_ms else None,
        "query_ms_p95": _percentile(query_ms, 95) if query_ms else None,
        "queries_per_s": len(query_ms) / (sum(query_ms) / 1e3) if query_ms else None,
        "pipeline_s": statistics.median(pooled["pipeline_s"]),
        "peak_rss_mb": peak_rss_mb,
        "mrr_10": plain[0].quality["mrr@10"],
        "ndcg_10": plain[0].quality["ndcg@10"],
    }
    probes = [x for p in plain for x in p.probes]
    detail = {
        "workload": workload.name,
        "seed": seed,
        "passes": len(hashes),
        "traced_passes": len(traced),
        "samples": {k: len(v) for k, v in pooled.items()},
        "query_ms_p95_beyond": len(query_ms) - math.ceil(len(query_ms) * 0.95),
        "probe_ms": {"min": min(probes) * 1e3, "median": statistics.median(probes) * 1e3, "max": max(probes) * 1e3},
        "unscaled_median": {k: statistics.median(x for p in plain for x in p.raw.get(k, ())) for k in pooled if pooled[k]},
        "run_sha256": sorted(set(hashes)),
        "deterministic": deterministic,
        "pipeline_s_per_pass": pooled["pipeline_s"],
    }
    result = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "detail": detail,
    }
    if trace:
        layers = _median_metrics([m for _, m in traced])
        untraced_s = e2e["pipeline_s"]
        traced_s = statistics.median(p.samples["pipeline_s"][0] for p, _ in traced)
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100
        expected = {BACKBONE, TRAINER, "core.read_collection", "index.index_search", *HEADS}
        result["layers"] = layers
        result["absent"] = {
            "layers": tracer.absent_layers,
            "functions": sorted(expected - tracer.wrapped),
            "metrics": sorted(k for k, v in layers.items() if v is None),
        }
        trace_path = build_dir / f"trace-{workload.name}.jsonl"
        tracer.write(trace_path)
        detail["trace_file"] = os.path.relpath(trace_path)
    return result
