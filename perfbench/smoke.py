"""Smoke test of the benchmark itself, at tiny sizes (about ten seconds).

    python3 perfbench/smoke.py

Checks that every workload runs untraced and traced, that every metric
BENCHMARK.json names is emitted with its unit, that the correctness gate
flags a perturbed ranking in both quantization modes, and that tracing
reports a missing module or function as absent instead of failing.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import run  # pins threads and finds the checkout

sys.path.insert(0, str(run.SRC))

import bench  # noqa: E402
import gate  # noqa: E402
import spans  # noqa: E402
from lsrkit import encoders, index  # noqa: E402
from lsrkit.core import SparseVector  # noqa: E402
from workloads import WORKLOADS, Shape  # noqa: E402

TINY = Shape(docs=60, queries=30, vocab=80, triples=10)
BUILD = run.ROOT / ".bench_build" / "perfbench-smoke"


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def check_units(spec: dict) -> None:
    for entry in spec["per_layer"]:
        check(bench.LAYER_UNITS.get(entry["name"]) == entry["unit"], f"{entry['name']} is measured in {entry['unit']}")


def check_workloads(spec: dict) -> None:
    for workload in WORKLOADS.values():
        tiny = dataclasses.replace(workload, shape=TINY)
        for trace in (False, True):
            result = bench.run_workload(tiny, seed=3, seconds=0, trace=trace, build_dir=BUILD)
            tag = f"{workload.name} trace={int(trace)}"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0, f"{tag}: all queries pass the gate")
            check(result["detail"]["deterministic"], f"{tag}: identical run files across passes")
            values, entries = (result["layers"], spec["per_layer"]) if trace else (result["e2e"], spec["end_to_end"])
            emitted = run._metrics(values, entries)
            check(all(isinstance(emitted[e["name"]]["value"], (int, float)) and emitted[e["name"]]["unit"] == e["unit"]
                      for e in entries), f"{tag}: every listed metric emitted with its unit")
            if trace:
                check(set(result["layers"]) == set(bench.LAYER_UNITS), f"{tag}: every per-layer metric in the table")
            else:
                check(all(values[e["name"]] for e in entries), f"{tag}: no end-to-end metric is 0")


def check_gate() -> None:
    docs = [(f"d{i}", SparseVector({t: 0.1 + ((i * 7 + t * 3) % 11) / 4 for t in range(i % 5, 12, 1 + i % 3)}))
            for i in range(40)]
    queries = [(f"q{j}", SparseVector({j % 12: 1.0, (j * 5) % 12: 0.5})) for j in range(10)]
    for quant in (index.Quantization("exact"), index.Quantization("bits", 8)):
        built = index.build_index(docs, quant)
        rankings = {qid: index.index_search(built, q, 10)[0] for qid, q in queries}
        check(gate.failed_queries(rankings, queries, docs, quant, 10) == [], f"gate passes index_search ({quant.mode})")
        swapped = dict(rankings)
        r = swapped["q3"]
        swapped["q3"] = [r[1], r[0]] + r[2:]
        check(gate.failed_queries(swapped, queries, docs, quant, 10) == ["q3"], f"gate flags a swapped ranking ({quant.mode})")
        nudged = dict(rankings)
        nudged["q4"] = [(d, s + 1e-6) for d, s in rankings["q4"]]
        check(gate.failed_queries(nudged, queries, docs, quant, 10) == ["q4"], f"gate flags a score off by 1e-6 ({quant.mode})")


def check_absent() -> None:
    tracer = spans.Tracer()
    tracer.install(("core", "no_such_layer"))
    tracer.uninstall()
    check(tracer.absent_layers == ["no_such_layer"], "a missing layer module is reported absent")

    original = encoders.toy_backbone
    del encoders.toy_backbone  # as if a refactor had moved it; pipeline keeps its own name
    try:
        tiny = dataclasses.replace(WORKLOADS["deepimpact-toy"], shape=TINY)
        result = bench.run_workload(tiny, seed=3, seconds=0, trace=True, build_dir=BUILD)
    finally:
        encoders.toy_backbone = original
    check(bench.BACKBONE in result["absent"]["functions"], "a missing function is reported absent")
    check(result["layers"]["encoders.backbone_calls"] is None and result["correct"], "its metrics read absent, the run goes on")


def main() -> int:
    spec = run._load_spec()
    try:
        check_units(spec)
        check_gate()
        check_workloads(spec)
        check_absent()
    finally:
        shutil.rmtree(BUILD, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
