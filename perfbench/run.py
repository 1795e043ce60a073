"""lsrkit benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--out FILE]

Run from the root of a source checkout; lsrkit is imported from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Lines before it give sample counts, run-file hashes and, when tracing, every
per-layer metric including those absent on the workload.

`--workload all` runs every workload in a fresh process, untraced and then
traced, prints a table of all metrics, checks that the two processes wrote
identical run files, and with `--out` saves everything with a description
of the machine.  Scratch files go to `.bench_build/` in the checkout.
"""

from __future__ import annotations

import os

# One process, one thread: pin numerical libraries before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _metrics(values: dict, entries: list[dict]) -> dict:
    """Values for the metrics BENCHMARK.json lists; an absent one reads 0."""
    return {e["name"]: {"value": values[e["name"]] or 0, "unit": e["unit"]} for e in entries}


def run_one(args, spec: dict) -> int:
    import bench
    from workloads import WORKLOADS

    result = bench.run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), BUILD)
    print(json.dumps({"detail": result["detail"]}))
    if args.trace:
        print(json.dumps({"layers": result["layers"], "absent": result["absent"]}))
        metrics = _metrics(result["layers"], spec["per_layer"])
    else:
        metrics = _metrics(result["e2e"], spec["end_to_end"])
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def machine() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_all(args, spec: dict) -> int:
    import bench
    from workloads import HELDOUT_SEED, WORKLOADS

    report = {"seed": args.seed, "heldout_seed": HELDOUT_SEED, "seconds": args.seconds,
              "machine": machine(), "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
            lines = [json.loads(line) for line in out if line.startswith("{")]
            entry[f"trace{trace}"] = {k: v for line in lines for k, v in line.items()}
        hashes = {h for t in (0, 1) for h in entry[f"trace{t}"]["detail"]["run_sha256"]}
        entry["run_sha256_identical"] = len(hashes) == 1
        ok = ok and entry["run_sha256_identical"] and all(entry[f"trace{t}"]["correct"] for t in (0, 1))
        report["workloads"][name] = entry

    print(f"seed {args.seed}, {args.seconds} s per run, {report['machine']}")
    for name, entry in report["workloads"].items():
        t0, t1 = entry["trace0"], entry["trace1"]
        print(f"\n== {name}: attempted {t0['attempted']}, failed {t0['failed']} (traced run: "
              f"{t1['attempted']}, {t1['failed']}), run files identical: {entry['run_sha256_identical']} "
              f"{t0['detail']['run_sha256'][0][:16]}")
        for key, m in t0["metrics"].items():
            print(f"  {key:28s} {m['value']:>14.6g} {m['unit']}")
        print("  -- traced run (absent: "
              f"{t1['absent']['functions'] + t1['absent']['metrics'] or 'none'})")
        for key, value in t1["layers"].items():
            shown = "absent" if value is None else f"{value:14.6g}"
            print(f"  {key:28s} {shown:>14s} {bench.LAYER_UNITS[key]}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lsrkit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the full report here")
    args = parser.parse_args(argv)

    if not (SRC / "lsrkit" / "__init__.py").is_file():
        print(f"error: no lsrkit source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lsrkit

    if Path(lsrkit.__file__).resolve().parent != SRC / "lsrkit":
        print(f"error: imported lsrkit from {lsrkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = _load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
