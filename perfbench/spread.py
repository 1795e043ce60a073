"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--out FILE]

Runs the benchmark once per seed (each in a fresh process, one at a time)
and prints, per end-to-end metric, the median and the distance between the
first and third quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json.  A spread should stay below a third of its bound;
`setup_s` is exempt.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="append the per-run results as JSON lines")
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        last = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT).stdout.splitlines()[-1]
        result = json.loads(last)
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if args.out:
            with open(args.out, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    worst = 0.0
    print(f"\n{args.workload}: {len(next(iter(values.values())))} runs")
    for entry in spec["end_to_end"]:
        vals = values[entry["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if entry["name"] == "setup_s" or spread < entry["bound"] / 3 else "  <-- above a third of the bound"
        if entry["name"] != "setup_s":
            worst = max(worst, spread / entry["bound"])
        print(f"  {entry['name']:18s} median {med:12.6g} {entry['unit']:10s} spread {spread:6.3f} "
              f"bound {entry['bound']:.2f}{flag}")
    print(f"  worst spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
