"""The repo's tools: `tools/golden_outputs.py --diff` (the digests that differ between two OUT.json files)
and the benchmark's own smoke test."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "golden_outputs.py"


def _diff(tmp_path, a, b):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, out in zip(paths, (a, b)):
        path.write_text(json.dumps(out), encoding="utf-8")
    return subprocess.run([sys.executable, str(TOOL), "--diff", *map(str, paths)], capture_output=True, text=True)


def test_diff_names_each_changed_or_missing_digest(tmp_path):
    a = {"train": {"deepct": {"doc_heads": "1", "loss_history": "2"}}, "cli": {"deepct": "3"}}
    b = {"train": {"deepct": {"doc_heads": "1", "loss_history": "9"}}, "cli": {"deepct": "3", "epic": "4"}}
    proc = _diff(tmp_path, a, b)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == ["cli / epic", "train / deepct / loss_history"]


def test_diff_of_equal_digests_exits_0(tmp_path):
    a = {"train": {"deepct": {"doc_heads": "1"}}}
    assert _diff(tmp_path, a, a).returncode == 0


def test_perfbench_smoke_exits_0():
    """`perfbench/smoke.py` runs every workload at tiny sizes and checks its correctness gate, which
    builds SparseVectors and searches them, so an API change that breaks the benchmark fails here."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")], capture_output=True, text=True,
                          cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
