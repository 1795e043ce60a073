"""Package layout: names live in their modules, each module imports on its own, and the bundled
data is what the README's command generates, by the generator's rules."""

import ast
import filecmp
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import lsrkit
from lsrkit.synthetic import NEGATIVES_PER_QUERY, make_synthetic_task

ROOT = Path(__file__).resolve().parent.parent


def test_each_module_imports_alone():
    """The package `__init__` holds only its docstring, so nothing imports the modules in a fixed
    order first: each `lsrkit.<module>` must import alone in a fresh interpreter (an import cycle
    would fail here)."""
    init = ast.parse(Path(lsrkit.__file__).read_text(encoding="utf-8"))
    assert len(init.body) == 1 and ast.get_docstring(init), "lsrkit/__init__.py holds more than its docstring"
    env = {**os.environ, "PYTHONPATH": str(Path(lsrkit.__file__).resolve().parent.parent)}
    modules = [f"lsrkit.{m.name}" for m in pkgutil.iter_modules(lsrkit.__path__)]
    assert len(modules) >= 10
    for module in modules:
        proc = subprocess.run([sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{module}: {proc.stderr}"


def test_readme_command_regenerates_the_bundled_data(tmp_path):
    """The README's regeneration command, run with its `--out` in a fresh directory, writes
    `data/toy` byte for byte."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Regenerating the bundled data\n\n```\n(.*?)```", readme, re.S).group(1)
    argv = shlex.split(block.replace("\\\n", " "))
    assert argv[:3] == ["python3", "-m", "lsrkit.synthetic"] and argv[argv.index("--out") + 1] == "data/toy"
    argv[0], argv[argv.index("--out") + 1] = sys.executable, str(tmp_path / "toy")
    env = {**os.environ, "PYTHONPATH": str(Path(lsrkit.__file__).resolve().parent.parent)}
    subprocess.run(argv, env=env, check=True)
    bundled = ROOT / "data" / "toy"
    names = sorted(p.name for p in bundled.iterdir())
    assert sorted(p.name for p in (tmp_path / "toy").iterdir()) == names
    _, mismatch, errors = filecmp.cmpfiles(bundled, tmp_path / "toy", names, shallow=False)
    assert (mismatch, errors) == ([], [])


def test_negatives_are_other_docs():
    """Each triple's negatives are distinct docs other than its positive, over a corpus so small that
    a draw mapped onto the positive's place would show."""
    task = make_synthetic_task(num_docs=6, num_queries=40, vocab_size=30, seed=3)
    for triple in task.triples:
        negs = triple["negs"]
        assert len(set(negs)) == len(negs) == NEGATIVES_PER_QUERY and triple["pos"] not in negs
