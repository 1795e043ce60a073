"""Package layout: names live in their modules, and each module imports on its own."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import lsrkit


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
