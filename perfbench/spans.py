"""Outside-in tracing of lsrkit: wrap the public functions of its modules and record spans.

A span is (name, start_ns, end_ns, parent, run_id, count).  `name` is
"<module>.<function>", `parent` is the index of the enclosing span in
`Tracer.spans` (-1 at the top), and `count` is what an optional counter
extracted from the result (or, for a generator, summed over its items).

Every name bound to a wrapped function in any loaded lsrkit module is
replaced, so a call that `pipeline.run_train` makes through its own imported
name (for example `toy_backbone` inside the embed lambda) is seen too.
A module or function that no longer exists is reported absent, never an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable, Iterable

PACKAGE = "lsrkit"
LAYERS = ("core", "encoders", "regularization", "supervision", "index", "evaluation", "pipeline")

NAME, START, END, PARENT, RUN, COUNT = range(6)


class Tracer:
    def __init__(self, counters: dict[str, Callable[[object], int]] | None = None):
        self.spans: list[list] = []
        self.run_id = ""
        self.wrapped: set[str] = set()
        self.absent_layers: list[str] = []
        self._counters = counters or {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, layers: Iterable[str] = LAYERS) -> None:
        """Wrap every public function defined in each layer module."""
        for layer in layers:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent_layers.append(layer)
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                self.wrapped.add(f"{layer}.{attr}")
                for holder in _package_modules():
                    if vars(holder).get(attr) is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.run_id, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        elif idx in self._stack:  # a generator closed out of order
            self._stack.remove(idx)

    def _wrap(self, name: str, fn):
        counter = self._counters.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    for item in fn(*args, **kwargs):
                        if counter is not None:
                            self.spans[idx][COUNT] += counter(item)
                        yield item
                finally:
                    self._close(idx)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx][COUNT] = counter(result)
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start_ns, end_ns, parent, run_id, count."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(("name", "start_ns", "end_ns", "parent", "run_id", "count"), s))) + "\n")


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def duration_s(span) -> float:
    return (span[END] - span[START]) / 1e9


def self_times(spans: list[list], first: int = 0) -> list[float]:
    """Per span (from index `first`): duration minus the time its direct children cover."""
    child_time = [0] * (len(spans) - first)
    for s in spans[first:]:
        if s[PARENT] >= first:
            child_time[s[PARENT] - first] += s[END] - s[START]
    return [(s[END] - s[START] - c) / 1e9 for s, c in zip(spans[first:], child_time)]


def has_ancestor(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
