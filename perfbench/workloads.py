"""Workload definitions and seeded task generation.

Every task comes from `lsrkit.synthetic.make_synthetic_task` with the workload
seed.  Generation runs in its own short-lived process, before and outside any
timed span, so the workload process's peak memory is the program's alone.
Tasks are cached on disk once per (shape, seed).

Run as a script, this module generates one task:
    python3 workloads.py OUT_DIR DOCS QUERIES VOCAB TRIPLES SEED
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

#: Claims of a speed-up must also hold on this seed, which is never used while
#: a change is being written or tuned.
HELDOUT_SEED = 90017


@dataclass(frozen=True)
class Shape:
    docs: int
    queries: int
    vocab: int
    triples: int  # training triples kept (the first N queries'); 0 = no triples file

    @property
    def key(self) -> str:
        return f"d{self.docs}-q{self.queries}-v{self.vocab}-t{self.triples}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    method: dict  # method config body; "paths" is filled in per task
    train: bool  # run_train before encoding


_COMMON_PATHS = ("vocab", "collection", "queries", "qrels")

# The bundled task's scale: 400 docs, 300 terms, 60 training triples.  With
# 400 queries the p95 has 20 queries beyond it, and the tail and MRR vary
# less from seed to seed than with 200.
TOY = Shape(docs=400, queries=400, vocab=300, triples=60)
# Long posting lists and many short queries, sized so that each stage takes
# about half a second instead of a noisy 0.1-0.3 s.  Generation time grows
# with docs x queries, so queries stay at 1k.
SCALED = Shape(docs=50_000, queries=1_000, vocab=5_000, triples=0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="splade-toy",
            why="MLM expansion on both sides: index search and the |V|-wide MLM head dominate, and training is heaviest",
            shape=TOY,
            method={
                "name": "splade_max",
                "query": {"encoder": "mlm", "regularizer": {"kind": "flops", "weight": 0.01}},
                "doc": {"encoder": "mlm", "regularizer": {"kind": "flops", "weight": 0.01}},
                "shared_heads": True,
                "supervision": {"loss": "contrastive", "steps": 100, "lr": 0.5},
                "quantization": {"mode": "bits", "bits": 8},
                "top_k": 100,
                "backbone": {"kind": "toy", "seed": 7, "dim": 24},
                "paths": ("triples",),
            },
            train=True,
        ),
        Workload(
            name="deepimpact-toy",
            why="backbone and MLP head do the doc-side and training work while the binary query side is inference-free",
            shape=TOY,
            method={
                "name": "deepimpact",
                "query": {"encoder": "binary"},
                "doc": {"encoder": "exp_mlp"},
                "shared_heads": False,
                "supervision": {"loss": "contrastive", "steps": 100, "lr": 0.5},
                "quantization": {"mode": "bits", "bits": 8},
                "top_k": 100,
                "backbone": {"kind": "toy", "seed": 7, "dim": 24},
                "paths": ("triples", "expansions"),
            },
            train=True,
        ),
        Workload(
            name="bm25-scaled",
            why="no backbone, heads or training: corpus reading, exact-impact index write/load and many short queries dominate",
            shape=SCALED,
            method={
                "name": "bm25",
                "query": {"encoder": "bm25_query"},
                "doc": {"encoder": "bm25_doc"},
                "quantization": {"mode": "exact"},
                "top_k": 100,
                "bm25": {"k1": 0.9, "b": 0.4},
                "paths": (),
            },
            train=False,
        ),
    )
}

_FILES = {
    "vocab": "vocab.txt",
    "collection": "collection.tsv",
    "queries": "queries.tsv",
    "qrels": "qrels.txt",
    "triples": "triples.jsonl",
    "expansions": "expansions.tsv",
}


def prepare(workload: Workload, seed: int, cache_dir: Path, run_dir: Path) -> Path:
    """Generate (or reuse) the task for (shape, seed); write the method config into run_dir."""
    task_dir = cache_dir / f"{workload.shape.key}-s{seed}"
    if not (task_dir / "done").exists():
        tmp = cache_dir / f"{task_dir.name}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        s = workload.shape
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(tmp),
             str(s.docs), str(s.queries), str(s.vocab), str(s.triples), str(seed)],
            check=True,
        )
        try:
            os.replace(tmp, task_dir)
        except OSError:  # another process finished the same task first
            shutil.rmtree(tmp, ignore_errors=True)
    body = {k: v for k, v in workload.method.items() if k != "paths"}
    body["paths"] = {k: str(task_dir / _FILES[k]) for k in _COMMON_PATHS + workload.method["paths"]}
    config_path = run_dir / f"{workload.name}.json"
    config_path.write_text(json.dumps(body, indent=2), encoding="utf-8")
    return config_path


def _generate(out: Path, docs: int, queries: int, vocab: int, triples: int, seed: int) -> None:
    from lsrkit.synthetic import make_synthetic_task, write_task

    task = make_synthetic_task(num_docs=docs, num_queries=queries, vocab_size=vocab, seed=seed)
    task.triples = task.triples[:triples]
    write_task(task, out)
    if not triples:
        (out / "triples.jsonl").unlink()
    (out / "done").write_text("", encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    out_dir, *numbers = sys.argv[1:]
    _generate(Path(out_dir), *(int(n) for n in numbers))
