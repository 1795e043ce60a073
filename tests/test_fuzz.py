"""Seeded, bounded mutation fuzz of every file the CLI reads.

Each input of a 40-doc task from `python -m lsrkit.synthetic` is mutated in
turn: a flipped bit, truncation, a deleted or repeated line, a number replaced
by NaN, 1e999, null or [], or an inserted TAB, NUL or 0xFF byte.  The command
that reads the file then runs through `cli.main`, which must return 0, 1 or 2
without letting an exception escape; a non-zero exit must name the mutated
file, or an input whose content the mutation made inconsistent with it.  An
exit 1 that names such a file, when it is a line file (a collection,
vocabulary, qrels, triples, vectors or run file), names it as `path:N:`.
"""

import json
import random
import re

import pytest

from lsrkit import synthetic
from lsrkit.cli import main

SEED = 17
MUTATIONS_PER_FILE = 110  # each of the 11 kinds ten times
KINDS = ("flip", "truncate", "delete_line", "repeat_line", "NaN", "1e999", "null", "[]", "tab", "nul", "ff")
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
LINE_FILES = (".tsv", ".txt", ".jsonl", ".trec")


def _mutate(data: bytes, kind: str, rng: random.Random) -> bytes:
    pos = rng.randrange(len(data) + 1)
    if kind == "flip":
        pos = min(pos, len(data) - 1)
        return data[:pos] + bytes([data[pos] ^ (1 << rng.randrange(8))]) + data[pos + 1:]
    if kind == "truncate":
        return data[:pos]
    if kind in ("delete_line", "repeat_line"):
        lines = data.splitlines(keepends=True)
        i = rng.randrange(len(lines))
        return b"".join(lines[:i] + lines[i + 1:] if kind == "delete_line" else lines[:i + 1] + lines[i:])
    inserted = {"tab": b"\t", "nul": b"\0", "ff": b"\xff"}.get(kind)
    if inserted is not None:
        return data[:pos] + inserted + data[pos:]
    numbers = list(NUMBER.finditer(data))
    if not numbers:
        return data[:pos] + kind.encode() + data[pos:]
    m = rng.choice(numbers)
    return data[:m.start()] + kind.encode() + data[m.end():]


@pytest.fixture(scope="module")
def task(tmp_path_factory):
    """The task's files, the argv of the command that reads each, and the other inputs each one constrains."""
    root = tmp_path_factory.mktemp("fuzz")
    data, out = root / "data", root / "out"
    out.mkdir()
    assert synthetic.main(["--out", str(data), "--docs", "40", "--queries", "10", "--vocab-size", "60"]) == 0
    config = {
        "name": "fuzz",
        "query": {"encoder": "mlp"},
        "doc": {"encoder": "mlp"},
        "supervision": {"loss": "contrastive", "steps": 2, "lr": 0.3},
        "top_k": 10,
        "backbone": {"seed": 5, "dim": 8},
        "paths": {name: f"data/{name}.{ext}" for name, ext in (
            ("vocab", "txt"), ("collection", "tsv"), ("queries", "tsv"), ("qrels", "txt"), ("triples", "jsonl"),
            ("expansions", "tsv"))},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    q_heads, d_heads = root / "q_heads.json", root / "d_heads.json"
    assert main(["train-head", "--config", str(config_path), "--output", str(q_heads),
                 "--doc-output", str(d_heads)]) == 0
    config["paths"].update(query_heads=q_heads.name, doc_heads=d_heads.name)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    common = ["--config", str(config_path)]
    encode_doc = ["encode", *common, "--side", "doc", "--input", str(data / "collection.tsv"),
                  "--output", str(out / "doc.jsonl")]
    encode_query = ["encode", *common, "--side", "query", "--input", str(data / "queries.tsv"),
                    "--output", str(out / "query.jsonl")]
    docs, queries, index, run = root / "doc.jsonl", root / "query.jsonl", root / "index", root / "run.trec"
    assert main([*encode_doc[:-1], str(docs)]) == 0
    assert main([*encode_query[:-1], str(queries)]) == 0
    assert main(["index", *common, "--vectors", str(docs), "--output", str(index)]) == 0
    search = ["search", *common, "--index", str(index), "--queries", str(queries), "--output", str(out / "run.trec")]
    assert main([*search[:-1], str(run)]) == 0
    evaluate = ["eval", "--run", str(run), "--qrels", str(data / "qrels.txt"), "--output", str(out / "metrics.json")]
    texts = [data / "collection.tsv", data / "queries.tsv", data / "expansions.tsv"]
    return {
        config_path: (encode_doc, [root]),  # a mangled path names the file it points at instead
        data / "vocab.txt": (encode_doc, texts),  # terms the texts use may go missing
        data / "collection.tsv": (encode_doc, [data / "expansions.tsv"]),  # doc ids the expansions name
        data / "queries.tsv": (encode_query, []),
        data / "expansions.tsv": (encode_doc, []),
        data / "triples.jsonl": (["train-head", *common, "--output", str(out / "q.json"),
                                  "--doc-output", str(out / "d.json")], []),
        data / "qrels.txt": (evaluate, []),
        q_heads: (encode_query, []),
        d_heads: (encode_doc, []),
        docs: (["index", *common, "--vectors", str(docs), "--output", str(out / "index")], []),
        queries: (search, []),
        index / "header.json": (search, [index]),  # load_index names the index directory
        run: (evaluate, []),
    }


def test_mutated_inputs_exit_0_1_or_2_naming_the_file(task, capsys):
    rng = random.Random(SEED)
    escapes = []
    for path, (argv, constrained) in task.items():
        original = path.read_bytes()
        try:
            for i in range(MUTATIONS_PER_FILE):
                kind = KINDS[i % len(KINDS)]
                path.write_bytes(_mutate(original, kind, rng))
                try:
                    code = main(argv)
                except Exception as e:  # noqa: BLE001 -- every escape is reported below
                    code = f"{type(e).__name__}: {e}"
                err = capsys.readouterr().err
                named = [p for p in [path, *constrained] if str(p) in err]
                unnumbered = code == 1 and any(
                    p.suffix in LINE_FILES and not re.search(re.escape(str(p)) + r":\d+: ", err) for p in named)
                if code not in (0, 1, 2) or (code != 0 and not named) or unnumbered:
                    escapes.append(f"{path.name} {kind}: {code} {err.strip()}")
        finally:
            path.write_bytes(original)
    assert not escapes, "\n".join(escapes)

