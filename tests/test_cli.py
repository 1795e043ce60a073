"""Configuration loading, ablation toggles, and the CLI subcommands end to end."""

import importlib.util
import itertools
import json
import math
import re
import shutil
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import heads_bytes, method_config
from lsrkit import encoders, pipeline
from lsrkit.cli import main
from lsrkit.config import BackboneConfig, SideConfig, SupervisionConfig, ValidationError, apply_toggle, load_config
from lsrkit.core import (
    SparseVector, TokenizedText, build_vocabulary, compute_corpus_stats, read_collection, read_vocabulary,
)
from lsrkit.encoders import EncoderKind, encode_bm25_doc, encode_bm25_query, Bm25Params, read_head_parameters
from lsrkit.index import Quantization, build_index, exhaustive_search
from lsrkit.regularization import RegularizerKind
from lsrkit.supervision import TrainResult
from lsrkit.synthetic import make_synthetic_task, write_task

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def make_workspace(tmp_path, **config_overrides):
    """Small synthetic task plus a config file pointing at it."""
    data = tmp_path / "data"
    task = make_synthetic_task(num_docs=50, num_queries=12, vocab_size=60, seed=5)
    write_task(task, data)
    config = {
        "name": "testcfg",
        "query": {"encoder": "mlp"},
        "doc": {"encoder": "mlp"},
        "shared_heads": False,
        "supervision": {"loss": "contrastive", "steps": 10, "lr": 0.3},
        "quantization": {"mode": "exact"},
        "top_k": 50,
        "backbone": {"seed": 5, "dim": 8},
        "paths": {
            "vocab": "data/vocab.txt",
            "collection": "data/collection.tsv",
            "queries": "data/queries.tsv",
            "qrels": "data/qrels.txt",
            "triples": "data/triples.jsonl",
            "expansions": "data/expansions.tsv",
        },
    }
    for key, value in config_overrides.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key].update(value)
        else:
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path, task


class TestConfigLoading:
    def test_bundled_configs_validate(self):
        names = sorted(p.name for p in CONFIG_DIR.glob("*.json"))
        assert len(names) == 14
        for p in sorted(CONFIG_DIR.glob("*.json")):
            config = load_config(p)
            assert config.name

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        path, _ = make_workspace(tmp_path)
        config = load_config(path)
        assert config.paths.vocab == (tmp_path / "data" / "vocab.txt").resolve()

    def test_unknown_encoder_rejected(self, tmp_path):
        path, _ = make_workspace(tmp_path, query={"encoder": "bert"})
        with pytest.raises(ValidationError):
            load_config(path)

    def test_exp_mlp_requires_expansions(self, tmp_path):
        path, _ = make_workspace(tmp_path, doc={"encoder": "exp_mlp"})
        config_obj = json.loads(path.read_text(encoding="utf-8"))
        del config_obj["paths"]["expansions"]
        path.write_text(json.dumps(config_obj), encoding="utf-8")
        with pytest.raises(ValidationError, match="expansions"):
            load_config(path)

    def test_shared_heads_requires_matching_kinds(self, tmp_path):
        path, _ = make_workspace(tmp_path, doc={"encoder": "mlm"}, shared_heads=True)
        with pytest.raises(ValidationError, match="shared_heads"):
            load_config(path)

    @pytest.mark.parametrize("option, value", [
        ("activation", "softplus"), ("log_normalize", False), ("quality_heads", True),
    ])
    def test_shared_heads_requires_matching_options(self, tmp_path, capsys, option, value):
        path, _ = make_workspace(
            tmp_path, query={"encoder": "mlm"}, doc={"encoder": "mlm", option: value}, shared_heads=True
        )
        assert main(_encode_doc_argv(path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "shared_heads" in err and option in err

    @pytest.mark.parametrize("overrides", [
        {"shared_heads": "false"},
        {"query": {"log_normalize": "false"}},
        {"doc": {"log_normalize": 0}},
        {"doc": {"quality_heads": "true"}},
        {"query": {"activation": "gelu"}},
        {"supervision": {"loss": "contrastiv"}},
    ], ids=["shared_heads", "query_log_normalize", "doc_log_normalize", "quality_heads", "activation", "loss"])
    def test_values_checked_not_coerced(self, tmp_path, capsys, overrides):
        """A flag must be a JSON boolean ("false" is not True) and an activation or
        loss one the code knows: exit 1 naming the config, before any encoding."""
        path, _ = make_workspace(tmp_path, **overrides)
        assert main(_encode_doc_argv(path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("overrides", [
        {"supervision": {"steps": 2.7}},
        {"supervision": {"steps": 0}},
        {"supervision": {"lr": True}},
        {"supervision": {"lr": math.nan}},
        {"supervision": {"lr": "0.3"}},
        {"backbone": {"dim": 8.9}},
        {"backbone": {"seed": True}},
        {"top_k": "50"},
        {"quantization": {"mode": "bits", "bits": 8.0}},
        {"doc": {"regularizer": {"kind": "topk", "k": 2.5}}},
        {"doc": {"regularizer": {"kind": "topk", "k": 0}}},
        {"doc": {"regularizer": {"kind": "topk"}}},
        {"query": {"regularizer": {"kind": "flops", "weight": math.inf}}},
        {"query": {"regularizer": {"kind": "flops", "weight": False}}},
    ], ids=[
        "steps_float", "steps_zero", "lr_bool", "lr_nan", "lr_string", "dim_float", "seed_bool", "top_k_string",
        "bits_float", "regularizer_k_float", "regularizer_topk_k_zero", "regularizer_topk_k_left_out",
        "regularizer_weight_inf", "regularizer_weight_bool",
    ])
    def test_numbers_checked_not_coerced(self, tmp_path, capsys, overrides):
        """Counts must be JSON integers and rates finite JSON numbers, no bool: exit 1 naming the config."""
        path, _ = make_workspace(tmp_path, **overrides)
        assert main(_encode_doc_argv(path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert not (tmp_path / "o.jsonl").exists()

    def test_integral_numbers_load(self, tmp_path):
        """An integer is a fine rate, and the checked values load as written."""
        path, _ = make_workspace(tmp_path, supervision={"steps": 3, "lr": 1}, top_k=7)
        config = load_config(path)
        assert (config.supervision.steps, config.supervision.lr, config.top_k) == (3, 1.0, 7)
        assert type(config.supervision.lr) is float

    @pytest.mark.parametrize("overrides, key", [
        ({"regulariser": {"kind": "flops", "weight": 0.1}}, "regulariser"),
        ({"query": {"regulariser": {"kind": "flops", "weight": 0.1}}}, "query.regulariser"),
        ({"doc": {"regularizer": {"kind": "flops", "wieght": 0.1}}}, "doc.regularizer.wieght"),
        ({"paths": {"colection": "data/collection.tsv"}}, "paths.colection"),
    ], ids=["top_level", "side", "regularizer", "paths"])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, overrides, key):
        """A misspelled key would silently configure another method: exit 1 naming the config and the key."""
        path, _ = make_workspace(tmp_path, **overrides)
        assert main(_encode_doc_argv(path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: unknown key {key}")
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("overrides, key", [
        ({"backbone": {"kind": "bert"}}, "backbone.kind"),
        ({"backbone": {"dim": 0}}, "backbone.dim"),
        ({"bm25": {"k1": True}}, "bm25.k1"),
        ({"bm25": {"k1": "0.9"}}, "bm25.k1"),
        ({"bm25": {"k1": math.nan}}, "bm25.k1"),
        ({"bm25": {"b": 1.5}}, "bm25.b"),
        ({"query": {"encoder": "spladee"}}, "query.encoder"),
        ({"name": "uni coil"}, "name"),
        ({"name": "unicoil\t"}, "name"),
        ({"name": ""}, "name"),
    ], ids=["backbone_kind", "backbone_dim", "k1_bool", "k1_string", "k1_nan", "b_range", "encoder",
            "name_space", "name_tab", "name_empty"])
    def test_bad_value_names_config_and_key(self, tmp_path, capsys, overrides, key):
        """Only the toy backbone exists, it needs a dimension, BM25's k1 and b are finite JSON
        numbers, and the name is one run file field (with whitespace, `search` would write lines
        that `eval` rejects): exit 1 naming the config file and the key, before any encoding."""
        path, _ = make_workspace(tmp_path, **overrides)
        assert main(_encode_doc_argv(path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {key} must be")
        assert not (tmp_path / "o.jsonl").exists()

    def test_nul_byte_in_path_names_the_key(self, tmp_path, capsys):
        """A path with a NUL byte cannot be opened: exit 1 naming the key, not the OS's "embedded null byte"."""
        path, _ = make_workspace(tmp_path, paths={"vocab": "data/vo\u0000cab.txt"})
        assert main(_encode_doc_argv(path, tmp_path)) == 1
        assert capsys.readouterr().err == f"error: {path}: paths.vocab must not contain a NUL byte\n"
        assert not (tmp_path / "o.jsonl").exists()

    def test_absent_sections_take_the_dataclass_defaults(self, tmp_path):
        path, _ = make_workspace(tmp_path)
        config_obj = json.loads(path.read_text(encoding="utf-8"))
        for key in ("shared_heads", "supervision", "quantization", "top_k", "backbone"):
            del config_obj[key]
        path.write_text(json.dumps(config_obj), encoding="utf-8")
        config = load_config(path)
        assert config.supervision == SupervisionConfig() and config.quantization == Quantization()
        assert config.backbone == BackboneConfig() and config.bm25 == Bm25Params()
        assert (config.shared_heads, config.top_k) == (False, 100)
        assert (config.backbone_seed, config.backbone_dim) == (0, 16)

    def test_perfbench_workload_configs_load(self, tmp_path, monkeypatch):
        """Each benchmark workload's method body, as `workloads.prepare` writes it over
        the bundled toy data, loads: a rejection there would fail every benchmark run."""
        spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        cache = tmp_path / "cache"
        for workload in workloads.WORKLOADS.values():
            task_dir = cache / f"{workload.shape.key}-s1"
            shutil.copytree(ROOT / "data" / "toy", task_dir, dirs_exist_ok=True)
            (task_dir / "done").write_text("", encoding="utf-8")
            config = load_config(workloads.prepare(workload, 1, cache, tmp_path))
            assert config.name == workload.method["name"]
            assert config.backbone_seed == workload.method.get("backbone", {}).get("seed", 0)

    def test_missing_required_paths_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"name": "x", "query": {"encoder": "mlp"}, "doc": {"encoder": "mlp"}, "paths": {}}), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_config(path)


class TestToggles:
    def _config(self, tmp_path, **overrides):
        path, _ = make_workspace(tmp_path, **overrides)
        return load_config(path)

    def test_query_encoder_toggle(self, tmp_path):
        config = self._config(tmp_path, query={"encoder": "mlm"}, doc={"encoder": "mlm"})
        variant = apply_toggle(config, "query_encoder=mlp")
        assert variant.query.encoder is EncoderKind.MLP
        assert variant.doc.encoder is EncoderKind.MLM
        assert variant.name.endswith("query_encoder=mlp")

    def test_encoder_toggle_unshares_heads(self, tmp_path):
        config = self._config(
            tmp_path, query={"encoder": "mlm"}, doc={"encoder": "mlm"}, shared_heads=True
        )
        variant = apply_toggle(config, "query_encoder=mlp")
        assert not variant.shared_heads

    def test_regularizer_toggle(self, tmp_path):
        config = self._config(tmp_path)
        variant = apply_toggle(config, "regularizer=topk:20")
        assert variant.query.regularizer.kind is RegularizerKind.TOPK
        assert variant.query.regularizer.k == 20
        variant = apply_toggle(config, "regularizer=flops:0.1")
        assert variant.doc.regularizer.weight == 0.1

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5", "NaN", "Infinity"])
    def test_regularizer_toggle_weight_must_be_finite(self, tmp_path, value):
        """A toggle's weight meets the same JSON-number, finite, non-negative rule as a config's."""
        config = self._config(tmp_path)
        if value in ("nan", "inf"):  # not JSON, so read as a string
            match = "regularizer.weight must be a JSON number"
        else:
            match = "regularizer.weight: penalty coefficient must be finite and >= 0"
        with pytest.raises(ValidationError, match=match):
            apply_toggle(config, f"regularizer=flops:{value}")

    def test_value_nested_too_deeply_is_read_as_text(self, tmp_path):
        """A value nested deeper than the JSON parser can recurse is no JSON, so it is read as the
        string itself and fails the key's type check, not with a RecursionError."""
        config = self._config(tmp_path)
        with pytest.raises(ValidationError, match="shared_heads must be a JSON boolean"):
            apply_toggle(config, "shared_heads=" + "[" * 3000 + "]" * 3000)

    def test_unknown_key_rejected(self, tmp_path):
        config = self._config(tmp_path)
        with pytest.raises(ValidationError, match="exactly one"):
            apply_toggle(config, "backbone=big")
        with pytest.raises(ValidationError):
            apply_toggle(config, "query_encoder=mlp=extra")


class TestCliCommands:
    def _encode(self, config_path, tmp_path, side, input_name, out_name):
        out = tmp_path / out_name
        code = main([
            "encode", "--config", str(config_path), "--side", side,
            "--input", str(tmp_path / "data" / input_name), "--output", str(out),
        ])
        assert code == 0
        return out

    def test_full_pipeline_and_expected_exit_codes(self, tmp_path, capsys):
        config_path, task = make_workspace(tmp_path)
        docs_out = self._encode(config_path, tmp_path, "doc", "collection.tsv", "docs.jsonl")
        queries_out = self._encode(config_path, tmp_path, "query", "queries.tsv", "queries.jsonl")

        index_dir = tmp_path / "index"
        assert main(["index", "--config", str(config_path), "--vectors", str(docs_out), "--output", str(index_dir)]) == 0
        run_path = tmp_path / "run.trec"
        assert main(["search", "--config", str(config_path), "--index", str(index_dir), "--queries", str(queries_out), "--output", str(run_path)]) == 0
        metrics_path = tmp_path / "metrics.json"
        assert main(["eval", "--run", str(run_path), "--qrels", str(tmp_path / "data" / "qrels.txt"), "--output", str(metrics_path)]) == 0
        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert set(metrics) == {"mrr@10", "ndcg@10", "recall@1000"}
        assert all(0.0 <= v <= 1.0 for v in metrics.values())

    def test_encode_is_deterministic(self, tmp_path):
        config_path, _ = make_workspace(tmp_path)
        a = self._encode(config_path, tmp_path, "doc", "collection.tsv", "a.jsonl")
        b = self._encode(config_path, tmp_path, "doc", "collection.tsv", "b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_binary_encode_record_shape(self, tmp_path):
        config_path, task = make_workspace(tmp_path, query={"encoder": "binary"})
        out = self._encode(config_path, tmp_path, "query", "queries.tsv", "q.jsonl")
        first = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
        assert set(first) == {"id", "vector"}
        assert all(w == 1.0 for w in first["vector"].values())
        expected = task.queries[0]
        assert set(first["vector"]) == {task.vocab.terms[t] for t in expected.token_ids}

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        config_path, _ = make_workspace(tmp_path)
        code = main([
            "encode", "--config", str(config_path), "--side", "doc",
            "--input", str(tmp_path / "nope.tsv"), "--output", str(tmp_path / "o.jsonl"),
        ])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_size_beyond_memory_exits_1(self, tmp_path, capsys):
        # numpy refuses the 60 x 10^15 backbone table before it allocates anything
        config_path, _ = make_workspace(tmp_path, backbone={"dim": 10**15})
        code = main([
            "encode", "--config", str(config_path), "--side", "doc",
            "--input", str(tmp_path / "data" / "collection.tsv"), "--output", str(tmp_path / "o.jsonl"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: out of memory")
        assert not (tmp_path / "o.jsonl").exists()

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        config_path, _ = make_workspace(tmp_path, query={"encoder": "bert"})
        code = main([
            "encode", "--config", str(config_path), "--side", "doc",
            "--input", str(tmp_path / "data" / "collection.tsv"), "--output", str(tmp_path / "o.jsonl"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_vocab_mismatch_detected(self, tmp_path, capsys):
        config_path, _ = make_workspace(tmp_path)
        docs_out = self._encode(config_path, tmp_path, "doc", "collection.tsv", "docs.jsonl")
        queries_out = self._encode(config_path, tmp_path, "query", "queries.tsv", "queries.jsonl")
        index_dir = tmp_path / "index"
        assert main(["index", "--config", str(config_path), "--vectors", str(docs_out), "--output", str(index_dir)]) == 0
        # point the config at a different vocab file (two term ids swapped) and search the same index
        other = tmp_path / "other"
        other_config, _ = make_workspace(other)
        vocab_path = other / "data" / "vocab.txt"
        terms = vocab_path.read_text(encoding="utf-8").splitlines()
        terms[0], terms[1] = terms[1], terms[0]
        vocab_path.write_text("".join(t + "\n" for t in terms), encoding="utf-8")
        code = main(["search", "--config", str(other_config), "--index", str(index_dir), "--queries", str(queries_out), "--output", str(tmp_path / "r.trec")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"index {index_dir} was built with vocab" in err and f"{vocab_path} differs" in err

    def test_moved_workspace_searches(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        config_path, _ = make_workspace(a)
        docs_out = self._encode(config_path, a, "doc", "collection.tsv", "docs.jsonl")
        self._encode(config_path, a, "query", "queries.tsv", "queries.jsonl")
        assert main(["index", "--config", str(config_path), "--vectors", str(docs_out), "--output", str(a / "index")]) == 0
        shutil.copytree(a, b)
        for ws in (a, b):
            assert main(["search", "--config", str(ws / "config.json"), "--index", str(ws / "index"), "--queries", str(ws / "queries.jsonl"), "--output", str(ws / "r.trec")]) == 0
        assert (a / "r.trec").read_bytes() == (b / "r.trec").read_bytes()

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_corrupt_index_exits_1(self, tmp_path, capsys, damage):
        config_path, _ = make_workspace(tmp_path)
        docs_out = self._encode(config_path, tmp_path, "doc", "collection.tsv", "docs.jsonl")
        queries_out = self._encode(config_path, tmp_path, "query", "queries.tsv", "queries.jsonl")
        index_dir = tmp_path / "index"
        assert main(["index", "--config", str(config_path), "--vectors", str(docs_out), "--output", str(index_dir)]) == 0
        payload = bytearray((index_dir / "postings.bin").read_bytes())
        if damage == "truncate":
            del payload[len(payload) // 2:]
        else:
            payload[len(payload) // 2] ^= 0x01
        (index_dir / "postings.bin").write_bytes(bytes(payload))
        capsys.readouterr()
        code = main(["search", "--config", str(config_path), "--index", str(index_dir), "--queries", str(queries_out), "--output", str(tmp_path / "r.trec")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("doc_id", ["d 1", "", "d1\t"])
    def test_index_doc_id_with_whitespace_exits_1(self, tmp_path, capsys, doc_id):
        """An index whose header gives such a doc id would write run lines that `eval` refuses: `search`
        is exit 1 naming the index as corrupt, with no run written."""
        config_path, _ = make_workspace(tmp_path)
        docs_out = self._encode(config_path, tmp_path, "doc", "collection.tsv", "docs.jsonl")
        queries_out = self._encode(config_path, tmp_path, "query", "queries.tsv", "queries.jsonl")
        index_dir, run_path = tmp_path / "index", tmp_path / "run.trec"
        assert main(["index", "--config", str(config_path), "--vectors", str(docs_out), "--output", str(index_dir)]) == 0
        header = json.loads((index_dir / "header.json").read_text(encoding="utf-8"))
        header["doc_table"][2] = doc_id
        (index_dir / "header.json").write_text(json.dumps(header), encoding="utf-8")
        capsys.readouterr()
        assert main(["search", "--config", str(config_path), "--index", str(index_dir), "--queries", str(queries_out),
                     "--output", str(run_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: corrupt index in {index_dir}: doc ids must be nonempty with no whitespace\n"
        assert not run_path.exists()

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", "-1.5", '"0.5"', "true"])
    def test_bad_vector_weight_exits_1(self, tmp_path, capsys, weight):
        config_path, task = make_workspace(tmp_path)
        vectors = tmp_path / "docs.jsonl"
        term = task.vocab.terms[0]
        vectors.write_text(f'{{"id": "a", "vector": {{"{term}": 1.0}}}}\n{{"id": "b", "vector": {{"{term}": {weight}}}}}\n', encoding="utf-8")
        code = main(["index", "--config", str(config_path), "--vectors", str(vectors), "--output", str(tmp_path / "index")])
        assert code == 1
        assert f"{vectors}:2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["index", "search"])
    def test_repeated_vector_id_exits_1(self, tmp_path, capsys, command):
        """A doc id twice would break the index build, a query id twice would keep only
        one ranking: exit 1 naming path:line, with nothing written."""
        config_path, task = make_workspace(tmp_path)
        term = task.vocab.terms[0]
        record = f'{{"id": "a", "vector": {{"{term}": 1.0}}}}\n'
        vectors, repeated = tmp_path / "docs.jsonl", tmp_path / "repeated.jsonl"
        vectors.write_text(record, encoding="utf-8")
        repeated.write_text(record * 2, encoding="utf-8")
        index_dir, out = tmp_path / "index", tmp_path / "out"
        assert main(["index", "--config", str(config_path), "--vectors", str(vectors), "--output", str(index_dir)]) == 0
        capsys.readouterr()
        if command == "index":
            argv = ["index", "--config", str(config_path), "--vectors", str(repeated), "--output", str(out)]
        else:
            argv = ["search", "--config", str(config_path), "--index", str(index_dir), "--queries", str(repeated),
                    "--output", str(out)]
        assert main(argv) == 1
        assert f"{repeated}:2: bad vector record (repeated id 'a', first on line 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("vid", ["d 1", "", "d1\n"])
    @pytest.mark.parametrize("command", ["index", "search"])
    def test_vector_id_with_whitespace_exits_1(self, tmp_path, capsys, command, vid):
        """Such an id would give a run line that `eval` rejects: exit 1 naming path:line, with nothing written."""
        config_path, task = make_workspace(tmp_path)
        term = task.vocab.terms[0]
        vectors, bad = tmp_path / "docs.jsonl", tmp_path / "bad.jsonl"
        vectors.write_text(json.dumps({"id": "a", "vector": {term: 1.0}}) + "\n", encoding="utf-8")
        bad.write_text(vectors.read_text(encoding="utf-8") + json.dumps({"id": vid, "vector": {term: 1.0}}) + "\n",
                       encoding="utf-8")
        index_dir, out = tmp_path / "index", tmp_path / "out"
        assert main(["index", "--config", str(config_path), "--vectors", str(vectors), "--output", str(index_dir)]) == 0
        capsys.readouterr()
        if command == "index":
            argv = ["index", "--config", str(config_path), "--vectors", str(bad), "--output", str(out)]
        else:
            argv = ["search", "--config", str(config_path), "--index", str(index_dir), "--queries", str(bad),
                    "--output", str(out)]
        assert main(argv) == 1
        assert f"{bad}:2: bad vector record (id must be a nonempty string with no whitespace" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc_id", ["d 1", "", " d1"])
    @pytest.mark.parametrize("input_name", ["collection.tsv", "queries.tsv"])
    def test_text_id_with_whitespace_exits_1(self, tmp_path, capsys, input_name, doc_id):
        """Such an id would give a run line that `eval` rejects: exit 1 naming path:line."""
        config_path, task = make_workspace(tmp_path)
        path = tmp_path / "data" / input_name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(2, f"{doc_id}\t{task.vocab.terms[0]}")
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert main(_encode_doc_argv(config_path, tmp_path)) == 1
        assert f"{path}:3: id {doc_id!r} is empty or contains whitespace" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("input_name", ["collection.tsv", "queries.tsv"])
    def test_repeated_text_id_exits_1(self, tmp_path, capsys, input_name):
        config_path, _ = make_workspace(tmp_path)
        path = tmp_path / "data" / input_name
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(line + "\n" for line in lines + [lines[2]]), encoding="utf-8")
        assert main(_encode_doc_argv(config_path, tmp_path)) == 1
        doc_id = lines[2].split("\t")[0]
        err = capsys.readouterr().err
        assert f"{path}:{len(lines) + 1}: repeated id {doc_id!r} (first on line 3)" in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("case", ["no_doc_output", "same_path", "same_file_relative"])
    def test_train_head_keeps_unshared_query_heads(self, tmp_path, capsys, monkeypatch, case):
        """With separate heads, doc heads written to --output would replace the query
        heads there: exit 1 before training, with no heads file written."""
        config_path, _ = make_workspace(tmp_path)

        def run_train(*args, **kwargs):
            raise AssertionError("trained before checking --doc-output")

        monkeypatch.setattr(pipeline, "run_train", run_train)
        q_out = tmp_path / "q_heads.json"
        argv = ["train-head", "--config", str(config_path), "--output", str(q_out)]
        if case == "same_path":
            argv += ["--doc-output", str(q_out)]
        elif case == "same_file_relative":
            monkeypatch.chdir(tmp_path)
            argv += ["--doc-output", q_out.name]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}:") and "--doc-output" in err
        assert not q_out.exists()

    def test_missing_teacher_score_exits_1_before_embedding(self, tmp_path, capsys, monkeypatch):
        """A margin_mse triple without teacher scores is exit 1 naming the triples file and the
        triple's query and positive ids, before any text is embedded."""
        config_path, _ = make_workspace(tmp_path, supervision={"loss": "margin_mse"})
        triples = tmp_path / "data" / "triples.jsonl"
        records = [json.loads(line) for line in triples.read_text(encoding="utf-8").splitlines()]
        del records[2]["teacher"]
        triples.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        embedded = []
        backbone = pipeline.toy_backbone
        monkeypatch.setattr(pipeline, "toy_backbone", lambda *args: embedded.append(args) or backbone(*args))
        assert main(["train-head", "--config", str(config_path), "--output", str(tmp_path / "q.json"),
                     "--doc-output", str(tmp_path / "d.json")]) == 1
        err = capsys.readouterr().err
        assert str(triples.resolve()) in err and "margin_mse requires teacher scores" in err
        assert repr(records[2]["q"]) in err and repr(records[2]["pos"]) in err
        assert embedded == []

    @pytest.mark.parametrize("field, value", [
        ("pos", "nan"), ("pos", math.nan), ("negs", True), ("negs", "1e1"), ("negs", 10**400),
    ], ids=["pos_string", "pos_nan", "neg_bool", "neg_string", "neg_overflows_float"])
    def test_bad_teacher_score_exits_1(self, tmp_path, capsys, field, value):
        """A teacher score is a finite JSON number: anything else is exit 1 naming
        path:line and the field, not a training run that ends in a NaN loss."""
        config_path, _ = make_workspace(tmp_path, supervision={"loss": "margin_mse", "steps": 2})
        triples = tmp_path / "data" / "triples.jsonl"
        records = [json.loads(line) for line in triples.read_text(encoding="utf-8").splitlines()]
        if field == "pos":
            records[1]["teacher"]["pos"] = value
        else:
            records[1]["teacher"]["negs"][-1] = value
        triples.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        q_out = tmp_path / "q.json"
        assert main(["train-head", "--config", str(config_path), "--output", str(q_out),
                     "--doc-output", str(tmp_path / "d.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{triples.resolve()}:2:" in err and f"teacher.{field}" in err
        assert not q_out.exists()

    @pytest.mark.parametrize("loss", ["contrastive", "margin_mse"])
    def test_triple_without_negatives_exits_1_before_embedding(self, tmp_path, capsys, monkeypatch, loss):
        """Both losses compare the positive with the negatives, so a triple with none is exit 1
        naming the triples file and the triple's query and positive ids, before any text is embedded."""
        config_path, _ = make_workspace(tmp_path, supervision={"loss": loss})
        triples = tmp_path / "data" / "triples.jsonl"
        records = [json.loads(line) for line in triples.read_text(encoding="utf-8").splitlines()]
        records[2]["negs"] = records[2]["teacher"]["negs"] = []
        triples.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        embedded = []
        backbone = pipeline.toy_backbone
        monkeypatch.setattr(pipeline, "toy_backbone", lambda *args: embedded.append(args) or backbone(*args))
        assert main(["train-head", "--config", str(config_path), "--output", str(tmp_path / "q.json"),
                     "--doc-output", str(tmp_path / "d.json")]) == 1
        err = capsys.readouterr().err
        assert str(triples.resolve()) in err and f"{loss} requires negatives" in err
        assert repr(records[2]["q"]) in err and repr(records[2]["pos"]) in err
        assert embedded == []

    def test_diverged_training_exits_1_naming_a_tensor(self, tmp_path, capsys):
        """A finite loss can still end in heads no heads file holds: one step at an lr the loader takes,
        from doc heads 1e8 times their seeded scale, drives the query heads' mlp_weight past the float
        range.  Exit 1 naming the side and a tensor, with neither heads file written."""
        start = encoders.init_head_parameters(60, 8, 5, mlp_log_normalize=False)
        start.mlp_weight = start.mlp_weight * 1e8
        encoders.write_head_parameters(start, tmp_path / "start.json")
        side = {"encoder": "mlp", "log_normalize": False}
        config_path, _ = make_workspace(tmp_path, query=side, doc=side, supervision={"steps": 1, "lr": 1e306},
                                        paths={"doc_heads": str(tmp_path / "start.json")})
        q_out, d_out = tmp_path / "q.json", tmp_path / "d.json"
        code = main(["train-head", "--config", str(config_path), "--output", str(q_out), "--doc-output", str(d_out)])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: training diverged: the query heads' tensor \w+ holds (nan|-?inf), not a finite "
                            r"number\n", err), err
        assert not q_out.exists() and not d_out.exists()

    def test_diverging_loss_stops_at_its_step_with_one_line(self, tmp_path, capsys):
        """An lr of 1e300 makes the loss NaN from step 2: training stops there, before that step's update,
        with exactly one line on stderr (no numpy warning), exit 1 and no heads file."""
        side = {"encoder": "mlp", "log_normalize": False}
        config_path, _ = make_workspace(tmp_path, query=side, doc=side, supervision={"steps": 100, "lr": 1e300})
        q_out, d_out = tmp_path / "q.json", tmp_path / "d.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train-head", "--config", str(config_path), "--output", str(q_out), "--doc-output",
                         str(d_out)])
        assert code == 1
        assert capsys.readouterr().err == "error: training diverged at step 2 of 100: the loss is nan\n"
        assert [str(w.message) for w in caught] == []
        assert not q_out.exists() and not d_out.exists()

    def test_non_finite_final_loss_exits_1(self, tmp_path, capsys, monkeypatch):
        config_path, _ = make_workspace(tmp_path)
        heads = encoders.init_head_parameters(60, 8, 5)
        monkeypatch.setattr(pipeline, "run_train", lambda *args: TrainResult(heads, heads, [1.0, math.inf]))
        q_out, d_out = tmp_path / "q.json", tmp_path / "d.json"
        assert main(["train-head", "--config", str(config_path), "--output", str(q_out), "--doc-output", str(d_out)]) == 1
        assert capsys.readouterr().err == "error: training diverged: the final loss is inf\n"
        assert not q_out.exists() and not d_out.exists()

    def test_train_head_shared_heads_need_one_output(self, tmp_path):
        config_path, _ = make_workspace(tmp_path, query={"encoder": "mlm"}, doc={"encoder": "mlm"}, shared_heads=True)
        q_out = tmp_path / "heads.json"
        assert main(["train-head", "--config", str(config_path), "--output", str(q_out)]) == 0
        assert read_head_parameters(q_out).mlp_weight.shape == (8,)

    @pytest.mark.parametrize(
        "case", ["nan_score", "inf_score", "run_duplicate", "qrels_duplicate", "rising_score", "negative_grade"]
    )
    def test_bad_run_or_qrels_exits_1(self, tmp_path, capsys, case):
        """A non-finite score, a score rising down a ranking, a (qid, doc) twice in a run or
        in qrels, or a negative grade is exit 1 naming path:line (a NaN top score compares
        as neither higher nor lower than the rest)."""
        run_path, qrels_path = tmp_path / "run.trec", tmp_path / "qrels.txt"
        run = ["q1 Q0 a 1 2.0 t", "q1 Q0 b 2 1.0 t", "q2 Q0 a 1 1.0 t"]
        qrels = ["q1 0 a 1", "q1 0 b 0", "q2 0 b 1"]
        if case == "nan_score":
            run[0] = "q1 Q0 a 1 nan t"
            bad, line = run_path, 1
        elif case == "inf_score":
            run[1] = "q1 Q0 b 2 -inf t"
            bad, line = run_path, 2
        elif case == "run_duplicate":
            run[1] = "q1 Q0 a 2 1.0 t"
            bad, line = run_path, 2
        elif case == "qrels_duplicate":
            qrels.append("q1 0 a 0")
            bad, line = qrels_path, 4
        elif case == "rising_score":
            run[1] = "q1 Q0 b 2 3.0 t"
            bad, line = run_path, 2
        else:
            qrels[1] = "q1 0 b -1"
            bad, line = qrels_path, 2
        run_path.write_text("".join(r + "\n" for r in run), encoding="utf-8")
        qrels_path.write_text("".join(q + "\n" for q in qrels), encoding="utf-8")
        code = main(["eval", "--run", str(run_path), "--qrels", str(qrels_path), "--output", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and f"{bad}:{line}:" in err

    def test_train_head_writes_parameters(self, tmp_path):
        config_path, _ = make_workspace(tmp_path)
        q_out = tmp_path / "q_heads.json"
        d_out = tmp_path / "d_heads.json"
        code = main([
            "train-head", "--config", str(config_path),
            "--output", str(q_out), "--doc-output", str(d_out),
        ])
        assert code == 0
        heads = read_head_parameters(q_out)
        assert heads.mlp_weight.shape == (8,)
        assert d_out.exists()

    def test_bm25_pipeline_matches_standalone_oracle(self, tmp_path):
        config_path, task = make_workspace(
            tmp_path,
            query={"encoder": "bm25_query"},
            doc={"encoder": "bm25_doc"},
            quantization={"mode": "exact"},
        )
        docs_out = self._encode(config_path, tmp_path, "doc", "collection.tsv", "docs.jsonl")
        queries_out = self._encode(config_path, tmp_path, "query", "queries.tsv", "queries.jsonl")
        index_dir = tmp_path / "index"
        assert main(["index", "--config", str(config_path), "--vectors", str(docs_out), "--output", str(index_dir)]) == 0
        run_path = tmp_path / "run.trec"
        assert main(["search", "--config", str(config_path), "--index", str(index_dir), "--queries", str(queries_out), "--output", str(run_path)]) == 0

        # independent pipeline: encode with library calls, rank with the oracle
        vocab = read_vocabulary(tmp_path / "data" / "vocab.txt")
        docs = list(read_collection(tmp_path / "data" / "collection.tsv", vocab))
        queries = list(read_collection(tmp_path / "data" / "queries.tsv", vocab))
        stats = compute_corpus_stats(docs)
        params = Bm25Params()
        doc_vecs = [(d.doc_id, v) for d, v in zip(docs, encode_bm25_doc(docs, stats, params))]
        from lsrkit.evaluation import read_run

        run = read_run(run_path)
        for q in queries:
            expected = exhaustive_search(encode_bm25_query(q, stats), doc_vecs, k=50)
            got = run.rankings.get(q.doc_id, [])
            assert [d for d, _ in got] == [d for d, _ in expected]
            for (_, a), (_, b) in zip(got, expected):
                assert a == pytest.approx(b, rel=5e-6)  # run file stores 6 significant digits

    def test_bm25_doc_on_a_collection_of_empty_docs_names_the_file(self, tmp_path, capsys):
        config_path, task = make_workspace(tmp_path, query={"encoder": "bm25_query"}, doc={"encoder": "bm25_doc"})
        collection = tmp_path / "data" / "collection.tsv"
        collection.write_text("".join(f"{d.doc_id}\t\n" for d in task.docs), encoding="utf-8")
        code = main([
            "encode", "--config", str(config_path), "--side", "doc",
            "--input", str(tmp_path / "data" / "queries.tsv"), "--output", str(tmp_path / "o.jsonl"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {collection.resolve()}: every document is empty, so BM25 doc "
                                           "weights are undefined (no average doc length)\n")

    def test_weight_beyond_the_float_range_exits_1_keeping_the_output(self, tmp_path, capsys):
        """k1 = 1e308 overflows BM25 doc weights to infinity, which no SparseVector holds: exit 1 naming the
        text and its term, with the file already at the output path left byte for byte."""
        config_path, task = make_workspace(tmp_path, query={"encoder": "bm25_query"}, doc={"encoder": "bm25_doc"},
                                           bm25={"k1": 1e308, "b": 1.0})
        out = tmp_path / "o.jsonl"
        out.write_bytes(b"earlier\n")
        assert main(["encode", "--config", str(config_path), "--side", "doc",
                     "--input", str(tmp_path / "data" / "collection.tsv"), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        named = re.fullmatch(r"error: text '(\S+)': term \d+ has weight (inf|nan), not a finite number > 0\n", err)
        assert named and named.group(1) in {d.doc_id for d in task.docs}
        assert out.read_bytes() == b"earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data", "o.jsonl"]


class TestAblate:
    def test_base_row_only(self, tmp_path, capsys):
        config_path, _ = make_workspace(tmp_path)
        out = tmp_path / "report.json"
        code = main([
            "ablate", "--config", str(config_path), "--output", str(out),
            "--workdir", str(tmp_path / "work"), "--recall-k", "50",
        ])
        assert code == 0
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert len(rows) == 1 and rows[0]["name"] == "testcfg"
        table = capsys.readouterr().out
        assert "ops_count" in table and "testcfg" in table

    def test_query_mlm_to_mlp_reduces_ops_and_keeps_doc_nnz(self, tmp_path):
        config_path, _ = make_workspace(
            tmp_path, query={"encoder": "mlm"}, doc={"encoder": "mlm"}
        )
        out = tmp_path / "report.json"
        code = main([
            "ablate", "--config", str(config_path), "--output", str(out),
            "--workdir", str(tmp_path / "work"),
            "--toggle", "query_encoder=mlp", "--recall-k", "50",
        ])
        assert code == 0
        base, variant = json.loads(out.read_text(encoding="utf-8"))
        # MLP queries keep only input terms, so fewer posting lists are touched
        assert variant["ops_count"] < base["ops_count"]
        assert variant["mean_doc_nnz"] == base["mean_doc_nnz"]
        assert variant["mean_query_nnz"] < base["mean_query_nnz"]

    def test_doc_binary_to_mlp_adds_weighting(self, tmp_path):
        config_path, _ = make_workspace(
            tmp_path,
            query={"encoder": "binary"},
            doc={"encoder": "binary"},
            quantization={"mode": "exact"},
        )
        out = tmp_path / "report.json"
        code = main([
            "ablate", "--config", str(config_path), "--output", str(out),
            "--workdir", str(tmp_path / "work"),
            "--toggle", "doc_encoder=mlp", "--recall-k", "50",
        ])
        assert code == 0
        base, variant = json.loads(out.read_text(encoding="utf-8"))
        assert variant["mean_doc_nnz"] <= base["mean_doc_nnz"]
        # the variant assigns graded term weights where binary stored only 1.0
        first = json.loads((tmp_path / "work" / "variant_0" / "docs.jsonl").read_text(encoding="utf-8").splitlines()[0])
        weights = list(first["vector"].values())
        assert len(set(weights)) > 1 or weights[0] != 1.0

    def test_rows_share_one_resources(self, tmp_path, monkeypatch):
        """A trained ablation reads its data and builds its backbone table once for all its rows."""
        config_path, _ = make_workspace(tmp_path, query={"encoder": "mlm"}, doc={"encoder": "mlm"}, shared_heads=True)
        config = load_config(config_path)
        loads, builds = [], []
        load, table = pipeline.load_resources, pipeline.backbone_table
        monkeypatch.setattr(pipeline, "load_resources", lambda *args: loads.append(args) or load(*args))
        monkeypatch.setattr(pipeline, "backbone_table", lambda *args: builds.append(args) or table(*args))
        toggles = ["query_encoder=mlp", "regularizer=l1:0.01", "shared_heads=false"]
        reports = pipeline.run_ablation(config, toggles, tmp_path / "work", config.backbone_seed,
                                        train=True, recall_k=50)
        assert len(reports) == 4
        assert len(loads) == 1 and len(builds) == 1

    def test_trained_variant_keeps_the_unchanged_side(self, tmp_path, monkeypatch):
        """With training, an encoder toggle retrains only the changed side: the heads the
        variant row encodes its other side with are bitwise the base row's, and
        `run_train(keep=...)` gives the variant's heads on its own."""
        config_path, _ = make_workspace(tmp_path, query={"encoder": "mlm"}, doc={"encoder": "mlm"}, shared_heads=True)
        config = load_config(config_path)
        received = []
        run_pipeline = pipeline.run_pipeline

        def recording(config, workdir, seed, **kwargs):
            received.append({"query": kwargs["query_heads"], "doc": kwargs["doc_heads"]})
            return run_pipeline(config, workdir, seed, **kwargs)

        monkeypatch.setattr(pipeline, "run_pipeline", recording)
        toggles = {"doc_encoder=mlp": "query", "query_encoder=mlp": "doc"}
        pipeline.run_ablation(config, list(toggles), tmp_path / "work", config.backbone_seed, train=True, recall_k=50)
        base = received[0]
        for (toggle, kept), row in zip(toggles.items(), received[1:]):
            changed = "doc" if kept == "query" else "query"
            assert heads_bytes(row[kept]) == heads_bytes(base[kept]), toggle
            assert heads_bytes(row[changed]) != heads_bytes(base[changed]), toggle
            alone = pipeline.run_train(apply_toggle(config, toggle), config.backbone_seed, keep={kept: base[kept]})
            for side in ("query", "doc"):
                assert heads_bytes(getattr(alone, f"{side}_heads")) == heads_bytes(row[side]), (toggle, side)

    def test_bad_toggle_exits_1(self, tmp_path, capsys):
        """A bad toggle fails before the base row runs, naming the toggle and its config key."""
        config_path, _ = make_workspace(tmp_path)
        cases = [
            ("query_encoder=mlp,doc_encoder=mlm", "query.encoder", []),
            ("query_encoder=spladee", "query.encoder", []),
            ("regularizer=topk:2.5", "regularizer.k", ["--train"]),
            ("regularizer=topk", "regularizer.k", []),  # k left out is 0, which would empty every vector
            ("regularizer=topk:0", "regularizer.k", []),
            ("shared_heads=yes", "shared_heads", []),
            ("regularizer=flops: 0.1", "name", []),  # a toggle joins its row's name, one run file field
            ("shared_heads= true", "name", []),
        ]
        for toggle, key, extra in cases:
            capsys.readouterr()
            code = main([
                "ablate", "--config", str(config_path), "--output", str(tmp_path / "r.json"),
                "--workdir", str(tmp_path / "work"), "--toggle", "query_encoder=mlp", "--toggle", toggle, *extra,
            ])
            assert code == 1
            err = capsys.readouterr().err
            assert toggle in err and key in err, err
            assert not (tmp_path / "work").exists()
            assert not (tmp_path / "r.json").exists()

    def test_bad_recall_k_exits_1_before_any_run(self, tmp_path, capsys):
        config_path, _ = make_workspace(tmp_path)
        code = main([
            "ablate", "--config", str(config_path), "--output", str(tmp_path / "r.json"),
            "--workdir", str(tmp_path / "work"), "--recall-k", "0", "--train",
        ])
        assert code == 1
        assert "recall@0" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()


def _encode_doc_argv(config_path, tmp_path):
    return [
        "encode", "--config", str(config_path), "--side", "doc",
        "--input", str(tmp_path / "data" / "collection.tsv"), "--output", str(tmp_path / "o.jsonl"),
    ]


class TestMalformedJson:
    """A JSON input of the wrong shape is exit 1 naming the file, never a traceback."""

    @pytest.mark.parametrize("case", [
        "vector_not_object", "record_not_object", "triple_not_object", "negs_not_list", "teacher_negs_not_list",
        "regularizer_not_object", "config_not_object", "heads_without_tensors",
    ])
    def test_exits_1(self, tmp_path, capsys, case):
        config_path, _ = make_workspace(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        bad = tmp_path / "bad.jsonl"
        if case in ("vector_not_object", "record_not_object"):
            bad.write_text('{"id": "d1", "vector": [1]}\n' if case == "vector_not_object" else "[1, 2]\n", encoding="utf-8")
            argv = ["index", "--config", str(config_path), "--vectors", str(bad), "--output", str(tmp_path / "index")]
            where = f"{bad}:1"
        elif case == "triple_not_object":
            (tmp_path / "data" / "triples.jsonl").write_text("[1]\n", encoding="utf-8")
            argv = ["train-head", "--config", str(config_path), "--output", str(tmp_path / "heads.json"),
                    "--doc-output", str(tmp_path / "d_heads.json")]
            where = "triples.jsonl:1"
        elif case in ("negs_not_list", "teacher_negs_not_list"):
            triples = tmp_path / "data" / "triples.jsonl"
            lines = triples.read_text(encoding="utf-8").splitlines()
            rec = json.loads(lines[1])
            if case == "negs_not_list":  # iterating an object yields its keys
                rec["negs"] = {n: 1 for n in rec["negs"]}
            else:  # keys that parse as scores
                rec["teacher"]["negs"] = {str(i): x for i, x in enumerate(rec["teacher"]["negs"])}
            lines[1] = json.dumps(rec)
            triples.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            argv = ["train-head", "--config", str(config_path), "--output", str(tmp_path / "heads.json"),
                    "--doc-output", str(tmp_path / "d_heads.json")]
            where = "triples.jsonl:2"
        else:
            if case == "regularizer_not_object":
                config["doc"]["regularizer"] = "flops"
                where = "config.json"
            elif case == "config_not_object":
                config = [config]
                where = "config.json"
            else:
                bad.write_text(json.dumps({"activation": "relu"}), encoding="utf-8")
                config["paths"]["doc_heads"] = bad.name
                where = bad.name
            config_path.write_text(json.dumps(config), encoding="utf-8")
            argv = _encode_doc_argv(config_path, tmp_path)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and where in err


class TestDeepJson:
    """JSON nested deeper than the parser can recurse is exit 1 naming the file (and the line
    of a JSONL file), never a RecursionError traceback."""

    DEEP = "[" * 3000 + "]" * 3000

    @pytest.mark.parametrize("case", ["config", "heads", "index_header", "vectors", "triples"])
    def test_exits_1_naming_the_file(self, tmp_path, capsys, case):
        config_path, _ = make_workspace(tmp_path)
        deep = tmp_path / "deep.json"
        deep.write_text(self.DEEP + "\n", encoding="utf-8")
        argv = _encode_doc_argv(config_path, tmp_path)
        if case == "config":
            text = config_path.read_text(encoding="utf-8")
            config_path.write_text(text.replace('"top_k": 50', f'"top_k": {self.DEEP}'), encoding="utf-8")
            where = str(config_path)
        elif case == "heads":
            config = json.loads(config_path.read_text(encoding="utf-8"))
            config["paths"]["doc_heads"] = deep.name
            config_path.write_text(json.dumps(config), encoding="utf-8")
            where = str(deep)
        elif case == "index_header":
            (tmp_path / "index").mkdir()
            (tmp_path / "index" / "header.json").write_text(self.DEEP, encoding="utf-8")
            argv = ["search", "--config", str(config_path), "--index", str(tmp_path / "index"),
                    "--queries", str(deep), "--output", str(tmp_path / "run.trec")]
            where = str(tmp_path / "index" / "header.json")
        elif case == "vectors":
            argv = ["index", "--config", str(config_path), "--vectors", str(deep), "--output", str(tmp_path / "index")]
            where = f"{deep}:1"
        else:
            triples = tmp_path / "data" / "triples.jsonl"
            lines = triples.read_text(encoding="utf-8").splitlines()
            lines[1] = self.DEEP
            triples.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            argv = ["train-head", "--config", str(config_path), "--output", str(tmp_path / "heads.json"),
                    "--doc-output", str(tmp_path / "d_heads.json")]
            where = f"{triples}:2"
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and f"{where}: JSON nested too deeply" in err


class TestNotUtf8:
    """A byte that is not UTF-8 is exit 1 naming path:line in every text reader.  Text mode
    decodes whole chunks ahead of the line a reader is on, so the line is found by a second pass."""

    READERS = {  # the file a case damages, and the command that reads it
        "vocab": ("data/vocab.txt", "encode"), "collection": ("data/collection.tsv", "encode"),
        "queries": ("data/queries.tsv", "encode"), "expansions": ("data/expansions.tsv", "encode"),
        "config": ("config.json", "encode"), "heads": ("heads.json", "encode"),
        "triples": ("data/triples.jsonl", "train-head"), "qrels": ("data/qrels.txt", "eval"),
        "run": ("run.trec", "eval"), "vectors": ("docs.jsonl", "index"),
        "query_vectors": ("queries.jsonl", "search"), "index_header": ("index/header.json", "search"),
    }

    @pytest.mark.parametrize("case", list(READERS))
    def test_exits_1_naming_the_line(self, tmp_path, capsys, case):
        config_path, _ = make_workspace(tmp_path)
        common = ["--config", str(config_path)]
        for side, name, out in (("doc", "collection.tsv", "docs.jsonl"), ("query", "queries.tsv", "queries.jsonl")):
            assert main(["encode", *common, "--side", side, "--input", str(tmp_path / "data" / name),
                         "--output", str(tmp_path / out)]) == 0
        assert main(["index", *common, "--vectors", str(tmp_path / "docs.jsonl"),
                     "--output", str(tmp_path / "index")]) == 0
        search = ["search", *common, "--index", str(tmp_path / "index"),
                  "--queries", str(tmp_path / "queries.jsonl"), "--output", str(tmp_path / "run.trec")]
        assert main(search) == 0
        config = json.loads(config_path.read_text(encoding="utf-8"))
        if case == "heads":
            encoders.write_head_parameters(encoders.init_head_parameters(60, 8, 5), tmp_path / "heads.json")
            config["paths"]["doc_heads"] = "heads.json"
        config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")  # a JSON file over several lines
        name, command = self.READERS[case]
        path = tmp_path / name
        lines = path.read_bytes().splitlines(keepends=True)
        bad = len(lines) // 2  # an inner line of a multi-line file
        lines[bad] = lines[bad].replace(b" ", b" \xff", 1) if b" " in lines[bad] else b"\xff" + lines[bad]
        path.write_bytes(b"".join(lines))
        argv = {
            "encode": _encode_doc_argv(config_path, tmp_path),
            "train-head": ["train-head", *common, "--output", str(tmp_path / "q.json"),
                           "--doc-output", str(tmp_path / "d.json")],
            "eval": ["eval", "--run", str(tmp_path / "run.trec"), "--qrels", str(tmp_path / "data" / "qrels.txt"),
                     "--output", "-"],
            "index": ["index", *common, "--vectors", str(path), "--output", str(tmp_path / "index2")],
            "search": search,
        }[command]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {path}:{bad + 1}: not UTF-8\n"

    def test_lines_counted_as_text_mode_counts_them(self, tmp_path):
        """A lone CR ends a line in text mode, so it ends one in the reported line number too."""
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"a\rb\r\nc\nd\xff\n")
        with pytest.raises(ValueError, match=r"vocab\.txt:4: not UTF-8"):
            read_vocabulary(path)


def test_expansion_id_naming_no_text_exits_1(tmp_path, capsys):
    """An expansions line whose id names no doc or query would never be used: exit 1 naming path:line."""
    config_path, _ = make_workspace(tmp_path)
    expansions = tmp_path / "data" / "expansions.tsv"
    lines = expansions.read_text(encoding="utf-8").splitlines()
    term = lines[0].split("\t")[1].split()[0]
    expansions.write_text("".join(line + "\n" for line in [*lines, f"nodoc\t{term}"]), encoding="utf-8")
    assert main(_encode_doc_argv(config_path, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{expansions}:{len(lines) + 1}: id 'nodoc' names no doc or query" in err


def test_train_head_with_zero_steps_exits_1(tmp_path, capsys):
    """No training step means no final loss: exit 1 naming the config, not a traceback."""
    config_path, _ = make_workspace(tmp_path, supervision={"steps": 0})
    argv = ["train-head", "--config", str(config_path), "--output", str(tmp_path / "heads.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(config_path) in err and "supervision.steps" in err
    assert not (tmp_path / "heads.json").exists()


def test_bad_vocabulary_exits_1_naming_the_line(tmp_path, capsys):
    config_path, _ = make_workspace(tmp_path)
    vocab_path = tmp_path / "data" / "vocab.txt"
    terms = vocab_path.read_text(encoding="utf-8").splitlines()
    vocab_path.write_text("".join(t + "\n" for t in terms + [terms[4]]), encoding="utf-8")
    assert main(_encode_doc_argv(config_path, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{vocab_path}:{len(terms) + 1}: duplicate vocabulary term" in err


class TestHeadsFiles:
    """`train-head` output feeds `encode` through paths.doc_heads; a file that does
    not fit the config side is exit 1 naming the file."""

    @staticmethod
    def _damage(rec, case):
        tensors = rec["tensors"]
        if case == "missing_field":
            del rec["activation"]
        elif case == "ill_typed_flag":
            rec["mlp_log_normalize"] = "yes"
        elif case == "ill_typed_tensor":
            tensors["mlp_bias"]["data"] = "x"
        elif case == "non_finite":
            tensors["mlm_bias"]["data"][3] = math.nan
        elif case == "strings_in_tensor":
            tensors["mlm_bias"]["data"][:5] = ["0.5", True, 0, 0, "1e1"]
        elif case == "string_scalar":
            tensors["mlp_bias"]["data"] = "2.5"
        elif case == "float_shape":
            tensors["mlp_weight"]["shape"] = [float(n) for n in tensors["mlp_weight"]["shape"]]
        elif case == "short_mlm_bias":
            tensors["mlm_bias"]["data"].pop()
            tensors["mlm_bias"]["shape"][0] -= 1
        elif case == "short_d_vectors":
            for name in ("mlp_weight", "quality_weight", "importance_weight"):
                tensors[name]["data"].pop()
                tensors[name]["shape"][0] -= 1
        elif case == "activation":
            rec["activation"] = "softplus"
        elif case == "log_normalize":
            rec["mlp_log_normalize"] = False
        elif case == "quality_heads":
            rec["use_quality_heads"] = True

    #: damage that `np.asarray` would coerce, so the file would load: the tensor it names
    NOT_JSON_NUMBERS = {"strings_in_tensor": "mlm_bias", "string_scalar": "mlp_bias", "float_shape": "mlp_weight"}

    @pytest.mark.parametrize("case", [
        "fits", "missing_field", "ill_typed_flag", "ill_typed_tensor", "non_finite", "strings_in_tensor",
        "string_scalar", "float_shape", "short_mlm_bias", "short_d_vectors", "activation", "log_normalize",
        "quality_heads",
    ])
    def test_heads_file_must_fit_config_side(self, tmp_path, capsys, case):
        config_path, _ = make_workspace(tmp_path)
        heads = tmp_path / "d_heads.json"
        assert main(["train-head", "--config", str(config_path), "--output", str(tmp_path / "q_heads.json"),
                     "--doc-output", str(heads)]) == 0
        rec = json.loads(heads.read_text(encoding="utf-8"))
        self._damage(rec, case)
        heads.write_text(json.dumps(rec), encoding="utf-8")
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["paths"]["doc_heads"] = heads.name
        config_path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        code = main(_encode_doc_argv(config_path, tmp_path))
        err = capsys.readouterr().err
        if case == "fits":
            assert code == 0, err
        else:
            assert code == 1
            assert err.startswith("error:") and heads.name in err
            if case in self.NOT_JSON_NUMBERS:
                assert f"tensor {self.NOT_JSON_NUMBERS[case]}" in err

    @pytest.mark.parametrize("named", [("query_heads",), ("doc_heads",), ("query_heads", "doc_heads")])
    def test_shared_heads_name_one_file(self, tmp_path, capsys, named):
        """Shared heads are one set of heads: naming a heads file for one side only, or two
        different files, is exit 1 naming both keys, not an encode from seeded heads."""
        config_path, _ = make_workspace(tmp_path, query={"encoder": "mlm"}, doc={"encoder": "mlm"}, shared_heads=True)
        assert main(["train-head", "--config", str(config_path), "--output", str(tmp_path / "heads.json")]) == 0
        shutil.copy(tmp_path / "heads.json", tmp_path / "other.json")
        config = json.loads(config_path.read_text(encoding="utf-8"))
        for key, name in zip(named, ("heads.json", "other.json")):
            config["paths"][key] = name
        config_path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert main(_encode_doc_argv(config_path, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "paths.query_heads" in err and "paths.doc_heads" in err
        assert not (tmp_path / "o.jsonl").exists()
        config["paths"].update(query_heads="heads.json", doc_heads="heads.json")
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(_encode_doc_argv(config_path, tmp_path)) == 0

    @pytest.mark.parametrize("command", ["encode", "train-head"])
    def test_named_heads_file_must_exist(self, tmp_path, capsys, command):
        """A mistyped paths.doc_heads is a missing input file like any other: exit 2
        naming it, not an encode or a training run from seeded heads."""
        config_path, _ = make_workspace(tmp_path, paths={"doc_heads": "no_such_heads.json"})
        if command == "encode":
            argv = _encode_doc_argv(config_path, tmp_path)
        else:
            argv = ["train-head", "--config", str(config_path), "--output", str(tmp_path / "o.json"),
                    "--doc-output", str(tmp_path / "d.json")]
        assert main(argv) == 2
        assert "no_such_heads.json" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists() and not (tmp_path / "o.json").exists()


class TestOnePath:
    def test_training_embeds_the_expanded_query(self, tmp_path, monkeypatch):
        """With an exp_mlp query side, training embeds the same token ids for a
        query as encode_side does."""
        config_path, task = make_workspace(tmp_path, query={"encoder": "exp_mlp"})
        qid = task.triples[0]["q"]
        query = next(q for q in task.queries if q.doc_id == qid)
        extra = [t for t in task.vocab.terms if task.vocab.term_to_id[t] not in query.token_ids][:3]
        with open(tmp_path / "data" / "expansions.tsv", "a", encoding="utf-8") as f:
            f.write(f"{qid}\t{' '.join(extra)}\n")
        config = load_config(config_path)

        embedded: dict[str, list[tuple[int, ...]]] = {}
        backbone = pipeline.toy_backbone

        def recording_backbone(texts, *args):
            for text in texts:
                embedded.setdefault(text.doc_id, []).append(text.token_ids)
            return backbone(texts, *args)

        monkeypatch.setattr(pipeline, "toy_backbone", recording_backbone)
        pipeline.run_train(config, config.backbone_seed)
        trained = embedded.pop(qid)
        res = pipeline.load_resources(config)
        pipeline.encode_side(config, "query", [query], res, config.backbone_seed)
        assert len(embedded[qid][0]) == len(query.token_ids) + 3
        assert trained == embedded[qid]

    @pytest.mark.parametrize("encoder", ["mlm", "cls_mlm"])
    def test_head_giving_nan_weights_exits_1_naming_the_text(self, tmp_path, capsys, monkeypatch, encoder):
        """A heads file holds finite numbers only, but heads built in memory may not: a NaN mlm_bias
        gives NaN weights, which no SparseVector holds.  `encode` is exit 1 naming the first text, and
        writes no output file."""
        config_path, task = make_workspace(tmp_path, doc={"encoder": encoder})
        side_heads = pipeline.side_heads

        def nan_heads(*args):
            heads = side_heads(*args)
            heads.mlm_bias[task.vocab.size // 2] = math.nan
            return heads

        monkeypatch.setattr(pipeline, "side_heads", nan_heads)
        assert main(_encode_doc_argv(config_path, tmp_path)) == 1
        first = task.docs[0].doc_id
        assert capsys.readouterr().err == (f"error: text {first!r}: term {task.vocab.size // 2} has weight nan, "
                                           "not a finite number > 0\n")
        assert not (tmp_path / "o.jsonl").exists()

    def test_support_audit_of_non_expanding_encoders(self, tmp_path, monkeypatch):
        """A binary side passes the audit with its own terms; one term outside a text is a
        ValidationError (exit 1) naming that text."""
        config_path, _ = make_workspace(tmp_path, query={"encoder": "binary"})
        config = load_config(config_path)
        res = pipeline.load_resources(config)
        texts = [*res.queries[:3], TokenizedText("q_empty", ())]
        assert [vid for vid, _ in pipeline.encode_side(config, "query", texts, res, 0)] == [t.doc_id for t in texts]
        outside = next(t for t in range(res.vocab.size) if t not in texts[1].token_ids)
        encode = pipeline.encode_binary
        monkeypatch.setattr(pipeline, "encode_binary", lambda text: SparseVector(
            {**encode(text).entries, **({outside: 1.0} if text is texts[1] else {})}))
        with pytest.raises(ValidationError, match=f"binary emitted a term outside the input for {texts[1].doc_id!r}"):
            pipeline.encode_side(config, "query", texts, res, 0)

    @pytest.mark.parametrize("name", ["deepimpact", "splade_max"])
    def test_pipeline_run_equals_index_search_eval(self, tmp_path, name):
        """run_pipeline's run file and metrics equal run_index -> run_search -> run_eval
        on the vectors it wrote."""
        config = load_config(CONFIG_DIR / f"{name}.json")
        report = pipeline.run_pipeline(config, tmp_path, config.backbone_seed)
        pipeline.run_index(config, tmp_path / "docs.jsonl", tmp_path / "index")
        pipeline.run_search(config, tmp_path / "index", tmp_path / "queries.jsonl", tmp_path / "cli.trec")
        assert (tmp_path / "cli.trec").read_bytes() == (tmp_path / "run.trec").read_bytes()
        assert report.metrics == pipeline.run_eval(tmp_path / "cli.trec", config.paths.qrels)


class TestBackboneTable:
    """A `Resources` owns the backbone's input-embedding table: built on first backbone
    use, once per (dim, seed), read-only, and giving each text of a batch call the ctx and cls rows
    of the reference `toy_backbone([text], backbone_table(V, d, seed), seed)`."""

    @staticmethod
    def _record(monkeypatch):
        builds: list[tuple] = []
        embedded: list[tuple] = []
        table, backbone = pipeline.backbone_table, pipeline.toy_backbone

        def counting_table(*args):
            builds.append(args)
            return table(*args)

        def recording_backbone(texts, *args):
            batch = backbone(texts, *args)
            rows = itertools.pairwise(itertools.accumulate(map(len, texts), initial=0))
            embedded.extend((text, args, batch.ctx[start:end], batch.cls[i], batch.table)
                           for i, (text, (start, end)) in enumerate(zip(texts, rows)))
            return batch

        monkeypatch.setattr(pipeline, "backbone_table", counting_table)
        monkeypatch.setattr(pipeline, "toy_backbone", recording_backbone)
        return builds, embedded

    def test_built_once_per_dim_and_seed(self, tmp_path, monkeypatch):
        config_path, _ = make_workspace(tmp_path, query={"encoder": "mlm"})
        config = load_config(config_path)
        res = pipeline.load_resources(config)
        v, d, s = res.vocab.size, config.backbone_dim, config.backbone_seed
        builds, embedded = self._record(monkeypatch)
        pipeline.run_train(config, s, res=res)
        pipeline.encode_side(config, "doc", res.docs, res, s)
        pipeline.encode_side(config, "query", res.queries, res, s)
        assert builds == [(v, d, s)]
        assert len(embedded) > len(res.docs) + len(res.queries)
        table = res.embedding_table(d, s)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        for text, args, ctx, cls, batch_table in embedded:
            assert args == (table, s) and batch_table is table
            ref = encoders.toy_backbone([text], encoders.backbone_table(v, d, s), s)
            assert (ctx.tobytes(), cls.tobytes()) == (ref.ctx.tobytes(), ref.cls.tobytes())

    def test_seeds_share_one_resources(self, tmp_path, monkeypatch):
        """Encoding at seeds s, s + 1, s on one Resources equals fresh Resources per seed."""
        config_path, _ = make_workspace(tmp_path, query={"encoder": "mlm"})
        config = load_config(config_path)
        s = config.backbone_seed
        fresh = {}
        for seed in (s, s + 1):
            res = pipeline.load_resources(config)
            fresh[seed] = pipeline.encode_side(config, "query", res.queries, res, seed)
        assert fresh[s] != fresh[s + 1]
        builds, _ = self._record(monkeypatch)
        res = pipeline.load_resources(config)
        for seed in (s, s + 1, s):
            assert pipeline.encode_side(config, "query", res.queries, res, seed) == fresh[seed]
        d = config.backbone_dim
        assert builds == [(res.vocab.size, d, s), (res.vocab.size, d, s + 1)]

    def test_no_table_without_a_backbone(self, tmp_path, monkeypatch):
        config_path, _ = make_workspace(tmp_path, query={"encoder": "binary"}, doc={"encoder": "bm25_doc"})
        config = load_config(config_path)
        builds, _ = self._record(monkeypatch)
        res = pipeline.load_resources(config)
        pipeline.encode_side(config, "doc", res.docs, res, config.backbone_seed)
        pipeline.encode_side(config, "query", res.queries, res, config.backbone_seed)
        assert builds == []


#: every neural doc side: the MLP heads, MLM in the max form (ReLU) and by arg-max (softplus with
#: quality heads), and CLS-MLM
NEURAL_SIDES = {
    "mlp": SideConfig(EncoderKind.MLP),
    "exp_mlp": SideConfig(EncoderKind.EXP_MLP),
    "relu mlm": SideConfig(EncoderKind.MLM),
    "arg-max mlm": SideConfig(EncoderKind.MLM, activation="softplus", quality_heads=True),
    "cls_mlm": SideConfig(EncoderKind.CLS_MLM),
}


class TestStackedEncode:
    """`encode_side` on a neural side runs one `stack_forward` per slice of ENCODE_SLICE texts and gives
    each text the bits of a one-text encode."""

    @staticmethod
    def _setup(side: str, n: int, vocab_size: int = 50, max_len: int = 6):
        """A doc-side config and in-memory `Resources` of `n` docs: docs 0, ENCODE_SLICE - 1,
        ENCODE_SLICE and n - 1 are empty, and every third doc has expansion terms."""
        rng = np.random.default_rng(25)
        docs = [TokenizedText(f"d{i}", rng.integers(0, vocab_size, size=rng.integers(1, max_len)).tolist())
                for i in range(n)]
        for i in {0, pipeline.ENCODE_SLICE - 1, pipeline.ENCODE_SLICE, n - 1} & set(range(n)):
            docs[i] = TokenizedText(f"d{i}", ())
        expansions = {d.doc_id: rng.integers(0, vocab_size, size=3).tolist() for d in docs[::3]}
        vocab = build_vocabulary(f"t{i}" for i in range(vocab_size))
        res = pipeline.Resources(vocab, docs, [], compute_corpus_stats(docs), expansions)
        return replace(method_config("binary", "mlp"), doc=NEURAL_SIDES[side]), res

    @pytest.mark.parametrize("side", NEURAL_SIDES)
    def test_empty_batch(self, side):
        config, res = self._setup(side, 3)
        assert pipeline.encode_side(config, "doc", [], res, 3) == []

    @pytest.mark.parametrize("side", NEURAL_SIDES)
    def test_slices_equal_one_text_encodes(self, side):
        config, res = self._setup(side, 2 * pipeline.ENCODE_SLICE + 1)
        got = pipeline.encode_side(config, "doc", res.docs, res, 3)
        assert [vid for vid, _ in got] == [d.doc_id for d in res.docs]
        for (_, vec), doc in zip(got, res.docs):
            ((_, alone),) = pipeline.encode_side(config, "doc", [doc], res, 3)
            assert {t: w.hex() for t, w in vec.entries.items()} == {t: w.hex() for t, w in alone.entries.items()}

    @pytest.mark.parametrize("side", NEURAL_SIDES)
    def test_one_stack_forward_per_slice(self, side, monkeypatch):
        config, res = self._setup(side, 2 * pipeline.ENCODE_SLICE + 1)
        sizes = []
        stack_forward = pipeline.stack_forward

        def counting(kind, texts, embs, head):
            sizes.append(len(texts))
            return stack_forward(kind, texts, embs, head)

        monkeypatch.setattr(pipeline, "stack_forward", counting)
        pipeline.encode_side(config, "doc", res.docs, res, 3)
        assert sizes == [pipeline.ENCODE_SLICE, pipeline.ENCODE_SLICE, 1]

    def test_one_backbone_call_per_slice(self, monkeypatch):
        """A ReLU MLM side over ENCODE_SLICE + 1 texts, the last one empty, embeds each slice in one
        backbone call and gives each text the vector of its one-text encode."""
        config, res = self._setup("relu mlm", pipeline.ENCODE_SLICE + 1)
        alone = [pipeline.encode_side(config, "doc", [doc], res, 3)[0] for doc in res.docs]
        sizes = []
        backbone = pipeline.toy_backbone
        monkeypatch.setattr(pipeline, "toy_backbone", lambda texts, *args: sizes.append(len(texts)) or backbone(texts, *args))
        got = pipeline.encode_side(config, "doc", res.docs, res, 3)
        assert sizes == [pipeline.ENCODE_SLICE, 1]
        assert [(vid, vec.terms.tobytes(), vec.weights.tobytes()) for vid, vec in got] == [
            (vid, vec.terms.tobytes(), vec.weights.tobytes()) for vid, vec in alone]

    def test_peak_memory_holds_a_slice_not_the_batch(self):
        """Dense weights of the whole batch at once would take `whole` bytes; slices stay under half."""
        config, res = self._setup("mlp", 6 * pipeline.ENCODE_SLICE, vocab_size=1000, max_len=3)
        res.embedding_table(config.backbone_dim, 3)
        whole = len(res.docs) * res.vocab.size * 8
        tracemalloc.start()
        try:
            pipeline.encode_side(config, "doc", res.docs, res, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole / 2, (peak, whole)

    def test_vectors_hold_their_two_columns(self):
        """An untrained ReLU MLM side expands over most of the vocabulary; its vectors hold their
        int64 and float64 columns, 16 bytes an entry plus a few hundred a vector, not a dict."""
        config, res = self._setup("relu mlm", 100, vocab_size=2000)
        res.embedding_table(config.backbone_dim, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            vectors = pipeline.encode_side(config, "doc", res.docs, res, 3)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        entries = sum(vec.nnz for _, vec in vectors)
        assert entries > 50 * len(vectors)
        assert held <= 32 * entries, (held, entries)
