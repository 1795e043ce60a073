"""Method configuration: one JSON document per retrieval method.

A config names the query/document encoder kinds, per-side head options and
regularizers, the supervision recipe, quantization, and data paths.  Relative
paths are resolved against the config file's directory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .core import json_object
from .encoders import ACTIVATIONS, Bm25Params, EncoderKind
from .index import Quantization
from .regularization import RegularizerConfig, RegularizerKind
from .supervision import LOSS_KINDS


class ValidationError(ValueError):
    """Configuration or input invariant violation (CLI exit code 1)."""


@dataclass(frozen=True)
class SideConfig:
    encoder: EncoderKind
    activation: str = "relu"
    log_normalize: bool = True
    quality_heads: bool = False
    regularizer: RegularizerConfig = field(default_factory=RegularizerConfig)


@dataclass(frozen=True)
class SupervisionConfig:
    loss: str = "contrastive"  # contrastive | margin_mse | term_mse (term level)
    steps: int = 100
    lr: float = 0.5

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"supervision.steps must be >= 1, got {self.steps}")
        if not math.isfinite(self.lr):
            raise ValueError(f"supervision.lr must be finite, got {self.lr}")


@dataclass(frozen=True)
class PathsConfig:
    vocab: Path
    collection: Path
    queries: Path
    qrels: Path | None = None
    expansions: Path | None = None
    triples: Path | None = None
    query_heads: Path | None = None
    doc_heads: Path | None = None


@dataclass(frozen=True)
class MethodConfig:
    name: str
    query: SideConfig
    doc: SideConfig
    shared_heads: bool
    supervision: SupervisionConfig
    quantization: Quantization
    top_k: int
    bm25: Bm25Params
    paths: PathsConfig
    backbone_seed: int = 0
    backbone_dim: int = 16

    def validate(self) -> None:
        sides = (("doc", self.doc, EncoderKind.BM25_QUERY), ("query", self.query, EncoderKind.BM25_DOC))
        for side, cfg, wrong in sides:
            if cfg.encoder is EncoderKind.EXP_MLP and self.paths.expansions is None:
                raise ValidationError(f"{self.name}: {side} encoder 'exp_mlp' requires paths.expansions")
            if cfg.encoder is wrong:
                raise ValidationError(f"{self.name}: {side} encoder cannot be {wrong.value!r}")
        if self.shared_heads and self.query.encoder != self.doc.encoder:
            raise ValidationError(
                f"{self.name}: shared_heads requires identical query/doc encoder kinds"
            )
        for option in ("activation", "log_normalize", "quality_heads") if self.shared_heads else ():
            q, d = getattr(self.query, option), getattr(self.doc, option)
            if q != d:
                raise ValidationError(
                    f"{self.name}: shared_heads requires identical query/doc {option}, got {q!r} and {d!r}"
                )
        if self.top_k < 0:
            raise ValidationError(f"{self.name}: top_k must be >= 0")


def _choice(obj: dict, key: str, choices: tuple, what: str):
    """`obj[key]`, one of `choices` and of their type ("false" is no boolean); the first is the default."""
    value = obj.get(key, choices[0])
    if type(value) is not type(choices[0]) or value not in choices:
        raise ValueError(f"{what} must be one of {', '.join(map(json.dumps, choices))}, got {json.dumps(value)}")
    return value


def _integer(obj: dict, key: str, default: int, what: str) -> int:
    """`obj[key]`, a JSON integer (2.7 and true are not)."""
    value = obj.get(key, default)
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {json.dumps(value)}")
    return value


def _number(obj: dict, key: str, default: float, what: str) -> float:
    """`obj[key]`, a JSON number (true is not); the dataclass checks its range."""
    value = obj.get(key, default)
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a JSON number, got {json.dumps(value)}")
    return float(value)


def _parse_side(config_obj: dict, side: str) -> SideConfig:
    name = config_obj["name"]
    obj = json_object(config_obj[side], side)
    try:
        kind = EncoderKind(obj["encoder"])
    except (KeyError, ValueError) as e:
        raise ValidationError(f"{name}: bad encoder kind: {e}") from e
    reg_obj = json_object(obj.get("regularizer", {}), f"{side}.regularizer")
    weight = _number(reg_obj, "weight", 0.0, f"{side}.regularizer.weight")
    k = _integer(reg_obj, "k", 0, f"{side}.regularizer.k")
    try:
        reg = RegularizerConfig(kind=RegularizerKind(reg_obj.get("kind", "none")), weight=weight, k=k)
    except ValueError as e:
        raise ValueError(f"{side}.regularizer: {e}") from e
    return SideConfig(
        encoder=kind,
        activation=_choice(obj, "activation", ACTIVATIONS, f"{side}.activation"),
        log_normalize=_choice(obj, "log_normalize", (True, False), f"{side}.log_normalize"),
        quality_heads=_choice(obj, "quality_heads", (False, True), f"{side}.quality_heads"),
        regularizer=reg,
    )


def load_config(path: str | Path) -> MethodConfig:
    path = Path(path)
    base = path.parent

    def section(key: str) -> dict:
        return json_object(obj.get(key, {}), key)

    def resolve(key: str) -> Path | None:
        value = section("paths").get(key)
        return (base / value).resolve() if value else None

    try:
        with open(path, encoding="utf-8") as f:
            obj = json_object(json.load(f), "config")
        paths = PathsConfig(
            vocab=resolve("vocab"),
            collection=resolve("collection"),
            queries=resolve("queries"),
            qrels=resolve("qrels"),
            expansions=resolve("expansions"),
            triples=resolve("triples"),
            query_heads=resolve("query_heads"),
            doc_heads=resolve("doc_heads"),
        )
        if paths.vocab is None or paths.collection is None or paths.queries is None:
            raise ValidationError(f"{path}: paths.vocab/collection/queries are required")
        sup = section("supervision")
        quant = section("quantization")
        backbone = section("backbone")
        config = MethodConfig(
            name=obj["name"],
            query=_parse_side(obj, "query"),
            doc=_parse_side(obj, "doc"),
            shared_heads=_choice(obj, "shared_heads", (False, True), "shared_heads"),
            supervision=SupervisionConfig(
                loss=_choice(sup, "loss", LOSS_KINDS, "supervision.loss"),
                steps=_integer(sup, "steps", 100, "supervision.steps"),
                lr=_number(sup, "lr", 0.5, "supervision.lr"),
            ),
            quantization=Quantization(
                mode=quant.get("mode", "exact"), bits=_integer(quant, "bits", 8, "quantization.bits")
            ),
            top_k=_integer(obj, "top_k", 100, "top_k"),
            bm25=Bm25Params(**obj.get("bm25", {})),
            paths=paths,
            backbone_seed=_integer(backbone, "seed", 0, "backbone.seed"),
            backbone_dim=_integer(backbone, "dim", 16, "backbone.dim"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        if isinstance(e, ValidationError):
            raise
        raise ValidationError(f"{path}: {e}") from e
    config.validate()
    return config


#: components a single ablation toggle may change
TOGGLE_KEYS = ("query_encoder", "doc_encoder", "regularizer", "shared_heads")


def apply_toggle(config: MethodConfig, toggle: str) -> MethodConfig:
    """Apply one single-component change, e.g. `query_encoder=mlp` or `regularizer=topk:50`."""
    if toggle.count("=") != 1:
        raise ValidationError(f"bad toggle {toggle!r}: expected key=value")
    key, value = toggle.split("=")
    if key not in TOGGLE_KEYS:
        raise ValidationError(
            f"toggle {toggle!r} must change exactly one of {', '.join(TOGGLE_KEYS)}"
        )
    name = f"{config.name}+{toggle}"
    if key == "query_encoder":
        out = replace(config, name=name, query=replace(config.query, encoder=EncoderKind(value)))
    elif key == "doc_encoder":
        out = replace(config, name=name, doc=replace(config.doc, encoder=EncoderKind(value)))
    elif key == "shared_heads":
        if value not in ("true", "false"):
            raise ValidationError(f"toggle {toggle!r}: value must be true or false")
        out = replace(config, name=name, shared_heads=value == "true")
    else:
        kind, _, arg = value.partition(":")
        reg_kind = RegularizerKind(kind)
        if reg_kind is RegularizerKind.TOPK:
            reg = RegularizerConfig(kind=reg_kind, k=int(arg or 0))
        else:
            reg = RegularizerConfig(kind=reg_kind, weight=float(arg or 0.0))
        out = replace(
            config,
            name=name,
            query=replace(config.query, regularizer=reg),
            doc=replace(config.doc, regularizer=reg),
        )
    if key in ("query_encoder", "doc_encoder") and out.shared_heads and out.query.encoder != out.doc.encoder:
        out = replace(out, shared_heads=False)
    out.validate()
    return out
