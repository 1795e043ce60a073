"""Method configuration: one JSON document per retrieval method.

A config names the query/document encoder kinds, per-side head options and
regularizers, the supervision recipe, quantization, the backbone and data
paths.  The dataclasses below are its schema: `load_config` fills each one from
its JSON object, so every key must be a field, every value must have its
field's JSON type, and an absent key takes the field's default.  Relative
paths are resolved against the config file's directory; `""` leaves an
optional path unset.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .core import json_object, parse_json, read_json
from .encoders import ACTIVATIONS, Bm25Params, EncoderKind
from .index import Quantization
from .regularization import RegularizerConfig


class ValidationError(ValueError):
    """Configuration or input invariant violation (CLI exit code 1)."""


def _one_of(name: str, value, choices) -> None:
    """`value` must be one of the string `choices`."""
    if type(value) is not str or value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(map(json.dumps, choices))}, got {json.dumps(value)}")


@dataclass(frozen=True)
class SideConfig:
    encoder: EncoderKind
    activation: str = "relu"
    log_normalize: bool = True
    quality_heads: bool = False
    regularizer: RegularizerConfig = field(default_factory=RegularizerConfig)

    def __post_init__(self):
        _one_of("activation", self.activation, ACTIVATIONS)


#: the supervision losses the trainer knows
LOSS_KINDS = ("contrastive", "margin_mse", "term_mse")


@dataclass(frozen=True)
class SupervisionConfig:
    loss: str = "contrastive"  # one of LOSS_KINDS
    steps: int = 100
    lr: float = 0.5

    def __post_init__(self):
        _one_of("loss", self.loss, LOSS_KINDS)
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not math.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")


@dataclass(frozen=True)
class BackboneConfig:
    """The frozen backbone whose embeddings the neural heads read; `toy` is the only kind."""

    kind: str = "toy"
    seed: int = 0
    dim: int = 16

    def __post_init__(self):
        _one_of("kind", self.kind, ("toy",))
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


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
    paths: PathsConfig
    shared_heads: bool = False
    supervision: SupervisionConfig = field(default_factory=SupervisionConfig)
    quantization: Quantization = field(default_factory=Quantization)
    top_k: int = 100
    bm25: Bm25Params = field(default_factory=Bm25Params)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)

    @property
    def backbone_seed(self) -> int:
        return self.backbone.seed

    @property
    def backbone_dim(self) -> int:
        return self.backbone.dim

    def __post_init__(self):
        """Checks across sections; a failing check is a ValidationError naming the key."""
        if self.name.split() != [self.name]:  # the run file's tag field
            raise ValidationError(f"name must be nonempty with no whitespace, got {self.name!r}")
        sides = (("doc", self.doc, EncoderKind.BM25_QUERY), ("query", self.query, EncoderKind.BM25_DOC))
        for side, cfg, wrong in sides:
            if cfg.encoder is EncoderKind.EXP_MLP and self.paths.expansions is None:
                raise ValidationError(f"{side}.encoder 'exp_mlp' requires paths.expansions")
            if cfg.encoder is wrong:
                raise ValidationError(f"{side}.encoder cannot be {wrong.value!r}")
        if self.shared_heads and self.query.encoder != self.doc.encoder:
            raise ValidationError("shared_heads requires identical query/doc encoder kinds")
        if self.shared_heads and self.paths.query_heads != self.paths.doc_heads:
            raise ValidationError("shared_heads requires paths.query_heads and paths.doc_heads to name one file, "
                                  f"got {self.paths.query_heads} and {self.paths.doc_heads}")
        for option in ("activation", "log_normalize", "quality_heads") if self.shared_heads else ():
            q, d = getattr(self.query, option), getattr(self.doc, option)
            if q != d:
                raise ValidationError(f"shared_heads requires identical query/doc {option}, got {q!r} and {d!r}")
        if self.top_k < 0:
            raise ValidationError(f"top_k must be >= 0, got {self.top_k}")


@functools.cache
def _schema(cls) -> dict[str, tuple[object, bool]]:
    """Field name -> (type, required) of a config dataclass; cached, as `get_type_hints` is slow."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING) for f in fields(cls)}


def _read(cls, obj, where: str, base: Path):
    """A `cls` filled from the JSON object `obj` found at `where` ("" or "section.").

    Every key must be a field and an absent key takes the field's default.  The
    dataclass checks ranges; its errors start with the field's name, so
    prefixing `where` names the offending key.
    """
    schema = _schema(cls)
    values = {}
    for key, value in json_object(obj, where.rstrip(".") or "config").items():
        if key not in schema:
            raise ValueError(f"unknown key {where}{key}")
        values[key] = _value(schema[key][0], value, where + key, base)
    for key, (_, required) in schema.items():
        if required and key not in values:
            raise ValueError(f"missing key {where}{key}")
    try:
        return cls(**values)
    except ValueError as e:
        raise ValueError(f"{where}{e}") from e


def _value(tp, value, key: str, base: Path):
    """`value` as a field of type `tp`, which it must match as a JSON type ("false" is no bool, 1.0 no int)."""
    if is_dataclass(tp):
        return _read(tp, value, key + ".", base)
    optional = type(None) in typing.get_args(tp)  # `Path | None`: only the optional paths
    if optional:
        tp = Path
    if issubclass(tp, enum.Enum):
        _one_of(key, value, [m.value for m in tp])
        return tp(value)
    if type(value) is not (str if tp is Path else tp) and not (tp is float and type(value) is int):
        kind = {bool: "boolean", int: "integer", float: "number"}.get(tp, "string")
        raise ValueError(f"{key} must be a JSON {kind}, got {json.dumps(value)}")
    if tp is float:
        return float(value)
    if tp is Path:
        if not value and not optional:
            raise ValueError(f"{key} must name a file")
        if "\0" in value:  # `resolve` would fail with an "embedded null byte" that names no key
            raise ValueError(f"{key} must not contain a NUL byte")
        return (base / value).resolve() if value else None
    return value


def load_config(path: str | Path) -> MethodConfig:
    """The method config at `path`; a bad key or value is a ValidationError naming the path and the key."""
    path = Path(path)
    obj = read_json(path)
    try:
        return _read(MethodConfig, obj, "", path.parent)
    except (ValueError, OverflowError) as e:
        raise ValidationError(f"{path}: {e}") from e


#: components a single ablation toggle may change
TOGGLE_KEYS = ("query_encoder", "doc_encoder", "regularizer", "shared_heads")


def _json_or_text(text: str):
    """`text` read as JSON, or the string itself when it is not JSON."""
    try:
        return parse_json(text)
    except ValueError:
        return text


def apply_toggle(config: MethodConfig, toggle: str) -> MethodConfig:
    """Apply one single-component change, e.g. `query_encoder=mlp` or `regularizer=topk:50`.

    Each value is read as JSON, or else as the string itself, and meets the checks of
    `load_config`; a failure is a ValidationError naming the toggle and its `section.key`.
    """
    key, _, value = toggle.partition("=")
    if key not in TOGGLE_KEYS:
        raise ValidationError(f"toggle {toggle!r} must be KEY=VALUE for exactly one KEY of {', '.join(TOGGLE_KEYS)}")
    try:
        if key == "regularizer":
            kind, _, arg = value.partition(":")
            fragment = {"kind": _json_or_text(kind)}
            if arg:
                fragment["k" if fragment["kind"] == "topk" else "weight"] = _json_or_text(arg)
            reg = _value(RegularizerConfig, fragment, key, Path())
            changes = {"query": replace(config.query, regularizer=reg), "doc": replace(config.doc, regularizer=reg)}
        elif key == "shared_heads":
            changes = {key: _value(bool, _json_or_text(value), key, Path())}
        else:
            side, other = ("query", config.doc) if key == "query_encoder" else ("doc", config.query)
            encoder = _value(EncoderKind, _json_or_text(value), f"{side}.encoder", Path())
            # heads stay shared only while both sides keep one encoder kind
            changes = {
                side: replace(getattr(config, side), encoder=encoder),
                "shared_heads": config.shared_heads and encoder is other.encoder,
            }
        return replace(config, name=f"{config.name}+{toggle}", **changes)
    except ValueError as e:
        raise ValidationError(f"toggle {toggle!r}: {e}") from e
