"""Flat key=value run configuration.

Config files are plain text: one ``section.key = value`` per line, ``#`` for
comments. Every key has a typed default; unknown keys and malformed values
raise :class:`ConfigError` naming the key, after its ``path:line`` when a
file set it. Ratios accept ``a:b`` or a plain float.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .errors import ConfigError, ParseError
from .graph import _decode_lines, split_lines
from .model import ModelConfig
from .optim import AdamWConfig
from .queries import TRAINABLE_TYPES, QueryType
from .train import Stage, TrainConfig


def _optional(parse):
    return lambda text: None if text == "" else parse(text)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_ratio(text: str) -> float:
    """``a:b`` (a per one b; b may be 0 for "only a") or a plain float, each finite."""
    if ":" in text:
        left, right = text.split(":", 1)
        a = float(left)
        b = float(right)
        if not (0 <= a < math.inf and 0 <= b < math.inf) or (a == 0 and b == 0):
            raise ValueError(f"bad ratio {text!r}")
        return math.inf if b == 0 else a / b
    value = float(text)
    if not 0 <= value < math.inf:
        raise ValueError(f"ratio must be non-negative and finite, got {text!r}")
    return value


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be a non-negative integer, got {value}")
    return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def _stage_keys(names: str) -> dict[str, str]:
    """The ``TrainConfig`` fields a stage section accepts, plus the stage's ``lr``."""
    return {**{f.name: f.type for f in fields(TrainConfig) if f.name in names.split()}, "lr": "float | None"}


# Each section builds one class by field name; a key's type is its field's annotation.
_SECTIONS = {
    "model": {f.name: f.type for f in fields(ModelConfig)[2:]},  # all but the vocabulary sizes
    "optimizer": {f.name: f.type for f in fields(AdamWConfig)},
    "stage1": _stage_keys(
        "epochs batch_size label_smoothing mask_rate method_mix budget_min budget_max "
        "edge_keep ladies_per_layer ladies_depth steps_per_epoch"
    ),
    "stage2": _stage_keys("epochs batch_size label_smoothing pattern_mix steps_per_epoch"),
    "finetune": _stage_keys("epochs batch_size"),
}
# Per stage: the offset of its seed from ``seed``, and the defaults that differ from TrainConfig's.
_STAGES = {Stage.STAGE1: (101, {}), Stage.STAGE2: (202, {}), Stage.FINETUNE: (303, {"batch_size": 128, "label_smoothing": 0.0})}


@dataclass
class PipelineConfig:
    """The pipeline's own keys as fields, ``section.key`` as ``section_key``, and the values
    set in each ``_SECTIONS`` section; a key left out takes its class's default."""

    seed: int = 0
    data_dir: str = "data"
    grad_clip: float = 1.0
    finetune_combos: str = ""
    queries_train_count: int = 500
    queries_valid_count: int = 100
    queries_test_count: int = 100
    queries_max_answers: int = 100
    eval_ks: tuple[int, ...] = (1, 3, 10)
    sections: dict[str, dict] = field(default_factory=dict)
    # the SHA-256 of the config file's bytes that ``load_config`` parsed; None without a file
    sha256: str | None = field(default=None, init=False, compare=False)

    def model_config(self, entity_count: int, relation_count: int) -> ModelConfig:
        return ModelConfig(entity_count, relation_count, **self.sections.get("model", {}))

    def optimizer_config(self) -> AdamWConfig:
        return AdamWConfig(**self.sections.get("optimizer", {}))

    def train_config(self, stage: Stage) -> TrainConfig:
        """A stage's section over its ``_STAGES`` defaults; its ``lr``, when set, overrides ``optimizer.lr``."""
        seed_offset, defaults = _STAGES[stage]
        values = {**defaults, **self.sections.get(stage.value, {})}
        optimizer = self.optimizer_config()
        lr = values.pop("lr", None)
        if lr is not None:
            optimizer = replace(optimizer, lr=lr)
        seed = self.seed + seed_offset
        return TrainConfig(stage=stage, grad_clip=self.grad_clip, seed=seed, optimizer=optimizer, **values)

    def combos(self) -> list[tuple[QueryType, ...]]:
        """Parse ``finetune.combos``: combos split by ``|``, types by ``,``."""
        text = self.finetune_combos.strip()
        if not text:
            return []
        by_value = {t.value: t for t in QueryType}
        out = []
        for part in text.split("|"):
            names = [n.strip() for n in part.split(",") if n.strip()]
            if not names:
                raise ConfigError("finetune.combos: empty combination")
            combo = []
            for name in names:
                if name not in by_value:
                    raise ConfigError(f"finetune.combos: unknown query type {name!r}")
                qtype = by_value[name]
                if qtype not in TRAINABLE_TYPES:
                    raise ConfigError(f"finetune.combos: {name} is not a trainable type")
                combo.append(qtype)
            label = ",".join(names)
            if len(set(combo)) < len(combo):
                raise ConfigError(f"finetune.combos: {label} repeats a type")
            if set(combo) in [set(c) for c in out]:  # finetune sorts a combo's types, so order names no new model
                raise ConfigError(f"finetune.combos repeats {label}")
            out.append(tuple(combo))
        return out


_RATIOS = ("stage1.method_mix", "stage2.pattern_mix")
_TYPE_PARSERS = {
    "int": int,
    "int | None": _optional(int),
    "float": float,
    "float | None": _optional(float),
    "bool": _parse_bool,
    "str": str,
    "tuple[int, ...]": _parse_int_list,
}


# A pipeline field is its key with the dot as "_": ``queries.train_count`` is ``queries_train_count``.
_KEY_TYPES = {
    f.name.replace("_", ".", 1) if f.name.startswith(("data_", "finetune_", "queries_", "eval_")) else f.name: f.type
    for f in fields(PipelineConfig)
    if f.name not in ("sections", "sha256")
} | {f"{section}.{name}": kind for section, keys in _SECTIONS.items() for name, kind in keys.items()}
_PARSERS = {key: _parse_ratio if key in _RATIOS else _TYPE_PARSERS[kind] for key, kind in _KEY_TYPES.items()} | {
    key: _parse_count for key in ("seed", "queries.train_count", "queries.valid_count", "queries.test_count")
}


def parse_config_text(text: str, path: str = "<config>") -> dict[str, tuple[str, int]]:
    """Raw key -> (value string, line number) from config text; duplicates are errors.

    Lines are split and numbered as :func:`kgt.graph.read_lines` numbers them.
    """
    values: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(path, lineno, f"expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in values:
            raise ParseError(path, lineno, f"duplicate key {key!r}")
        values[key] = value, lineno
    return values


def load_config(path: str | Path | None = None, overrides: dict[str, str] | None = None) -> PipelineConfig:
    """Defaults, then file values, then explicit overrides; a file's bad key or value names its line."""
    data = None if path is None else Path(path).read_bytes()
    merged = {} if data is None else parse_config_text("\n".join(_decode_lines(path, data)), str(path))
    merged.update((key, (text, None)) for key, text in (overrides or {}).items())
    own: dict = {}
    sections: dict[str, dict] = {}
    for key, (text, lineno) in merged.items():
        where = "" if lineno is None else f"{path}:{lineno}: "
        if key not in _PARSERS:
            raise ConfigError(f"{where}unknown config key {key!r}")
        try:
            value = _PARSERS[key](text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}bad value for {key!r}: {exc}") from None
        section, _, name = key.partition(".")
        if name in _SECTIONS.get(section, ()):
            sections.setdefault(section, {})[name] = value
        else:
            own[key.replace(".", "_")] = value
    config = PipelineConfig(**own, sections=sections)
    _validate(config)
    config.sha256 = None if data is None else hashlib.sha256(data).hexdigest()
    return config


def _validate(config: PipelineConfig) -> None:
    """Build every runtime config once, so each setting is checked by the class that uses it."""
    builds = {
        "model": lambda: config.model_config(1, 1),
        "optimizer": config.optimizer_config,
        **{stage.value: partial(config.train_config, stage) for stage in Stage},
    }
    for section, build in builds.items():
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"bad {section} settings: {exc}") from None
    if config.queries_max_answers < 1:
        raise ConfigError("queries.max_answers must be at least 1")
    if not all(k >= 1 for k in config.eval_ks):
        raise ConfigError("eval.ks must be positive")
    if repeated := [k for i, k in enumerate(config.eval_ks) if k in config.eval_ks[:i]]:
        raise ConfigError(f"eval.ks repeats {repeated[0]}")
    config.combos()  # validates the combo syntax eagerly
