"""Flat key=value run configuration.

Config files are plain text: one ``section.key = value`` per line, ``#`` for
comments. Every key has a typed default; unknown keys and malformed values
raise :class:`ConfigError` naming the key. Ratios accept ``a:b`` or a plain
float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError, ParseError
from .graph import read_lines, split_lines
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


def _parse_int_list(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


@dataclass
class PipelineConfig:
    """Every config key as one field, ``section.key`` as ``section_key``.

    The ``model``, ``optimizer`` and stage sections build ``ModelConfig``,
    ``AdamWConfig`` and ``TrainConfig`` by field name.
    """

    seed: int = 0
    data_dir: str = "data"

    model_layers: int = 4
    model_hidden: int = 128
    model_heads: int = 4
    model_experts: int = 4
    model_top_k: int = 2
    model_expert_hidden: int | None = None
    model_dropout: float = 0.1
    model_tie_decoder: bool = False

    optimizer_lr: float = 1e-4
    optimizer_beta1: float = 0.9
    optimizer_beta2: float = 0.999
    optimizer_eps: float = 1e-8
    optimizer_weight_decay: float = 0.01
    optimizer_lr_decay: float = 0.997

    stage1_epochs: int = 10
    stage1_batch_size: int = 32
    stage1_label_smoothing: float = 0.1
    stage1_mask_rate: float = 0.25
    stage1_method_mix: float = 1.0
    stage1_budget_min: int = 8
    stage1_budget_max: int = 16
    stage1_edge_keep: float = 0.8
    stage1_ladies_per_layer: int = 8
    stage1_ladies_depth: int = 2
    stage1_steps_per_epoch: int | None = None
    stage1_lr: float | None = None

    stage2_epochs: int = 10
    stage2_batch_size: int = 32
    stage2_label_smoothing: float = 0.1
    stage2_pattern_mix: float = 4.0
    stage2_steps_per_epoch: int | None = None
    stage2_lr: float | None = None

    finetune_epochs: int = 10
    finetune_batch_size: int = 128
    finetune_lr: float | None = None
    finetune_combos: str = ""
    grad_clip: float = 1.0

    queries_train_count: int = 500
    queries_valid_count: int = 100
    queries_test_count: int = 100
    queries_max_answers: int = 100

    eval_ks: tuple[int, ...] = (1, 3, 10)

    def _section(self, prefix: str) -> dict:
        """The fields named ``prefix`` + key, as {key: value}."""
        return {f.name[len(prefix) :]: getattr(self, f.name) for f in fields(self) if f.name.startswith(prefix)}

    def model_config(self, entity_count: int, relation_count: int) -> ModelConfig:
        return ModelConfig(entity_count, relation_count, **self._section("model_"))

    def _train_config(self, stage: Stage, seed_offset: int, **fixed) -> TrainConfig:
        """A stage's section; its ``lr``, when set, overrides ``optimizer.lr``."""
        values = self._section(stage.value + "_")
        values.pop("combos", None)
        optimizer = self._section("optimizer_")
        lr = values.pop("lr")
        if lr is not None:
            optimizer["lr"] = lr
        return TrainConfig(
            stage=stage,
            grad_clip=self.grad_clip,
            seed=self.seed + seed_offset,
            optimizer=AdamWConfig(**optimizer),
            **values,
            **fixed,
        )

    def stage1_config(self) -> TrainConfig:
        return self._train_config(Stage.STAGE1, 101)

    def stage2_config(self) -> TrainConfig:
        return self._train_config(Stage.STAGE2, 202)

    def finetune_config(self) -> TrainConfig:
        return self._train_config(Stage.FINETUNE, 303, label_smoothing=0.0)

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
            out.append(tuple(combo))
        return out


_SECTIONS = ("data", "model", "optimizer", "stage1", "stage2", "finetune", "queries", "eval")
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


def _key(name: str) -> str:
    """Config key of a field: ``model_top_k`` -> ``model.top_k``, ``grad_clip`` stays."""
    section, _, rest = name.partition("_")
    return f"{section}.{rest}" if section in _SECTIONS else name


_ATTRS = {_key(f.name): f.name for f in fields(PipelineConfig)}
_PARSERS = {
    key: _parse_ratio if key in _RATIOS else _TYPE_PARSERS[f.type]
    for key, f in zip(_ATTRS, fields(PipelineConfig))
}


def parse_config_text(text: str, path: str = "<config>") -> dict[str, str]:
    """Raw key -> value strings from config text; duplicates are errors.

    Lines are split and numbered as :func:`kgt.graph.read_lines` numbers them.
    """
    values: dict[str, str] = {}
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
        values[key] = value
    return values


def load_config(path: str | Path | None = None, overrides: dict[str, str] | None = None) -> PipelineConfig:
    """Defaults, then file values, then explicit overrides."""
    merged: dict[str, str] = {}
    if path is not None:
        merged.update(parse_config_text("\n".join(read_lines(path)), str(path)))
    if overrides:
        merged.update(overrides)
    config = PipelineConfig()
    updates = {}
    for key, text in merged.items():
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            updates[_ATTRS[key]] = _PARSERS[key](text)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None
    config = replace(config, **updates)
    _validate(config)
    return config


def _validate(config: PipelineConfig) -> None:
    """Build every runtime config once, so each setting is checked by the class that uses it."""
    builds = {
        "model": lambda: config.model_config(1, 1),
        "optimizer": lambda: AdamWConfig(**config._section("optimizer_")),
        "stage1": config.stage1_config,
        "stage2": config.stage2_config,
        "finetune": config.finetune_config,
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
    config.combos()  # validates the combo syntax eagerly
