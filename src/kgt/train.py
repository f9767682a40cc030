"""Training loops: two-stage masked pre-training and query fine-tuning.

Stage 1 (dense initialization) samples randomly masked subgraphs and applies
cross entropy at every masked node. Stage 2 (sparse refinement) samples
query-shaped meta-graphs and supervises only the target node; intermediates
stay masked but carry no loss. Fine-tuning trains on real query sets with the
answer-masked loss (other true answers are excluded from the negatives) and no
label smoothing, first multi-task over all trainable shapes, then optionally
on task combinations with per-shape checkpoint selection on validation hits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import zip_longest
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .model import Batch, Model, encode_queries, encode_subgraphs, forward
from .optim import AdamW, AdamWConfig, clip_global_norm
from .queries import QueryInstance, QueryType
from .sampling import sample_meta_graph, sample_stage1_batch
from .tensor import Tape, Tensor


class Stage(Enum):
    STAGE1 = "stage1"
    STAGE2 = "stage2"
    FINETUNE = "finetune"


@dataclass
class TrainConfig:
    stage: Stage
    epochs: int = 10
    batch_size: int = 32
    label_smoothing: float = 0.1
    mask_rate: float = 0.25
    method_mix: float = 1.0  # meta-tree : layer-dependent
    pattern_mix: float = 4.0  # chain : branch
    budget_min: int = 8
    budget_max: int = 16
    edge_keep: float = 0.8
    ladies_per_layer: int = 8
    ladies_depth: int = 2
    grad_clip: float = 1.0
    seed: int = 0
    steps_per_epoch: int | None = None
    optimizer: AdamWConfig = field(default_factory=AdamWConfig)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.stage is Stage.FINETUNE:
            if self.label_smoothing != 0.0:
                raise ValueError("label smoothing must be 0 during fine-tuning")
        elif not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label smoothing must be in [0, 1), got {self.label_smoothing}")
        if not 0.0 < self.mask_rate <= 1.0:
            raise ValueError(f"mask_rate must be in (0, 1], got {self.mask_rate}")
        if not 0.0 <= self.edge_keep <= 1.0:
            raise ValueError(f"edge_keep must be in [0, 1], got {self.edge_keep}")
        if not 1 <= self.budget_min <= self.budget_max:
            raise ValueError("need 1 <= budget_min <= budget_max")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")


LogCallback = Callable[[dict], None]
Loss = Callable[[Tensor], Tensor]


def _train_step(
    model: Model,
    optimizer: AdamW,
    batch: Batch,
    loss: Loss,
    clip: float,
    epoch: int,
    rng: np.random.Generator,
) -> tuple[float, float, float]:
    """One update on the mean over graphs of ``loss``'s per-row terms.

    Returns the loss, the pre-clip gradient norm and the lr used.
    """
    with Tape() as tape:
        logits = forward(model, batch, training=True, rng=rng)
        # mean over graphs of the per-graph sums = sum / batch size
        total = T.mul(T.sum_all(loss(logits)), 1.0 / batch.graph_count)
        value = total.item()
        if not math.isfinite(value):
            raise FloatingPointError(f"training loss diverged (loss={value})")
        optimizer.zero_grad()
        tape.backward(total)
    norm = clip_global_norm(model.params, clip)
    lr = optimizer.step(epoch)
    return value, norm, lr


def _fit(
    model: Model,
    config: TrainConfig,
    batches: Callable[[np.random.Generator], Iterator[tuple[Batch, Loss]]],
    log: LogCallback | None,
) -> list[dict]:
    """Train in place for ``config.epochs`` epochs of ``batches(data_rng)``.

    The data RNG is seeded with ``seed`` and the dropout RNG with ``seed + 1``.
    Each epoch's record holds the mean loss, the mean pre-clip gradient norm
    and the share of clipped steps.
    """
    data_rng = np.random.default_rng(config.seed)
    dropout_rng = np.random.default_rng(config.seed + 1)
    optimizer = AdamW(model.params, config.optimizer)
    records: list[dict] = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        losses, norms = [], []
        lr = config.optimizer.lr_at(epoch)
        for batch, loss in batches(data_rng):
            value, norm, lr = _train_step(model, optimizer, batch, loss, config.grad_clip, epoch, dropout_rng)
            losses.append(value)
            norms.append(norm)
        record = {
            "stage": config.stage.value,
            "epoch": epoch,
            "loss": float(np.mean(losses)),
            "grad_norm": float(np.mean(norms)),
            "clip_rate": sum(norm > config.grad_clip for norm in norms) / len(norms),
            "lr": lr,
            "seconds": time.perf_counter() - started,
        }
        records.append(record)
        if log is not None:
            log(record)
    return records


def pretrain(
    model: Model,
    graph,
    config: TrainConfig,
    log: LogCallback | None = None,
) -> list[dict]:
    """Run one pre-training stage in place; returns per-epoch records."""
    if config.stage not in (Stage.STAGE1, Stage.STAGE2):
        raise ValueError("pretrain requires a pre-training stage config")
    steps = config.steps_per_epoch or max(1, math.ceil(len(graph) / config.batch_size))

    def batches(rng: np.random.Generator):
        for _ in range(steps):
            if config.stage is Stage.STAGE1:
                subs = sample_stage1_batch(
                    graph,
                    rng,
                    config.batch_size,
                    method_mix=config.method_mix,
                    mask_rate=config.mask_rate,
                    budget=(config.budget_min, config.budget_max),
                    edge_keep=config.edge_keep,
                    ladies_per_layer=config.ladies_per_layer,
                    ladies_depth=config.ladies_depth,
                )
            else:
                subs = [
                    sample_meta_graph(graph, rng, pattern_mix=config.pattern_mix)
                    for _ in range(config.batch_size)
                ]
            batch = encode_subgraphs(subs, model.config)
            yield batch, partial(T.cross_entropy, targets=batch.targets, alpha=config.label_smoothing)

    return _fit(model, config, batches, log)


def _query_batches(
    instances: Sequence[QueryInstance],
    batch_size: int,
    rng: np.random.Generator,
) -> list[list[QueryInstance]]:
    order = rng.permutation(len(instances))
    shuffled = [instances[i] for i in order]
    return [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]


def finetune(
    model: Model,
    datasets: dict[QueryType, list[QueryInstance]],
    config: TrainConfig,
    log: LogCallback | None = None,
) -> list[dict]:
    """Fine-tune in place on the given query sets, round-robin across types.

    Each epoch every type contributes ceil(n/batch) shuffled batches; batches
    are interleaved uniformly across types so no task dominates a stretch of
    updates. Training answers are the train-graph answer sets.
    """
    if config.stage is not Stage.FINETUNE:
        raise ValueError("finetune requires a fine-tune stage config")
    if not any(datasets.values()):
        raise ValueError("finetune needs at least one query to train on")
    for qtype, instances in datasets.items():
        for inst in instances:
            if not inst.answers_train:
                raise ValueError(f"{qtype.value} query with no train answers cannot be fine-tuned on")
    types = sorted(datasets.keys(), key=lambda t: t.value)

    def batches(rng: np.random.Generator):
        # one shuffle per type, then a round of one batch per type that has any left
        queues = [_query_batches(datasets[t], config.batch_size, rng) for t in types]
        for chunks in zip_longest(*queues):
            for chunk in chunks:
                if chunk is None:
                    continue
                batch = encode_queries([inst.query for inst in chunk], model.config)
                answer_sets = [np.asarray(sorted(inst.answers_train), dtype=np.int64) for inst in chunk]
                yield batch, partial(T.answer_masked_cross_entropy, answer_sets=answer_sets)

    return _fit(model, config, batches, log)


def combinatorial_finetune(
    base: Model,
    datasets: dict[QueryType, list[QueryInstance]],
    combos: Sequence[Sequence[QueryType]],
    config: TrainConfig,
    validate: Callable[[Model, QueryType], float],
    eval_types: Sequence[QueryType],
    log: LogCallback | None = None,
) -> tuple[dict[str, Model], dict]:
    """Fine-tune task combinations on top of ``base`` and pick per-shape winners.

    ``base`` is typically the multi-task fine-tuned model. ``validate`` scores
    a candidate on one evaluation shape (validation hits); ties keep the
    earlier candidate, with the multi-task base first. Returns the candidates
    by label and the selection ``{"candidates": labels, "scores": eval type ->
    label -> score, "chosen": eval type -> label}``.
    """
    candidates: dict[str, Model] = {"multi-task": base}
    for combo in combos:
        label = ",".join(t.value for t in combo)
        subset = {t: datasets[t] for t in combo}
        trained = base.clone()
        finetune(trained, subset, config, log=log)
        candidates[label] = trained

    scores: dict[str, dict[str, float]] = {}
    chosen: dict[str, str] = {}
    for qtype in eval_types:
        row = {label: float(validate(candidate, qtype)) for label, candidate in candidates.items()}
        scores[qtype.value] = row
        best = max(row.items(), key=lambda kv: kv[1])[1]
        for label in candidates:  # first candidate at the max wins ties
            if row[label] == best:
                chosen[qtype.value] = label
                break
    return candidates, {"candidates": list(candidates), "scores": scores, "chosen": chosen}

