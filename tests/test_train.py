import numpy as np
import pytest

from kgt.model import Model, ModelConfig
from kgt.optim import AdamWConfig
from kgt.queries import QueryType, generate_queries
from kgt.train import (
    Stage,
    TrainConfig,
    combinatorial_finetune,
    finetune,
    pretrain,
)

from helpers import toy_split


def small_model(split, **overrides) -> Model:
    defaults = dict(
        entity_count=split.entity_count,
        relation_count=split.relation_count,
        layers=1,
        hidden=16,
        heads=2,
        experts=2,
        top_k=2,
        dropout=0.0,
    )
    defaults.update(overrides)
    return Model.init(ModelConfig(**defaults), seed=0)


def stage_config(stage: Stage, **overrides) -> TrainConfig:
    defaults = dict(
        stage=stage,
        epochs=2,
        batch_size=4,
        steps_per_epoch=3,
        seed=1,
        optimizer=AdamWConfig(lr=1e-3),
    )
    if stage is Stage.FINETUNE:
        defaults["label_smoothing"] = 0.0
        defaults.pop("steps_per_epoch")
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_finetune_forbids_smoothing(self):
        with pytest.raises(ValueError):
            TrainConfig(stage=Stage.FINETUNE, label_smoothing=0.1)
        TrainConfig(stage=Stage.FINETUNE, label_smoothing=0.0)

    def test_pretrain_allows_smoothing(self):
        TrainConfig(stage=Stage.STAGE1, label_smoothing=0.1)
        with pytest.raises(ValueError):
            TrainConfig(stage=Stage.STAGE1, label_smoothing=1.0)

    def test_other_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(stage=Stage.STAGE1, epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(stage=Stage.STAGE1, budget_min=9, budget_max=8)
        with pytest.raises(ValueError):
            TrainConfig(stage=Stage.STAGE1, grad_clip=0.0)
        for mask_rate in (0.0, 1.5):
            with pytest.raises(ValueError, match="mask_rate"):
                TrainConfig(stage=Stage.STAGE1, mask_rate=mask_rate)
        for edge_keep in (-0.1, 1.1):
            with pytest.raises(ValueError, match="edge_keep"):
                TrainConfig(stage=Stage.STAGE1, edge_keep=edge_keep)
        TrainConfig(stage=Stage.STAGE1, mask_rate=1.0, edge_keep=0.0)


class TestPretrain:
    def test_stage_guard(self):
        split = toy_split(seed=1)
        model = small_model(split)
        with pytest.raises(ValueError):
            pretrain(model, split.train, stage_config(Stage.FINETUNE))

    def test_record_schema_and_count(self):
        split = toy_split(seed=2)
        model = small_model(split)
        logged = []
        records = pretrain(model, split.train, stage_config(Stage.STAGE1), log=logged.append)
        assert records == logged
        assert len(records) == 2
        for epoch, rec in enumerate(records):
            assert rec["stage"] == "stage1"
            assert rec["epoch"] == epoch
            assert np.isfinite(rec["loss"])
            assert rec["lr"] > 0
            assert rec["seconds"] >= 0

    def test_grad_norm_telemetry_is_deterministic(self):
        split = toy_split(seed=2)
        runs = []
        for _ in range(2):
            runs.append(pretrain(small_model(split), split.train, stage_config(Stage.STAGE1)))
        assert [r["grad_norm"] for r in runs[0]] == [r["grad_norm"] for r in runs[1]]
        assert [r["clip_rate"] for r in runs[0]] == [r["clip_rate"] for r in runs[1]]
        for rec in runs[0]:
            assert rec["grad_norm"] > 0
            assert rec["clip_rate"] in (0.0, 1 / 3, 2 / 3, 1.0)  # 3 steps per epoch

    def test_clip_rate_counts_clipped_steps(self):
        split = toy_split(seed=2)
        tiny = pretrain(small_model(split), split.train, stage_config(Stage.STAGE1, grad_clip=1e-9))
        huge = pretrain(small_model(split), split.train, stage_config(Stage.STAGE1, grad_clip=1e9))
        assert [r["clip_rate"] for r in tiny] == [1.0, 1.0]
        assert [r["clip_rate"] for r in huge] == [0.0, 0.0]

    def test_lr_follows_schedule(self):
        split = toy_split(seed=3)
        model = small_model(split)
        cfg = stage_config(Stage.STAGE1, epochs=3, optimizer=AdamWConfig(lr=1e-3, lr_decay=0.5))
        records = pretrain(model, split.train, cfg)
        assert [r["lr"] for r in records] == [1e-3, 5e-4, 2.5e-4]

    def test_parameters_change(self):
        split = toy_split(seed=4)
        model = small_model(split)
        before = {k: t.data.copy() for k, t in model.params.items()}
        pretrain(model, split.train, stage_config(Stage.STAGE1))
        moved = sum(1 for k in before if not np.array_equal(before[k], model.params[k].data))
        assert moved > len(before) // 2

    def test_stage2_runs_and_labels_records(self):
        split = toy_split(seed=5)
        model = small_model(split)
        records = pretrain(model, split.train, stage_config(Stage.STAGE2))
        assert all(r["stage"] == "stage2" for r in records)

    def test_default_step_count_covers_graph(self):
        split = toy_split(seed=6)
        model = small_model(split)
        cfg = stage_config(Stage.STAGE1, epochs=1, batch_size=64, steps_per_epoch=None)
        # 200 train triples / 64 -> 4 steps; verify via the loss count proxy:
        # each step appends one loss, and the record stores their mean, so
        # run with a counting log wrapper around sample calls instead
        calls = []
        import kgt.train as train_mod

        original = train_mod.sample_stage1_batch

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        train_mod.sample_stage1_batch = counting
        try:
            pretrain(model, split.train, cfg)
        finally:
            train_mod.sample_stage1_batch = original
        assert len(calls) == 4

    def test_deterministic_given_seed(self):
        split = toy_split(seed=7)
        cfg = stage_config(Stage.STAGE1)
        a = small_model(split)
        b = small_model(split)
        ra = pretrain(a, split.train, cfg)
        rb = pretrain(b, split.train, cfg)
        assert [r["loss"] for r in ra] == [r["loss"] for r in rb]
        for name in a.params:
            assert a.params[name].data.tobytes() == b.params[name].data.tobytes()

    def test_divergence_guard(self):
        split = toy_split(seed=8)
        model = small_model(split)
        model.params["decoder"].data[:] = 3e38  # logit matmul overflows float32
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            pretrain(model, split.train, stage_config(Stage.STAGE1, epochs=1, steps_per_epoch=1))


def query_sets(split, types, count, seed):
    rng = np.random.default_rng(seed)
    return {t: generate_queries(split, t, count, rng, split_for="train") for t in types}


class TestFinetune:
    def test_stage_guard(self):
        split = toy_split(seed=9)
        model = small_model(split)
        data = query_sets(split, [QueryType.P1], 4, 0)
        with pytest.raises(ValueError):
            finetune(model, data, stage_config(Stage.STAGE1))

    def test_round_robin_step_count(self):
        split = toy_split(seed=10)
        model = small_model(split)
        data = query_sets(split, [QueryType.P1, QueryType.P2], 6, 1)
        data[QueryType.P2] = data[QueryType.P2][:5]
        cfg = stage_config(Stage.FINETUNE, epochs=1, batch_size=2)
        steps = []
        import kgt.train as train_mod

        original = train_mod._train_step

        def counting(model, optimizer, batch, loss, clip, epoch, rng):
            steps.append(batch.graph_count)
            return original(model, optimizer, batch, loss, clip, epoch, rng)

        train_mod._train_step = counting
        try:
            finetune(model, data, cfg)
        finally:
            train_mod._train_step = original
        # 6 queries -> 3 batches, 5 queries -> 3 batches (2+2+1)
        assert len(steps) == 6
        assert sorted(steps) == [1, 2, 2, 2, 2, 2]

    def test_empty_train_answers_rejected(self):
        split = toy_split(seed=11)
        model = small_model(split)
        data = query_sets(split, [QueryType.P1], 3, 2)
        import dataclasses

        broken = dataclasses.replace(data[QueryType.P1][0], answers_train=frozenset())
        data[QueryType.P1][0] = broken
        with pytest.raises(ValueError):
            finetune(model, data, stage_config(Stage.FINETUNE))

    def test_empty_query_set_rejected(self):
        model = small_model(toy_split(seed=11))
        for data in ({}, {QueryType.P1: []}):
            with pytest.raises(ValueError, match="at least one query"):
                finetune(model, data, stage_config(Stage.FINETUNE, epochs=1))

    def test_loss_decreases_when_overfitting(self):
        split = toy_split(seed=12)
        model = small_model(split)
        data = query_sets(split, [QueryType.P1], 8, 3)
        cfg = stage_config(
            Stage.FINETUNE, epochs=10, batch_size=8, optimizer=AdamWConfig(lr=5e-3, weight_decay=0.0)
        )
        records = finetune(model, data, cfg)
        losses = [r["loss"] for r in records]
        assert losses[-1] < losses[0]
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-6)
        assert violations <= 2

    def test_deterministic_given_seed(self):
        split = toy_split(seed=13)
        data = query_sets(split, [QueryType.P1, QueryType.I2], 5, 4)
        cfg = stage_config(Stage.FINETUNE)
        a = small_model(split)
        b = small_model(split)
        finetune(a, data, cfg)
        finetune(b, data, cfg)
        for name in a.params:
            assert a.params[name].data.tobytes() == b.params[name].data.tobytes()


class TestCombinatorial:
    def test_selection_prefers_higher_score_and_first_on_ties(self):
        split = toy_split(seed=14)
        base = small_model(split)
        data = query_sets(split, [QueryType.P1, QueryType.P2], 4, 5)
        cfg = stage_config(Stage.FINETUNE, epochs=1)

        def validate(model: Model, qtype: QueryType) -> float:
            # score by a fingerprint so candidates differ deterministically
            value = float(model.params["decoder"].data.sum())
            return 1.0 if qtype is QueryType.P1 else value

        combos = [(QueryType.P1,), (QueryType.P2,)]
        candidates, selection = combinatorial_finetune(
            base, data, combos, cfg, validate, eval_types=[QueryType.P1, QueryType.P2]
        )
        assert list(candidates) == ["multi-task", "1p", "2p"]
        assert set(selection) == {"candidates", "scores", "chosen"}
        assert selection["candidates"] == ["multi-task", "1p", "2p"]
        # all P1 scores tie at 1.0, so the multi-task base wins
        assert selection["chosen"]["1p"] == "multi-task"
        best = max(selection["scores"]["2p"].items(), key=lambda kv: kv[1])
        assert selection["chosen"]["2p"] == best[0]

    def test_base_model_not_mutated(self):
        split = toy_split(seed=15)
        base = small_model(split)
        before = {k: t.data.copy() for k, t in base.params.items()}
        data = query_sets(split, [QueryType.P1], 4, 6)
        cfg = stage_config(Stage.FINETUNE, epochs=1)
        combinatorial_finetune(
            base, data, [(QueryType.P1,)], cfg, lambda m, t: 0.0, eval_types=[QueryType.P1]
        )
        for name, data_before in before.items():
            assert np.array_equal(base.params[name].data, data_before)
