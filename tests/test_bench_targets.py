"""The benchmark's trace hooks still find the program functions they wrap.

``kgtbench/spans.py`` wraps functions by module and attribute name and reports
an absent one by dropping its per-layer metrics. A rename in ``src/`` would
pass every other test, so these tests fail it instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from kgt.evaluation import evaluate
from kgt.model import Model, ModelConfig, encode_queries, encode_subgraphs
from kgt.queries import QueryType, build_query, generate_queries
from kgt.sampling import sample_stage1_batch
from kgt.train import Stage, TrainConfig, finetune, pretrain

from helpers import toy_split

SPANS = Path(__file__).resolve().parent.parent / "kgtbench" / "spans.py"


def load_spans():
    if "kgtbench_spans" not in sys.modules:
        spec = importlib.util.spec_from_file_location("kgtbench_spans", SPANS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules["kgtbench_spans"]


def test_every_trace_target_resolves_under_src():
    spans = load_spans()
    assert spans.TARGETS
    missing = []
    for target in spans.TARGETS:
        owner = importlib.import_module(target.module)
        assert Path(owner.__file__).resolve().parent.parent.name == "src", target.module
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{target.module}.{target.attr}")
    assert missing == []


def test_batch_exposes_the_slot_counts_the_trace_reads():
    # _batch_slots reports (real slots, grid slots) for model.pad_ratio
    spans = load_spans()
    cfg = ModelConfig(entity_count=50, relation_count=5, layers=1, hidden=8, heads=2, experts=2)
    queries = [build_query(QueryType.P1, (1,), (0,)), build_query(QueryType.P3, (2,), (0, 1, 2))]
    batch = encode_queries(queries, cfg)
    assert spans._batch_slots((queries, cfg), {}, batch) == (3 + 7, batch.entity_ids.size)
    subs = sample_stage1_batch(toy_split(seed=1).train, np.random.default_rng(3), batch_size=6, budget=(3, 8))
    batch = encode_subgraphs(subs, cfg)
    real = sum(s.levi.node_count for s in subs)
    assert spans._batch_slots((subs, cfg), {}, batch) == (real, batch.entity_ids.size)


def test_every_tensor_op_span_wraps_code_that_runs():
    # a wrapped name that stays defined but is no longer called (a private
    # kernel in its place, say) still resolves, and reports 0 without this
    spans = load_spans()
    split = toy_split(seed=1)
    cfg = ModelConfig(entity_count=50, relation_count=5, layers=1, hidden=16, heads=2, experts=4, top_k=2)
    model = Model.init(cfg, seed=2)
    train = {
        qtype: generate_queries(split, qtype, 2, np.random.default_rng([3, i]))
        for i, qtype in enumerate((QueryType.P1, QueryType.I2))
    }
    valid = {QueryType.P1: generate_queries(split, QueryType.P1, 2, np.random.default_rng(4), split_for="valid")}
    recorder = spans.Recorder()
    recorder.install([target for target in spans.TARGETS if target.span.startswith("tensor.op.")])
    try:
        pretrain(model, split.train, TrainConfig(stage=Stage.STAGE1, epochs=1, steps_per_epoch=1, batch_size=4))
        finetune(model, train, TrainConfig(stage=Stage.FINETUNE, epochs=1, batch_size=4, label_smoothing=0.0))
        evaluate(model, valid, "valid")
    finally:
        recorder.uninstall()
    assert recorder.absent == []
    ran = {span[spans.NAME] for span in recorder.spans}
    assert [op for op in spans.TENSOR_OPS if f"tensor.op.{op}" not in ran] == []
