"""The equivalence table: each fast path beside its slow, obvious twin.

A row of :data:`CASES` runs a fast path and its twin on the same inputs and
compares all they return, the output and every gradient, in the manner of
differential testing (McKeeman, *Differential Testing for Software*, Digital
Technical Journal, 1998). A row is exact, where the fast path keeps the
twin's arithmetic order and dtype, shape and bytes must match, or it has a
:class:`Bound`, where the order changed: shapes match, and an error metric
stays within a stated limit for a stated reason.

A row's ``name`` is ``"<fast path>/<twin>"``; the part before the slash is
the fast path it covers. ``build(**values)`` returns the inputs, a tuple
that both sides take as their arguments. A test runs a row through
:func:`check`, once for each of its values; a new fast path adds one row and
the test that checks it.

The sides run through two runners: :func:`run_op`, one op on leaves under a
fixed upstream gradient, and :func:`run_step`, a model step or block on a
clone of the model with module attributes patched with their twins.
"""

from __future__ import annotations

import ast
import inspect
import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pytest

import kgt.model
from kgt import tensor as T
from kgt.model import Model, ModelConfig, decoder_matrix, encode_queries, encode_subgraphs, forward, init_parameters
from kgt.model import moe_ffn, truncated_normal
from kgt.optim import AdamW, AdamWConfig, clip_global_norm
from kgt.queries import QueryType, build_query, generate_queries
from kgt.sampling import sample_meta_graph, sample_stage1_batch
from kgt.tensor import Tape, Tensor
from kgt.train import batch_mean

from helpers import (
    LoopAdamW, arena_params, dense_cross_entropy, expert_leaves, former_add, former_attention_layer,
    former_attention_rows, former_decode, former_dropout, former_gate_softmax, former_layer_norm, former_masked_softmax,
    former_moe_ffn, fused_grads, grid_plan, heap_truncated_normal, loop_answer_masked_cross_entropy,
    loop_clip_global_norm, padded_encode_queries, padded_encode_subgraphs, padded_rows, qkv_leaves, real_rows_field,
    set_grad, stacked_grads, toy_split,
)

RECORDS = "tape records"  # a side's tape length, compared only where a row states the difference


def scaled_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest difference over the twin's largest magnitude (at least 1e-30)."""
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-30))


def element_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest difference over ``max(1, |twin|)``, element by element."""
    return float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max())


def absolute_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max())


def ulps(metric: Callable[[np.ndarray, np.ndarray], float]) -> Callable[[np.ndarray, np.ndarray], float]:
    """``metric`` in machine epsilons of the fast path's dtype."""
    return lambda got, want: metric(got, want) / np.finfo(got.dtype).eps


class Bound(NamedTuple):
    """The error limit of a row whose fast path rounds in another order than its twin."""

    limit: float | dict[str, float]  # one limit, or one per result key
    reason: str
    metric: Callable[[np.ndarray, np.ndarray], float] = scaled_error


class Case(NamedTuple):
    name: str  # "<fast path>/<twin>"
    fast: Callable[..., dict]
    twin: Callable[..., dict]
    build: Callable[..., tuple]
    bound: Bound | None = None  # None: bit-exact
    records: Callable[..., int] | None = None  # twin tape records minus the fast path's


def check(name: str, **values) -> None:
    """Row ``name`` on the inputs its builder makes of ``values``: the fast
    path's results against the twin's, exactly or within the row's bound."""
    case = ROWS[name]
    inputs = case.build(**values)
    got, want = dict(case.fast(*inputs)), dict(case.twin(*inputs))
    records = got.pop(RECORDS, None), want.pop(RECORDS, None)
    if case.records is not None:
        assert records[1] - records[0] == case.records(**values), (name, values, records)
    assert got.keys() == want.keys(), (name, values)
    for key in want:
        g, w = np.asarray(got[key]), np.asarray(want[key])
        where = (name, values, key)
        assert g.shape == w.shape, where
        if case.bound is None:
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), where
        else:
            limit = case.bound.limit[key] if isinstance(case.bound.limit, dict) else case.bound.limit
            assert case.bound.metric(g, w) <= limit, (*where, case.bound.reason)


def tape_ops() -> set[str]:
    """The ``kgt.tensor`` functions that record themselves on the tape (they call ``_record``)."""
    tree = ast.parse(inspect.getsource(T))
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_record" for n in ast.walk(node))
    }


def run_op(op, inputs, upstream, *args) -> dict:
    """Output and input gradients of ``op`` on leaves holding copies of ``inputs``, under a fixed upstream gradient."""
    leaves = [Tensor(np.array(x, order="K"), requires_grad=True) for x in inputs]
    with Tape() as tape:
        out = op(*leaves, *args)
    tape.backward(out, upstream)
    assert out.dtype == leaves[0].dtype and all(t.grad.dtype == t.dtype for t in leaves)
    return {"out": out.data, **{f"grad {i}": t.grad for i, t in enumerate(leaves)}}


def op(fn, *args):
    """A side that runs ``fn`` on the row's leaves, upstream gradient and further inputs, then ``args``."""
    return lambda leaves, upstream, *inputs: run_op(fn, leaves, upstream, *inputs, *args)


def merge(**runs: dict) -> dict:
    return {f"{label} {key}": v for label, run in runs.items() for key, v in run.items()}


def run_step(model: Model, run, seed, inputs: dict | None = None, patches=(), extra_grads=None) -> dict:
    """``run(model, *leaves)`` and the backward that ``seed(out)`` starts, on
    a clone of ``model``, on leaves holding copies of ``inputs``, with each
    ``(target, attribute, twin)`` of ``patches`` patched in. ``seed`` returns
    the tensor the backward starts from and its upstream gradient.

    Returns the output, the tensor the backward started from when it is not
    the output, every gradient under its parameter or input name and the tape
    length. Every parameter gradient is the parameter's span of the gradient
    arena; ``extra_grads()`` adds the gradients of a twin's own leaves,
    re-stacked under their arena names.
    """
    model = model.clone()
    leaves = {name: Tensor(np.array(x), requires_grad=True) for name, x in (inputs or {}).items()}
    with pytest.MonkeyPatch.context() as patch:
        for target, attribute, twin in patches:
            patch.setattr(target, attribute, twin)
        with Tape() as tape:
            out = run(model, *leaves.values())
            start, upstream = seed(out)
        tape.backward(start, upstream)
    grads = {name: t.grad for name, t in model.params.items() if t.grad is not None}
    assert all(g is model.params[name].grad_view for name, g in grads.items())
    if extra_grads is not None:
        grads.update(extra_grads())
    leaf_grads = {name: t.grad for name, t in leaves.items()}
    started = {} if start is out else {"losses": start.data}
    return {"out": out.data, **started, **grads, **leaf_grads, RECORDS: len(tape)}


def step(model: Model, batch, loss, training: bool = True, seed: int | None = None, twin=None) -> dict:
    """A training step: the backward of ``loss``'s per-row losses, seeded as
    ``train._train_step`` seeds it for their mean over the batch's graphs;
    every parameter gets a gradient. ``twin()`` gives the patches and the
    extra gradients of :func:`run_step`."""
    rng = None if seed is None else np.random.default_rng(seed)
    patches, extra_grads = twin() if twin else ((), None)

    def mean(z):
        losses = loss(z)
        return losses, batch_mean(losses, batch.graph_count)[1]

    result = run_step(model, lambda m: forward(m, batch, training, rng), mean, patches=patches, extra_grads=extra_grads)
    assert set(model.params) <= result.keys()
    return result


def step_side(seed: int, twin=None):
    """A step of the row's model, batch and loss, seeded with ``seed`` in training (unseeded in eval mode)."""

    def side(model, batch, loss, training) -> dict:
        return step(model, batch, loss, training, seed if training else None, twin)

    return side


def block_side(twin=None):
    """The row's ``run`` on leaves holding its inputs, under a fixed upstream gradient."""

    def side(model, run, inputs, upstream) -> dict:
        patches, extra_grads = twin() if twin else ((), None)
        return run_step(model, run, lambda out: (out, upstream), inputs, patches, extra_grads)

    return side


def leaf_twin(attribute: str, layer_twin, make_leaves, regroup):
    """A patch of ``kgt.model.<attribute>`` with ``layer_twin``, which gets
    fresh leaves ``make_leaves(model, layer)`` at each call, and a callable
    that gives those leaves' gradients under their arena names."""
    made = []

    def twin(model, layer, *args):
        made.append((make_leaves(model, layer), layer))
        return layer_twin(model, layer, *args, made[-1][0])

    return [(kgt.model, attribute, twin)], lambda: {k: g for ls, layer in made for k, g in regroup(ls, layer).items()}


def former_moe_twin():
    """``moe_ffn``'s twin: the former loop of ten tape ops per expert, on :func:`helpers.expert_leaves`."""
    return leaf_twin("moe_ffn", former_moe_ffn, expert_leaves, stacked_grads)


def former_attention_twin():
    """``attention_layer``'s twin: the former ops on :func:`helpers.qkv_leaves`."""
    return leaf_twin("attention_layer", former_attention_layer, qkv_leaves, fused_grads)


def former_decode_twin():
    return [(T, "decode", former_decode)], None


def real_rows_twin():
    """``forward``'s twin: every op of every layer on every real row (:func:`helpers.real_rows_field`)."""
    return [(kgt.model, "field_rows", real_rows_field)], None


# ---- tape ops and kernels


def gelu_op(a: Tensor) -> Tensor:
    """The :func:`kgt.tensor.gelu` kernel and its backward as a tape op."""
    y, th = T.gelu(a.data)
    out = Tensor(y, requires_grad=a.requires_grad)

    def backward(g):
        T._accumulate(a, T._gelu_grad(a.data, th, g), owned=True)

    return T._record(out, backward)


def gelu_formula(leaves, g) -> dict:
    """GELU and its slope, written out in float64."""
    x = leaves[0].astype(np.float64)
    c = np.sqrt(2.0 / np.pi)
    th = np.tanh(c * (x + 0.044715 * x**3))
    slope = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * c * (1.0 + 3 * 0.044715 * x**2)
    return {"out": 0.5 * x * (1.0 + th), "grad 0": g * slope}


def gelu_inputs(seed=None, hidden=None, dtype=np.float32, rows=None):
    """Float32 inputs spread over [-8, 8], where the tanh saturates; with
    ``seed``, ``rows`` x ``2 * hidden`` normal draws at one of three scales."""
    rng = np.random.default_rng(seed or 0)
    if seed is None:
        x = rng.uniform(-8.0, 8.0, size=(200, 300)).astype(np.float32)
    else:
        x = (rng.normal(size=(rows, 2 * hidden)) * rng.choice([0.02, 1.0, 4.0])).astype(dtype)
    return [x], rng.normal(size=x.shape).astype(dtype)


def layer_norm_inputs(seed, hidden, dtype, rows):
    rng = np.random.default_rng(seed)
    x = (rng.normal(size=(rows * 7, hidden)) * 3.0 + rng.normal()).astype(dtype)
    gain = rng.normal(1.0, 0.1, size=hidden).astype(dtype)
    bias = rng.normal(0.0, 0.1, size=hidden).astype(dtype)
    return [x, gain, bias], rng.normal(size=x.shape).astype(dtype)


def attention_inputs(seed, hidden, dtype, width):
    """Three grid rows of ``width``, the projections, an upstream gradient and a mask."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3 * width, hidden)).astype(dtype)
    wqkv = (rng.normal(size=(hidden, 3 * hidden)) * 0.3).astype(dtype)
    wo = rng.normal(size=(hidden, hidden)).astype(dtype)
    mask = (rng.random((3, 1, width, width)) < 0.3) | np.eye(width, dtype=bool)
    return [x, wqkv, wo], rng.normal(size=x.shape).astype(dtype), mask


def whole_grid_plan(mask) -> T.AttentionPlan:
    """The plan of attention over every slot of the [B, 1, N, N] ``mask``'s grid, each a key and a query row."""
    every = np.arange(mask.shape[0] * mask.shape[-1])
    return grid_plan(T.mask_bias(mask), every, every)


def former_attention_split(leaves, g, mask) -> dict:
    """The former attention ops, on leaves holding ``wqkv``'s column blocks, their gradients side by side."""
    x, wqkv, wo = leaves

    def former(h, wq, wk, wv, wo):
        return former_attention_rows(h, wq, wk, wv, wo, T.mask_bias(mask), 4)

    r = run_op(former, [x, *np.split(wqkv, 3, axis=1), wo], g)
    wqkv_grad = np.concatenate([r[f"grad {i}"] for i in (1, 2, 3)], axis=1)
    return {"out": r["out"], "grad 0": r["grad 0"], "grad 1": wqkv_grad, "grad 2": r["grad 4"]}


def gate_inputs(seed, dtype, rows):
    """Gate logits of 4 experts, their top-2 choice, and an upstream gradient."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(rows, 4)).astype(dtype)
    selected = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(selected, np.argsort(-logits, axis=-1, kind="stable")[:, :2], True, axis=-1)
    return logits, selected, rng.normal(size=logits.shape).astype(dtype)


def softmaxes(softmax):
    """``softmax`` under the top-2 routing bias and without a bias."""

    def side(logits, selected, g) -> dict:
        return merge(biased=run_op(softmax, [logits], g, T.mask_bias(selected)), plain=run_op(softmax, [logits], g))

    return side


def normal_rows(seed, hidden, dtype, rows=5):
    rng = np.random.default_rng(seed)
    return tuple(rng.normal(size=(rows, hidden)).astype(dtype) for _ in range(3))


def residual_inputs(seed, hidden, dtype, p, training=True):
    x, a, g = normal_rows(seed, hidden, dtype, rows=9)
    return [x, a], g, p, seed, training


def residual_dropout(leaves, g, p, seed, training) -> dict:
    return run_op(T.dropout, leaves, g, p, np.random.default_rng(seed), training)


def add_of_dropout(leaves, g, p, seed, training) -> dict:
    """``add`` of the residual and the inverted dropout of the branch, one op each."""
    rng = np.random.default_rng(seed)
    return run_op(lambda x, a: T.add(x, former_dropout(a, p, rng, training)), leaves, g)


def binary(fn):
    """``fn`` on two leaves, then on one leaf and a constant that holds the second input."""

    def side(x, y, g) -> dict:
        return merge(leaves=run_op(fn, [x, y], g), constant=run_op(lambda a: fn(a, Tensor(y)), [x], g))

    return side


def one_row_inputs(transposed, dtype, hidden=64):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1, hidden)).astype(dtype)
    w = rng.normal(size=(48, hidden)).astype(dtype).T if transposed else rng.normal(size=(hidden, 48)).astype(dtype)
    return x, w, rng.normal(size=(1, 48)).astype(dtype)


def row_zero_of_two(x, w, g) -> dict:
    """Row 0 of the two-row product of ``x`` doubled, under a zero upstream row 1."""
    r = run_op(T.matmul, [np.repeat(x, 2, axis=0), w], np.concatenate([g, np.zeros_like(g)]))
    return {"out": r["out"][:1], "grad 0": r["grad 0"][:1], "grad 1": r["grad 1"]}


def logit_inputs(dtype, seed, rows, most):
    """Logits of 2 to ``most`` classes with +80 and -80 in row 0, and an upstream gradient."""
    rng = np.random.default_rng(seed)
    classes = int(rng.integers(2, most))
    z = rng.normal(scale=3.0, size=(rows, classes)).astype(dtype)
    z[0, :2] = [80.0, -80.0]
    return rng, classes, z


def cross_entropy_inputs(dtype, seed, alpha):
    rng, classes, z = logit_inputs(dtype, seed, 7, 60)
    targets = rng.integers(classes, size=7)
    return [z], rng.normal(size=7), targets, alpha


def answer_inputs(dtype, seed):
    """Row 1 is all answers and row 2 has one non-answer."""
    rng, classes, z = logit_inputs(dtype, seed, 6, 40)
    sets = [np.sort(rng.choice(classes, size=int(rng.integers(1, classes + 1)), replace=False)) for _ in range(6)]
    sets[1] = np.arange(classes)
    sets[2] = np.delete(np.arange(classes), int(rng.integers(classes)))
    return [z], rng.normal(size=6), sets


GATHERED = {"distinct": [4, 0, 5, 2], "adjacent": [0, 2, 2, 1, 1, 1], "apart": [3, 0, 3, 1, 0, 3]}


def gather_inputs(kind, dtype):
    """A table, an upstream gradient and indexes: ``distinct`` ones, repeats next to each other (``adjacent``)
    or apart (``apart``), a packed stage-1 batch's ``positions``, or the tied decoder's ``arange(E)``."""
    rng = np.random.default_rng(9)
    split = toy_split(4)
    if kind == "positions":
        subs = sample_stage1_batch(split.train, np.random.default_rng(5), batch_size=8, budget=(3, 10))
        batch = encode_subgraphs(subs, split_config(split))
        rows, idx = batch.entity_ids.size, batch.positions
    elif kind == "tied":
        rows, idx = split.entity_count + 1 + split.relation_count, np.arange(split.entity_count)
    else:
        rows, idx = 6, np.array(GATHERED[kind])
    return [rng.normal(size=(rows, 16)).astype(dtype)], rng.normal(size=(idx.size, 16)).astype(dtype), idx


def add_at_gather(leaves, g, idx) -> dict:
    """The gather, and a backward that adds each upstream row into its index's row by ``np.add.at``."""
    grad = np.zeros_like(leaves[0])
    np.add.at(grad, idx, g)
    return {"out": leaves[0][idx], "grad 0": grad}


def scores_inputs(width, dtype):
    """Attention-shaped scores and a mask of 3 grid rows."""
    rng = np.random.default_rng(width)
    scores = rng.normal(size=(3, 4, width, width)).astype(dtype)
    return scores, (rng.random((3, 1, width, width)) < 0.4) | np.eye(width, dtype=bool)


# ---- model blocks and steps


def tiny_config(**overrides) -> ModelConfig:
    defaults = dict(entity_count=20, relation_count=4, layers=2, hidden=16, heads=2, experts=4, top_k=2, dropout=0.0)
    return ModelConfig(**{**defaults, **overrides})


def split_config(split, **overrides) -> ModelConfig:
    """The two-layer, four-expert model of ``split``'s vocabulary that the step rows train."""
    defaults = dict(layers=2, hidden=16, heads=4, experts=4, top_k=2, dropout=0.1)
    vocabulary = dict(entity_count=split.entity_count, relation_count=split.relation_count)
    return ModelConfig(**vocabulary, **{**defaults, **overrides})


P1, P2, P3, I2 = QueryType.P1, QueryType.P2, QueryType.P3, QueryType.I2


def toy_batches(split, cfg, stage1: tuple, finetune: tuple, stage2: tuple | None = None) -> dict:
    """The stage-1, stage-2 and fine-tune batches of ``split`` with their loss callables, by stage.

    ``stage1`` is (seed, sampler keywords); ``stage2`` (seed, meta-graph
    keywords, graphs), with seed None to go on drawing from stage 1's
    generator; ``finetune`` (seed, query shapes, queries per shape), the i-th
    shape drawn from ``default_rng([seed, i])``.
    """
    rng = np.random.default_rng(stage1[0])
    batch1 = encode_subgraphs(sample_stage1_batch(split.train, rng, **stage1[1]), cfg)
    batches = {"stage1": (batch1, lambda z: T.cross_entropy(z, batch1.targets, alpha=0.1))}
    if stage2 is not None:
        seed, kw, graphs = stage2
        rng = rng if seed is None else np.random.default_rng(seed)
        batch2 = encode_subgraphs([sample_meta_graph(split.train, rng, **kw) for _ in range(graphs)], cfg)
        batches["stage2"] = (batch2, lambda z: T.cross_entropy(z, batch2.targets, alpha=0.1))
    seed, shapes, count = finetune
    instances = []
    for i, qtype in enumerate(shapes):
        instances += generate_queries(split, qtype, count, np.random.default_rng([seed, i]))
    answers = [np.asarray(sorted(inst.answers_train), dtype=np.int64) for inst in instances]
    batch3 = encode_queries([inst.query for inst in instances], cfg)
    batches["finetune"] = (batch3, lambda z: T.answer_masked_cross_entropy(z, answers))
    return batches


def toy_stage1(tied: bool = False):
    """The toy-width stage-1 step: four layers at width 64, 32 graphs of the 50-entity graph."""
    cfg = ModelConfig(entity_count=50, relation_count=5, layers=4, hidden=64, heads=4, tie_decoder=tied)
    subs = sample_stage1_batch(toy_split(0).train, np.random.default_rng(3), batch_size=32)
    return Model.init(cfg, seed=7), encode_subgraphs(subs, cfg)


def moe_block_inputs(hidden, training, tied, sizes, width):
    model = Model.init(tiny_config(hidden=hidden, dropout=0.1), seed=33)
    if tied:
        model.params["layer0.gate"].data[:] = 0.0  # top-2 routing leaves experts 2 and 3 without rows
    # the states of the grid's real slots, as forward passes a field
    x = np.random.default_rng(34).normal(size=(len(sizes) * width, hidden)).astype(np.float32)[padded_rows(sizes, width)]

    def run(m, x):
        return kgt.model.moe_ffn(m, 0, x, training, np.random.default_rng(32))

    return model, run, {"x": x}, np.random.default_rng(31).normal(size=x.shape).astype(np.float32)


def attention_block_inputs(hidden, training, heads, rows, width):
    model = Model.init(tiny_config(hidden=hidden, heads=heads, dropout=0.1), seed=43)
    rng = np.random.default_rng(44)
    x = rng.normal(size=(rows * width, hidden)).astype(np.float32)
    plan = whole_grid_plan((rng.random((rows, 1, width, width)) < 0.4) | np.eye(width, dtype=bool))

    def run(m, x):
        return kgt.model.attention_layer(m, 0, x, plan, training, np.random.default_rng(42))

    return model, run, {"x": x}, np.random.default_rng(41).normal(size=x.shape).astype(np.float32)


def decode_block_inputs(hidden, tied, targets):
    model = Model.init(tiny_config(entity_count=2000, hidden=hidden, layers=1, tie_decoder=tied), seed=53)
    states = np.random.default_rng(54).normal(size=(targets, hidden)).astype(np.float32)
    upstream = np.random.default_rng(52).normal(size=(targets, 2000)).astype(np.float32)
    return model, lambda m, s: T.decode(s, decoder_matrix(m)), {"states": states}, upstream


def packing_inputs(kind, **overrides):
    """A model, with its config's ``overrides``, and one batch packed and padded one graph per row; the
    packed one is smaller."""
    if kind == "queries":
        cfg = tiny_config(**{"hidden": 32, "heads": 4, **overrides})
        queries = [
            build_query(P1, (1,), (0,)), build_query(P3, (2,), (0, 1, 2)), build_query(I2, (3, 4), (1, 2)),
            build_query(P2, (5,), (2, 3)), build_query(P1, (6,), (3,)), build_query(QueryType.I3, (7, 8, 9), (0, 1, 2)),
            build_query(P1, (10,), (1,)),
        ]
        packed, padded = encode_queries(queries, cfg), padded_encode_queries(queries, cfg)
        packed.targets = padded.targets = np.arange(len(queries), dtype=np.int64)
    else:
        g = toy_split(4 if kind == "stage1" else 6).train
        cfg = split_config(g, **{"hidden": 32, "dropout": 0.0, **overrides})
        if kind == "stage1":
            subs = sample_stage1_batch(g, np.random.default_rng(5), batch_size=16, budget=(3, 14))
        else:
            rng = np.random.default_rng(7)
            subs = [sample_meta_graph(g, rng, pattern_mix=1.0) for _ in range(16)]
        packed, padded = encode_subgraphs(subs, cfg), padded_encode_subgraphs(subs, cfg)
    assert packed.graph_count == padded.graph_count and packed.entity_ids.size < padded.entity_ids.size
    return Model.init(cfg, seed=31), packed, padded


def batch_step(padded: bool):
    """A step on the packed batch, or on the one padded one graph per row."""

    def side(model, packed, padded_batch) -> dict:
        batch = padded_batch if padded else packed
        return step(model, batch, lambda z: T.cross_entropy(z, batch.targets, alpha=0.1))

    return side


def field_inputs(kind, padded, training):
    """Four layers on ``kind``'s batch, packed or one graph per row, under cross entropy; dropout 0, since
    the field and the twin's rows would draw their masks over other shapes."""
    model, packed, padded_batch = packing_inputs(kind, layers=4, dropout=0.0)
    batch = padded_batch if padded else packed
    return model, batch, lambda z: T.cross_entropy(z, batch.targets, alpha=0.1), training


# ---- moe_ffn against the node-at-a-time oracle


def moe_inputs(seed, x_seed, rows, training, scale=1.0, ties=False, layout=None):
    """A float64 model and ``rows`` node states, or with ``layout`` (graph sizes, row width) the states of the
    real slots of a packed [len(sizes), width] grid, as forward passes a field."""
    cfg = tiny_config()
    model = Model(config=cfg, params=init_parameters(cfg, np.random.default_rng(seed), np.float64))
    if ties:
        model.params["layer0.gate"].data[:] = 0.0  # every expert ties at logit 0; the oracle picks experts 0 and 1
    rows = rows if layout is None else len(layout[0]) * layout[1]
    x = np.random.default_rng(x_seed).normal(scale=scale, size=(rows, 16))
    return model, x if layout is None else x[padded_rows(*layout)], training


def routed_moe(model, x, training) -> dict:
    return {"out": moe_ffn(model, 0, Tensor(x), training, None).data}


def moe_oracle(model, x, training) -> dict:
    """Node-at-a-time reference for layer 0's expert block on [M, d] rows, explicit top-k rule."""
    cfg = model.config
    p = {k.removeprefix("layer0."): t.data for k, t in model.params.items()}
    mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
    flat = (x - mean) / np.sqrt(var + 1e-5) * p["ln2_gain"] + p["ln2_bias"]
    out = np.zeros_like(flat)
    for node in range(len(x)):
        g = flat[node] @ p["gate"]
        if training and cfg.top_k < cfg.experts:
            chosen = sorted(range(cfg.experts), key=lambda j: (-g[j], j))[: cfg.top_k]
        else:
            chosen = list(range(cfg.experts))
        e = np.exp(g[chosen] - np.max(g[chosen]))
        w = e / e.sum()
        ex = {name: p[f"experts.{name}"] for name in ("w1", "b1", "w2", "b2")}
        for weight, j in zip(w, chosen):
            pre = flat[node] @ ex["w1"][j] + ex["b1"][j]
            hidden = 0.5 * pre * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (pre + 0.044715 * pre**3)))
            out[node] += weight * (hidden @ ex["w2"][j] + ex["b2"][j])
    return {"out": x + out}


def draw_inputs(shape, std, seed, dtype=np.float64):
    """A destination of ``shape``; float64 by default: the draws are compared before any rounding."""
    return shape, std, seed, dtype


def truncated_draw(shape, std, seed, dtype) -> dict:
    out = np.empty(shape, dtype)
    truncated_normal(np.random.default_rng(seed), out, std)
    return {"draws": out}


def heap_draw(shape, std, seed, dtype) -> dict:
    return {"draws": heap_truncated_normal(np.random.default_rng(seed), shape, std, dtype)}


# ---- the optimizer

ADAMW = AdamWConfig(lr=0.01, weight_decay=0.05, lr_decay=0.9)


# (300, 130) spans two blocks; the small ones share blocks of the cast
LOOP_SHAPES = {"w": (6, 5), "b": (5,), "big": (300, 130), "g": (7,), "e": (4, 3, 2)}


def loop_inputs(max_norm, dtype, seed=8):
    rng = np.random.default_rng(seed)
    start = {name: rng.normal(size=shape).astype(dtype) for name, shape in LOOP_SHAPES.items()}
    steps = []
    for epoch in [0, 0, 1, 1, 2]:
        grads = {}
        for name, shape in LOOP_SHAPES.items():
            grads[name] = (rng.normal(size=shape) * 10.0 ** int(rng.integers(-2, 3))).astype(dtype)
            grads[name].reshape(-1)[:2] = -0.0  # the former zero moments turned -0.0 into +0.0
        steps.append((epoch, grads))
    return start, steps, max_norm


def arena_loop(start, steps, max_norm) -> dict:
    """The clip and AdamW over the whole arena; the moments start unwritten
    (NaN here), and the gradients stay as the backward left them."""
    params = arena_params(start)
    opt = AdamW(params, ADAMW)
    opt._m.fill(np.nan)
    opt._v.fill(np.nan)
    out = {}
    for k, (epoch, grads) in enumerate(steps):
        for name, g in grads.items():
            set_grad(params[name], g)
        norm = clip_global_norm(params, max_norm)
        assert (norm > max_norm) == (max_norm == 1e-3)
        out |= {f"{k} norm": norm, f"{k} lr": opt.step(epoch, max_norm / norm if norm > max_norm else 1.0)}
        for name, t in params.items():
            span = slice(t.offset, t.offset + t.data.size)
            out[f"{k} {name}"] = t.data.copy()
            out[f"{k} {name} m"] = opt._m[span].reshape(t.shape).copy()
            out[f"{k} {name} v"] = opt._v[span].reshape(t.shape).copy()
            out[f"{k} {name} grad"] = t.grad.copy()
    return out


def per_tensor_loop(start, steps, max_norm) -> dict:
    params = {name: Tensor(a.copy()) for name, a in start.items()}
    loop = LoopAdamW(params, ADAMW)
    out = {}
    for k, (epoch, grads) in enumerate(steps):
        for name, g in grads.items():
            params[name].grad = g.copy()
        out |= {f"{k} norm": loop_clip_global_norm(params, max_norm), f"{k} lr": loop.step(epoch)}
        for name, t in params.items():
            out[f"{k} {name}"] = t.data.copy()
            out[f"{k} {name} m"] = loop.m[name].copy()
            out[f"{k} {name} v"] = loop.v[name].copy()
            out[f"{k} {name} grad"] = grads[name]
    return out


def norm_inputs():
    rng = np.random.default_rng(5)
    shapes = [(14506, 128), (128,), (3, 70001), (1,)]
    params = arena_params({str(i): np.zeros(shape, dtype=np.float32) for i, shape in enumerate(shapes)})
    for t in params.values():
        set_grad(t, (rng.standard_normal(t.shape) * 10.0 ** int(rng.integers(-4, 3))).astype(np.float32))
    return (params,)


def full_float64_norm(params) -> dict:
    return {"norm": math.sqrt(sum(float(np.sum(t.grad.astype(np.float64) ** 2)) for t in params.values()))}


ULP64 = "64 ulps of the largest value"
PADDED = "at dropout 0 only the summation order changes: 1e-5 of each array's largest magnitude, about 84 float32 ulps"

CASES = (
    # ---- tape ops and kernels, against their former bodies in helpers.py
    Case("gelu/float64-formula", op(gelu_op), gelu_formula, gelu_inputs, Bound(
        {"out": 4, "grad 0": 64},
        "the kernel against the formula in float64, over max(1, |reference|); 1 - tanh^2 cancels for |x| past 3 "
        "(measured 1.5e-7 and 3.1e-6 at |x| <= 8)",
        ulps(element_error),
    )),
    Case("layer_norm/former", op(T.layer_norm), op(former_layer_norm), layer_norm_inputs),
    Case("attention/former-ops", lambda leaves, g, mask: run_op(T.attention, leaves, g, whole_grid_plan(mask), 4),
         former_attention_split, attention_inputs),
    Case("softmax/former-boolean-mask", softmaxes(T.softmax), softmaxes(former_gate_softmax), gate_inputs),
    # off (eval mode or p = 0) it is the add alone
    Case("dropout/add-of-dropout", residual_dropout, add_of_dropout, residual_inputs),
    Case("add/former", binary(T.add), binary(former_add), normal_rows),
    # a one-row product stays on BLAS gemm (gemv rounds differently)
    Case("matmul/one-row", lambda x, w, g: run_op(T.matmul, [x, w], g), row_zero_of_two, one_row_inputs),
    Case("_gemm/zero-padded-row", lambda x, w, g: {"out": T._gemm(x, w)},
         lambda x, w, g: {"out": (np.concatenate([x, np.zeros_like(x)]) @ w)[:1]}, one_row_inputs),
    Case("cross_entropy/dense-labels", op(T.cross_entropy), op(dense_cross_entropy), cross_entropy_inputs,
         Bound(64, f"the dense [P, C] smoothed labels sum in another order; {ULP64}", ulps(scaled_error))),
    Case("cross_entropy/dense-labels-unsmoothed", op(T.cross_entropy), op(dense_cross_entropy), cross_entropy_inputs),
    Case("answer_masked_cross_entropy/per-row-loop", op(T.answer_masked_cross_entropy),
         op(loop_answer_masked_cross_entropy), answer_inputs,
         Bound(64, f"sums reordered and a closed-form backward against [A, V] temporaries; {ULP64}",
               ulps(scaled_error))),
    # without a repeat the backward adds in one indexed add, with repeats by np.add.at: the same sums
    Case("gather_rows/add-at", op(T.gather_rows), add_at_gather, gather_inputs),
    Case("masked_softmax/former-boolean-mask", lambda s, mask: {"out": T.masked_softmax(s.copy(), T.mask_bias(mask))},
         lambda s, mask: {"out": former_masked_softmax(Tensor(s), mask).data}, scores_inputs),
    # ---- model blocks and steps: moe_experts, attention and decode inside the model
    Case("moe_experts/former-expert-loop", block_side(), block_side(former_moe_twin), moe_block_inputs),
    Case("attention_layer/former-ops", block_side(), block_side(former_attention_twin), attention_block_inputs),
    # the former head recorded one more tape op; one target is a doubled-row gemm, 131 an fb15k-sized count
    Case("decode/former-decode", block_side(), block_side(former_decode_twin), decode_block_inputs,
         records=lambda **_: 1),
    # ---- forward with each layer on its field against every op of every layer on every real row
    Case("forward/field-rows", step_side(71), step_side(71, real_rows_twin), field_inputs, Bound(
        2e-6, "the field gives the products, softmax sums and layer norms other row and column counts, which BLAS "
        "and numpy's pairwise sums group in another order: 2e-6 of each array's largest magnitude, about 17 float32 "
        "ulps (measured 3.3e-7 for the logits and 7.9e-7 for the gradients at 1, 2 and 4 threads)",
    )),
    # ---- the packed encoders against one graph per row padded to the widest
    Case("encode_subgraphs/padded", batch_step(False), batch_step(True), packing_inputs, Bound(1e-5, PADDED)),
    Case("encode_queries/padded-queries", batch_step(False), batch_step(True), partial(packing_inputs, "queries"),
         Bound(1e-5, PADDED)),
    # ---- moe_ffn against the node-at-a-time oracle
    Case("moe_ffn/node-at-a-time", routed_moe, moe_oracle, partial(moe_inputs, 3, 4, rows=200, scale=0.5),
         Bound(1e-5, "float64 against a node-at-a-time loop", absolute_error)),
    Case("truncated_normal/heap-draw", truncated_draw, heap_draw, draw_inputs),
    # ---- the optimizer
    # the norm adds the same float64 block sums in the same order, and the update the same elementwise
    # operations (np.multiply(g, scale, out=u) rounds as g *= scale); the first step's moments, written into
    # unwritten arrays, round as the former zero moments' update
    Case("AdamW.step/per-tensor-loop", arena_loop, per_tensor_loop, loop_inputs),
    Case("clip_global_norm/float64-full-sum", lambda params: {"norm": clip_global_norm(params, 1e30)},
         full_float64_norm, norm_inputs,
         Bound(1e-12, "the blocked float64 sum adds in another order than the full-array sum")),
)
ROWS = {case.name: case for case in CASES}
