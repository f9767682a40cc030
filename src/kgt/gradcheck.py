"""Finite-difference gradient checking for every op and the full model.

The oracle is central differences in float64: for each input element x,
(f(x+h) - f(x-h)) / 2h with h = ``STEP``. Errors are reported per element as
|analytic - numeric| / max(|analytic|, |numeric|, 1), i.e. relative for large
gradients and absolute near zero. An op passes within ``OP_TOLERANCE``, the
whole model within ``MODEL_TOLERANCE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import tensor as T
from .model import Model, ModelConfig, encode_subgraphs, forward, init_parameters, moe_ffn, parameter_shapes
from .sampling import sample_stage1_batch
from .tensor import Tape, Tensor
from .train import batch_mean

STEP = 1e-5
OP_TOLERANCE = 1e-4
MODEL_TOLERANCE = 1e-3


def numeric_gradient(f: Callable[[], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of f with respect to x (mutated in place)."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + STEP
        up = f()
        flat[i] = keep - STEP
        down = f()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * STEP)
    return grad


def gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float((np.abs(analytic - numeric) / denom).max())


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def check_function(
    name: str,
    f: Callable[[dict[str, Tensor]], tuple[Tensor, np.ndarray]],
    params: dict[str, Tensor],
    tolerance: float,
) -> CheckResult:
    """Compare tape gradients against central differences for ``out, upstream = f(params)``:
    the backward starts from ``out`` under the fixed upstream gradient ``upstream``, the
    differences are of ``sum(out * upstream)``."""
    with Tape() as tape:
        out, upstream = f(params)
    tape.backward(out, upstream)
    analytic = {key: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data)) for key, t in params.items()}

    def value() -> float:
        out, upstream = f(params)
        return float((out.data * upstream).sum())

    worst = 0.0
    for key, t in params.items():
        worst = max(worst, gradient_error(analytic[key], numeric_gradient(value, t.data)))
    return CheckResult(name=name, max_error=worst, tolerance=tolerance)


def _p(rng: np.random.Generator, *shape) -> Tensor:
    return Tensor(rng.normal(0.0, 0.5, size=shape), requires_grad=True, dtype=np.float64)


def _wide(rng: np.random.Generator, *shape) -> Tensor:
    return Tensor(rng.uniform(-6.0, 6.0, size=shape), requires_grad=True, dtype=np.float64)


def _weighted(out: Tensor, rng: np.random.Generator) -> tuple[Tensor, np.ndarray]:
    """``out`` and a fixed random upstream gradient for it."""
    return out, rng.normal(0.0, 1.0, size=out.data.shape)


class OpCase(NamedTuple):
    """One op gradcheck: ``op`` takes one tensor per entry of ``shapes``, drawn
    by ``draw``, and ``_weighted`` draws the upstream gradient of its output
    from ``default_rng(seed)``."""

    name: str
    op: Callable[..., Tensor]
    shapes: tuple[tuple[int, ...], ...]
    seed: int
    draw: Callable[..., Tensor] = _p


_MASK_BIAS = T.mask_bias((np.random.default_rng(22).random((2, 1, 4, 4)) < 0.5) | np.eye(4, dtype=bool))  # 7 of 8 rows masked in part
_PAIRS = np.array([[0, 1], [1, 2], [2, 3], [4, 5], [4, 6], [4, 7]])  # slots of a 2 x 4 grid: 7 of 8 rows masked in part
_ATTENTION_SHAPES = ((8, 4), (4, 12), (4, 4))  # h (the whole grid), wqkv, wo
_PLAN = T.attention_plan(_PAIRS, (2, 4), np.arange(8), np.arange(8))
_KEY_ROWS = np.array([0, 1, 3, 5, 6])  # flat slots of the 2 x 4 grid
_KEY_SHAPES = ((5, 4), (4, 12), (4, 4))
_QUERY_PLAN = T.attention_plan(_PAIRS, (2, 4), _KEY_ROWS, np.array([0, 3]))
_ONE_QUERY_PLAN = T.attention_plan(_PAIRS, (2, 4), _KEY_ROWS, np.array([5]))
_TARGETS = np.array([1, 0, 3])
_ANSWERS = [np.array([0, 3]), np.array([5]), np.array([1, 2, 6])]
_EDGE_ANSWERS = [np.arange(5), np.array([0, 1, 3, 4])]  # every class an answer; a single non-answer
_ROUTES = [np.array([0, 2, 3]), np.array([], dtype=np.int64), np.array([1, 2, 4])]  # expert 1 serves no row
_MOE_SHAPES = ((5, 3), (5, 3), (3, 3, 4), (3, 4), (3, 4, 3), (3, 3))  # x, weights, w1, b1, w2, b2

# Parameters are drawn from one shared generator in this order, so adding,
# removing or reordering a row changes the draws of every row after it.
OP_CASES = (
    OpCase("add", T.add, ((3, 4), (3, 4)), 0),
    OpCase("matmul", T.matmul, ((3, 4), (4, 5)), 2),
    OpCase("decode", T.decode, ((3, 4), (6, 4)), 3),
    # the tied decoder: the first 5 of 7 embedding rows
    OpCase("decode_gathered", lambda s, e: T.decode(s, T.gather_rows(e, np.arange(5))), ((3, 4), (7, 4)), 24),
    OpCase("gather_rows_repeats", lambda a: T.gather_rows(a, np.array([0, 2, 2, 1])), ((3, 5),), 4),
    OpCase("moe_experts", lambda *t: T.moe_experts(*t, _ROUTES), _MOE_SHAPES, 8),
    OpCase("layer_norm", T.layer_norm, ((4, 6), (6,), (6,)), 9),
    OpCase("softmax_masked", lambda a: T.softmax(a, _MASK_BIAS), ((2, 3, 4, 4),), 10),
    OpCase("dropout", lambda x, a: T.dropout(x, a, 0.4, np.random.default_rng(11), training=True), ((6, 5), (6, 5)), 11),
    OpCase("cross_entropy_smoothed", lambda z: T.cross_entropy(z, _TARGETS, alpha=0.3), ((3, 4),), 12),
    OpCase("answer_masked_cross_entropy", lambda z: T.answer_masked_cross_entropy(z, _ANSWERS), ((3, 8),), 13),
    # inputs spread wide enough to saturate the tanh of the GELU
    OpCase("moe_experts_wide", lambda *t: T.moe_experts(*t, _ROUTES), _MOE_SHAPES, 18, _wide),
    OpCase(
        "answer_masked_cross_entropy_all_answers",
        lambda z: T.answer_masked_cross_entropy(z, _EDGE_ANSWERS),
        ((2, 5),),
        19,
    ),
    OpCase("cross_entropy_hard", lambda z: T.cross_entropy(z, _TARGETS, alpha=0.0), ((3, 4),), 20),
    # row 1 is never gathered
    OpCase("gather_rows_distinct", lambda a: T.gather_rows(a, np.array([2, 0, 3])), ((4, 5),), 21),
    OpCase("attention", lambda *t: T.attention(*t, _PLAN, 2), _ATTENTION_SHAPES, 22),
    OpCase("attention_one_head", lambda *t: T.attention(*t, _PLAN, 1), _ATTENTION_SHAPES, 23),
    # keys at 5 slots of the 2 x 4 grid, queries at slots 0 and 3; grid row 1 has keys but no query
    OpCase("attention_query_rows", lambda *t: T.attention(*t, _QUERY_PLAN, 2), _KEY_SHAPES, 25),
    # one query row, at slot 5: its 2-D products take _gemm's doubled row
    OpCase("attention_one_query", lambda *t: T.attention(*t, _ONE_QUERY_PLAN, 2), _KEY_SHAPES, 26),
)


def op_suite() -> list[CheckResult]:
    """Gradcheck every differentiable op on small random instances."""
    results = []
    rng = np.random.default_rng(7)
    for case in OP_CASES:
        params = {str(i): case.draw(rng, *shape) for i, shape in enumerate(case.shapes)}

        def f(p, case=case):
            return _weighted(case.op(*p.values()), np.random.default_rng(case.seed))

        results.append(check_function(case.name, f, params, OP_TOLERANCE))
    results.append(moe_check())
    return results


def moe_check() -> CheckResult:
    """Top-2-of-4 routed MoE block on 4 rows."""
    rng = np.random.default_rng(15)
    config = ModelConfig(
        entity_count=2, relation_count=1, layers=1, hidden=4, heads=2, experts=4, top_k=2, expert_hidden=6
    )
    moe_params = {
        name: _p(rng, *shape)
        for name, shape in parameter_shapes(config).items()
        if name.startswith(("layer0.ln2", "layer0.gate", "layer0.experts"))
    }

    def f(p):
        model = Model(config=config, params=p)
        out = moe_ffn(model, 0, p["x"], training=True, rng=np.random.default_rng(16))
        return _weighted(out, np.random.default_rng(17))

    return check_function("moe_ffn_top2", f, {**moe_params, "x": _p(rng, 4, 4)}, OP_TOLERANCE)


def model_check() -> CheckResult:
    """End-to-end gradcheck of a small model in float64.

    Two layers, width 8, two heads, two experts, dropout off (the check layers
    training-mode routing on top of deterministic arithmetic), masked cross
    entropy at the sampled mask positions.
    """
    from .graph import KnowledgeGraph

    rng = np.random.default_rng(42)
    triples = []
    for _ in range(18):
        h, t = rng.integers(6, size=2)
        r = int(rng.integers(3))
        if (int(h), r, int(t)) not in triples:
            triples.append((int(h), r, int(t)))
    graph = KnowledgeGraph(6, 3, triples)
    config = ModelConfig(
        entity_count=6, relation_count=3, layers=2, hidden=8, heads=2, experts=2, top_k=2, dropout=0.0
    )
    params = init_parameters(config, rng, dtype=np.float64)
    subs = sample_stage1_batch(graph, rng, batch_size=2, budget=(4, 6))
    batch = encode_subgraphs(subs, config)

    def f(p):
        logits = forward(Model(config=config, params=p), batch, training=True)
        losses = T.cross_entropy(logits, batch.targets, alpha=0.1)
        return losses, batch_mean(losses, batch.graph_count)[1]

    return check_function("model_end_to_end", f, params, MODEL_TOLERANCE)


def run_all() -> list[CheckResult]:
    return op_suite() + [model_check()]
