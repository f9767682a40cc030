"""Reverse-mode autodiff over numpy arrays with an explicit tape.

Ops record themselves on the innermost active :class:`Tape`; ``Tape.backward``
replays the records once, in reverse execution order (execution order is a
topological order, so each node's output gradient is complete before its
backward runs). Tensors store float32 by default; gradient checking runs the
same code in float64.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np


class Tensor:
    """A numpy array plus an accumulated gradient.

    A parameter built by :func:`kgt.optim.parameter_arena` also has a
    ``grad_view``, its span of the arena's gradient array, which starts
    ``offset`` elements into that array: its first gradient is written there.
    Every other tensor has None for both.
    """

    __slots__ = ("data", "requires_grad", "grad", "grad_view", "offset")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.grad_view: np.ndarray | None = None
        self.offset: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of ops for one backward pass."""

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPES.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, out: Tensor, grad: np.ndarray | None = None) -> None:
        """Accumulate the gradient of ``out`` into the ``grad`` of every reachable leaf tensor.

        ``grad`` is the upstream gradient that the backward starts from, of
        ``out``'s shape and cast to its dtype; without one it is all ones. An
        op output's gradient is dropped once its backward has passed it on, so
        the backward reuses that memory instead of growing the heap; only
        ``out`` and the leaves (parameters and inputs) keep theirs.
        """
        if grad is None:
            out.grad = np.ones_like(out.data)
        elif np.shape(grad) != out.data.shape:
            raise ValueError(f"upstream gradient of shape {np.shape(grad)} for an output of shape {out.data.shape}")
        else:
            out.grad = np.array(grad, dtype=out.data.dtype)
        for node, backward in reversed(self._records):
            if node.grad is None:
                continue  # not on any path to out
            backward(node.grad)
            if node is not out:
                node.grad = None


def _record(out: Tensor, backward: Callable[[np.ndarray], None]) -> Tensor:
    if _TAPES and out.requires_grad:
        _TAPES[-1]._records.append((out, backward))
    return out


def _grad_out(t: Tensor) -> np.ndarray | None:
    """Where a backward may write ``t``'s gradient with ``out=``: a parameter's
    ``grad_view`` while it holds no gradient yet, else None (a new array)."""
    if t.requires_grad and t.grad is None:
        return t.grad_view
    return None


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``.

    A parameter's first gradient is copied into its ``grad_view``, unless the
    backward already wrote it there (:func:`_grad_out`). For other tensors,
    ``owned`` says that the backward has just built ``g`` and hands it over, so
    a first gradient can keep it instead of copying it. Otherwise a first
    gradient is a private C-ordered copy: g may be a view of another tensor's
    grad or a transposed view.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        if t.grad_view is not None:
            if g is not t.grad_view:
                np.copyto(t.grad_view, g)
            t.grad = t.grad_view
        elif owned and isinstance(g, np.ndarray) and g.dtype == t.data.dtype and g.flags.c_contiguous:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype, order="C")
    else:
        t.grad += g


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add operands differ in shape: {a.data.shape} and {b.data.shape}")
    out = Tensor(a.data + b.data, requires_grad=a.requires_grad or b.requires_grad)

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _record(out, backward)


def _gemm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for 2-D operands, a one-row ``x`` included.

    numpy sends a one-row product to BLAS gemv, which rounds differently from
    gemm; a doubled row keeps it on gemm, and row 0 is the product.
    """
    if x.shape[0] == 1:
        return (np.repeat(x, 2, axis=0) @ w)[:1]
    return x @ w


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for 2-D operands."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul operands must be 2-D, got shapes {a.data.shape} and {b.data.shape}")
    out = Tensor(_gemm(a.data, b.data), requires_grad=a.requires_grad or b.requires_grad)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _gemm(g, b.data.T), owned=True)
        if b.requires_grad:
            _accumulate(b, np.matmul(a.data.T, g, out=_grad_out(b)), owned=True)

    return _record(out, backward)


def decode(states: Tensor, table: Tensor) -> Tensor:
    """``states @ table.T``: [P, d] states scored against the rows of a [V, d] table.

    The table's gradient ``g.T @ states`` is built [V, d] and, for a
    parameter, written straight into its ``grad_view``; it rounds as the
    former ``(states.T @ g).T`` of ``matmul(states, transpose(table))``.
    """
    if states.data.ndim != 2 or table.data.ndim != 2:
        raise ValueError(f"decode operands must be 2-D, got shapes {states.data.shape} and {table.data.shape}")
    out = Tensor(_gemm(states.data, table.data.T), requires_grad=states.requires_grad or table.requires_grad)

    def backward(g):
        if states.requires_grad:
            _accumulate(states, _gemm(g, table.data), owned=True)
        if table.requires_grad:
            _accumulate(table, np.matmul(g.T, states.data, out=_grad_out(table)), owned=True)

    return _record(out, backward)


def gather_rows(a: Tensor, indexes: np.ndarray) -> Tensor:
    """Fancy-index the first axis; gradients scatter-add back (repeats sum).

    The backward sorts the indexes once to find a repeat. Without one it adds
    in one plain indexed add, which gives the same sums as ``np.add.at``
    without its per-element cost.
    """
    idx = np.asarray(indexes, dtype=np.int64)
    out = Tensor(a.data[idx], requires_grad=a.requires_grad)

    def backward(g):
        if not a.requires_grad:
            return
        if a.grad is None:
            if a.grad_view is None:
                a.grad = np.zeros_like(a.data)
            else:
                a.grad = a.grad_view
                a.grad.fill(0)
        ordered = np.sort(idx)
        if (ordered[1:] != ordered[:-1]).all():
            a.grad[idx] += g
        else:
            np.add.at(a.grad, idx, g)

    return _record(out, backward)


_GELU_COEFF = math.sqrt(2.0 / math.pi)
_LAYER_NORM_EPS = 1e-5


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian error linear unit, tanh approximation, of an array.

    ``0.5 * x * (1 + tanh(c * (x + 0.044715 * x**3)))``, rounded in that order.
    Returns the activation and the tanh term, which :func:`_gelu_grad` reuses.
    The passes write into as few buffers as they can; products and sums are
    only commuted, which rounds the same.
    """
    x2 = x * x  # not x**3: numpy sends float32 powers to powf, 200x slower
    th = x2 * x
    th *= 0.044715
    th += x
    th *= _GELU_COEFF
    np.tanh(th, out=th)
    y = x * 0.5
    y *= th + 1.0
    return y, th


def _gelu_grad(x: np.ndarray, th: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g`` times :func:`gelu`'s slope at ``x``, given its tanh term ``th``:
    ``g * (0.5 * (1 + th) + 0.5 * x * sech2 * d_inner)``, ``sech2 = 1 - th * th``, ``d_inner = c * (1 + 3 * 0.044715 * x * x)``."""
    sech2 = th * th
    np.subtract(1.0, sech2, out=sech2)
    d_inner = x * x
    d_inner *= 3 * 0.044715
    d_inner += 1.0
    d_inner *= _GELU_COEFF
    slope = x * 0.5
    slope *= sech2
    slope *= d_inner
    gx = np.add(th, 1.0, out=sech2)
    gx *= 0.5
    gx += slope
    gx *= g
    return gx


def moe_experts(x: Tensor, weights: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, routes: Sequence[np.ndarray]) -> Tensor:
    """The experts of a mixture-of-experts block, as one op over stacked weights.

    ``x`` is [M, d] and ``weights`` [M, E]. Expert j runs on the ascending rows
    ``routes[j]`` alone, and row r of the output sums ``weights[r, j] *
    (gelu(x[r] @ w1[j] + b1[j]) @ w2[j] + b2[j])`` over its experts, in expert
    order. Each expert's products keep its own row count, so BLAS rounds them
    as for that expert alone. An expert with no rows gets zero gradients.
    """
    if len(routes) != w1.data.shape[0]:
        raise ValueError(f"moe_experts needs one route per expert: {len(routes)} routes for {w1.data.shape[0]} experts")
    out = np.zeros_like(x.data)
    saved = []
    for j, rows in enumerate(routes):
        inputs = x.data[rows]
        pre = _gemm(inputs, w1.data[j])
        pre += b1.data[j]
        hidden, th = gelu(pre)
        y = _gemm(hidden, w2.data[j])
        y += b2.data[j]
        out[rows] += y * weights.data[rows, j, None]
        saved.append((rows, inputs, pre, th, hidden, y))
    out = Tensor(out, requires_grad=any(t.requires_grad for t in (x, weights, w1, b1, w2, b2)))

    def backward(g):
        # experts last to first: a row of gx sums its experts' terms in that
        # order; each expert writes its slice of every weight gradient, first
        # gradients straight into the parameters' grad_view
        gx, gweights = np.zeros_like(x.data), np.zeros_like(weights.data)
        gw1, gb1, gw2, gb2 = (np.zeros_like(t.data) if _grad_out(t) is None else t.grad_view for t in (w1, b1, w2, b2))
        for j in reversed(range(len(saved))):
            rows, inputs, pre, th, hidden, y = saved[j]
            g_term = g[rows]
            gweights[rows, j] += (g_term * y).sum(axis=1)
            g_y = g_term * weights.data[rows, j, None]
            g_y.sum(axis=0, out=gb2[j])
            np.matmul(hidden.T, g_y, out=gw2[j])
            g_pre = _gelu_grad(pre, th, _gemm(g_y, w2.data[j].T))
            g_pre.sum(axis=0, out=gb1[j])
            np.matmul(inputs.T, g_pre, out=gw1[j])
            gx[rows] += _gemm(g_pre, w1.data[j].T)
        for t, grad in ((x, gx), (weights, gweights), (w1, gw1), (b1, gb1), (w2, gw2), (b2, gb2)):
            _accumulate(t, grad, owned=True)

    return _record(out, backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row of an [M, d] ``a`` to zero mean and unit variance, then affine.

    The variance is numpy's ``x.var(axis=-1)`` step for step (square, sum,
    divide by the item count as ``np.intp``), with ``x - mean`` computed once
    and shared with ``xhat``.
    """
    x = a.data
    if x.ndim != 2:
        raise ValueError(f"layer_norm input must be 2-D, got shape {x.shape}")
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    xhat = np.square(centered)
    var = xhat.sum(axis=-1, keepdims=True)
    np.true_divide(var, np.intp(x.shape[-1]), out=var, casting="unsafe")
    var += _LAYER_NORM_EPS
    inv_std = np.sqrt(var, out=var)
    np.divide(1.0, inv_std, out=inv_std)
    np.multiply(centered, inv_std, out=xhat)
    y = xhat * gain.data
    y += bias.data
    out = Tensor(y, requires_grad=a.requires_grad or gain.requires_grad or bias.requires_grad)

    def backward(g):
        scratch = g * xhat
        _accumulate(gain, scratch.sum(axis=0), owned=True)
        _accumulate(bias, g.sum(axis=0), owned=True)
        # inv_std * (gx - mean(gx) - xhat * mean(gx * xhat)), with gx = g * gain
        gx = g * gain.data
        mean_gx = gx.mean(axis=-1, keepdims=True)
        np.multiply(gx, xhat, out=scratch)
        mean_gx_xhat = scratch.mean(axis=-1, keepdims=True)
        gx -= mean_gx
        gx -= np.multiply(xhat, mean_gx_xhat, out=scratch)
        gx *= inv_std
        _accumulate(a, gx, owned=True)

    return _record(out, backward)


def dropout(x: Tensor, a: Tensor, p: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """The residual ``x + Drop(a)`` as one op. Inverted dropout zeroes ``a`` with probability p and scales survivors by 1/(1-p).

    Without dropout (eval mode, or p = 0) it is :func:`add`. Otherwise it rounds
    as ``x + a * keep``, and the backward hands ``x`` its gradient before ``a``.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return add(x, a)
    if rng is None:
        raise ValueError("training-mode dropout needs a random generator")
    if x.data.shape != a.data.shape:
        raise ValueError(f"dropout operands differ in shape: {x.data.shape} and {a.data.shape}")
    keep = (rng.random(a.data.shape) >= p).astype(a.data.dtype) / (1.0 - p)
    out = Tensor(x.data + a.data * keep, requires_grad=x.requires_grad or a.requires_grad)

    def backward(g):
        _accumulate(x, g)
        _accumulate(a, g * keep, owned=True)

    return _record(out, backward)


def mask_bias(mask: np.ndarray) -> np.ndarray:
    """The additive float32 form of a boolean softmax mask: 0 where True, -inf where False.

    Raises ``ValueError`` if a row (the last axis) has every position masked,
    since its softmax would be 0/0.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("masked_softmax row with every position masked")
    return np.where(mask, np.float32(0.0), np.float32(-np.inf))


def masked_softmax(x: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """Softmax over the last axis of ``x + bias``, written into ``x``'s buffer.

    ``bias`` is a :func:`mask_bias` broadcast against ``x``, or None for none:
    where it is -inf the output is exactly 0. The bias is added, the row
    maximum subtracted, and the rows exponentiated and normalized in place.
    """
    if bias is not None:
        x += bias
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g`` taken back through a softmax of output ``p``; exact at masked slots, where ``p`` is 0."""
    gx = g * p
    np.subtract(g, gx.sum(axis=-1, keepdims=True), out=gx)
    gx *= p
    return gx


def softmax(a: Tensor, bias: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis of ``a + bias``, by :func:`masked_softmax` on a copy of ``a``."""
    p = masked_softmax(a.data.copy(), bias)
    out = Tensor(p, requires_grad=a.requires_grad)

    def backward(g):
        _accumulate(a, _softmax_grad(p, g), owned=True)

    return _record(out, backward)


class AttentionPlan(NamedTuple):
    """One attention layer's layout: its key and query rows, each in a slot of
    its own in a [g, nk] and a [g, nq] layout over the g used grid rows, and the
    slot bias. :func:`attention_plan` builds it; :func:`attention` reads it."""

    rows: np.ndarray  # [K] ascending flat grid slots of the key rows
    queries: np.ndarray  # [Q] ascending indexes, among ``rows``, of the query rows
    key_slot: np.ndarray  # [K] flat slot of each key row
    query_slot: np.ndarray  # [Q] flat slot of each query row
    bias: np.ndarray  # [g, nq, nk] float32: 0 where a query slot attends to a key slot, -inf elsewhere


def attention_plan(pairs: np.ndarray, grid: tuple[int, int], rows: np.ndarray, kept: np.ndarray) -> AttentionPlan:
    """The plan of attention from the query rows ``kept`` over the key rows ``rows`` of a ``grid`` of [B, N] slots.

    ``rows`` and ``kept`` are ascending flat grid slots, ``kept`` among
    ``rows``. ``pairs`` [E, 2] lists flat slots of one grid row that attend
    to each other; every slot attends to itself. Keys and queries are laid out
    per used grid row, each row in a slot of its own, in order; a lone query
    takes two slots where its grid row has two keys, so that its products stay
    on BLAS gemm, which rounds as for more queries. A key slot left empty is
    masked in every query slot, and a query slot left empty takes the bias of
    its grid row's first key, which attends to itself, so that no softmax row
    is all masked.
    """
    queries = np.searchsorted(rows, kept)
    grid_row, query_row = rows // grid[1], rows[queries] // grid[1]
    key_col = np.arange(len(rows)) - np.searchsorted(grid_row, grid_row)  # each row's slot in its grid row
    query_col = np.arange(len(queries)) - np.searchsorted(query_row, query_row)
    first = key_col == 0  # the first key of each used grid row
    key_row = np.cumsum(first) - 1  # index among the used grid rows
    nk = int(key_col.max()) + 1
    nq = max(min(2, nk), int(query_col.max()) + 1)
    index = np.full(grid[0] * grid[1], -1)  # each grid slot's index among the key rows, -1 for none
    index[rows] = np.arange(len(rows))
    # each key row's bias as a query; a pair with an end that is no key writes into the spare last row or column
    key_bias = np.full((len(rows) + 1, nk + 1), -np.inf, dtype=np.float32)
    links = index[np.concatenate([pairs, pairs[:, ::-1]])]  # both ways
    key_bias[links[:, 0], np.append(key_col, nk)[links[:, 1]]] = 0.0
    key_bias[np.arange(len(rows)), key_col] = 0.0
    query_slot = key_row[queries] * nq + query_col
    source = np.repeat(np.flatnonzero(first), nq)
    source[query_slot] = queries
    return AttentionPlan(rows, queries, key_row * nk + key_col, query_slot, key_bias[:, :nk][source].reshape(-1, nq, nk))


def attention(h: Tensor, wqkv: Tensor, wo: Tensor, plan: AttentionPlan, heads: int) -> Tensor:
    """Masked multi-head attention of query rows over key rows of a grid: ``softmax(q k^T * scale + bias) v`` per head, then ``@ wo``.

    ``h`` holds the [K, d] key rows of ``plan`` (:func:`attention_plan`) and
    the op returns the [Q, d] outputs of its query rows. ``wqkv`` is ``[wq |
    wk | wv]``, and ``scale`` ``1/sqrt(d / heads)`` in ``h``'s dtype. Keys and
    queries sit in the plan's slots, and the backward gathers each row's
    gradient from its slot. The products are per used grid row and
    projection, as the former per-projection ops took them.
    """
    g, nq, nk = plan.bias.shape
    d, hd = h.shape[1], h.shape[1] // heads
    scale = h.dtype.type(1.0 / math.sqrt(hd))
    queries, key_slot, query_slot = plan.queries, plan.key_slot, plan.query_slot

    def lay_out(x: np.ndarray, slots: np.ndarray, width: int) -> np.ndarray:
        grid = np.zeros((g * width, x.shape[1]), dtype=x.dtype)
        grid[slots] = x
        return grid.reshape(g, width, x.shape[1])

    def split_heads(x: np.ndarray) -> np.ndarray:
        return x.reshape(g, -1, heads, hd).transpose(0, 2, 1, 3)

    # one product per grid row and projection: h @ wqkv ran slower on one OpenBLAS thread
    key_grid = lay_out(h.data, key_slot, nk)
    wq, wk, wv = wqkv.data[:, :d], wqkv.data[:, d : 2 * d], wqkv.data[:, 2 * d :]
    hq = h.data[queries]
    q = split_heads(lay_out(hq, query_slot, nq) @ wq)
    k, v = split_heads(key_grid @ wk), split_heads(key_grid @ wv)
    p = masked_softmax(q @ np.swapaxes(k, -1, -2) * scale, plan.bias[:, None])
    context = (p @ v).transpose(0, 2, 1, 3).reshape(g, nq, d)
    out = Tensor((context @ wo.data).reshape(g * nq, d)[query_slot], requires_grad=h.requires_grad or wqkv.requires_grad or wo.requires_grad)
    context = context.reshape(g * nq, d)[query_slot]

    def backward(grad):
        _accumulate(wo, np.matmul(context.T, grad, out=_grad_out(wo)), owned=True)
        g_context = split_heads(lay_out(_gemm(grad, wo.data.T), query_slot, nq))
        g_scores = _softmax_grad(p, g_context @ np.swapaxes(v, -1, -2))
        g_scores *= scale
        g_kt = np.swapaxes(q, -1, -2) @ g_scores  # k's gradient, transposed, as the former tape took it
        g_kv = np.empty((g, nk, 2, heads, hd), dtype=h.dtype)
        g_kv[:, :, 0] = np.swapaxes(g_kt, -1, -2).transpose(0, 2, 1, 3)  # not np.stack: 8x slower here
        g_kv[:, :, 1] = (np.swapaxes(p, -1, -2) @ g_context).transpose(0, 2, 1, 3)
        g_kv = g_kv.reshape(g * nk, 2 * d)
        g_q = (g_scores @ k).transpose(0, 2, 1, 3).reshape(g * nq, d)[query_slot]
        # the key and value columns of wqkv's gradient from the key grid, the query columns from the query rows
        g_w = _grad_out(wqkv)
        g_w = np.empty_like(wqkv.data) if g_w is None else g_w
        g_w[:, :d] = hq.T @ g_q
        g_w[:, d:] = key_grid.reshape(g * nk, d).T @ g_kv
        _accumulate(wqkv, g_w, owned=True)
        gh = _gemm(g_kv[:, d:], wv.T)  # the value, key and query terms, in the former tape's order
        gh += _gemm(g_kv[:, :d], wk.T)
        gh = gh[key_slot]
        gh[queries] += _gemm(g_q, wq.T)
        _accumulate(h, gh, owned=True)

    return _record(out, backward)


def _check_targets(targets: np.ndarray, classes: int, alpha: float) -> np.ndarray:
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"label smoothing must be in [0, 1), got {alpha}")
    idx = np.asarray(targets, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= classes):
        raise ValueError("target id out of range")
    return idx


def cross_entropy(logits: Tensor, targets: np.ndarray, alpha: float = 0.0) -> Tensor:
    """Per-row cross entropy against label-smoothed targets.

    ``logits`` is [P, C]; returns a [P] tensor of losses
    ``-((1-alpha) * logp[target] + (alpha/C) * sum(logp))``, the cross entropy
    against the smoothed labels ``(1-alpha) * onehot + alpha/C`` without
    building that [P, C] matrix. With alpha 0 the loss and gradient are
    bitwise identical to hard cross entropy.
    """
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"cross_entropy expects [P, C] logits, got shape {z.shape}")
    classes = z.shape[1]
    idx = _check_targets(targets, classes, alpha)
    if idx.size != z.shape[0]:
        raise ValueError("one target per logit row required")
    rows = np.arange(idx.size)
    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))
    logp = z - lse
    if alpha:
        loss = -((1.0 - alpha) * logp[rows, idx] + (alpha / classes) * logp.sum(axis=-1))
    else:
        loss = -logp[rows, idx]
    if not np.isfinite(loss).all():
        raise FloatingPointError("non-finite cross-entropy loss")
    out = Tensor(loss, requires_grad=logits.requires_grad)

    def backward(g):
        gz = np.exp(logp)
        gz -= alpha / classes
        gz[rows, idx] -= 1.0 - alpha
        gz *= g[:, None]
        _accumulate(logits, gz, owned=True)

    return _record(out, backward)


def answer_masked_cross_entropy(logits: Tensor, answer_sets: Sequence[np.ndarray]) -> Tensor:
    """Per-query loss that scores each answer only against non-answers.

    For query row s and answer set A, each answer a contributes
    ``-log(exp(s_a) / (exp(s_a) + sum over e outside A of exp(s_e)))`` and the
    row's loss is the mean over A. Logits of the other answers do not enter
    answer a's term at all.
    """
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"answer_masked_cross_entropy expects [Q, V] logits, got {z.shape}")
    n_rows, n_classes = z.shape
    sets = [np.asarray(answers, dtype=np.int64).reshape(-1) for answers in answer_sets]
    if len(sets) != n_rows:
        raise ValueError("one answer set per logit row required")
    sizes = np.array([a.size for a in sets], dtype=np.int64)
    if n_rows and sizes.min() == 0:
        raise ValueError(f"query {int(sizes.argmin())} has an empty answer set")
    # the answers flattened row by row: answer j of the whole batch is logit
    # [rows[j], cols[j]], and row i's answers start at offsets[i]
    rows = np.repeat(np.arange(n_rows), sizes)
    cols = np.concatenate(sets) if sets else np.zeros(0, dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    bad = (cols < 0) | (cols >= n_classes)
    if bad.any():
        raise ValueError(f"query {int(rows[bad.argmax()])} has an answer id out of range")
    keys = np.sort(rows * n_classes + cols)
    repeated = keys[1:][keys[1:] == keys[:-1]]
    if repeated.size:
        raise ValueError(f"query {int(repeated[0] // n_classes)} has duplicate answers")

    # non-answer log-sum-exp per row; -inf for a row whose every class is an answer
    negs = z.copy()
    negs[rows, cols] = -np.inf
    nmax = negs.max(axis=1, keepdims=True)
    shift = np.where(np.isneginf(nmax), 0.0, nmax).astype(z.dtype)
    with np.errstate(divide="ignore"):
        lse_neg = (shift + np.log(np.exp(negs - shift).sum(axis=1, keepdims=True)))[:, 0]
    z_ans = z[rows, cols]
    denom = np.logaddexp(z_ans, lse_neg[rows])
    k = sizes.astype(z.dtype)
    losses = np.add.reduceat(denom - z_ans, offsets) / k
    if not np.isfinite(losses).all():
        raise FloatingPointError("non-finite fine-tune loss")
    out = Tensor(losses, requires_grad=logits.requires_grad)

    def backward(g):
        # non-answer e: sum over a of exp(z_e - denom_a) * g/k, taken around
        # c = min(denom) so that no exponent is positive (z_e <= lse_neg <= c)
        scale = g / k
        c = np.minimum.reduceat(denom, offsets)
        spread = np.add.reduceat(np.exp(c[rows] - denom), offsets)
        gz = np.exp(negs - c[:, None])
        gz *= (spread * scale)[:, None]
        # answer a: only its own term holds it, with weight p_self - 1
        gz[rows, cols] = (np.exp(z_ans - denom) - 1.0) * scale[rows]
        _accumulate(logits, gz, owned=True)

    return _record(out, backward)
