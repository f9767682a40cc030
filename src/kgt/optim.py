"""AdamW with decoupled weight decay and a per-epoch exponential lr schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

_BLOCK = 1 << 15  # elements per AdamW block: six float32 blocks take 768 KiB and stay in L2 cache


@dataclass
class AdamWConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    lr_decay: float = 0.997  # per-epoch multiplicative decay

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")

    def lr_at(self, epoch: int) -> float:
        return self.lr * self.lr_decay**epoch


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], config: AdamWConfig):
        self.params = params
        self.config = config
        self.step_count = 0
        self._m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in params.items()}

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def step(self, epoch: int = 0) -> float:
        """Apply one update using each parameter's accumulated gradient.

        Decay is decoupled: it scales the parameter directly by the scheduled
        learning rate, outside the moment estimates. Returns the lr used.

        The update runs in place, block by block along each parameter's first
        axis, through two block-sized scratch arrays, so a block's arrays stay
        in cache across the dozen passes. Element by element it applies the
        same operations in the same order as
        ``p -= lr * ((m / bias1) / (sqrt(v / bias2) + eps) + wd * p)``.
        """
        self.step_count += 1
        cfg = self.config
        lr_t = cfg.lr_at(epoch)
        bias1 = 1.0 - cfg.beta1**self.step_count
        bias2 = 1.0 - cfg.beta2**self.step_count
        for name, t in self.params.items():
            if t.grad is None:
                continue
            arrays = np.atleast_1d(t.data, t.grad, self._m[name], self._v[name])
            rows = max(1, _BLOCK // max(1, math.prod(arrays[0].shape[1:])))
            scratch = np.empty((2, rows) + arrays[0].shape[1:], dtype=t.data.dtype)
            for i in range(0, len(arrays[0]), rows):
                p, g, m, v = (a[i : i + rows] for a in arrays)
                s, u = scratch[:, : len(p)]
                np.multiply(g, 1.0 - cfg.beta1, out=s)
                m *= cfg.beta1
                m += s
                np.multiply(g, g, out=s)
                s *= 1.0 - cfg.beta2
                v *= cfg.beta2
                v += s
                np.divide(v, bias2, out=s)
                np.sqrt(s, out=s)
                s += cfg.eps
                np.divide(m, bias1, out=u)
                np.divide(u, s, out=s)
                if cfg.weight_decay:
                    np.multiply(p, cfg.weight_decay, out=u)
                    s += u
                s *= lr_t
                p -= s
        return lr_t


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. Raises ``FloatingPointError`` before touching
    any gradient when that norm is not finite: scaling an infinite gradient
    gives NaN, and a NaN norm would skip clipping, so either way the next
    AdamW step would write NaN into the weights.

    The squares are summed in float64, ``_BLOCK`` elements at a time through
    one block-sized scratch array, so no temporary the size of a gradient is
    built.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    scratch = np.empty(_BLOCK, dtype=np.float64)
    for t in params.values():
        if t.grad is None:
            continue
        flat = t.grad.reshape(-1)
        for i in range(0, flat.size, _BLOCK):
            block = scratch[: min(_BLOCK, flat.size - i)]
            block[:] = flat[i : i + _BLOCK]
            total += float(np.dot(block, block))
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise FloatingPointError(f"non-finite gradient norm ({norm})")
    if norm > max_norm:
        scale = max_norm / norm
        for t in params.values():
            if t.grad is not None:
                t.grad *= scale
    return norm
