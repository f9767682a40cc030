"""The parameter arena, global-norm clipping, and AdamW with decoupled weight decay
and a per-epoch exponential lr schedule."""

from __future__ import annotations

import ctypes
import math
import mmap
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

_BLOCK = 1 << 15  # elements per clip and AdamW block: six float32 blocks take 768 KiB and stay in L2 cache
_CLIP_SCRATCH = np.empty(_BLOCK, dtype=np.float64)  # one per process, reused by every clip_global_norm


@dataclass
class AdamWConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    lr_decay: float = 0.997  # per-epoch multiplicative decay

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be non-negative and finite, got {self.weight_decay}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")

    def lr_at(self, epoch: int) -> float:
        return self.lr * self.lr_decay**epoch


def _mapped_zeros(size: int, dtype) -> np.ndarray:
    """A zero array in its own anonymous memory map.

    The kernel supplies its zero pages on first write, so an allocation that
    is never written costs no memory. Unlike a large ``np.zeros``, it never
    clears a reused heap block, and freeing it does not raise malloc's
    threshold for serving later large temporaries from the heap.
    """
    return np.frombuffer(mmap.mmap(-1, size * np.dtype(dtype).itemsize), dtype=dtype)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers


def keep_freed_heap() -> bool:
    """Make glibc's malloc keep freed memory for reuse instead of returning it
    to the kernel; process-wide, and a no-op returning False without glibc.

    By default glibc maps every block above its (adaptive) threshold afresh
    and gives the top of the heap back once more than twice that threshold
    lies free there. A training step frees all its activations at its end, so
    the next step faulted every page back in: 5-10k minor faults per toy
    stage-1 step, a fifth of its time on a 2-vCPU VM. Blocks up to 32 MiB now
    come from the heap, and the heap is trimmed only past 256 MiB free.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1 and mallopt(_M_TRIM_THRESHOLD, 256 << 20) == 1


def parameter_arena(shapes: dict[str, tuple[int, ...]], dtype=np.float32) -> dict[str, Tensor]:
    """Parameter tensors laid end to end, in ``shapes`` order, in one flat data array.

    Each tensor's ``data`` is a view of its span of that array, and its
    ``grad_view`` a view of the same span of one flat gradient array, so a
    gradient never leaves the arena. The caller writes the data;
    building a model touches no page of the gradient array.
    """
    sizes = [math.prod(shape) for shape in shapes.values()]
    data = _mapped_zeros(sum(sizes), dtype)
    grad = _mapped_zeros(sum(sizes), dtype)
    params: dict[str, Tensor] = {}
    offset = 0
    for (name, shape), size in zip(shapes.items(), sizes):
        t = Tensor(data[offset : offset + size].reshape(shape), requires_grad=True)
        t.grad_view = grad[offset : offset + size].reshape(shape)
        t.offset = offset
        params[name] = t
        offset += size
    return params


def _arena(params: dict[str, Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """The flat data and gradient arrays of which ``params`` are, in order, all the views.

    Raises ``ValueError`` naming the first parameter that is not the next view
    of the first parameter's arena.
    """
    data = grad = None
    end = 0
    for name, t in params.items():
        if data is None and t.grad_view is not None:
            data, grad = t.data.base, t.grad_view.base
        viewed = data is not None and t.data.base is data and t.grad_view is not None and t.grad_view.base is grad
        if not viewed or t.offset != end or (t.data.ctypes.data - data.ctypes.data) // data.itemsize != end:
            raise ValueError(f"parameter {name!r} is not the next view of one parameter arena")
        end += t.data.size
    if data is None:
        raise ValueError("no parameters to optimize")
    if end != data.size:
        raise ValueError(f"the parameters cover {end} of their arena's {data.size} elements")
    return data, grad


def _grad_arena(params: dict[str, Tensor]) -> np.ndarray:
    """The gradient array of which the parameters' gradients are, in order, all the views.

    Every step writes every parameter's gradient (an expert that got no rows
    gets a zero one), so this raises ``ValueError`` naming the first parameter
    whose ``grad`` is not its own ``grad_view`` in one arena: None, or an array
    outside the arena. It compares identities and offsets only, unlike
    :func:`_arena`'s pointer arithmetic, so it is cheap enough for every step.
    """
    arena = None
    end = 0
    for name, t in params.items():
        g = t.grad
        if g is None:
            raise ValueError(f"parameter {name!r} has no gradient")
        if g is not t.grad_view or t.offset != end or (arena is not None and g.base is not arena):
            raise ValueError(f"parameter {name!r} has a gradient outside its span of one parameter arena")
        arena = g.base
        end += g.size
    if arena is None:
        raise ValueError("no parameters to optimize")
    if end != arena.size:
        raise ValueError(f"the parameters cover {end} of their arena's {arena.size} elements")
    return arena


class AdamW:
    """Decoupled-weight-decay Adam over the parameters of one arena.

    ``params`` must be exactly the tensors of one :func:`parameter_arena`, in
    its order; the moments are two flat arrays laid out like the arena. They
    start unwritten: the first step writes every element.
    """

    def __init__(self, params: dict[str, Tensor], config: AdamWConfig):
        self.params = params
        self.config = config
        self.step_count = 0
        self._data, self._grad = _arena(params)
        self._m = np.empty_like(self._data)
        self._v = np.empty_like(self._data)
        self._scratch = np.empty((2, min(_BLOCK, self._data.size)), dtype=self._data.dtype)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def step(self, epoch: int = 0, scale: float = 1.0) -> float:
        """Apply one update using each parameter's accumulated gradient times ``scale``.

        Decay is decoupled: it scales the parameter directly by the scheduled
        learning rate, outside the moment estimates. Returns the lr used.
        ``scale`` is the clip factor (see :func:`clip_global_norm`); the
        gradients themselves are left as they are. Raises ``ValueError``,
        writing nothing, naming a parameter without its gradient in the arena.

        The update runs in place over the whole arena, ``_BLOCK`` elements at a
        time through two block-sized scratch arrays, so a block's arrays stay
        in cache across the dozen passes. Element by element it applies the
        same operations in the same order as ``g *= scale`` followed by
        ``p -= lr * ((m / bias1) / (sqrt(v / bias2) + eps) + wd * p)``. The
        first step writes the moments as ``0 * beta + s`` rounds.
        """
        if _grad_arena(self.params) is not self._grad:
            raise ValueError("the parameters' gradients are not in this optimizer's arena")
        self.step_count += 1
        first = self.step_count == 1
        cfg = self.config
        lr_t = cfg.lr_at(epoch)
        bias1 = 1.0 - cfg.beta1**self.step_count
        bias2 = 1.0 - cfg.beta2**self.step_count
        size = self._data.size
        for i in range(0, size, _BLOCK):
            j = min(i + _BLOCK, size)
            p, g, m, v = self._data[i:j], self._grad[i:j], self._m[i:j], self._v[i:j]
            s, u = self._scratch[:, : j - i]
            if scale != 1.0:
                g = np.multiply(g, scale, out=u)  # rounds as the gradient's own *= scale
            if first:
                np.multiply(g, 1.0 - cfg.beta1, out=m)
                m += 0.0  # 0 * beta1 + s: a -0.0 becomes +0.0
                np.multiply(g, g, out=v)
                v *= 1.0 - cfg.beta2
            else:
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
    """The joint L2 norm of all gradients, before clipping to ``max_norm``.

    The caller clips by passing ``max_norm / norm``, when the norm exceeds
    ``max_norm``, as :meth:`AdamW.step`'s ``scale``; no gradient is written
    here. Raises ``ValueError`` unless ``max_norm`` is positive and finite, and
    ``FloatingPointError`` when the norm is not finite: scaling an infinite
    gradient gives NaN, and a NaN norm would skip clipping, so either way the
    next AdamW step would write NaN into the weights.

    Every parameter's gradient must be its view of one :func:`parameter_arena`
    (``ValueError`` naming the first that is not). The squares are summed in
    float64, one dot product per block of at most ``_BLOCK`` elements, with
    blocks starting at each parameter's own offset: the sum adds the same
    terms in the same order as one parameter at a time would. Each block is
    cast to float64 into one scratch array, made once per process, so no
    temporary the size of a gradient is built.
    """
    if not 0 < max_norm < math.inf:
        raise ValueError(f"max_norm must be positive and finite, got {max_norm}")
    grad = _grad_arena(params)
    bounds = [t.offset for t in params.values()] + [grad.size]
    total = 0.0
    for first, last in zip(bounds, bounds[1:]):
        for i in range(first, last, _BLOCK):
            block = _CLIP_SCRATCH[: min(_BLOCK, last - i)]
            block[:] = grad[i : i + block.size]
            total += float(np.dot(block, block))
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise FloatingPointError(f"non-finite gradient norm ({norm})")
    return norm
