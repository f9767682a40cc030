"""Numba acceleration shims.

Hot sampling kernels are written as plain-python loops over numpy arrays and
compiled with numba when it is importable and the ``KGT_NUMBA`` env flag allows
it (set ``KGT_NUMBA=0`` to force the pure-python path). Compiled kernels keep
their uncompiled twin on ``.py_func``, which :func:`python_impl` exposes for
benchmarks and backend-equivalence tests.

Kernels draw no randomness themselves; callers pass pre-drawn uniforms from a
``numpy.random.Generator``, so both paths produce bit-identical samples.
"""

import os

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # numba is the optional ``accel`` extra
    njit = None
    HAS_NUMBA = False


def _flag_enabled() -> bool:
    value = os.environ.get("KGT_NUMBA", "1").strip().lower()
    return value not in {"0", "false", "off", "no", ""}


NUMBA_ENABLED = HAS_NUMBA and _flag_enabled()


def maybe_njit(func):
    """Compile ``func`` with numba when enabled, otherwise return it unchanged."""
    if NUMBA_ENABLED:
        return njit(cache=True)(func)
    return func


def python_impl(func):
    """Return the uncompiled implementation behind a ``maybe_njit`` kernel."""
    return getattr(func, "py_func", func)
