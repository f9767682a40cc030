"""Kept only for the benchmark header, which reports ``NUMBA_ENABLED``.

Sampling is plain numpy (see :mod:`kgt.sampling`); nothing is compiled.
"""

NUMBA_ENABLED = False
