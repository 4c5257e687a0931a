"""One owner for the process's two OpenBLAS thread pools.

The numpy and scipy wheels each bundle their own OpenBLAS: numpy links the
ILP64 ``libscipy_openblas64_``, scipy the LP64 ``libscipy_openblas``. Each
keeps its own worker pool, sized from the CPU affinity mask. After every
numpy BLAS call, numpy's idle workers spin for a while and take CPU from
scipy's LAPACK eigensolves, which bound the γ-sweeps, and from the main
thread.

:func:`apply_policy`, run once by ``import repro``, gives numpy's pool one
thread and leaves scipy's LAPACK pool at OpenBLAS's default. It changes
nothing when ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set, since those stay the one deployment setting,
or when the setters cannot be found (MKL or Accelerate builds, or wheels
that predate the ``scipy_openblas`` symbol names). Either way
it publishes the effective sizes as the ``blas.threads{pool=...}`` gauge.
The setters are reached through ``ctypes`` on the extension module that
links each library.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os

from .obs.metrics import get_registry

__all__ = ["apply_policy", "pool_sizes", "set_threads"]

# pool -> (extension module that links its OpenBLAS, symbol suffix)
_POOLS = {
    "numpy": ("numpy._core._multiarray_umath", "64_"),
    "scipy": ("scipy.linalg._fblas", ""),
}
_USER_SETTINGS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@functools.cache
def _setters() -> dict:
    """``{pool: (get, set)}`` for every pool whose setters are found."""
    found = {}
    for pool, (module, suffix) in _POOLS.items():
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found[pool] = (get, set_)
    return found


def pool_sizes() -> dict[str, int]:
    """Current thread count of each pool found, e.g. ``{"numpy": 1, "scipy": 2}``."""
    return {pool: int(get()) for pool, (get, _set) in _setters().items()}


def set_threads(pool: str, n: int) -> None:
    """Resize one pool (``"numpy"`` or ``"scipy"``) and update its gauge."""
    _setters()[pool][1](int(n))
    _publish()


def apply_policy() -> dict[str, int]:
    """Numpy's pool to one thread unless the user sized the pools; returns
    the effective sizes."""
    if "numpy" in _setters() and not any(
        os.environ.get(name) for name in _USER_SETTINGS
    ):
        _setters()["numpy"][1](1)
    return _publish()


def _publish() -> dict[str, int]:
    sizes = pool_sizes()
    for pool, n in sizes.items():
        get_registry().set_gauge("blas.threads", n, pool=pool)
    return sizes
