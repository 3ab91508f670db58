"""Density kernels used by the matching algorithms.

All kernels take a distance (scalar or array) and a bandwidth ``sigma`` and
return a value in [0, 1] with ``h(0) = 1``. ``sigma`` may be a scalar or an
array broadcastable against ``d``.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import InputError

__all__ = [
    "Kernel",
    "gaussian_kernel",
    "quadratic_kernel",
]


class Kernel(str, Enum):
    """Selectable density kernels.

    ``gaussian`` is the squared exponential ``exp(-d**2 / (2*sigma**2))``;
    ``quadratic`` is the finite kernel ``max(0, 1 - (d/sigma)**2)``, continuous
    and zero at ``d = sigma``. Both are functions of ``d/sigma`` alone, so
    scaling the data scales every bandwidth with it and leaves the kernel
    values as they were.
    """

    GAUSSIAN = "gaussian"
    QUADRATIC = "quadratic"


def _check_sigma(sigma) -> np.ndarray:
    sig = np.asarray(sigma, dtype=np.float64)
    if np.any(sig <= 0):
        raise InputError("sigma must be positive")
    return sig


def gaussian_kernel(d, sigma):
    sig = _check_sigma(sigma)
    dd = np.asarray(d, dtype=np.float64)
    return np.exp(-(dd * dd) / (2.0 * sig**2))


def quadratic_kernel(d, sigma):
    """Finite quadratic kernel ``max(0, 1 - (d/sigma)**2)``.

    Normalized so ``h(0) = 1`` and ``h(sigma) = 0``; strictly decreasing on
    ``[0, sigma]`` and identically zero beyond.
    """
    sig = _check_sigma(sigma)
    r = np.asarray(d, dtype=np.float64) / sig
    return np.maximum(0.0, 1.0 - r * r)
