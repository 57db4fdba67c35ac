"""Kernel catalog for local polynomial smoothing.

All kernels are nonnegative, bounded, and exactly zero outside their compact
support, which is what makes local fit weights vanish outside the bandwidth
window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Kernel:
    """A compactly supported kernel u -> K(u).

    support is the half-width of the support interval (K(u) = 0 whenever
    |u| > support). A piecewise-polynomial kernel declares `pieces`: the
    coefficients, in increasing powers of u, of K on [-support, 0] and on
    [0, support]; None marks a kernel that is not piecewise polynomial.
    """

    name: str
    support: float
    _fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    pieces: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __call__(self, u) -> np.ndarray:
        return self._fn(np.asarray(u, dtype=float))

    def reach(self, h: float) -> float:
        """support * h widened to cover the rounding of (x - g)/h, for x and g in [0, 1]."""
        return self.support * h * (1.0 + 1e-12) + 1e-12


def _epanechnikov(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _uniform(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.5, 0.0)


def _triangular(u: np.ndarray) -> np.ndarray:
    return np.maximum(1.0 - np.abs(u), 0.0)


def _smooth_bump(u: np.ndarray) -> np.ndarray:
    # C-infinity mollifier on [-1/2, 1/2], scaled so the peak value is 1:
    # exp(1 - 1/(1 - (2u)^2)) inside, 0 outside, in one buffer. An outside
    # point runs the chain from 0 to exp(0) = 1, then the mask zeroes it.
    inside = np.abs(u) < 0.5
    v = np.where(inside, u, 0.0)
    v *= 2.0
    v *= v
    np.subtract(1.0, v, out=v)
    np.divide(1.0, v, out=v)
    np.subtract(1.0, v, out=v)
    np.exp(v, out=v)
    v *= inside
    return v


EPANECHNIKOV = Kernel("epanechnikov", support=1.0, _fn=_epanechnikov,
                      pieces=((0.75, 0.0, -0.75), (0.75, 0.0, -0.75)))
UNIFORM = Kernel("uniform", support=1.0, _fn=_uniform, pieces=((0.5,), (0.5,)))
TRIANGULAR = Kernel("triangular", support=1.0, _fn=_triangular, pieces=((1.0, 1.0), (1.0, -1.0)))
SMOOTH_BUMP = Kernel("smooth_bump", support=0.5, _fn=_smooth_bump)

KERNELS = {k.name: k for k in (EPANECHNIKOV, UNIFORM, TRIANGULAR, SMOOTH_BUMP)}


def get_kernel(name: str) -> Kernel:
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; available: {sorted(KERNELS)}") from None
