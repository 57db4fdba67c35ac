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

    k_max is the sup norm; support is the half-width of the support interval
    (K(u) = 0 whenever |u| > support). A piecewise-polynomial kernel declares
    `pieces`: the coefficients, in increasing powers of u, of K on [-support, 0]
    and on [0, support]; None marks a kernel that is not piecewise polynomial.
    """

    name: str
    k_max: float
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
    # C-infinity mollifier on [-1/2, 1/2], scaled so the peak value is 1.
    inside = np.abs(u) < 0.5
    v = 2.0 * np.where(inside, u, 0.0)
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - v * v)), 0.0)


EPANECHNIKOV = Kernel("epanechnikov", k_max=0.75, support=1.0, _fn=_epanechnikov,
                      pieces=((0.75, 0.0, -0.75), (0.75, 0.0, -0.75)))
UNIFORM = Kernel("uniform", k_max=0.5, support=1.0, _fn=_uniform, pieces=((0.5,), (0.5,)))
TRIANGULAR = Kernel("triangular", k_max=1.0, support=1.0, _fn=_triangular,
                    pieces=((1.0, 1.0), (1.0, -1.0)))
SMOOTH_BUMP = Kernel("smooth_bump", k_max=1.0, support=0.5, _fn=_smooth_bump)

KERNELS = {k.name: k for k in (EPANECHNIKOV, UNIFORM, TRIANGULAR, SMOOTH_BUMP)}


def get_kernel(name: str) -> Kernel:
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; available: {sorted(KERNELS)}") from None
