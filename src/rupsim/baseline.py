"""Baseline data model: uniform design on [0,1] with additive Gaussian noise.

The target functions carry declared smoothness certificates (beta, L) so that
rate experiments know which exponent they are checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernels import SMOOTH_BUMP, Kernel

# Grid step of the finite-difference Holder checks.
HOLDER_STEP = 1e-3


def check_unit_interval(x: np.ndarray, message: str) -> None:
    """Raise ValueError(message) unless every value of x lies in [0, 1]; NaN fails."""
    # min and max carry a NaN through, and NaN fails both comparisons
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise ValueError(message)


def bucket_labels(ids: np.ndarray) -> np.ndarray:
    """Int64 bucket ids (n,) or (D, n), relabelled 0..k-1 in order by row once one is >= 2n.

    A negative id is a ValueError. Order and occupancy are kept, so sums over
    occupied buckets keep their bits, and a bincount over the labels is at
    most twice the data's length.
    """
    if ids.size and ids.min() < 0:
        raise ValueError("bucket ids must be nonnegative")
    rows = np.atleast_2d(ids)
    if ids.size == 0 or ids.max() < 2 * rows.shape[1]:
        return ids
    return np.array([np.unique(row, return_inverse=True)[1] for row in rows]).reshape(ids.shape)


@dataclass(frozen=True)
class RegressionFunction:
    """Target function on [0,1] with a Holder-class certificate (beta, L).

    The certificate asserts that the derivative of order ceil(beta)-1 (the
    largest integer strictly below beta) is (beta - that order)-Holder with
    constant L. Equality follows what defines the function: its name,
    certificate and params (a bump's centre and width), not the closure.
    """

    name: str
    beta: float
    holder_const: float
    _fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.holder_const <= 0:
            raise ValueError(f"holder_const must be positive, got {self.holder_const}")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        check_unit_interval(x, "x outside the domain [0, 1]")
        return self._fn(x)

    @property
    def holder_degree(self) -> int:
        """Order of the derivative the Holder condition constrains."""
        return math.ceil(self.beta) - 1


def zero_function() -> RegressionFunction:
    return RegressionFunction("zero", beta=2.0, holder_const=1.0, _fn=lambda x: np.zeros_like(x))


def sine_function(beta: float = 2.0, holder_const: float | None = None) -> RegressionFunction:
    # Conservative certificate: |f'(x) - f'(x')| <= (2*pi)^2 |x - x'|.
    if holder_const is None:
        holder_const = (2.0 * math.pi) ** 2
    return RegressionFunction("sine", beta=beta, holder_const=holder_const,
                              _fn=lambda x: np.sin(2.0 * math.pi * x))


def _holder_pairs(fn, lo: float, hi: float, degree: int):
    """(|d^degree fn(x) - d^degree fn(x')|, |x - x'|) over pairs of a grid on [lo, hi].

    The grid step is HOLDER_STEP; the diagonal reads (0, 1), so x == x' drops out.
    """
    grid = np.arange(lo, hi + HOLDER_STEP / 2, HOLDER_STEP)
    vals = fn(grid)
    for _ in range(degree):
        vals = np.gradient(vals, HOLDER_STEP)
    diff = np.abs(vals[:, None] - vals[None, :])
    dist = np.abs(grid[:, None] - grid[None, :])
    np.fill_diagonal(dist, 1.0)
    np.fill_diagonal(diff, 0.0)
    return diff, dist


def _kernel_holder_modulus(kernel: Kernel, beta: float) -> float:
    """Grid estimate of the Holder-(beta) modulus of the matching kernel derivative."""
    degree = math.ceil(beta) - 1
    half = kernel.support + 0.1
    diff, dist = _holder_pairs(kernel, -half, half, degree)
    return float(np.max(diff / dist ** (beta - degree)))


def bump_function(center: float, width: float, beta: float,
                  holder_const: float) -> RegressionFunction:
    """Scaled smooth bump L * width^beta * K((x - center)/width), K = SMOOTH_BUMP.

    The amplitude uses holder_const directly; the declared certificate is
    inflated by the kernel's own Holder modulus (the bump's derivative of
    order ceil(beta)-1 inherits the kernel's, rescaled by width^-beta, which
    cancels the amplitude's width^beta).
    """
    if width <= 0:
        raise ValueError("width must be positive")
    amp = holder_const * width ** beta
    certificate = holder_const * _kernel_holder_modulus(SMOOTH_BUMP, beta) * 1.05

    def fn(x: np.ndarray) -> np.ndarray:
        return amp * SMOOTH_BUMP((x - center) / width)

    return RegressionFunction("bump", beta=beta, holder_const=certificate, _fn=fn,
                              params=(center, width))


FUNCTION_CATALOG: dict[str, Callable[[], RegressionFunction]] = {
    "zero": zero_function,
    "sine": sine_function,
}


def get_function(name: str) -> RegressionFunction:
    try:
        return FUNCTION_CATALOG[name]()
    except KeyError:
        raise KeyError(f"unknown function {name!r}; available: {sorted(FUNCTION_CATALOG)}") from None


def holder_margin(f: RegressionFunction) -> float:
    """Worst slack of the finite-difference Holder inequality on a grid of step HOLDER_STEP.

    Returns max over grid pairs of |d^l f(x) - d^l f(x')| - L |x - x'|^(beta-l)
    with l = f.holder_degree; nonpositive means the certificate holds on the
    grid (up to finite-difference error).
    """
    diff, dist = _holder_pairs(f, 0.0, 1.0, f.holder_degree)
    return float(np.max(diff - f.holder_const * dist ** (f.beta - f.holder_degree)))


@dataclass(frozen=True)
class BaselineConfig:
    """Baseline law: X ~ Unif[0,1], Y = f(X) + eps, eps ~ N(0, sigma2)."""

    f: RegressionFunction
    sigma2: float
    n: int

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")


@dataclass
class Dataset:
    """Observed pairs, with bucket labels when a perturbation spec applies."""

    xs: np.ndarray
    ys: np.ndarray
    bucket_ids: np.ndarray | None = None
    realization_id: str | None = None

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.shape != self.ys.shape:
            raise ValueError("xs and ys must have the same length")
        check_unit_interval(self.xs, "xs must lie in [0, 1]")
        if self.bucket_ids is not None:
            self.bucket_ids = np.asarray(self.bucket_ids, dtype=np.int64)
            if self.bucket_ids.shape != self.xs.shape:
                raise ValueError("bucket_ids must match xs in length")

    def __len__(self) -> int:
        return self.xs.size


def sample_baseline(config: BaselineConfig, rng: np.random.Generator,
                    xs: np.ndarray | None = None) -> Dataset:
    """Draw n iid pairs from the baseline law.

    xs may be forced (testing hook); only the noise is then drawn. The x
    values are returned in draw order, unsorted.
    """
    if xs is None:
        xs = rng.random(config.n)
    else:
        xs = np.asarray(xs, dtype=float)
        if xs.size != config.n:
            raise ValueError("forced xs must have length config.n")
    eps = rng.normal(0.0, math.sqrt(config.sigma2), config.n)
    return Dataset(xs=xs, ys=config.f(xs) + eps)
