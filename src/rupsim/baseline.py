"""Baseline data model: uniform design on [0,1] with additive Gaussian noise.

The target functions carry declared smoothness certificates (beta, L), which
replay documents record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
    constant L. Equality follows what defines the function: its name and
    certificate, not the closure.
    """

    name: str
    beta: float
    holder_const: float
    _fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.beta < math.inf:  # NaN fails too
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not 0 < self.holder_const < math.inf:
            raise ValueError(f"holder_const must be positive and finite, got {self.holder_const}")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        check_unit_interval(x, "x outside the domain [0, 1]")
        return self._fn(x)


def zero_function() -> RegressionFunction:
    return RegressionFunction("zero", beta=2.0, holder_const=1.0, _fn=lambda x: np.zeros_like(x))


def sine_function(beta: float = 2.0, holder_const: float | None = None) -> RegressionFunction:
    # Conservative certificate: |f'(x) - f'(x')| <= (2*pi)^2 |x - x'|.
    if holder_const is None:
        holder_const = (2.0 * math.pi) ** 2
    return RegressionFunction("sine", beta=beta, holder_const=holder_const,
                              _fn=lambda x: np.sin(2.0 * math.pi * x))


FUNCTION_CATALOG: dict[str, Callable[[], RegressionFunction]] = {
    "zero": zero_function,
    "sine": sine_function,
}


def get_function(name: str) -> RegressionFunction:
    try:
        return FUNCTION_CATALOG[name]()
    except KeyError:
        raise KeyError(f"unknown function {name!r}; available: {sorted(FUNCTION_CATALOG)}") from None


@dataclass(frozen=True)
class BaselineConfig:
    """Baseline law: X ~ Unif[0,1], Y = f(X) + eps, eps ~ N(0, sigma2)."""

    f: RegressionFunction
    sigma2: float
    n: int

    def __post_init__(self):
        if not 0 <= self.sigma2 < math.inf:  # NaN fails too
            raise ValueError(f"sigma2 must be nonnegative and finite, got {self.sigma2}")
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
