"""Exact Gaussian KL computation for bucket-correlated noise.

Conditional on the design, outcomes under the correlated noise mixture are
jointly Gaussian with a block covariance: within an X bucket the shared shift
adds delta2*sigma2 off the diagonal, across buckets blocks are independent.
The rank-one structure gives a closed-form precision, applied blockwise in
O(n) without materializing the matrix, and the two-hypothesis KL is a single
quadratic form in the mean difference. Averaging that KL over designs checks
that it grows like the effective sample size, not n.

The mean difference vanishes outside the bump's support window, and buckets
are independent blocks, so only the buckets that meet the window enter the
quadratic form. conditional_kl works on those buckets alone (with every
design point they hold), which makes its cost follow the window's occupancy
rather than n and B_X. It scores a stack of equal-size designs in one call,
each design's buckets keyed apart, so the fixed cost of its numpy calls is
paid once per stack; kl_mc draws each n's designs from one substreams batch
and scores them in the runs of its Substreams.stacks. What remains per stack
is that fixed cost: the window's bucket range is scalar arithmetic, and the
bump fills one buffer in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bandwidth import effective_sample_size
from .baseline import BaselineConfig, bucket_labels, check_unit_interval
from .kernels import SMOOTH_BUMP, Kernel
from .perturbation import CorrelatedNoiseSpec, bucket_of
from .streams import substreams

# n/B_X growing by more than this factor across the grid flags the run as
# outside the bounded-occupancy regime.
REGIME_GROWTH_LIMIT = 1.5


@dataclass(frozen=True)
class TwoPointConstruction:
    """Hypothesis pair: flat zero versus a localized bump L*h^beta*K((x-x0)/h)."""

    x0: float
    h: float
    beta: float
    holder_const: float
    kernel: Kernel = SMOOTH_BUMP

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.h, self.beta, self.holder_const)):
            raise ValueError(f"h, beta and holder_const must be positive and finite, got "
                             f"{self.h:g}, {self.beta:g}, {self.holder_const:g}")
        check_unit_interval(np.asarray(self.x0, dtype=float), "x0 must lie in [0, 1]")

    def bump(self, x) -> np.ndarray:
        """The nonzero hypothesis f1; vanishes outside the kernel support window."""
        x = np.asarray(x, dtype=float)
        return self.holder_const * self.h ** self.beta * self.kernel((x - self.x0) / self.h)


@dataclass(frozen=True)
class BlockCovariance:
    """Covariance sigma2 * (I + delta2 * 1 1^T) per bucket, independent across buckets."""

    bucket_ids: np.ndarray
    sigma2: float
    delta2: float
    _labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = np.asarray(self.bucket_ids, dtype=np.int64)
        if not 0 < self.sigma2 < math.inf:  # NaN fails too
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2:g}")
        if not 0 <= self.delta2 < math.inf:
            raise ValueError(f"delta2 must be nonnegative and finite, got {self.delta2:g}")
        object.__setattr__(self, "bucket_ids", ids)
        object.__setattr__(self, "_labels", bucket_labels(ids))

    def dense(self) -> np.ndarray:
        """Materialized covariance; oracle-test use only (O(n^2) memory)."""
        same = self.bucket_ids[:, None] == self.bucket_ids[None, :]
        return self.sigma2 * (np.eye(self.bucket_ids.size) + self.delta2 * same)


def block_precision_apply(cov: BlockCovariance, v) -> np.ndarray:
    """Apply the inverse covariance to v blockwise in O(n).

    Per bucket with m points the rank-one update gives
    (1/sigma2) * (v - delta2/(1 + m*delta2) * (sum of v in bucket)).
    A layout whose largest m*delta2 overflows is a ValueError.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != cov.bucket_ids.shape:
        raise ValueError("v must match the bucket layout length")
    labels = cov._labels
    counts = np.bincount(labels)
    largest = int(counts.max(initial=0))
    if not largest * cov.delta2 < math.inf:  # NaN fails too
        raise ValueError(f"delta2 * the largest bucket count must be finite, got "
                         f"{cov.delta2:g} * {largest}")
    sums = np.bincount(labels, weights=v)
    shrink = cov.delta2 / (1.0 + counts * cov.delta2)
    return (v - shrink[labels] * sums[labels]) / cov.sigma2


def conditional_kl(design_xs, construction: TwoPointConstruction,
                   spec: CorrelatedNoiseSpec) -> float | np.ndarray:
    """KL between the two hypotheses' outcome laws, conditional on the design.

    Equal covariances leave only the mean-shift quadratic form
    0.5 * df^T Sigma^{-1} df with df = f1 - f0 evaluated on the design.
    Buckets outside the bump's window hold df = 0 and, being independent
    blocks, add nothing, so the form is taken over the buckets that meet the
    window only.

    design_xs is one design (n,), giving a float, or a stack (D, n) of
    designs, giving a (D,) array whose entry d equals the one-design call on
    row d bit for bit: the filters, the bump and the precision are
    elementwise or per bucket, with row d's buckets keyed d * (buckets in the
    window) apart, and each row keeps its own dot product.
    """
    xs = np.asarray(design_xs, dtype=float)
    if xs.ndim not in (1, 2):
        raise ValueError("design_xs must be one design (n,) or a stack (D, n)")
    check_unit_interval(xs, "design points must lie in [0, 1]")
    stack = xs[None] if xs.ndim == 1 else xs
    # df != 0 needs |x - x0| within the kernel's reach. bucket_of is
    # nondecreasing in x, so every point in a bucket outside [first, last]
    # lies beyond the reach and has df = 0.
    reach = construction.kernel.reach(construction.h)
    b_x = spec.b_x
    # bucket_of's rule on the window's ends clipped to [0, 1], in scalars
    first = min(int(max(construction.x0 - reach, 0.0) * b_x), b_x - 1)
    last = min(int(min(construction.x0 + reach, 1.0) * b_x), b_x - 1)
    # A point of bucket first..last has x within [first, last + 1] / b_x; a
    # margin of one bucket width covers the rounding of x * b_x, so the exact
    # bucket test below sees every such point, row by row in design order.
    flat = stack.ravel()
    kept = np.flatnonzero((flat >= (first - 1) / b_x) & (flat < (last + 2) / b_x))
    x, rows = flat[kept], kept // stack.shape[1]
    buckets = bucket_of(x, b_x)
    near = (buckets >= first) & (buckets <= last)
    rows, buckets = rows[near], buckets[near]
    df = construction.bump(x[near])
    cov = BlockCovariance(bucket_ids=buckets - first + rows * (last - first + 1),
                          sigma2=spec.baseline.sigma2, delta2=spec.delta2)
    v = block_precision_apply(cov, df)
    half = 0.5 * df
    ends = np.searchsorted(rows, np.arange(len(stack) + 1)).tolist()
    kl = np.array([half[s:e] @ v[s:e] for s, e in zip(ends[:-1], ends[1:])], dtype=float)
    return kl if xs.ndim == 2 else float(kl[0])


@dataclass
class KlScalingRow:
    n: int
    n_eff: float
    kl_mean: float
    kl_se: float
    ratio: float  # kl_mean / (n_eff * h^(2*beta+1))
    h: float
    occupancy: float  # n / B_X
    regime_warning: bool


@dataclass
class KlScalingTable:
    rows: list[KlScalingRow]
    regime_warning: bool


def kl_mc(n_grid, bucket_rule, delta2: float, base: BaselineConfig, beta: float,
          holder_const: float, x0: float, reps: int, seed: int) -> KlScalingTable:
    """Design-averaged KL and its normalized ratio across sample sizes.

    For each n, bucket_rule(n) gives B_X; the noise spec is correlated noise
    with that B_X, delta2 and base at size n, and the hypothesis pair is the
    smooth bump at x0 with the rate-matched bandwidth
    h = n_eff^(-1/(2beta+1)), which also sets the normalization. In the
    bounded-occupancy regime (n/B_X bounded) the ratio column stabilizes; if
    occupancy grows by more than REGIME_GROWTH_LIMIT across the grid the
    table is flagged, not silenced.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    rows: list[KlScalingRow] = []
    for ni, n in enumerate(n_grid):
        b_x = int(bucket_rule(n))
        spec = CorrelatedNoiseSpec(b_x=b_x, delta2=delta2, baseline=replace(base, n=n))
        n_eff = effective_sample_size(n, spec.delta2 / b_x).n_eff
        constr = TwoPointConstruction(x0=x0, h=n_eff ** (-1.0 / (2.0 * beta + 1.0)),
                                      beta=beta, holder_const=holder_const)
        kls = np.empty(reps)
        for run, rngs in substreams(seed, "design", ni, count=reps).stacks(n):
            stack = np.empty((len(run), n))
            for rng, row in zip(rngs, stack):
                rng.random(out=row)
            kls[run] = conditional_kl(stack, constr, spec)
        kl_mean = float(kls.mean())
        kl_se = float(kls.std(ddof=1) / math.sqrt(reps))
        norm = n_eff * constr.h ** (2.0 * constr.beta + 1.0)
        rows.append(KlScalingRow(n=n, n_eff=n_eff, kl_mean=kl_mean, kl_se=kl_se,
                                 ratio=kl_mean / norm, h=constr.h,
                                 occupancy=n / b_x, regime_warning=False))
    occ = np.array([r.occupancy for r in rows])
    warn = bool(occ.max() / occ.min() > REGIME_GROWTH_LIMIT) if occ.min() > 0 else True
    for r in rows:
        r.regime_warning = warn
    return KlScalingTable(rows=rows, regime_warning=warn)


def correlated_noise_kl_suite(n_grid, delta2: float, base: BaselineConfig,
                              beta: float, holder_const: float, x0: float,
                              bucket_rule=None, reps: int = 400, seed: int = 0) -> KlScalingTable:
    """kl_mc with the bucket-per-point regime B_X = n unless bucket_rule is given."""
    if bucket_rule is None:
        bucket_rule = lambda n: n
    return kl_mc(n_grid, bucket_rule, delta2, base, beta, holder_const, x0, reps, seed)
