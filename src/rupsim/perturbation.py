"""Dataset-level perturbation generators for the conditional law Y|X.

Two mechanisms are implemented. The partition model tilts the joint density
of (X, noise) multiplicatively over a grid of quantile cells, with iid
positive weights row-normalized so the X marginal is untouched. The
correlated noise model adds an iid Gaussian mean shift to the noise within
each X bucket. Both keep the covariate marginal fixed, are mean-zero across
realizations, and carry a strength tau = delta2 * rho_bar where rho_bar is
the average within-bucket correlation 1/B_X.

Sampling cost. `draw_perturbation` draws a stack of D realizations in one
call, one generator per row, into one array that is checked and normalised
once; `sample_perturbed` draws a stack of D datasets from one realization or
from such a stack, with one table of cumulative bin weights. Their fixed cost
of a few dozen numpy calls is paid once per stack rather than once per
realization or dataset. Every stacked caller takes its stacks from
`streams.Substreams.stacks`, so a call holds at most STACK_POINTS points or
one dataset, and the sampler works on all of it in one pass, `_ndtri`
included. The partition model finds each point's noise bin by inversion
(Devroye 1986, Non-Uniform Random Variate Generation, III.2): a bisection
over the point's (realization, bucket) row of cumulative weights that takes
the same ceil(log2 B_eps) halving steps for every point, one gathered row
entry per point per step (Khuong & Morin 2017, "Array layouts for
comparison-based searching"). Its cost per point grows with log B_eps alone,
not with the stack's size or B_X. The Gaussian quantile is `_ndtri`, a numpy
port of Cephes ndtri (Moshier 1989, Methods and Programs for Mathematical
Functions), the routine behind `scipy.special.ndtri`, so the package needs no
scipy at run time. It gives scipy's bits for exp(-2) < p <= 1 - exp(-2) and
agrees within 8 ulp in the tails, where numpy's vectorised log may round
differently from libm's. The truncated-normal bin means depend only on
(sigma2, B_eps) and are computed once per pair; the cached array is
read-only.

`sample_perturbed` works in two steps: a stream step, where each generator
draws what it always draws, and a response step (bucket row, bin search,
Gaussian quantile, f and the bucket shift). A caller that reads y only
inside a window passes window=(lo, hi), and the response step then runs on
the points there alone; the draws, and so every stream and every y inside,
keep their bits. The risk split does this for its fit at one query x0: a
local polynomial fit gives zero weight to every point beyond the kernel's
reach (Fan & Gijbels 1996, Local Polynomial Modelling, 3.2), so a y there
only adds exact zeros to the fit's sums.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Union

import numpy as np

from .baseline import (FUNCTION_CATALOG, BaselineConfig, Dataset, check_unit_interval,
                       get_function)

_MAX_REDRAWS = 100
_TINY = np.finfo(float).tiny

# Cephes ndtri (Moshier 1989), as scipy.special.ndtri evaluates it. The
# central rational approximation in (p - 1/2)^2 covers exp(-2) < p <= 1 - exp(-2);
# the tails are rational in z = 1/x, x = sqrt(-2 log y), y = min(p, 1 - p),
# with (P1, Q1) for x < 8 and (P2, Q2) beyond. Each Q starts with the leading
# 1 that Cephes' p1evl implies; 1 * x is exact, so _polevl gives p1evl's bits.
_S2PI = 2.50662827463100050242
_EXP_M2 = 0.13533528323661269189
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef, out: np.ndarray) -> np.ndarray:
    """Cephes polevl: Horner's rule from the leading coefficient, into out."""
    np.multiply(x, coef[0], out=out)
    for c in coef[1:-1]:
        out += c
        out *= x
    out += coef[-1]
    return out


def _ndtri(p) -> np.ndarray:
    """Standard normal quantile of p in [0, 1]: -inf at 0, +inf at 1.

    A port of Cephes ndtri with its branches, coefficients and operation
    order, in one pass over p: every operation is elementwise, so each point
    gets the bits it gets alone. Central inputs give scipy.special.ndtri's
    bits. In the tails a one-ulp difference in log(y) can move
    x = sqrt(-2 log y) by one ulp of x, up to two ulp of the result, before
    the later roundings; the tests allow 8 ulp against scipy.
    """
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    # the central branch on every point; the tails overwrite their points
    y = flat - 0.5
    y2 = y * y
    out = _polevl(y2, _NDTRI_P0, np.empty_like(y2))
    out *= y2
    out /= _polevl(y2, _NDTRI_Q0, np.empty_like(y2))
    out *= y
    out += y
    out *= _S2PI
    tail = np.flatnonzero((flat <= _EXP_M2) | (flat > 1.0 - _EXP_M2))
    if tail.size:
        out[tail] = _ndtri_tail(flat.take(tail))
    return out.reshape(p.shape)


def _ndtri_tail(p: np.ndarray) -> np.ndarray:
    """_ndtri for p <= exp(-2) or p > 1 - exp(-2)."""
    y = np.minimum(p, 1.0 - p)
    with np.errstate(divide="ignore", invalid="ignore"):  # y = 0 gives inf below
        x = np.sqrt(-2.0 * np.log(y))
        x0 = x - np.log(x) / x
    z = 1.0 / x
    x1 = z * _polevl(z, _NDTRI_P1, np.empty_like(z)) / _polevl(z, _NDTRI_Q1, np.empty_like(z))
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        zf = z[far]
        x1[far] = zf * _polevl(zf, _NDTRI_P2, np.empty_like(zf)) / _polevl(
            zf, _NDTRI_Q2, np.empty_like(zf))
    x0 -= x1
    x0[y == 0.0] = np.inf
    return np.copysign(x0, p - 0.5, out=x0)


def bucket_of(xs, b_x: int) -> np.ndarray:
    """Equal-width bucket index on [0,1]; x = 1.0 folds into the last bucket."""
    xs = np.asarray(xs, dtype=float)
    return np.minimum((xs * b_x).astype(np.int64), b_x - 1)


@dataclass(frozen=True)
class WeightLaw:
    """Positive iid weight law for the partition model.

    The catalog is restricted to laws compatible with the row-normalized
    Taylor expansion behind the leading-order variance scale (all inverse
    moments of the lognormal are finite; the exponential is admitted through
    the row-mean moment). var_over_mean_sq is Var(xi)/E[xi]^2.
    """

    kind: str
    log_mean: float = 0.0
    log_sd: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exp", "lognormal"):
            raise ValueError(f"unknown weight law {self.kind!r}")
        if self.kind == "lognormal" and not 0 < self.log_sd < math.inf:  # NaN fails too
            raise ValueError(f"lognormal log_sd must be positive and finite, got {self.log_sd:g}")

    @classmethod
    def exponential(cls) -> "WeightLaw":
        return cls("exp")

    @classmethod
    def lognormal_with_ratio(cls, var_over_mean_sq: float) -> "WeightLaw":
        """Lognormal with a target Var/mean^2 = exp(s^2) - 1."""
        if not 0 < var_over_mean_sq < math.inf:  # NaN fails too
            raise ValueError(f"var_over_mean_sq must be positive and finite, got "
                             f"{var_over_mean_sq:g}")
        return cls("lognormal", log_mean=0.0, log_sd=math.sqrt(math.log1p(var_over_mean_sq)))

    @property
    def var_over_mean_sq(self) -> float:
        if self.kind == "exp":
            return 1.0
        return math.expm1(self.log_sd ** 2)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "exp":
            return rng.exponential(1.0, size)
        return rng.lognormal(self.log_mean, self.log_sd, size)


@dataclass(frozen=True)
class PartitionSpec:
    """Quantile-cell reweighting over B_X x B_eps cells of (X, noise)."""

    b_x: int
    b_eps: int
    weight_law: WeightLaw
    baseline: BaselineConfig

    def __post_init__(self):
        if self.b_x < 1:
            raise ValueError("b_x must be at least 1")
        if self.b_eps < 2:
            raise ValueError("b_eps must be at least 2")
        if self.baseline.sigma2 <= 0:
            raise ValueError("partition model needs sigma2 > 0 (noise quantile bins)")


@dataclass(frozen=True)
class CorrelatedNoiseSpec:
    """Additive Gaussian mean shift per X bucket, xi_b ~ N(0, delta2*sigma2)."""

    b_x: int
    delta2: float
    baseline: BaselineConfig

    def __post_init__(self):
        if self.b_x < 1:
            raise ValueError("b_x must be at least 1")
        if self.delta2 < 0:
            raise ValueError("delta2 must be nonnegative")
        if not self.delta2 * self.baseline.sigma2 < math.inf:  # NaN fails too
            raise ValueError(f"the shift variance delta2 * sigma2 must be finite, got "
                             f"{self.delta2:g} * {self.baseline.sigma2:g}")


PerturbationSpec = Union[PartitionSpec, CorrelatedNoiseSpec]


@dataclass(frozen=True)
class PerturbationStrength:
    """Strength summary tau = delta2 * rho_bar of a perturbation spec."""

    tau: float
    delta2: float
    rho_bar: float
    corr_length: float
    leading_order: bool


@dataclass
class PerturbationRealization:
    """One drawn perturbation, its spec and its draw: enough to replay sampling.

    The draw is partition_weights (B_X, B_eps) or bucket_shifts (B_X,), as the
    spec's model has it; one that does not fit the spec is a ValueError. A
    stack of D realizations of one spec carries a leading axis of D on its
    draw and on normalized_weights, and depth = D; one realization has depth
    None. A stack is checked and normalised once, as a whole.
    """

    spec: PerturbationSpec
    realization_id: str | None = None
    partition_weights: np.ndarray | None = None
    bucket_shifts: np.ndarray | None = None
    variant: str = field(init=False)  # "partition" | "correlated_noise"
    depth: int | None = field(init=False, default=None)  # D for a stack of D, None for one
    normalized_weights: np.ndarray | None = field(init=False, default=None)  # w / row mean
    eps_bin_means: np.ndarray | None = field(init=False, default=None)  # E[eps | bin j], read-only

    def __post_init__(self):
        spec = self.spec
        partition = isinstance(spec, PartitionSpec)
        self.variant = "partition" if partition else "correlated_noise"
        name = "partition_weights" if partition else "bucket_shifts"
        shape = (spec.b_x, spec.b_eps) if partition else (spec.b_x,)
        rule = f"{name} must have shape {shape} with every entry finite" + (
            " and > 0" if partition else "")
        try:
            draw = np.asarray(getattr(self, name), dtype=float)
        except ValueError:  # a ragged nested list has no shape
            raise ValueError(f"{rule}; got a ragged list") from None
        stack = draw.ndim > len(shape)
        if draw.shape[int(stack):] != shape or draw.size == 0:
            raise ValueError(f"{rule}; got shape {draw.shape}")
        if not np.isfinite(draw).all():
            raise ValueError(f"{rule}; got a non-finite entry")
        if partition and draw.min() <= 0:
            raise ValueError(f"{rule}; got a weight <= 0")
        setattr(self, name, draw)
        if stack:
            self.depth = len(draw)
        if partition:
            self.normalized_weights = draw / draw.mean(axis=-1)[..., None]
            self.eps_bin_means = _cached_bin_means(spec.baseline.sigma2, spec.b_eps)


def _one_realization(xi: PerturbationRealization, what: str) -> None:
    """ValueError when xi is a stack: what applies to one realization only."""
    if xi.depth is not None:
        raise ValueError(f"{what} needs one realization, got a stack of {xi.depth}")


@lru_cache(maxsize=64)
def _cached_bin_means(sigma2: float, b_eps: int) -> np.ndarray:
    """Exact means of N(0, sigma2) truncated to its b_eps quantile bins.

    Computed once per (sigma2, b_eps) and returned read-only.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    edges = _ndtri(np.arange(b_eps + 1) / b_eps)
    pdf = np.exp(-0.5 * edges ** 2) / math.sqrt(2.0 * math.pi)
    pdf[0] = 0.0
    pdf[-1] = 0.0
    # truncated-normal mean on a slice of probability 1/b_eps
    means = math.sqrt(sigma2) * b_eps * (pdf[:-1] - pdf[1:])
    means.flags.writeable = False
    return means


def draw_perturbation(spec: PerturbationSpec, rng,
                      realization_id: str | None = None) -> PerturbationRealization:
    """Draw one perturbation realization xi from the spec's law, or a stack of them.

    rng is one Generator, or a sequence of D generators that draws a stack of
    depth D whose row d equals the one-generator draw from rng[d] bit for bit:
    each generator makes that draw's calls, redraws included.
    """
    stacked = not isinstance(rng, np.random.Generator)
    rngs = list(rng) if stacked else [rng]
    if not rngs:
        raise ValueError("need one or more generators")
    if isinstance(spec, CorrelatedNoiseSpec):
        scale = math.sqrt(spec.delta2 * spec.baseline.sigma2)
        shifts = np.empty((len(rngs), spec.b_x))
        for row, g in zip(shifts, rngs):
            row[...] = g.normal(0.0, scale, spec.b_x)
        return PerturbationRealization(spec, realization_id,
                                       bucket_shifts=shifts if stacked else shifts[0])
    weights = np.empty((len(rngs), spec.b_x, spec.b_eps))
    for row, g in zip(weights, rngs):
        row[...] = spec.weight_law.sample(g, row.shape)
    # a row with a weight <= 0 redraws those cells from its own generator
    for d in np.flatnonzero((weights <= 0.0).any(axis=(1, 2))):
        row = weights[d]
        bad = row <= 0.0
        redraws = 0
        while bad.any():
            redraws += 1
            if redraws > _MAX_REDRAWS:
                raise RuntimeError(
                    f"weight draw degenerate after {_MAX_REDRAWS} redraws "
                    f"({int(bad.sum())} stuck cells); check the weight law")
            row[bad] = spec.weight_law.sample(rngs[d], int(bad.sum()))
            bad = row <= 0.0
    return PerturbationRealization(spec, realization_id,
                                   partition_weights=weights if stacked else weights[0])


def _bisect_rows(table: np.ndarray, rows, u) -> np.ndarray:
    """searchsorted(table[r], v, side="right") for each pair (r, v) of rows and u.

    table is (R, m) with nondecreasing rows; rows holds integer row indices of
    u's shape. A branch-free bisection keeps, per point, the start of a window
    of its row known to hold the answer: each of the ceil(log2 m) steps halves
    every window at once with one gathered entry per point, and the last entry
    left decides. The steps depend on m alone, so every point takes the same.
    """
    m = table.shape[1]
    flat = table.ravel()
    start = np.broadcast_to(rows, np.shape(u)) * m
    pos = start.copy()
    width = m
    while width > 1:
        half = width // 2
        pos += half * (flat[pos + half] <= u)
        width -= half
    pos += flat[pos] <= u
    return pos - start


def sample_perturbed(spec: PerturbationSpec, xi: PerturbationRealization, n: int, rng,
                     xs: np.ndarray | None = None, *,
                     window: tuple[float, float] | None = None) -> Dataset:
    """Draw n iid pairs from the perturbed law P_xi, or a stack of such datasets.

    X stays uniform (forced via xs for tests, which must lie in [0, 1]); the
    noise law is shifted (correlated noise) or bin-tilted (partition)
    according to xi.

    rng is one Generator, or a sequence of D generators that draws a stack:
    xs, ys and bucket_ids then have shape (D, n), xi is one realization for
    every row or a stack of depth D whose row d serves row d, and forced xs
    has shape (n,) or (D, n). Row d equals the one-generator call with rng[d]
    and row d of xi bit for bit, since each generator draws what that call
    draws, in the same order: the x uniforms unless xs is forced, then the
    partition model's bin and in-bin uniforms or the correlated model's
    noise. The dataset's realization_id is xi's.

    window=(lo, hi) maps a response only at the points with lo <= x <= hi;
    every other y is +0.0. The draws do not change, so xs, bucket_ids, the
    generators' states and every y inside the window equal the full call's
    bit for bit. A caller that reads y only where a kernel weight can be
    positive (the risk split's fit at one query) skips the bin search, the
    Gaussian quantile and f for the rest of the points.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    stacked = not isinstance(rng, np.random.Generator)
    rngs = list(rng) if stacked else [rng]
    depth = len(rngs)
    if not rngs or xi.depth not in (None, depth):
        raise ValueError("need one or more generators and, for a stacked realization, "
                         "one realization per generator")
    if xi.spec is not spec and xi.spec != spec:
        raise ValueError("realization was drawn from a different spec")
    if window is not None and not window[0] <= window[1]:  # NaN fails too
        raise ValueError(f"window must be (lo, hi) with lo <= hi, got {window}")
    fresh = xs is None
    if fresh:
        xs = np.empty((depth, n))
    else:
        xs = np.asarray(xs, dtype=float)
        if xs.shape not in ((n,), (depth, n)):
            raise ValueError("forced xs must have length n")
        check_unit_interval(xs, "forced xs must lie in [0, 1]")
        xs = np.array(np.broadcast_to(xs, (depth, n)))
    # the stream step: each generator's draws, in the one-generator call's order
    partition = isinstance(spec, PartitionSpec)
    draws = np.empty((2 if partition else 1, depth, n))
    for d, g in enumerate(rngs):
        if fresh:
            g.random(out=xs[d])
        if partition:
            g.random(out=draws[0, d])
            g.random(out=draws[1, d])
        else:
            draws[0, d] = g.normal(0.0, math.sqrt(spec.baseline.sigma2), n)
    buckets = bucket_of(xs, spec.b_x)
    # a stack's per-bucket rows follow one another, row d's points index block d
    rows = buckets if xi.depth is None else buckets + spec.b_x * np.arange(depth)[:, None]
    if window is None:
        ys = _responses(xi, xs, rows, draws)
    else:
        inside = np.flatnonzero((xs >= window[0]) & (xs <= window[1]))
        ys = np.zeros((depth, n))
        np.put(ys, inside, _responses(xi, xs.take(inside), rows.take(inside),
                                      draws.reshape(len(draws), -1).take(inside, axis=1)))
    if not stacked:
        xs, ys, buckets = xs[0], ys[0], buckets[0]
    return Dataset(xs=xs, ys=ys, bucket_ids=buckets, realization_id=xi.realization_id)


def _responses(xi: PerturbationRealization, xs: np.ndarray, rows: np.ndarray,
               draws: np.ndarray) -> np.ndarray:
    """The response step of sample_perturbed: y at each point of xs.

    rows holds each point's row of xi's per-bucket tables (realization d,
    bucket b at d * B_X + b); draws[k] has xs' shape and holds its bin and
    in-bin uniforms (partition, overwritten) or its noise (correlated noise).
    Each y depends on its own point's values alone.
    """
    spec = xi.spec
    base = spec.baseline
    if xi.variant == "correlated_noise":
        return base.f(xs) + xi.bucket_shifts.ravel()[rows] + draws[0]
    # Pick a noise bin from the tilted row law, then sample the Gaussian
    # restricted to that bin by inverse CDF on its probability slice.
    b_eps = spec.b_eps
    table = np.cumsum(xi.normalized_weights / b_eps, axis=-1).reshape(-1, b_eps)
    bins = _bisect_rows(table, rows, draws[0])
    np.minimum(bins, b_eps - 1, out=bins)  # a u past the row's rounded total
    slice_prob = draws[1]
    slice_prob += bins
    slice_prob /= b_eps
    np.maximum(slice_prob, _TINY, out=slice_prob)
    np.minimum(slice_prob, 1.0 - np.finfo(float).epsneg, out=slice_prob)
    return base.f(xs) + math.sqrt(base.sigma2) * _ndtri(slice_prob)


def delta_at(xi: PerturbationRealization, x) -> np.ndarray:
    """Conditional-mean shift Delta_xi(x) of the noise at covariate x.

    Correlated noise: the bucket shift itself. Partition: the bin-mean
    contrast (1/B_eps) * sum_j (w_ij/w_bar_i - 1) m_j of the bucket's row.
    x must lie in [0, 1].
    """
    _one_realization(xi, "delta_at")
    x = np.asarray(x, dtype=float)
    check_unit_interval(x, "x must lie in [0, 1]")
    spec = xi.spec
    buckets = bucket_of(x, spec.b_x)
    if xi.variant == "correlated_noise":
        return xi.bucket_shifts[buckets]
    row_delta = (xi.normalized_weights - 1.0) @ xi.eps_bin_means / spec.b_eps
    return row_delta[buckets]


def perturbation_strength(spec: PerturbationSpec) -> PerturbationStrength:
    """Strength parameters of the spec; leading order in B_eps for partition."""
    rho_bar = 1.0 / spec.b_x
    if isinstance(spec, CorrelatedNoiseSpec):
        delta2 = spec.delta2
        leading = False
    else:
        delta2 = spec.weight_law.var_over_mean_sq / spec.b_eps
        leading = True
    return PerturbationStrength(tau=delta2 * rho_bar, delta2=delta2, rho_bar=rho_bar,
                                corr_length=1.0 / spec.b_x, leading_order=leading)


def kl_to_baseline_partition(xi: PerturbationRealization) -> float:
    """KL(P0 || P_xi) of a partition realization: mean of -log normalized weight."""
    _one_realization(xi, "kl_to_baseline_partition")
    if xi.variant != "partition":
        raise ValueError("KL-to-baseline formula applies to partition realizations only")
    return float(np.mean(-np.log(xi.normalized_weights)))


def delta_variance_mc(spec: PerturbationSpec, reps: int, rng: np.random.Generator,
                      x: float = 0.5) -> float:
    """Monte Carlo estimate of Var over realizations of Delta_xi(x).

    Exact-delta2 companion to the leading-order value reported by
    perturbation_strength for the partition model.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    deltas = np.empty(reps)
    for r in range(reps):
        deltas[r] = delta_at(draw_perturbation(spec, rng), x)
    return float(np.var(deltas, ddof=1))


def realization_to_json(xi: PerturbationRealization) -> dict:
    """JSON-serializable replay document for a realization.

    A target function the catalog cannot rebuild, such as a bump, is a
    ValueError: its document could not be read back.
    """
    _one_realization(xi, "a replay document")
    spec = xi.spec
    base = spec.baseline
    if base.f.name not in FUNCTION_CATALOG:
        raise ValueError(f"function {base.f.name!r} is not in the function catalog "
                         f"{sorted(FUNCTION_CATALOG)}, so a replay document cannot rebuild it")
    doc: dict = {
        "variant": xi.variant,
        "realization_id": xi.realization_id,
        "spec": {
            "b_x": spec.b_x,
            "baseline": {"f": base.f.name, "beta": base.f.beta,
                         "holder_const": base.f.holder_const,
                         "sigma2": base.sigma2, "n": base.n},
        },
    }
    if xi.variant == "partition":
        doc["spec"]["b_eps"] = spec.b_eps
        doc["spec"]["weight_law"] = {"kind": spec.weight_law.kind,
                                     "log_mean": spec.weight_law.log_mean,
                                     "log_sd": spec.weight_law.log_sd}
        doc["partition_weights"] = xi.partition_weights.tolist()
    else:
        doc["spec"]["delta2"] = spec.delta2
        doc["bucket_shifts"] = xi.bucket_shifts.tolist()
    return doc


def realization_from_json(doc: dict) -> PerturbationRealization:
    """Rebuild a realization from its replay document.

    The target function is the catalog entry named in the document with its
    recorded beta and holder_const; a document without them keeps the
    catalog defaults.
    """
    sp = doc["spec"]
    bdoc = sp["baseline"]
    f = get_function(bdoc["f"])
    f = replace(f, beta=float(bdoc.get("beta", f.beta)),
                holder_const=float(bdoc.get("holder_const", f.holder_const)))
    base = BaselineConfig(f=f, sigma2=float(bdoc["sigma2"]), n=int(bdoc["n"]))
    rid = doc.get("realization_id")
    if doc["variant"] not in ("partition", "correlated_noise"):
        raise ValueError(f"variant must be 'partition' or 'correlated_noise', "
                         f"got {doc['variant']!r}")
    if doc["variant"] == "partition":
        law = WeightLaw(kind=sp["weight_law"]["kind"],
                        log_mean=float(sp["weight_law"]["log_mean"]),
                        log_sd=float(sp["weight_law"]["log_sd"]))
        spec = PartitionSpec(b_x=int(sp["b_x"]), b_eps=int(sp["b_eps"]),
                             weight_law=law, baseline=base)
        xi = PerturbationRealization(spec, rid, partition_weights=doc["partition_weights"])
    else:
        spec = CorrelatedNoiseSpec(b_x=int(sp["b_x"]), delta2=float(sp["delta2"]),
                                   baseline=base)
        xi = PerturbationRealization(spec, rid, bucket_shifts=doc["bucket_shifts"])
    _one_realization(xi, "a replay document")
    return xi


def save_realization(xi: PerturbationRealization, path) -> None:
    doc = realization_to_json(xi)  # before opening, so a refused document leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_realization(path) -> PerturbationRealization:
    with open(path, encoding="utf-8") as fh:
        return realization_from_json(json.load(fh))
