"""Monte Carlo risk decomposition for local polynomial fits under perturbation.

The pointwise risk splits, by the law of total variance over the perturbation
draw, into squared bias, sampling variance (inner, data given a realization)
and distributional variance (outer, across realizations). The nested
estimator subtracts the inner-noise contamination from the outer variance so
the three pieces add up to the total mean squared error within Monte Carlo
error.

The risk split and the oracle fit one query per design, so they take
local_poly's point path (a stack of unsorted designs, no lattice); the MISE
curves fit grids through the batched engine.

Every Monte Carlo routine here (the risk split, the oracle, MISE curves and
the optimal bandwidth per (n, tau) cell) draws each replicate from its own
pre-assigned stream, taken from a streams.substreams batch, and runs the
replicates one after another in the calling process, so a result depends on
the seed alone.

MISE curves for a ladder of perturbation specs share one baseline and one
seed, so every spec's replicate r sees the same design (common random
numbers) and only its responses differ. A local polynomial fit is linear in
y and its Gram matrices depend on the design alone, so the ladder is fitted
as one multi-response engine call per (replicate, h), and each curve equals
the curve of its spec run alone bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bandwidth import NumericDeadEnd, argmin_prefer_larger
from .baseline import BaselineConfig
from .local_poly import (LpeConfig, _point_fit, equivalent_kernel_weights, predict_grid,
                         sort_design)
from .perturbation import (CorrelatedNoiseSpec, PerturbationSpec, bucket_of,
                           draw_perturbation, sample_perturbed)
from .streams import map_indexed, substreams

# Abort when more than this fraction of fits lack local support.
MAX_FAIL_FRACTION = 0.01


@dataclass
class RiskReport:
    """Pointwise risk decomposition with Monte Carlo standard errors.

    Variance components are clamped at zero for reporting; raw values stay in
    diagnostics so the additivity check is not distorted. se_combined is the
    root-sum-square of the four component standard errors and is the scale
    against which the additivity residual is judged.
    """

    bias2: float
    sampling_var: float
    dist_var: float
    total_mse: float
    se_total: float
    se_bias2: float
    se_sampling: float
    se_dist: float
    se_combined: float
    diagnostics: dict

    @property
    def identity_residual(self) -> float:
        return self.total_mse - (self.bias2 + self.sampling_var +
                                 self.diagnostics["dist_var_raw"])


def _check_baseline(base: BaselineConfig, spec: PerturbationSpec) -> None:
    """A ValueError unless the spec perturbs base: the data follow spec.baseline."""
    if spec.baseline != base:
        raise ValueError(f"base {base} differs from spec.baseline {spec.baseline}")


def _risk_components(mu, v, v_over_b, t, f0):
    grand = mu.mean()
    bias2 = (grand - f0) ** 2
    samp = v.mean()
    dist_raw = np.var(mu, ddof=1) - v_over_b.mean()
    total = t.mean()
    return np.array([bias2, samp, dist_raw, total])


def _jackknife_se(mu, v, v_over_b, t, f0) -> np.ndarray:
    a = mu.size
    stats = np.empty((a, 4))
    mask = np.ones(a, dtype=bool)
    for i in range(a):
        mask[i] = False
        stats[i] = _risk_components(mu[mask], v[mask], v_over_b[mask], t[mask], f0)
        mask[i] = True
    center = stats.mean(axis=0)
    return np.sqrt((a - 1) / a * ((stats - center) ** 2).sum(axis=0))


def pointwise_risk_mc(base: BaselineConfig, spec: PerturbationSpec, lpe: LpeConfig,
                      x0: float, reps_xi: int, reps_data: int, seed: int) -> RiskReport:
    """Nested Monte Carlo estimate of the pointwise risk decomposition at x0.

    Outer loop draws perturbation realizations, inner loop draws datasets
    conditional on each realization; realization i draws from stream
    (seed, "xi", i) and its dataset j from (seed, "data", i, j), so the
    report depends on the seed alone. The datasets of one realization are
    drawn in one stacked sampler call and fitted at x0 in one stacked call of
    local_poly's point path, which neither sorts them nor builds a lattice;
    each dataset's fit equals its fit alone bit for bit. The sampler maps
    responses only inside the kernel window x0 +- kernel.reach(h): a point
    beyond it has K(u) = 0, so its terms in the fit's moment sums are zeros
    whatever its y, and every fitted value keeps its bits (only the sign of
    an exactly zero sum could differ).
    Aborts if more than 1% of fits lack local support.
    diagnostics["ridged_fits"] counts the supported fits whose local Gram
    matrix was ridged. spec.baseline must be base.
    """
    if reps_xi < 2 or reps_data < 2:
        raise ValueError("need reps_xi >= 2 and reps_data >= 2")
    _check_baseline(base, spec)
    f0 = float(base.f(x0))
    xi_rngs = substreams(seed, "xi", count=reps_xi)
    # K(u) > 0 implies |x - x0| <= reach, the bound local_poly._window relies on
    reach = lpe.kernel.reach(lpe.bandwidth)
    window = (x0 - reach, x0 + reach)

    def one_realization(i: int):
        xi = draw_perturbation(spec, xi_rngs[i], realization_id=f"xi{i:05d}")
        stack = sample_perturbed(spec, xi, base.n, substreams(seed, "data", i, count=reps_data),
                                 window=window)
        fit = _point_fit(lpe, stack.xs, stack.ys, x0)
        return fit.values, int((fit.degenerate & fit.supported).sum())

    rows, ridged = map(np.array, zip(*map_indexed(one_realization, reps_xi)))
    valid = ~np.isnan(rows)
    failed = int((~valid).sum())
    if failed > MAX_FAIL_FRACTION * rows.size:
        raise RuntimeError(
            f"{failed}/{rows.size} fits lacked local support at x0={x0} "
            f"(h={lpe.bandwidth}); bandwidth too small for n={base.n}")
    counts = valid.sum(axis=1)
    usable = counts >= 2
    dropped_rows = int((~usable).sum())
    if usable.sum() < 2:
        raise RuntimeError("fewer than 2 usable outer replicates")
    sub = rows[usable]
    mu = np.nanmean(sub, axis=1)
    v = np.nanvar(sub, axis=1, ddof=1)
    v_over_b = v / counts[usable]
    t = np.nanmean((sub - f0) ** 2, axis=1)

    bias2, samp, dist_raw, total = _risk_components(mu, v, v_over_b, t, f0)
    se_bias2, se_samp, se_dist, se_total = _jackknife_se(mu, v, v_over_b, t, f0)
    se_combined = math.sqrt(se_bias2 ** 2 + se_samp ** 2 + se_dist ** 2 + se_total ** 2)
    return RiskReport(
        bias2=float(bias2), sampling_var=float(samp), dist_var=float(max(0.0, dist_raw)),
        total_mse=float(total), se_total=float(se_total), se_bias2=float(se_bias2),
        se_sampling=float(se_samp), se_dist=float(se_dist), se_combined=float(se_combined),
        diagnostics={"dist_var_raw": float(dist_raw), "failed_fits": failed,
                     "total_fits": rows.size, "dropped_rows": dropped_rows,
                     "ridged_fits": int(ridged.sum())})


def dist_var_weight_oracle(base: BaselineConfig, spec: CorrelatedNoiseSpec,
                           lpe: LpeConfig, x0: float, reps: int, seed: int) -> tuple[float, float]:
    """Brute-force weight-resampling value of the distributional variance.

    Averages sum_b (sum of in-bucket weights)^2 over fresh uniform designs
    and scales by delta2*sigma2 (the block correlation makes the double sum
    over weight pairs collapse to per-bucket squares). Returns (value, se).
    Weights are equivalent_kernel_weights over the runs of Substreams.stacks,
    which bounds the working memory; it raises NoLocalSupport when a design
    has no point with positive kernel weight at x0. spec.baseline must be base.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    _check_baseline(base, spec)
    acc = np.empty(reps)
    for run, rngs in substreams(seed, "oracle-design", count=reps).stacks(base.n):
        xs = np.empty((len(run), base.n))
        for rng, row in zip(rngs, xs):
            rng.random(out=row)
        w = equivalent_kernel_weights(lpe, xs, x0).weights
        # one bincount: design k's buckets are offset by k * b_x
        keys = bucket_of(xs, spec.b_x) + (np.arange(len(run)) * spec.b_x)[:, None]
        s = np.bincount(keys.ravel(), weights=w.ravel(), minlength=len(run) * spec.b_x)
        acc[run] = (s.reshape(len(run), spec.b_x) ** 2).sum(axis=1)
    scale = spec.delta2 * base.sigma2
    return (float(scale * acc.mean()),
            float(scale * acc.std(ddof=1) / math.sqrt(reps)))


@dataclass
class MiseCurve:
    """MISE against bandwidth; meta holds the run's failed_h and ridged_fits (see mise_ladder)."""

    h: np.ndarray
    mise: np.ndarray
    se: np.ndarray
    argmin_h: float
    meta: dict

    @property
    def rows(self) -> list[tuple[float, float, float]]:
        return list(zip(self.h.tolist(), self.mise.tolist(), self.se.tolist()))


def mise_mc(base: BaselineConfig, spec: PerturbationSpec, lpe_base: LpeConfig,
            h_grid, eval_grid, reps: int, seed: int) -> MiseCurve:
    """Mean integrated squared error across perturbation realizations.

    Each replicate draws a fresh (realization, dataset) pair; the same
    replicate data are reused across the whole h grid (common random
    numbers), so curves for different h, and for different strengths run
    under the same seed, are variance-coupled. Any NoLocalSupport at a grid
    point invalidates that h (+inf), it is never scored as zero. This is
    the ladder of one spec; see mise_ladder for the curve's meta block.
    """
    return mise_ladder(base, [spec], lpe_base, h_grid, eval_grid, reps, seed)[0]


def mise_ladder(base: BaselineConfig, specs, lpe_base: LpeConfig, h_grid, eval_grid,
                reps: int, seed: int) -> list[MiseCurve]:
    """MISE curves of several perturbation specs under one seed, one per spec.

    Each spec's baseline must be base. Replicate r of every spec draws its
    realization and dataset from the start of streams (seed, "xi", r) and
    (seed, "data", r), so all specs see the same design (x is the data
    stream's first draw) and only their responses differ; each (replicate,
    h) is one engine call that fits every spec's responses. curves[j]
    equals mise_mc on specs[j] alone bit for bit. meta["failed_h"] lists
    the h scored +inf, and
    meta["ridged_fits"], per h, counts the supported fits over all
    replicates whose local Gram matrix was ridged; it depends on the design
    alone, so every spec reports the same counts.
    """
    specs = list(specs)
    if reps < 2:
        raise ValueError("reps must be at least 2")
    if not specs:
        raise ValueError("the spec ladder is empty")
    for spec in specs:
        _check_baseline(base, spec)
    h_grid = np.sort(np.asarray(h_grid, dtype=float))
    eval_grid = np.asarray(eval_grid, dtype=float)
    if h_grid.size == 0 or eval_grid.size == 0:
        raise ValueError("h_grid and eval_grid must be nonempty")
    truth = base.f(eval_grid)
    xi_rngs, data_rngs = substreams(seed, "xi", count=reps), substreams(seed, "data", count=reps)

    def one_rep(r: int):
        sets = []
        for spec in specs:
            xi = draw_perturbation(spec, xi_rngs[r], realization_id=f"xi{r:05d}")
            sets.append(sample_perturbed(spec, xi, base.n, data_rngs[r]))
        if any(not np.array_equal(ds.xs, sets[0].xs) for ds in sets):
            raise RuntimeError("specs of one ladder drew different designs")
        design = sort_design(sets[0].xs, [ds.ys for ds in sets])
        out = np.empty((len(specs), h_grid.size))
        ridged: list[int] = []
        for i, h in enumerate(h_grid):
            cfg = replace(lpe_base, bandwidth=float(h))
            err = predict_grid(cfg, design, eval_grid, ridged=ridged) - truth
            out[:, i] = np.mean(err ** 2, axis=-1)  # NaN if any grid point lacked support
        return out, ridged

    tables, ridged = zip(*map_indexed(one_rep, reps))
    ridged = np.sum(ridged, axis=0).tolist()
    curves = []
    for j in range(len(specs)):
        table = np.array([t[j] for t in tables])  # (reps, n_h)
        bad = np.isnan(table).any(axis=0)
        mise = table.mean(axis=0)
        se = table.std(axis=0, ddof=1) / math.sqrt(reps)
        mise[bad] = np.inf
        se[bad] = np.nan
        try:
            argmin_h = argmin_prefer_larger(h_grid, mise)
        except NumericDeadEnd:
            raise NumericDeadEnd(
                f"no bandwidth in the grid (max h={h_grid.max():g}) has local support at "
                f"every evaluation point for n={base.n}") from None
        meta = {"failed_h": h_grid[bad].tolist(), "ridged_fits": list(ridged)}
        curves.append(MiseCurve(h=h_grid, mise=mise, se=se, argmin_h=argmin_h, meta=meta))
    return curves


def optimal_bandwidth_curve(base: BaselineConfig, lpe_base: LpeConfig, b_x: int,
                            tau_grid, n_grid, h_grid, eval_grid, reps: int,
                            seed: int) -> list[dict]:
    """Empirical optimal bandwidth per (n, tau) cell.

    Cells are generated from the correlated noise model with delta2 =
    tau*b_x, all under the same seed so curves across n and tau are coupled.
    The whole tau ladder is checked before any fit and then fitted per n in
    one mise_ladder call. Returns rows {n, tau, h_star, curve}, tau by tau
    and n by n within each tau, where curve is the cell's MiseCurve.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    if not np.all(tau_grid >= 0):  # NaN fails too
        raise ValueError("tau must be nonnegative")
    if tau_grid.size == 0:
        return []
    cells = []  # (n, one curve per tau)
    for n in np.asarray(n_grid, dtype=np.int64):
        cell_base = replace(base, n=int(n))
        specs = [CorrelatedNoiseSpec(b_x=b_x, delta2=float(tau) * b_x, baseline=cell_base)
                 for tau in tau_grid]
        cells.append((int(n), mise_ladder(cell_base, specs, lpe_base, h_grid, eval_grid,
                                          reps, seed)))
    return [{"n": n, "tau": float(tau), "h_star": curves[i].argmin_h, "curve": curves[i]}
            for i, tau in enumerate(tau_grid) for n, curves in cells]


def rate_fit(xs, ys) -> tuple[float, float, float]:
    """OLS line through (xs, ys); returns (slope, intercept, r_squared)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3:
        raise ValueError("need at least 3 points")
    if np.ptp(xs) == 0.0:
        raise ValueError("degenerate fit: all x values equal")
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid ** 2).sum()) / ss_tot
    return float(slope), float(intercept), r2
