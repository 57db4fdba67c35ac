import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rupsim import (KERNELS, BaselineConfig, CorrelatedNoiseSpec, LpeConfig, NoLocalSupport,
                    PartitionSpec, RegressionFunction, WeightLaw, bucket_of,
                    dist_var_weight_oracle, draw_perturbation, equivalent_kernel_weights,
                    get_kernel, mise_ladder, mise_mc, oracle_bandwidth,
                    optimal_bandwidth_curve, pointwise_risk_mc, predict_grid, rate_fit, risk,
                    sample_perturbed, sine_function, sort_design, substream, zero_function)
from rupsim.local_poly import _point_fit


def affine_function(a=0.5, b=1.5):
    return RegressionFunction("affine", beta=2.0, holder_const=1.0,
                              _fn=lambda x: a + b * x)


def corr_spec(tau, base, b_x=10):
    return CorrelatedNoiseSpec(b_x=b_x, delta2=tau * b_x, baseline=base)


def test_zero_strength_dist_var_is_noise():
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=300)
    rep = pointwise_risk_mc(base, corr_spec(0.0, base), LpeConfig(order=1, bandwidth=0.15),
                            x0=0.5, reps_xi=60, reps_data=20, seed=0)
    assert abs(rep.diagnostics["dist_var_raw"]) <= 3 * rep.se_dist


def test_noiseless_affine_zero_risk():
    base = BaselineConfig(f=affine_function(), sigma2=0.0, n=200)
    rep = pointwise_risk_mc(base, corr_spec(0.0, base), LpeConfig(order=1, bandwidth=0.2),
                            x0=0.4, reps_xi=5, reps_data=5, seed=1)
    assert rep.total_mse < 1e-10
    assert rep.bias2 < 1e-10


def test_identity_holds_within_combined_se():
    base = BaselineConfig(f=sine_function(), sigma2=1.0, n=250)
    for tau, h, seed in ((0.0, 0.15, 2), (0.02, 0.2, 3)):
        rep = pointwise_risk_mc(base, corr_spec(tau, base),
                                LpeConfig(order=1, bandwidth=h),
                                x0=0.5, reps_xi=100, reps_data=25, seed=seed)
        assert abs(rep.identity_residual) <= 3 * rep.se_combined
        assert rep.dist_var >= 0.0
        assert rep.diagnostics["dist_var_raw"] >= -3 * rep.se_dist


def test_dist_var_matches_weight_resampling_oracle():
    base = BaselineConfig(f=zero_function(), sigma2=1.0, n=400)
    spec = corr_spec(0.025, base)  # delta2 = 0.25
    lpe = LpeConfig(order=1, bandwidth=0.1)
    rep = pointwise_risk_mc(base, spec, lpe, x0=0.5, reps_xi=150, reps_data=30, seed=4)
    oracle, oracle_se = dist_var_weight_oracle(base, spec, lpe, x0=0.5, reps=1500, seed=5)
    gap = rep.diagnostics["dist_var_raw"] - oracle
    assert abs(gap) <= 3 * math.sqrt(rep.se_dist ** 2 + oracle_se ** 2)


def test_dist_var_nondecreasing_in_delta2():
    base = BaselineConfig(f=zero_function(), sigma2=1.0, n=300)
    lpe = LpeConfig(order=1, bandwidth=0.12)
    reports = [pointwise_risk_mc(base, corr_spec(tau, base), lpe, x0=0.5,
                                 reps_xi=120, reps_data=25, seed=6)
               for tau in (0.0, 0.01, 0.04)]
    for lo, hi in zip(reports, reports[1:]):
        slack = 3 * math.sqrt(lo.se_dist ** 2 + hi.se_dist ** 2)
        assert hi.diagnostics["dist_var_raw"] >= lo.diagnostics["dist_var_raw"] - slack


def test_risk_floor_at_positive_tau():
    # with h fixed near h*(tau), growing n cannot push the risk to zero
    tau = 0.05
    lpe = LpeConfig(order=1, bandwidth=oracle_bandwidth(1000, tau, 2.0))
    reports = {}
    for n in (1000, 8000):
        base = BaselineConfig(f=sine_function(), sigma2=1.0, n=n)
        reports[n] = pointwise_risk_mc(base, corr_spec(tau, base), lpe, x0=0.5,
                                       reps_xi=80, reps_data=10, seed=7)
    assert reports[8000].total_mse > 0.5 * reports[1000].total_mse


def test_tiny_bandwidth_aborts_with_diagnostic():
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=40)
    with pytest.raises(RuntimeError, match="local support"):
        pointwise_risk_mc(base, corr_spec(0.0, base),
                          LpeConfig(order=1, bandwidth=0.001), x0=0.5,
                          reps_xi=10, reps_data=5, seed=9)


def per_dataset_risk(base, spec, lpe, x0, reps_xi, reps_data, seed):
    """The risk decomposition with one point-path fit per dataset, as before stacking."""
    f0 = float(base.f(x0))
    rows = np.empty((reps_xi, reps_data))
    for i in range(reps_xi):
        xi = draw_perturbation(spec, substream(seed, "xi", i), realization_id=f"xi{i:05d}")
        for j in range(reps_data):
            ds = sample_perturbed(spec, xi, base.n, substream(seed, "data", i, j))
            rows[i, j] = _point_fit(lpe, ds.xs, ds.ys, x0).values  # NaN without support
    valid = ~np.isnan(rows)
    counts = valid.sum(axis=1)
    sub = rows[counts >= 2]
    mu = np.nanmean(sub, axis=1)
    v = np.nanvar(sub, axis=1, ddof=1)
    v_over_b = v / counts[counts >= 2]
    t = np.nanmean((sub - f0) ** 2, axis=1)
    return (risk._risk_components(mu, v, v_over_b, t, f0),
            risk._jackknife_se(mu, v, v_over_b, t, f0), int((~valid).sum()))


def per_design_oracle(base, spec, lpe, x0, reps, seed):
    """dist_var_weight_oracle with one equivalent_kernel_weights call per design."""
    acc = np.empty(reps)
    for r in range(reps):
        xs = substream(seed, "oracle-design", r).random(base.n)
        w = equivalent_kernel_weights(lpe, xs, x0).weights
        s = np.bincount(bucket_of(xs, spec.b_x), weights=w, minlength=spec.b_x)
        acc[r] = (s ** 2).sum()
    scale = spec.delta2 * base.sigma2
    return (float(scale * acc.mean()),
            float(scale * acc.std(ddof=1) / math.sqrt(reps)))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_stacked_risk_is_bit_identical_to_per_dataset_fits(kernel):
    base = BaselineConfig(f=sine_function(), sigma2=1.0, n=120)
    partition = PartitionSpec(b_x=10, b_eps=50, weight_law=WeightLaw.exponential(),
                              baseline=base)
    # the last three: h = 0.02 is near the support limit (the smooth bump's window
    # holds about 2.4 points, and h = 0.015 leaves fits unsupported), h = 1.0, x0 = 0.0
    cases = [(corr_spec(0.02, base), 1, 0.2, 0.5), (partition, 2, 0.3, 0.03),
             (corr_spec(0.01, base), 0, 0.1, 1.0), (partition, 4, 0.5, 0.77),
             (partition, 0, 0.02, 0.62), (corr_spec(0.02, base), 2, 1.0, 0.9),
             (partition, 2, 0.25, 0.0)]
    for spec, order, h, x0 in cases:
        lpe = LpeConfig(order=order, bandwidth=h, kernel=get_kernel(kernel))
        components, ses, failed = per_dataset_risk(base, spec, lpe, x0, 7, 5, seed=21)
        rep = pointwise_risk_mc(base, spec, lpe, x0, 7, 5, seed=21)
        got = np.array([rep.bias2, rep.sampling_var, rep.diagnostics["dist_var_raw"],
                        rep.total_mse, rep.se_bias2, rep.se_sampling, rep.se_dist,
                        rep.se_total])
        assert got.tobytes() == np.concatenate([components, ses]).tobytes()
        assert rep.diagnostics["failed_fits"] == failed


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_stacked_oracle_is_bit_identical_to_per_design_weights(kernel):
    for n, b_x, order, h, x0, reps in ((300, 10, 1, 0.1, 0.5, 45), (40, 7, 2, 0.4, 0.0, 9),
                                       (2000, 1, 0, 0.05, 1.0, 12), (900, 200, 3, 0.3, 0.3, 5)):
        base = BaselineConfig(f=zero_function(), sigma2=0.7, n=n)
        spec = CorrelatedNoiseSpec(b_x=b_x, delta2=0.25, baseline=base)
        lpe = LpeConfig(order=order, bandwidth=h, kernel=get_kernel(kernel))
        stacked = dist_var_weight_oracle(base, spec, lpe, x0, reps, seed=22)
        alone = per_design_oracle(base, spec, lpe, x0, reps, seed=22)
        assert np.array(stacked).tobytes() == np.array(alone).tobytes()


def test_oracle_without_support_raises():
    base = BaselineConfig(f=zero_function(), sigma2=1.0, n=5)
    with pytest.raises(NoLocalSupport):
        dist_var_weight_oracle(base, corr_spec(0.01, base), LpeConfig(order=1, bandwidth=0.001),
                               x0=0.5, reps=4, seed=0)


def test_ridged_fits_counted_in_diagnostics(monkeypatch):
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=200)
    spec = corr_spec(0.01, base)
    ordinary = pointwise_risk_mc(base, spec, LpeConfig(order=1, bandwidth=0.15), x0=0.5,
                                 reps_xi=6, reps_data=5, seed=23)
    assert ordinary.diagnostics["ridged_fits"] == 0

    def on_lattice(spec, xi, n, rng, *, window=None):
        # x on a 0.05 lattice: a window of half-width 0.06 at 0.5 holds three
        # distinct x values, too few for a cubic, so every fit is ridged
        ds = sample_perturbed(spec, xi, n, rng, window=window)
        ds.xs = np.round(ds.xs * 20.0) / 20.0
        return ds

    monkeypatch.setattr(risk, "sample_perturbed", on_lattice)
    rep = pointwise_risk_mc(base, spec, LpeConfig(order=3, bandwidth=0.06), x0=0.5,
                            reps_xi=6, reps_data=5, seed=23)
    assert rep.diagnostics["failed_fits"] == 0
    assert rep.diagnostics["ridged_fits"] == 30


def test_mise_noiseless_affine_is_zero_everywhere():
    base = BaselineConfig(f=affine_function(), sigma2=0.0, n=300)
    curve = mise_mc(base, corr_spec(0.0, base), LpeConfig(order=1, bandwidth=0.1),
                    h_grid=[0.1, 0.2, 0.4], eval_grid=np.linspace(0.05, 0.95, 51),
                    reps=3, seed=10)
    assert np.all(curve.mise < 1e-14)
    assert curve.argmin_h == 0.4  # plateau resolves to the largest h


def test_mise_smoke_shapes_and_common_seed_reuse():
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=200)
    h_grid = [0.08, 0.16, 0.32]
    curve = mise_mc(base, corr_spec(0.01, base), LpeConfig(order=1, bandwidth=0.1),
                    h_grid=h_grid, eval_grid=np.linspace(0.05, 0.95, 41),
                    reps=2, seed=11)
    assert len(curve.rows) == len(h_grid)
    assert np.all(np.diff(curve.h) > 0)
    again = mise_mc(base, corr_spec(0.01, base), LpeConfig(order=1, bandwidth=0.1),
                    h_grid=h_grid, eval_grid=np.linspace(0.05, 0.95, 41),
                    reps=2, seed=11)
    assert np.array_equal(curve.mise, again.mise)


def test_mise_argmin_grows_with_tau():
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=400)
    h_grid = np.geomspace(0.05, 0.5, 10)
    eval_grid = np.linspace(0.05, 0.95, 61)
    lpe = LpeConfig(order=1, bandwidth=0.1)
    argmins = []
    for tau in (0.0, 0.02):
        curve = mise_mc(base, corr_spec(tau, base), lpe, h_grid, eval_grid,
                        reps=40, seed=13)
        argmins.append(curve.argmin_h)
    assert argmins[1] >= argmins[0]


def test_mise_invalid_h_scored_infinite():
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=30)
    curve = mise_mc(base, corr_spec(0.0, base), LpeConfig(order=1, bandwidth=0.1),
                    h_grid=[0.004, 0.3], eval_grid=np.linspace(0.05, 0.95, 41),
                    reps=3, seed=14)
    assert np.isinf(curve.mise[0])
    assert np.isfinite(curve.mise[1])
    assert curve.argmin_h == 0.3
    assert curve.meta["failed_h"] == [0.004]
    # the CLI and the benchmark's risk.mise_mc.failed_h counter read meta["failed_h"]
    assert set(curve.meta) == {"failed_h", "ridged_fits"}


def test_optimal_bandwidth_curve_single_cell():
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=200)
    rows = optimal_bandwidth_curve(base, LpeConfig(order=1, bandwidth=0.1), b_x=10,
                                   tau_grid=[0.01], n_grid=[200],
                                   h_grid=[0.1, 0.2, 0.4],
                                   eval_grid=np.linspace(0.05, 0.95, 31),
                                   reps=4, seed=15)
    assert len(rows) == 1
    assert rows[0]["n"] == 200 and rows[0]["tau"] == 0.01
    assert rows[0]["h_star"] in (0.1, 0.2, 0.4)
    direct = mise_mc(base, corr_spec(0.01, base), LpeConfig(order=1, bandwidth=0.1),
                     h_grid=[0.1, 0.2, 0.4], eval_grid=np.linspace(0.05, 0.95, 31),
                     reps=4, seed=15)
    curve = rows[0]["curve"]
    assert curve.argmin_h == rows[0]["h_star"] == direct.argmin_h
    assert curve.mise.tobytes() == direct.mise.tobytes()
    assert curve.se.tobytes() == direct.se.tobytes()


def _same_curve(a, b) -> bool:
    return (a.h.tobytes() == b.h.tobytes() and a.mise.tobytes() == b.mise.tobytes()
            and a.se.tobytes() == b.se.tobytes() and a.argmin_h == b.argmin_h
            and a.meta == b.meta)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(20, 300), reps=st.integers(2, 4), seed=st.integers(0, 2 ** 16),
       order=st.integers(0, 2), kernel=st.sampled_from(sorted(KERNELS)),
       tau=st.sampled_from([0.005, 0.02, 0.3]))
def test_mise_ladder_curves_equal_per_spec_curves(n, reps, seed, order, kernel, tau):
    # tau = 0, tau > 0 and a partition spec in one ladder; h = 0.004 leaves
    # grid points without support at small n, so failed h are compared too
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=n)
    specs = [corr_spec(0.0, base), corr_spec(tau, base),
             PartitionSpec(b_x=5, b_eps=8, weight_law=WeightLaw.exponential(), baseline=base)]
    lpe = LpeConfig(order=order, bandwidth=0.1, kernel=get_kernel(kernel))
    args = ([0.004, 0.15, 0.6], np.linspace(0.05, 0.95, 23), reps, seed)
    ladder = mise_ladder(base, specs, lpe, *args)
    assert len(ladder) == len(specs)
    for spec, curve in zip(specs, ladder):
        assert _same_curve(curve, mise_mc(base, spec, lpe, *args))


def test_mise_ladder_equals_a_per_replicate_substream_loop():
    # replicate r of every spec reads the start of substream(seed, "xi", r) and
    # substream(seed, "data", r); each curve is fitted here one spec and one h at a time
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=90)
    specs = [corr_spec(0.0, base), corr_spec(0.05, base),
             PartitionSpec(b_x=4, b_eps=6, weight_law=WeightLaw.exponential(), baseline=base)]
    lpe = LpeConfig(order=1, bandwidth=0.1, kernel=get_kernel("triangular"))
    h_grid, eval_grid, reps, seed = np.array([0.15, 0.4]), np.linspace(0.05, 0.95, 11), 5, 37
    truth = base.f(eval_grid)
    for spec, curve in zip(specs, mise_ladder(base, specs, lpe, h_grid, eval_grid, reps, seed)):
        table = np.empty((reps, h_grid.size))
        for r in range(reps):
            xi = draw_perturbation(spec, substream(seed, "xi", r), realization_id=f"xi{r:05d}")
            ds = sample_perturbed(spec, xi, base.n, substream(seed, "data", r))
            for k, h in enumerate(h_grid):
                fit = predict_grid(LpeConfig(order=1, bandwidth=float(h), kernel=lpe.kernel),
                                   sort_design(ds.xs, ds.ys), eval_grid)
                table[r, k] = np.mean((fit - truth) ** 2)
        assert curve.mise.tobytes() == table.mean(axis=0).tobytes()
        assert curve.se.tobytes() == (table.std(axis=0, ddof=1) / math.sqrt(reps)).tobytes()


def test_mise_ladder_rejects_empty_or_mixed_ladders():
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=50)
    other = BaselineConfig(f=sine_function(), sigma2=1.0, n=50)
    args = (LpeConfig(order=1, bandwidth=0.1), [0.2], np.linspace(0.1, 0.9, 5), 2, 0)
    with pytest.raises(ValueError, match="empty"):
        mise_ladder(base, [], *args)
    with pytest.raises(ValueError, match="baseline"):
        mise_ladder(base, [corr_spec(0.0, base), corr_spec(0.01, other)], *args)


_SINE = BaselineConfig(f=sine_function(), sigma2=0.5, n=50)
_ZERO = BaselineConfig(f=zero_function(), sigma2=0.5, n=50)
_BOTH_BASELINES = f"base {_SINE!r} differs from spec.baseline {_ZERO!r}"


def test_pointwise_risk_refuses_a_spec_around_another_baseline():
    # the data would follow the zero function while bias2 is taken against the sine
    with pytest.raises(ValueError, match=re.escape(_BOTH_BASELINES)):
        pointwise_risk_mc(_SINE, corr_spec(0.01, _ZERO), LpeConfig(order=1, bandwidth=0.2),
                          x0=0.3, reps_xi=2, reps_data=2, seed=0)
    with pytest.raises(ValueError, match=re.escape(_BOTH_BASELINES)):
        mise_mc(_SINE, corr_spec(0.01, _ZERO), LpeConfig(order=1, bandwidth=0.2), [0.2],
                np.linspace(0.1, 0.9, 5), 2, 0)


def test_weight_oracle_refuses_a_spec_around_another_baseline():
    other_sigma2 = BaselineConfig(f=sine_function(), sigma2=2.0, n=50)
    with pytest.raises(ValueError, match="differs from spec.baseline"):
        dist_var_weight_oracle(_SINE, corr_spec(0.01, other_sigma2),
                               LpeConfig(order=1, bandwidth=0.2), 0.5, 2, 0)


def test_mise_ladder_refuses_specs_that_agree_with_each_other_but_not_with_base():
    with pytest.raises(ValueError, match=re.escape(_BOTH_BASELINES)):
        mise_ladder(_SINE, [corr_spec(0.0, _ZERO), corr_spec(0.01, _ZERO)],
                    LpeConfig(order=1, bandwidth=0.1), [0.2], np.linspace(0.1, 0.9, 5), 2, 0)


def test_mise_ridged_fits_counted_per_h(monkeypatch):
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=200)
    specs = [corr_spec(0.0, base), corr_spec(0.01, base)]
    eval_grid = np.linspace(0.05, 0.95, 31)
    ordinary = mise_ladder(base, specs, LpeConfig(order=1, bandwidth=0.1), [0.1, 0.3],
                           eval_grid, reps=3, seed=24)
    assert [c.meta["ridged_fits"] for c in ordinary] == [[0, 0], [0, 0]]

    def on_lattice(spec, xi, n, rng):
        # x on a 0.05 lattice: a window of half-width 0.06 holds at most three
        # distinct x values, too few for a cubic, so every fit at h = 0.06 is
        # ridged, and none at h = 0.3
        ds = sample_perturbed(spec, xi, n, rng)
        ds.xs = np.round(ds.xs * 20.0) / 20.0
        return ds

    monkeypatch.setattr(risk, "sample_perturbed", on_lattice)
    curves = mise_ladder(base, specs, LpeConfig(order=3, bandwidth=0.1), [0.06, 0.3],
                         eval_grid, reps=3, seed=24)
    assert [c.meta["ridged_fits"] for c in curves] == [[3 * 31, 0], [3 * 31, 0]]
    assert all(c.meta["failed_h"] == [] for c in curves)


def test_optimal_bandwidth_curve_rows_equal_per_cell_curves():
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=100)
    lpe = LpeConfig(order=1, bandwidth=0.1)
    args = ([0.1, 0.2, 0.4], np.linspace(0.05, 0.95, 21), 3, 16)
    rows = optimal_bandwidth_curve(base, lpe, 10, [0.0, 0.01], [100, 150], *args)
    assert [(r["tau"], r["n"]) for r in rows] == [(0.0, 100), (0.0, 150),
                                                  (0.01, 100), (0.01, 150)]
    for r in rows:
        cell = BaselineConfig(f=base.f, sigma2=base.sigma2, n=r["n"])
        direct = mise_mc(cell, corr_spec(r["tau"], cell), lpe, *args)
        assert _same_curve(r["curve"], direct)
        assert r["h_star"] == direct.argmin_h


def test_optimal_bandwidth_curve_checks_every_tau_before_fitting(monkeypatch):
    def no_fits(*args, **kwargs):
        raise AssertionError("predict_grid called before the tau ladder was checked")

    monkeypatch.setattr(risk, "predict_grid", no_fits)
    base = BaselineConfig(f=sine_function(), sigma2=0.5, n=100)
    for tau_grid in ([0.0, -1.0], [0.01, float("nan")]):
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            optimal_bandwidth_curve(base, LpeConfig(order=1, bandwidth=0.1), 10, tau_grid,
                                    [2000, 4000], [0.1, 0.2], np.linspace(0.1, 0.9, 11),
                                    reps=2, seed=0)


def test_rate_fit_exact_line_and_errors():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    slope, intercept, r2 = rate_fit(xs, -0.8 * xs + 1.0)
    assert slope == pytest.approx(-0.8, abs=1e-12)
    assert intercept == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        rate_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        rate_fit([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


_LPE = LpeConfig(order=1, bandwidth=0.2)
_GRID = np.linspace(0.1, 0.9, 5)


@pytest.mark.parametrize("run, message", [
    (lambda: pointwise_risk_mc(_SINE, corr_spec(0.01, _SINE), _LPE, 0.5, 1, 3, seed=0),
     "need reps_xi >= 2 and reps_data >= 2"),
    (lambda: pointwise_risk_mc(_SINE, corr_spec(0.01, _SINE), _LPE, 0.5, 3, 1, seed=0),
     "need reps_xi >= 2 and reps_data >= 2"),
    (lambda: dist_var_weight_oracle(_SINE, corr_spec(0.01, _SINE), _LPE, 0.5, 1, seed=0),
     "reps must be at least 2"),
    (lambda: mise_ladder(_SINE, [corr_spec(0.01, _SINE)], _LPE, [0.2], _GRID, 1, 0),
     "reps must be at least 2"),
    (lambda: mise_ladder(_SINE, [corr_spec(0.01, _SINE)], _LPE, [], _GRID, 2, 0),
     "h_grid and eval_grid must be nonempty"),
    (lambda: mise_ladder(_SINE, [corr_spec(0.01, _SINE)], _LPE, [0.2], [], 2, 0),
     "h_grid and eval_grid must be nonempty"),
], ids=["risk-reps-xi-1", "risk-reps-data-1", "oracle-reps-1", "ladder-reps-1",
        "ladder-empty-h-grid", "ladder-empty-eval-grid"])
def test_monte_carlo_routines_refuse_too_few_reps_or_an_empty_grid(run, message):
    with pytest.raises(ValueError, match=message):
        run()


def test_optimal_bandwidth_curve_of_an_empty_tau_grid_is_empty():
    assert optimal_bandwidth_curve(_SINE, _LPE, b_x=10, tau_grid=[], n_grid=[50],
                                   h_grid=[0.2], eval_grid=_GRID, reps=2, seed=0) == []
