import math

import numpy as np
import pytest

from rupsim import (BaselineConfig, CorrelatedNoiseSpec, Dataset, LpeConfig,
                    NeedsMultipleDomains, domain_cv_bandwidth, draw_perturbation,
                    effective_sample_size, estimate_tau_from_summaries,
                    naive_cv_bandwidth, oracle_bandwidth, predict_grid,
                    sample_baseline, sample_perturbed, sine_function, substream,
                    within_bucket_noise_variance, zero_function)
from rupsim.bandwidth import EVAL_WINDOW, _cv_scores, argmin_prefer_larger


def simulate_suite(tau, n_per, j, seed, sigma2=0.25, b_x=10, f=None):
    """j realization-tagged datasets from the correlated noise model."""
    base = BaselineConfig(f=f or sine_function(), sigma2=sigma2, n=n_per)
    spec = CorrelatedNoiseSpec(b_x=b_x, delta2=tau * b_x, baseline=base)
    out = []
    for r in range(j):
        xi = draw_perturbation(spec, substream(seed, "xi", r), realization_id=f"xi{r:05d}")
        out.append(sample_perturbed(spec, xi, n_per, substream(seed, "data", r)))
    return out


# ----------------------------------------------------------- n_eff and oracle h

def test_effective_sample_size_values():
    assert effective_sample_size(100, 0.0).n_eff == 100.0
    assert effective_sample_size(100, 0.01).n_eff == pytest.approx(50.0)
    big = effective_sample_size(10 ** 6, 0.1).n_eff
    assert big == pytest.approx(9.9999, rel=1e-4)
    assert big <= 1.0 / 0.1


def test_effective_sample_size_identity_and_monotonicity():
    rng = substream(0, "neff")
    ns = rng.integers(1, 10 ** 9, size=2000)
    taus = rng.random(2000)
    for n, tau in zip(ns, taus):
        res = effective_sample_size(int(n), float(tau))
        assert abs(res.n_eff * (1.0 + n * tau) - n) <= 1e-12 * n
    assert effective_sample_size(500, 0.02).n_eff < effective_sample_size(500, 0.01).n_eff
    assert effective_sample_size(1000, 0.01).n_eff > effective_sample_size(500, 0.01).n_eff


def test_oracle_bandwidth_closed_form():
    assert oracle_bandwidth(100, 0.0, 2.0) == pytest.approx(100 ** -0.2, rel=1e-12)
    val = oracle_bandwidth(100, 0.01, 2.0)
    assert val == pytest.approx(math.exp(math.log(0.02) / 5.0), rel=1e-12)
    assert val == pytest.approx(0.45730, abs=1e-5)


def test_oracle_bandwidth_large_n_limit():
    # tau fixed, n -> infinity: the rule flattens to tau^(1/(2beta+1))
    tau, beta = 0.03, 2.0
    assert oracle_bandwidth(10 ** 12, tau, beta) == pytest.approx(tau ** 0.2, rel=1e-9)


def test_oracle_bandwidth_monotonicity_and_flattening():
    assert oracle_bandwidth(1000, 0.02, 2.0) > oracle_bandwidth(1000, 0.01, 2.0)
    assert oracle_bandwidth(2000, 0.01, 2.0) < oracle_bandwidth(1000, 0.01, 2.0)
    # tau = 0: tenfold n moves h by exactly 10^(1/5)
    ratio0 = oracle_bandwidth(1000, 0.0, 2.0) / oracle_bandwidth(10_000, 0.0, 2.0)
    assert ratio0 == pytest.approx(10 ** 0.2, rel=1e-12)
    # tau > 0 and n*tau large: the same tenfold step no longer moves h
    ratio1 = oracle_bandwidth(10 ** 7, 0.05, 2.0) / oracle_bandwidth(10 ** 8, 0.05, 2.0)
    assert ratio1 == pytest.approx(1.0, abs=1e-6)


def test_oracle_bandwidth_validation():
    with pytest.raises(ValueError):
        oracle_bandwidth(100, 0.1, 0.0)


# --------------------------------------------------------------------- argmin

def test_argmin_prefer_larger():
    h = np.array([0.1, 0.2, 0.3])
    assert argmin_prefer_larger(h, np.array([3.0, 1.0, 2.0])) == 0.2
    assert argmin_prefer_larger(h, np.array([1e-17, 3e-17, 2e-17])) == 0.3  # plateau
    assert argmin_prefer_larger(h, np.array([np.inf, 5.0, np.inf])) == 0.2
    with pytest.raises(ValueError):
        argmin_prefer_larger(h, np.full(3, np.inf))


# ------------------------------------------------------------------ domain CV

def test_domain_cv_needs_two_realizations():
    suite = simulate_suite(0.0, 100, 1, seed=1)
    with pytest.raises(NeedsMultipleDomains):
        domain_cv_bandwidth(suite, [0.1, 0.2], LpeConfig(order=1, bandwidth=0.1))


def test_domain_cv_requires_tags():
    ds = sample_baseline(BaselineConfig(f=sine_function(), sigma2=0.1, n=50), substream(2, "d"))
    with pytest.raises(ValueError):
        domain_cv_bandwidth([ds, ds], [0.1], LpeConfig(order=1, bandwidth=0.1))


def test_domain_cv_singleton_grid():
    suite = simulate_suite(0.0, 120, 3, seed=3)
    sel = domain_cv_bandwidth(suite, [0.17], LpeConfig(order=1, bandwidth=0.17))
    assert sel.h_star == 0.17
    assert len(sel.diagnostics) == 1


def test_domain_cv_matches_naive_cv_without_shift():
    # identical-law realizations at tau=0: both methods see only sampling noise
    h_grid = np.geomspace(0.04, 0.45, 8)
    lpe = LpeConfig(order=1, bandwidth=0.1)
    suite = simulate_suite(0.0, 250, 4, seed=4)
    dom = domain_cv_bandwidth(suite, h_grid, lpe)
    pooled = Dataset(xs=np.concatenate([d.xs for d in suite]),
                     ys=np.concatenate([d.ys for d in suite]))
    nai = naive_cv_bandwidth(pooled, h_grid, lpe, folds=4, seed=4)
    i_dom = np.argmin(np.abs(h_grid - dom.h_star))
    i_nai = np.argmin(np.abs(h_grid - nai.h_star))
    assert abs(int(i_dom) - int(i_nai)) <= 1


def test_domain_cv_prefers_larger_h_under_shift():
    h_grid = np.geomspace(0.04, 0.5, 8)
    lpe = LpeConfig(order=1, bandwidth=0.1)
    wins = 0
    reps = 12
    for r in range(reps):
        sel0 = domain_cv_bandwidth(simulate_suite(0.0, 200, 4, seed=100 + r), h_grid, lpe)
        sel1 = domain_cv_bandwidth(simulate_suite(0.01, 200, 4, seed=100 + r), h_grid, lpe)
        wins += sel1.h_star >= sel0.h_star
    assert wins >= 0.9 * reps


def test_naive_cv_underfits_relative_to_domain_cv():
    h_grid = np.geomspace(0.04, 0.5, 8)
    lpe = LpeConfig(order=1, bandwidth=0.1)
    wins = 0
    reps = 12
    for r in range(reps):
        suite = simulate_suite(0.05, 200, 4, seed=300 + r)
        dom = domain_cv_bandwidth(suite, h_grid, lpe)
        pooled = Dataset(xs=np.concatenate([d.xs for d in suite]),
                         ys=np.concatenate([d.ys for d in suite]))
        nai = naive_cv_bandwidth(pooled, h_grid, lpe, folds=4, seed=300 + r)
        wins += nai.h_star <= dom.h_star
    assert wins >= 0.8 * reps


def test_naive_cv_noiseless_affine_picks_largest_h():
    rng = substream(6, "aff")
    xs = rng.random(300)
    ds = Dataset(xs=xs, ys=0.3 + 1.1 * xs)
    sel = naive_cv_bandwidth(ds, [0.1, 0.2, 0.4], LpeConfig(order=1, bandwidth=0.1), folds=5)
    assert sel.h_star == 0.4


def test_naive_cv_fold_validation():
    ds = sample_baseline(BaselineConfig(f=sine_function(), sigma2=0.1, n=30), substream(7, "d"))
    lpe = LpeConfig(order=1, bandwidth=0.2)
    with pytest.raises(ValueError):
        naive_cv_bandwidth(ds, [0.2], lpe, folds=1)
    with pytest.raises(ValueError):
        naive_cv_bandwidth(ds, [0.2], lpe, folds=31)


def test_domain_cv_score_unbiased_against_direct_risk():
    # tau = 0: the CV score estimates interior prediction MSE + noise floor
    h = 0.15
    sigma2 = 0.25
    n_per, j = 150, 3
    lpe = LpeConfig(order=1, bandwidth=h)
    f = sine_function()
    window = np.linspace(0.05, 0.95, 101)

    cv_scores = []
    for r in range(40):
        sel = domain_cv_bandwidth(simulate_suite(0.0, n_per, j, seed=500 + r,
                                                 sigma2=sigma2), [h], lpe)
        cv_scores.append(sel.diagnostics[0][1])
    cv_scores = np.array(cv_scores)

    direct = []
    base = BaselineConfig(f=f, sigma2=sigma2, n=n_per * (j - 1))
    for r in range(60):
        train = sample_baseline(base, substream(77, "direct", r))
        preds = predict_grid(lpe, train, window)
        direct.append(np.mean((preds - f(window)) ** 2) + sigma2)
    direct = np.array(direct)

    gap = cv_scores.mean() - direct.mean()
    se = math.sqrt(cv_scores.var(ddof=1) / cv_scores.size + direct.var(ddof=1) / direct.size)
    assert abs(gap) <= 3 * se


# ------------------------------------------------------------- tau estimation

def test_estimate_tau_constant_theta_is_zero():
    assert estimate_tau_from_summaries(np.full(50, 1.23), 10_000, 1.0) == 0.0


def test_estimate_tau_clamps_below_sampling_floor():
    theta = np.array([0.0, 1e-6, -1e-6, 5e-7])
    assert estimate_tau_from_summaries(theta, 10, 1.0) == 0.0


def test_estimate_tau_validation():
    with pytest.raises(ValueError):
        estimate_tau_from_summaries([1.0], 10, 1.0)
    with pytest.raises(ValueError):
        estimate_tau_from_summaries([1.0, 2.0], 10, 0.0)


@pytest.mark.parametrize("theta, sigma2_hat, message", [
    ([0.1, 0.2, 0.3], math.nan, "sigma2_hat must be positive and finite"),
    ([0.1, 0.2, 0.3], math.inf, "sigma2_hat must be positive and finite"),
    ([0.1, 0.2, 0.3], -math.inf, "sigma2_hat must be positive and finite"),
    ([0.1, math.inf, 0.3], 1.0, "theta must be finite"),
    ([0.1, math.nan, 0.3], 1.0, "theta must be finite"),
    ([-math.inf, 0.2, 0.3], 1.0, "theta must be finite"),
], ids=["sigma2-nan", "sigma2-inf", "sigma2-minus-inf", "theta-inf", "theta-nan",
        "theta-minus-inf"])
def test_estimate_tau_refuses_non_finite_inputs(theta, sigma2_hat, message):
    # these once came back as tau_hat = 0, "no perturbation"
    with pytest.raises(ValueError, match=message):
        estimate_tau_from_summaries(theta, 10, sigma2_hat)


@pytest.mark.parametrize("tau", [math.nan, -math.inf, -0.1])
def test_effective_sample_size_and_oracle_bandwidth_refuse_a_nan_or_negative_tau(tau):
    with pytest.raises(ValueError, match="tau must be nonnegative"):
        effective_sample_size(10, tau)
    with pytest.raises(ValueError, match="tau >= 0"):
        oracle_bandwidth(10, tau, 2.0)


def test_oracle_bandwidth_refuses_a_nan_beta():
    with pytest.raises(ValueError, match="beta must be positive"):
        oracle_bandwidth(10, 0.1, math.nan)


def test_estimate_tau_end_to_end():
    tau, n, j = 0.025, 1000, 400
    base = BaselineConfig(f=zero_function(), sigma2=1.0, n=n)
    spec = CorrelatedNoiseSpec(b_x=10, delta2=tau * 10, baseline=base)
    theta = np.empty(j)
    sig = np.empty(j)
    for r in range(j):
        xi = draw_perturbation(spec, substream(8, "xi", r))
        ds = sample_perturbed(spec, xi, n, substream(8, "data", r))
        theta[r] = ds.ys.mean()
        sig[r] = within_bucket_noise_variance(ds.ys, ds.bucket_ids)
    tau_hat = estimate_tau_from_summaries(theta, n, float(sig.mean()))
    assert abs(tau_hat - tau) <= 0.4 * tau


def test_within_bucket_noise_variance_removes_shift():
    base = BaselineConfig(f=zero_function(), sigma2=2.0, n=5000)
    spec = CorrelatedNoiseSpec(b_x=10, delta2=1.0, baseline=base)
    xi = draw_perturbation(spec, substream(9, "xi"))
    ds = sample_perturbed(spec, xi, 5000, substream(9, "data"))
    est = within_bucket_noise_variance(ds.ys, ds.bucket_ids)
    naive = float(np.var(ds.ys, ddof=1))
    assert abs(est - 2.0) <= 0.15
    assert naive > est  # the raw variance is inflated by the shifts


def test_stacked_within_bucket_noise_variance_equals_row_calls():
    rng = substream(12, "stack")
    for trial in range(300):
        depth, b_x = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        n = b_x + int(rng.integers(1, 200))
        ys = rng.normal(size=(depth, n)) * 10.0 ** rng.uniform(-3, 3)
        ids = rng.integers(0, b_x, size=(depth, n))
        if trial % 2:  # empty buckets, in the middle of a row and at its end
            ids[0][ids[0] == b_x // 2] = 0
            ids[-1][ids[-1] == b_x - 1] = 0
        rows = [within_bucket_noise_variance(y, b) for y, b in zip(ys, ids)]
        stacked = within_bucket_noise_variance(ys, ids)
        assert stacked.shape == (depth,)
        assert np.array_equal(stacked, rows)
    with pytest.raises(ValueError, match="not enough points"):
        within_bucket_noise_variance(np.zeros((2, 3)), np.array([[0, 0, 1], [0, 1, 2]]))
    with pytest.raises(ValueError, match="nonnegative"):
        within_bucket_noise_variance(np.zeros((2, 3)), np.array([[0, 0, 1], [0, -1, 1]]))


def test_effective_sample_size_and_tau_estimate_refuse_n_below_one():
    with pytest.raises(ValueError, match="n must be at least 1"):
        effective_sample_size(0, 0.1)
    with pytest.raises(ValueError, match="n_per must be at least 1"):
        estimate_tau_from_summaries([0.1, 0.2], 0, 1.0)


def test_cv_scores_without_held_out_points_in_the_window_are_infinite():
    train = Dataset(xs=np.linspace(0.0, 1.0, 50), ys=np.zeros(50))
    test_xs = np.array([EVAL_WINDOW[0] / 2, (1.0 + EVAL_WINDOW[1]) / 2])
    scores = _cv_scores(train, test_xs, np.ones(2), np.array([0.1, 0.5]),
                        LpeConfig(order=1, bandwidth=0.1))
    assert np.array_equal(scores, [np.inf, np.inf])


def test_cv_scores_skip_an_h_that_leaves_a_held_out_point_unsupported():
    # training points lie in [0.1, 0.3]; at h = 0.05 the held-out x = 0.6 has no support
    train = Dataset(xs=np.linspace(0.1, 0.3, 40), ys=np.ones(40))
    scores = _cv_scores(train, np.array([0.2, 0.6]), np.array([1.0, 3.0]),
                        np.array([0.05, 0.6]), LpeConfig(order=0, bandwidth=0.1))
    assert scores[0] == np.inf
    assert scores[1] == pytest.approx(2.0)  # the fit is 1 everywhere: (0 + 4) / 2


def test_within_bucket_noise_variance_refuses_mismatched_shapes():
    with pytest.raises(ValueError, match="same length"):
        within_bucket_noise_variance(np.zeros(4), np.array([0, 0, 1]))
    with pytest.raises(ValueError, match="same length"):
        within_bucket_noise_variance(np.zeros((2, 3)), np.zeros(6, dtype=np.int64))


def test_within_bucket_noise_variance_treats_bucket_ids_as_labels():
    ys = [0.5, -0.5, 1.0, 0.0]
    for ids in ([0, 0, 1, 1], [0, 0, 10 ** 15, 10 ** 15], [7, 7, 2 ** 63 - 1, 2 ** 63 - 1]):
        assert within_bucket_noise_variance(ys, ids) == 0.5
    # a stack whose ids are spread far apart row by row gives the bits of dense ids
    rng = substream(13, "labels")
    dense = rng.integers(0, 30, size=(5, 40))
    spread = dense * 10 ** 15 + 7 + np.arange(5)[:, None]
    ys = rng.normal(size=(5, 40))
    expected = within_bucket_noise_variance(ys, dense)
    assert np.array_equal(within_bucket_noise_variance(ys, spread), expected)
    assert [within_bucket_noise_variance(y, b) for y, b in zip(ys, spread)] == expected.tolist()
