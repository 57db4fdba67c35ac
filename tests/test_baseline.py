import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from rupsim import (BaselineConfig, BlockCovariance, Dataset, RegressionFunction,
                    TwoPointConstruction, WeightLaw, get_function, sample_baseline,
                    sine_function, substream, zero_function)


def test_zero_function_zero_noise():
    cfg = BaselineConfig(f=zero_function(), sigma2=0.0, n=3)
    ds = sample_baseline(cfg, substream(0, "t"))
    assert np.all(ds.ys == 0.0)


def test_forced_x_sine_quarter():
    cfg = BaselineConfig(f=sine_function(), sigma2=0.0, n=1)
    ds = sample_baseline(cfg, substream(0, "t"), xs=np.array([0.25]))
    assert ds.ys[0] == pytest.approx(1.0, abs=1e-12)


def test_sine_closed_form_values():
    f = sine_function()
    assert f(0.5) == pytest.approx(0.0, abs=1e-12)
    assert f(0.125) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


def test_eval_rejects_out_of_domain():
    f = sine_function()
    with pytest.raises(ValueError):
        f(1.2)
    with pytest.raises(ValueError):
        f(np.array([0.3, -0.1]))


def test_eval_rejects_nan():
    f = sine_function()
    for bad in (np.array([0.5, np.nan]), np.array([np.nan]), np.nan):
        with pytest.raises(ValueError, match=r"x outside the domain \[0, 1\]"):
            f(bad)
    assert f(np.array([0.0, 1.0])).shape == (2,)
    assert f(np.array([])).shape == (0,)


def test_dataset_rejects_x_outside_unit_interval_and_nan():
    for bad in ([0.2, -0.1], [0.2, 1.5], [0.2, np.nan], [np.nan]):
        with pytest.raises(ValueError, match=r"xs must lie in \[0, 1\]"):
            Dataset(xs=np.array(bad), ys=np.zeros(len(bad)))
    assert len(Dataset(xs=np.array([0.0, 1.0]), ys=np.zeros(2))) == 2


def test_gaussian_variance_moment_check():
    cfg = BaselineConfig(f=zero_function(), sigma2=1.0, n=100_000)
    ds = sample_baseline(cfg, substream(11, "mc"))
    assert 0.97 <= np.var(ds.ys) <= 1.03


def test_noise_moments_within_3se():
    sigma2 = 2.5
    n = 50_000
    cfg = BaselineConfig(f=sine_function(), sigma2=sigma2, n=n)
    ds = sample_baseline(cfg, substream(3, "mc"))
    eps = ds.ys - cfg.f(ds.xs)
    se_mean = math.sqrt(sigma2 / n)
    assert abs(eps.mean()) <= 3 * se_mean
    se_var = sigma2 * math.sqrt(2.0 / (n - 1))
    assert abs(np.var(eps, ddof=1) - sigma2) <= 3 * se_var


def test_x_marginal_ks_uniform():
    cfg = BaselineConfig(f=zero_function(), sigma2=1.0, n=100_000)
    ds = sample_baseline(cfg, substream(5, "ks"))
    stat = stats.kstest(ds.xs, "uniform").statistic
    assert stat < 0.01


def test_reproducible_given_stream():
    cfg = BaselineConfig(f=sine_function(), sigma2=0.3, n=1000)
    a = sample_baseline(cfg, substream(42, "rep"))
    b = sample_baseline(cfg, substream(42, "rep"))
    c = sample_baseline(cfg, substream(43, "rep"))
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert not np.array_equal(a.ys, c.ys)


HOLDER_STEP = 1e-3  # grid step of the finite-difference Holder check


def holder_margin(f: RegressionFunction) -> float:
    """Worst slack of the finite-difference Holder inequality on a grid of step HOLDER_STEP.

    Returns max over grid pairs of |d^l f(x) - d^l f(x')| - L |x - x'|^(beta-l)
    with l = ceil(beta) - 1, the order of the derivative the certificate
    constrains; nonpositive means the certificate holds on the grid (up to
    finite-difference error).
    """
    degree = math.ceil(f.beta) - 1
    grid = np.arange(0.0, 1.0 + HOLDER_STEP / 2, HOLDER_STEP)
    vals = f(grid)
    for _ in range(degree):
        vals = np.gradient(vals, HOLDER_STEP)
    diff = np.abs(vals[:, None] - vals[None, :])
    dist = np.abs(grid[:, None] - grid[None, :])
    np.fill_diagonal(dist, 1.0)  # x == x' reads diff 0 against -L, so it never sets the max
    return float(np.max(diff - f.holder_const * dist ** (f.beta - degree)))


def test_holder_certificates_hold_on_grid():
    assert holder_margin(zero_function()) <= 0.0
    assert holder_margin(sine_function()) <= 1e-6
    assert holder_margin(sine_function(beta=1.0)) <= 0.0  # degree 0: f itself is Lipschitz


def test_holder_margin_is_positive_for_a_certificate_below_the_true_constant():
    # sin(2 pi x) has Lipschitz constant 2 pi = 6.283, and f' = 2 pi cos(2 pi x)
    # has 4 pi^2 = 39.5; a grid of step 1e-3 sees almost all of either
    assert holder_margin(sine_function(beta=1.0, holder_const=6.0)) > 0.0
    assert holder_margin(sine_function(beta=1.0, holder_const=6.3)) <= 0.0
    assert holder_margin(replace(sine_function(), holder_const=1.0)) > 0.0


def test_equality_follows_name_and_certificate():
    assert sine_function() == sine_function()  # two closures, one function
    assert sine_function() != sine_function(beta=3.0)
    assert zero_function() != sine_function()
    assert (RegressionFunction("hand", beta=2.0, holder_const=1.0, _fn=np.cos)
            == RegressionFunction("hand", beta=2.0, holder_const=1.0, _fn=np.sin))
    assert len({sine_function(), sine_function(), zero_function()}) == 2


def test_catalog_lookup():
    assert get_function("zero").name == "zero"
    assert get_function("sine").name == "sine"
    with pytest.raises(KeyError):
        get_function("nope")


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(f=zero_function(), sigma2=-1.0, n=10)
    with pytest.raises(ValueError):
        BaselineConfig(f=zero_function(), sigma2=1.0, n=0)
    with pytest.raises(ValueError):
        RegressionFunction("bad", beta=0.0, holder_const=1.0, _fn=lambda x: x)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(xs=np.array([0.1, 0.2]), ys=np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(xs=np.array([0.1, 1.2]), ys=np.array([0.0, 0.0]))
    ds = Dataset(xs=np.array([0.1]), ys=np.array([2.0]), bucket_ids=np.array([0]))
    assert len(ds) == 1


@pytest.mark.parametrize("make, message", [
    (lambda: RegressionFunction("bad", beta=1.0, holder_const=0.0, _fn=lambda x: x),
     "holder_const must be positive"),
    (lambda: RegressionFunction("bad", beta=1.0, holder_const=-1.0, _fn=lambda x: x),
     "holder_const must be positive"),
    (lambda: Dataset(xs=np.array([0.1, 0.2]), ys=np.zeros(2), bucket_ids=np.array([0])),
     "bucket_ids must match xs in length"),
    (lambda: sample_baseline(BaselineConfig(f=zero_function(), sigma2=1.0, n=3),
                             substream(1, "forced"), xs=np.array([0.1, 0.2])),
     "forced xs must have length config.n"),
], ids=["holder-const-0", "holder-const-negative", "bucket-ids-too-short",
        "forced-xs-too-short"])
def test_invalid_arguments_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def _hand_built(beta=1.0, holder_const=1.0):
    return RegressionFunction("hand", beta=beta, holder_const=holder_const, _fn=np.cos)


@pytest.mark.parametrize("make, message", [
    (lambda: BaselineConfig(f=zero_function(), sigma2=math.nan, n=3),
     "sigma2 must be nonnegative"),
    (lambda: BaselineConfig(f=zero_function(), sigma2=math.inf, n=3),
     "sigma2 must be nonnegative"),
    (lambda: _hand_built(beta=math.nan), "beta must be positive"),
    (lambda: _hand_built(holder_const=math.nan), "holder_const must be positive"),
    (lambda: WeightLaw("lognormal", log_sd=math.nan), "lognormal log_sd must be positive"),
    (lambda: WeightLaw.lognormal_with_ratio(math.nan), "var_over_mean_sq must be positive"),
    (lambda: TwoPointConstruction(x0=0.5, h=math.nan, beta=1.0, holder_const=1.0),
     "h, beta and holder_const must be positive"),
    (lambda: TwoPointConstruction(x0=2.0, h=0.1, beta=1.0, holder_const=1.0),
     r"x0 must lie in \[0, 1\]"),
    (lambda: TwoPointConstruction(x0=math.nan, h=0.1, beta=1.0, holder_const=1.0),
     r"x0 must lie in \[0, 1\]"),
    (lambda: BlockCovariance(np.array([0, 0, 1]), sigma2=math.nan, delta2=0.5),
     "sigma2 must be positive"),
    (lambda: BlockCovariance(np.array([0, 0, 1]), sigma2=math.inf, delta2=0.5),
     "sigma2 must be positive"),
    (lambda: BlockCovariance(np.array([0, 0, 1]), sigma2=1.0, delta2=math.nan),
     "delta2 must be nonnegative"),
], ids=["baseline-sigma2-nan", "baseline-sigma2-inf", "beta-nan", "holder-const-nan",
        "log-sd-nan", "ratio-nan", "two-point-h-nan", "two-point-x0-2", "two-point-x0-nan",
        "block-sigma2-nan", "block-sigma2-inf", "block-delta2-nan"])
def test_constructors_refuse_nan_and_infinities(make, message):
    with pytest.raises(ValueError, match=message):
        make()
