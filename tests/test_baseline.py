import math

import numpy as np
import pytest
from scipy import stats

from rupsim import (BaselineConfig, Dataset, RegressionFunction, bump_function,
                    get_function, holder_margin, sample_baseline, sine_function,
                    substream, zero_function)


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


def test_holder_certificates_hold_on_grid():
    assert holder_margin(zero_function()) <= 0.0
    assert holder_margin(sine_function()) <= 1e-6
    bump = bump_function(center=0.5, width=0.2, beta=1.0, holder_const=1.0)
    assert holder_margin(bump) <= 1e-6
    bump2 = bump_function(center=0.4, width=0.3, beta=2.0, holder_const=2.0)
    assert holder_margin(bump2) <= 1e-6


def test_equality_follows_name_certificate_and_params():
    assert sine_function() == sine_function()  # two closures, one function
    assert sine_function() != sine_function(beta=3.0)
    assert zero_function() != sine_function()
    bump = bump_function(center=0.5, width=0.2, beta=2.0, holder_const=1.0)
    assert bump == bump_function(center=0.5, width=0.2, beta=2.0, holder_const=1.0)
    assert bump != bump_function(center=0.4, width=0.2, beta=2.0, holder_const=1.0)
    assert bump != bump_function(center=0.5, width=0.3, beta=2.0, holder_const=1.0)
    assert len({sine_function(), sine_function(), bump}) == 2


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
    (lambda: bump_function(center=0.5, width=0.0, beta=1.0, holder_const=1.0),
     "width must be positive"),
    (lambda: bump_function(center=0.5, width=-0.1, beta=1.0, holder_const=1.0),
     "width must be positive"),
    (lambda: Dataset(xs=np.array([0.1, 0.2]), ys=np.zeros(2), bucket_ids=np.array([0])),
     "bucket_ids must match xs in length"),
    (lambda: sample_baseline(BaselineConfig(f=zero_function(), sigma2=1.0, n=3),
                             substream(1, "forced"), xs=np.array([0.1, 0.2])),
     "forced xs must have length config.n"),
], ids=["holder-const-0", "holder-const-negative", "bump-width-0", "bump-width-negative",
        "bucket-ids-too-short", "forced-xs-too-short"])
def test_invalid_arguments_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()
