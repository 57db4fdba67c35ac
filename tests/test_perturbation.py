import json
import math
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

import rupsim
from rupsim.perturbation import _bisect_rows, _cached_bin_means, _ndtri

from rupsim import (BaselineConfig, CorrelatedNoiseSpec, PartitionSpec,
                    PerturbationRealization, RegressionFunction, WeightLaw, bucket_of,
                    delta_at, delta_variance_mc, draw_perturbation,
                    kl_to_baseline_partition, load_realization, perturbation_strength,
                    realization_from_json, realization_to_json, sample_perturbed,
                    save_realization, sine_function, substream, zero_function)

BASE = BaselineConfig(f=zero_function(), sigma2=1.0, n=1000)


def make_partition_xi(weights, sigma2=1.0, law=None, n=1000):
    """Hand-built partition realization for forced-value tests."""
    weights = np.asarray(weights, dtype=float)
    b_x, b_eps = weights.shape
    spec = PartitionSpec(b_x=b_x, b_eps=b_eps,
                         weight_law=law or WeightLaw.exponential(),
                         baseline=BaselineConfig(f=zero_function(), sigma2=sigma2, n=n))
    return spec, PerturbationRealization(spec, "forced", partition_weights=weights)


def make_corr_xi(shifts, delta2=1.0, sigma2=1.0, n=1000, f=None):
    shifts = np.asarray(shifts, dtype=float)
    spec = CorrelatedNoiseSpec(b_x=shifts.size, delta2=delta2,
                               baseline=BaselineConfig(f=f or zero_function(),
                                                       sigma2=sigma2, n=n))
    return spec, PerturbationRealization(spec, "forced", bucket_shifts=shifts)


def test_bucket_map():
    assert bucket_of(0.0, 4) == 0
    assert bucket_of(0.30, 4) == 1
    assert bucket_of(1.0, 4) == 3  # right edge folds into the last bucket
    assert np.array_equal(bucket_of(np.array([0.05, 0.95]), 10), [0, 9])


def test_zero_variance_shifts_are_exactly_zero():
    spec = CorrelatedNoiseSpec(b_x=4, delta2=0.0, baseline=BASE)
    xi = draw_perturbation(spec, substream(0, "xi"))
    assert np.all(xi.bucket_shifts == 0.0)


def test_partition_row_normalization_identity():
    spec = PartitionSpec(b_x=3, b_eps=7, weight_law=WeightLaw.exponential(), baseline=BASE)
    for r in range(50):
        xi = draw_perturbation(spec, substream(1, "xi", r))
        assert np.all(np.abs(xi.normalized_weights.mean(axis=1) - 1.0) <= 1e-12)


def test_partition_two_bin_row_averages_to_one():
    spec = PartitionSpec(b_x=1, b_eps=2, weight_law=WeightLaw.exponential(), baseline=BASE)
    xi = draw_perturbation(spec, substream(2, "xi"))
    assert xi.normalized_weights.shape == (1, 2)
    assert xi.normalized_weights.mean() == pytest.approx(1.0, abs=1e-12)


def test_gaussian_bin_means_half_normal():
    m = _cached_bin_means(1.0, 2)
    expected = math.sqrt(2.0 / math.pi)
    assert m[0] == pytest.approx(-expected, abs=1e-12)
    assert m[1] == pytest.approx(expected, abs=1e-12)


def test_gaussian_bin_means_quadrature_oracle():
    sigma2, b_eps = 2.5, 5
    sigma = math.sqrt(sigma2)
    m = _cached_bin_means(sigma2, b_eps)
    edges = sigma * stats.norm.ppf(np.arange(b_eps + 1) / b_eps)
    for j in range(b_eps):
        lo = -20 * sigma if j == 0 else edges[j]
        hi = 20 * sigma if j == b_eps - 1 else edges[j + 1]
        val, _ = integrate.quad(lambda e: e * stats.norm.pdf(e, scale=sigma), lo, hi)
        assert m[j] == pytest.approx(val * b_eps, abs=1e-8)
    assert abs(m.sum()) <= 1e-9


def test_eps_bin_means_sum_to_zero_large_beps():
    m = _cached_bin_means(1.0, 50)
    assert abs(m.sum()) <= 1e-9


def test_delta_at_partition_hand_case():
    _, xi = make_partition_xi([[1.5, 0.5]])
    expected = -0.5 * math.sqrt(2.0 / math.pi)  # (1/2)(0.5*(-m) + (-0.5)*m)
    assert delta_at(xi, 0.3) == pytest.approx(expected, abs=1e-12)


def test_delta_at_correlated_noise_indexing():
    _, xi = make_corr_xi([0.1, -0.4, 0.7, 0.2])
    assert delta_at(xi, 0.30) == pytest.approx(-0.4)
    assert np.all(delta_at(make_corr_xi([0.0, 0.0])[1], np.linspace(0, 1, 11)) == 0.0)


@pytest.mark.parametrize("x", [-0.5, 1.5, math.nan, [0.2, -1e-9], [0.9, math.inf]])
def test_delta_at_refuses_x_outside_the_unit_interval(x):
    # a negative bucket index used to wrap around to the last buckets
    for _, xi in (make_corr_xi([0.1, -0.4, 0.7, 0.2]), make_partition_xi([[1.5, 0.5]] * 4)):
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
            delta_at(xi, x)


def test_delta_variance_mc_refuses_x_outside_the_unit_interval():
    spec = CorrelatedNoiseSpec(b_x=4, delta2=0.5, baseline=BASE)
    with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
        delta_variance_mc(spec, reps=3, rng=substream(1, "dv"), x=-0.3)
    assert delta_variance_mc(spec, reps=3, rng=substream(1, "dv"), x=1.0) >= 0.0


def test_shift_passes_through_without_noise():
    spec, xi = make_corr_xi([0.5, 0.0], delta2=1.0, sigma2=0.0, n=1)
    ds = sample_perturbed(spec, xi, 1, substream(0, "d"), xs=np.array([0.1]))
    assert ds.ys[0] == pytest.approx(0.5, abs=1e-15)
    assert ds.bucket_ids[0] == 0


def test_equal_weights_recover_baseline_noise():
    spec, xi = make_partition_xi(np.ones((4, 8)), sigma2=1.0, n=100_000)
    ds = sample_perturbed(spec, xi, 100_000, substream(3, "d"))
    # with all weights equal the tilt cancels: noise is exactly N(0,1)
    stat = stats.kstest(ds.ys, "norm").statistic
    assert stat < 0.01


def test_partition_noise_matches_tilted_law():
    # one bucket, two bins reweighted 1.5/0.5: P(eps < 0) should be 0.75
    spec, xi = make_partition_xi([[1.5, 0.5]], n=200_000)
    ds = sample_perturbed(spec, xi, 200_000, substream(4, "d"))
    frac_neg = np.mean(ds.ys < 0.0)
    assert abs(frac_neg - 0.75) <= 3 * math.sqrt(0.75 * 0.25 / 200_000)
    # and the realized mean matches delta_at
    se = ds.ys.std(ddof=1) / math.sqrt(len(ds))
    assert abs(ds.ys.mean() - delta_at(xi, 0.5)) <= 4 * se


def test_correlated_noise_variance_scale():
    spec = CorrelatedNoiseSpec(b_x=10, delta2=0.25, baseline=BASE)
    reps = 10_000
    deltas = np.empty(reps)
    for r in range(reps):
        xi = draw_perturbation(spec, substream(5, "xi", r))
        deltas[r] = delta_at(xi, 0.42)
    assert abs(np.var(deltas, ddof=1) - 0.25) <= 0.05 * 0.25


def test_perturbation_strength_values():
    p = perturbation_strength(PartitionSpec(b_x=5, b_eps=10,
                                            weight_law=WeightLaw.exponential(),
                                            baseline=BASE))
    assert p.delta2 == pytest.approx(0.1)
    assert p.rho_bar == pytest.approx(0.2)
    assert p.tau == pytest.approx(0.02)
    assert p.leading_order

    c = perturbation_strength(CorrelatedNoiseSpec(b_x=10, delta2=0.25, baseline=BASE))
    assert c.tau == pytest.approx(0.025)
    assert not c.leading_order
    assert c.corr_length == pytest.approx(0.1)

    z = perturbation_strength(CorrelatedNoiseSpec(b_x=7, delta2=0.0, baseline=BASE))
    assert z.tau == 0.0


def test_strength_identity_tau_equals_delta2_rho():
    for spec in (CorrelatedNoiseSpec(b_x=13, delta2=0.37, baseline=BASE),
                 PartitionSpec(b_x=4, b_eps=25, weight_law=WeightLaw.lognormal_with_ratio(2.0),
                               baseline=BASE)):
        p = perturbation_strength(spec)
        assert p.tau == p.delta2 * p.rho_bar


def test_kl_to_baseline_hand_case():
    _, xi = make_partition_xi([[1.5, 0.5]])
    expected = -(math.log(1.5) + math.log(0.5)) / 2.0
    assert kl_to_baseline_partition(xi) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.14384, abs=5e-6)


def test_kl_to_baseline_equal_weights_zero():
    _, xi = make_partition_xi(np.full((3, 5), 2.7))
    assert kl_to_baseline_partition(xi) == pytest.approx(0.0, abs=1e-12)


def test_kl_to_baseline_rejects_other_variant():
    _, xi = make_corr_xi([0.0, 0.1])
    with pytest.raises(ValueError):
        kl_to_baseline_partition(xi)


def test_kl_mc_against_fresh_simulation_oracle():
    spec = PartitionSpec(b_x=10, b_eps=100, weight_law=WeightLaw.exponential(), baseline=BASE)
    kls = [kl_to_baseline_partition(draw_perturbation(spec, substream(6, "a", r)))
           for r in range(100)]
    # same functional, brute-forced on independently drawn normalized weights
    rng = substream(7, "oracle")
    w = rng.exponential(1.0, (4000, 100))
    oracle = float(np.mean(-np.log(w / w.mean(axis=1, keepdims=True))))
    assert abs(np.mean(kls) - oracle) <= 0.1 * oracle


def test_centering_both_models():
    reps = 5000
    xs = np.linspace(0.05, 0.95, 10)
    for name, spec in (("corr", CorrelatedNoiseSpec(b_x=10, delta2=0.25, baseline=BASE)),
                       ("part", PartitionSpec(b_x=10, b_eps=20,
                                              weight_law=WeightLaw.exponential(),
                                              baseline=BASE))):
        deltas = np.empty((reps, xs.size))
        for r in range(reps):
            deltas[r] = delta_at(draw_perturbation(spec, substream(8, name, r)), xs)
        se = deltas.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(deltas.mean(axis=0)) <= 3 * se)


def test_x_dependency_block_structure():
    reps = 4000
    spec = CorrelatedNoiseSpec(b_x=10, delta2=0.25, baseline=BASE)
    pts = np.array([0.11, 0.14, 0.81])  # first two share a bucket, third does not
    deltas = np.empty((reps, 3))
    for r in range(reps):
        deltas[r] = delta_at(draw_perturbation(spec, substream(9, "xd", r)), pts)
    same = np.corrcoef(deltas[:, 0], deltas[:, 1])[0, 1]
    assert same == pytest.approx(1.0, abs=1e-12)  # identical shift within a bucket
    cross = np.cov(deltas[:, 0], deltas[:, 2], ddof=1)[0, 1]
    se_cross = math.sqrt((deltas[:, 0].var() * deltas[:, 2].var() + cross ** 2) / (reps - 1))
    assert abs(cross) <= 3 * se_cross


def test_fixed_marginal_pooled_ks():
    spec = CorrelatedNoiseSpec(b_x=10, delta2=0.25, baseline=BASE)
    pools = []
    for r in range(100):
        xi = draw_perturbation(spec, substream(10, "xi", r))
        pools.append(sample_perturbed(spec, xi, 1000, substream(10, "d", r)).xs)
    pval = stats.kstest(np.concatenate(pools), "uniform").pvalue
    assert pval >= 0.01


def test_partition_leading_order_variance_scale():
    base = BaselineConfig(f=zero_function(), sigma2=1.0, n=100)
    spec = PartitionSpec(b_x=10, b_eps=50, weight_law=WeightLaw.exponential(), baseline=base)
    lead = perturbation_strength(spec).delta2 * base.sigma2
    mc = delta_variance_mc(spec, reps=8000, rng=substream(11, "dv"), x=0.3)
    assert abs(mc - lead) <= 0.10 * lead


def test_lognormal_weight_law_ratio():
    law = WeightLaw.lognormal_with_ratio(1.0)
    assert law.var_over_mean_sq == pytest.approx(1.0, rel=1e-12)
    draws = law.sample(substream(12, "ln"), 200_000)
    ratio = draws.var(ddof=1) / draws.mean() ** 2
    assert ratio == pytest.approx(1.0, abs=0.1)


def test_sampling_is_reproducible_and_tagged():
    spec = PartitionSpec(b_x=5, b_eps=10, weight_law=WeightLaw.exponential(), baseline=BASE)
    xi = draw_perturbation(spec, substream(13, "xi"), realization_id="xi00042")
    a = sample_perturbed(spec, xi, 500, substream(13, "d"))
    b = sample_perturbed(spec, xi, 500, substream(13, "d"))
    assert np.array_equal(a.ys, b.ys)
    assert a.realization_id == "xi00042"
    assert np.array_equal(a.bucket_ids, bucket_of(a.xs, 5))


def test_serialization_round_trip():
    sine3 = BaselineConfig(f=sine_function(beta=3), sigma2=0.5, n=77)
    for spec in (PartitionSpec(b_x=3, b_eps=6, weight_law=WeightLaw.lognormal_with_ratio(0.7),
                               baseline=BaselineConfig(f=sine_function(), sigma2=0.5, n=77)),
                 CorrelatedNoiseSpec(b_x=6, delta2=0.4,
                                     baseline=BaselineConfig(f=sine_function(), sigma2=0.5, n=77)),
                 CorrelatedNoiseSpec(b_x=6, delta2=0.4, baseline=sine3)):
        xi = draw_perturbation(spec, substream(14, "ser"), realization_id="xi00001")
        back = realization_from_json(realization_to_json(xi))
        xs = np.linspace(0, 1, 23)
        assert np.allclose(delta_at(back, xs), delta_at(xi, xs), atol=1e-15)
        assert back.realization_id == "xi00001"
        f, f_back = spec.baseline.f, back.spec.baseline.f
        assert (f_back.name, f_back.beta, f_back.holder_const) == (f.name, f.beta, f.holder_const)
        assert np.array_equal(f_back(xs), f(xs))
    assert back.spec.baseline.f.beta == 3


def test_replay_document_without_function_parameters_uses_catalog_defaults():
    spec = CorrelatedNoiseSpec(b_x=4, delta2=0.4,
                               baseline=BaselineConfig(f=sine_function(beta=3), sigma2=0.5, n=9))
    doc = realization_to_json(draw_perturbation(spec, substream(14, "old")))
    del doc["spec"]["baseline"]["beta"], doc["spec"]["baseline"]["holder_const"]
    f = realization_from_json(doc).spec.baseline.f
    assert (f.beta, f.holder_const) == (sine_function().beta, sine_function().holder_const)


@pytest.mark.parametrize("make_spec", [
    lambda: PartitionSpec(b_x=3, b_eps=6, weight_law=WeightLaw.lognormal_with_ratio(0.7),
                          baseline=BaselineConfig(f=sine_function(), sigma2=0.5, n=40)),
    lambda: CorrelatedNoiseSpec(b_x=6, delta2=0.4,
                                baseline=BaselineConfig(f=sine_function(), sigma2=0.5, n=40)),
], ids=["partition", "correlated_noise"])
def test_reloaded_realization_samples_with_a_freshly_built_equal_spec(tmp_path, make_spec):
    # each make_spec() call builds a new sine closure; equal specs must still match
    xi = draw_perturbation(make_spec(), substream(21, "xi"))
    save_realization(xi, tmp_path / "xi.json")
    spec = make_spec()
    back = load_realization(tmp_path / "xi.json")
    assert back.spec == spec
    drawn = sample_perturbed(spec, xi, 40, substream(21, "data"))
    replayed = sample_perturbed(spec, back, 40, substream(21, "data"))
    for field in ("xs", "ys", "bucket_ids"):
        assert getattr(replayed, field).tobytes() == getattr(drawn, field).tobytes()


def test_replay_document_refuses_a_function_the_catalog_cannot_rebuild(tmp_path):
    bump = RegressionFunction("bump", beta=2.0, holder_const=1.0, _fn=np.cos)
    spec = CorrelatedNoiseSpec(b_x=4, delta2=0.4, baseline=BaselineConfig(f=bump, sigma2=0.5, n=9))
    xi = draw_perturbation(spec, substream(14, "bump"))
    with pytest.raises(ValueError, match="function 'bump' is not in the function catalog"):
        realization_to_json(xi)
    with pytest.raises(ValueError, match="'bump'"):
        save_realization(xi, tmp_path / "xi.json")
    assert not (tmp_path / "xi.json").exists()


def test_bin_means_cache_is_read_only_and_shared():
    spec = PartitionSpec(b_x=2, b_eps=5, weight_law=WeightLaw.exponential(), baseline=BASE)
    xi = draw_perturbation(spec, substream(17, "cache"))
    assert not xi.eps_bin_means.flags.writeable
    with pytest.raises(ValueError):
        xi.eps_bin_means[0] = 0.0
    again = draw_perturbation(spec, substream(17, "again")).eps_bin_means
    assert again is xi.eps_bin_means is _cached_bin_means(1.0, 5)


def _per_row_bins(row_cum, buckets, u):
    return np.array([np.searchsorted(row_cum[b], v, side="right")
                     for b, v in zip(buckets, u)], dtype=np.int64)


@st.composite
def bin_lookups(draw):
    """Nondecreasing rows (ties allowed) ending at, just above or just below 1,
    and queries that hit row entries, their neighbours and the ends of [0, 1)."""
    b_x = draw(st.integers(1, 5))
    b_eps = draw(st.integers(2, 6))
    rows = []
    for _ in range(b_x):
        end = draw(st.sampled_from([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]))
        steps = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0, 1.0]) |
                                       st.floats(0.0, 1.0), min_size=b_eps, max_size=b_eps)))
        cum = np.cumsum(steps)
        row = np.minimum(cum / cum[-1] * end, end) if cum[-1] > 0 else np.zeros(b_eps)
        row[-1] = end
        rows.append(row)
    row_cum = np.array(rows)
    n = draw(st.integers(1, 30))
    buckets = np.array(draw(st.lists(st.integers(0, b_x - 1), min_size=n, max_size=n)),
                       dtype=np.int64)
    entry = st.builds(lambda v, step: float(np.nextafter(v, 2.0 * step)) if step else v,
                      st.sampled_from(row_cum.ravel().tolist()), st.sampled_from([-1, 0, 0, 1]))
    u = np.array(draw(st.lists(entry | st.floats(0.0, 1.0, exclude_max=True) |
                               st.sampled_from([0.0, float(np.nextafter(1.0, 0.0))]),
                               min_size=n, max_size=n)))
    return row_cum, buckets, u


@settings(max_examples=200, deadline=None)
@given(case=bin_lookups())
@example(case=(np.array([[0.5, 1.0]]), np.array([0, 0, 0, 0]), np.array([0.0, 0.5, 0.75, 1.0])))
@example(case=(np.array([[0.25, 0.25, np.nextafter(1.0, 0.0)], [0.0, 0.5, np.nextafter(1.0, 2.0)]]),
               np.array([0, 0, 0, 1, 1, 1, 1]),
               np.array([0.25, np.nextafter(1.0, 0.0), 0.999, 0.0, 0.5, np.nextafter(1.0, 0.0),
                         np.nextafter(0.5, 0.0)])))
def test_bisection_bin_lookup_equals_per_row_search(case):
    row_cum, buckets, u = case
    assert np.array_equal(_bisect_rows(row_cum, buckets, u), _per_row_bins(row_cum, buckets, u))


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 9, 50, 1000])
def test_bisection_counts_entries_at_or_below_every_query(m):
    # rows with long runs of ties, and queries at, between and beyond the entries
    rng = substream(19, "ties", m)
    table = np.sort(rng.integers(0, 4, size=(3, m)), axis=1) / 4.0
    u = np.repeat(np.arange(-1, 6) / 4.0, 3) - np.tile([np.finfo(float).eps, 0.0, -0.0], 7)
    rows = np.arange(u.size) % 3
    assert np.array_equal(_bisect_rows(table, rows, u), _per_row_bins(table, rows, u))


def _seed_partition_sample(spec, xi, n, rng, xs=None):
    """The partition branch of sample_perturbed before the one-call bin lookup:
    one searchsorted per occupied bucket and scipy.stats for the quantile."""
    xs = rng.random(n) if xs is None else np.asarray(xs, dtype=float)
    buckets = bucket_of(xs, spec.b_x)
    b_eps = spec.b_eps
    row_cum = np.cumsum(xi.normalized_weights / b_eps, axis=1)
    u_bin = rng.random(n)
    bins = np.empty(n, dtype=np.int64)
    for b in np.unique(buckets):
        mask = buckets == b
        bins[mask] = np.searchsorted(row_cum[b], u_bin[mask], side="right")
    np.clip(bins, 0, b_eps - 1, out=bins)
    u_pos = rng.random(n)
    slice_prob = np.clip((bins + u_pos) / b_eps, np.finfo(float).tiny,
                         1.0 - np.finfo(float).epsneg)
    eps = math.sqrt(spec.baseline.sigma2) * stats.norm.ppf(slice_prob)
    return xs, spec.baseline.f(xs) + eps, buckets


@pytest.mark.parametrize("b_x", [1, 3, 10, 50])
def test_partition_sampling_is_bit_identical_to_per_bucket_loop(b_x):
    base = BaselineConfig(f=sine_function(), sigma2=0.7, n=500)
    forced = np.concatenate(([0.0, 1.0, np.nextafter(1.0, 0.0)], np.arange(b_x + 1) / b_x,
                             substream(18, "xs", b_x).random(40)))
    for law in (WeightLaw.exponential(), WeightLaw.lognormal_with_ratio(3.0)):
        for b_eps in (2, 7, 50):
            spec = PartitionSpec(b_x=b_x, b_eps=b_eps, weight_law=law, baseline=base)
            xi = draw_perturbation(spec, substream(18, "xi", b_x, b_eps))
            for n, xs in ((1, None), (500, None), (forced.size, forced)):
                ds = sample_perturbed(spec, xi, n, substream(18, "d", n), xs=xs)
                ref_xs, ref_ys, ref_buckets = _seed_partition_sample(
                    spec, xi, n, substream(18, "d", n), xs=xs)
                assert np.array_equal(ds.xs, ref_xs)
                assert np.array_equal(ds.ys, ref_ys)
                assert np.array_equal(ds.bucket_ids, ref_buckets)


_NDTRI_TAIL_ULP = 8


def _assert_ndtri_matches_scipy(p):
    """scipy's bits for exp(-2) < p <= 1 - exp(-2); elsewhere within _NDTRI_TAIL_ULP ulp."""
    p = np.asarray(p, dtype=float)
    got, want = _ndtri(p), special.ndtri(p)
    assert got.shape == p.shape
    central = (p > math.exp(-2.0)) & (p <= 1.0 - math.exp(-2.0))
    assert np.array_equal(got[central], want[central])
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    err = np.abs(got[finite] - want[finite]) / np.spacing(np.abs(want[finite]))
    assert err.max(initial=0.0) <= _NDTRI_TAIL_ULP


def test_ndtri_port_matches_scipy_on_bin_edges_uniforms_and_tails():
    _assert_ndtri_matches_scipy(np.concatenate([np.arange(b + 1) / b for b in range(1, 2001)]))
    u = substream(20, "ndtri").random(1_000_000)
    _assert_ndtri_matches_scipy(np.clip(u, np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg))
    lower = np.logspace(-300.0, math.log10(math.exp(-2.0)), 20_000)
    upper = 1.0 - np.logspace(-53.0 * math.log10(2.0), math.log10(math.exp(-2.0)), 20_000)
    _assert_ndtri_matches_scipy(np.concatenate([lower, upper, [1.0 - 2.0 ** -53]]))
    assert np.array_equal(_ndtri(np.array([0.0, 1.0])), [-np.inf, np.inf])


def test_ndtri_port_keeps_shape_and_is_elementwise_across_chunks():
    # central and tail points alternate, so every chunk edge meets both branches
    p = np.where(np.arange(8193) % 2, 0.5, 1e-3) + substream(21, "ndtri").random(8193) * 1e-3
    one_by_one = np.array([_ndtri(p[i:i + 1])[0] for i in range(p.size)])
    for size in (1, 8191, 8192, 8193):
        assert np.array_equal(_ndtri(p[:size]), one_by_one[:size])
    stack = p[:8190].reshape(3, 2730)
    assert np.array_equal(_ndtri(stack), one_by_one[:8190].reshape(3, 2730))


@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.floats(np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg),
                  min_size=1, max_size=20))
def test_ndtri_port_matches_scipy_on_any_probability(p):
    _assert_ndtri_matches_scipy(p)


def test_import_does_not_load_scipy():
    src = str(Path(rupsim.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import rupsim, rupsim.cli; "
            "sys.exit(' '.join(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.'))) or None)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_scipy_stats():
    src = str(Path(rupsim.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import rupsim, rupsim.cli; "
            "sys.exit('scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_degenerate_weight_draws_abort_with_diagnostic():
    spec = PartitionSpec(b_x=2, b_eps=3, weight_law=WeightLaw.exponential(), baseline=BASE)
    with mock.patch.object(WeightLaw, "sample", lambda self, rng, size: np.zeros(size)):
        with pytest.raises(RuntimeError, match="redraws"):
            draw_perturbation(spec, substream(15, "bad"))


def test_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(b_x=2, b_eps=1, weight_law=WeightLaw.exponential(), baseline=BASE)
    with pytest.raises(ValueError):
        PartitionSpec(b_x=2, b_eps=4, weight_law=WeightLaw.exponential(),
                      baseline=BaselineConfig(f=zero_function(), sigma2=0.0, n=10))
    with pytest.raises(ValueError):
        CorrelatedNoiseSpec(b_x=3, delta2=-0.1, baseline=BASE)
    with pytest.raises(ValueError):
        WeightLaw("gamma")
    spec = CorrelatedNoiseSpec(b_x=3, delta2=0.1, baseline=BASE)
    xi = draw_perturbation(spec, substream(16, "v"))
    with pytest.raises(ValueError):
        sample_perturbed(spec, xi, 0, substream(16, "d"))


def _stack_case(model, b_x, b_eps):
    base = BaselineConfig(f=sine_function(), sigma2=0.7, n=100)
    if model == "partition":
        return PartitionSpec(b_x=b_x, b_eps=b_eps, weight_law=WeightLaw.exponential(),
                             baseline=base)
    return CorrelatedNoiseSpec(b_x=b_x, delta2=0.3, baseline=base)


@pytest.mark.parametrize("b_x", [1, 3, 10, 50, 2000])
@pytest.mark.parametrize("model, b_eps", [("partition", 2), ("partition", 7), ("partition", 50),
                                          ("partition", 1000), ("correlated_noise", None)])
def test_stacked_rows_equal_one_generator_calls(model, b_x, b_eps):
    spec = _stack_case(model, b_x, b_eps)
    xis = [draw_perturbation(spec, substream(20, "xi", b_x, d), realization_id=f"xi{d}")
           for d in range(3)]
    stacked_xi = draw_perturbation(spec, [substream(20, "xi", b_x, d) for d in range(3)])
    forced = np.concatenate(([0.0, 1.0], np.arange(b_x + 1)[:40] / b_x,
                             substream(20, "xs").random(30)))
    for n, xs in ((1, None), (257, None), (forced.size, forced),
                  (forced.size, np.stack([forced, forced[::-1], np.sort(forced)]))):
        for shared in (True, False):
            stack = sample_perturbed(spec, xis[0] if shared else stacked_xi, n,
                                     [substream(20, "d", d) for d in range(3)], xs=xs)
            assert stack.xs.shape == stack.ys.shape == stack.bucket_ids.shape == (3, n)
            assert stack.realization_id == ("xi0" if shared else None)
            for d in range(3):
                row_xs = None if xs is None else np.broadcast_to(xs, (3, n))[d]
                one = sample_perturbed(spec, xis[0 if shared else d], n, substream(20, "d", d),
                                       xs=row_xs)
                assert np.array_equal(stack.xs[d], one.xs)
                assert np.array_equal(stack.ys[d], one.ys)
                assert np.array_equal(stack.bucket_ids[d], one.bucket_ids)


def test_generators_draw_what_the_one_call_draws():
    # partition: x, bin and in-bin uniforms as one random((3, n)) block, or
    # random((2, n)) with forced x; correlated noise: random(n), then normal(0, s, n)
    spec = _stack_case("partition", 4, 5)
    xi = draw_perturbation(spec, substream(21, "xi"))
    n = 9
    for xs, rows in ((None, 3), (np.linspace(0.0, 1.0, n), 2)):
        rng = substream(21, "d")
        sample_perturbed(spec, xi, n, rng, xs=xs)
        ref = substream(21, "d")
        ref.random((rows, n))
        assert rng.random() == ref.random()
    spec = _stack_case("correlated_noise", 4, None)
    xi = draw_perturbation(spec, substream(21, "xi"))
    rng = substream(21, "d")
    ds = sample_perturbed(spec, xi, n, rng)
    ref = substream(21, "d")
    assert np.array_equal(ds.xs, ref.random(n))
    assert np.array_equal(ds.ys, spec.baseline.f(ds.xs) + delta_at(xi, ds.xs)
                          + ref.normal(0.0, math.sqrt(spec.baseline.sigma2), n))
    assert rng.random() == ref.random()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stack_validation():
    spec = _stack_case("partition", 4, 5)
    xi = draw_perturbation(spec, substream(22, "xi"))
    one_row = draw_perturbation(spec, [substream(22, "xi")])
    other = draw_perturbation(_stack_case("partition", 4, 6),
                              [substream(22, "xi", d) for d in range(2)])
    rngs = [substream(22, "d", d) for d in range(2)]
    with pytest.raises(ValueError, match="one realization per generator"):
        sample_perturbed(spec, one_row, 5, rngs)
    with pytest.raises(ValueError, match="one realization per generator"):
        sample_perturbed(spec, xi, 5, [])
    with pytest.raises(ValueError, match="different spec"):
        sample_perturbed(spec, other, 5, rngs)
    with pytest.raises(ValueError, match="forced xs"):
        sample_perturbed(spec, xi, 5, rngs, xs=np.full((3, 5), 0.5))
    # a forced x outside [0, 1] is refused before any arithmetic, whatever the model
    for model in ("partition", "correlated_noise"):
        spec = _stack_case(model, 4, 5)
        xi = draw_perturbation(spec, substream(22, "xi"))
        for bad in (np.nan, np.inf, -np.inf, 1e300, -1e300, -0.5, 1.5):
            for forced, rng in (([0.1, bad, 0.5], substream(22, "d")),
                                ([[0.1, 0.2, 0.5], [0.3, 0.4, bad]], rngs)):
                with pytest.raises(ValueError, match=r"^forced xs must lie in \[0, 1\]$"):
                    sample_perturbed(spec, xi, 3, rng, xs=forced)


@pytest.mark.parametrize("model, b_eps", [("partition", 50), ("correlated_noise", None)])
@pytest.mark.parametrize("depth, shared", [(None, True), (3, True), (3, False)],
                         ids=["one", "stack-shared-xi", "stack-stacked-xi"])
def test_window_maps_responses_inside_and_zero_outside(model, b_eps, depth, shared):
    # a window changes no draw: xs, bucket ids, the generators' final states and
    # every y with lo <= x <= hi equal the full call's bits; every other y is +0.0
    spec = _stack_case(model, 10, b_eps)
    n = 2000
    xi = draw_perturbation(spec, substream(25, "xi") if shared else
                           [substream(25, "xi", d) for d in range(depth)])
    forced = np.concatenate(([0.0, 1.0, 0.05, 0.25, 0.95], substream(25, "xs").random(n - 5)))

    def gens():
        return substream(25, "d") if depth is None else [substream(25, "d", d) for d in range(3)]

    for xs in (None, forced):
        for window in ((-0.12, 0.05), (0.0, 0.25), (0.95, 1.12), (0.75, 1.0), (0.25, 0.25),
                       (0.0, 1.0), (-0.5, 1.5)):
            full_rngs, win_rngs = gens(), gens()
            full = sample_perturbed(spec, xi, n, full_rngs, xs=xs)
            win = sample_perturbed(spec, xi, n, win_rngs, xs=xs, window=window)
            assert win.xs.tobytes() == full.xs.tobytes()
            assert win.bucket_ids.tobytes() == full.bucket_ids.tobytes()
            assert win.realization_id == full.realization_id
            inside = (full.xs >= window[0]) & (full.xs <= window[1])  # none at 0.25 unless forced
            assert win.ys[inside].tobytes() == full.ys[inside].tobytes()
            assert np.zeros((~inside).sum()).tobytes() == win.ys[~inside].tobytes()
            for a, b in zip(*(([r] if depth is None else r) for r in (full_rngs, win_rngs))):
                assert a.random() == b.random()
    for window in ((0.6, 0.4), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="window must be"):
            sample_perturbed(spec, xi, n, gens(), window=window)


def _sample_zero_once(flagged):
    """A WeightLaw.sample whose first call on the generator in flagged ([g] or []) has a
    0.0 in cell 1."""
    real = WeightLaw.sample

    def sample(self, rng, size):
        out = real(self, rng, size)
        if flagged and rng is flagged[0]:
            flagged.pop()
            out.flat[1] = 0.0
        return out
    return sample


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("spec", [
    _stack_case("partition", 4, 5), _stack_case("partition", 1, 2),
    _stack_case("correlated_noise", 6, None),
    PartitionSpec(b_x=3, b_eps=7, weight_law=WeightLaw.lognormal_with_ratio(2.5), baseline=BASE),
], ids=["partition-4x5", "partition-1x2", "correlated-6", "partition-lognormal-3x7"])
def test_stacked_draw_equals_one_generator_draws(spec, depth):
    partition = isinstance(spec, PartitionSpec)
    name = "partition_weights" if partition else "bucket_shifts"
    # row 1 of the stack (row 0 of a stack of one) draws a 0.0 once and redraws that cell
    row = min(1, depth - 1)
    stack_rngs = [substream(24, "xi", d) for d in range(depth)]
    with mock.patch.object(WeightLaw, "sample", _sample_zero_once([stack_rngs[row]])):
        stack = draw_perturbation(spec, stack_rngs, realization_id="run")
    assert stack.depth == depth and stack.realization_id == "run"
    assert getattr(stack, name).shape == (depth, spec.b_x) + ((spec.b_eps,) if partition else ())
    for d in range(depth):
        rng = substream(24, "xi", d)
        with mock.patch.object(WeightLaw, "sample", _sample_zero_once([rng] if d == row else [])):
            one = draw_perturbation(spec, rng)
        assert one.depth is None
        assert np.array_equal(getattr(stack, name)[d], getattr(one, name))
        if partition:
            assert np.array_equal(stack.normalized_weights[d], one.normalized_weights)
            assert stack.eps_bin_means is one.eps_bin_means
            if d == row:  # the redraw replaced the forced 0.0 from the row's own stream
                fresh = substream(24, "xi", d)
                first = spec.weight_law.sample(fresh, (spec.b_x, spec.b_eps))
                assert one.partition_weights.flat[1] == spec.weight_law.sample(fresh, 1)[0]
                assert one.partition_weights.flat[1] != first.flat[1]
        # each generator made the one-generator draw's calls and no more
        assert stack_rngs[d].random() == rng.random()
    with pytest.raises(ValueError, match="need one or more generators"):
        draw_perturbation(spec, [])


def test_a_stuck_row_of_a_stacked_draw_aborts_with_diagnostic():
    spec = PartitionSpec(b_x=2, b_eps=3, weight_law=WeightLaw.exponential(), baseline=BASE)
    rngs = [substream(15, "stuck", d) for d in range(3)]
    real = WeightLaw.sample
    with mock.patch.object(WeightLaw, "sample", lambda self, rng, size: (
            np.zeros(size) if rng is rngs[2] else real(self, rng, size))):
        with pytest.raises(RuntimeError, match="weight draw degenerate after 100 redraws "
                                               "\\(6 stuck cells\\)"):
            draw_perturbation(spec, rngs)


@settings(max_examples=100, deadline=None)
@given(b_x=st.integers(1, 5000), k=st.integers(0, 5000))
def test_bucket_of_at_edges_and_right_end(b_x, k):
    assume(k <= b_x)
    edge = k / b_x
    below, above = np.nextafter(edge, -1.0), np.nextafter(edge, 2.0)
    xs = np.array([x for x in (below, edge, above) if 0.0 <= x <= 1.0])
    ids = bucket_of(xs, b_x)
    assert np.all((ids >= 0) & (ids < b_x)) and np.all(np.diff(ids) >= 0)
    # the edge lands in bucket k, or in k - 1 when k / b_x rounds below the edge
    assert bucket_of(edge, b_x) in (min(k, b_x - 1), k - 1)
    assert bucket_of(1.0, b_x) == b_x - 1 and bucket_of(0.0, b_x) == 0
    if k < b_x:
        assert bucket_of((k + 0.5) / b_x, b_x) == k


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(["partition", "correlated_noise"]), b_x=st.integers(1, 40),
       b_eps=st.integers(2, 60), ratio=st.sampled_from([None, 0.3, 2.5]),
       delta2=st.sampled_from([0.0, 1e-300, 0.37, 4.0]), seed=st.integers(0, 2 ** 32))
def test_replay_json_round_trip_rebuilds_arrays_and_samples(model, b_x, b_eps, ratio,
                                                           delta2, seed):
    base = BaselineConfig(f=sine_function(beta=1.5), sigma2=0.8, n=64)
    if model == "partition":
        law = WeightLaw.exponential() if ratio is None else WeightLaw.lognormal_with_ratio(ratio)
        spec = PartitionSpec(b_x=b_x, b_eps=b_eps, weight_law=law, baseline=base)
    else:
        spec = CorrelatedNoiseSpec(b_x=b_x, delta2=delta2, baseline=base)
    xi = draw_perturbation(spec, substream(seed, "xi"), realization_id="xi00007")
    doc = realization_to_json(xi)
    back = realization_from_json(json.loads(json.dumps(doc)))
    assert realization_to_json(back) == doc
    for name in ("partition_weights", "normalized_weights", "eps_bin_means", "bucket_shifts"):
        a, b = getattr(xi, name), getattr(back, name)
        assert (a is None and b is None) or np.array_equal(a, b)
    ds = sample_perturbed(spec, xi, 64, substream(seed, "data"))
    replayed = sample_perturbed(back.spec, back, 64, substream(seed, "data"))
    assert np.array_equal(ds.xs, replayed.xs) and np.array_equal(ds.ys, replayed.ys)


_SHIFTS4 = CorrelatedNoiseSpec(b_x=4, delta2=0.5, baseline=BASE)
_CELLS34 = PartitionSpec(b_x=3, b_eps=4, weight_law=WeightLaw.exponential(), baseline=BASE)


@pytest.mark.parametrize("spec, name, edit", [
    (_SHIFTS4, "bucket_shifts", lambda d: d + d[:2]),
    (_SHIFTS4, "bucket_shifts", lambda d: d[:2]),
    (_SHIFTS4, "bucket_shifts", lambda d: [math.nan] + d[1:]),
    (_CELLS34, "partition_weights", lambda d: d + d[:1]),
    (_CELLS34, "partition_weights", lambda d: [row[:3] for row in d]),
    (_CELLS34, "partition_weights", lambda d: [[-d[0][0]] + d[0][1:]] + d[1:]),
    (_SHIFTS4, "bucket_shifts", lambda d: [d[:2]] + d[2:]),
    (_CELLS34, "partition_weights", lambda d: [d[0][:3]] + d[1:]),
    (_SHIFTS4, "variant", lambda d: "bogus"),
    (_CELLS34, "variant", lambda d: "bogus"),
], ids=["6-shifts-for-4-buckets", "2-shifts-for-4-buckets", "nan-shift",
        "4-weight-rows-for-3-buckets", "3-weight-columns-for-4-bins", "negative-weight",
        "ragged-shifts", "ragged-weight-rows", "unknown-variant-with-delta2",
        "unknown-variant-without-delta2"])
def test_replay_document_whose_draw_does_not_fit_its_spec_is_refused(spec, name, edit):
    xi = draw_perturbation(spec, substream(23, "xi"), realization_id="xi00000")
    doc = realization_to_json(xi)
    doc[name] = edit(doc[name])
    if name == "variant":
        with pytest.raises(ValueError, match="variant must be 'partition' or 'correlated_noise'"):
            realization_from_json(json.loads(json.dumps(doc)))
        return
    shape = re.escape(f"{name} must have shape {np.shape(getattr(xi, name))}")
    with pytest.raises(ValueError, match=shape):
        realization_from_json(json.loads(json.dumps(doc)))
    with pytest.raises(ValueError, match=shape):
        PerturbationRealization(spec, "xi00000", **{name: doc[name]})


def test_realization_derives_variant_weights_and_bin_means_from_its_draw():
    spec, xi = make_partition_xi([[1.5, 0.5], [2.0, 6.0]], sigma2=2.0)
    assert xi.variant == "partition" and xi.bucket_shifts is None
    assert np.array_equal(xi.normalized_weights, [[1.5, 0.5], [0.5, 1.5]])
    assert xi.eps_bin_means is draw_perturbation(spec, substream(1, "xi")).eps_bin_means
    assert np.array_equal(xi.eps_bin_means, _cached_bin_means(2.0, 2))
    _, corr = make_corr_xi([0.25, -0.5])
    assert corr.variant == "correlated_noise"
    assert corr.normalized_weights is None and corr.eps_bin_means is None
    with pytest.raises(ValueError, match=re.escape("bucket_shifts must have shape (2,)")):
        PerturbationRealization(corr.spec, partition_weights=np.ones((2, 2)))


@pytest.mark.parametrize("make, message", [
    (lambda: WeightLaw("lognormal", log_sd=0.0), "lognormal log_sd must be positive"),
    (lambda: WeightLaw("lognormal", log_sd=-1.0), "lognormal log_sd must be positive"),
    (lambda: WeightLaw.lognormal_with_ratio(0.0), "var_over_mean_sq must be positive"),
    (lambda: PartitionSpec(b_x=0, b_eps=4, weight_law=WeightLaw.exponential(), baseline=BASE),
     "b_x must be at least 1"),
    (lambda: CorrelatedNoiseSpec(b_x=0, delta2=0.1, baseline=BASE), "b_x must be at least 1"),
    (lambda: _cached_bin_means(0.0, 4), "sigma2 must be positive"),
    (lambda: delta_variance_mc(CorrelatedNoiseSpec(b_x=3, delta2=0.1, baseline=BASE), 1,
                               substream(1, "dv")), "reps must be at least 2"),
], ids=["log-sd-0", "log-sd-negative", "ratio-0", "partition-b-x-0", "correlated-b-x-0",
        "bin-means-sigma2-0", "delta-variance-reps-1"])
def test_invalid_laws_specs_and_reps_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("delta2, sigma2", [(1e308, 10.0), (math.nan, 1.0), (math.inf, 0.0),
                                            (1e200, 1e200)],
                         ids=["overflow", "nan-delta2", "inf-times-zero", "product-overflow"])
def test_correlated_noise_spec_refuses_a_shift_variance_that_is_not_finite(delta2, sigma2):
    base = BaselineConfig(f=zero_function(), sigma2=sigma2, n=10)
    with pytest.raises(ValueError, match="the shift variance delta2 \\* sigma2 must be finite"):
        CorrelatedNoiseSpec(b_x=10, delta2=delta2, baseline=base)


def test_correlated_noise_spec_accepts_a_large_finite_shift_variance():
    base = BaselineConfig(f=zero_function(), sigma2=10.0, n=10)
    spec = CorrelatedNoiseSpec(b_x=10, delta2=1e307, baseline=base)
    assert np.isfinite(draw_perturbation(spec, substream(2, "xi")).bucket_shifts).all()


@pytest.mark.parametrize("spec, name, draw, got", [
    (_SHIFTS4, "bucket_shifts", np.zeros(3), "got shape (3,)"),
    (_SHIFTS4, "bucket_shifts", [0.0, math.inf, 0.0, 0.0], "got a non-finite entry"),
    (_CELLS34, "partition_weights", np.ones((4, 4)), "got shape (4, 4)"),
    (_CELLS34, "partition_weights", np.full((3, 4), math.nan), "got a non-finite entry"),
    (_CELLS34, "partition_weights", np.eye(3, 4), "got a weight <= 0"),
], ids=["shifts-shape", "shifts-inf", "weights-shape", "weights-nan", "weights-zero"])
def test_realization_names_the_rule_its_draw_breaks(spec, name, draw, got):
    with pytest.raises(ValueError, match=re.escape(got) + "$"):
        PerturbationRealization(spec, **{name: draw})


@pytest.mark.parametrize("spec, name, draw", [
    (_SHIFTS4, "bucket_shifts", [0.0, math.inf, 0.0, 0.0]),
    (_CELLS34, "partition_weights", np.full((3, 4), math.nan)),
    (_CELLS34, "partition_weights", np.eye(3, 4)),
    (_CELLS34, "partition_weights", -np.ones((3, 4))),
], ids=["shifts-inf", "weights-nan", "weights-zero", "weights-negative"])
def test_a_stacked_draw_names_the_rule_of_one_draw(spec, name, draw):
    good = np.ones(np.shape(draw))
    with pytest.raises(ValueError) as one:
        PerturbationRealization(spec, **{name: draw})
    with pytest.raises(ValueError) as stacked:
        PerturbationRealization(spec, **{name: np.stack([good, draw, good])})
    assert str(stacked.value) == str(one.value)
    for shape in ((0,) + good.shape, (2,) + good.shape[:-1] + (9,), (2, 2) + good.shape):
        with pytest.raises(ValueError, match=re.escape(f"; got shape {shape}") + "$"):
            PerturbationRealization(spec, **{name: np.ones(shape)})


@pytest.mark.parametrize("spec", [_CELLS34, _SHIFTS4], ids=["partition", "correlated-noise"])
def test_one_realization_functions_refuse_a_stack(spec, tmp_path):
    stack = draw_perturbation(spec, [substream(25, "xi", d) for d in range(2)])
    calls = {"delta_at": lambda: delta_at(stack, 0.5),
             "a replay document": lambda: realization_to_json(stack)}
    if spec is _CELLS34:
        calls["kl_to_baseline_partition"] = lambda: kl_to_baseline_partition(stack)
    for what, call in calls.items():
        with pytest.raises(ValueError, match=f"^{what} needs one realization, got a stack of 2$"):
            call()
    with pytest.raises(ValueError, match="needs one realization"):
        save_realization(stack, tmp_path / "xi.json")
    assert not (tmp_path / "xi.json").exists()
    doc = realization_to_json(draw_perturbation(spec, substream(25, "xi", 0)))
    name = "partition_weights" if spec is _CELLS34 else "bucket_shifts"
    doc[name] = [doc[name], doc[name]]
    with pytest.raises(ValueError, match="^a replay document needs one realization, got a "
                                         "stack of 2$"):
        realization_from_json(json.loads(json.dumps(doc)))
