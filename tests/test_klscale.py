import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from rupsim import (EPANECHNIKOV, SMOOTH_BUMP, TRIANGULAR, UNIFORM, BaselineConfig,
                    BlockCovariance, CorrelatedNoiseSpec, Kernel, TwoPointConstruction,
                    block_precision_apply, bucket_of, conditional_kl,
                    correlated_noise_kl_suite, kl_mc, substream, two_point_separation,
                    zero_function)
from rupsim.streams import STACK_POINTS


def base(n=100, sigma2=1.0):
    return BaselineConfig(f=zero_function(), sigma2=sigma2, n=n)


def block_covariance_apply(cov: BlockCovariance, v) -> np.ndarray:
    """Apply the covariance itself to v blockwise (round-trip checks)."""
    v = np.asarray(v, dtype=float)
    sums = np.bincount(cov.bucket_ids, weights=v, minlength=int(cov.bucket_ids.max()) + 1)
    return cov.sigma2 * (v + cov.delta2 * sums[cov.bucket_ids])


def test_precision_identity_blocks_at_zero_delta():
    cov = BlockCovariance(bucket_ids=np.array([0, 0, 1]), sigma2=4.0, delta2=0.0)
    v = np.array([1.0, -2.0, 3.0])
    assert np.allclose(block_precision_apply(cov, v), v / 4.0, atol=1e-15)


def test_precision_hand_case_two_points_one_bucket():
    # Sigma = [[2,1],[1,2]] -> Sigma^{-1} = (1/3)[[2,-1],[-1,2]]
    cov = BlockCovariance(bucket_ids=np.array([0, 0]), sigma2=1.0, delta2=1.0)
    assert np.allclose(block_precision_apply(cov, np.array([1.0, 0.0])),
                       [2 / 3, -1 / 3], atol=1e-12)
    cols = [block_precision_apply(cov, e) for e in np.eye(2)]
    assert np.allclose(np.column_stack(cols),
                       np.array([[2 / 3, -1 / 3], [-1 / 3, 2 / 3]]), atol=1e-12)


def test_precision_against_dense_inverse_on_random_blocks():
    rng = substream(0, "dense")
    for trial in range(100):
        n = int(rng.integers(2, 51))
        buckets = rng.integers(0, int(rng.integers(1, 8)) + 1, size=n)
        sigma2 = float(rng.uniform(0.2, 3.0))
        delta2 = float(rng.uniform(0.0, 2.0))
        v = rng.normal(size=n)
        cov = BlockCovariance(bucket_ids=buckets, sigma2=sigma2, delta2=delta2)
        fast = block_precision_apply(cov, v)
        dense = cov.dense()
        direct = np.linalg.solve(dense, v)
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.abs(fast - direct).max() <= 1e-10 * scale
        # round trip through the forward operator
        assert np.abs(block_covariance_apply(cov, fast) - v).max() <= 1e-10
        assert np.abs(dense @ fast - v).max() <= 1e-10


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(st.sampled_from([0, 1, 3, 4, 9, 30]), min_size=1, max_size=40),
       sigma2=st.floats(0.05, 20.0), delta2=st.just(0.0) | st.floats(0.0, 50.0),
       seed=st.integers(0, 2 ** 32))
def test_precision_equals_dense_inverse_on_random_layouts(ids, sigma2, delta2, seed):
    # bucket ids with gaps (2, 5-8, 10-29 never occur) and delta2 = 0 included
    cov = BlockCovariance(bucket_ids=np.array(ids), sigma2=sigma2, delta2=delta2)
    inverse = np.linalg.inv(cov.dense())
    v = substream(seed, "v").normal(size=len(ids))
    fast = block_precision_apply(cov, v)
    assert np.allclose(fast, inverse @ v, rtol=1e-9, atol=1e-12 * np.abs(inverse).max())
    columns = np.column_stack([block_precision_apply(cov, e) for e in np.eye(len(ids))])
    assert np.allclose(columns, inverse, rtol=1e-9, atol=1e-12 * np.abs(inverse).max())


def test_conditional_kl_zero_when_bump_misses_design():
    spec = CorrelatedNoiseSpec(b_x=10, delta2=0.5, baseline=base())
    constr = TwoPointConstruction(x0=0.5, h=0.1, beta=1.0, holder_const=1.0)
    # bump support is [0.475, 0.525]; keep all design points outside it
    assert conditional_kl(np.array([0.1, 0.2, 0.9]), constr, spec) == 0.0


def test_conditional_kl_rejects_design_outside_unit_interval_and_nan():
    spec = CorrelatedNoiseSpec(b_x=10, delta2=0.5, baseline=base())
    constr = TwoPointConstruction(x0=0.5, h=0.1, beta=1.0, holder_const=1.0)
    for bad in ([0.5, 1.2], [-0.3, 0.5], [0.5, np.nan], [np.nan]):
        with pytest.raises(ValueError, match=r"design points must lie in \[0, 1\]"):
            conditional_kl(np.array(bad), constr, spec)


def test_conditional_kl_hand_case_same_bucket():
    # two points at the peak in one bucket: KL = a^2 / (1 + 2*delta2), a = L*h^beta
    constr = TwoPointConstruction(x0=0.5, h=0.2, beta=1.0, holder_const=1.0)
    a = 1.0 * 0.2  # kernel peak value is 1
    spec = CorrelatedNoiseSpec(b_x=2, delta2=0.5, baseline=base())
    kl = conditional_kl(np.array([0.5, 0.5]), constr, spec)
    assert kl == pytest.approx(a ** 2 / (1.0 + 2 * 0.5), rel=1e-12)


def test_conditional_kl_reduces_to_iid_at_zero_delta():
    rng = substream(1, "iid")
    xs = rng.random(200)
    constr = TwoPointConstruction(x0=0.5, h=0.3, beta=1.0, holder_const=2.0)
    spec = CorrelatedNoiseSpec(b_x=10, delta2=0.0, baseline=base(sigma2=0.7))
    kl = conditional_kl(xs, constr, spec)
    f1 = constr.bump(xs)
    iid_oracle = 0.5 * np.sum(f1 ** 2) / 0.7
    assert kl == pytest.approx(iid_oracle, rel=1e-12)


def test_conditional_kl_nonnegative_and_zero_iff_flat():
    rng = substream(2, "nn")
    xs = rng.random(150)
    spec = CorrelatedNoiseSpec(b_x=5, delta2=0.8, baseline=base())
    constr = TwoPointConstruction(x0=0.5, h=0.2, beta=1.0, holder_const=1.0)
    assert conditional_kl(xs, constr, spec) > 0.0


@pytest.mark.parametrize("kernel", [EPANECHNIKOV, UNIFORM, TRIANGULAR, SMOOTH_BUMP],
                         ids=lambda k: k.name)
def test_windowed_kl_matches_dense_solve_over_full_design(kernel):
    # dyadic x0 and h put the window edges x0 +- support*h exactly on design
    # points, where the uniform kernel is still positive
    for i, (x0, h) in enumerate(((0.5, 0.25), (0.0, 0.25), (1.0, 0.25), (0.125, 0.5),
                                 (0.875, 0.5), (0.5, 4.0))):
        constr = TwoPointConstruction(x0=x0, h=h, beta=1.0, holder_const=1.0, kernel=kernel)
        edges = [e for e in (x0 - kernel.support * h, x0 + kernel.support * h) if 0 <= e <= 1]
        xs = np.concatenate((substream(9, "window", i).random(60), edges, [0.0, 1.0]))
        for b_x in (1, 7, xs.size):
            spec = CorrelatedNoiseSpec(b_x=b_x, delta2=0.8, baseline=base(sigma2=1.3))
            cov = BlockCovariance(bucket_ids=bucket_of(xs, b_x), sigma2=1.3, delta2=0.8)
            df = constr.bump(xs)
            dense = 0.5 * df @ np.linalg.solve(cov.dense(), df)
            kl = conditional_kl(xs, constr, spec)
            assert dense > 0.0
            assert abs(kl - dense) <= 1e-12 * dense


@pytest.mark.parametrize("x0", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("b_x", [1, 7, "per_point"])
def test_stacked_conditional_kl_equals_one_design_calls(x0, b_x):
    rng = substream(11, "stacked-kl", x0, str(b_x))
    n = 90
    b_x = n if b_x == "per_point" else b_x
    stack = rng.random((12, n))
    # no point within 0.5 of x0, the widest reach below
    stack[3] = np.abs((1.0 if x0 < 0.5 else 0.0) - 0.1 * stack[3])
    stack[4] = x0  # every point at the peak, in one bucket
    stack[5, :4] = [0.0, 1.0, 0.0, 1.0]
    for kernel, h in ((SMOOTH_BUMP, 0.2), (EPANECHNIKOV, 0.05), (UNIFORM, 0.5)):
        constr = TwoPointConstruction(x0=x0, h=h, beta=1.0, holder_const=1.5, kernel=kernel)
        for delta2 in (0.0, 0.8):
            spec = CorrelatedNoiseSpec(b_x=b_x, delta2=delta2, baseline=base(n, sigma2=1.3))
            kls = conditional_kl(stack, constr, spec)
            assert kls.shape == (12,) and kls.dtype == float
            one = np.array([conditional_kl(row, constr, spec) for row in stack])
            assert np.array_equal(kls, one)
            assert kls[3] == 0.0 and kls[4] > 0.0
            assert np.array_equal(conditional_kl(stack[5:6], constr, spec), one[5:6])
    assert conditional_kl(np.empty((0, n)), constr, spec).shape == (0,)
    assert np.array_equal(conditional_kl(np.empty((3, 0)), constr, spec), np.zeros(3))


def test_conditional_kl_rejects_a_stack_outside_the_unit_interval_or_of_wrong_rank():
    spec = CorrelatedNoiseSpec(b_x=10, delta2=0.5, baseline=base())
    constr = TwoPointConstruction(x0=0.5, h=0.1, beta=1.0, holder_const=1.0)
    with pytest.raises(ValueError, match=r"design points must lie in \[0, 1\]"):
        conditional_kl(np.array([[0.5, 0.2], [0.5, np.nan]]), constr, spec)
    with pytest.raises(ValueError, match=r"one design \(n,\) or a stack \(D, n\)"):
        conditional_kl(np.full((2, 2, 2), 0.5), constr, spec)


@pytest.mark.parametrize("bucket_rule", [lambda n: n, lambda n: 10], ids=["per-point", "fixed"])
def test_kl_mc_equals_a_per_design_substream_loop(bucket_rule):
    # n_grid spans stacks of many designs, of one design, and a final short stack
    n_grid, reps, seed = [150, 1000, STACK_POINTS + 5], 23, 17
    table = kl_mc(n_grid, bucket_rule, 0.9, base(), 1.0, 1.0, 0.45, reps, seed)
    for ni, (n, row) in enumerate(zip(n_grid, table.rows)):
        spec = CorrelatedNoiseSpec(b_x=bucket_rule(n), delta2=0.9, baseline=base(n))
        constr = TwoPointConstruction(x0=0.45, h=row.h, beta=1.0, holder_const=1.0)
        kls = np.array([conditional_kl(substream(seed, "design", ni, r).random(n), constr, spec)
                        for r in range(reps)])
        assert row.kl_mean == kls.mean()
        assert row.kl_se == kls.std(ddof=1) / np.sqrt(reps)


def test_conditional_kl_decreasing_in_delta2_shared_bucket():
    constr = TwoPointConstruction(x0=0.5, h=0.2, beta=1.0, holder_const=1.0)
    xs = np.array([0.5, 0.5])
    vals = [conditional_kl(xs, constr, CorrelatedNoiseSpec(b_x=2, delta2=d, baseline=base()))
            for d in (0.0, 0.25, 0.5, 1.0, 2.0)]
    assert np.all(np.diff(vals) < 0.0)


def test_two_point_separation():
    assert two_point_separation(
        TwoPointConstruction(x0=0.5, h=1.0, beta=1.0, holder_const=1.0)) == 1.0
    scaled = Kernel("scaled", k_max=0.8, support=1.0,
                    _fn=lambda u: 0.8 * np.maximum(1.0 - np.abs(u), 0.0))
    assert two_point_separation(
        TwoPointConstruction(x0=0.2, h=0.5, beta=1.0, holder_const=2.0,
                             kernel=scaled)) == pytest.approx(0.8)
    seps = [two_point_separation(TwoPointConstruction(x0=0.5, h=h, beta=1.0,
                                                      holder_const=1.0))
            for h in (0.4, 0.2, 0.1, 0.05)]
    assert np.all(np.diff(seps) < 0.0)


def _iid_ratio_constant(holder_const, sigma2):
    # E_X[KL]/(n h^{2b+1}) for delta2=0: L^2/(2 sigma2) * int K(u)^2 du
    ksq, _ = integrate.quad(lambda u: float(SMOOTH_BUMP(u)) ** 2, -0.5, 0.5)
    return holder_const ** 2 * ksq / (2.0 * sigma2)


def test_kl_mc_zero_delta_matches_iid_constant():
    table = correlated_noise_kl_suite([200, 400], delta2=0.0, base=base(),
                                      beta=1.0, holder_const=1.0, x0=0.5,
                                      reps=400, seed=3)
    const = _iid_ratio_constant(1.0, 1.0)
    for row in table.rows:
        se_ratio = row.kl_se / (row.n_eff * row.h ** 3)
        assert abs(row.ratio - const) <= 3.0 * se_ratio
    assert not table.regime_warning


def test_kl_mc_single_n_single_row():
    table = correlated_noise_kl_suite([300], delta2=1.0, base=base(),
                                      beta=1.0, holder_const=1.0, x0=0.5,
                                      reps=50, seed=4)
    assert len(table.rows) == 1
    assert table.rows[0].n == 300
    assert not table.regime_warning  # single n: occupancy cannot grow


def test_kl_mc_regime_flag_for_fixed_buckets():
    table = correlated_noise_kl_suite([100, 200, 400], delta2=1.0, base=base(),
                                      beta=1.0, holder_const=1.0, x0=0.5,
                                      bucket_rule=lambda n: 10, reps=50, seed=5)
    assert table.regime_warning
    assert all(r.regime_warning for r in table.rows)


def test_kl_mc_ratio_stabilizes_in_lemma_regime():
    table = correlated_noise_kl_suite([200, 400, 800], delta2=1.0, base=base(),
                                      beta=1.0, holder_const=1.0, x0=0.5,
                                      reps=200, seed=6)
    ratios = np.array([r.ratio for r in table.rows])
    assert ratios.max() / ratios.min() <= 1.25
    assert not table.regime_warning


def test_block_covariance_validation():
    with pytest.raises(ValueError):
        BlockCovariance(bucket_ids=np.array([0, 1]), sigma2=0.0, delta2=0.1)
    with pytest.raises(ValueError):
        BlockCovariance(bucket_ids=np.array([0, 1]), sigma2=1.0, delta2=-0.1)
    cov = BlockCovariance(bucket_ids=np.array([0, 0, 2]), sigma2=1.0, delta2=0.1)
    assert np.array_equal(np.bincount(cov.bucket_ids, minlength=3), [2, 0, 1])
    with pytest.raises(ValueError):
        block_precision_apply(cov, np.ones(4))


def test_block_covariance_refuses_a_negative_bucket_id():
    with pytest.raises(ValueError, match="bucket ids must be nonnegative"):
        BlockCovariance(bucket_ids=np.array([0, -1]), sigma2=1.0, delta2=0.1)


def test_precision_refuses_a_bucket_whose_shift_variance_overflows():
    # two points share bucket 0, so 1 + 2 * delta2 overflows; the product would
    # come back [1, 2, 0] where the precision gives [-0.5, 0.5, 0]
    cov = BlockCovariance(bucket_ids=np.array([0, 0, 1]), sigma2=1.0, delta2=1e308)
    with pytest.raises(ValueError, match=r"delta2 \* the largest bucket count must be finite, "
                                         r"got 1e\+308 \* 2"):
        block_precision_apply(cov, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="largest bucket count"):
        kl_mc([2, 3], lambda n: n, 1e308, base(2), 1.0, 1.0, 0.5, 2, 0)
    empty = BlockCovariance(bucket_ids=np.array([], dtype=np.int64), sigma2=1.0, delta2=1e308)
    assert block_precision_apply(empty, []).shape == (0,)


def test_precision_treats_bucket_ids_as_labels():
    v = [0.5, -0.5, 1.0, 0.0]
    for ids in ([0, 0, 1, 1], [0, 0, 10 ** 15, 10 ** 15], [7, 7, 2 ** 63 - 1, 2 ** 63 - 1]):
        cov = BlockCovariance(bucket_ids=np.array(ids), sigma2=1.0, delta2=0.5)
        assert block_precision_apply(cov, v).tolist() == [0.5, -0.5, 0.75, -0.25]
        assert cov.bucket_ids.tolist() == ids  # the layout keeps the ids it was given


@pytest.mark.parametrize("h, beta, holder_const", [(0.0, 1.0, 1.0), (-0.1, 1.0, 1.0),
                                                   (0.1, 0.0, 1.0), (0.1, -1.0, 1.0),
                                                   (0.1, 1.0, 0.0), (0.1, 1.0, -2.0)],
                         ids=["h-0", "h-negative", "beta-0", "beta-negative", "L-0",
                              "L-negative"])
def test_two_point_construction_refuses_a_nonpositive_parameter(h, beta, holder_const):
    with pytest.raises(ValueError, match="h, beta and holder_const must be positive"):
        TwoPointConstruction(x0=0.5, h=h, beta=beta, holder_const=holder_const)


@pytest.mark.parametrize("n_grid, reps, message", [([100], 1, "reps must be at least 2"),
                                                   ([], 10, "n_grid must be nonempty")],
                         ids=["reps-1", "empty-n-grid"])
def test_kl_mc_refuses_too_few_reps_or_no_n(n_grid, reps, message):
    with pytest.raises(ValueError, match=message):
        kl_mc(n_grid, lambda n: n, 1.0, base(), 1.0, 1.0, 0.5, reps, 0)
