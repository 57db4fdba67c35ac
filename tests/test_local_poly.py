import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rupsim import (KERNELS, Dataset, LpeConfig, NoLocalSupport, equivalent_kernel_weights,
                    fit_predict, get_kernel, local_fit, predict_grid, sine_function,
                    sort_design, substream)
from rupsim import local_poly
from rupsim.local_poly import (_NEAR_CELLS, DEGENERATE_EIG, MIN_BANDWIDTH, _point_fit,
                               _prefix_moments, _window, _window_moments)


def brute_force_lp(xs, ys, x0, order, h, kernel):
    """Independent oracle: weighted least squares via lstsq on the local design."""
    u = (np.asarray(xs) - x0) / h
    k = kernel(u)
    keep = k > 0
    sw = np.sqrt(k[keep])
    design = np.vander(u[keep], N=order + 1, increasing=True) * sw[:, None]
    coef, *_ = np.linalg.lstsq(design, np.asarray(ys)[keep] * sw, rcond=None)
    return coef[0]


def test_lp0_uniform_kernel_is_local_average():
    cfg = LpeConfig(order=0, bandwidth=0.2, kernel=get_kernel("uniform"))
    w = equivalent_kernel_weights(cfg, np.array([0.45, 0.5, 0.55]), 0.5)
    assert np.allclose(w.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    assert not w.degenerate


def test_lp0_epanechnikov_hand_values():
    # K((x_k-x0)/h) = (0.5625, 0.75, 0) up to the common 0.75 factor -> 3/7, 4/7, 0
    cfg = LpeConfig(order=0, bandwidth=0.1)
    w = equivalent_kernel_weights(cfg, np.array([0.45, 0.50, 0.60]), 0.5)
    assert np.allclose(w.weights, [3 / 7, 4 / 7, 0.0], atol=1e-12)


def test_lp1_symmetric_pair_equal_weights():
    # symmetric design around x0 with equal kernel values kills the slope coordinate
    cfg = LpeConfig(order=1, bandwidth=0.3)
    w = equivalent_kernel_weights(cfg, np.array([0.4, 0.6]), 0.5)
    assert np.allclose(w.weights, [0.5, 0.5], atol=1e-12)


def test_weights_sum_to_one_and_match_lstsq_oracle():
    rng = substream(17, "lp")
    for order in (0, 1, 2, 3):
        xs = rng.random(400)
        ys = rng.normal(size=400)
        cfg = LpeConfig(order=order, bandwidth=0.15)
        w = equivalent_kernel_weights(cfg, xs, 0.45)
        assert not w.degenerate
        assert abs(w.weights.sum() - 1.0) <= 1e-10
        pred = w.weights @ ys
        oracle = brute_force_lp(xs, ys, 0.45, order, 0.15, cfg.kernel)
        assert pred == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_exact_zero_outside_window():
    rng = substream(9, "win")
    xs = rng.random(300)
    cfg = LpeConfig(order=1, bandwidth=0.08)
    w = equivalent_kernel_weights(cfg, xs, 0.5)
    outside = np.abs(xs - 0.5) > cfg.bandwidth
    assert np.all(w.weights[outside] == 0.0)


def test_affine_reproduction():
    rng = substream(23, "aff")
    xs = rng.random(200)
    ys = 1.7 - 0.9 * xs
    ds = Dataset(xs=xs, ys=ys)
    cfg = LpeConfig(order=1, bandwidth=0.12)
    for x0 in (0.1, 0.33, 0.5, 0.9):
        assert fit_predict(cfg, ds, x0) == pytest.approx(1.7 - 0.9 * x0, abs=1e-8)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_polynomial_reproduction_up_to_order(order):
    rng = substream(31, "poly", order)
    xs = rng.random(500)
    coeffs = rng.normal(size=order + 1)
    ys = np.polyval(coeffs, xs)
    ds = Dataset(xs=xs, ys=ys)
    cfg = LpeConfig(order=order, bandwidth=0.2)
    for x0 in (0.25, 0.6):
        assert fit_predict(cfg, ds, x0) == pytest.approx(np.polyval(coeffs, x0), abs=1e-8)


def test_constant_response_predicts_constant():
    ds = Dataset(xs=np.linspace(0, 1, 50), ys=np.full(50, 4.2))
    cfg = LpeConfig(order=2, bandwidth=0.3)
    assert fit_predict(cfg, ds, 0.7) == pytest.approx(4.2, abs=1e-10)


def test_noiseless_sine_bias_bound():
    # order-1 fit of a smooth target: interior error empirically below 0.02 at h=0.05
    rng = substream(77, "bias")
    f = sine_function()
    xs = rng.random(2000)
    ds = Dataset(xs=xs, ys=f(xs))
    cfg = LpeConfig(order=1, bandwidth=0.05)
    grid = np.linspace(0.05, 0.95, 91)
    preds = predict_grid(cfg, ds, grid)
    assert np.all(np.isfinite(preds))
    assert np.max(np.abs(preds - f(grid))) < 0.02


def test_predict_grid_matches_scalar_path_exactly():
    rng = substream(13, "grid")
    xs = rng.random(500)
    ys = np.sin(7 * xs) + rng.normal(size=500)
    ds = Dataset(xs=xs, ys=ys)
    cfg = LpeConfig(order=1, bandwidth=0.07)
    grid = np.linspace(0.05, 0.95, 101)
    vec = predict_grid(cfg, ds, grid)
    scalar = np.array([fit_predict(cfg, ds, g) for g in grid])
    assert np.array_equal(vec, scalar)


def test_predict_grid_empty_and_singleton():
    ds = Dataset(xs=np.linspace(0, 1, 30), ys=np.zeros(30))
    cfg = LpeConfig(order=1, bandwidth=0.2)
    assert predict_grid(cfg, ds, []).size == 0
    single = predict_grid(cfg, ds, [0.4])
    assert single.shape == (1,)
    assert single[0] == fit_predict(cfg, ds, 0.4)


def test_queries_outside_unit_interval_or_nan_rejected():
    ds = Dataset(xs=np.linspace(0, 1, 30), ys=np.zeros(30))
    cfg = LpeConfig(order=1, bandwidth=0.2)
    for grid in ([0.5, np.nan], [np.nan], [np.nan, 0.5], [0.5, 1.5], [-0.2]):
        with pytest.raises(ValueError, match=r"query points outside \[0, 1\]"):
            predict_grid(cfg, ds, grid)
    # local_fit and the point path behind equivalent_kernel_weights share one query check
    for query in (np.nan, 1.5, -0.2):
        with pytest.raises(ValueError, match=r"query points outside \[0, 1\]"):
            fit_predict(cfg, ds, query)
        with pytest.raises(ValueError, match=r"query points outside \[0, 1\]"):
            equivalent_kernel_weights(cfg, ds.xs, query)


def test_no_local_support_raises_and_grid_marks_nan():
    ds = Dataset(xs=np.array([0.9, 0.95]), ys=np.array([1.0, 2.0]))
    cfg = LpeConfig(order=1, bandwidth=0.05)
    with pytest.raises(NoLocalSupport):
        fit_predict(cfg, ds, 0.1)
    out = predict_grid(cfg, ds, [0.1, 0.92])
    assert np.isnan(out[0]) and np.isfinite(out[1])
    # the engine voids the unsupported fit: a NaN coef row, and it is not flagged ridged
    fit = local_fit(cfg, sort_design(ds.xs, ds.ys), [0.1, 0.92])
    assert fit.supported.tolist() == [False, True]
    assert np.isnan(fit.coef[0]).all() and not fit.degenerate[0]
    assert np.isfinite(fit.coef[1]).all()


def test_grid_fits_refuse_a_design_without_responses():
    # a design sorted without ys has no values to predict: refused at entry, before
    # any fit or ridge count
    design = sort_design(np.linspace(0.0, 1.0, 30))
    cfg = LpeConfig(order=1, bandwidth=0.2)
    ridged = []
    with pytest.raises(ValueError, match="the design carries no responses"):
        predict_grid(cfg, design, [0.5], ridged=ridged)
    with pytest.raises(ValueError, match="the design carries no responses"):
        fit_predict(cfg, design, 0.5)
    assert ridged == []


def test_degenerate_design_flagged_not_crashed():
    # duplicated x with order 1: singular local Gram, ridge takes over
    ds = Dataset(xs=np.array([0.5, 0.5, 0.5]), ys=np.array([1.0, 2.0, 3.0]))
    cfg = LpeConfig(order=1, bandwidth=0.1)
    w = equivalent_kernel_weights(cfg, ds.xs, 0.5)
    assert w.degenerate
    assert np.all(np.isfinite(w.weights))


def test_weights_invariant_to_permutation():
    rng = substream(5, "perm")
    xs = rng.random(100)
    cfg = LpeConfig(order=1, bandwidth=0.2)
    w = equivalent_kernel_weights(cfg, xs, 0.5).weights
    perm = rng.permutation(100)
    w_perm = equivalent_kernel_weights(cfg, xs[perm], 0.5).weights
    # relabeling reorders the Gram sums, so equality holds to rounding only
    assert np.allclose(w[perm], w_perm, rtol=1e-12, atol=1e-14)


def test_weight_lemma_scalings():
    # sum |W| stays small on uniform designs; max |W| * n * h stays stable
    constants = []
    for n, h in ((500, 0.08), (1000, 0.04), (2000, 0.02)):
        cfg = LpeConfig(order=1, bandwidth=h)
        vals = []
        sums = []
        for r in range(20):
            xs = substream(101, "lemma", n, r).random(n)
            w = equivalent_kernel_weights(cfg, xs, 0.5).weights
            vals.append(np.abs(w).max() * n * h)
            sums.append(np.abs(w).sum())
        constants.append(np.mean(vals))
        assert max(sums) < 10.0
    center = np.mean(constants)
    assert np.all(np.abs(np.array(constants) - center) <= 0.2 * center)


def test_config_validation():
    with pytest.raises(ValueError):
        LpeConfig(order=6, bandwidth=0.1)
    with pytest.raises(ValueError):
        LpeConfig(order=1, bandwidth=0.0)
    with pytest.raises(ValueError):
        LpeConfig(order=1, bandwidth=1.5)


@pytest.mark.parametrize("order", [1.5, 1.0, "1", None])
def test_config_refuses_an_order_that_is_not_an_integer(order):
    # 1.5 used to pass and fail later inside the engine
    with pytest.raises(TypeError, match="order must be an integer"):
        LpeConfig(order=order, bandwidth=0.1)


def test_config_accepts_a_numpy_integer_order():
    xs = np.linspace(0.0, 1.0, 30)
    fits = [fit_predict(LpeConfig(order=k, bandwidth=0.3), Dataset(xs=xs, ys=xs ** 2), 0.4)
            for k in (2, np.int64(2))]
    assert fits[0] == fits[1]


ACCURACY_QUERIES = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, 23)])


@pytest.mark.parametrize("n", [200, 4000])
@pytest.mark.parametrize("kernel", list(KERNELS.values()), ids=list(KERNELS))
def test_engine_matches_lstsq_oracle(kernel, n):
    """The batched engine against the lstsq oracle, orders 0-5, h down to 0.02.

    Any solver that goes through the normal equations (the engine, and the
    per-point direct solver before it) loses accuracy like eps * cond(Gram),
    and a fit's value is a combination sum_k W_k y_k whose own rounding
    scale is max|y| * sum_k |W_k|. So errors are measured on that scale:
    within 1e-10 (orders 0-3) or 1e-8 (orders 4-5) of it wherever
    cond(Gram) <= 1e8, and within 1e-14 * cond(Gram) of it everywhere. Ridged
    (degenerate) fits are not least-squares solutions and are checked in
    test_engine_ridges_singular_windows; their flag must follow the direct
    Gram's smallest eigenvalue wherever that is clear of the threshold.
    """
    rng = substream(3, "engine-accuracy", n)
    xs = rng.random(n)
    if n == 200:
        xs = np.round(xs, 2)  # ties, and points on window edges and lattice boundaries
    ys = np.sin(9 * xs) + rng.normal(size=n)
    design = sort_design(xs, ys)
    for order in range(6):
        tol = 1e-10 if order <= 3 else 1e-8
        for h in (0.02, 0.05, 0.2, 0.6):
            fit = local_fit(LpeConfig(order=order, bandwidth=h, kernel=kernel), design,
                            ACCURACY_QUERIES)
            for i, x0 in enumerate(ACCURACY_QUERIES):
                u = (xs - x0) / h
                k = kernel(u)
                keep = k > 0
                assert fit.supported[i] == keep.any()
                if not keep.any():
                    assert np.isnan(fit.values[i])
                    continue
                sw = np.sqrt(k[keep])
                root = np.vander(u[keep], N=order + 1, increasing=True) * sw[:, None]
                eig = np.linalg.eigvalsh(root.T @ root)[0]
                if not 0.5 * DEGENERATE_EIG <= eig <= 2.0 * DEGENERATE_EIG:
                    assert fit.degenerate[i] == (eig < DEGENERATE_EIG)
                if fit.degenerate[i]:
                    continue
                cond = np.linalg.cond(root) ** 2
                scale = np.abs(ys).max() * np.abs(np.linalg.pinv(root)[0] * sw).sum()
                err = abs(fit.values[i] - brute_force_lp(xs, ys, x0, order, h, kernel))
                assert err <= 1e-14 * cond * scale, (order, h, x0, err, cond)
                if cond <= 1e8:
                    assert err <= tol * scale, (order, h, x0, err, cond)


@pytest.mark.parametrize("kernel", list(KERNELS.values()), ids=list(KERNELS))
def test_engine_ridges_singular_windows(kernel):
    # a one-point window, and a window whose points share one x: every order >= 1
    # has a singular Gram, which must be flagged and ridged, and the ridged fit
    # tends to the minimum-norm least-squares value
    designs = [(np.array([0.1, 0.5, 0.9]), np.array([1.0, -2.0, 3.0]), 0.52),
               (np.array([0.2, 0.5, 0.5, 0.5, 0.8]), np.array([5.0, 1.0, 2.0, 4.0, -1.0]), 0.5)]
    for xs, ys, x0 in designs:
        design = sort_design(xs, ys)
        for order in range(6):
            fit = local_fit(LpeConfig(order=order, bandwidth=0.1, kernel=kernel), design, [x0])
            assert fit.supported[0]
            assert fit.degenerate[0] == (order >= 1)
            assert np.isfinite(fit.values[0])
            oracle = brute_force_lp(xs, ys, x0, order, 0.1, kernel)
            assert fit.values[0] == pytest.approx(oracle, rel=1e-6)
            w = equivalent_kernel_weights(LpeConfig(order=order, bandwidth=0.1, kernel=kernel),
                                          xs, x0)
            assert w.degenerate == (order >= 1)
            assert w.weights @ ys == pytest.approx(fit.values[0], rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(kernel=st.sampled_from(sorted(KERNELS)), order=st.integers(0, 5),
       h=st.sampled_from([0.01, 0.05, 0.3, 1.0]), n=st.integers(1, 3000),
       seed=st.integers(0, 2 ** 16), perm=st.permutations(range(41)),
       size=st.integers(1, 41))
@example(kernel="smooth_bump", order=2, h=1.0, n=3000, seed=0, perm=list(range(41)), size=5)
@example(kernel="epanechnikov", order=1, h=0.05, n=3000, seed=0, perm=list(range(41)), size=5)
def test_batch_composition_leaves_values_bit_identical(kernel, order, h, n, seed, perm, size):
    # every query's arithmetic is independent of the other queries in its batch
    rng = substream(seed, "batch-composition")
    xs = np.round(rng.random(n), 2)  # rounding makes ties and exact window edges common
    design = sort_design(xs, rng.normal(size=n))
    cfg = LpeConfig(order=order, bandwidth=h, kernel=get_kernel(kernel))
    grid = np.linspace(0.0, 1.0, 41)
    full = predict_grid(cfg, design, grid)
    pick = np.array(perm[:size])
    assert np.array_equal(predict_grid(cfg, design, grid[pick]), full[pick], equal_nan=True)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _stacked_designs(rng, count, n, far):
    # tie-heavy designs on a 0.01 lattice; design `far` sits in [0.95, 1] only,
    # so it has no support at queries below about 0.9 for small h
    xs = np.round(rng.random((count, n)), 2)
    if far is not None:
        xs[far] = np.round(0.95 + 0.05 * rng.random(n), 2)
    return xs, rng.normal(size=(count, n))


def _one_design(rng, n, far):
    # one tie-heavy design (n,); a far one sits in [0.95, 1] only
    xs, _ = _stacked_designs(rng, 1, n, 0 if far else None)
    return xs[0]


STACK_QUERIES = [np.array([0.5]), np.array([0.0, 0.3, 0.3, 0.77, 1.0]), np.linspace(0, 1, 9)]


@settings(max_examples=60, deadline=None)
@given(kernel=st.sampled_from(sorted(KERNELS)), order=st.integers(0, 5),
       h=st.sampled_from([0.01, 0.05, 0.3, 1.0]), count=st.integers(1, 8),
       n=st.integers(1, 400), seed=st.integers(0, 2 ** 16), far=st.booleans(),
       x0=st.sampled_from([0.0, 0.3, 0.5, 0.77, 1.0]))
@example(kernel="uniform", order=5, h=0.05, count=8, n=400, seed=0, far=True, x0=0.3)
def test_stacked_weights_equal_equivalent_kernel_weights(kernel, order, h, count, n, seed,
                                                         far, x0):
    rng = substream(seed, "stacked-weights")
    xs, ys = _stacked_designs(rng, count, n, count - 1 if far else None)
    cfg = LpeConfig(order=order, bandwidth=h, kernel=get_kernel(kernel))
    fit = _point_fit(cfg, xs, ys, x0)
    weights = fit.weights()
    assert weights.shape == xs.shape
    for d in range(count):
        one = _point_fit(cfg, xs[d], ys[d], x0)
        for field in ("values", "coef", "supported", "degenerate"):
            assert _same_bits(getattr(fit, field)[d], getattr(one, field)), (field, d)
        assert _same_bits(weights[d], one.weights())
        try:
            alone = equivalent_kernel_weights(cfg, xs[d], x0)
        except NoLocalSupport:
            assert not fit.supported[d]
            assert _same_bits(weights[d], np.zeros(n))
            continue
        assert _same_bits(weights[d], alone.weights)
        assert bool(fit.degenerate[d]) == alone.degenerate
    # the stack as a whole: every design must have support, and any ridged design flags it
    if not fit.supported.all():
        with pytest.raises(NoLocalSupport):
            equivalent_kernel_weights(cfg, xs, x0)
        return
    stacked = equivalent_kernel_weights(cfg, xs, x0)
    assert _same_bits(stacked.weights, weights)
    assert stacked.degenerate == bool(fit.degenerate.any())


@pytest.mark.parametrize("xs", [[[0.45, 0.5, 0.55], [0.9, 0.95, 0.99]],
                                [[0.9, 0.95, 0.99], [0.45, 0.5, 0.55]],
                                np.empty((2, 0)), []],
                         ids=["unsupported-last", "unsupported-first", "empty-designs",
                              "empty-design"])
def test_weights_need_support_in_every_design(xs):
    with pytest.raises(NoLocalSupport):
        equivalent_kernel_weights(LpeConfig(order=1, bandwidth=0.1), xs, 0.5)


def test_weights_of_a_stack_flag_any_ridged_design():
    cfg = LpeConfig(order=1, bandwidth=0.1)
    xs = np.array([[0.45, 0.5, 0.55], [0.5, 0.5, 0.5]])  # design 1 has a singular Gram
    w = equivalent_kernel_weights(cfg, xs, 0.5)
    assert w.degenerate and not equivalent_kernel_weights(cfg, xs[0], 0.5).degenerate
    assert equivalent_kernel_weights(cfg, xs[::-1], 0.5).degenerate
    assert equivalent_kernel_weights(cfg, np.empty((0, 3)), 0.5).weights.shape == (0, 3)


@settings(max_examples=60, deadline=None)
@given(kernel=st.sampled_from(sorted(KERNELS)), order=st.integers(0, 5),
       h=st.sampled_from([0.01, 0.05, 0.3, 1.0]), k=st.integers(1, 5), n=st.integers(1, 400),
       seed=st.integers(0, 2 ** 16), far=st.booleans(),
       queries=st.integers(0, len(STACK_QUERIES) - 1))
@example(kernel="smooth_bump", order=2, h=0.05, k=5, n=400, seed=1, far=True, queries=2)
@example(kernel="triangular", order=5, h=0.01, k=3, n=400, seed=0, far=False, queries=2)
def test_multi_response_fit_equals_one_response_fits(kernel, order, h, k, n, seed, far,
                                                      queries):
    # a design's k responses share the window, Gram and solve; each response's
    # values and NaN positions equal its one-response fit bit for bit
    rng = substream(seed, "multi-response")
    xs = _one_design(rng, n, far)
    ys = rng.normal(size=(k, n))
    cfg = LpeConfig(order=order, bandwidth=h, kernel=get_kernel(kernel))
    g = STACK_QUERIES[queries]
    multi = local_fit(cfg, sort_design(xs, ys), g)
    assert multi.values.shape == (k, g.size)
    for j in range(k):
        alone = local_fit(cfg, sort_design(xs, ys[j]), g)
        assert _same_bits(multi.values[j], alone.values), j
        for field in ("coef", "supported", "degenerate"):
            assert _same_bits(getattr(multi, field), getattr(alone, field)), (field, j)
    with pytest.raises(ValueError):
        sort_design(xs, ys[None])


# bandwidths on and next to the dyadic level boundaries 2^-k, h = 1.0 among them
LEVEL_H = sorted({0.01, 0.05, 0.3, 0.6, 1.0, 2.0 ** -7, 2.0 ** -5, 0.125, 0.25, 0.5,
                  np.nextafter(0.25, 0.0), np.nextafter(0.25, 1.0), np.nextafter(1.0, 0.0)})
CACHED_FIT = st.tuples(st.sampled_from(sorted(KERNELS)), st.integers(0, 5),
                       st.sampled_from(LEVEL_H), st.integers(0, len(STACK_QUERIES) - 1))


@settings(max_examples=60, deadline=None)
@given(fits=st.lists(CACHED_FIT, min_size=1, max_size=6), k=st.integers(-1, 3),
       n=st.integers(1, 300), seed=st.integers(0, 2 ** 16), far=st.booleans())
@example(fits=[("epanechnikov", 1, h, 2) for h in (1.0, 0.5, 0.25, 0.125, 0.125, 0.3, 0.01)],
         k=3, n=300, seed=0, far=False)
@example(fits=[("triangular", 5, 0.25, 0), ("uniform", 0, np.nextafter(0.25, 1.0), 1),
               ("triangular", 2, 0.3, 2), ("epanechnikov", 5, 0.25, 1)],
         k=0, n=300, seed=1, far=True)
def test_fits_over_a_cached_design_equal_fits_on_a_fresh_one(fits, k, n, seed, far):
    # a design that has served other bandwidths, orders, kernels and query sets
    # fits every h as a freshly sorted copy does, bit for bit; k = -1 means no
    # responses and k = 0 one response without a response axis
    rng = substream(seed, "cached-lattice")
    xs = _one_design(rng, n, far)
    ys = None if k < 0 else rng.normal(size=((k,) if k else ()) + xs.shape)
    cached = sort_design(xs, ys)
    for kernel, order, h, queries in fits:
        cfg = LpeConfig(order=order, bandwidth=h, kernel=get_kernel(kernel))
        g = STACK_QUERIES[queries]
        mine, fresh = local_fit(cfg, cached, g), local_fit(cfg, sort_design(xs, ys), g)
        assert len(cached._lattice) <= 1
        for field in ("values", "coef", "supported", "degenerate"):
            if getattr(fresh, field) is None:
                assert getattr(mine, field) is None
            else:
                assert _same_bits(getattr(mine, field), getattr(fresh, field)), (field, h)


@pytest.mark.parametrize("h, skewed", [(1e-5, False), (1e-3, True)])
def test_lattice_memory_stays_linear_in_n_at_small_h(h, skewed):
    # columns go to occupied cells alone, padded by at most a factor of two, so
    # neither a tiny h nor half the design on one point blows the lattice up
    rng = substream(5, "lattice-memory")
    xs = rng.random(4000)
    if skewed:
        xs[:2000] = 0.5
    design = sort_design(xs, rng.normal(size=4000))
    grid = np.linspace(0.05, 0.95, 101)
    tracemalloc.start()
    try:
        fit = local_fit(LpeConfig(order=1, bandwidth=h), design, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.supported.any()
    assert peak < 4e6, peak


def test_predict_grid_reports_ridged_fits():
    # a cubic on a 0.05 lattice with h = 0.06 sees at most three distinct x
    xs = np.round(substream(4, "ridged-grid").random(200) * 20.0) / 20.0
    design = sort_design(xs, np.stack([np.sin(xs), np.cos(xs)]))
    grid = np.linspace(0.05, 0.95, 19)
    ridged = []
    values = predict_grid(LpeConfig(order=3, bandwidth=0.06), design, grid, ridged=ridged)
    predict_grid(LpeConfig(order=1, bandwidth=0.3), design, grid, ridged=ridged)
    assert values.shape == (2, grid.size) and np.isfinite(values).all()
    assert ridged == [grid.size, 0]


# |sum_k W_k u_k^j - [j == 0]| is bounded by a small multiple of eps times
# the condition number of the local Gram matrix (a backward-stable solve of a
# Gram whose moments carry rounding errors of order eps); 1e4 leaves a wide
# margin over the factor 3 seen on 3000 random cases.
WEIGHT_TOL = 1e4 * np.finfo(float).eps


@settings(max_examples=80, deadline=None)
@given(kernel=st.sampled_from(sorted(KERNELS)), order=st.integers(0, 5),
       h=st.sampled_from([0.01, 0.05, 0.3, 1.0]), n=st.integers(1, 800),
       seed=st.integers(0, 2 ** 16), lattice=st.booleans(),
       x0=st.sampled_from([0.0, 0.3, 0.5, 0.77, 1.0]))
@example(kernel="epanechnikov", order=5, h=0.3, n=800, seed=0, lattice=False, x0=0.0)
def test_weight_invariants(kernel, order, h, n, seed, lattice, x0):
    # weights are exactly zero outside local_fit's window [lo, hi) of the sorted
    # design and, when the Gram was not ridged, reproduce polynomials of degree
    # <= order: the local moments sum_k W_k u_k^j are 1 for j = 0 (weights sum
    # to one) and 0 for 1 <= j <= order
    rng = substream(seed, "weight-invariants")
    xs = rng.random(n)
    if lattice:
        xs = np.round(xs, 2)
    cfg = LpeConfig(order=order, bandwidth=h, kernel=get_kernel(kernel))
    design = sort_design(xs)
    fit = local_fit(cfg, design, [x0])
    point = _point_fit(cfg, xs, None, x0)
    weights = point.weights()
    in_order = weights[np.argsort(xs, kind="stable")]
    (lo,), (hi,) = _window(cfg.kernel, design.xs, np.array([float(x0)]), h)
    assert np.all(in_order[:lo] == 0.0) and np.all(in_order[hi:] == 0.0)
    assert point.supported == fit.supported[0]
    if not point.supported or point.degenerate:
        return
    u = (xs - x0) / h
    basis = np.vander(u, order + 1, increasing=True)
    gram = (basis * cfg.kernel(u)[:, None]).T @ basis
    moments = weights @ basis
    target = np.eye(order + 1)[0]
    assert np.abs(moments - target).max() <= WEIGHT_TOL * np.linalg.cond(gram)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_point_fit_agrees_with_local_fit(kernel):
    # the point path sums every design point densely, local_fit its sorted window
    # by prefix sums or gathered windows; the support and ridge flags agree, and
    # so do the values, to within WEIGHT_TOL * cond(G) * max|y|
    rng = substream(3, "point-fit")
    xs = np.concatenate([rng.random(300), np.round(rng.random(100), 2)])
    ys = rng.normal(size=xs.size)
    design = sort_design(xs, ys)
    for order in range(6):
        for h in (0.01, 0.05, 0.15, 0.3, 1.0):
            cfg = LpeConfig(order=order, bandwidth=h, kernel=get_kernel(kernel))
            for x0 in (0.0, 0.03, 0.5, 0.77, 1.0):
                fit = local_fit(cfg, design, [x0])
                point = _point_fit(cfg, xs, ys, x0)
                assert point.supported == fit.supported[0], (order, h, x0)
                assert point.degenerate == fit.degenerate[0], (order, h, x0)
                if not point.supported:
                    assert np.isnan(point.values) and np.isnan(fit.values[0])
                    continue
                u = (xs - x0) / h
                basis = np.vander(u, order + 1, increasing=True)
                gram = (basis * cfg.kernel(u)[:, None]).T @ basis
                bound = WEIGHT_TOL * np.linalg.cond(gram) * np.abs(ys).max()
                assert abs(point.values - fit.values[0]) <= bound, (order, h, x0)


def test_point_weights_are_positive_zero_outside_the_window():
    # K(u) = 0 on both sides of the window, where the basis has either sign, and
    # on a design without support at x0: every such weight is +0.0, never -0.0 or NaN
    cfg = LpeConfig(order=2, bandwidth=0.1)
    xs = np.array([[0.1, 0.45, 0.5, 0.58, 0.9, 1.0], [0.0, 0.02, 0.05, 0.9, 0.95, 1.0]])
    fit = _point_fit(cfg, xs, None, 0.5)
    assert fit.supported.tolist() == [True, False]
    weights = fit.weights()
    zero = np.zeros(3)
    assert _same_bits(weights[0, [0, 4, 5]], zero) and np.all(weights[0, 1:4] != 0.0)
    assert _same_bits(weights[1], np.zeros(6))
    assert _same_bits(equivalent_kernel_weights(cfg, xs[0], 0.5).weights, weights[0])


def test_bandwidth_floor():
    assert LpeConfig(order=1, bandwidth=MIN_BANDWIDTH).bandwidth == 1e-12
    with pytest.raises(ValueError, match="at least 1e-12"):
        LpeConfig(order=1, bandwidth=np.nextafter(MIN_BANDWIDTH, 0.0))
    with pytest.raises(ValueError, match="at least 1e-12"):
        LpeConfig(order=1, bandwidth=2.0 ** -40)
    # at the floor the lattice still tells 0.3 from its neighbours: the fit at
    # each point is its own response (ridged for the three tied points)
    xs = np.array([0.1, 0.3, 0.3, 0.3, 0.7])
    ys = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    for kernel in KERNELS.values():
        for order in (0, 1):
            fit = local_fit(LpeConfig(order=order, bandwidth=MIN_BANDWIDTH, kernel=kernel),
                            sort_design(xs, ys), [0.1, 0.3, 0.5, 0.7])
            assert np.allclose(fit.values, [1.0, 3.0, np.nan, 5.0], rtol=1e-7, equal_nan=True)


@pytest.mark.parametrize("kernel", [k for k in KERNELS.values() if k.pieces],
                         ids=[name for name, k in KERNELS.items() if k.pieces])
def test_windows_lie_in_the_near_cells(kernel):
    """Every window point lies in a near cell the prefix path reads.

    The lattice has cells of width w = 2^-level, w/2 <= h < w; a query in
    cell l reads the cells l + _NEAR_CELLS[:-1]. Bandwidths sit on both ends
    of that range (h = 2^-k and the float just below), and queries and design
    points sit on cell edges j w and one ulp to either side of them, so the
    windows reach as far as rounding lets them. The prefix-path moments must
    also equal the gathered-window sums within the tolerance of
    test_engine_matches_lstsq_oracle, on the scale of the points of the cells
    a window touches, which any point left out of a near cell would break.
    """
    rng = substream(6, "near-cells")
    edges = np.arange(1025) / 1024  # every cell edge of the lattices below, w >= 2^-8
    xs = np.clip(np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
                                 rng.random(500)]), 0.0, 1.0)
    ys = rng.normal(size=xs.size)
    design = sort_design(xs, ys)
    ys2 = design.ys[None]  # the engine's (k, n)
    ymax = max(1.0, np.abs(ys).max())
    for k in range(9):
        for h in (2.0 ** -k, np.nextafter(2.0 ** -k, 0.0)):
            w = 2.0 ** math.frexp(h)[1]
            assert w / 2 <= h < w
            cell_edges = w * np.arange(int(1.0 / w) + 1)
            g = np.unique(np.clip(np.concatenate([cell_edges, np.nextafter(cell_edges, -1.0),
                                                  np.nextafter(cell_edges, 2.0)]), 0.0, 1.0))
            lo, hi = _window(kernel, design.xs, g, h)
            reached = hi > lo
            for order in range(6):
                p = order + 1
                moments, ymoments = _prefix_moments(kernel, design, design.xs, ys2, g, h, lo, hi,
                                                    p)
                lattice = design._lattice[0]
                assert math.ldexp(1.0, -lattice.level) == w, (h, lattice.level)
                cell = lattice.cell
                first, last = cell[np.minimum(lo, xs.size - 1)], cell[hi - 1]
                home = np.floor(g * math.ldexp(1.0, lattice.level))
                assert np.all(first[reached] >= home[reached] + _NEAR_CELLS[0, 0]), (h, order)
                assert np.all(last[reached] <= home[reached] + _NEAR_CELLS[-2, 0]), (h, order)
                gathered, ygathered = _window_moments(kernel, design.xs, ys2, g, h, lo, hi, p)
                points = np.searchsorted(cell, last, "right") - np.searchsorted(cell, first, "left")
                scale = np.where(reached, points, 0) * ymax * (1e-10 if order <= 3 else 1e-8)
                assert np.all(np.abs(moments - gathered) <= scale), (h, order)
                assert np.all(np.abs(ymoments - ygathered) <= scale), (h, order)


@settings(max_examples=80, deadline=None)
@given(count=st.integers(1, 4), n=st.integers(0, 400), seed=st.integers(0, 2 ** 16),
       ties=st.booleans(),
       specials=st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]), max_size=6))
@example(count=2, n=300, seed=0, ties=True, specials=[])
@example(count=2, n=300, seed=0, ties=False, specials=[])
@example(count=3, n=200, seed=1, ties=False, specials=[0.0, -0.0, 1.0])
def test_sort_design_equals_the_stable_sort(count, n, seed, ties, specials):
    rng = substream(seed, "sort-design")
    xs = rng.random((count, n))
    if ties:
        xs = np.round(xs, 2)
    if n and specials:
        xs[np.arange(count)[:, None], rng.integers(0, n, (count, len(specials)))] = specials
    ys = rng.normal(size=(2, count, n))
    for d in range(count):  # one design at a time, with two responses and with one
        for x, y in ((xs[d], ys[:, d]), (xs[d], ys[0, d])):
            design = sort_design(x, y)
            order = np.argsort(x, kind="stable")
            assert _same_bits(design.xs, x[order])
            assert _same_bits(design.ys, y[..., order])
    # a stack of designs, or responses that do not fit the design, is refused
    with pytest.raises(ValueError, match=r"one row of points \(n,\), got xs of shape"):
        sort_design(xs, ys[0])
    with pytest.raises(ValueError, match=r"one row of points \(n,\), got xs of shape"):
        predict_grid(LpeConfig(order=1, bandwidth=0.2), Dataset(xs=xs, ys=ys[0]), [0.5])
    for y in (np.append(ys[0, 0], 0.0), np.zeros((2, n + 1)), ys[:, :1]):
        with pytest.raises(ValueError, match=r"does not fit xs of shape"):
            sort_design(xs[0], y)


def _left_to_right_moments(kernel, xs, ys, g, h, lo, hi, p):
    """Window moments as plain Python float sums, point by point from 0.0."""
    k = 0 if ys is None else len(ys)
    moments, ymoments = [], []
    for i, x0 in enumerate(g):
        window = slice(lo[i], hi[i])
        u = (xs[window] - x0) / h
        acc, yacc = [0.0] * (2 * p - 1), [[0.0] * k for _ in range(p)]
        for t, (weight, ut) in enumerate(zip(kernel(u).tolist(), u.tolist())):
            term = weight
            for j in range(2 * p - 1):
                if j:
                    term *= ut
                acc[j] += term
                if j < p:
                    for r in range(k):
                        yacc[j][r] += term * float(ys[r, window][t])
        moments.append(acc)
        ymoments.append(yacc)
    return np.array(moments).T, None if ys is None else np.moveaxis(np.array(ymoments), 0, -1)


@pytest.mark.parametrize("chunk", [64, 1000, local_poly.CHUNK_ELEMENTS])
@pytest.mark.parametrize("count,m,k", [(1, 1, 0), (1, 1, 1), (1, 40, 1), (3, 7, 1), (2, 9, 3),
                                       (1, 25, 0)])
def test_gathered_moments_are_left_to_right_sums(monkeypatch, chunk, count, m, k):
    """Each window of the gathered path is summed in order, however the call is cut.

    Chunks of 64 and 1000 elements cut a call into passes of one to a few
    dozen queries and blocks of 2 to 41 offsets; the windows here hold 9 to
    133 points, so most span several blocks. Each of the `count` designs is
    fitted in a call of its own.
    """
    monkeypatch.setattr(local_poly, "CHUNK_ELEMENTS", chunk)
    rng = substream(count * 100 + m, "left-to-right", k)
    xs = np.sort(np.round(rng.random((count, 150)), 2), axis=-1)  # ties on a 0.01 grid
    ys = rng.normal(size=(k, count, 150)) if k else None
    g = np.round(rng.random(m), 3)
    kernel = get_kernel("smooth_bump")
    for d in range(count):
        y = None if ys is None else ys[:, d]
        for h in (0.15, 0.8):
            lo, hi = _window(kernel, xs[d], g, h)
            assert (hi - lo).max() > 8
            for p in (1, 3, 6):
                moments, ymoments = _window_moments(kernel, xs[d], y, g, h, lo, hi, p)
                expected, yexpected = _left_to_right_moments(kernel, xs[d], y, g, h, lo, hi, p)
                assert _same_bits(moments, expected), (d, h, p)
                if k:
                    assert _same_bits(np.ascontiguousarray(ymoments), yexpected), (d, h, p)
                else:
                    assert ymoments is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_design_points_outside_the_unit_interval_are_refused():
    # refused before any arithmetic: 1e200 and 1e300 would overflow (x - g)/h at h = 1e-12
    xs = np.round(substream(4, "far-points").random(60), 2)
    ys = np.sin(5 * xs)
    g = np.linspace(0.0, 1.0, 21)
    message = r"design points must lie in \[0, 1\]"
    for far in (np.nan, np.inf, -np.inf, -0.5, 1.5, 1e200, 1e300):
        bad = np.append(xs, far)
        for kernel in KERNELS.values():
            for h in (MIN_BANDWIDTH, 1.0):
                cfg = LpeConfig(order=2, bandwidth=h, kernel=kernel)
                with pytest.raises(ValueError, match=message):
                    local_fit(cfg, sort_design(bad, np.append(ys, 1.0)), g)
                with pytest.raises(ValueError, match=message):
                    equivalent_kernel_weights(cfg, bad, 0.5)
                with pytest.raises(ValueError, match=message):  # one bad design of a stack
                    equivalent_kernel_weights(cfg, np.stack([np.append(xs, 0.5), bad]), 0.5)
