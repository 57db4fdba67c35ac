import warnings

import numpy as np
import pytest
from scipy import integrate

from rupsim import EPANECHNIKOV, KERNELS, SMOOTH_BUMP, TRIANGULAR, UNIFORM, get_kernel


@pytest.mark.parametrize("kernel", list(KERNELS.values()), ids=sorted(KERNELS))
def test_nonnegative_and_zero_outside_support(kernel):
    u = np.linspace(-2.0, 2.0, 4001)
    vals = kernel(u)
    assert np.all(vals >= 0.0)
    outside = np.abs(u) > kernel.support
    assert np.all(vals[outside] == 0.0)


def test_epanechnikov_values():
    assert EPANECHNIKOV(0.0) == 0.75
    assert EPANECHNIKOV(0.5) == 0.75 * 0.75
    assert EPANECHNIKOV(1.0) == 0.0
    # integrates to one on its support
    total, _ = integrate.quad(lambda u: float(EPANECHNIKOV(u)), -1, 1)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_uniform_and_triangular_values():
    assert UNIFORM(0.3) == 0.5
    assert TRIANGULAR(0.0) == 1.0
    assert TRIANGULAR(-0.25) == 0.75


def test_smooth_bump_formula_and_support():
    u = np.linspace(-0.49, 0.49, 201)
    expected = np.exp(1.0 - 1.0 / (1.0 - (2.0 * u) ** 2))
    assert np.allclose(SMOOTH_BUMP(u), expected, atol=1e-15)
    assert SMOOTH_BUMP(0.0) == 1.0
    assert SMOOTH_BUMP(0.5) == 0.0
    assert SMOOTH_BUMP(0.75) == 0.0
    # smooth vanishing at the support edge
    assert SMOOTH_BUMP(0.4999) < 1e-300 or SMOOTH_BUMP(0.4999) >= 0.0


def _smooth_bump_formula(u):
    inside = np.abs(u) < 0.5
    v = 2.0 * np.where(inside, u, 0.0)
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - v * v)), 0.0)


def test_smooth_bump_has_the_formula_bits():
    edges = np.array([0.5, -0.5, 0.0, -0.0, np.inf, -np.inf, np.nan])
    near = np.concatenate([np.nextafter(edges[:2], 0.0), np.nextafter(edges[:2], edges[:2] * 2),
                           0.5 - np.arange(1, 65) * 2.0 ** -54, np.nextafter(0.0, [1.0, -1.0])])
    u = np.concatenate([np.linspace(-0.75, 0.75, 60001), edges, near, -near])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for shaped in (u, u[:16000].reshape(32, 500), u[-12:].reshape(3, 4)):
            got, want = SMOOTH_BUMP(shaped), _smooth_bump_formula(shaped)
            assert got.shape == shaped.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for x in edges:
            got, want = SMOOTH_BUMP(x), _smooth_bump_formula(np.asarray(x))
            assert got.view(np.uint64) == want.view(np.uint64)


def test_get_kernel():
    assert get_kernel("epanechnikov") is EPANECHNIKOV
    with pytest.raises(KeyError):
        get_kernel("gaussian")


@pytest.mark.parametrize("kernel", [k for k in KERNELS.values() if k.pieces is not None],
                         ids=[name for name, k in KERNELS.items() if k.pieces is not None])
def test_polynomial_pieces_match_kernel(kernel):
    left, right = kernel.pieces
    u = np.linspace(-kernel.support, kernel.support, 2001)[1:-1]
    pieces = np.where(u < 0, np.polyval(left[::-1], u), np.polyval(right[::-1], u))
    assert np.allclose(kernel(u), pieces, rtol=0.0, atol=1e-15)


def test_smooth_bump_is_not_piecewise_polynomial():
    assert SMOOTH_BUMP.pieces is None
