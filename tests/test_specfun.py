"""Special-function oracles: mpmath, at 30 digits, is the independent
reference (scipy.special is the implementation under test)."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_scatter.errors import SingularityError
from layered_scatter.specfun import (
    bessel_j0j1_y0y1_arrays,
    fundamental_solution,
    fundamental_solution_grad,
    grad_phi_matrix,
    hankel1_0,
    hankel1_1,
    phi_matrix,
)


def _mp(fn, nu, x):
    """mpmath J_nu or Y_nu (fn = mpmath.besselj / bessely) at 30 digits,
    elementwise over x, rounded to double."""
    with mpmath.workdps(30):
        return np.array([float(fn(nu, mpmath.mpf(float(v)))) for v in x])


def _mp_hankel1(nu, x):
    with mpmath.workdps(30):
        return complex(mpmath.hankel1(nu, mpmath.mpf(float(x))))


def test_bessel_values_against_mpmath():
    x = np.concatenate([np.geomspace(1e-6, 12.0, 200),
                        np.linspace(12.0, 1000.0, 200)])
    j0, j1, y0, y1 = bessel_j0j1_y0y1_arrays(x)
    assert np.max(np.abs(j0 - _mp(mpmath.besselj, 0, x))) < 1e-13
    assert np.max(np.abs(j1 - _mp(mpmath.besselj, 1, x))) < 1e-13
    # Y0/Y1 grow near zero; compare relative to their magnitude
    ref0, ref1 = _mp(mpmath.bessely, 0, x), _mp(mpmath.bessely, 1, x)
    assert np.max(np.abs(y0 - ref0) / np.maximum(np.abs(ref0), 1.0)) < 1e-13
    assert np.max(np.abs(y1 - ref1) / np.maximum(np.abs(ref1), 1.0)) < 1e-13


def test_wronskian_identity():
    # J1(x) Y0(x) - J0(x) Y1(x) = 2/(pi x), sharp across the branch switch
    x = np.geomspace(1e-4, 500.0, 400)
    j0, j1, y0, y1 = bessel_j0j1_y0y1_arrays(x)
    wron = j1 * y0 - j0 * y1
    assert np.max(np.abs(wron - 2.0 / (np.pi * x)) * x) < 1e-11


def test_branch_switch_is_smooth():
    vals = bessel_j0j1_y0y1_arrays(np.array([12.0 - 1e-9, 12.0 + 1e-9]))
    assert np.allclose(*np.transpose(vals), atol=1e-9)


def test_hankel_wrappers():
    assert hankel1_0(2.0) == pytest.approx(_mp_hankel1(0, 2.0), abs=1e-11)
    assert hankel1_1(2.0) == pytest.approx(_mp_hankel1(1, 2.0), abs=1e-11)
    x = np.geomspace(1e-3, 40.0, 101)
    j0, _, y0, _ = bessel_j0j1_y0y1_arrays(x)
    assert hankel1_0(x).tobytes() == (j0 + 1j * y0).tobytes()


def test_nonpositive_argument_rejected():
    with pytest.raises(SingularityError):
        bessel_j0j1_y0y1_arrays(np.array([0.0]))
    with pytest.raises(SingularityError):
        bessel_j0j1_y0y1_arrays(np.array([1.0, -2.0]))
    for x in (0.0, np.array([1.0, -2.0])):
        with pytest.raises(SingularityError):
            hankel1_0(x)


def test_fundamental_solution_value_and_singularity():
    x, y = (1.0, 2.0), (0.0, 0.5)
    r = np.hypot(1.0, 1.5)
    expected = 0.25j * _mp_hankel1(0, 1.3 * r)
    assert fundamental_solution(1.3, x, y) == pytest.approx(expected,
                                                            abs=1e-11)
    with pytest.raises(SingularityError):
        fundamental_solution(1.3, x, x)


@pytest.mark.parametrize("ell", [1, 2])
def test_gradient_matches_finite_difference(ell):
    kappa = 1.7
    x, y = (0.8, -0.4), (-0.3, 0.9)
    h = 1e-6
    e = (h, 0.0) if ell == 1 else (0.0, h)
    fd = (fundamental_solution(kappa, (x[0] + e[0], x[1] + e[1]), y)
          - fundamental_solution(kappa, (x[0] - e[0], x[1] - e[1]), y)) \
        / (2.0 * h)
    assert fundamental_solution_grad(kappa, x, y, ell) == pytest.approx(
        fd, rel=1e-8)


def test_grad_phi_matrix_consistent_with_scalar():
    kappa = 2.1
    dx = np.array([[0.5, -0.2], [1.0, 0.7]])
    r = np.hypot(dx[:, 0], dx[:, 1])
    g = grad_phi_matrix(kappa, dx, r)
    for i in range(2):
        for ell in (1, 2):
            scalar = fundamental_solution_grad(kappa, dx[i], (0.0, 0.0), ell)
            assert g[i, ell - 1] == pytest.approx(scalar, rel=1e-11)


def test_phi_matrix_shape_preserved():
    r = np.array([[0.5, 1.0], [2.0, 3.0]])
    out = phi_matrix(1.2, r)
    assert out.shape == r.shape
    assert out[0, 1] == pytest.approx(0.25j * _mp_hankel1(0, 1.2), abs=1e-11)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(min_value=1e-4, max_value=900.0))
def test_wronskian_property(x):
    j0, j1, y0, y1 = (a[0] for a in bessel_j0j1_y0y1_arrays(np.array([x])))
    assert abs((j1 * y0 - j0 * y1) * np.pi * x / 2.0 - 1.0) < 1e-9
