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
    grad_phi_matrix,
    phi_matrix,
)


def _mp(fn, nu, x):
    """mpmath J_nu or Y_nu (fn = mpmath.besselj / bessely) at 30 digits,
    elementwise over x, rounded to double."""
    with mpmath.workdps(30):
        return np.array([float(fn(nu, mpmath.mpf(float(v)))) for v in x])


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


def _mp_phi(kappa, r):
    """Phi_kappa at distance r, (i/4) H0^(1)(kappa r), at 30 digits."""
    with mpmath.workdps(30):
        return complex(0.25j * mpmath.hankel1(0, mpmath.mpf(kappa)
                                              * mpmath.mpf(float(r))))


def _mp_grad_phi(kappa, d):
    """Gradient of Phi_kappa at x - y = d, -(i kappa/4) H1^(1)(kappa r)
    d / r, at 30 digits."""
    with mpmath.workdps(30):
        d1, d2 = mpmath.mpf(float(d[0])), mpmath.mpf(float(d[1]))
        r = mpmath.sqrt(d1 * d1 + d2 * d2)
        fac = -0.25j * mpmath.mpf(kappa) * mpmath.hankel1(1, kappa * r) / r
        return np.array([complex(fac * d1), complex(fac * d2)])


def test_phi_matrices_match_mpmath_hankel():
    r = np.geomspace(1e-3, 40.0, 101)
    got = phi_matrix(1.0, r)
    ref = np.array([_mp_phi(1.0, v) for v in r])
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(np.abs(ref), 1.0))
    d = np.stack([r * np.cos(3.0 * r), r * np.sin(3.0 * r)], axis=-1)
    grad = grad_phi_matrix(1.0, d, r)
    ref = np.array([_mp_grad_phi(1.0, v) for v in d])
    assert np.all(np.abs(grad - ref)
                  <= 1e-14 * np.maximum(np.abs(ref), 1.0))
    # Phi is (i/4) (J0 + i Y0) on the Bessel arrays' own J0 and Y0
    j0, _, y0, _ = bessel_j0j1_y0y1_arrays(r)
    assert got.tobytes() == (0.25j * (j0 + 1j * y0)).tobytes()


def test_nonpositive_argument_rejected():
    with pytest.raises(SingularityError):
        bessel_j0j1_y0y1_arrays(np.array([0.0]))
    with pytest.raises(SingularityError):
        bessel_j0j1_y0y1_arrays(np.array([1.0, -2.0]))
    for r in (0.0, np.array([1.0, -2.0])):
        with pytest.raises(SingularityError):
            phi_matrix(1.0, r)
        with pytest.raises(SingularityError):
            grad_phi_matrix(1.0, np.ones(np.shape(r) + (2,)), r)


def test_fundamental_solution_value_and_singularity():
    # one point pair, (1, 2) and (0, 0.5), and a point with itself
    r = np.hypot(1.0, 1.5)
    got = phi_matrix(1.3, r)
    assert np.ndim(got) == 0 and abs(got - _mp_phi(1.3, r)) <= 1e-14
    with pytest.raises(SingularityError):
        phi_matrix(1.3, 0.0)


@pytest.mark.parametrize("ell", [1, 2])
def test_gradient_matches_finite_difference(ell):
    kappa = 1.7
    d = np.array([1.1, -1.3])
    h = 1e-6
    e = np.array([h, 0.0] if ell == 1 else [0.0, h])
    fd = (phi_matrix(kappa, np.hypot(*(d + e)))
          - phi_matrix(kappa, np.hypot(*(d - e)))) / (2.0 * h)
    got = grad_phi_matrix(kappa, d, np.hypot(*d))[ell - 1]
    assert got == pytest.approx(fd, rel=1e-8)
    assert got == pytest.approx(_mp_grad_phi(kappa, d)[ell - 1], rel=1e-14)


def test_grad_phi_matrix_consistent_with_scalar():
    # each entry of the array form equals the one-point value, which is
    # mpmath's at 30 digits
    kappa = 2.1
    dx = np.array([[0.5, -0.2], [1.0, 0.7]])
    r = np.hypot(dx[:, 0], dx[:, 1])
    g = grad_phi_matrix(kappa, dx, r)
    for i in range(2):
        scalar = grad_phi_matrix(kappa, dx[i], r[i])
        assert scalar.tobytes() == g[i].tobytes()
        assert np.all(np.abs(scalar - _mp_grad_phi(kappa, dx[i]))
                      <= 1e-13 * np.abs(scalar))


def test_phi_matrix_shape_preserved():
    r = np.array([[0.5, 1.0], [2.0, 3.0]])
    out = phi_matrix(1.2, r)
    assert out.shape == r.shape
    assert out[0, 1] == pytest.approx(_mp_phi(1.2, 1.0), abs=1e-11)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(min_value=1e-4, max_value=900.0))
def test_wronskian_property(x):
    j0, j1, y0, y1 = (a[0] for a in bessel_j0j1_y0y1_arrays(np.array([x])))
    assert abs((j1 * y0 - j0 * y1) * np.pi * x / 2.0 - 1.0) < 1e-9
