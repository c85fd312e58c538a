"""Bessel/Hankel functions of orders 0 and 1 and the 2D Helmholtz
fundamental solution.

All arguments are real and positive (kappa * r with kappa > 0), so no
complex-argument Bessel machinery is needed: J0, J1, Y0 and Y1 come from
scipy.special (Cephes).  hankel1_0 asks for J0 and Y0 only; every entry
point rejects x <= 0.  The test suite checks them against mpmath and the
Wronskian identity.
"""

from __future__ import annotations

import numpy as np
import scipy.special

from .errors import SingularityError

EULER_GAMMA = 0.5772156649015329


def bessel_j0j1_y0y1_arrays(x: np.ndarray):
    """Vectorized (J0, J1, Y0, Y1) for a positive real array."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise SingularityError("Bessel functions require x > 0")
    return (scipy.special.j0(x), scipy.special.j1(x), scipy.special.y0(x),
            scipy.special.y1(x))


def hankel1_0(x):
    """H0^(1)(x) = J0(x) + i Y0(x), vectorized over positive x."""
    z = np.atleast_1d(np.asarray(x, float))
    if np.any(z <= 0.0):
        raise SingularityError("Bessel functions require x > 0")
    h = scipy.special.j0(z) + 1j * scipy.special.y0(z)
    return h if np.ndim(x) else complex(h[0])


def hankel1_1(x):
    """H1^(1)(x) = J1(x) + i Y1(x), vectorized over positive x."""
    _, j1, _, y1 = bessel_j0j1_y0y1_arrays(np.atleast_1d(np.asarray(x, float)))
    h = j1 + 1j * y1
    return h if np.ndim(x) else complex(h[0])


def fundamental_solution(kappa: float, x, y) -> complex:
    """Free-space outgoing fundamental solution (i/4) H0^(1)(kappa |x-y|)."""
    r = float(np.hypot(x[0] - y[0], x[1] - y[1]))
    if r == 0.0:
        raise SingularityError("fundamental solution evaluated at its source")
    return 0.25j * hankel1_0(kappa * r)


def fundamental_solution_grad(kappa: float, x, y, ell: int) -> complex:
    """Derivative of the fundamental solution in the x_ell direction.

    Equals -(i kappa / 4) H1^(1)(kappa r) (x_ell - y_ell) / r and is
    antisymmetric under differentiation in y_ell instead.
    """
    if ell not in (1, 2):
        raise ValueError("ell must be 1 or 2")
    d = (x[0] - y[0], x[1] - y[1])
    r = float(np.hypot(d[0], d[1]))
    if r == 0.0:
        raise SingularityError("gradient evaluated at its source")
    if d[ell - 1] == 0.0:
        return 0.0 + 0.0j
    return -0.25j * kappa * hankel1_1(kappa * r) * d[ell - 1] / r


def phi_matrix(kappa: float, r: np.ndarray) -> np.ndarray:
    """(i/4) H0^(1)(kappa r) over an array of positive distances."""
    shape = r.shape
    h = hankel1_0(kappa * np.ravel(r))
    return (0.25j * h).reshape(shape)


def grad_phi_matrix(kappa: float, dx: np.ndarray, r: np.ndarray):
    """Gradient of Phi_kappa w.r.t. the first argument.

    dx has shape (..., 2) holding x - y; r the matching distances.
    """
    h1 = hankel1_1(kappa * np.ravel(r)).reshape(r.shape)
    fac = -0.25j * kappa * h1 / r
    return fac[..., None] * dx
