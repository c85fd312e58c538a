"""Bessel functions of orders 0 and 1 and the 2D Helmholtz fundamental
solution Phi_kappa = (i/4) H0^(1)(kappa r) with its gradient.

All arguments are real and positive (kappa * r with kappa > 0), so no
complex-argument Bessel machinery is needed: J0, J1, Y0 and Y1 come from
scipy.special (Cephes).  phi_matrix asks for J0 and Y0 only; every entry
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


def phi_matrix(kappa, r) -> np.ndarray:
    """(i/4) H0^(1)(kappa r) over an array of positive distances."""
    x = kappa * np.asarray(r, dtype=float)
    if np.any(x <= 0.0):
        raise SingularityError("Bessel functions require x > 0")
    return 0.25j * (scipy.special.j0(x) + 1j * scipy.special.y0(x))


def grad_phi_matrix(kappa, dx: np.ndarray, r) -> np.ndarray:
    """Gradient of Phi_kappa w.r.t. the first argument,
    -(i kappa / 4) H1^(1)(kappa r) (x - y) / r.

    dx has shape (..., 2) holding x - y; r the matching distances.
    """
    _, j1, _, y1 = bessel_j0j1_y0y1_arrays(kappa * np.asarray(r, float))
    fac = -0.25j * kappa * (j1 + 1j * y1) / r
    return fac[..., None] * dx
