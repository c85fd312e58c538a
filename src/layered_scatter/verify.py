"""Independent verification oracles.

Everything here is deliberately built on code paths that the main solvers
do not use (scipy's general-order jv/hankel1 rather than the order-0/1
j0/j1/y0/y1 the solver uses, separation-of-variables series, plain
finite-difference stencils), so agreement between an oracle and the
pipeline is evidence, not circularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import h1vp, hankel1, jv, jvp

from .errors import AccuracyError, GeometryError

_SERIES_TOL = 1e-12
_MAX_MODES = 200


# ---------------------------------------------------------------------------
# Helmholtz stencil probe
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StencilProbe:
    """5-point Laplacian probe at a fixed center, step and wavenumber."""

    center: tuple
    h: float
    kappa: float

    def points(self) -> np.ndarray:
        cx, cy = self.center
        h = self.h
        return np.array([(cx, cy), (cx + h, cy), (cx - h, cy),
                         (cx, cy + h), (cx, cy - h)])


def helmholtz_residual(fieldfn: Callable, probe: StencilProbe) -> float:
    """|Delta_h u + kappa^2 u| at the probe center for a field callable.

    fieldfn maps a point (2-sequence) to a complex value; vectorized
    callables accepting an (n, 2) array are used directly.
    """
    pts = probe.points()
    try:
        vals = np.asarray(fieldfn(pts), dtype=complex)
        if vals.shape != (5,):
            raise TypeError
    except TypeError:
        vals = np.array([fieldfn(p) for p in pts], dtype=complex)
    lap = (vals[1] + vals[2] + vals[3] + vals[4] - 4.0 * vals[0]) / probe.h ** 2
    return float(abs(lap + probe.kappa ** 2 * vals[0]))


def stencil_convergence_ratio(fieldfn: Callable, center, h: float,
                              kappa: float) -> float:
    """Residual ratio between steps h and h/2 (≈4 for second order)."""
    r1 = helmholtz_residual(fieldfn, StencilProbe(tuple(center), h, kappa))
    r2 = helmholtz_residual(fieldfn, StencilProbe(tuple(center), 0.5 * h, kappa))
    if r2 == 0.0:
        return np.inf
    return r1 / r2


# ---------------------------------------------------------------------------
# Mie-type series for a circle under point-source incidence
# ---------------------------------------------------------------------------
def _polar(p, center):
    d = np.asarray(p, float) - np.asarray(center, float)
    return float(np.hypot(d[0], d[1])), float(np.arctan2(d[1], d[0]))


def mie_series_circle(kind: str, a: float, kappa: float, source, x,
                      n: complex = None, center=(0.0, 0.0),
                      truncation: int = _MAX_MODES,
                      lam: float = 0.0) -> complex:
    """Scattered field of a circle |y - center| = a in free space under
    point-source incidence Phi_kappa(., source), by separation of variables.

    kind "sound_soft": u = 0 on the circle; "neumann": du/dnu = 0;
    "impedance": du/dnu + i lam u = 0; "penetrable": transmission into
    interior wavenumber kappa*sqrt(n).
    The series coefficients multiply H_m(kappa r) H_m(kappa r_s), using the
    addition theorem for the incident field.
    """
    rs, ths = _polar(source, center)
    r, th = _polar(x, center)
    if rs <= a:
        raise GeometryError("source must lie outside the circle")
    ka = kappa * a
    total = 0.0 + 0.0j
    for m in range(truncation + 1):
        if kind == "sound_soft":
            c = -jv(m, ka) / hankel1(m, ka)
        elif kind == "neumann":
            c = -jvp(m, ka) / h1vp(m, ka)
        elif kind == "impedance":
            c = -(kappa * jvp(m, ka) + 1j * lam * jv(m, ka)) \
                / (kappa * h1vp(m, ka) + 1j * lam * hankel1(m, ka))
        elif kind == "penetrable":
            if n is None:
                raise ValueError("penetrable series needs the index n")
            ki = kappa * np.sqrt(complex(n))
            # match value and radial derivative of J_m(ki r) inside against
            # J_m(k r) + c H_m(k r) outside
            det = (kappa * h1vp(m, ka) * jv(m, ki * a)
                   - ki * jvp(m, ki * a) * hankel1(m, ka))
            num = (ki * jvp(m, ki * a) * jv(m, ka)
                   - kappa * jvp(m, ka) * jv(m, ki * a))
            c = num / det
        else:
            raise ValueError(f"unknown circle kind {kind!r}")
        term = 0.25j * c * hankel1(m, kappa * r) * hankel1(m, kappa * rs) \
            * np.cos(m * (th - ths))
        if m > 0:
            term = 2.0 * term
        total += term
        if m > 10 and abs(term) < _SERIES_TOL * max(1.0, abs(total)):
            return complex(total)
    raise AccuracyError("circle series did not converge",
                        value=complex(total))


def mie_interior_circle(a: float, kappa: float, n: complex, source, x,
                        center=(0.0, 0.0),
                        truncation: int = _MAX_MODES) -> complex:
    """Total field inside a penetrable circle, companion to the series above."""
    rs, ths = _polar(source, center)
    r, th = _polar(x, center)
    ki = kappa * np.sqrt(complex(n))
    ka = kappa * a
    total = 0.0 + 0.0j
    for m in range(truncation + 1):
        det = (kappa * h1vp(m, ka) * jv(m, ki * a)
               - ki * jvp(m, ki * a) * hankel1(m, ka))
        # interior coefficient from the same 2x2 transmission system;
        # the Wronskian J_m(z)H_m'(z) - J_m'(z)H_m(z) = 2i/(pi z) collapses
        # the numerator to 2i/(pi a)
        alpha = 2.0j / (np.pi * a * det)
        term = 0.25j * alpha * jv(m, ki * r) * hankel1(m, kappa * rs) \
            * np.cos(m * (th - ths))
        if m > 0:
            term = 2.0 * term
        total += term
        if m > 10 and abs(term) < _SERIES_TOL * max(1.0, abs(total)):
            return complex(total)
    raise AccuracyError("interior circle series did not converge",
                        value=complex(total))

