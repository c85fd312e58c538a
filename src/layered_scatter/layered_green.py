"""Green's function of a two-layer medium separated by the flat interface
x2 = 0, for monopole and dipole point sources.

The scattered/transmitted part is a Fourier integral over the horizontal
wavenumber xi.  With beta_j = sqrt(kappa_j^2 - xi^2) (upper branch), the
kernels are, writing d = x1 - xs1 and suppressing e^{i xi d}:

monopole, both points upper   (i/4pi) (1/b1) (b1-b2)/(b1+b2) e^{i b1 (x2+xs2)}
monopole, x lower / xs upper  (i/2pi) 1/(b1+b2) e^{i(b1 xs2 - b2 x2)}
monopole, x upper / xs lower  (i/2pi) 1/(b1+b2) e^{i(b1 x2 - b2 xs2)}
monopole, both points lower   (i/4pi) (1/b2) (b2-b1)/(b1+b2) e^{-i b1 (x2+xs2)}

The horizontal dipole (direction 1) multiplies each kernel by xi and the
prefactor by 1/i, making the integrand odd (a sine transform).  The
vertical dipole (direction 2) differentiates the exponential instead,
trading the 1/beta factor for a beta factor on the cross-side cases.

The total field adds the free-space term only when both points lie in the
same half-plane; the cross-side "scattered" part *is* the transmitted
total field.  Points exactly on the interface are rejected, and cross-side
evaluation requires a minimal vertical separation because those kernels
decay only through their exponential factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import GeometryError, SingularityError
from .quad import DecayClass, fold_integrate_batch
from .specfun import fundamental_solution, fundamental_solution_grad

#: Minimal total vertical separation |x2| + |xs2| for cross-side kernels.
H_MIN = 1e-6


def beta(xi, kappa: float):
    """Vertical wavenumber sqrt(kappa^2 - xi^2) with Re >= 0, Im >= 0.

    The principal square root of kappa^2 - xi^2 + 0j lands on the correct
    branch automatically: positive real in the propagating band, positive
    imaginary in the evanescent band.
    """
    xi = np.asarray(xi, dtype=float)
    val = np.sqrt(kappa * kappa - xi * xi + 0.0j)
    return val if val.ndim else complex(val)


@dataclass(frozen=True)
class MediumParams:
    """Wavenumbers of the upper (kappa1) and lower (kappa2) half-planes."""

    kappa1: float
    kappa2: float

    def __post_init__(self):
        if not (self.kappa1 > 0.0 and self.kappa2 > 0.0):
            raise ValueError("wavenumbers must be positive")
        if not (np.isfinite(self.kappa1) and np.isfinite(self.kappa2)):
            raise ValueError("wavenumbers must be finite")

    @property
    def eta(self) -> float:
        """Contrast kappa2^2 - kappa1^2 driving the volume equations."""
        return self.kappa2 ** 2 - self.kappa1 ** 2

    def kappa_at(self, x2: float) -> float:
        """Background wavenumber of the half-plane containing height x2."""
        return self.kappa1 if x2 > 0.0 else self.kappa2


@dataclass(frozen=True)
class SourceSpec:
    """A monopole or dipole point source.

    A monopole radiates Phi_kappa(., xs); a dipole radiates the derivative
    of Phi_kappa in coordinate direction ell (1 horizontal, 2 vertical).
    The wavenumber kappa is that of the half-plane containing xs.
    """

    kind: str
    position: Tuple[float, float]
    direction: int = 0

    def __post_init__(self):
        if self.kind not in ("monopole", "dipole"):
            raise ValueError("kind must be 'monopole' or 'dipole'")
        if self.kind == "dipole" and self.direction not in (1, 2):
            raise ValueError("dipole direction must be 1 or 2")
        if self.kind == "monopole" and self.direction != 0:
            raise ValueError("monopole takes no direction")
        if np.shape(self.position) != (2,) \
                or not np.all(np.isfinite(self.position)):
            raise ValueError("source position must be two finite numbers")

    def incident(self, x, kappa: float) -> complex:
        """The free-space field this source radiates, evaluated at x."""
        if self.kind == "monopole":
            return fundamental_solution(kappa, x, self.position)
        return fundamental_solution_grad(kappa, x, self.position,
                                         self.direction)


def _check_heights(x2: float, xs2: float):
    if x2 == 0.0 or xs2 == 0.0:
        raise GeometryError(
            "evaluation exactly on the flat interface is not defined; "
            "offset the point by at least %g" % H_MIN)


class PlanarGreen:
    """Evaluator for the flat-interface two-layer Green's function.

    Scalar entry points mirror the mathematical objects; the *_batch
    methods evaluate one kernel against many horizontal offsets at once,
    which is what makes dense operator assembly affordable (the kernels
    depend on the two heights only).
    """

    def __init__(self, medium: MediumParams, tol: float = 1e-8):
        self.medium = medium
        self.tol = float(tol)
        self._cache = {}

    # -- kernel construction ------------------------------------------------
    def _case(self, x2: float, xs2: float) -> str:
        return ("u" if x2 > 0.0 else "l") + ("u" if xs2 > 0.0 else "l")

    def _kernel(self, kind: str, ell: int, x2: float, xs2: float):
        """(kernel(xi), prefactor, parity, decay) for one height pair."""
        k1, k2 = self.medium.kappa1, self.medium.kappa2
        case = self._case(x2, xs2)
        s = x2 + xs2

        if case == "uu":
            def base(xi):
                b1, b2 = beta(xi, k1), beta(xi, k2)
                return (b1 - b2) / (b1 * (b1 + b2)) * np.exp(1j * b1 * s)
            pref, rate, power = 0.25j / np.pi, s, 3.0
        elif case == "ll":
            def base(xi):
                b1, b2 = beta(xi, k1), beta(xi, k2)
                return (b2 - b1) / (b2 * (b1 + b2)) * np.exp(-1j * b2 * s)
            pref, rate, power = 0.25j / np.pi, -s, 3.0
        else:
            if case == "lu":
                phase = lambda b1, b2: np.exp(1j * (b1 * xs2 - b2 * x2))
            else:
                phase = lambda b1, b2: np.exp(1j * (b1 * x2 - b2 * xs2))

            def base(xi):
                b1, b2 = beta(xi, k1), beta(xi, k2)
                return phase(b1, b2) / (b1 + b2)
            pref, rate, power = 0.5j / np.pi, abs(x2) + abs(xs2), 1.0
            if rate < H_MIN:
                raise GeometryError(
                    "cross-interface evaluation needs |x2| + |xs2| >= %g"
                    % H_MIN)

        if kind == "monopole":
            return base, pref, "even", DecayClass(rate=rate, power=power)

        if ell == 1:
            def kern(xi):
                return base(xi) * xi
            return kern, pref * 1j, "odd", \
                DecayClass(rate=rate, power=power - 1.0)

        # vertical dipole: differentiate the exponential in xs2 and negate
        if case == "uu":
            def kern(xi):
                b1, b2 = beta(xi, k1), beta(xi, k2)
                return -1j * (b1 - b2) / (b1 + b2) * np.exp(1j * b1 * s)
            dec = DecayClass(rate=rate, power=2.0)
        elif case == "ll":
            def kern(xi):
                b1, b2 = beta(xi, k1), beta(xi, k2)
                return 1j * (b2 - b1) / (b1 + b2) * np.exp(-1j * b2 * s)
            dec = DecayClass(rate=rate, power=2.0)
        elif case == "lu":
            def kern(xi):
                b1, b2 = beta(xi, k1), beta(xi, k2)
                return -1j * b1 * phase(b1, b2) / (b1 + b2)
            dec = DecayClass(rate=rate, power=0.0)
        else:
            def kern(xi):
                b1, b2 = beta(xi, k1), beta(xi, k2)
                return 1j * b2 * phase(b1, b2) / (b1 + b2)
            dec = DecayClass(rate=rate, power=0.0)
        return kern, pref, "even", dec

    # -- batched evaluation -------------------------------------------------
    def scattered_batch(self, kind: str, ell: int, x2: float, xs2: float,
                        offsets: np.ndarray) -> np.ndarray:
        """Scattered/transmitted values at heights (x2, xs2) for each
        horizontal offset d = x1 - xs1 in offsets."""
        _check_heights(x2, xs2)
        offsets = np.asarray(offsets, dtype=float)
        key = (kind, ell, x2, xs2, offsets.tobytes())
        hit = self._cache.get(key)
        if hit is not None:
            return hit.copy()
        kern, pref, parity, decay = self._kernel(kind, ell, x2, xs2)
        bps = (self.medium.kappa1, self.medium.kappa2)
        # the prefactor scales the tolerance so the *returned* values meet it
        vals = pref * fold_integrate_batch(kern, parity, offsets, bps, decay,
                                           self.tol / abs(pref))
        self._cache[key] = vals
        return vals.copy()

    # -- scalar evaluation --------------------------------------------------
    def scattered(self, x, xs) -> complex:
        """Monopole scattered part G^s(x, xs); transmitted field cross-side."""
        return complex(self.scattered_batch(
            "monopole", 0, float(x[1]), float(xs[1]),
            np.array([float(x[0]) - float(xs[0])]))[0])

    def total(self, x, xs) -> complex:
        """Monopole total field G(x, xs)."""
        gs = self.scattered(x, xs)
        if (x[1] > 0.0) == (xs[1] > 0.0):
            if x[0] == xs[0] and x[1] == xs[1]:
                raise SingularityError("total field requested at the source")
            gs += fundamental_solution(self.medium.kappa_at(xs[1]), x, xs)
        return gs

    def dipole_scattered(self, x, xs, ell: int) -> complex:
        """Dipole scattered part U^s(x, xs) for direction ell in {1, 2}."""
        if ell not in (1, 2):
            raise ValueError("ell must be 1 or 2")
        return complex(self.scattered_batch(
            "dipole", ell, float(x[1]), float(xs[1]),
            np.array([float(x[0]) - float(xs[0])]))[0])

    def dipole_total(self, x, xs, ell: int) -> complex:
        """Dipole total field U(x, xs) for direction ell."""
        us = self.dipole_scattered(x, xs, ell)
        if (x[1] > 0.0) == (xs[1] > 0.0):
            us += fundamental_solution_grad(self.medium.kappa_at(xs[1]),
                                            x, xs, ell)
        return us

    def source_total(self, source: SourceSpec, x) -> complex:
        """Total flat-interface field of a SourceSpec evaluated at x."""
        if source.kind == "monopole":
            return self.total(x, source.position)
        return self.dipole_total(x, source.position, source.direction)

    def source_scattered(self, source: SourceSpec, x) -> complex:
        """Scattered/transmitted flat-interface field of a SourceSpec."""
        if source.kind == "monopole":
            return self.scattered(x, source.position)
        return self.dipole_scattered(x, source.position, source.direction)


# ---------------------------------------------------------------------------
# Functional entry points
# ---------------------------------------------------------------------------
def green_planar_scattered(x, xs, medium: MediumParams,
                           tol: float = 1e-8) -> complex:
    """Scattered (same side) / transmitted (cross side) monopole field."""
    return PlanarGreen(medium, tol).scattered(x, xs)


def green_planar_total(x, xs, medium: MediumParams,
                       tol: float = 1e-8) -> complex:
    """Total monopole field of the flat two-layer medium."""
    return PlanarGreen(medium, tol).total(x, xs)


def dipole_planar_scattered(x, xs, ell: int, medium: MediumParams,
                            tol: float = 1e-8) -> complex:
    """Scattered/transmitted dipole field for direction ell."""
    return PlanarGreen(medium, tol).dipole_scattered(x, xs, ell)


def dipole_planar_total(x, xs, ell: int, medium: MediumParams,
                        tol: float = 1e-8) -> complex:
    """Total dipole field of the flat two-layer medium."""
    return PlanarGreen(medium, tol).dipole_total(x, xs, ell)
