"""The verification oracles themselves must be right before they can
adjudicate anything: closed-form and consistency checks on the series,
stencil and radiation probes."""

import numpy as np
import pytest

from layered_scatter.errors import GeometryError
from layered_scatter.specfun import phi_matrix
from layered_scatter.verify import (
    StencilProbe,
    helmholtz_residual,
    mie_interior_circle,
    mie_series_circle,
    stencil_convergence_ratio,
)

KAPPA = 2.0
A = 0.5
SRC = (2.0, 0.0)


def test_sound_soft_series_vanishes_on_boundary(free_space):
    for th in np.linspace(0.0, 2.0 * np.pi, 9)[:-1]:
        x = (A * np.cos(th), A * np.sin(th))
        total = free_space(KAPPA, x, SRC) \
            + mie_series_circle("sound_soft", A, KAPPA, SRC, x)
        assert abs(total) < 1e-8


def test_neumann_series_kills_normal_derivative(free_space):
    h = 1e-5
    for th in (0.3, 2.0, 4.4):
        nu = np.array([np.cos(th), np.sin(th)])

        def total(r):
            x = tuple(r * nu)
            return free_space(KAPPA, x, SRC) \
                + mie_series_circle("neumann", A, KAPPA, SRC, x)

        dn = (total(A + h) - total(A - h)) / (2.0 * h)
        assert abs(dn) < 1e-5


def test_impedance_series_meets_its_boundary_condition(free_space):
    h = 1e-5
    lam = 2.0
    for th in (0.3, 2.0, 4.4):
        nu = np.array([np.cos(th), np.sin(th)])

        def total(r):
            x = tuple(r * nu)
            return free_space(KAPPA, x, SRC) \
                + mie_series_circle("impedance", A, KAPPA, SRC, x, lam=lam)

        dn = (total(A + h) - total(A - h)) / (2.0 * h)
        assert abs(dn + 1j * lam * total(A)) < 1e-5
    x = (1.3, 0.4)
    assert mie_series_circle("impedance", A, KAPPA, SRC, x, lam=0.0) \
        == mie_series_circle("neumann", A, KAPPA, SRC, x)


def test_penetrable_series_matches_cauchy_data(free_space):
    """Exterior total and interior field agree in value and radial
    derivative at the circle; that is the defining transmission pair."""
    n = 1.5 + 0.1j
    h = 1e-5
    th = 1.1
    nu = np.array([np.cos(th), np.sin(th)])

    def outer(r):
        x = tuple(r * nu)
        return free_space(KAPPA, x, SRC) \
            + mie_series_circle("penetrable", A, KAPPA, SRC, x, n=n)

    def inner(r):
        return mie_interior_circle(A, KAPPA, n, SRC, tuple(r * nu))

    assert abs(outer(A + h) - inner(A - h)) < 1e-4
    do = (outer(A + 2 * h) - outer(A)) / (2.0 * h)
    di = (inner(A) - inner(A - 2 * h)) / (2.0 * h)
    assert abs(do - di) < 1e-2 * max(abs(do), 1.0)


def test_series_is_symmetric_in_source_and_receiver():
    x = (0.0, 1.4)
    a = mie_series_circle("sound_soft", A, KAPPA, SRC, x)
    b = mie_series_circle("sound_soft", A, KAPPA, x, SRC)
    assert abs(a - b) / abs(a) < 1e-12


def test_series_rejects_source_inside():
    with pytest.raises(GeometryError):
        mie_series_circle("sound_soft", A, KAPPA, (0.1, 0.0), (2.0, 0.0))
    with pytest.raises(ValueError):
        mie_series_circle("sound_hard", A, KAPPA, SRC, (2.0, 1.0))
    with pytest.raises(ValueError):
        mie_series_circle("penetrable", A, KAPPA, SRC, (2.0, 1.0))


def test_offset_center_is_a_pure_translation():
    c = (0.4, -1.0)
    shifted = mie_series_circle("sound_soft", A, KAPPA,
                                (SRC[0] + c[0], SRC[1] + c[1]),
                                (0.0 + c[0], 1.4 + c[1]), center=c)
    plain = mie_series_circle("sound_soft", A, KAPPA, SRC, (0.0, 1.4))
    assert abs(shifted - plain) < 1e-12


# ---------------------------------------------------------------------------
# Stencil probe
# ---------------------------------------------------------------------------
def test_stencil_residual_on_exact_solution(free_space):
    """H0(kappa r) solves Helmholtz; the residual is O(h^2), ratio ~4."""
    fieldfn = lambda p: free_space(KAPPA, p, (0.0, 0.0))
    r1 = helmholtz_residual(fieldfn, StencilProbe((1.0, 0.7), 1e-2, KAPPA))
    assert r1 < 1e-2
    ratio = stencil_convergence_ratio(fieldfn, (1.0, 0.7), 1e-2, KAPPA)
    assert 3.0 < ratio < 5.0


def test_stencil_detects_wrong_wavenumber(free_space):
    fieldfn = lambda p: free_space(KAPPA, p, (0.0, 0.0))
    good = helmholtz_residual(fieldfn, StencilProbe((1.0, 0.7), 1e-2, KAPPA))
    bad = helmholtz_residual(fieldfn, StencilProbe((1.0, 0.7), 1e-2,
                                                   1.3 * KAPPA))
    assert bad > 100.0 * good


def test_stencil_accepts_vectorized_callable(free_space):
    def vec(pts):
        return phi_matrix(KAPPA, np.hypot(pts[:, 0], pts[:, 1]))

    scalar = lambda p: free_space(KAPPA, p, (0.0, 0.0))
    probe = StencilProbe((1.0, 0.7), 1e-2, KAPPA)
    # residuals are a 1/h^2-amplified difference, so agreement between the
    # in-house and scipy Bessel evaluations is only to a few digits here
    assert helmholtz_residual(vec, probe) == pytest.approx(
        helmholtz_residual(scalar, probe), rel=1e-4)


# ---------------------------------------------------------------------------
# Radiation probe
# ---------------------------------------------------------------------------
def test_radiation_probe_decays_for_outgoing_field(radiation_probe,
                                                   free_space):
    fieldfn = lambda p: free_space(KAPPA, p, (0.0, 0.0))
    vals = radiation_probe(fieldfn, (1.0, 0.3), [20.0, 40.0, 80.0], KAPPA)
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-2


def test_radiation_probe_flags_incoming_field(radiation_probe, free_space):
    fieldfn = lambda p: np.conj(free_space(KAPPA, p, (0.0, 0.0)))
    vals = radiation_probe(fieldfn, (1.0, 0.3), [20.0, 40.0], KAPPA)
    assert np.min(vals) > 0.05
