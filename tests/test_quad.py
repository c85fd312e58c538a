"""Quadrature: the reference integrals (fold_integrate_batch) and the
fixed rules (fixed_rule) against closed-form integrals."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_scatter.errors import AccuracyError
from layered_scatter.quad import DecayClass, fixed_rule, fold_integrate_batch


def test_plain_exponential():
    # 2 int_0^inf e^{-x} dx = 2
    val = fold_integrate_batch(lambda x: np.exp(-x), "even", np.array([0.0]),
                               (), DecayClass.exponential(1.0), 1e-10)[0]
    assert val == pytest.approx(2.0, abs=1e-10)


def test_oscillatory_laplace_transform():
    # int_0^inf cos(b x) e^{-a x} dx = a / (a^2 + b^2), for both signs of b
    a, b = 0.7, 3.0
    vals = fold_integrate_batch(lambda x: np.exp(-a * x), "even",
                                np.array([b, -b]), (1.0,),
                                DecayClass.exponential(a), 1e-10)
    assert np.max(np.abs(vals - 2.0 * a / (a * a + b * b))) < 1e-10


def _fixed_rule_integral(ev, breakpoints, decay, tol):
    xi, w = fixed_rule(lambda x: np.abs(ev(x)), breakpoints, decay, 0.0, 0.0,
                       tol)
    return float(np.dot(w, ev(xi)))


def test_inverse_sqrt_breakpoint():
    # int_0^1 dx / sqrt(1 - x^2) = pi/2, singular endpoint at the breakpoint:
    # the sin map of the fixed rule's segment removes it
    def ev(x):
        out = np.zeros_like(x)
        inside = x < 1.0
        out[inside] = 1.0 / np.sqrt(1.0 - x[inside] ** 2)
        return out * np.exp(-5.0 * np.maximum(x - 1.0, 0.0))

    # beyond the breakpoint the integrand is zero; declare fast decay
    assert _fixed_rule_integral(ev, (1.0,), DecayClass.exponential(5.0),
                                1e-9) == pytest.approx(np.pi / 2.0, abs=1e-7)


def test_branch_point_kernel_both_sides():
    # int_0^inf dx / (sqrt(|x^2-1|) (x^2+4)): the sin and cosh maps on
    # either side of the breakpoint, against scipy's adaptive quadrature
    from scipy import integrate as si

    def ev(x):
        return 1.0 / (np.sqrt(np.abs(x * x - 1.0) + 1e-300) * (x * x + 4.0))

    r1, _ = si.quad(lambda x: ev(np.array([x]))[0], 0.0, 10.0,
                    points=[1.0], limit=400)
    r2, _ = si.quad(lambda x: ev(np.array([x]))[0], 10.0, np.inf, limit=400)
    assert _fixed_rule_integral(ev, (1.0,), DecayClass.algebraic(3.0),
                                1e-9) == pytest.approx(r1 + r2, abs=1e-8)


def test_untruncatable_tail_raises():
    # algebraic power 1 bounds no tail; a decay rate of 1e-6 would need a
    # tail of about 3e7 at offset 50, past the node budget
    t0 = time.perf_counter()
    for kernel, decay in ((lambda x: 1.0 / (1.0 + x),
                           DecayClass.algebraic(1.0)),
                          (lambda x: np.exp(-1e-6 * x),
                           DecayClass.exponential(1e-6))):
        with pytest.raises(AccuracyError):
            fold_integrate_batch(kernel, "even", np.array([50.0]), (), decay,
                                 1e-6)
    assert time.perf_counter() - t0 < 1.0


def test_fold_even_matches_two_sided():
    # k(xi) = e^{-xi^2}: int_R k e^{i xi d} = sqrt(pi) e^{-d^2/4}
    d = 1.3
    val = fold_integrate_batch(lambda x: np.exp(-x * x), "even", np.array([d]),
                               (), DecayClass.exponential(1.0), 1e-10)[0]
    assert val == pytest.approx(np.sqrt(np.pi) * np.exp(-d * d / 4.0),
                                abs=1e-9)


def test_fold_odd_matches_two_sided():
    # k(xi) = xi e^{-xi^2}: int_R k e^{i xi d} = i d sqrt(pi)/2 e^{-d^2/4}
    d = 0.8
    val = fold_integrate_batch(lambda x: x * np.exp(-x * x), "odd",
                               np.array([d]), (),
                               DecayClass.exponential(1.0), 1e-10)[0]
    exact = 0.5j * d * np.sqrt(np.pi) * np.exp(-d * d / 4.0)
    assert val == pytest.approx(exact, abs=1e-9)


def test_fold_rejects_bad_parity():
    with pytest.raises(ValueError):
        fold_integrate_batch(lambda x: x, "both", np.array([0.0]), (),
                             DecayClass.exponential(1.0), 1e-8)


def test_batch_matches_scalar_path():
    offsets = np.array([0.0, 0.4, 1.1, -2.0, 5.5])
    kernel = lambda x: np.exp(-x * x)
    batch = fold_integrate_batch(kernel, "even", offsets, (),
                                 DecayClass.exponential(1.0), 1e-10)
    for d, got in zip(offsets, batch):
        one = fold_integrate_batch(kernel, "even", np.array([d]), (),
                                   DecayClass.exponential(1.0), 1e-10)[0]
        assert got == pytest.approx(one, abs=1e-9)
        assert got == pytest.approx(np.sqrt(np.pi) * np.exp(-d * d / 4.0),
                                    abs=1e-9)


def test_batch_empty_offsets():
    out = fold_integrate_batch(lambda x: np.exp(-x), "even", np.array([]),
                               (), DecayClass.exponential(1.0), 1e-8)
    assert out.shape == (0,)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(min_value=0.3, max_value=4.0),
       d=st.floats(min_value=-3.0, max_value=3.0))
def test_gaussian_transform_property(a, d):
    # int_R e^{-a xi^2} e^{i xi d} = sqrt(pi/a) e^{-d^2/(4a)}
    kernel = lambda x: np.exp(-a * x * x)
    val = fold_integrate_batch(kernel, "even", np.array([d]), (),
                               DecayClass.exponential(np.sqrt(a)), 1e-9)[0]
    exact = np.sqrt(np.pi / a) * np.exp(-d * d / (4.0 * a))
    assert abs(val - exact) < 1e-7


def test_nan_kernel_raises_quickly():
    # a NaN kernel value ends the integral at the first kernel call
    calls = []

    def nan_kernel(xi):
        calls.append(xi.size)
        return np.full(xi.size, np.nan, dtype=complex)

    t0 = time.perf_counter()
    with pytest.raises(AccuracyError):
        fold_integrate_batch(nan_kernel, "even", np.array([0.3]), (1.0,),
                             DecayClass.exponential(1.0), 1e-8)
    assert len(calls) == 1
    assert time.perf_counter() - t0 < 1.0


def test_nan_offset_raises_instead_of_hanging():
    t0 = time.perf_counter()
    with pytest.raises(AccuracyError):
        fold_integrate_batch(lambda x: np.exp(-x * x), "even",
                             np.array([0.3, np.nan]), (),
                             DecayClass.exponential(1.0), 1e-8)
    assert time.perf_counter() - t0 < 1.0


def _tail_one_by_one(kernel_abs_at, decay, breakpoints, tol):
    """The tail search point by point, as a reference for the batched
    _tail_cutoff: (X, bound), or None where no ladder point is below."""
    h, p = decay.rate, decay.power
    start = 1.5 * max(list(breakpoints) + [1.0])

    def bound(X):
        samples = np.linspace(X, 2.0 * X, 7)
        kabs = kernel_abs_at(samples)
        env = samples ** (-p) * np.exp(-h * np.maximum(samples - start, 0.0))
        C = float(np.max(np.where(env > 0.0,
                                  kabs / np.maximum(env, 1e-300), 0.0)))
        if h > 0.0:
            return C * X ** (-p) * np.exp(-h * max(X - start, 0.0)) / h
        if p > 1.0:
            return C * X ** (1.0 - p) / (p - 1.0)
        return np.inf

    X = start
    while True:
        b = bound(X)
        if b < 0.5 * tol:
            return X, b
        if X > 1e9:
            return None
        X = 2.0 * X


def test_batched_tail_matches_point_by_point_search(medium):
    from layered_scatter.layered_green import PlanarGreen
    from layered_scatter.quad import _tail_cutoff
    green = PlanarGreen(medium, 1e-8)
    bps = (medium.kappa1, medium.kappa2)
    cases = []
    # the flat-interface kernels: every kind and side case, from heights at
    # the interface to far above it, at the tolerances of the rules
    for kind, ell in (("monopole", 0), ("dipole", 1), ("dipole", 2)):
        for x2 in (1e-3, 0.05, -0.1, 0.5, -1.3):
            for y2 in (0.02, -0.3, 1.5, -2.0):
                kern, pref, _, decay = green._kernel(kind, ell, x2, y2)
                for tol in (1e-9, 1e-12):
                    cases.append((lambda xi, k=kern: np.abs(k(xi)), decay,
                                  bps, tol / abs(pref)))
    # pure algebraic and exponential envelopes, no breakpoints, and tails
    # that end past the first batch of ladder points
    for power in (2.5, 3.0, 4.0):
        cases.append((lambda xi, q=power: (1.0 + xi) ** -q,
                      DecayClass.algebraic(power), (), 1e-8))
    for rate in (1e-3, 0.02, 1.0):
        cases.append((lambda xi, r=rate: np.exp(-r * xi),
                      DecayClass.exponential(rate), (3.0,), 1e-12))
    ends = set()
    for kernel_abs_at, decay, breakpoints, tol in cases:
        expected = _tail_one_by_one(kernel_abs_at, decay, breakpoints, tol)
        assert _tail_cutoff(kernel_abs_at, decay, breakpoints, tol) \
            == expected
        ends.add(expected[0])
    assert len(ends) > 8
    # nothing below tol on the whole ladder: both give up
    flat = DecayClass.algebraic(1.0)
    assert _tail_one_by_one(lambda xi: 1.0 / (1.0 + xi), flat, (), 1e-6) \
        is None
    with pytest.raises(AccuracyError):
        _tail_cutoff(lambda xi: 1.0 / (1.0 + xi), flat, (), 1e-6)
