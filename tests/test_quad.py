"""Quadrature: the reference integrals (fold_integrate_batch) and the
fixed rules (fixed_rule) against closed-form integrals."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_scatter.errors import AccuracyError
from layered_scatter.quad import (DecayClass, fixed_rule,
                                  fold_integrate_batch, rule_nodes)


def test_plain_exponential():
    # 2 int_0^inf e^{-x} dx = 2
    val = fold_integrate_batch(lambda x: np.exp(-x), "even", np.array([0.0]),
                               (), DecayClass(rate=1.0), 1e-10)[0]
    assert val == pytest.approx(2.0, abs=1e-10)


def test_oscillatory_laplace_transform():
    # int_0^inf cos(b x) e^{-a x} dx = a / (a^2 + b^2), for both signs of b
    a, b = 0.7, 3.0
    vals = fold_integrate_batch(lambda x: np.exp(-a * x), "even",
                                np.array([b, -b]), (1.0,),
                                DecayClass(rate=a), 1e-10)
    assert np.max(np.abs(vals - 2.0 * a / (a * a + b * b))) < 1e-10


def _fixed_rule_integral(ev, breakpoints, decay, tol):
    xi, w = rule_nodes(*fixed_rule(lambda x: np.abs(ev(x)), breakpoints,
                                   decay, 0.0, 0.0, tol))
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
    assert _fixed_rule_integral(ev, (1.0,), DecayClass(rate=5.0),
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
    assert _fixed_rule_integral(ev, (1.0,), DecayClass(power=3.0),
                                1e-9) == pytest.approx(r1 + r2, abs=1e-8)


def test_untruncatable_tail_raises():
    # algebraic power 1 bounds no tail; a decay rate of 1e-6 would need a
    # tail of about 3e7 at offset 50, past the node budget
    t0 = time.perf_counter()
    for kernel, decay in ((lambda x: 1.0 / (1.0 + x),
                           DecayClass(power=1.0)),
                          (lambda x: np.exp(-1e-6 * x),
                           DecayClass(rate=1e-6))):
        with pytest.raises(AccuracyError):
            fold_integrate_batch(kernel, "even", np.array([50.0]), (), decay,
                                 1e-6)
    assert time.perf_counter() - t0 < 1.0


def test_fold_even_matches_two_sided():
    # k(xi) = e^{-xi^2}: int_R k e^{i xi d} = sqrt(pi) e^{-d^2/4}
    d = 1.3
    val = fold_integrate_batch(lambda x: np.exp(-x * x), "even", np.array([d]),
                               (), DecayClass(rate=1.0), 1e-10)[0]
    assert val == pytest.approx(np.sqrt(np.pi) * np.exp(-d * d / 4.0),
                                abs=1e-9)


def test_fold_odd_matches_two_sided():
    # k(xi) = xi e^{-xi^2}: int_R k e^{i xi d} = i d sqrt(pi)/2 e^{-d^2/4}
    d = 0.8
    val = fold_integrate_batch(lambda x: x * np.exp(-x * x), "odd",
                               np.array([d]), (),
                               DecayClass(rate=1.0), 1e-10)[0]
    exact = 0.5j * d * np.sqrt(np.pi) * np.exp(-d * d / 4.0)
    assert val == pytest.approx(exact, abs=1e-9)


def test_fold_rejects_bad_parity():
    with pytest.raises(ValueError):
        fold_integrate_batch(lambda x: x, "both", np.array([0.0]), (),
                             DecayClass(rate=1.0), 1e-8)


def test_batch_matches_scalar_path():
    offsets = np.array([0.0, 0.4, 1.1, -2.0, 5.5])
    kernel = lambda x: np.exp(-x * x)
    batch = fold_integrate_batch(kernel, "even", offsets, (),
                                 DecayClass(rate=1.0), 1e-10)
    for d, got in zip(offsets, batch):
        one = fold_integrate_batch(kernel, "even", np.array([d]), (),
                                   DecayClass(rate=1.0), 1e-10)[0]
        assert got == pytest.approx(one, abs=1e-9)
        assert got == pytest.approx(np.sqrt(np.pi) * np.exp(-d * d / 4.0),
                                    abs=1e-9)


def test_batch_empty_offsets():
    out = fold_integrate_batch(lambda x: np.exp(-x), "even", np.array([]),
                               (), DecayClass(rate=1.0), 1e-8)
    assert out.shape == (0,)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(min_value=0.3, max_value=4.0),
       d=st.floats(min_value=-3.0, max_value=3.0))
def test_gaussian_transform_property(a, d):
    # int_R e^{-a xi^2} e^{i xi d} = sqrt(pi/a) e^{-d^2/(4a)}
    kernel = lambda x: np.exp(-a * x * x)
    val = fold_integrate_batch(kernel, "even", np.array([d]), (),
                               DecayClass(rate=np.sqrt(a)), 1e-9)[0]
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
                             DecayClass(rate=1.0), 1e-8)
    assert len(calls) == 1
    assert time.perf_counter() - t0 < 1.0


def test_nan_offset_raises_instead_of_hanging():
    t0 = time.perf_counter()
    with pytest.raises(AccuracyError):
        fold_integrate_batch(lambda x: np.exp(-x * x), "even",
                             np.array([0.3, np.nan]), (),
                             DecayClass(rate=1.0), 1e-8)
    assert time.perf_counter() - t0 < 1.0


def _tail_rules(green, kind, ell, x2, y2, monkeypatch):
    """(envelope, decay, tail end, tol) that green's fixed rule for the
    single pair (0, x2), (0, y2) passes to and gets from fixed_rule."""
    import layered_scatter.layered_green as lg
    seen = []

    def spy(kernel_abs_at, breakpoints, decay, offset, height, tol):
        plan = fixed_rule(kernel_abs_at, breakpoints, decay, offset, height,
                          tol)
        seen.append((kernel_abs_at, decay, plan[1], tol))
        return plan

    monkeypatch.setattr(lg, "fixed_rule", spy)
    green._rule(kind, ell, np.array([[0.0, x2]]), np.array([[0.0, y2]]))
    return seen[-1]


def _climbs(g):
    """Whether g rises anywhere past the rounding of beta1 - beta2."""
    return bool(np.any(np.diff(g) > 1e-6 * g[:-1]))


@pytest.mark.parametrize("kappas", [(1.0, 1.5), (1.5, 1.0), (2.0, 0.5)],
                         ids=["1-1.5", "1.5-1", "2-0.5"])
def test_tail_bound_holds_for_every_kernel(kappas, monkeypatch):
    # fixed_rule's tail bound E(X) min(1/h, X/(p-1)) holds when E >= |k|
    # and xi^p e^{h xi} E(xi) does not grow past the ladder's start: check
    # both on a grid, and the integral of |k| past the chosen end, for
    # every kind and side case at height sums from 1e-3 to 4
    from scipy import integrate as si

    from layered_scatter.layered_green import MediumParams, PlanarGreen
    medium = MediumParams(*kappas)
    start = 1.5 * max(kappas + (1.0,))
    grows = set()
    for tol in (1e-8, 1e-12):
        green = PlanarGreen(medium, tol)
        for kind, ell in (("monopole", 0), ("dipole", 1), ("dipole", 2)):
            for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                for hx, hy in ((5e-4, 5e-4), (0.01, 0.3), (0.2, 0.2),
                               (1.0, 3.0)):
                    x2, y2 = sx * hx, sy * hy
                    envelope, decay, end, rule_tol = _tail_rules(
                        green, kind, ell, x2, y2, monkeypatch)
                    kern = green._kernel(kind, ell, x2, y2)[0]
                    h, p = decay.rate, decay.power
                    xi = np.geomspace(start, min(1e4, 300.0 / h), 400)
                    env, kabs = envelope(xi), np.abs(kern(xi))
                    assert np.all(env >= kabs)
                    scale = xi ** p * np.exp(h * (xi - start))
                    assert not _climbs(scale * env)
                    if _climbs(scale * kabs):
                        grows.add((kind, ell, green._case(x2, y2)))
                    tail, _ = si.quad(lambda t: abs(kern(np.array([t]))[0]),
                                      end, np.inf, epsabs=0.0, epsrel=1e-8,
                                      limit=400)
                    assert tail < 0.05 * rule_tol
    # |k| alone grows only for the vertical dipole across the interface
    # with its source in the medium of larger kappa, whose envelope the
    # factor (|beta1| + |beta2|) / (2 |beta_j|) flattens
    assert grows == {("dipole", 2, "ul" if kappas[1] > kappas[0] else "lu")}


def test_no_tail_bound_raises():
    # algebraic power 1 with no decay rate bounds no tail on the ladder
    with pytest.raises(AccuracyError):
        fixed_rule(lambda xi: 1.0 / (1.0 + xi), (), DecayClass(power=1.0),
                   0.0, 0.0, 1e-6)


def test_subnormal_height_sum_plans_a_finite_rule():
    # at heights 1e-310 the decay rate h of the upper-upper block is
    # subnormal and 1/h overflows: the rule's tail reach is X/(p - 1) there,
    # and the field equals that of heights 1e-300 within the tolerance
    import warnings

    from layered_scatter import (ForwardSolver, InterfaceProfile,
                                 MediumParams, SceneConfig, SourceSpec)
    solver = ForwardSolver(SceneConfig(
        MediumParams(1.0, 1.5), profile=InterfaceProfile(((0.0, 1.0, 0.3),)),
        cell_size=0.2))
    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for height in (1e-310, 1e-300):
            ev = solver.solve(SourceSpec("monopole", (5.0, height)))
            values.append(ev.total((5.5, height)))
    assert np.isfinite(values[0])
    assert abs(values[0] - values[1]) <= 1e-8
