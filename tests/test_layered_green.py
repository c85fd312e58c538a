"""Flat-interface two-layer kernels: branch choice, limits, reciprocity,
dipole/monopole consistency and the governing equation itself."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_scatter.errors import (
    ConfigurationError,
    GeometryError,
    SingularityError,
)
from layered_scatter.layered_green import (
    MediumParams,
    PlanarGreen,
    SourceSpec,
    beta,
    green_planar_scattered,
)
from layered_scatter.specfun import fundamental_solution
from layered_scatter.verify import stencil_convergence_ratio


def test_beta_identity_and_branch(rng):
    xi = rng.uniform(-6.0, 6.0, 1000)
    for kappa in (1.0, 1.5):
        b = beta(xi, kappa)
        assert np.max(np.abs(b * b - (kappa * kappa - xi * xi))) < 1e-13
        assert np.min(b.real) >= 0.0 and np.min(b.imag) >= 0.0
        # propagating band is purely real, evanescent band purely imaginary
        prop = np.abs(xi) < kappa
        assert np.max(np.abs(b.imag[prop])) == 0.0
        assert np.max(np.abs(b.real[~prop])) == 0.0


def test_medium_params_contrast():
    med = MediumParams(1.0, 1.5)
    assert med.eta == pytest.approx(1.25)
    assert med.kappa_at(0.5) == 1.0 and med.kappa_at(-0.5) == 1.5
    with pytest.raises(ConfigurationError):
        MediumParams(0.0, 1.0)


@pytest.mark.parametrize("k1,k2", [(np.inf, 1.0), (1.0, np.inf),
                                   (np.nan, 1.0)])
def test_medium_params_reject_non_finite(k1, k2):
    with pytest.raises(ConfigurationError):
        MediumParams(k1, k2)


def test_non_finite_source_rejected_quickly():
    t0 = time.perf_counter()
    for pos in ((np.nan, 1.2), (0.3, np.inf), (0.3, -np.inf)):
        for kind, ell in (("monopole", 0), ("dipole", 1)):
            with pytest.raises(ConfigurationError):
                SourceSpec(kind, pos, ell)
    with pytest.raises(ConfigurationError):
        SourceSpec("monopole", (0.3, 1.2, 0.0))
    assert time.perf_counter() - t0 < 1.0


def test_trivial_contrast_collapse():
    g = PlanarGreen(MediumParams(1.5, 1.5), 1e-10)
    # same side: reflection coefficient vanishes identically
    assert abs(g.scattered((0.4, 0.9), (-0.3, 1.2))) < 1e-10
    # cross side: the transmitted field is the free-space field
    val = g.scattered((0.4, -0.9), (-0.3, 1.2))
    free = fundamental_solution(1.5, (0.4, -0.9), (-0.3, 1.2))
    assert abs(val - free) < 1e-8


def test_scattered_reciprocity(green):
    x, xs = (0.3, 0.7), (-0.2, 1.1)
    a = green.scattered(x, xs)
    assert abs(a - green.scattered(xs, x)) / abs(a) < 1e-9
    # cross-side reciprocity too
    xl = (0.5, -0.8)
    b = green.scattered(xl, xs)
    assert abs(b - green.scattered(xs, xl)) / abs(b) < 1e-9


def test_total_reciprocity_both_lower(green):
    x, xs = (0.3, -0.7), (-0.4, -1.1)
    a = green.total(x, xs)
    assert abs(a - green.total(xs, x)) / abs(a) < 1e-9


def test_interface_continuity_by_extrapolation(green):
    """Richardson extrapolation of x2 -> 0+ and 0- agree."""
    xs = (-0.2, 1.1)
    for x1 in (-1.0, 0.0, 0.5, 1.3, 2.0):
        up = [green.total((x1, e), xs) for e in (1e-3, 5e-4)]
        dn = [green.total((x1, -e), xs) for e in (1e-3, 5e-4)]
        lim_up = 2.0 * up[1] - up[0]
        lim_dn = 2.0 * dn[1] - dn[0]
        assert abs(lim_up - lim_dn) / abs(lim_up) < 1e-6


def test_points_on_interface_rejected(green):
    with pytest.raises(GeometryError):
        green.scattered((0.3, 0.0), (0.0, 1.0))
    with pytest.raises(GeometryError):
        green.scattered((0.3, 1.0), (0.0, 0.0))


def test_total_at_source_rejected(green):
    with pytest.raises(SingularityError):
        green.total((0.3, 0.7), (0.3, 0.7))


def test_cross_side_needs_separation(green):
    with pytest.raises(GeometryError):
        green.scattered((0.3, 1e-9), (0.0, -1e-9))


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("x,xs", [
    ((0.3, 0.7), (-0.2, 1.1)),    # both upper
    ((0.3, -0.7), (-0.2, 1.1)),   # cross side
    ((0.3, -0.7), (-0.2, -1.1)),  # both lower
])
def test_dipole_is_source_derivative_of_monopole(green, ell, x, xs):
    """U^s equals minus the xs_ell-derivative of G^s."""
    h = 1e-4
    e = (h, 0.0) if ell == 1 else (0.0, h)
    fd = -(green.scattered(x, (xs[0] + e[0], xs[1] + e[1]))
           - green.scattered(x, (xs[0] - e[0], xs[1] - e[1]))) / (2.0 * h)
    us = green.dipole_scattered(x, xs, ell)
    assert abs(us - fd) / abs(us) < 1e-5


def test_dipole_direction_validated(green):
    with pytest.raises(ValueError):
        green.dipole_scattered((0.3, 0.7), (0.0, 1.0), 3)
    with pytest.raises(ConfigurationError):
        SourceSpec("dipole", (0.0, 1.0), 0)
    with pytest.raises(ConfigurationError):
        SourceSpec("monopole", (0.0, 1.0), 1)
    with pytest.raises(ConfigurationError):
        SourceSpec("quadrupole", (0.0, 1.0))


@pytest.mark.parametrize("center,kappa_sel", [
    ((0.4, 1.5), "kappa1"),    # upper medium
    ((0.4, -1.5), "kappa2"),   # lower medium
])
def test_total_field_solves_helmholtz(green, medium, center, kappa_sel):
    """5-point stencil residual ratio ~4 confirms the PDE in both media."""
    xs = (-0.6, 0.9)
    kappa = getattr(medium, kappa_sel)
    ratio = stencil_convergence_ratio(lambda p: green.total(p, xs),
                                      center, 1e-2, kappa)
    assert 3.0 < ratio < 5.0


def test_batch_matches_scalar(green):
    offsets = np.array([-1.2, 0.0, 0.7, 2.5])
    vals = green.scattered_batch("monopole", 0, 0.6, 1.1, offsets)
    for d, v in zip(offsets, vals):
        assert v == pytest.approx(green.scattered((d, 0.6), (0.0, 1.1)),
                                  abs=1e-12)


def test_functional_wrappers(medium):
    x, xs = (0.3, 0.7), (-0.2, 1.1)
    g = PlanarGreen(medium, 1e-8)
    assert green_planar_scattered(x, xs, medium) == pytest.approx(
        g.scattered(x, xs), abs=1e-12)
    # the scalar entry points of a fresh evaluator agree with a kept one
    fresh = PlanarGreen(medium, 1e-8)
    assert fresh.total(x, xs) == pytest.approx(g.total(x, xs), abs=1e-12)
    assert fresh.dipole_scattered(x, xs, 1) == pytest.approx(
        g.dipole_scattered(x, xs, 1), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(xi=st.floats(-10.0, 10.0), kappa=st.floats(0.1, 5.0))
def test_beta_branch_property(xi, kappa):
    b = beta(np.array([xi]), kappa)[0]
    assert b.real >= 0.0 and b.imag >= 0.0
    assert abs(b * b - (kappa * kappa - xi * xi)) < 1e-10


# ---------------------------------------------------------------------------
# Reference integrals (scattered_batch) against mpmath at 30 digits
# ---------------------------------------------------------------------------
KINDS = (("monopole", 0), ("dipole", 1), ("dipole", 2))


def _mp_scattered(kind, ell, x2, xs2, d, kappa1=1.0, kappa2=1.5):
    """The kernel integral at heights (x2, xs2) and offset d in mpmath:
    tanh-sinh on the real axis up to X = 2 max(kappa), split at the branch
    points, and past X each exponential of the fold on its ray of steepest
    descent, with beta continued analytically as i sqrt(xi^2 - kappa^2)."""
    import mpmath as mp
    with mp.workdps(30):
        k1, k2 = mp.mpf(kappa1), mp.mpf(kappa2)
        x2, xs2, d = mp.mpf(x2), mp.mpf(xs2), mp.mpf(d)
        up, sup = x2 > 0, xs2 > 0
        pref = 1j / ((4 if up == sup else 2) * mp.pi)

        def kernel(b1, b2, xi):
            if up == sup:
                m = (b1 - b2) / (b1 * (b1 + b2)) if up \
                    else (b2 - b1) / (b2 * (b1 + b2))
            else:
                m = 1 / (b1 + b2)
            if kind == "monopole":
                w = m
            elif ell == 1:
                w = m * xi
            else:
                w = -1j * b1 * m if sup else 1j * b2 * m
            return w * mp.exp(1j * ((b1 if up else -b2) * x2
                                    + (b1 if sup else -b2) * xs2))

        odd = ell == 1
        trig = mp.sin if odd else mp.cos
        X = 2 * max(k1, k2)
        n = max(1, int(mp.ceil(abs(d) * X / 2)))
        cuts = sorted({mp.mpf(0), k1, k2}
                      | {X * j / n for j in range(1, n + 1)})
        head = mp.quad(lambda t: kernel(mp.sqrt(k1 ** 2 - t ** 2),
                                        mp.sqrt(k2 ** 2 - t ** 2), t)
                       * trig(t * d), cuts)
        h = abs(x2) + abs(xs2)
        tail = 0
        for s in (1, -1):
            u = mp.mpc(h, s * d) / abs(mp.mpc(h, s * d))

            def ray(r):
                xi = X + r * u
                return kernel(1j * mp.sqrt(xi ** 2 - k1 ** 2),
                              1j * mp.sqrt(xi ** 2 - k2 ** 2), xi) \
                    * mp.exp(1j * s * xi * d) * u
            scale = 1 / abs(mp.mpc(h, d))
            piece = mp.quad(ray, [0, scale, 10 * scale, mp.inf])
            tail += s * piece / 2j if odd else piece / 2
        fold = 2j * 1j if odd else 2
        return complex(pref * fold * (head + tail))


@pytest.mark.parametrize("kind,ell,x2,xs2,d,tol", [
    # every kind in the four side cases, at height sums 0.025 to 3.3 and
    # offsets 0 to 12
    ("monopole", 0, 0.1, 0.1, 12.0, 1e-12),
    ("monopole", 0, 0.3, -0.9, 1.3, 1e-12),
    ("monopole", 0, -0.0125, 0.0125, 0.0, 1e-12),
    ("monopole", 0, -0.7, -0.2, 5.0, 1e-12),
    ("dipole", 1, 1.5, 1.8, 2.5, 1e-12),
    ("dipole", 1, 0.0125, -0.0125, 8.0, 1e-12),
    ("dipole", 1, -0.3, 0.4, 12.0, 1e-12),
    ("dipole", 1, -0.025, -0.025, 1.3, 1e-12),
    ("dipole", 2, 0.0125, 0.0125, 5.0, 1e-12),
    ("dipole", 2, 0.3, -0.9, 0.0, 1e-12),
    ("dipole", 2, -1.0, 0.5, 3.0, 1e-12),
    # next to the interface, where the former adaptive engine missed its
    # tolerance
    ("monopole", 0, -0.025, -0.025, 0.0, 1e-8),
    ("dipole", 2, -0.1, -0.1, 5.0, 1e-12),
])
def test_reference_matches_mpmath(kind, ell, x2, xs2, d, tol):
    green = PlanarGreen(MediumParams(1.0, 1.5), tol)
    got = green.scattered_batch(kind, ell, x2, xs2, np.array([d]))[0]
    assert abs(got - _mp_scattered(kind, ell, x2, xs2, d)) <= tol


def test_scalar_entry_point_at_the_finest_tolerance():
    # at 1e-13 a node of the former adaptive engine landed on kappa1, where
    # the upper-upper weight divides by beta1 = 0
    x, xs = (0.3, 0.7), (-0.2, 1.1)
    got = PlanarGreen(MediumParams(1.0, 1.5), 1e-13).scattered(x, xs)
    assert abs(got - _mp_scattered("monopole", 0, 0.7, 1.1, 0.5)) <= 1e-13


def test_reference_shares_no_code_with_the_fixed_rules(monkeypatch):
    import layered_scatter.layered_green as lg
    import layered_scatter.quad as quad

    def forbidden(*args, **kwargs):
        raise AssertionError("the reference called fixed-rule code")

    # quad keeps no state: no map of kept values and no lock
    lock = type(threading.Lock())
    assert not [name for name, value in vars(quad).items()
                if isinstance(value, (lg.BoundedMemo, lock))
                or value is lg.BoundedMemo]
    for name in ("_segments", "_map_segment", "_rule_segments", "rule_nodes",
                 "fixed_rule"):
        monkeypatch.setattr(quad, name, forbidden)
    for name in ("rule_nodes", "fixed_rule"):
        monkeypatch.setattr(lg, name, forbidden)
    green = PlanarGreen(MediumParams(1.0, 1.5), 1e-10)
    offsets = np.array([0.0, 1.7, -4.0])
    for kind, ell in KINDS:
        for x2, xs2 in ((0.4, 1.1), (0.4, -0.6), (-0.2, 1.1), (-0.2, -0.6)):
            vals = green.scattered_batch(kind, ell, x2, xs2, offsets)
            assert vals.shape == (3,) and np.all(np.isfinite(vals))
    vals = quad.fold_integrate_batch(lambda x: np.exp(-x * x), "even",
                                     offsets, (1.0, 1.5),
                                     quad.DecayClass(rate=1.0), 1e-10)
    assert np.max(np.abs(vals - np.sqrt(np.pi) * np.exp(-offsets ** 2 / 4))) \
        < 1e-9


# ---------------------------------------------------------------------------
# Fixed xi-rules (PlanarGreen.matrix) against the 1e-12 reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,ell", KINDS)
def test_rule_matches_reference_all_side_cases(medium, reference, kind, ell):
    # heights of the shipped scenes: the lowest mesh rows (+-0.1), the
    # receiver line (2.0), sources (0.5-1.5) and obstacle nodes (-0.8 to
    # -1.8); offsets reach 5.5, receiver end to mesh edge
    X = np.array([(x1, x2) for x1 in (-3.0, 0.4, 3.0)
                  for x2 in (0.1, 2.0, -0.1, -1.8)])
    Y = np.array([(y1, y2) for y1 in (-2.5, 0.0, 2.5)
                  for y2 in (0.5, 1.5, -0.8, -1.8)])
    green = PlanarGreen(medium, 1e-8)
    got = green.matrix(kind, ell, X, Y)
    cases = set()
    for i, x in enumerate(X):
        for j, y in enumerate(Y):
            ref = reference.scattered_batch(kind, ell, x[1], y[1],
                                            np.array([x[0] - y[0]]))[0]
            assert abs(got[i, j] - ref) <= green.tol
            cases.add((x[1] > 0.0, y[1] > 0.0))
    assert len(cases) == 4


@settings(max_examples=25, deadline=None)
@given(x2=st.floats(0.05, 3.0), y2=st.floats(0.05, 3.0),
       sx=st.sampled_from((1.0, -1.0)), sy=st.sampled_from((1.0, -1.0)),
       d=st.floats(-6.0, 6.0), k=st.sampled_from(KINDS))
def test_rule_property_random_heights_and_offsets(medium, reference, x2, y2,
                                                  sx, sy, d, k):
    green = PlanarGreen(medium, 1e-8)
    X = np.array([[d, sx * x2], [0.5 * d, sx * (x2 + 0.3)]])
    Y = np.array([[0.0, sy * y2]])
    got = green.matrix(k[0], k[1], X, Y)[:, 0]
    for x, g in zip(X, got):
        ref = reference.scattered_batch(k[0], k[1], x[1], Y[0, 1],
                                        np.array([x[0]]))[0]
        assert abs(g - ref) <= green.tol


def test_rule_rejects_points_on_the_interface(green):
    with pytest.raises(GeometryError):
        green.matrix("monopole", 0, np.array([[0.3, 0.0]]),
                     np.array([[0.0, 1.0]]))


def test_rule_node_budget_raises_quickly(green):
    from layered_scatter.errors import AccuracyError
    t0 = time.perf_counter()
    with pytest.raises(AccuracyError, match="nodes"):
        green.matrix("monopole", 0, np.array([[-5000.0, 1e-3]]),
                     np.array([[5000.0, 1e-3]]))
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# Single-column blocks on the height x abscissa grid (_apply_grid)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def bump_point_sets(bump_and_dip_profile):
    """The B1 and B2 cells of a bump-and-dip scene (both sides of the flat
    line), its receiver line (above) and the 64 nodes of a circle below."""
    from layered_scatter.geometry import (
        ObstacleCurve,
        ReceiverLine,
        SceneGeometry,
        build_region_mesh,
        obstacle_nodes,
    )
    scene = SceneGeometry(bump_and_dip_profile)
    return {
        "mesh": np.concatenate([build_region_mesh(tag, scene, 0.2).centers
                                for tag in ("B1", "B2")]),
        "receivers": ReceiverLine(2.0, 3.0, 11).points(),
        "nodes": obstacle_nodes(ObstacleCurve("circle", (0.0, -1.3), 0.5),
                                32).positions,
    }


@pytest.mark.parametrize("kind,ell", KINDS)
def test_single_column_grid_matches_product_and_reference(
        medium, reference, bump_point_sets, monkeypatch, kind, ell):
    import layered_scatter.layered_green as lg
    grids = []
    orig = lg._apply_grid

    def spy(rule, h, a, y):
        grids.append(len(h[1]))
        return orig(rule, h, a, y)

    monkeypatch.setattr(lg, "_apply_grid", spy)
    green = PlanarGreen(medium, 1e-8)
    cases = set()
    for name, X in bump_point_sets.items():
        for y in ((0.3, 1.2), (0.2, -0.7)):
            Y = np.array([y])
            for ix in lg._sides(X):
                Xb = X[ix]
                rule = green._rule(kind, ell, Xb, Y)
                del grids[:]
                got = lg._apply_rule(rule, Xb, Y)[:, 0]
                # meshes and receiver lines take the grid, the boundary
                # nodes (45 heights x 60 abscissae) the direct product
                assert grids == ([] if name == "nodes" else [len(Xb)])
                direct = lg._apply_product(rule, Xb, Y)[:, 0]
                assert np.max(np.abs(got - direct)) \
                    <= 1e-13 * np.max(np.abs(direct))
                cases.add((name, Xb[0, 1] > 0.0, y[1] > 0.0))
            # against the reference at the heights nearest to and
            # farthest from the interface on each side, at all their offsets
            col = green.matrix(kind, ell, X, Y)[:, 0]
            for side in (X[:, 1] > 0.0, X[:, 1] < 0.0):
                if not np.any(side):
                    continue
                a = np.abs(X[side, 1])
                for h in {X[side, 1][np.argmin(a)], X[side, 1][np.argmax(a)]}:
                    at = np.nonzero(X[:, 1] == h)[0]
                    ref = reference.scattered_batch(kind, ell, h, y[1],
                                                    X[at, 0] - y[0])
                    assert np.max(np.abs(col[at] - ref)) <= green.tol
    assert {(s, t) for _, s, t in cases} == {(True, True), (True, False),
                                             (False, True), (False, False)}
    assert {n for n, _, _ in cases} == set(bump_point_sets)


# ---------------------------------------------------------------------------
# Rules and grid splits kept per PlanarGreen
# ---------------------------------------------------------------------------
def test_kept_rule_same_bytes_as_fresh(medium):
    # mirrored point sets give rules of the same nodes and weights to the
    # two dipole directions and to mirrored side cases; a kept rule must
    # still carry the weight of its own kind, direction and side case
    rng = np.random.default_rng(3)
    up = np.column_stack([rng.uniform(-1.0, 1.0, 6), rng.uniform(0.2, 1.0, 6)])
    sets = {"u": up, "l": up * [1.0, -1.0]}
    blocks = [(kind, ell, a, b, cols) for kind, ell in KINDS
              for a in "ul" for b in "ul" for cols in (slice(None), [2])]
    warm = PlanarGreen(medium, 1e-8)
    kept = []
    for order in (blocks, blocks[::-1]):
        for kind, ell, a, b, cols in order:
            X, Y = sets[a], sets[b][cols]
            fresh = PlanarGreen(medium, 1e-8).matrix(kind, ell, X, Y)
            assert warm.matrix(kind, ell, X, Y).tobytes() == fresh.tobytes()
        kept.append(len(warm.rules))
    # the second pass, in reverse order, finds every rule kept
    assert kept[0] == kept[1] <= len(blocks)


def test_matrix_same_bytes_cold_warm_shuffled_and_threaded(
        medium, bump_point_sets):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(17)
    jobs = []
    for k in range(24):
        kind, ell = KINDS[k % 3]
        y = (rng.uniform(-1.8, 1.8), rng.choice([-1.0, 1.0])
             * rng.uniform(0.3, 1.5))
        for X in bump_point_sets.values():
            jobs.append((kind, ell, X, np.array([y])))
    cold = [PlanarGreen(medium, 1e-8).matrix(*job).tobytes() for job in jobs]
    warm = PlanarGreen(medium, 1e-8)
    assert [warm.matrix(*job).tobytes() for job in jobs] == cold
    order = rng.permutation(len(jobs))
    shuffled = PlanarGreen(medium, 1e-8)
    got = {int(i): shuffled.matrix(*jobs[i]).tobytes() for i in order}
    assert [got[i] for i in range(len(jobs))] == cold
    shared = PlanarGreen(medium, 1e-8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(lambda job=job: shared.matrix(*job))
                       for job in jobs]
            values = [f.result(timeout=120).tobytes() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(f.done() for f in futures)
    assert values == cold
    assert len(shared.rules) == len(warm.rules)
    assert len(shared.splits) == len(warm.splits)
