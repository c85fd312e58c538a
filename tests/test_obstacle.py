"""Boundary integral machinery: the log-singular rule, circle eigenvalue
oracles, and the free-space obstacle solves against the separation-of-
variables series."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import hankel1, jv

from layered_scatter.errors import ConfigurationError
from layered_scatter.geometry import ObstacleCurve, obstacle_nodes
from layered_scatter.layered_green import MediumParams, SourceSpec
from layered_scatter.obstacle import (
    RoughKernel,
    kress_log_weights,
    layer_matrices,
    solve_density,
)
from layered_scatter.specfun import fundamental_solution
from layered_scatter.verify import mie_interior_circle, mie_series_circle

CIRCLE = ObstacleCurve("circle", (0.0, -2.0), 0.5)
KAPPA = 2.0
SRC = (2.0, -2.0)  # distance 2 from the circle center, off the flat line


@pytest.fixture(scope="module")
def nodes():
    return obstacle_nodes(CIRCLE, 24)


# ---------------------------------------------------------------------------
# Log-singular quadrature rule
# ---------------------------------------------------------------------------
def test_kress_rule_exact_on_trig_polynomials(nodes):
    """int_0^2pi ln(4 sin^2((t-tau)/2)) cos(m tau) dtau = -(2pi/m) cos(mt)
    for 1 <= m <= M-1, and 0 for m = 0."""
    R = kress_log_weights(nodes.t)
    M = nodes.n // 2
    for m in (0, 1, 3, M - 1):
        vals = R @ np.cos(m * nodes.t)
        exact = np.zeros(nodes.n) if m == 0 \
            else -(2.0 * np.pi / m) * np.cos(m * nodes.t)
        assert np.max(np.abs(vals - exact)) < 1e-12


def test_kress_rule_off_node_evaluation(nodes, kress_weights_off_nodes):
    t = np.array([0.123, 2.9])
    R = kress_weights_off_nodes(t, nodes.t)
    vals = R @ np.cos(3.0 * nodes.t)
    exact = -(2.0 * np.pi / 3.0) * np.cos(3.0 * t)
    assert np.max(np.abs(vals - exact)) < 1e-12


def _kress_tensor(t, nodes_t):
    """The weights summed over the full (rows, 2M, M - 1) cosine tensor."""
    M = len(nodes_t) // 2
    s = t[:, None] - nodes_t[None, :]
    m = np.arange(1, M)
    out = -(2.0 * np.pi / M) * np.tensordot(
        np.cos(np.multiply.outer(s, m)), 1.0 / m, axes=([2], [0]))
    return out - (np.pi / M ** 2) * np.cos(M * s)


@pytest.mark.parametrize("M", [8, 32, 64])
def test_kress_weights_match_the_tensor_formula(M, kress_weights_off_nodes):
    t_nodes = obstacle_nodes(CIRCLE, M).t
    off = np.linspace(0.01, 6.27, 3 * M + 1)
    for t, got in ((t_nodes, kress_log_weights(t_nodes)),
                   (off, kress_weights_off_nodes(off, t_nodes))):
        assert got.shape == (len(t), 2 * M)
        assert np.max(np.abs(got - _kress_tensor(t, t_nodes))) < 1e-13


def test_kress_weights_memory_bounded(kress_weights_off_nodes):
    t_nodes = obstacle_nodes(CIRCLE, 128).t
    for weights in (lambda: kress_log_weights(t_nodes),
                    lambda: kress_weights_off_nodes(
                        np.linspace(0.01, 6.27, 300), t_nodes)):
        tracemalloc.start()
        try:
            weights()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


# ---------------------------------------------------------------------------
# Circle eigenvalue oracle for the single-layer operator
# ---------------------------------------------------------------------------
def test_single_layer_circle_eigenvalues(nodes):
    """S e^{imt} = i pi a J_m(ka) H_m(ka) e^{imt} on the circle (with the
    factor-2 scaling of the discrete operator)."""
    a = CIRCLE.radius
    S, _K = layer_matrices(nodes, KAPPA)
    for m in (0, 1, 2, 5):
        phi = np.exp(1j * m * nodes.t)
        lam = 1j * np.pi * a * jv(m, KAPPA * a) * hankel1(m, KAPPA * a)
        assert np.max(np.abs(S @ phi - lam * phi)) < 1e-12


def test_layer_matrices_spectral_accuracy():
    """Doubling the node count should leave the eigenvalue errors at
    rounding level: the rule is spectrally accurate."""
    a = CIRCLE.radius
    for M in (12, 24):
        nd = obstacle_nodes(CIRCLE, M)
        S, _ = layer_matrices(nd, KAPPA)
        phi = np.exp(1j * 3 * nd.t)
        lam = 1j * np.pi * a * jv(3, KAPPA * a) * hankel1(3, KAPPA * a)
        assert np.max(np.abs(S @ phi - lam * phi)) < 1e-10


# ---------------------------------------------------------------------------
# Free-space obstacle solves vs the series oracle
# ---------------------------------------------------------------------------
def _exterior_points():
    th = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
    return np.stack([CIRCLE.center[0] + 1.4 * np.cos(th),
                     CIRCLE.center[1] + 1.4 * np.sin(th)], axis=-1)


def test_sound_soft_circle_matches_series(free_circle_solver):
    ev = free_circle_solver.solve(SourceSpec("monopole", SRC))
    pts = _exterior_points()
    got = ev.scattered(pts)
    for p, v in zip(pts, got):
        ref = mie_series_circle("sound_soft", CIRCLE.radius, KAPPA, SRC,
                                tuple(p), center=CIRCLE.center)
        assert abs(v - ref) < 1e-6 * max(1.0, abs(ref))


def test_sound_soft_boundary_trace_off_nodes(free_circle_solver,
                                            boundary_total_field):
    solver = free_circle_solver
    ev = solver.solve(SourceSpec("monopole", SRC))
    t = np.linspace(0.0, 2.0 * np.pi, 17)[:-1] + 0.05
    X = CIRCLE.point(t)
    bg = np.array([fundamental_solution(KAPPA, x, SRC) for x in X])
    total = boundary_total_field(ev._correction, t, bg)
    assert np.max(np.abs(total)) < 1e-6 * np.max(np.abs(bg))


@pytest.mark.parametrize("gap,near", [(0.01, True), (0.1, False)])
def test_source_within_a_node_spacing_of_the_obstacle_warns(
        free_circle_solver, gap, near):
    """A source closer to the nodes than their spacing (0.049 here) has a
    nearly singular field on the boundary, which the trapezoid rule
    under-resolves: at gap 0.01 the series is missed by 1.4e-2, at gap 0.1
    by 4.2e-7.  The near source warns, the far one does not."""
    src = (CIRCLE.center[0] + CIRCLE.radius + gap, CIRCLE.center[1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ev = free_circle_solver.solve(SourceSpec("monopole", src))
    assert any("node spacing" in str(w.message) for w in caught) == near
    pts = _exterior_points()
    ref = np.array([mie_series_circle("sound_soft", CIRCLE.radius, KAPPA, src,
                                      tuple(p), center=CIRCLE.center)
                    for p in pts])
    err = np.max(np.abs(ev.scattered(pts) - ref)) / np.max(np.abs(ref))
    assert (err > 1e-3) if near else (err < 1e-6)


@pytest.mark.parametrize("condition,lam", [("neumann", 0.0),
                                           ("impedance", 2.0)],
                         ids=["neumann", "impedance"])
def test_neumann_circle_matches_series(condition, lam):
    from layered_scatter.forward import ObstacleSpec, SceneConfig, ForwardSolver
    config = SceneConfig(
        medium=MediumParams(KAPPA, KAPPA), cell_size=0.25,
        obstacle=ObstacleSpec(curve=CIRCLE, condition=condition, lam=lam,
                              boundary_M=32))
    ev = ForwardSolver(config).solve(SourceSpec("monopole", SRC))
    pts = _exterior_points()
    got = ev.scattered(pts)
    for p, v in zip(pts, got):
        ref = mie_series_circle(condition, CIRCLE.radius, KAPPA, SRC,
                                tuple(p), center=CIRCLE.center, lam=lam)
        assert abs(v - ref) < 1e-12 * max(1.0, abs(ref))


def test_penetrable_circle_matches_series():
    from layered_scatter.forward import ObstacleSpec, SceneConfig, ForwardSolver
    n = 1.5 + 0.1j
    config = SceneConfig(
        medium=MediumParams(KAPPA, KAPPA), cell_size=0.25,
        obstacle=ObstacleSpec(curve=CIRCLE, condition="penetrable", n=n,
                              cell_size=0.05))
    ev = ForwardSolver(config).solve(SourceSpec("monopole", SRC))
    # exterior scattered field
    p = (1.4, -2.0)
    ref = mie_series_circle("penetrable", CIRCLE.radius, KAPPA, SRC, p,
                            n=n, center=CIRCLE.center)
    assert abs(ev.scattered(p) - ref) < 2e-3
    # interior total field
    q = (0.2, -1.9)
    ref_in = mie_interior_circle(CIRCLE.radius, KAPPA, n, SRC, q,
                                 center=CIRCLE.center)
    assert abs(ev.total(q) - ref_in) < 2e-3


def test_impedance_reduces_to_neumann_as_lam_vanishes():
    from layered_scatter.forward import ObstacleSpec, SceneConfig, ForwardSolver

    def solve(condition, lam=0.0):
        config = SceneConfig(
            medium=MediumParams(KAPPA, KAPPA),
            cell_size=0.25,
            obstacle=ObstacleSpec(curve=CIRCLE, condition=condition,
                                  lam=lam, boundary_M=24))
        return ForwardSolver(config).solve(SourceSpec("monopole", SRC))

    p = (1.2, -2.4)
    neu = solve("neumann").scattered(p)
    imp = solve("impedance", lam=1e-6).scattered(p)
    assert abs(neu - imp) < 1e-5 * abs(neu)


def test_impedance_differs_at_finite_lam():
    from layered_scatter.forward import ObstacleSpec, SceneConfig, ForwardSolver
    config = SceneConfig(
        medium=MediumParams(KAPPA, KAPPA), cell_size=0.25,
        obstacle=ObstacleSpec(curve=CIRCLE, condition="impedance", lam=2.0,
                              boundary_M=24))
    ev = ForwardSolver(config).solve(SourceSpec("monopole", SRC))
    p = (1.2, -2.4)
    ref = mie_series_circle("neumann", CIRCLE.radius, KAPPA, SRC, p,
                            center=CIRCLE.center)
    assert abs(ev.scattered(p) - ref) > 1e-2 * abs(ref)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
def test_penetrable_medium_validation():
    # the index is checked whatever the condition
    from layered_scatter.forward import ObstacleSpec
    curve = ObstacleCurve("circle", (0.0, -0.6), 0.2)
    for condition in ("penetrable", "sound_soft"):
        ObstacleSpec(curve=curve, condition=condition, n=1.5 + 0.1j)
        for n in (-1.0 + 0.0j, 0.0, 1.5 - 0.1j, complex("nan")):
            with pytest.raises(ConfigurationError, match="obstacle.n"):
                ObstacleSpec(curve=curve, condition=condition, n=n)


def test_boundary_above_interface_rejected(flat_b2, medium):
    from layered_scatter.ls_volume import extension_rows
    from layered_scatter.obstacle import (assemble_bie,
                                          build_rough_kernel_context)
    nodes_up = obstacle_nodes(ObstacleCurve("circle", (0.0, 0.5), 0.2), 8)
    ctx = build_rough_kernel_context(nodes_up, flat_b2, medium)
    rows = extension_rows(nodes_up.positions, flat_b2)
    with pytest.raises(ConfigurationError):
        assemble_bie(nodes_up, medium, ctx, rows)


def test_neumann_rejects_negative_impedance(free_circle_solver):
    from layered_scatter.obstacle import assemble_bie
    solver = free_circle_solver
    with pytest.raises(ConfigurationError):
        assemble_bie(solver.nodes, solver.medium, solver.kernel_ctx,
                     solver.rows["boundary"], lam=-1.0)


def test_impedance_prebuilt_operator_matches_per_source_assembly(
        bump_profile):
    from layered_scatter.forward import (ForwardSolver, ObstacleSpec,
                                         SceneConfig)
    from layered_scatter.geometry import ReceiverLine
    from layered_scatter.ls_volume import extend_stage2_many, extension_rows
    from layered_scatter.obstacle import (assemble_bie,
                                          neumann_impedance_solve,
                                          radiation_matrix,
                                          scattered_from_density)
    curve = ObstacleCurve("circle", (0.0, -1.3), 0.5)
    config = SceneConfig(
        medium=MediumParams(1.0, 1.5), profile=bump_profile,
        cell_size=0.25, receivers=ReceiverLine(2.0, 3.0, 5),
        obstacle=ObstacleSpec(curve=curve, condition="impedance", lam=1.0,
                              boundary_M=16))
    solver = ForwardSolver(config)
    rx = config.receivers.points()
    src = SourceSpec("dipole", (0.3, 1.2), 2)
    ev = solver.solve(src)
    prebuilt = ev._correction

    # the same solve with every source-independent product built per call
    bg, med, b2 = ev._background, solver.medium, solver.b2
    P = solver.nodes.positions
    at_nodes = extension_rows(P, b2)
    inc = extend_stage2_many(bg, P, b2, at_nodes)
    op = assemble_bie(solver.nodes, med, solver.kernel_ctx, at_nodes,
                      lam=1.0)
    fresh = neumann_impedance_solve(op, inc, 1.0)
    assert fresh.operator is not solver.bie_operator
    assert fresh.psi.tobytes() == prebuilt.psi.tobytes()
    assert fresh.operator.entries.tobytes() \
        == solver.bie_operator.entries.tobytes()
    at_rx = extension_rows(rx, b2)
    direct = extend_stage2_many(bg, rx, b2, at_rx, total=False) \
        + scattered_from_density(fresh, rx,
                                 radiation_matrix(op, rx, at_rx))
    assert direct.tobytes() == ev.scattered(rx).tobytes()
    with pytest.raises(ConfigurationError):
        neumann_impedance_solve(solver.bie_operator, inc, 2.0)


# ---------------------------------------------------------------------------
# Normal-dipole kernel columns
# ---------------------------------------------------------------------------
def _column_error(kernel, reference):
    """Largest relative difference, over the columns and on the B1 and the
    B2 rows apart, between the column solutions of kernel on U and
    reference (an empty mesh has no entry)."""
    return max(float(np.max(np.max(np.abs(kernel.q[k] - reference[k]), axis=0)
                            / np.max(np.abs(reference[k]), axis=0)))
               for k in kernel.b2.union.parts if reference[k].size)


def _normal_derivative(solver, P, nu):
    """Richardson-extrapolated central differences along nu of the
    monopole column solutions at P: minus the nu-dipole columns, since
    dG/dnu(y) is minus the field of the nu-dipole at y."""
    def difference(h):
        plus = RoughKernel(solver.b2, solver.medium, P + h * nu)
        minus = RoughKernel(solver.b2, solver.medium, P - h * nu)
        return (plus.q - minus.q) / (2.0 * h)

    h = 1e-4
    return -(4.0 * difference(0.5 * h) - difference(h)) / 3.0


def test_dipole_columns_are_the_normal_derivative(layered_obstacle_solver):
    """The nu-dipole columns at the nodes are minus the derivative of the
    monopole columns along nu: against Richardson-extrapolated central
    differences of monopole columns at the shifted nodes, on every column.
    So are the columns of dipoles on two bump-cell centers, where the
    free-space part takes its principal value 0 (no node sits on a cell).
    The scene runs at rule tolerance 1e-10: at the shipped 1e-8 the dipole
    and monopole rules differ by up to 1.8e-8 of the column nearest the
    interface."""
    from layered_scatter.forward import ForwardSolver
    config = dataclasses.replace(layered_obstacle_solver.config,
                                 quad_tol=1e-10)
    solver = ForwardSolver(config)
    dnu = solver.kernel_ctx[1]
    P, nu = solver.nodes.positions, solver.nodes.normals
    C = solver.mesh_B2.centers[[2, 5]]
    e = np.array([[0.0, 1.0], [0.6, 0.8]])
    on_cells = RoughKernel(solver.b2, solver.medium, C, e)
    assert _column_error(on_cells, _normal_derivative(solver, C, e)) <= 1e-8
    reference = _normal_derivative(solver, P, nu)
    assert _column_error(dnu, reference) <= 1e-8
    flipped = RoughKernel(solver.b2, solver.medium, P, -nu)
    assert _column_error(flipped, reference) > 1.0


def test_dipole_columns_of_both_stages(layered_obstacle_solver,
                                       bump_and_dip_profile):
    """The same check over a bump and a dip, where the columns have rows
    on the dip cells as well as on the bump cells, with dipoles on the
    nodes and on cell centers of both meshes (measured 2e-11 to 6e-11)."""
    from layered_scatter.forward import ForwardSolver
    config = dataclasses.replace(layered_obstacle_solver.config,
                                 profile=bump_and_dip_profile,
                                 quad_tol=1e-10)
    solver = ForwardSolver(config)
    assert solver.mesh_B1.n > 0 and solver.mesh_B2.n > 0
    P, nu = solver.nodes.positions, solver.nodes.normals
    assert _column_error(solver.kernel_ctx[1],
                         _normal_derivative(solver, P, nu)) <= 1e-8
    C = np.vstack([solver.mesh_B1.centers[[1, 4]],
                   solver.mesh_B2.centers[[2]]])
    e = np.array([[0.0, 1.0], [0.6, 0.8], [1.0, 0.0]])
    assert _column_error(RoughKernel(solver.b2, solver.medium, C, e),
                         _normal_derivative(solver, C, e)) <= 1e-8
