"""Nested volume equations: self-weights, the dense operator contract, the
flat-scene composition identity (where the exact answer is known) and the
kernels evaluated once on the union of the B1 and B2 cells."""

from collections import Counter

import numpy as np
import pytest
import scipy.integrate

from layered_scatter.errors import (
    AccuracyError,
    ConfigurationError,
    SingularityError,
)
from layered_scatter.forward import ForwardSolver, SceneConfig
from layered_scatter.geometry import (
    InterfaceProfile,
    ReceiverLine,
    SceneGeometry,
    build_region_mesh,
)
from layered_scatter.layered_green import MediumParams, PlanarGreen, SourceSpec
from layered_scatter.ls_volume import (
    CellUnion,
    DenseOperator,
    assemble_B1_operator,
    assemble_B2_operator,
    cell_self_weight,
    extend_stage1_many,
    extend_stage2_many,
    green_arc,
    log_integral_square,
    planar_field_column,
    planar_green_matrix,
    planar_scattered_matrix,
    solve_stage1,
    solve_stage2,
)
from layered_scatter.specfun import fundamental_solution

SRC = SourceSpec("monopole", (0.3, 1.2))


# ---------------------------------------------------------------------------
# Singular self-weight
# ---------------------------------------------------------------------------
def test_log_integral_square_against_quadrature():
    h = 0.37

    def f(y, x):
        return np.log(np.hypot(x, y))

    # quarter-square symmetry keeps the quadrature nodes off the origin
    ref = 4.0 * scipy.integrate.dblquad(f, 0.0, h / 2, 0.0, h / 2,
                                        epsabs=1e-12)[0]
    assert log_integral_square(h) == pytest.approx(ref, abs=1e-10)


def test_cell_self_weight_against_quadrature():
    kappa, h = 1.5, 0.2

    def reference(half):
        def part(real):
            def f(y, x):
                v = fundamental_solution(kappa, (x, y), (0.0, 0.0))
                return v.real if real else v.imag
            # quarter-square symmetry keeps nodes off the singularity
            return 4.0 * scipy.integrate.dblquad(f, 0.0, half, 0.0, half,
                                                 epsabs=1e-11)[0]
        return part(True) + 1j * part(False)

    ref = reference(h / 2)
    got = cell_self_weight(kappa, h * h)
    # midpoint treatment of the smooth factor leaves an O(h^2) gap
    assert abs(got - ref) < 5e-3 * abs(ref)
    ref_fine = reference(h / 8)
    got_fine = cell_self_weight(kappa, (h / 4) ** 2)
    assert abs(got_fine - ref_fine) / abs(ref_fine) \
        < abs(got - ref) / abs(ref)


# ---------------------------------------------------------------------------
# Kernel matrices
# ---------------------------------------------------------------------------
# The matrices and columns run on fixed xi-rules, the scalar entry points on
# the reference integrals; both must meet the fixture's tolerance, so they
# are compared with the 1e-12 reference at that tolerance.
def test_scattered_matrix_matches_scalar(green, reference):
    X = np.array([[0.3, 0.6], [-0.5, -0.4]])
    Y = np.array([[0.0, 1.1], [0.7, -0.9]])
    mat = planar_scattered_matrix(green, X, Y)
    for i, x in enumerate(X):
        for j, y in enumerate(Y):
            assert mat[i, j] == pytest.approx(reference.scattered(x, y),
                                              abs=green.tol)


def test_green_matrix_adds_free_space_same_side(green, reference):
    X = np.array([[0.3, 0.6]])
    Y = np.array([[0.0, 1.1], [0.7, -0.9]])
    mat = planar_green_matrix(green, X, Y)
    assert mat[0, 0] == pytest.approx(reference.total(X[0], Y[0]),
                                      abs=green.tol)
    # cross side: scattered part is already the transmitted total
    assert mat[0, 1] == pytest.approx(reference.scattered(X[0], Y[1]),
                                      abs=green.tol)


def test_green_matrix_coincident_needs_weights(green):
    X = np.array([[0.3, -0.6]])
    with pytest.raises(SingularityError):
        planar_green_matrix(green, X, X)
    w = np.array([0.01])
    val = planar_green_matrix(green, X, X, w)[0, 0]
    assert np.isfinite(val)


def test_field_column_matches_scalar(green, reference):
    X = np.array([[0.4, 0.7], [-0.6, -0.5], [0.3, 1.2]])
    # last point far from the source; all same-side or cross values
    col = planar_field_column(green, SRC, X, total=False)
    for i, x in enumerate(X):
        assert col[i] == pytest.approx(reference.scattered(x, SRC.position),
                                       abs=green.tol)


def test_field_column_source_on_mesh_point(green):
    X = np.array([list(SRC.position)])
    with pytest.raises(SingularityError):
        planar_field_column(green, SRC, X, total=True)
    val = planar_field_column(green, SRC, X, total=True,
                              x_weights=np.array([0.01]))[0]
    assert np.isfinite(val)
    dip = SourceSpec("dipole", SRC.position, 2)
    with pytest.raises(SingularityError):
        planar_field_column(green, dip, X, total=True,
                            x_weights=np.array([0.01]))


# ---------------------------------------------------------------------------
# Dense operator
# ---------------------------------------------------------------------------
def test_dense_operator_solves(rng):
    A = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)) \
        + 12.0 * np.eye(12)
    op = DenseOperator(A)
    x = rng.normal(size=12) + 1j * rng.normal(size=12)
    got = op.solve(A @ x)
    assert np.max(np.abs(got - x)) < 1e-10
    assert op.last_residual < 1e-12


def test_dense_operator_rejects_bad_residual():
    # numerically singular matrix: the residual contract must trip
    A = np.ones((4, 4), dtype=complex) + 1e-15 * np.eye(4)
    op = DenseOperator(A)
    with pytest.raises((AccuracyError, Exception)):
        op.solve(np.array([1.0, 2.0, 3.0, 4.0], dtype=complex))


def test_dense_operator_residual_check_ignores_concurrent_writes():
    # a concurrent solve that lands between the write of last_residual and
    # the contract check must not hide this solve's bad residual
    class Overwritten(DenseOperator):
        @property
        def last_residual(self):
            return 0.0

        @last_residual.setter
        def last_residual(self, value):
            pass

    op = Overwritten(np.eye(3, dtype=complex))
    op.factorize()
    op.entries = 2.0 * np.eye(3)    # the solve's residual is now 1/2
    with pytest.raises(AccuracyError):
        op.solve(np.ones(3, dtype=complex))


def test_dense_operator_multiple_rhs(rng):
    A = rng.normal(size=(8, 8)) + 8.0 * np.eye(8) + 0.0j
    op = DenseOperator(A)
    B = rng.normal(size=(8, 3)) + 0.0j
    X = op.solve(B)
    assert np.max(np.abs(A @ X - B)) < 1e-10


# ---------------------------------------------------------------------------
# Stage 1 and stage 2 on the flat scene (exact answer known)
# ---------------------------------------------------------------------------
def test_stage1_extension_returns_solved_values_at_centers(flat_b2, medium):
    op1 = flat_b2.stage1
    sol = solve_stage1(SRC, op1, op1.mesh, medium)
    sub = op1.mesh.centers[::17]
    vals = extend_stage1_many(sol, sub, medium, op1.green)
    idx = np.arange(op1.mesh.n)[::17]
    assert np.max(np.abs(vals - sol.values[idx])) == 0.0


def test_flat_scene_composition_identity(flat_b2, medium):
    """With f = 0 the rough interface *is* the flat one: the two nested
    stages must reproduce the planar kernel wherever we look."""
    sol = solve_stage2(SRC, flat_b2, flat_b2.mesh, medium)
    green = flat_b2.green
    pts = np.array([[0.4, 0.8], [-1.3, 0.5], [0.9, -0.7], [2.0, 1.5]])
    got = extend_stage2_many(sol, pts, medium, flat_b2)
    for p, v in zip(pts, got):
        exact = green.total(p, SRC.position)
        assert abs(v - exact) / abs(exact) < 5e-3


def test_flat_scene_scattered_part(flat_b2, medium):
    sol = solve_stage2(SRC, flat_b2, flat_b2.mesh, medium)
    green = flat_b2.green
    p = np.array([[0.4, 0.8]])
    us = extend_stage2_many(sol, p, medium, flat_b2, total=False)[0]
    exact = green.scattered(p[0], SRC.position)
    assert abs(us - exact) / abs(exact) < 5e-3
    # total minus incident equals scattered algebraically
    tot = extend_stage2_many(sol, p, medium, flat_b2, total=True)[0]
    inc = fundamental_solution(medium.kappa1, p[0], SRC.position)
    assert abs((tot - inc) - us) < 1e-12


def test_scattered_finite_at_source_position(flat_b2, medium):
    sol = solve_stage2(SRC, flat_b2, flat_b2.mesh, medium)
    val = extend_stage2_many(sol, np.array([list(SRC.position)]),
                             medium, flat_b2, total=False)[0]
    assert np.isfinite(val)


def test_green_arc_reciprocity(flat_b2, medium):
    op1 = flat_b2.stage1
    x, y = (0.4, 0.6), (-0.7, 0.9)
    a = green_arc(x, y, medium, op1)
    b = green_arc(y, x, medium, op1)
    assert abs(a - b) / abs(a) < 1e-4


def test_zero_contrast_operators_are_identity(flat_scene):
    degenerate = MediumParams(1.5, 1.5)
    m1 = build_region_mesh("B1", flat_scene, 0.25)
    m2 = build_region_mesh("B2", flat_scene, 0.25)
    op1 = assemble_B1_operator(m1, degenerate)
    assert np.array_equal(op1.entries, np.eye(m1.n))
    b2 = assemble_B2_operator(m2, degenerate, op1)
    sol = solve_stage2(SRC, b2, m2, degenerate)
    # extension reduces to the planar field, which is free space here
    p = (0.5, 0.7)
    got = extend_stage2_many(sol, np.array([p]), degenerate, b2)[0]
    free = fundamental_solution(1.5, p, SRC.position)
    assert abs(got - free) < 1e-8


# ---------------------------------------------------------------------------
# Kernels on the union of the B1 and B2 cells
# ---------------------------------------------------------------------------
def _per_mesh(solver):
    """The nested operators from kernels evaluated on each mesh alone."""
    green, eta = solver.green, solver.medium.eta
    m1, m2 = solver.mesh_B1, solver.mesh_B2
    w1, w2 = m1.weights, m2.weights
    A1 = np.eye(m1.n, dtype=complex) + eta * planar_green_matrix(
        green, m1.centers, m1.centers, w1) * w1[None, :]
    G12 = planar_green_matrix(green, m2.centers, m1.centers, w1)
    G22 = planar_green_matrix(green, m2.centers, m2.centers, w2)
    op1 = DenseOperator(A1)
    columns = op1.solve(np.ascontiguousarray(G12.T))
    cross = G12 * w1[None, :]
    A2 = np.eye(m2.n, dtype=complex) \
        - eta * (G22 - eta * cross @ columns) * w2[None, :]
    return {"op1": op1, "op2": DenseOperator(A2), "cross": cross,
            "columns": columns}


def _per_mesh_rows(solver, ref, X):
    green, eta = solver.green, solver.medium.eta
    m1, m2 = solver.mesh_B1, solver.mesh_B2
    rows1 = planar_green_matrix(green, X, m1.centers, m1.weights)
    gr = planar_green_matrix(green, X, m2.centers, m2.weights) \
        - eta * (rows1 * m1.weights[None, :]) @ ref["columns"]
    return rows1, gr


def _per_mesh_scattered(solver, ref, src, X):
    """Scattered field of src at X through the per-mesh operators."""
    green, eta = solver.green, solver.medium.eta
    m1, m2 = solver.mesh_B1, solver.mesh_B2
    v1 = ref["op1"].solve(planar_field_column(green, src, m1.centers, True,
                                              m1.weights))
    v2 = ref["op2"].solve(
        planar_field_column(green, src, m2.centers, True, m2.weights)
        - eta * (ref["cross"] @ v1))
    rows1, gr = _per_mesh_rows(solver, ref, X)
    arc = planar_field_column(green, src, X, total=False) \
        - eta * ((rows1 * m1.weights[None, :]) @ v1)
    return arc + eta * ((gr * m2.weights[None, :]) @ v2)


def _scene(*bumps):
    return SceneConfig(medium=MediumParams(1.0, 1.5),
                       profile=InterfaceProfile(bumps), arc_radius=2.6,
                       cell_size=0.2, receivers=ReceiverLine(2.0, 3.0, 11))


SOURCES3 = (SourceSpec("monopole", (0.3, 1.2)),
            SourceSpec("dipole", (-0.7, 0.9), 1),
            SourceSpec("dipole", (1.1, 0.6), 2))


def test_shared_cells_keep_the_bytes_of_per_mesh_evaluation(
        layered_obstacle_solver):
    s = layered_obstacle_solver
    green, eta = s.green, s.medium.eta
    m1, m2 = s.mesh_B1, s.mesh_B2
    # under the bump B1's cells are B2's below x2 = 0: the union is B2
    assert np.array_equal(s.b2.union.centers, m2.centers)
    ref = _per_mesh(s)
    assert np.array_equal(s.stage1.entries, ref["op1"].entries)
    assert np.array_equal(s.b2.cross_matrix, ref["cross"])
    assert np.array_equal(s.b2.stage1_columns, ref["columns"])
    assert np.array_equal(s.b2.entries, ref["op2"].entries)
    rx = s.config.receivers.points()
    # the kept rows are weighted by the cell areas, as the per-mesh rows
    # are here with the same operation
    rows = s.extension_rows(rx)
    rows1, gr = _per_mesh_rows(s, ref, rx)
    assert np.array_equal(rows.rows1, rows1 * m1.weights[None, :])
    assert np.array_equal(rows.rows2, gr * m2.weights[None, :])
    for src in SOURCES3:
        sol = solve_stage2(src, s.b2, m2, s.medium)
        sol1 = sol.stage1
        assert np.array_equal(sol1.rhs, planar_field_column(
            green, src, m1.centers, True, m1.weights))
        assert np.array_equal(sol.rhs, planar_field_column(
            green, src, m2.centers, True, m2.weights)
            - eta * (ref["cross"] @ sol1.values))
        # the background field at the receivers, obstacle left out
        assert np.array_equal(
            extend_stage2_many(sol, rx, s.medium, s.b2, total=False,
                               rows=rows),
            _per_mesh_scattered(s, ref, src, rx))
    center = s.kernel_ctx[0]
    P = center.sources
    g = s.stage1.solve(planar_green_matrix(green, m1.centers, P,
                                           x_weights=m1.weights))
    assert np.array_equal(center.g, g)
    q = s.b2.solve(planar_green_matrix(green, m2.centers, P,
                                       x_weights=m2.weights)
                   - eta * (ref["cross"] @ g))
    assert np.array_equal(center.q, q)


@pytest.mark.parametrize("bumps", [((0.0, 1.0, -0.3),),
                                   ((-0.9, 0.7, 0.3), (0.9, 0.7, -0.3))],
                         ids=["dip", "bump and dip"])
def test_union_agrees_with_per_mesh_evaluation(bumps):
    s = ForwardSolver(_scene(*bumps))
    u = s.b2.union
    assert len(u.centers) > s.mesh_B2.n
    for k, mesh in enumerate(u.meshes):
        assert np.array_equal(u.centers[u.index[k]], mesh.centers)
    ref = _per_mesh(s)
    for got, want in ((s.stage1.entries, ref["op1"].entries),
                      (s.b2.entries, ref["op2"].entries)):
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))
    rx = s.config.receivers.points()
    got = s.solve(SOURCES3[1]).scattered(rx)
    want = _per_mesh_scattered(s, ref, SOURCES3[1], rx)
    assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


def test_source_on_a_cut_cell_gets_each_mesh_own_average():
    s = ForwardSolver(_scene((0.0, 1.0, -0.3)))
    u = s.b2.union
    m1, m2 = u.meshes
    w1 = m1.weights[np.searchsorted(u.index[0], u.index[1])]
    k2 = int(np.argmax(np.abs(w1 - m2.weights)))
    assert m2.weights[k2] < w1[k2]        # a cell the dip cuts
    k1 = int(u.index[1][k2])              # B1 is the union here
    src = SourceSpec("monopole", tuple(m2.centers[k2]))
    sol = solve_stage2(src, s.b2, m2, s.medium)
    rhs1 = sol.stage1.rhs
    assert np.array_equal(rhs1, planar_field_column(
        s.green, src, m1.centers, True, m1.weights))
    u2 = sol.rhs + s.medium.eta * s.b2.cross_matrix @ sol.stage1.values
    direct = planar_field_column(s.green, src, m2.centers, True, m2.weights)
    assert abs(u2[k2] - direct[k2]) < 1e-8 * abs(direct[k2])
    assert abs(u2[k2] - rhs1[k1]) > 1e-3 * abs(rhs1[k1])


def test_set_up_requests_no_cell_pair_twice_and_a_solve_two_columns(
        monkeypatch):
    requests = []
    matrix = PlanarGreen.matrix

    def counted(self, kind, ell, X, Y):
        requests.append((np.array(X, float), np.array(Y, float)))
        return matrix(self, kind, ell, X, Y)

    monkeypatch.setattr(PlanarGreen, "matrix", counted)
    config = _scene((0.0, 1.0, 0.3))
    s = ForwardSolver(config)
    rx = config.receivers.points()
    s.extension_rows(rx)
    pairs = np.concatenate([
        np.hstack([np.repeat(X, len(Y), axis=0), np.tile(Y, (len(X), 1))])
        for X, Y in requests])
    assert len(np.unique(pairs, axis=0)) == len(pairs)
    n = len(s.b2.union.centers)
    for src in SOURCES3[:2]:
        requests.clear()
        s.solve(src).scattered(rx)
        assert [(len(X), len(Y)) for X, Y in requests] == [(n, 1),
                                                           (len(rx), 1)]


def test_meshes_off_one_lattice_rejected(flat_scene):
    m1 = build_region_mesh("B1", flat_scene, 0.1)
    m2 = build_region_mesh("B2", flat_scene, 0.125)
    with pytest.raises(ConfigurationError):
        CellUnion(m1, m2)


def test_lattice_hits_match_a_search_over_every_center(
        layered_obstacle_solver):
    u = layered_obstacle_solver.b2.union
    rng = np.random.default_rng(3)
    centers = np.concatenate([m.centers for m in u.meshes])
    X = np.concatenate([
        rng.uniform(-3.0, 3.0, (200, 2)),            # mostly off every center
        centers[rng.choice(len(centers), 40)],       # on a center
        centers[:20] + rng.uniform(-1e-13, 1e-13, (20, 2)),
        centers[:20] + 1e-9,                         # near, not on
        [[1e300, 0.0], [-np.inf, 0.5], [np.nan, 0.1], [50.0, -50.0]]])
    for k, mesh in enumerate(u.meshes):
        want = np.full(len(X), -1)
        for i, p in enumerate(X):
            d = np.hypot(*(mesh.centers - p).T)
            if np.min(d) < 1e-12:
                want[i] = int(np.argmin(d))
        assert np.array_equal(u.hits(X, k), want)
        assert np.count_nonzero(want >= 0) >= 40
