"""The volume equation on D_f: self-weights, the dense operator contract,
the flat-scene composition identity (where the exact answer is known), the
kernels evaluated once on U, the union of the B1 and B2 cells, and the
solve on U against a direct solve of the signed equation on D_f."""

from collections import Counter

import numpy as np
import pytest
import scipy.integrate

from layered_scatter.errors import AccuracyError, SingularityError
from layered_scatter.forward import ForwardSolver, SceneConfig
from layered_scatter.geometry import (
    InterfaceProfile,
    ObstacleCurve,
    ReceiverLine,
    build_region_mesh,
)
from layered_scatter.layered_green import MediumParams, PlanarGreen, SourceSpec
from layered_scatter.ls_volume import (
    CellUnion,
    DenseOperator,
    assemble_B1_operator,
    assemble_B2_operator,
    cell_self_weight,
    extend_stage2_many,
    extension_rows,
    free_space_matrix,
    log_integral_square,
    planar_field_column,
    planar_green_matrix,
    planar_scattered_matrix,
    solve_stage2,
)

SRC = SourceSpec("monopole", (0.3, 1.2))


def _extend(sol, X, b2, total=True):
    """The extension formula at X, on the volume rows built there."""
    X = np.asarray(X, float)
    return extend_stage2_many(sol, X, b2, extension_rows(X, b2),
                              total=total)


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


def test_cell_self_weight_against_quadrature(free_space):
    kappa, h = 1.5, 0.2

    def reference(half):
        def part(real):
            def f(y, x):
                v = free_space(kappa, (x, y), (0.0, 0.0))
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
# The matrices and columns run on fixed xi-rules, the point calls on
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


def test_free_space_term_of_every_pair(medium, free_space):
    # Phi of y's half-plane on same-side pairs, zero across x2 = 0, and at
    # a coincident pair the cell average over y's cell (a monopole) or the
    # principal value 0 (a dipole); the last pair straddles x2 = 0
    X = np.array([[0.3, 0.6], [-0.5, -0.4], [0.0, 1e-13]])
    Y = np.array([[0.3, 0.6], [0.7, 1.1], [-0.5, -0.4], [0.2, -0.9],
                  [0.0, -1e-13]])
    w = np.array([0.01, 0.02, 0.03, 0.04, 0.05])
    t = np.linspace(0.4, 5.0, len(Y))
    nu = np.stack([np.cos(t), np.sin(t)], axis=-1)
    mono = free_space_matrix(medium, X, Y, y_weights=w)
    dip = free_space_matrix(medium, X, Y, normals=nu)
    kappa = np.where(Y[:, 1] > 0.0, medium.kappa1, medium.kappa2)
    for i, x in enumerate(X):
        for j, y in enumerate(Y):
            if np.hypot(*(x - y)) < 1e-12:
                want = (cell_self_weight(kappa[j], w[j]) / w[j], 0.0)
            elif (x[1] > 0.0) == (y[1] > 0.0):
                want = (free_space(kappa[j], x, y),
                        sum(nu[j, ell - 1] * free_space(kappa[j], x, y, ell)
                            for ell in (1, 2)))
            else:
                want = (0.0, 0.0)
            for got, v in zip((mono[i, j], dip[i, j]), want):
                assert abs(got - v) <= 1e-14 * max(1.0, abs(v))
    # the sources carry no cell: the cell is x's, of the same area here
    assert np.array_equal(free_space_matrix(medium, X, Y[[0, 2, 4]],
                                            x_weights=w[[0, 2, 4]]),
                          free_space_matrix(medium, X, Y[[0, 2, 4]],
                                            y_weights=w[[0, 2, 4]]))


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
    # a dipole's free-space part takes its principal value 0 there
    dip = SourceSpec("dipole", SRC.position, 2)
    got = planar_field_column(green, dip, X, total=True)
    want = green.matrix("dipole", 2, X, [SRC.position])[:, 0]
    assert got.tobytes() == want.tobytes()


def test_normal_dipole_columns_combine_the_coordinate_dipoles(
        bump_and_dip_profile, medium):
    # the normal-dipole columns of planar_green_matrix (the obstacle's
    # kernel columns) and the coordinate-dipole columns of
    # planar_field_column (the dipole sources) evaluate one kernel: at
    # nu = (cos t, sin t) the first is cos t times the horizontal plus
    # sin t times the vertical dipole's column
    green = PlanarGreen(medium, 1e-8)
    u = CellUnion(medium, *(build_region_mesh(tag, bump_and_dip_profile, 0.1)
                            for tag in ("B1", "B2")))
    rx = ReceiverLine(b=2.0, a=3.0, count=11).points()
    sources = np.array([[0.3, 1.1], [-1.2, 0.6], [0.4, -0.7],
                        [1.1, -1.5], u.centers[0], u.centers[-1]])
    for X in (u.centers, rx):
        for y, theta in zip(sources, np.linspace(0.3, 5.9, len(sources))):
            nu = np.array([[np.cos(theta), np.sin(theta)]])
            got = planar_green_matrix(green, X, y[None, :], normals=nu)[:, 0]
            want = sum(c * planar_field_column(
                green, SourceSpec("dipole", tuple(y), ell), X)
                for c, ell in ((nu[0, 0], 1), (nu[0, 1], 2)))
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


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


def test_dense_operator_of_an_empty_mesh():
    op = DenseOperator(np.eye(0, dtype=complex))
    assert op.solve(np.zeros(0, complex)).shape == (0,)
    assert op.solve(np.zeros((0, 3), complex)).shape == (0, 3)


# ---------------------------------------------------------------------------
# The dip scene (B1 cells only) and the flat scene (exact answer known)
# ---------------------------------------------------------------------------
def test_stage1_extension_returns_solved_values_at_centers(dip_b2):
    # the dip scene has no B2 cell: U is the B1 cells, and its field the
    # Green's function of min(f, 0); at a center the extension formula is
    # the equation itself, so it returns the solved value up to rounding
    u = dip_b2.union
    assert len(u.centers[u.parts[1]]) == 0
    sol = solve_stage2(SRC, dip_b2)
    idx = np.arange(len(u.centers))[::3]
    vals = _extend(sol, u.centers[idx], dip_b2)
    assert len(idx) >= 10
    assert np.max(np.abs(vals - sol.values[idx])) \
        <= 1e-12 * np.max(np.abs(sol.values))


def test_flat_scene_composition_identity(flat_b2):
    """With f = 0 the rough interface *is* the flat one: no cell is built,
    and the volume solve must reproduce the planar kernel wherever we
    look."""
    assert flat_b2.n == 0
    sol = solve_stage2(SRC, flat_b2)
    green = flat_b2.green
    pts = np.array([[0.4, 0.8], [-1.3, 0.5], [0.9, -0.7], [2.0, 1.5]])
    got = _extend(sol, pts, flat_b2)
    for p, v in zip(pts, got):
        exact = green.total(p, SRC.position)
        assert abs(v - exact) / abs(exact) < 5e-3


def test_flat_scene_scattered_part(flat_b2, medium, free_space):
    sol = solve_stage2(SRC, flat_b2)
    green = flat_b2.green
    p = np.array([[0.4, 0.8]])
    us = _extend(sol, p, flat_b2, total=False)[0]
    exact = green.scattered(p[0], SRC.position)
    assert abs(us - exact) / abs(exact) < 5e-3
    # total minus incident equals scattered algebraically
    tot = _extend(sol, p, flat_b2, total=True)[0]
    inc = free_space(medium.kappa1, p[0], SRC.position)
    assert abs((tot - inc) - us) < 1e-12


def test_scattered_finite_at_source_position(flat_b2):
    sol = solve_stage2(SRC, flat_b2)
    val = _extend(sol, np.array([list(SRC.position)]), flat_b2,
                  total=False)[0]
    assert np.isfinite(val)


def test_green_arc_reciprocity(dip_b2):
    """Reciprocity of the Green's function of the auxiliary interface
    min(f, 0) (called the arc kernel after the auxiliary interface it
    replaced): on the dip scene each value is a monopole solve extended to
    the other point."""
    def g(x, y):
        sol = solve_stage2(SourceSpec("monopole", y), dip_b2)
        return _extend(sol, np.array([x]), dip_b2)[0]
    x, y = (0.4, 0.6), (-0.7, 0.9)
    a = g(x, y)
    b = g(y, x)
    assert abs(a - b) / abs(a) < 1e-4


def test_zero_contrast_operators_are_identity(bump_and_dip_profile,
                                              free_space):
    # cells of zero contrast stay out of U: at eta = 0 and with an obstacle
    # of index 1 U is empty, and so are the operators and every row
    degenerate = MediumParams(1.5, 1.5)
    circle = ObstacleCurve("circle", (0.0, -1.3), 0.5)
    meshes = [build_region_mesh("B1", bump_and_dip_profile, 0.25),
              build_region_mesh("B2", bump_and_dip_profile, 0.25),
              build_region_mesh("D_penetrable", circle, 0.25)]
    assert all(mesh.n > 0 for mesh in meshes)
    green = PlanarGreen(degenerate, 1e-8)
    union = CellUnion(degenerate, *meshes, n=1.0)
    assert union.centers.shape == (0, 2)
    assert [part.stop for part in union.parts] == [0, 0, 0]
    kernel = union.kernel(green)
    assert kernel.shape == (0, 0)
    op1 = assemble_B1_operator(union, green, kernel)
    b2 = assemble_B2_operator(union, op1, kernel)
    assert op1.n == b2.n == 0
    sol = solve_stage2(SRC, b2)
    # extension reduces to the planar field, which is free space here
    p = np.array([(0.5, 0.7)])
    rows = extension_rows(p, b2)
    assert rows.shape == (1, 0)
    got = extend_stage2_many(sol, p, b2, rows)[0]
    free = free_space(1.5, p[0], SRC.position)
    assert abs(got - free) < 1e-8


# ---------------------------------------------------------------------------
# Kernels on the union of the B1 and B2 cells
# ---------------------------------------------------------------------------
def _contrast_weights(solver):
    """q w on the B1 and the B2 mesh, q = -eta and +eta."""
    eta = solver.medium.eta
    return (-eta * solver.mesh_B1.weights, eta * solver.mesh_B2.weights)


def _per_mesh(solver):
    """The operator on U, I - K diag(q w), from kernels evaluated on each
    pair of meshes alone."""
    green = solver.green
    meshes = (solver.mesh_B1, solver.mesh_B2)
    K = np.block([[planar_green_matrix(green, a.centers, b.centers, b.weights)
                   for b in meshes] for a in meshes])
    qw = np.concatenate(_contrast_weights(solver))
    return DenseOperator(np.eye(len(qw), dtype=complex) - K * qw[None, :])


def _per_mesh_rows(solver, X):
    """The weighted volume rows G(X, U; flat) q w, evaluated per mesh."""
    return np.hstack([
        planar_green_matrix(solver.green, X, m.centers, m.weights)
        * qw[None, :]
        for m, qw in zip((solver.mesh_B1, solver.mesh_B2),
                         _contrast_weights(solver))])


def _per_mesh_scattered(solver, op, src, X):
    """Scattered field of src at X through the per-mesh operator op."""
    green = solver.green
    C = np.concatenate([solver.mesh_B1.centers, solver.mesh_B2.centers])
    w = np.concatenate([solver.mesh_B1.weights, solver.mesh_B2.weights])
    v = op.solve(planar_field_column(green, src, C, True, w))
    return planar_field_column(green, src, X, total=False) \
        + _per_mesh_rows(solver, X) @ v


def _scene(*bumps):
    return SceneConfig(medium=MediumParams(1.0, 1.5),
                       profile=InterfaceProfile(bumps),
                       cell_size=0.2, receivers=ReceiverLine(2.0, 3.0, 11))


SOURCES3 = (SourceSpec("monopole", (0.3, 1.2)),
            SourceSpec("dipole", (-0.7, 0.9), 1),
            SourceSpec("dipole", (1.1, 0.6), 2))


def test_shared_cells_keep_the_bytes_of_per_mesh_evaluation(
        layered_obstacle_solver):
    s = layered_obstacle_solver
    green = s.green
    m1, m2 = s.mesh_B1, s.mesh_B2
    u = s.b2.union
    # under the bump B1 is empty: the union is B2, whose blocks, rules and
    # entries are the mesh's own
    assert m1.n == 0
    assert np.array_equal(u.centers, m2.centers)
    ref = _per_mesh(s)
    assert np.array_equal(s.b2.entries, ref.entries)
    rx = s.config.receivers.points()
    # the kept rows are weighted by the contrast weights, as the per-mesh
    # rows are here with the same operation
    rows = s.extension_rows(rx)
    assert rows.tobytes() == _per_mesh_rows(s, rx).tobytes()
    for src in SOURCES3:
        sol = solve_stage2(src, s.b2)
        # the solved values satisfy A u = u_flat on U
        flat = planar_field_column(green, src, u.centers, True, u.weights)
        assert np.max(np.abs(s.b2.entries @ sol.values - flat)) \
            <= 1e-12 * np.max(np.abs(flat))
        # the background field at the receivers, obstacle left out
        assert np.array_equal(
            extend_stage2_many(sol, rx, s.b2, rows, total=False),
            _per_mesh_scattered(s, ref, src, rx))
    center = s.kernel_ctx[0]
    q = s.b2.solve(planar_green_matrix(green, m2.centers, center.sources,
                                       x_weights=m2.weights))
    assert np.array_equal(center.q, q)


@pytest.mark.parametrize("bumps", [((0.0, 1.0, -0.3),),
                                   ((-0.9, 0.7, 0.3), (0.9, 0.7, -0.3))],
                         ids=["dip", "bump and dip"])
def test_union_agrees_with_per_mesh_evaluation(bumps):
    s = ForwardSolver(_scene(*bumps))
    u = s.b2.union
    assert len(u.centers) > s.mesh_B2.n
    for k, mesh in enumerate((s.mesh_B1, s.mesh_B2)):
        assert np.array_equal(u.centers[u.parts[k]], mesh.centers)
        assert np.array_equal(u.weights[u.parts[k]], mesh.weights)
        assert np.array_equal(u.qw[u.parts[k]],
                              _contrast_weights(s)[k])
    ref = _per_mesh(s)
    assert s.b2.entries.shape == ref.entries.shape == (len(u.centers),) * 2
    assert np.max(np.abs(s.b2.entries - ref.entries)) \
        <= 1e-8 * np.max(np.abs(ref.entries))
    rx = s.config.receivers.points()
    got = s.solve(SOURCES3[1]).scattered(rx)
    want = _per_mesh_scattered(s, ref, SOURCES3[1], rx)
    assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


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


def _free_wave(free_space, src, X, kappa):
    """The free-space wave of src at each point of X, point by point."""
    return np.array([free_space(kappa, x, src.position, src.direction)
                     for x in X])


def test_fields_at_every_center_of_u_are_the_solved_values(
        bump_and_dip_profile, free_space):
    # the extension formula holds at every point: at a cell center of U it
    # is the volume equation, so the fields there are the solved values
    s = ForwardSolver(SceneConfig(medium=MediumParams(1.0, 1.5),
                                  profile=bump_and_dip_profile,
                                  cell_size=0.1))
    u = s.b2.union
    assert s.mesh_B1.n >= 15 and s.mesh_B2.n >= 15
    above = u.centers[:, 1] > 0.0
    for src in SOURCES3:
        ev = s.solve(src)
        want = solve_stage2(src, s.b2).values
        scale = np.max(np.abs(want))
        assert np.max(np.abs(ev.total(u.centers) - want)) <= 1e-12 * scale
        # the free-space wave of a source above is removed above only
        scattered = ev.scattered(u.centers) \
            + np.where(above, _free_wave(free_space, src, u.centers,
                                         s.medium.kappa1), 0)
        assert np.max(np.abs(scattered - want)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# The solve on U against a direct solve of the equation on D_f
# ---------------------------------------------------------------------------
def _one_stage_scattered(solver, src, X):
    """Scattered field of src at X from one direct solve of
    u = u_flat + eta int_{D_f} G(., y; flat) c(y) u(y) dy on the cells of
    B1 and B2, c = -1 on B1 and +1 on B2, each cell with one weight."""
    green, eta = solver.green, solver.medium.eta
    m1, m2 = solver.mesh_B1, solver.mesh_B2
    C = np.concatenate([m1.centers, m2.centers])
    w = np.concatenate([m1.weights, m2.weights])
    cw = np.concatenate([-m1.weights, m2.weights])
    A = np.eye(len(C)) - eta * planar_green_matrix(green, C, C, w) * cw
    u = np.linalg.solve(A, planar_field_column(green, src, C, True, w))
    return planar_field_column(green, src, X, total=False) \
        + eta * planar_green_matrix(green, X, C) @ (cw * u)


@pytest.mark.parametrize("bumps", [((0.0, 1.0, 0.3),), ((0.0, 1.0, -0.3),),
                                   ((-0.9, 0.7, 0.25), (0.9, 0.7, -0.25))],
                         ids=["bump", "dip", "bump and dip"])
def test_nested_solve_is_the_one_stage_solve_on_d_f(bumps):
    s = ForwardSolver(_scene(*bumps))
    rx = s.config.receivers.points()
    assert s.mesh_B1.n + s.mesh_B2.n > 0
    for src in SOURCES3:
        got = s.solve(src).scattered(rx)
        want = _one_stage_scattered(s, src, rx)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
