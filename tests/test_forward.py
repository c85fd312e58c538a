"""Forward pipeline: configuration, evaluators, dataset synthesis,
the blow-up experiment and the mixed reciprocity identity."""

import os

import numpy as np
import pytest

from layered_scatter.errors import ConfigurationError, GeometryError
from layered_scatter.forward import (
    BlowupSequenceConfig,
    ForwardSolver,
    ObstacleSpec,
    SceneConfig,
    blowup_experiment,
    blowup_mesh,
    default_thread_count,
    forward_solve,
    mixed_reciprocity_check,
    synthesize_dataset,
)
from layered_scatter.geometry import (
    InterfaceProfile,
    ObstacleCurve,
    ReceiverLine,
)
from layered_scatter.layered_green import MediumParams, PlanarGreen, SourceSpec

SRC = SourceSpec("monopole", (0.3, 1.2))


@pytest.fixture(scope="module")
def flat_config():
    return SceneConfig(medium=MediumParams(1.0, 1.5), arc_radius=1.0,
                       cell_size=0.2, receivers=ReceiverLine(2.0, 3.0, 5))


@pytest.fixture(scope="module")
def flat_solver(flat_config):
    return ForwardSolver(flat_config)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
def test_default_thread_count_env(monkeypatch):
    monkeypatch.delenv("LAYERED_SCATTER_THREADS", raising=False)
    assert default_thread_count() == 1
    monkeypatch.setenv("LAYERED_SCATTER_THREADS", "4")
    assert default_thread_count() == 4
    monkeypatch.setenv("LAYERED_SCATTER_THREADS", "junk")
    assert default_thread_count() == 1
    monkeypatch.setenv("LAYERED_SCATTER_THREADS", "-2")
    assert default_thread_count() == 1


def test_scene_config_default_arc(bump_profile):
    config = SceneConfig(medium=MediumParams(1.0, 1.5), profile=bump_profile)
    assert config.arc().R == pytest.approx(2.0 * (1.0 + 0.3))
    explicit = SceneConfig(medium=MediumParams(1.0, 1.5),
                           profile=bump_profile, arc_radius=2.6)
    assert explicit.arc().R == 2.6


def test_obstacle_spec_validation():
    curve = ObstacleCurve("circle", (0.0, -1.3), 0.5)
    with pytest.raises(ConfigurationError):
        ObstacleSpec(curve=curve, condition="absorbing")
    with pytest.raises(ConfigurationError):
        ObstacleSpec(curve=curve, condition="impedance", lam=0.0)
    with pytest.raises(ConfigurationError):
        ObstacleSpec(curve=curve, condition="penetrable")


# ---------------------------------------------------------------------------
# Field evaluator
# ---------------------------------------------------------------------------
def test_total_minus_incident_is_scattered(flat_solver):
    ev = flat_solver.solve(SRC)
    pts = np.array([[0.5, 0.9], [-1.2, 1.5]])
    gap = ev.total(pts) - ev.incident(pts) - ev.scattered(pts)
    assert np.max(np.abs(gap)) < 1e-12


def test_evaluator_scalar_and_array_forms(flat_solver):
    ev = flat_solver.solve(SRC)
    p = (0.5, 0.9)
    one = ev.total(p)
    many = ev.total(np.array([p]))
    assert isinstance(one, complex)
    assert many.shape == (1,)
    assert one == many[0]


def test_scattered_finite_at_the_source(flat_solver):
    ev = flat_solver.solve(SRC)
    assert np.isfinite(ev.scattered(SRC.position))


def test_forward_solve_produces_records(flat_config):
    ev, records = forward_solve(flat_config, SRC)
    assert len(records) == 5
    pts = flat_config.receivers.points()
    for r, p in zip(records, pts):
        assert r.receiver == (p[0], p[1])
        # scalar re-evaluation integrates a different offset batch, so the
        # values agree only to the quadrature tolerance
        assert r.value == pytest.approx(ev.scattered(tuple(p)), abs=1e-7)


# ---------------------------------------------------------------------------
# Dataset synthesis
# ---------------------------------------------------------------------------
def test_dataset_rows_are_source_major(flat_config, flat_solver):
    sources = [SRC, SourceSpec("monopole", (-0.4, 1.0))]
    records = synthesize_dataset(flat_config, sources, solver=flat_solver)
    assert len(records) == 10
    assert [r.source_index for r in records] == [0] * 5 + [1] * 5


def test_dataset_deterministic_across_threads(flat_config, flat_solver):
    sources = [SRC, SourceSpec("monopole", (-0.4, 1.0)),
               SourceSpec("dipole", (0.8, 1.4), 2)]
    serial = synthesize_dataset(flat_config, sources, threads=1,
                                solver=flat_solver)
    threaded = synthesize_dataset(flat_config, sources, threads=4,
                                  solver=flat_solver)
    assert [r.value for r in serial] == [r.value for r in threaded]


def test_dataset_needs_receivers():
    config = SceneConfig(medium=MediumParams(1.0, 1.5), arc_radius=1.0,
                         cell_size=0.25)
    with pytest.raises(ConfigurationError):
        synthesize_dataset(config, [SRC])


# ---------------------------------------------------------------------------
# Blow-up experiment
# ---------------------------------------------------------------------------
def test_blowup_config_validation():
    with pytest.raises(ConfigurationError):
        BlowupSequenceConfig((0.0, 0.0), delta0=0.5, eps0=0.4)
    with pytest.raises(ConfigurationError):
        BlowupSequenceConfig((0.0, 0.0), n_max=2)
    with pytest.raises(ConfigurationError):
        BlowupSequenceConfig((0.0, 0.0), delta0=-0.1)


def test_blowup_mesh_is_below_interface(bump_profile):
    cfg = BlowupSequenceConfig((0.2, float(bump_profile(0.2))),
                               delta0=0.1, eps0=0.4, n_max=16)
    mesh = blowup_mesh(bump_profile, cfg)
    f = bump_profile(mesh.centers[:, 0])
    assert np.all(mesh.centers[:, 1] < f)
    z = np.asarray(cfg.z_star)
    r = np.hypot(mesh.centers[:, 0] - z[0], mesh.centers[:, 1] - z[1])
    assert np.max(r) < cfg.eps0
    # grading: cells shrink toward z*
    near = r < 0.05
    assert near.any()


def test_blowup_requires_z_star_on_graph(flat_config):
    cfg = BlowupSequenceConfig((0.2, 0.7), delta0=0.1, eps0=0.4, n_max=8)
    with pytest.raises(GeometryError):
        blowup_experiment(flat_config, cfg)


def test_blowup_norms_increase(bump_profile):
    config = SceneConfig(medium=MediumParams(1.0, 1.5),
                         profile=bump_profile, arc_radius=2.6)
    cfg = BlowupSequenceConfig((0.2, float(bump_profile(0.2))),
                               delta0=0.1, eps0=0.4, n_max=16)
    report = blowup_experiment(config, cfg)
    Ns = [v for _n, v in report["rows"]]
    assert len(Ns) == 16
    for i in range(8, 16):
        assert Ns[i] > Ns[i - 1]
    assert report["exponent"] > 0.0


# ---------------------------------------------------------------------------
# Mixed reciprocity
# ---------------------------------------------------------------------------
def test_mixed_reciprocity_free_space():
    config = SceneConfig(medium=MediumParams(2.0, 2.0), arc_radius=1.0,
                         cell_size=0.25)
    solver = ForwardSolver(config)
    for ell in (1, 2):
        rep = mixed_reciprocity_check(config, (0.8, 1.5), (0.4, -1.2), ell,
                                      eps=1e-2, solver=solver)
        assert rep["mismatch"] < 1e-3


def test_mixed_reciprocity_geometry_guards(flat_config, flat_solver):
    with pytest.raises(GeometryError):
        mixed_reciprocity_check(flat_config, (0.0, 1.0), (0.005, 1.0), 1,
                                eps=1e-2, solver=flat_solver)
    with pytest.raises(GeometryError):
        mixed_reciprocity_check(flat_config, (0.8, 1.5), (0.4, -0.001), 1,
                                eps=1e-2, solver=flat_solver)


# ---------------------------------------------------------------------------
# Source-independent products built once per solver
# ---------------------------------------------------------------------------
SOURCES = (SourceSpec("monopole", (0.3, 1.2)),
           SourceSpec("dipole", (-0.6, 0.9), 1),
           SourceSpec("dipole", (1.1, 1.4), 2))


@pytest.fixture(scope="module")
def bump_config(bump_profile):
    return SceneConfig(medium=MediumParams(1.0, 1.5), profile=bump_profile,
                       arc_radius=2.6, cell_size=0.2,
                       receivers=ReceiverLine(2.0, 3.0, 11))


def _table(records):
    return np.array([r.value for r in records]).tobytes()


def test_bump_products_same_bytes_cold_warm_and_threaded(bump_config):
    rx = bump_config.receivers.points()
    cold = ForwardSolver(bump_config)
    first = cold.solve(SOURCES[2]).scattered(rx)
    warm = ForwardSolver(bump_config)
    for src in SOURCES:
        warm.solve(src).scattered(rx)
    assert first.tobytes() == warm.solve(SOURCES[2]).scattered(rx).tobytes()
    # two workers race for the lazy products of a cold solver
    two = synthesize_dataset(bump_config, SOURCES, threads=2,
                             solver=ForwardSolver(bump_config))
    one = synthesize_dataset(bump_config, SOURCES, threads=1, solver=cold)
    assert _table(one) == _table(two)


def test_obstacle_products_same_bytes_cold_warm_and_threaded(
        layered_obstacle_solver):
    warm = layered_obstacle_solver
    config = warm.config
    rx = config.receivers.points()
    warm.solve(SourceSpec("monopole", (-1.0, 1.5))).scattered(rx)
    cold = ForwardSolver(config)
    first = cold.solve(SOURCES[0]).scattered(rx)
    assert first.tobytes() == warm.solve(SOURCES[0]).scattered(rx).tobytes()
    two = synthesize_dataset(config, SOURCES, threads=2, solver=cold)
    one = synthesize_dataset(config, SOURCES, threads=1, solver=warm)
    assert _table(one) == _table(two)


def test_products_kept_only_for_own_point_sets(layered_obstacle_solver):
    s = layered_obstacle_solver
    own = {"receivers", "boundary"}
    ev = s.solve(SOURCES[1])
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(-2.0, 2.0, 50),
                           rng.uniform(0.5, 1.8, 50)])
    for _ in range(2):
        ev.total(pts)
    ev.scattered(s.config.receivers.points())
    assert set(s.point_sets) == own
    for products in s.point_sets.values():
        assert not np.array_equal(products.points, pts)
    assert set(s.point_sets["receivers"].built) == {"extension", "radiation"}
    assert set(s.point_sets["boundary"].built) == {"extension"}
    # products at other points are the same bytes as at a kept set
    rows = s.extension_rows(pts)
    again = s.extension_rows(pts.copy())
    assert rows is not again
    assert rows.gr_rows.tobytes() == again.gr_rows.tobytes()


def test_lazy_products_built_once_under_thread_contention(bump_config,
                                                          monkeypatch):
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    import layered_scatter.forward as forward
    builds = []
    orig = forward.extension_rows

    def counted(*args, **kwargs):
        builds.append(threading.get_ident())
        return orig(*args, **kwargs)

    monkeypatch.setattr(forward, "extension_rows", counted)
    solver = ForwardSolver(bump_config)
    rx = bump_config.receivers.points()
    serial = SOURCES[0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(lambda: solver.solve(serial).scattered(rx))
                       for _ in range(6)]
            values = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(f.done() for f in futures)
    assert len(builds) == 1
    assert len({v.tobytes() for v in values}) == 1
    assert set(solver.point_sets["receivers"].built) == {"extension"}


def test_kernel_state_does_not_grow_per_source(bump_config):
    # the kernel evaluator keeps its folded rules and grid splits in bounded
    # maps whose values depend on their keys alone: solving the same
    # sources again, in reverse order, adds no entry and repeats every byte
    solver = ForwardSolver(bump_config)
    green = solver.green
    rx = bump_config.receivers.points()
    rng = np.random.default_rng(11)
    sources = []
    for k in range(220):
        pos = (rng.uniform(-1.8, 1.8), rng.uniform(0.5, 1.5))
        sources.append(SourceSpec("monopole", pos) if k % 3 == 0
                       else SourceSpec("dipole", pos, 1 + k % 2))
    first = [solver.solve(src).scattered(rx).tobytes()
             for src in sources[:20]]
    rules, splits = len(green.rules), len(green.splits)
    again = [solver.solve(src).scattered(rx).tobytes()
             for src in reversed(sources[:20])]
    assert again[::-1] == first
    assert (len(green.rules), len(green.splits)) == (rules, splits)
    for src in sources[20:]:
        solver.solve(src).scattered(rx)
    # 21 rules after set-up, 47 after 20 sources and 64 (16300 nodes, about
    # 0.5 MB) after 220; the grid splits are those of the three point sets
    # that take source columns (the 270 lower cells, which B1 and B2 share,
    # the 8 bump cells of B2 and the receivers), whatever the number of
    # sources
    assert len(green.rules) <= 80 and green.rules.total <= 20000
    assert len(green.splits) == splits <= 4


@pytest.mark.parametrize("position", [(0.0, 0.1), (0.2, 0.28), (0.0, 0.3)])
def test_source_under_or_on_the_bump_rejected(bump_config, position):
    solver = ForwardSolver(bump_config)
    with pytest.raises(GeometryError):
        solver.solve(SourceSpec("monopole", position))
    # just above the graph is fine
    solver.solve(SourceSpec("monopole", (position[0], 0.31)))


def test_source_above_a_dip_rejected():
    config = SceneConfig(medium=MediumParams(1.0, 1.5),
                         profile=InterfaceProfile(((0.0, 1.0, -0.3),)),
                         arc_radius=2.6, cell_size=0.25)
    solver = ForwardSolver(config)
    with pytest.raises(GeometryError):
        solver.solve(SourceSpec("dipole", (0.0, -0.1), 2))


def test_total_at_the_source_is_a_singularity(flat_solver):
    from layered_scatter.errors import SingularityError
    ev = flat_solver.solve(SRC)
    with pytest.raises(SingularityError, match="at the source"):
        ev.total(SRC.position)
    with pytest.raises(SingularityError, match="at the source"):
        ev.total(np.array([[0.0, 2.0], list(SRC.position)]))
    assert np.isfinite(ev.scattered(SRC.position))


def _truncate_rules(monkeypatch, which):
    """Make every fixed rule whose decay class satisfies which() drop the
    upper three quarters of its nodes."""
    import layered_scatter.layered_green as layered_green
    orig = layered_green.fixed_rule

    def truncated(kernel_abs_at, breakpoints, decay, *args):
        xi, w = orig(kernel_abs_at, breakpoints, decay, *args)
        if not which(decay):
            return xi, w
        keep = xi < 0.25 * xi.max()
        return xi[keep], w[keep]

    monkeypatch.setattr(layered_green, "fixed_rule", truncated)


# same-side kernels decay like xi^-3 (monopole) or xi^-2 (dipoles), the
# cross-side ones like xi^-1 or xi^0; the check must see each side pair
@pytest.mark.parametrize("which", [lambda decay: True,
                                   lambda decay: decay.power >= 2.0,
                                   lambda decay: decay.power <= 1.0],
                         ids=["all", "same-side", "cross-side"])
def test_truncated_rule_tail_fails_the_solver_check(bump_config,
                                                    monkeypatch, which):
    from layered_scatter.errors import AccuracyError
    _truncate_rules(monkeypatch, which)
    with pytest.raises(AccuracyError, match="fixed xi-rule"):
        ForwardSolver(bump_config)


def test_solver_check_covers_the_mesh_grid(bump_profile, monkeypatch):
    from layered_scatter.errors import AccuracyError
    # no receivers and no obstacle: only the operator assembly and the
    # source columns use the rules; the lowest mesh rows give height sum 0.2
    config = SceneConfig(medium=MediumParams(1.0, 1.5), profile=bump_profile,
                         arc_radius=2.6, cell_size=0.2)
    ForwardSolver(config)
    _truncate_rules(monkeypatch, lambda decay: decay.rate < 0.5)
    with pytest.raises(AccuracyError, match="fixed xi-rule"):
        ForwardSolver(config)


def test_grid_kernel_matches_reference(bump_config):
    from layered_scatter.ls_volume import planar_scattered_matrix
    solver = ForwardSolver(bump_config)
    reference = PlanarGreen(solver.medium, 1e-12)
    mesh = np.concatenate([solver.mesh_B1.centers, solver.mesh_B2.centers])
    K = planar_scattered_matrix(solver.green, mesh, mesh)
    low = np.nonzero(np.abs(mesh[:, 1]) == np.abs(mesh[:, 1]).min())[0]
    rng = np.random.default_rng(5)
    # the lowest rows (the slowest decay) against each other and at the
    # widest offsets, plus random pairs
    pairs = [(i, j) for i in low for j in low]
    pairs += [(int(np.argmin(mesh[:, 0])), int(np.argmax(mesh[:, 0])))]
    pairs += [tuple(rng.integers(len(mesh), size=2)) for _ in range(30)]
    sides = set()
    for i, j in pairs:
        x, y = mesh[i], mesh[j]
        ref = reference.scattered_batch("monopole", 0, x[1], y[1],
                                        np.array([x[0] - y[0]]))[0]
        assert abs(K[i, j] - ref) <= solver.green.tol
        sides.add((x[1] > 0.0, y[1] > 0.0))
    assert len(sides) == 4


def test_solver_check_at_the_finest_tolerance(bump_config):
    # at tol 1e-12 the adaptive reference misses its own tolerance next to
    # the interface while the rules stay at rounding level; the check must
    # not blame the rules for it
    import dataclasses
    ForwardSolver(dataclasses.replace(bump_config, quad_tol=1e-12))


def test_radiation_matrix_reuses_the_extension_rows(layered_obstacle_solver,
                                                    monkeypatch):
    from layered_scatter.obstacle import RoughKernel, radiation_matrix
    calls = []
    orig = RoughKernel.volume_rows

    def counted(self, X):
        calls.append(len(X))
        return orig(self, X)

    monkeypatch.setattr(RoughKernel, "volume_rows", counted)
    solver = ForwardSolver(layered_obstacle_solver.config)
    del calls[:]
    rx = solver.config.receivers.points()
    solver.solve(SOURCES[0]).scattered(rx)
    # no receiver sits on a cell center: the weighted extension rows are
    # the volume rows, and the matrix has the bytes of one built without
    assert calls == []
    alone = radiation_matrix(solver.kernel_ctx, "combined", rx)
    assert solver.radiation_matrix(rx).tobytes() == alone.tobytes()
    # a point on a B2 center falls back to the kernel's own volume rows
    del calls[:]
    pts = np.vstack([rx[:2], solver.mesh_B2.centers[:1]])
    again = solver.radiation_matrix(pts)
    assert calls == [len(pts)]
    alone = radiation_matrix(solver.kernel_ctx, "combined", pts)
    assert again.tobytes() == alone.tobytes()


def test_incident_field_is_vectorized_for_every_source_kind(flat_solver):
    from layered_scatter.specfun import (
        fundamental_solution,
        fundamental_solution_grad,
    )
    pts = np.array([[0.5, 0.9], [-1.2, 1.5], [0.3, 2.0], [1.0, 1.2]])
    for src in (SRC,) + SOURCES[1:]:
        ev = flat_solver.solve(src)
        kappa = flat_solver.medium.kappa1
        if src.kind == "monopole":
            scalar = [fundamental_solution(kappa, p, src.position)
                      for p in pts]
        else:
            scalar = [fundamental_solution_grad(kappa, p, src.position,
                                                src.direction) for p in pts]
        many = ev.incident(pts)
        assert many.shape == (len(pts),)
        assert np.max(np.abs(many - scalar)) <= 1e-14 * np.max(np.abs(many))
        one = ev.incident(pts[0])
        assert isinstance(one, complex) and one == many[0]
        gap = ev.total(pts) - many - ev.scattered(pts)
        assert np.max(np.abs(gap)) < 1e-12


def test_too_few_cells_per_wavelength_rejected():
    # kappa2 = 30 at cell 0.2: about one cell per wavelength
    config = SceneConfig(medium=MediumParams(20.0, 30.0), arc_radius=1.0,
                         cell_size=0.2)
    with pytest.raises(ConfigurationError, match="cells"):
        ForwardSolver(config)
    # four cells per wavelength of the larger wavenumber still pass
    ForwardSolver(SceneConfig(medium=MediumParams(1.0, 1.5), arc_radius=1.0,
                              cell_size=0.25 * 2.0 * np.pi / 1.5))
