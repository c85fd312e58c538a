"""Forward pipeline: configuration, evaluators, dataset synthesis and its
worker processes, the blow-up experiment and the mixed reciprocity
identity."""

import dataclasses
import errno
import os
import threading
import time

import numpy as np
import pytest

from layered_scatter.errors import (
    AccuracyError,
    ConfigurationError,
    GeometryError,
    SolverError,
)
from layered_scatter.forward import (
    BlowupSequenceConfig,
    ForwardSolver,
    ObstacleSpec,
    SceneConfig,
    _worker_count,
    blowup_experiment,
    blowup_mesh,
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
    return SceneConfig(medium=MediumParams(1.0, 1.5),
                       cell_size=0.2, receivers=ReceiverLine(2.0, 3.0, 5))


@pytest.fixture(scope="module")
def flat_solver(flat_config):
    return ForwardSolver(flat_config)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
def test_obstacle_spec_validation():
    curve = ObstacleCurve("circle", (0.0, -1.3), 0.5)
    with pytest.raises(ConfigurationError):
        ObstacleSpec(curve=curve, condition="absorbing")
    with pytest.raises(ConfigurationError):
        ObstacleSpec(curve=curve, condition="impedance", lam=0.0)
    with pytest.raises(ConfigurationError):
        ObstacleSpec(curve=curve, condition="penetrable")


def test_blowup_mesh_with_no_cell_in_d_prime_is_a_configuration_error():
    # under a narrow, tall bump every cell around its top lies outside it
    cfg = BlowupSequenceConfig(z_star=(0.0, 10.0), delta0=0.1, eps0=0.4,
                               n_max=8, min_cell=0.3)
    with pytest.raises(ConfigurationError, match="min_cell"):
        blowup_mesh(InterfaceProfile(((0.0, 0.1, 10.0),)), cfg)


@pytest.mark.parametrize("change,key", [
    ({"quad_tol": 1e-20}, "quadrature.tol"),
    ({"quad_tol": 0.5}, "quadrature.tol"),
    ({"quad_tol": -1.0}, "quadrature.tol"),
    ({"cell_size": 0.0}, "mesh.cell_size"),
    ({"cell_size": -0.1}, "mesh.cell_size"),
    ({"obstacle": ObstacleSpec(ObstacleCurve("circle", (0.0, 0.05), 0.2),
                               "penetrable", n=1.2)}, "x2 = 0"),
], ids=["tol 1e-20", "tol 0.5", "tol -1", "cell_size 0", "cell_size -0.1",
        "obstacle above x2 = 0"])
def test_scene_config_checks_every_setting(change, key):
    # a library caller meets the checks of the command line, under the
    # names of its configuration keys
    with pytest.raises(ConfigurationError, match=key):
        SceneConfig(medium=MediumParams(1.0, 1.5),
                    profile=InterfaceProfile(((0.0, 1.0, 0.5),)), **change)


# ---------------------------------------------------------------------------
# Field evaluator
# ---------------------------------------------------------------------------
def test_total_minus_incident_is_scattered(flat_solver, free_space):
    ev = flat_solver.solve(SRC)
    pts = np.array([[0.5, 0.9], [-1.2, 1.5]])
    incident = [free_space(flat_solver.medium.kappa1, p, SRC.position)
                for p in pts]
    gap = ev.total(pts) - incident - ev.scattered(pts)
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
    solver = ForwardSolver(flat_config)
    ev = solver.solve(SRC)
    records = synthesize_dataset(flat_config, [SRC], solver=solver)
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
    config = SceneConfig(medium=MediumParams(1.0, 1.5),
                         cell_size=0.25)
    with pytest.raises(ConfigurationError):
        synthesize_dataset(config, [SRC])


class _Untouched:
    """A solver that fails the test when anything reads it."""

    def __getattr__(self, name):
        raise AssertionError("the solver was used")


def test_dataset_table_past_physical_memory_rejected_before_any_solve(
        flat_config, flat_solver, monkeypatch):
    # 10 sources x 10^7 receivers would hold about 25 GB of records, where
    # the solver's own guard counts 0.32 GB; the table is checked against
    # physical memory before a solver is built, read or forked
    import layered_scatter.forward as forward

    def no_solver(config):
        raise AssertionError("a solver was built")

    monkeypatch.setattr(forward, "ForwardSolver", no_solver)
    monkeypatch.setattr(forward, "_physical_memory", lambda: 8.4e9)
    huge = dataclasses.replace(flat_config,
                               receivers=ReceiverLine(2.0, 3.0, 10 ** 7))
    for solver in (None, _Untouched()):
        with pytest.raises(ConfigurationError, match="physical memory"):
            synthesize_dataset(huge, [SRC] * 10, threads=2, solver=solver)
    # the bound is sources x receivers x _RECORD_BYTES
    need = 10 * 5 * forward._RECORD_BYTES
    monkeypatch.setattr(forward, "_physical_memory", lambda: need - 1)
    with pytest.raises(ConfigurationError, match="physical memory"):
        synthesize_dataset(flat_config, [SRC] * 10, solver=_Untouched())
    monkeypatch.setattr(forward, "_physical_memory", lambda: need)
    assert len(synthesize_dataset(flat_config, [SRC] * 10,
                                  solver=flat_solver)) == 50


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
                         profile=bump_profile)
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
def test_mixed_reciprocity_free_space(mixed_reciprocity_check):
    config = SceneConfig(medium=MediumParams(2.0, 2.0),
                         cell_size=0.25)
    solver = ForwardSolver(config)
    for ell in (1, 2):
        rep = mixed_reciprocity_check(config, (0.8, 1.5), (0.4, -1.2), ell,
                                      eps=1e-2, solver=solver)
        assert rep["mismatch"] < 1e-3


def test_mixed_reciprocity_geometry_guards(flat_config, flat_solver,
                                           mixed_reciprocity_check):
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
                       cell_size=0.2,
                       receivers=ReceiverLine(2.0, 3.0, 11))


@pytest.fixture(scope="module")
def bump_and_dip_config(bump_and_dip_profile):
    """Cells on both sides of x2 = 0, so every side pair of the flat
    kernel meets the mesh."""
    return SceneConfig(medium=MediumParams(1.0, 1.5),
                       profile=bump_and_dip_profile, cell_size=0.2,
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
    # two workers on a solver that has solved no source yet
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


def _count_builds(monkeypatch, calls, fail=False):
    """Record every call of the row builder (extension_rows) and of the
    radiation matrices as (name, points) in calls, in each module that
    binds them; with fail=True each call raises instead."""
    import layered_scatter.forward as forward
    import layered_scatter.ls_volume as ls_volume
    import layered_scatter.obstacle as obstacle
    for name, at in (("extension_rows", 0), ("radiation_matrix", 1)):
        orig = getattr(obstacle, name)

        def counted(*args, _orig=orig, _name=name, _at=at, **kwargs):
            if fail:
                raise AssertionError("%s called after construction" % _name)
            calls.append((_name, np.array(args[_at], float)))
            return _orig(*args, **kwargs)

        for module in (forward, ls_volume, obstacle):
            if getattr(module, name, None) is orig:
                monkeypatch.setattr(module, name, counted)


def _impedance_config(config):
    spec = dataclasses.replace(config.obstacle, condition="impedance",
                               lam=1.0)
    return dataclasses.replace(config, obstacle=spec)


def _penetrable_config(config):
    spec = dataclasses.replace(config.obstacle, condition="penetrable",
                               n=1.5 + 0.1j, cell_size=0.1)
    return dataclasses.replace(config, obstacle=spec)


_SCENES = {"impedance": _impedance_config, "penetrable": _penetrable_config}


def test_products_kept_only_for_own_point_sets(layered_obstacle_solver):
    from layered_scatter.ls_volume import extension_rows
    s = layered_obstacle_solver
    own = {"receivers", "boundary"}
    ev = s.solve(SOURCES[1])
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(-2.0, 2.0, 50),
                           rng.uniform(0.5, 1.8, 50)])
    for _ in range(2):
        ev.total(pts)
    rx = s.config.receivers.points()
    ev.scattered(rx)
    assert set(s.point_sets) == set(s.rows) == own
    for points in s.point_sets.values():
        assert not np.array_equal(points, pts)
    # kept, read-only, with the bytes of a fresh build
    kept = s.rows["receivers"]
    assert s.extension_rows(rx.copy()) is kept
    assert s.radiation_matrix(rx.copy(), kept) is s.radiation
    assert not kept.flags.writeable
    assert not s.radiation.flags.writeable
    fresh = extension_rows(rx, s.b2)
    assert kept.tobytes() == fresh.tobytes()
    # products at other points are the same bytes at every call
    rows = s.extension_rows(pts)
    again = s.extension_rows(pts.copy())
    assert rows is not again
    assert rows.tobytes() == again.tobytes()


def test_kept_products_built_once_in_the_constructor(bump_config,
                                                     monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor

    builds = []
    _count_builds(monkeypatch, builds)
    solver = ForwardSolver(bump_config)
    rx = bump_config.receivers.points()
    assert [name for name, _ in builds] == ["extension_rows"]
    assert np.array_equal(builds[0][1], rx)
    del builds[:]
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
    assert builds == []
    assert len({v.tobytes() for v in values}) == 1


@pytest.mark.parametrize("scene", ["bump", "obstacle-soft", "impedance"])
def test_a_solve_after_construction_builds_no_kept_product(
        bump_config, layered_obstacle_solver, monkeypatch, scene):
    config = {"bump": bump_config,
              "obstacle-soft": layered_obstacle_solver.config,
              "impedance": _impedance_config(
                  layered_obstacle_solver.config)}[scene]
    builds = []
    _count_builds(monkeypatch, builds)
    solver = ForwardSolver(config)
    # each own point set once, and the radiation matrix at the receivers
    built = [name for name, _ in builds]
    assert built.count("extension_rows") == len(solver.point_sets)
    for points in solver.point_sets.values():
        assert sum(np.array_equal(points, X) for name, X in builds
                   if name == "extension_rows") == 1
    if config.obstacle is None:
        assert solver.radiation is None
    else:
        assert built.count("radiation_matrix") == 1
        assert np.array_equal(builds[-1][1], solver.point_sets["receivers"])
    del builds[:]
    rx = config.receivers.points()
    for src in SOURCES:
        solver.solve(src).scattered(rx)
    assert builds == []


@pytest.mark.parametrize("scene", ["obstacle-soft", "impedance",
                                   "penetrable"])
def test_forked_workers_build_no_kept_product(layered_obstacle_solver,
                                              monkeypatch, two_cores, scene):
    config = layered_obstacle_solver.config
    if scene in _SCENES:
        config = _SCENES[scene](config)
    solver = ForwardSolver(config)
    # a build in a worker raises, and the error comes back to this process
    _count_builds(monkeypatch, [], fail=True)
    two = synthesize_dataset(config, SOURCES, threads=2, solver=solver)
    one = synthesize_dataset(config, SOURCES, threads=1, solver=solver)
    assert _table(one) == _table(two)


def test_a_penetrable_solve_builds_no_kernel_rows_or_factorization(
        layered_obstacle_solver, monkeypatch):
    from layered_scatter import ls_volume, obstacle
    config = _penetrable_config(layered_obstacle_solver.config)
    solver = ForwardSolver(config)
    built = []
    kernel = obstacle.RoughKernel.__init__
    factorize = ls_volume.DenseOperator.factorize

    def new_kernel(self, *args, **kwargs):
        built.append("RoughKernel")
        kernel(self, *args, **kwargs)

    def fresh_lu(self):
        if self._lu is None:
            built.append("factorization")
        factorize(self)

    monkeypatch.setattr(obstacle.RoughKernel, "__init__", new_kernel)
    monkeypatch.setattr(ls_volume.DenseOperator, "factorize", fresh_lu)
    _count_builds(monkeypatch, built)
    rx = config.receivers.points()
    for src in SOURCES:
        solver.solve(src).scattered(rx)
    assert built == []


@pytest.mark.parametrize("scene", ["obstacle-soft", "impedance"])
def test_bie_assembly_and_boundary_extension_share_one_build(
        layered_obstacle_solver, monkeypatch, scene):
    import layered_scatter.forward as forward
    config = layered_obstacle_solver.config
    if scene == "impedance":
        config = _impedance_config(config)
    given = []
    orig = forward.assemble_bie

    def recorded(*args, **kwargs):
        given.append(kwargs["rows"])
        return orig(*args, **kwargs)

    monkeypatch.setattr(forward, "assemble_bie", recorded)
    solver = ForwardSolver(config)
    # every impenetrable condition keeps rows at the nodes alone
    assert set(solver.rows) == {"receivers", "boundary"}
    assert np.array_equal(solver.point_sets["boundary"],
                          solver.nodes.positions)
    assert len(given) == 1
    assert given[0] is solver.rows["boundary"]


def test_kernel_column_with_its_source_on_a_bump_cell_center(
        layered_obstacle_solver):
    """A kernel column whose source sits on a bump-cell center is that
    monopole's solve, cell-averaged the same way."""
    from layered_scatter.ls_volume import extend_stage2_many, solve_stage2
    from layered_scatter.obstacle import RoughKernel
    s = layered_obstacle_solver
    rx = s.config.receivers.points()
    rows = s.rows["receivers"]
    y = s.mesh_B2.centers[2]
    mono = solve_stage2(SourceSpec("monopole", tuple(y)), s.b2)
    want = extend_stage2_many(mono, rx, s.b2, rows)
    got = RoughKernel(s.b2, s.medium, y[None, :]).full(rx, rows)[:, 0]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
    # 9 rules after set-up, 22 after 20 sources and 30 (4720 nodes, about
    # 0.1 MB) after 220; the grid splits are those of the point sets that
    # take source columns (the 8 bump cells and the receivers; the bump
    # has no B1 cell), whatever the number of sources
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
                         cell_size=0.25)
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
    """Make every fixed rule for which which(decay, kind=, case=) holds
    end its tail at a quarter of its planned end; kind is the rule's
    kernel kind and case its side case (a point above or below, then a
    source above or below)."""
    import layered_scatter.layered_green as layered_green
    orig = layered_green.fixed_rule
    orig_rule = layered_green.PlanarGreen._rule
    block = []

    def rule(self, kind, ell, X, Y):
        block.append(dict(kind=kind, case=self._case(X[0, 1], Y[0, 1])))
        try:
            return orig_rule(self, kind, ell, X, Y)
        finally:
            block.pop()

    def truncated(kernel_abs_at, breakpoints, decay, *args):
        bps, tail_end, panels = orig(kernel_abs_at, breakpoints, decay, *args)
        if not which(decay, **block[-1]):
            return bps, tail_end, panels
        return bps, 0.25 * tail_end, panels

    monkeypatch.setattr(layered_green, "fixed_rule", truncated)
    monkeypatch.setattr(layered_green.PlanarGreen, "_rule", rule)


# same-side kernels decay like xi^-3 (monopole) or xi^-2 (dipoles), the
# cross-side ones like xi^-1 or xi^0; the check must see each side pair.
# The normal-dipole columns of an obstacle evaluate dipoles at the nodes
# on the mesh; their cross-side rules with the slowest decay (a cell just
# above x2 = 0, a node at depth 0.8) are met nowhere else.
@pytest.mark.parametrize("which,obstacle", [
    (lambda decay, **_: True, False),
    (lambda decay, **_: decay.power >= 2.0, False),
    (lambda decay, **_: decay.power <= 1.0, False),
    (lambda decay, kind, case: kind == "dipole" and case == "ul"
     and 0.5 < decay.rate < 1.0, True)],
    ids=["all", "same-side", "cross-side", "mesh-by-node-dipole"])
def test_truncated_rule_tail_fails_the_solver_check(
        bump_and_dip_config, layered_obstacle_solver, monkeypatch, which,
        obstacle):
    from layered_scatter.errors import AccuracyError
    config = layered_obstacle_solver.config if obstacle \
        else bump_and_dip_config
    _truncate_rules(monkeypatch, which)
    with pytest.raises(AccuracyError, match="fixed xi-rule"):
        ForwardSolver(config)


def test_solver_check_covers_the_mesh_grid(bump_profile, monkeypatch):
    from layered_scatter.errors import AccuracyError
    # no receivers and no obstacle: only the operator assembly and the
    # source columns use the rules; the lowest mesh rows give height sum 0.2
    config = SceneConfig(medium=MediumParams(1.0, 1.5), profile=bump_profile,
                         cell_size=0.2)
    ForwardSolver(config)
    _truncate_rules(monkeypatch, lambda decay, **_: decay.rate < 0.5)
    with pytest.raises(AccuracyError, match="fixed xi-rule"):
        ForwardSolver(config)


def test_grid_kernel_matches_reference(bump_and_dip_config):
    from layered_scatter.ls_volume import planar_scattered_matrix
    solver = ForwardSolver(bump_and_dip_config)
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
    # at tol 1e-12 the reference runs at its finest tolerance, 1e-12, and
    # the check allows the rules tol plus the reference's tolerance
    import dataclasses
    ForwardSolver(dataclasses.replace(bump_config, quad_tol=1e-12))


def test_radiation_matrix_reuses_the_extension_rows(layered_obstacle_solver,
                                                    monkeypatch):
    from layered_scatter.ls_volume import extension_rows
    from layered_scatter.obstacle import radiation_matrix
    solver = layered_obstacle_solver
    op, medium, b2 = solver.bie_operator, solver.medium, solver.b2
    rx = solver.config.receivers.points()
    # the kept matrix has the bytes of one built alone
    alone = radiation_matrix(op, rx, extension_rows(rx, b2))
    assert solver.radiation_matrix(rx, solver.rows["receivers"]).tobytes() \
        == alone.tobytes()
    # so does one at a set with a point on a B2 center
    pts = np.vstack([rx[:2], solver.mesh_B2.centers[:1]])
    alone = radiation_matrix(op, pts, extension_rows(pts, b2))
    calls = []
    _count_builds(monkeypatch, calls)
    again = solver.radiation_matrix(pts, solver.extension_rows(pts))
    assert [name for name, _ in calls] == ["extension_rows",
                                           "radiation_matrix"]
    assert again.tobytes() == alone.tobytes()
    # a field at such a set builds its rows once for both integrals
    del calls[:]
    solver.solve(SOURCES[0]).scattered(pts)
    assert [name for name, _ in calls] == ["extension_rows",
                                           "radiation_matrix"]


def test_incident_field_is_vectorized_for_every_source_kind(flat_solver,
                                                           free_space):
    # total minus scattered is the source's free-space wave, for every
    # source kind, at an array of points and at a single point alike
    pts = np.array([[0.5, 0.9], [-1.2, 1.5], [0.3, 2.0], [1.0, 1.2]])
    kappa = flat_solver.medium.kappa1
    for src in (SRC,) + SOURCES[1:]:
        ev = flat_solver.solve(src)
        wave = [free_space(kappa, p, src.position, src.direction)
                for p in pts]
        many = ev.total(pts) - ev.scattered(pts)
        assert many.shape == (len(pts),)
        assert np.max(np.abs(many - wave)) < 1e-12
        one = ev.total(pts[0]) - ev.scattered(pts[0])
        assert isinstance(one, complex) and one == many[0]


@pytest.mark.parametrize("n,cells", [(4.0, 0.52), (3.0 + 4.0j, 0.46)],
                         ids=["n 4", "n 3+4i"])
def test_penetrable_cell_size_resolves_the_interior_wavelength(n, cells):
    # inside the obstacle the wavenumber is kappa2 sqrt|n|: four cells of
    # its wavelength pass, 0.52 and 0.46 against 0.524 and 0.468, and a
    # cell 4 % larger fails (at 3 + 4i also one that Re n alone would pass)
    def config(cell_size):
        spec = ObstacleSpec(CIRCLE, "penetrable", n=n, cell_size=cell_size)
        return SceneConfig(medium=MediumParams(1.0, 1.5), cell_size=0.2,
                           obstacle=spec)
    ForwardSolver(config(cells))
    with pytest.raises(ConfigurationError, match="obstacle.cell_size"):
        ForwardSolver(config(1.04 * cells))


def test_too_few_cells_per_wavelength_rejected():
    # kappa2 = 30 at cell 0.2: about one cell per wavelength
    config = SceneConfig(medium=MediumParams(20.0, 30.0),
                         cell_size=0.2)
    with pytest.raises(ConfigurationError, match="cells"):
        ForwardSolver(config)
    # four cells per wavelength of the larger wavenumber still pass
    ForwardSolver(SceneConfig(medium=MediumParams(1.0, 1.5),
                              cell_size=0.25 * 2.0 * np.pi / 1.5))


# ---------------------------------------------------------------------------
# Dataset worker processes
# ---------------------------------------------------------------------------
@pytest.fixture()
def two_cores(monkeypatch):
    """Two usable cores whatever the machine has, so that threads=2 forks
    one child; afterwards no child process may be left, reaped or not."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork: datasets run one worker")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("threads,n_sources,workers", [
    (0, 5, 1), (-3, 5, 1), (10 ** 18, 5, 2), (10 ** 18, 1, 1), (2, 0, 1)])
def test_worker_count_of_invalid_and_huge_thread_counts(two_cores, threads,
                                                        n_sources, workers):
    # the count alone: a test that forked this many would start them
    assert _worker_count(threads, n_sources) == workers


@pytest.mark.parametrize("cores", [2, 64])
def test_worker_count_capped_by_sources_and_cores(flat_config, flat_solver,
                                                  monkeypatch, two_cores,
                                                  cores):
    # every fork is refused, so no process starts; each refused share is
    # solved in the calling process
    forks = []

    def refused():
        forks.append(1)
        raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cores)), raising=False)
    many = synthesize_dataset(flat_config, SOURCES, threads=10 ** 6,
                              solver=flat_solver)
    assert len(forks) == min(cores, len(SOURCES)) - 1
    one = synthesize_dataset(flat_config, SOURCES, threads=1,
                             solver=flat_solver)
    assert _table(many) == _table(one)


def test_worker_counts_and_empty_source_list(flat_config, flat_solver,
                                             monkeypatch, two_cores):
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    one = synthesize_dataset(flat_config, SOURCES, threads=1,
                             solver=flat_solver)
    assert forks == []
    more = synthesize_dataset(flat_config, SOURCES, threads=8,
                              solver=flat_solver)
    assert len(forks) == 1 and _table(more) == _table(one)
    assert synthesize_dataset(flat_config, [], threads=2,
                              solver=flat_solver) == []
    assert len(forks) == 1


@pytest.mark.parametrize("case", ["under the bump, own share",
                                  "under the bump, child's share",
                                  "accuracy, child's share"])
def test_worker_error_same_as_one_worker(bump_config, monkeypatch, two_cores,
                                         case):
    solver = ForwardSolver(bump_config)
    sources = list(SOURCES)
    if case.startswith("under"):
        bad = 0 if case.endswith("own share") else len(sources) - 1
        sources[bad] = SourceSpec("monopole", (0.0, 0.1))
    else:
        solve = solver.solve

        def failing(src):
            if src is sources[-1]:
                raise AccuracyError("linear solve residual too large",
                                    value=np.arange(3.0), estimate=2.5e-7)
            return solve(src)

        monkeypatch.setattr(solver, "solve", failing)
    errors = []
    for threads in (1, 2):
        with pytest.raises((GeometryError, AccuracyError)) as info:
            synthesize_dataset(bump_config, sources, threads=threads,
                               solver=solver)
        exc = info.value
        value = getattr(exc, "value", None)
        errors.append((type(exc), str(exc), getattr(exc, "estimate", None),
                       None if value is None else value.tobytes()))
    assert errors[0] == errors[1]


def test_worker_ending_without_a_result_raises(flat_config, flat_solver,
                                              monkeypatch, two_cores):
    parent = os.getpid()
    solve = flat_solver.solve

    def dying(src):
        if os.getpid() != parent:
            os._exit(3)
        return solve(src)

    monkeypatch.setattr(flat_solver, "solve", dying)
    with pytest.raises(SolverError, match="without a result"):
        synthesize_dataset(flat_config, SOURCES, threads=2,
                           solver=flat_solver)


@pytest.mark.parametrize("which", ["dense operator", "grid splits",
                                   "rules kept by plan",
                                   "penetrable operator"])
def test_workers_fork_past_a_lock_held_by_another_thread(
        bump_config, layered_obstacle_solver, two_cores, which):
    # a child forked while another thread holds a solver lock would inherit
    # it held by no thread of its own and wait for it forever
    config = bump_config
    if which == "penetrable operator":
        config = _penetrable_config(layered_obstacle_solver.config)
    solver = ForwardSolver(config)
    one = synthesize_dataset(config, SOURCES, threads=1, solver=solver)
    # a penetrable scene has one operator, on the cells of D_f and D
    lock = {"dense operator": solver.b2,
            "penetrable operator": solver.b2,
            "grid splits": solver.green.splits,
            "rules kept by plan": solver.green.rules}[which]._lock
    held = threading.Event()

    def hold():
        with lock:
            held.set()
            time.sleep(0.5)

    holder = threading.Thread(target=hold, daemon=True)
    holder.start()
    assert held.wait(timeout=10)
    out = []
    worker = threading.Thread(
        target=lambda: out.append(synthesize_dataset(
            config, SOURCES, threads=2, solver=solver)),
        daemon=True)
    worker.start()
    worker.join(timeout=60)
    holder.join(timeout=10)
    assert not worker.is_alive() and not holder.is_alive()
    assert len(out) == 1 and _table(out[0]) == _table(one)


# ---------------------------------------------------------------------------
# Size guard
# ---------------------------------------------------------------------------
CIRCLE = ObstacleCurve("circle", (0.0, -1.3), 0.5)


@pytest.mark.parametrize("change", [
    {"cell_size": 1e-4},
    {"obstacle": ObstacleSpec(curve=CIRCLE, condition="sound_soft",
                              boundary_M=10 ** 6)},
    {"obstacle": ObstacleSpec(curve=CIRCLE, condition="penetrable", n=1.5,
                              cell_size=1e-5)},
], ids=["cell_size", "boundary_M", "penetrable cell_size"])
def test_scene_too_large_for_memory_rejected_before_meshing(bump_config,
                                                            monkeypatch,
                                                            change):
    import layered_scatter.forward as forward

    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(forward, "build_region_mesh", no_mesh)
    with pytest.raises(ConfigurationError, match="physical memory"):
        ForwardSolver(dataclasses.replace(bump_config, **change))


def test_receiver_line_too_large_for_memory_rejected(monkeypatch):
    # a flat scene has no cell: the receiver line alone, a point and a
    # value per receiver, is past physical memory; nothing is allocated
    import layered_scatter.forward as forward

    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(forward, "build_region_mesh", no_mesh)
    with pytest.raises(ConfigurationError, match="physical memory"):
        ForwardSolver(SceneConfig(MediumParams(1, 1.5),
                                  receivers=ReceiverLine(2, 3, 10 ** 12)))


def _held_bytes(obj, seen) -> int:
    """Bytes of the 2-D arrays reachable from obj through attributes,
    dicts, lists and tuples, each array counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.ndim == 2 else 0
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return 0
    return sum(_held_bytes(item, seen) for item in items)


@pytest.mark.parametrize("scene", ["bump", "obstacle-soft", "impedance",
                                   "penetrable", "bump and dip",
                                   "obstacle-soft over bump and dip"])
def test_size_guard_estimate_bounds_the_arrays_a_solver_holds(
        bump_config, layered_obstacle_solver, bump_and_dip_profile, scene):
    import layered_scatter.forward as forward
    obstacle = layered_obstacle_solver.config
    config = {"bump": bump_config, "obstacle-soft": obstacle,
              "impedance": _impedance_config(obstacle),
              "penetrable": _penetrable_config(obstacle),
              "bump and dip": dataclasses.replace(
                  bump_config, profile=bump_and_dip_profile),
              "obstacle-soft over bump and dip": dataclasses.replace(
                  obstacle, profile=bump_and_dip_profile)}[scene]
    solver = ForwardSolver(config)
    if "dip" in scene:
        # cells on both sides of x2 = 0, in one operator
        assert solver.mesh_B1.n > 0 and solver.mesh_B2.n > 0
        assert solver.b2.n == solver.mesh_B1.n + solver.mesh_B2.n
    need = forward._dense_bytes_estimate(solver.config)
    assert need >= _held_bytes(solver, set()) > 0


@pytest.mark.parametrize("obstacle", [None, "sound_soft", "penetrable"],
                         ids=["none", "sound-soft", "penetrable"])
def test_building_the_solver_factorizes_one_volume_operator(
        layered_obstacle_solver, bump_and_dip_profile, monkeypatch, obstacle):
    # the B1 block is placed into the operator on U, not factorized apart,
    # and so are a penetrable obstacle's cells
    from layered_scatter.geometry import build_region_mesh
    from layered_scatter.ls_volume import DenseOperator
    factorized = []
    factorize = DenseOperator.factorize

    def recorded(self):
        if self._lu is None:
            factorized.append(self)
        factorize(self)

    monkeypatch.setattr(DenseOperator, "factorize", recorded)
    config = dataclasses.replace(layered_obstacle_solver.config,
                                 profile=bump_and_dip_profile)
    if obstacle is None:
        config = dataclasses.replace(config, obstacle=None)
    elif obstacle == "penetrable":
        config = _penetrable_config(config)
    solver = ForwardSolver(config)
    assert solver.mesh_B1.n > 0 and solver.mesh_B2.n > 0
    volume = [op for op in factorized if op is not solver.bie_operator]
    assert volume == [solver.b2]
    cells = solver.mesh_B1.n + solver.mesh_B2.n
    if obstacle == "penetrable":
        spec = config.obstacle
        cells += build_region_mesh("D_penetrable", spec.curve,
                                   spec.cell_size).n
    assert solver.b2.n == cells
    assert len(factorized) == 1 + (obstacle == "sound_soft")


def test_size_guard_compares_the_estimate_with_physical_memory(bump_config,
                                                               monkeypatch):
    import layered_scatter.forward as forward
    need = forward._dense_bytes_estimate(bump_config)
    monkeypatch.setattr(forward, "_physical_memory", lambda: need - 1)
    with pytest.raises(ConfigurationError, match="physical memory"):
        ForwardSolver(bump_config)
    monkeypatch.setattr(forward, "_physical_memory", lambda: need)
    ForwardSolver(bump_config)
    # where the system does not say, no scene is rejected
    monkeypatch.setattr(forward, "_physical_memory", lambda: None)
    ForwardSolver(bump_config)
