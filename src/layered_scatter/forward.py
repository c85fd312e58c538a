"""End-to-end forward solver: the field through the one volume equation
on the dips and bumps of D_f and a penetrable obstacle's cells, the
correction of an impenetrable obstacle, near-field data synthesis on the
receiver line, and the singular-source experiments.

A ForwardSolver builds every mesh, the one volume operator on the dip,
bump and penetrable cells with its LU factorization, and every
kernel-column set for a scene exactly once; solving for additional
sources then reuses them.  The constructor also builds the
source-independent rows that carry a solution to its own point sets (the
receiver line and an impenetrable obstacle's boundary nodes) and the
receivers' radiation matrix; any other point set gets them for one call.
Every impenetrable condition solves its kept boundary operator, radiated
by that matrix.  Dataset synthesis cuts the
sources into contiguous shares, solves the later shares in forked worker
processes that share the solver copy-on-write, and joins the rows in
source order, so the output has the same bytes for any worker count.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    ConfigurationError,
    GeometryError,
    SingularityError,
    SolverError,
)
from .geometry import (
    InterfaceProfile,
    ObstacleCurve,
    ReceiverLine,
    RegionMesh,
    SceneGeometry,
    box_cells,
    build_region_mesh,
    obstacle_nodes,
)
from .layered_green import MediumParams, PlanarGreen, SourceSpec
from .ls_volume import (
    _COINCIDENT,
    CellUnion,
    assemble_B1_operator,
    assemble_B2_operator,
    extend_stage2_many,
    extension_rows,
    solve_stage2,
)
from .obstacle import (
    assemble_bie,
    build_rough_kernel_context,
    neumann_impedance_solve,
    radiation_matrix,
    scattered_from_density,
    solve_density,
)

_MIN_CELLS_PER_WAVELENGTH = 4   # of the larger wavenumber, on the B1/B2 mesh
_COMPLEX = 16            # bytes of a dense complex entry
# sources times cells of the blow-up experiment: 6-10 s at the 1.3e-7 to
# 2e-7 s per source and cell measured on a 2-core machine
_BLOWUP_WORK = 5e7
# quadrature.tol: below 1e-12 the reference that judges the fixed rules
# (run at a hundredth of tol, but no finer than 1e-12) is coarser than the
# rule; above 1e-4 the tolerance is no longer small against the fields.
_TOL_RANGE = (1e-12, 1e-4)
# mesh.subsample: the inside-fraction grids hold subsample^2 points a cell,
# so memory and time grow as its square; the peak memory of a solver runs
# at about twice the size guard's estimate (21 MB against 10.5 MB at 128)
_SUBSAMPLE_MAX = 64


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Scene configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ObstacleSpec:
    """Obstacle shape plus boundary/transmission condition.

    condition is one of "sound_soft", "neumann", "impedance" (with lam > 0)
    or "penetrable" (with index n); boundary_M controls the 2M boundary
    nodes, cell_size the penetrable volume mesh.
    """

    curve: ObstacleCurve
    condition: str
    lam: float = 0.0
    n: Optional[complex] = None
    boundary_M: int = 32
    cell_size: float = 0.05

    def __post_init__(self):
        if self.condition not in ("sound_soft", "neumann", "impedance",
                                  "penetrable"):
            raise ConfigurationError("obstacle.kind must be sound_soft, "
                                     "neumann, impedance or penetrable")
        if self.condition == "impedance" and not self.lam > 0.0:
            raise ConfigurationError("impedance needs obstacle.lambda > 0")
        if self.condition == "penetrable" and self.n is None:
            raise ConfigurationError("penetrable needs an obstacle.n")
        # checked here, whatever the condition, so that every subcommand
        # rejects them, not only those that build the nodes or the mesh
        n = 1.0 if self.n is None else complex(self.n)
        if not (n.real > 0.0 and n.imag >= 0.0):
            raise ConfigurationError(
                "obstacle.n needs Re(n) > 0 and Im(n) >= 0")
        if not self.boundary_M >= 4:
            raise ConfigurationError("obstacle.boundary_M must be at least 4")
        if not self.cell_size > 0.0:
            raise ConfigurationError("obstacle.cell_size must be positive")


@dataclass(frozen=True)
class SceneConfig:
    """Everything that defines one forward problem except the sources.

    Construction checks every setting, under the name of its configuration
    key, and the admissibility of the scene (SceneGeometry)."""

    medium: MediumParams
    profile: InterfaceProfile = field(default_factory=InterfaceProfile)
    obstacle: Optional[ObstacleSpec] = None
    receivers: Optional[ReceiverLine] = None
    cell_size: float = 0.1
    subsample: int = 4
    quad_tol: float = 1e-8

    def __post_init__(self):
        if not self.cell_size > 0.0:
            raise ConfigurationError("mesh.cell_size must be positive")
        if not 1 <= self.subsample <= _SUBSAMPLE_MAX:
            raise ConfigurationError(
                "mesh.subsample must lie in [1, %d]" % _SUBSAMPLE_MAX)
        if not _TOL_RANGE[0] <= self.quad_tol <= _TOL_RANGE[1]:
            raise ConfigurationError(
                "quadrature.tol must lie in [%g, %g]" % _TOL_RANGE)
        self.geometry()

    def geometry(self) -> SceneGeometry:
        curve = self.obstacle.curve if self.obstacle is not None else None
        return SceneGeometry(profile=self.profile, obstacle=curve,
                             receivers=self.receivers)


@dataclass(frozen=True)
class NearFieldRecord:
    """One synthesized scattered-field sample u^s(x, xs)."""

    source_index: int
    source_position: Tuple[float, float]
    receiver: Tuple[float, float]
    value: complex


def _dense_bytes_estimate(config: SceneConfig, scene: SceneGeometry) -> float:
    """Bytes of the largest arrays a ForwardSolver of config builds, from
    the geometry alone, before any mesh exists.

    Counted: the operator on the n cells of B1, B2 and a penetrable
    obstacle with its LU factors; the subsample grids of the meshes; the
    volume rows kept at the receivers; for a boundary condition the
    boundary operators, the monopole and normal-dipole kernel columns on
    those cells, the volume rows kept at the nodes and the receivers'
    radiation matrix.  Cell counts are those of the boxes the meshes are
    cut from (box_cells), which bound the meshes from above.
    """
    s2 = config.subsample ** 2
    rx = 0.0 if config.receivers is None else float(config.receivers.count)
    n = box_cells("B1", scene, config.cell_size) \
        + box_cells("B2", scene, config.cell_size)
    spec = config.obstacle
    if spec is not None and spec.condition == "penetrable":
        n += box_cells("D_penetrable", scene, spec.cell_size)
    total = _COMPLEX * (2 * n * n + (s2 + rx) * n)
    if spec is None or spec.condition == "penetrable":
        return total
    m = 2.0 * spec.boundary_M
    return total + _COMPLEX * (4 * m * m + 3 * m * n + rx * m)


# ---------------------------------------------------------------------------
# Field evaluator
# ---------------------------------------------------------------------------
class FieldEvaluator:
    """Total and scattered fields of one solved forward problem.

    Both evaluators accept a single point or an (n, 2) array.  The
    scattered field subtracts the free-space incident wave of the source,
    so in the upper medium it is the outgoing part measured by receivers.
    """

    def __init__(self, solver: "ForwardSolver", source: SourceSpec,
                 background, correction):
        self._solver = solver
        self.source = source
        self._background = background
        self._correction = correction

    def _as_points(self, X):
        X = np.asarray(X, float)
        single = X.ndim == 1
        return np.atleast_2d(X), single

    def total(self, X) -> Union[complex, np.ndarray]:
        """Total field u = volume solve + impenetrable-obstacle
        correction."""
        pts, single = self._as_points(X)
        xs = self.source.position
        if np.any(np.hypot(pts[:, 0] - xs[0], pts[:, 1] - xs[1])
                  < _COINCIDENT):
            raise SingularityError("total field requested at the source")
        out = self._field(pts, total=True)
        return complex(out[0]) if single else out

    def scattered(self, X) -> Union[complex, np.ndarray]:
        """u^s = u - u^inc, with the free-space wave cancelled inside the
        extension formulas so points on the source position stay finite."""
        pts, single = self._as_points(X)
        out = self._field(pts, total=False)
        return complex(out[0]) if single else out

    def _field(self, pts: np.ndarray, total: bool) -> np.ndarray:
        """The field at pts from the solver's volume rows there (kept at its
        own point sets), with or without the incident wave."""
        s = self._solver
        rows = s.extension_rows(pts)
        out = extend_stage2_many(self._background, pts, s.b2, rows,
                                 total=total)
        if self._correction is not None:
            out = out + scattered_from_density(
                self._correction, pts, s.radiation_matrix(pts, rows))
        return out


# ---------------------------------------------------------------------------
# Forward solver
# ---------------------------------------------------------------------------
class ForwardSolver:
    """Scene-level state: meshes, factorizations, kernel columns.

    Building one is the expensive step; solve() per source reuses all of
    it.  Everything a solve reads at the solver's own point sets is built
    in the constructor, before any worker is forked, and never changes
    afterwards: meshes, factorizations, kernel columns, the boundary
    operator of an impenetrable obstacle, the volume rows (extension_rows)
    at the receiver line (point_sets and rows, keyed "receivers") and at
    the boundary nodes ("boundary"), and the radiation matrix of the
    obstacle at the receivers (radiation).  The operator assembly reads
    those rows too, so each is built once.  Products at any other points
    are built for the call and dropped.  The kernel evaluator (green)
    keeps the fixed xi-rules it builds and the grid splits of the point
    sets its source columns meet, in bounded maps whose values depend on
    their keys alone (see PlanarGreen).  Concurrent solve() calls are
    therefore safe, and a source's field has the same bytes whichever
    thread solves it and whichever sources came before.  The same holds
    in the worker processes of synthesize_dataset, which share the solver
    copy-on-write: each is forked with every lock of the solve path held
    (_locks), so none starts with a lock that it cannot release.

    Before any mesh is built, the bytes of the largest dense arrays are
    estimated from the geometry (_dense_bytes_estimate); a scene that would
    not fit in physical memory raises ConfigurationError.
    """

    def __init__(self, config: SceneConfig):
        kappa = max(config.medium.kappa1, config.medium.kappa2)
        if config.cell_size * kappa * _MIN_CELLS_PER_WAVELENGTH > 2.0 * np.pi:
            raise ConfigurationError(
                "cell_size %g resolves a wavelength of kappa = %g with %.2g "
                "cells; at least %d are needed"
                % (config.cell_size, kappa,
                   2.0 * np.pi / (kappa * config.cell_size),
                   _MIN_CELLS_PER_WAVELENGTH))
        self.config = config
        self.medium = config.medium
        self.scene = config.geometry()
        need = _dense_bytes_estimate(config, self.scene)
        have = _physical_memory()
        if have is not None and need > have:
            raise ConfigurationError(
                "the scene needs about %.3g GB of dense arrays, more than the "
                "%.3g GB of physical memory; coarsen cell_size or lower "
                "boundary_M or subsample" % (need / 1e9, have / 1e9))
        self.green = PlanarGreen(self.medium, config.quad_tol)
        self.mesh_B1 = build_region_mesh("B1", self.scene, config.cell_size,
                                         config.subsample)
        self.mesh_B2 = build_region_mesh("B2", self.scene, config.cell_size,
                                         config.subsample)
        spec = config.obstacle
        penetrable = spec is not None and spec.condition == "penetrable"
        mesh_D = build_region_mesh("D_penetrable", self.scene, spec.cell_size,
                                   config.subsample) if penetrable else None
        # the flat kernel on the cells of every mesh, evaluated once and
        # dropped as soon as the operator on them holds its blocks
        union = CellUnion(self.medium, self.mesh_B1, self.mesh_B2, mesh_D,
                          spec.n if penetrable else 1.0)
        kernel = union.kernel(self.green)
        block = assemble_B1_operator(union, self.green, kernel)
        self.b2 = assemble_B2_operator(union, block, kernel)
        del kernel, block
        self.b2.factorize()

        self.nodes = None
        self.kernel_ctx = None
        self.bie_operator = None
        self.point_sets = {}
        self.rows = {}
        self.radiation = None
        if config.receivers is not None:
            self._keep("receivers", config.receivers.points())
        if spec is not None and not penetrable:
            self.nodes = obstacle_nodes(spec.curve, spec.boundary_M)
            self.kernel_ctx = build_rough_kernel_context(
                self.nodes, self.b2, self.medium)
            lam = {"sound_soft": None, "neumann": 0.0}.get(spec.condition,
                                                           spec.lam)
            self.bie_operator = assemble_bie(
                self.nodes, self.medium, self.kernel_ctx,
                rows=self._keep("boundary", self.nodes.positions), lam=lam)
            self.bie_operator.factorize()
            if "receivers" in self.rows:
                self.radiation = self.radiation_matrix(
                    self.point_sets["receivers"], self.rows["receivers"])
                self.radiation.flags.writeable = False
        self._check_rule()

    def _check_rule(self) -> None:
        """Check the fixed xi-rules once against the reference integrals.

        Every kernel block pairs U, the cells of B1, B2 and a penetrable
        obstacle, with itself (the operator assembly and, at the lowest
        cells, the smallest height sums a source column meets) or one of
        the solver's off-grid point sets (receivers, boundary nodes) with
        U or another such set.  Each side-pair block of those three
        products is checked at its extreme pairs (PlanarGreen.check_rule),
        and so is U against the boundary nodes: the dipole kernels of the
        normal-dipole columns are not symmetric in their two points.
        """
        mesh = self.b2.union.centers
        self.green.check_rule(mesh, mesh)
        if self.point_sets:
            Y = np.concatenate(list(self.point_sets.values()))
            self.green.check_rule(Y, mesh)
            self.green.check_rule(Y, Y)
        if self.nodes is not None:
            self.green.check_rule(mesh, self.nodes.positions)

    # -- source-independent products ----------------------------------------
    def _keep(self, name: str, points: np.ndarray) -> np.ndarray:
        """Build the volume rows at one of the solver's own point sets and
        keep both, read-only."""
        points = np.array(points, float)
        rows = extension_rows(points, self.b2)
        for array in (points, rows):
            array.flags.writeable = False
        self.point_sets[name] = points
        self.rows[name] = rows
        return rows

    def extension_rows(self, X: np.ndarray) -> np.ndarray:
        """Volume rows at X (see extension_rows in ls_volume): the kept
        ones if X is one of the solver's point sets, else built for the
        call."""
        X = np.asarray(X, float)
        for name, points in self.point_sets.items():
            if np.array_equal(points, X):
                return self.rows[name]
        return extension_rows(X, self.b2)

    def radiation_matrix(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Radiation matrix of the impenetrable obstacle at X (see
        radiation_matrix in obstacle): the kept one at the receivers, else
        built for the call on rows, the volume rows at X
        (extension_rows)."""
        X = np.atleast_2d(np.asarray(X, float))
        if self.radiation is not None \
                and np.array_equal(self.point_sets["receivers"], X):
            return self.radiation
        return radiation_matrix(self.bie_operator, X, rows)

    def _locks(self) -> list:
        """Every lock a solve can take, none of which is taken under
        another: those of the volume operator, of the boundary operator
        and of the kernel evaluator's kept rules and grid splits."""
        operators = (self.b2, self.bie_operator)
        return ([op._lock for op in operators if op is not None]
                + [self.green.rules._lock, self.green.splits._lock])

    # -- per-source solve ---------------------------------------------------
    def solve(self, source: SourceSpec) -> FieldEvaluator:
        """Volume solve plus impenetrable-obstacle correction for one
        source.

        The source's medium is read from the side of the flat line x2 = 0
        it lies on, so a source between that line and the interface graph
        (under a bump, or above a dip) or on the graph is rejected, and so
        is a source inside an impenetrable obstacle or on its boundary
        (ObstacleCurve.touches).  A source within one node spacing of that
        obstacle's nodes is solved with a warning: the trapezoid rule
        under-resolves its nearly singular field on the boundary.
        """
        x1, x2 = source.position
        f = float(self.config.profile(x1))
        if x2 == f or (x2 > 0.0) != (x2 > f):
            raise GeometryError(
                "source (%g, %g) lies on or across the interface graph "
                "(f = %g) from its side of the flat line x2 = 0"
                % (x1, x2, f))
        spec = self.config.obstacle
        if self.nodes is not None:
            if spec.curve.touches(source.position):
                raise GeometryError(
                    "source (%g, %g) lies inside or on the obstacle"
                    % (x1, x2))
            gap = np.hypot(*(self.nodes.positions - (x1, x2)).T)
            if np.min(gap) < self.nodes.spacing:
                warnings.warn("source within one node spacing of the obstacle "
                              "boundary; quadrature accuracy degrades",
                              stacklevel=2)
        background = solve_stage2(source, self.b2)
        correction = None
        if self.nodes is not None:
            incident = extend_stage2_many(background,
                                          self.point_sets["boundary"],
                                          self.b2, self.rows["boundary"])
            if spec.condition == "sound_soft":
                correction = solve_density(self.bie_operator, incident)
            else:
                correction = neumann_impedance_solve(
                    self.bie_operator, incident, self.bie_operator.impedance)
        return FieldEvaluator(self, source, background, correction)


def synthesize_dataset(config: SceneConfig, sources: Sequence[SourceSpec],
                       receivers: Optional[ReceiverLine] = None,
                       threads: int = 1,
                       solver: Optional[ForwardSolver] = None):
    """Scattered-field table over all (source, receiver) pairs.

    Rows are source-major: all receivers of source 0, then source 1, and so
    on.  threads is the number of worker processes, capped by the number
    of sources and of usable cores.  The sources are cut into contiguous
    shares: this process solves the first, and each later one is solved in
    a forked child on its copy-on-write copy of the solver (see
    _forked_columns).  Every worker runs the same single-source path, so
    the rows have the same bytes for any worker count, and a failing
    source raises the error that one worker would raise.  Where os.fork
    does not exist, one worker runs.
    """
    if receivers is None:
        receivers = config.receivers
    if receivers is None:
        raise ConfigurationError("dataset synthesis needs a receiver line")
    if solver is None:
        solver = ForwardSolver(config)
    pts = receivers.points()

    def one(source):
        return solver.solve(source).scattered(pts)

    workers = _worker_count(threads, len(sources))
    if workers > 1:
        columns = _forked_columns(solver, one, sources, workers)
    else:
        columns = [one(s) for s in sources]

    records = []
    for i, (source, us) in enumerate(zip(sources, columns)):
        for p, v in zip(pts, us):
            records.append(NearFieldRecord(i, source.position,
                                           (float(p[0]), float(p[1])),
                                           complex(v)))
    return records


def _worker_count(threads: int, n_sources: int) -> int:
    """Worker processes for n_sources: at most threads, one per source and
    one per core this process may run on; 1 where os.fork does not exist."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, min(threads, n_sources, cores))


def _fork(locks) -> Optional[int]:
    """os.fork() with every lock of the solve path held, so that no child
    inherits a lock that another thread holds; both processes release them
    right after.  None when the system refuses the process."""
    for lock in locks:
        lock.acquire()
    try:
        return os.fork()
    except OSError:
        return None
    finally:
        for lock in reversed(locks):
            lock.release()


def _child(fd: int, one, share) -> None:
    """Solve share in a forked child and send its columns, or the error of
    its first failing source, through the pipe fd; never returns."""
    code = 1
    try:
        try:
            result = [one(s) for s in share]
        except Exception as exc:
            result = exc
        with os.fdopen(fd, "wb") as fh:
            fh.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _forked_columns(solver: ForwardSolver, one, sources, workers: int):
    """Columns of all sources, cut into workers contiguous shares.

    This process solves the first share while forked children solve the
    others.  It then reads the children in share order and reaps each
    one, so the first error met is that of the lowest-index failing
    source.  A share whose fork the system refuses is solved here, in its
    turn.  On any error every child still running is killed and reaped.
    Forked, not spawned: a spawned worker would first rebuild the solver,
    which takes as long as solving about 50 sources of the shipped scene.
    """
    n = len(sources)
    cuts = [n * k // workers for k in range(workers + 1)]
    shares = [sources[a:b] for a, b in zip(cuts, cuts[1:])]
    locks = solver._locks()
    children = {}        # share index -> (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            pid = _fork(locks)
            if pid == 0:
                os.close(r)
                _child(w, one, shares[k])
            os.close(w)
            if pid is None:
                os.close(r)
            else:
                children[k] = (pid, os.fdopen(r, "rb"))
        columns = []
        for k, share in enumerate(shares):
            if k not in children:
                columns.extend(one(s) for s in share)
                continue
            pid, fh = children[k]
            with fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            del children[k]
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise SolverError(
                    "the worker process of sources %d-%d ended without a "
                    "result (exit code %d)" % (cuts[k], cuts[k + 1] - 1, code))
            result = pickle.loads(data)
            if isinstance(result, Exception):
                raise result
            columns.extend(result)
        return columns
    finally:
        for pid, fh in children.values():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Singular-source blow-up experiment
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BlowupSequenceConfig:
    """Source sequence marching onto an interface point z*.

    z_n = z* + (delta0/n) nu(z*) with nu the upward unit normal of the
    interface graph; the monitored quantity is the squared L^2 norm over
    D' = B_eps0(z*) ∩ {below the interface} of the nu-directional
    derivative of the free-space kernel centered at z_n.
    """

    z_star: Tuple[float, float]
    delta0: float = 0.1
    eps0: float = 0.5
    n_max: int = 64
    min_cell: Optional[float] = None   # finest cell near z*; default derived

    def __post_init__(self):
        if not (self.delta0 > 0.0 and self.eps0 > 0.0):
            raise ConfigurationError(
                "experiment.delta0 and experiment.eps0 must be positive")
        if self.n_max < 4:
            raise ConfigurationError("experiment.n_max must be at least 4")
        if self.delta0 >= self.eps0:
            raise ConfigurationError(
                "experiment.delta0 must be below experiment.eps0, so that "
                "every z_n stays inside the ball")
        # the graded mesh splits cells down to finest_cell: at 0 or below
        # the splitting never ends, and below about 1e-16 the cells around
        # z* are finer than the rounding of their own centers, so their
        # count keeps growing with no gain in accuracy (eps0 = 0.5: about
        # 2700 cells at 1e-12, three times as many at 1e-18)
        # from 2 eps0 up the square around z* stays one cell, centered on
        # the graph and so outside D'; below eps0 it is split twice at least
        if not 1e-12 * self.eps0 <= self.finest_cell < self.eps0:
            raise ConfigurationError(
                "experiment.min_cell (by default experiment.delta0 / "
                "(4 n_max)) must lie in [1e-12 * eps0, eps0)")

    @property
    def finest_cell(self) -> float:
        """min_cell, by default a quarter of delta0 / n_max, the distance
        of the last source from z*."""
        if self.min_cell is not None:
            return self.min_cell
        return (self.delta0 / self.n_max) / 4.0


def _graded_cells(z_star, eps0, min_cell):
    """Quadtree cells of the square around z*, graded toward the center.

    A cell is split while its size exceeds both min_cell and a fixed
    fraction of its distance to z*; returns (centers, sizes).
    """
    z = np.asarray(z_star, float)
    out_c, out_s = [], []
    stack = [(z[0] - eps0, z[1] - eps0, 2.0 * eps0)]
    while stack:
        x, y, s = stack.pop()
        c = np.array([x + 0.5 * s, y + 0.5 * s])
        dist = np.hypot(c[0] - z[0], c[1] - z[1])
        if s > min_cell and s > 0.5 * max(dist - 0.7 * s, 0.0):
            h = 0.5 * s
            stack.extend([(x, y, h), (x + h, y, h),
                          (x, y + h, h), (x + h, y + h, h)])
        else:
            out_c.append(c)
            out_s.append(s)
    return np.array(out_c), np.array(out_s)


def blowup_mesh(profile: InterfaceProfile, cfg: BlowupSequenceConfig,
                subsample: int = 4) -> RegionMesh:
    """Graded midpoint mesh of D' = B_eps0(z*) ∩ {x2 < f(x1)}."""
    centers, sizes = _graded_cells(cfg.z_star, cfg.eps0, cfg.finest_cell)
    z = np.asarray(cfg.z_star, float)

    def inside(pts):
        r = np.hypot(pts[..., 0] - z[0], pts[..., 1] - z[1])
        return (r < cfg.eps0) & (pts[..., 1] < profile(pts[..., 0]))

    keep = inside(centers)
    centers, sizes = centers[keep], sizes[keep]
    off = (np.arange(subsample) + 0.5) / subsample - 0.5
    OX, OY = np.meshgrid(off, off, indexing="ij")
    sub = centers[:, None, :] + sizes[:, None, None] \
        * np.stack([OX.ravel(), OY.ravel()], axis=-1)[None, :, :]
    frac = np.mean(inside(sub), axis=1)
    weights = sizes ** 2 * frac
    pos = weights > 0.0
    if not np.any(pos):   # e.g. z* on the top of a narrow, steep bump
        raise ConfigurationError("no cell of the graded mesh lies in D'; "
                                 "lower experiment.min_cell")
    return RegionMesh(region_tag="D_prime", cell_size=float(np.min(sizes)),
                      centers=centers[pos], weights=weights[pos])


def blowup_experiment(config: SceneConfig,
                      cfg: BlowupSequenceConfig) -> dict:
    """Norms N_n of the nu-directional kernel derivative as z_n -> z*.

    Returns {"rows": [(n, N_n), ...], "exponent": fitted log-log slope,
    "ratio": N_{n_max}/N_4}.  Divergence is reported, not asserted.
    N_n grows like (1/(8 pi)) ln n, so "exponent", the log-log slope, only
    signals growth and shrinks as n_max grows.  Each n evaluates the
    kernel derivative on every cell of the graded mesh, so n_max times
    the cell count past _BLOWUP_WORK raises ConfigurationError before the
    first.
    """
    profile = config.profile
    z = np.asarray(cfg.z_star, float)
    f_at = profile(z[0])
    if abs(z[1] - f_at) > 1e-9:
        raise GeometryError("z* must lie on the interface graph")
    nu = np.asarray(profile.upward_normal(z[0]))
    mesh = blowup_mesh(profile, cfg, subsample=config.subsample)
    if cfg.n_max * mesh.n > _BLOWUP_WORK:
        raise ConfigurationError(
            "experiment.n_max %d times the %d mesh cells exceeds the "
            "blow-up experiment's budget of %.3g" % (cfg.n_max, mesh.n,
                                                     _BLOWUP_WORK))
    kappa1 = config.medium.kappa1

    from .specfun import grad_phi_matrix
    rows = []
    for n in range(1, cfg.n_max + 1):
        zn = z + (cfg.delta0 / n) * nu
        dx = mesh.centers - zn[None, :]
        r = np.hypot(dx[:, 0], dx[:, 1])
        if np.min(r) < 2.0 * mesh.cell_size:
            warnings.warn("blow-up source z_%d is within two finest cells "
                          "of the quadrature mesh; refine min_cell" % n,
                          stacklevel=2)
        grad = grad_phi_matrix(kappa1, dx, r)
        vals = grad[:, 0] * nu[0] + grad[:, 1] * nu[1]
        rows.append((n, float(np.sum(mesh.weights * np.abs(vals) ** 2))))

    ns = np.array([r[0] for r in rows], float)
    Ns = np.array([r[1] for r in rows], float)
    tail = ns >= max(4, cfg.n_max // 4)
    slope = np.polyfit(np.log(ns[tail]), np.log(Ns[tail]), 1)[0]
    return {"rows": rows, "exponent": float(slope),
            "ratio": float(Ns[-1] / Ns[3]), "mesh_cells": mesh.n}
