"""Nested Lippmann-Schwinger volume solvers.

Stage 1 replaces the flat interface by the circular-arc interface: on the
half-disk region B1 (between arc and flat line) the field solves
(I + eta*T0) u = u_flat with kernel G(.,.;flat), and extends everywhere by
u_arc(x) = u_flat(x) - eta * int_B1 G(x,y;flat) u(y) dy.

Stage 2 replaces the arc interface by the rough interface: on B2 (between
arc and the rough graph) the equation is (I - eta*T_R) u = u_arc with the
*arc* Green's function as kernel — note the sign flip relative to stage 1 —
and extends by u_rough(x) = u_arc(x) + eta * int_B2 G_R(x,y) u(y) dy.

The arc kernel G_R(x,y) is itself produced by stage-1 solves (one column
per y), all sharing the single stage-1 LU factorization.

Discretization is midpoint Nystrom on the uniform region meshes.  The
weakly singular diagonal uses log-extraction: the cell integral of the
free-space kernel splits into a closed-form integral of -(1/2pi)log r over
an equal-area square plus the midpoint value of the smooth remainder.
Kernel matrices store this cell average at coincident point pairs, which
makes the discrete extension formulas exactly consistent with the solved
values at cell centers.

The flat-interface kernel depends only on the two heights and the
horizontal offset.  Every kernel matrix and source column, the grid x grid
operator assembly included, runs on one fixed xi-rule per side pair
(PlanarGreen.matrix), as matrix products.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import AccuracyError, SingularityError, SolverError
from .geometry import RegionMesh
from .layered_green import MediumParams, PlanarGreen, SourceSpec
from .specfun import EULER_GAMMA, phi_matrix

_COINCIDENT = 1e-12


# ---------------------------------------------------------------------------
# Singular self-weight
# ---------------------------------------------------------------------------
def log_integral_square(h: float) -> float:
    """Closed form of int over the square [-h/2,h/2]^2 of ln|y| dy."""
    return h * h * (np.log(h * np.sqrt(2.0) / 2.0) - 1.5 + np.pi / 4.0)


def cell_self_weight(kappa: float, w: float) -> complex:
    """Integral of the free-space kernel over a cell centered at the
    singularity, for a cell of area w (treated as an equal-area square).

    Splits (i/4)H0(kappa r) = [smooth] - (1/2pi) ln r; the smooth part is
    integrated by midpoint (its value at r=0), the log part in closed form.
    """
    h = np.sqrt(w)
    smooth0 = 0.25j - (np.log(0.5 * kappa) + EULER_GAMMA) / (2.0 * np.pi)
    return w * smooth0 - log_integral_square(h) / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# Flat-interface kernel matrices (batched Fourier integrals)
# ---------------------------------------------------------------------------
def planar_scattered_matrix(green: PlanarGreen, X: np.ndarray,
                            Y: np.ndarray) -> np.ndarray:
    """Matrix of scattered/transmitted flat-interface values G^s(x_i, y_j),
    on one fixed xi-rule per side pair (PlanarGreen.matrix)."""
    return green.matrix("monopole", 0, X, Y)


def planar_green_matrix(green: PlanarGreen, X: np.ndarray, Y: np.ndarray,
                        y_weights: Optional[np.ndarray] = None,
                        x_weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Matrix of total flat-interface values G(x_i, y_j).

    Adds the free-space part on same-side pairs.  Coincident pairs are
    filled with a cell average (requires y_weights, or x_weights as a
    symmetric fallback when the y points carry no cells): self-weight
    integral of the free-space part divided by the cell area, plus the
    regular scattered value.
    """
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    med = green.medium
    out = planar_scattered_matrix(green, X, Y)
    dx = X[:, 0][:, None] - Y[None, :, 0]
    dy = X[:, 1][:, None] - Y[None, :, 1]
    r = np.hypot(dx, dy)
    same = (X[:, 1] > 0.0)[:, None] == (Y[:, 1] > 0.0)[None, :]
    coin = r < _COINCIDENT
    for side, kappa in ((True, med.kappa1), (False, med.kappa2)):
        m = same & ((Y[:, 1] > 0.0)[None, :] == side) & ~coin
        if np.any(m):
            out[m] += phi_matrix(kappa, r[m])
    if np.any(coin):
        if y_weights is None and x_weights is None:
            raise SingularityError(
                "coincident kernel points need cell weights for averaging")
        ci, cj = np.nonzero(coin)
        for i, j in zip(ci, cj):
            kappa = med.kappa_at(Y[j, 1])
            w = y_weights[j] if y_weights is not None else x_weights[i]
            out[i, j] += cell_self_weight(kappa, w) / w
    return out


def planar_field_column(green: PlanarGreen, source: SourceSpec,
                        X: np.ndarray, total: bool = True,
                        x_weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Flat-interface field of a point source at each point of X.

    With total=False only the scattered/transmitted part is returned.  If a
    point of X coincides with a monopole source position, the cell-averaged
    value is used (x_weights required); dipole sources must stay off X.
    """
    X = np.asarray(X, float)
    xs = source.position
    kind = source.kind
    out = green.matrix(kind, source.direction, X,
                       np.array([xs], float))[:, 0]

    if not total:
        return out
    same = (X[:, 1] > 0.0) == (xs[1] > 0.0)
    r = np.hypot(X[:, 0] - xs[0], X[:, 1] - xs[1])
    coin = r < _COINCIDENT
    kappa = green.medium.kappa_at(xs[1])
    reg = same & ~coin
    if np.any(reg):
        out[reg] += source.incident(X[reg], kappa)
    if np.any(coin):
        if kind != "monopole":
            raise SingularityError("dipole source coincides with a mesh point")
        if x_weights is None:
            raise SingularityError(
                "source on a mesh point needs cell weights for averaging")
        for i in np.nonzero(coin)[0]:
            out[i] += cell_self_weight(kappa, x_weights[i]) / x_weights[i]
    return out


# ---------------------------------------------------------------------------
# Dense operator and grid solution
# ---------------------------------------------------------------------------
class DenseOperator:
    """Dense complex collocation matrix with a lazily computed, immutable
    LU factorization (partial pivoting).

    Triangular solves are serialized through a lock: concurrent LAPACK
    getrs calls against one factorization are not re-entrant with the BLAS
    build in use, and the solves are cheap relative to assembly anyway.
    """

    def __init__(self, entries: np.ndarray):
        self.entries = entries
        self._lu = None
        self._lock = threading.Lock()
        self.last_residual = 0.0

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def factorize(self) -> None:
        with self._lock:
            if self._lu is None:
                try:
                    self._lu = scipy.linalg.lu_factor(self.entries)
                except scipy.linalg.LinAlgError as exc:  # pragma: no cover
                    raise SolverError(f"LU factorization failed: {exc}") from exc
                if not np.all(np.isfinite(self._lu[0])):
                    raise SolverError("singular collocation matrix")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs (rhs may hold several columns)."""
        self.factorize()
        with self._lock:
            sol = scipy.linalg.lu_solve(self._lu, rhs)
        scale = float(np.max(np.abs(rhs)))
        if scale > 0.0:
            # checked through a local: a concurrent solve may overwrite the
            # informational last_residual between the write and the test
            residual = float(np.max(np.abs(self.entries @ sol - rhs))) / scale
            self.last_residual = residual
            if residual > 1e-8:
                raise AccuracyError(
                    "linear solve residual %.3e exceeds contract" % residual,
                    value=sol, estimate=residual)
        return sol


@dataclass
class GridSolution:
    """Solution of one volume equation, sampled at the mesh cell centers."""

    mesh: RegionMesh
    values: np.ndarray
    source: SourceSpec
    stage: str               # "arc" or "rough"
    aux: dict = field(default_factory=dict)


def _match_centers(X: np.ndarray, centers: np.ndarray):
    """Index of the coinciding cell center for each row of X (-1 if none)."""
    idx = np.full(len(X), -1, dtype=int)
    for i, p in enumerate(X):
        d = np.abs(centers - p).max(axis=1)
        j = int(np.argmin(d))
        if d[j] < _COINCIDENT:
            idx[i] = j
    return idx


# ---------------------------------------------------------------------------
# Stage 1: flat -> arc
# ---------------------------------------------------------------------------
def assemble_B1_operator(mesh_B1: RegionMesh, medium: MediumParams,
                         tol: float = 1e-8,
                         green: Optional[PlanarGreen] = None) -> DenseOperator:
    """Collocation matrix of I + eta*T0 on the B1 mesh (kernel with
    cell-averaged diagonal)."""
    if green is None:
        green = PlanarGreen(medium, tol)
    w = mesh_B1.weights
    if medium.eta == 0.0:
        op = DenseOperator(np.eye(mesh_B1.n, dtype=complex))
    else:
        kernel = planar_green_matrix(green, mesh_B1.centers, mesh_B1.centers, w)
        op = DenseOperator(np.eye(mesh_B1.n, dtype=complex)
                           + medium.eta * kernel * w[None, :])
    op.mesh = mesh_B1
    op.medium = medium
    op.green = green
    return op


def solve_stage1(source: SourceSpec, operator: DenseOperator,
                 mesh_B1: RegionMesh, medium: MediumParams) -> GridSolution:
    """Solve the B1 equation for one source; values live at cell centers."""
    rhs = planar_field_column(operator.green, source, mesh_B1.centers,
                              total=True, x_weights=mesh_B1.weights)
    values = operator.solve(rhs)
    return GridSolution(mesh=mesh_B1, values=values, source=source,
                        stage="arc", aux={"rhs": rhs})


def _subtract_incident(values: np.ndarray, points: np.ndarray,
                       source: SourceSpec, medium: MediumParams) -> np.ndarray:
    """Remove the free-space incident wave at same-side points."""
    out = values.copy()
    xs2 = source.position[1]
    same = (points[:, 1] > 0.0) == (xs2 > 0.0)
    out[same] -= source.incident(points[same], medium.kappa_at(xs2))
    return out


def _stage1_rows(X: np.ndarray, mesh: RegionMesh, medium: MediumParams,
                 green: PlanarGreen):
    """(hit, rows) of the stage-1 extension formula at X: the coinciding
    B1 center of each point (-1 if none) and the kernel rows G(x, c; flat)
    of the other points (None when the contrast vanishes)."""
    hit = _match_centers(X, mesh.centers)
    off = hit < 0
    rows = None
    if medium.eta != 0.0 and np.any(off):
        rows = planar_green_matrix(green, X[off], mesh.centers, mesh.weights)
    return hit, rows


def _extend_stage1(sol: GridSolution, X: np.ndarray, medium: MediumParams,
                   green: PlanarGreen, total: bool, hit: np.ndarray,
                   rows: Optional[np.ndarray]) -> np.ndarray:
    """Stage-1 extension formula with its source-independent rows given."""
    mesh = sol.mesh
    out = np.empty(len(X), dtype=complex)
    on = hit >= 0
    out[on] = sol.values[hit[on]]
    if np.any(on) and not total:
        out[on] = _subtract_incident(out[on], X[on], sol.source, medium)
    off = ~on
    if np.any(off):
        u0 = planar_field_column(green, sol.source, X[off], total=total)
        if medium.eta == 0.0:
            out[off] = u0
        else:
            out[off] = u0 - medium.eta * rows @ (mesh.weights * sol.values)
    return out


def extend_stage1_many(sol: GridSolution, X: np.ndarray,
                       medium: MediumParams,
                       green: PlanarGreen, total: bool = True) -> np.ndarray:
    """Arc-interface field at each point of X, by the extension formula.

    Points that coincide with cell centers return the solved values (the
    equation itself *is* the extension formula there).  total=False removes
    the free-space incident wave algebraically, which keeps the value
    finite even at the source position.
    """
    X = np.asarray(X, float)
    hit, rows = _stage1_rows(X, sol.mesh, medium, green)
    return _extend_stage1(sol, X, medium, green, total, hit, rows)


def extend_stage1(sol: GridSolution, x, medium: MediumParams,
                  green: Optional[PlanarGreen] = None,
                  tol: float = 1e-8) -> complex:
    """Arc-interface field at a single point."""
    if green is None:
        green = PlanarGreen(medium, tol)
    return complex(extend_stage1_many(sol, np.asarray([x], float),
                                      medium, green)[0])


def green_arc(x, y, medium: MediumParams,
              stage1_operator: DenseOperator) -> complex:
    """Arc-interface Green's function: monopole solve at y, extended to x."""
    src = SourceSpec("monopole", (float(y[0]), float(y[1])))
    sol = solve_stage1(src, stage1_operator, stage1_operator.mesh, medium)
    return extend_stage1(sol, x, medium, green=stage1_operator.green)


# ---------------------------------------------------------------------------
# Stage 2: arc -> rough
# ---------------------------------------------------------------------------
def assemble_B2_operator(mesh_B2: RegionMesh, medium: MediumParams,
                         stage1_operator: DenseOperator) -> DenseOperator:
    """Collocation matrix of I - eta*T_R on the B2 mesh.

    The arc-kernel matrix G_R(c_i, c_j) is produced column-wise from the
    stage-1 factorization: each column is a monopole stage-1 solve with the
    source at c_j, assembled as one dense triple product.
    """
    green = stage1_operator.green
    mesh_B1 = stage1_operator.mesh
    w1 = mesh_B1.weights
    w2 = mesh_B2.weights
    if medium.eta == 0.0:
        op = DenseOperator(np.eye(mesh_B2.n, dtype=complex))
        op.cross_matrix = None
        op.stage1_columns = None
    else:
        # G12[i, k] = G(c_i^B2, c_k^B1; flat), averaged over the B1 cell at
        # coincident pairs; its transpose is the stage-1 right-hand sides.
        # Weighted by the B1 cell areas it is kept as cross_matrix, the
        # B1 volume integral at the B2 centers of every source.
        G12 = planar_green_matrix(green, mesh_B2.centers, mesh_B1.centers, w1)
        G22 = planar_green_matrix(green, mesh_B2.centers, mesh_B2.centers, w2)
        columns = stage1_operator.solve(np.ascontiguousarray(G12.T))
        cross = G12 * w1[None, :]
        GR = G22 - medium.eta * cross @ columns
        op = DenseOperator(np.eye(mesh_B2.n, dtype=complex)
                           - medium.eta * GR * w2[None, :])
        op.cross_matrix = cross
        op.stage1_columns = columns
    op.mesh = mesh_B2
    op.medium = medium
    op.green = green
    op.stage1 = stage1_operator
    return op


def solve_stage2(source: SourceSpec, b2_operator: DenseOperator,
                 mesh_B2: RegionMesh, medium: MediumParams) -> GridSolution:
    """Solve the B2 equation; the right-hand side is the stage-1 field."""
    stage1_op = b2_operator.stage1
    green = b2_operator.green
    sol1 = solve_stage1(source, stage1_op, stage1_op.mesh, medium)
    if medium.eta == 0.0:
        rhs = planar_field_column(green, source, mesh_B2.centers,
                                  total=True, x_weights=mesh_B2.weights)
    else:
        u0 = planar_field_column(green, source, mesh_B2.centers,
                                 total=True, x_weights=mesh_B2.weights)
        rhs = u0 - medium.eta * b2_operator.cross_matrix @ sol1.values
    values = b2_operator.solve(rhs)
    return GridSolution(mesh=mesh_B2, values=values, source=source,
                        stage="rough", aux={"stage1": sol1, "rhs": rhs})


@dataclass(frozen=True)
class ExtensionRows:
    """Source-independent part of the stage-2 extension formula at a point
    set: which points coincide with cell centers, and the kernel rows of the
    two extension integrals at the others.  Rows are None when the
    contrast vanishes."""

    hit2: np.ndarray              # coinciding B2 center per point, -1 if none
    hit1: np.ndarray              # coinciding B1 center per point off B2
    rows1: Optional[np.ndarray]   # G(x, c^B1; flat), points off both meshes
    gr_rows: Optional[np.ndarray]  # G_R(x, c^B2), points off B2

    def volume_rows(self, b2_operator: DenseOperator):
        """(rows1 w1, gr_rows w2), the weighted rows of the B1 and B2
        volume integrals at the same points, when no point sits on a cell
        center and the contrast does not vanish; else None.

        They are then RoughKernel.volume_rows at these points, from the
        same operations and so with the same bytes."""
        if self.rows1 is None or np.any(self.hit2 >= 0) \
                or np.any(self.hit1 >= 0):
            return None
        return (self.rows1 * b2_operator.stage1.mesh.weights[None, :],
                self.gr_rows * b2_operator.mesh.weights[None, :])


def extension_rows(X: np.ndarray, medium: MediumParams,
                   b2_operator: DenseOperator) -> ExtensionRows:
    """Build the rows extend_stage2_many applies to every source at X."""
    X = np.asarray(X, float)
    green = b2_operator.green
    mesh1 = b2_operator.stage1.mesh
    mesh2 = b2_operator.mesh
    hit2 = _match_centers(X, mesh2.centers)
    Xo = X[hit2 < 0]
    hit1, rows1 = _stage1_rows(Xo, mesh1, medium, green)
    gr_rows = None
    if medium.eta != 0.0 and len(Xo):
        # the stage-1 rows are reused when no point sits on a B1 center
        full1 = rows1 if np.all(hit1 < 0) else planar_green_matrix(
            green, Xo, mesh1.centers, mesh1.weights)
        rows2 = planar_green_matrix(green, Xo, mesh2.centers, mesh2.weights)
        gr_rows = rows2 - medium.eta * (full1 * mesh1.weights[None, :]) \
            @ b2_operator.stage1_columns
    return ExtensionRows(hit2=hit2, hit1=hit1, rows1=rows1, gr_rows=gr_rows)


def extend_stage2_many(sol: GridSolution, X: np.ndarray,
                       medium: MediumParams,
                       b2_operator: DenseOperator,
                       total: bool = True,
                       rows: Optional[ExtensionRows] = None) -> np.ndarray:
    """Rough-interface field at each point of X.

    total=False removes the free-space incident wave (same side only),
    yielding the scattered/transmitted part directly.  rows, from
    extension_rows at the same X, skips rebuilding the source-independent
    kernel rows; without it they are built for this call only.
    """
    X = np.asarray(X, float)
    if rows is None:
        rows = extension_rows(X, medium, b2_operator)
    mesh2 = sol.mesh
    out = np.empty(len(X), dtype=complex)
    on = rows.hit2 >= 0
    out[on] = sol.values[rows.hit2[on]]
    if np.any(on) and not total:
        out[on] = _subtract_incident(out[on], X[on], sol.source, medium)
    off = ~on
    if not np.any(off):
        return out
    u_arc = _extend_stage1(sol.aux["stage1"], X[off], medium,
                           b2_operator.green, total, rows.hit1, rows.rows1)
    if medium.eta == 0.0:
        out[off] = u_arc
        return out
    out[off] = u_arc + medium.eta * rows.gr_rows @ (mesh2.weights * sol.values)
    return out


def green_rough_columns(points: np.ndarray, b2_operator: DenseOperator,
                        medium: MediumParams,
                        sources: np.ndarray) -> np.ndarray:
    """Matrix of rough-interface Green's values G(x_i, y_j; rough) for
    evaluation points x_i and monopole source positions y_j.

    Each source needs one stage-1 and one stage-2 column solve; all columns
    share the two LU factorizations.  Sources must stay off both meshes'
    cell centers and off the evaluation points.
    """
    points = np.asarray(points, float)
    sources = np.asarray(sources, float)
    out = np.empty((len(points), len(sources)), dtype=complex)
    rows = extension_rows(points, medium, b2_operator)
    for j, y in enumerate(sources):
        src = SourceSpec("monopole", (float(y[0]), float(y[1])))
        sol = solve_stage2(src, b2_operator, b2_operator.mesh, medium)
        out[:, j] = extend_stage2_many(sol, points, medium, b2_operator,
                                       rows=rows)
    return out
