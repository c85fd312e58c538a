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

B1 and B2 are cut from one lattice, so their cells overlap: under a bump
B1's cells are B2's below x2 = 0.  Every flat-interface kernel block and
source column is evaluated once on the union of their cells (CellUnion);
the blocks of each mesh are gathered from it, and only the cell averages
at coincident pairs, which depend on each mesh's own weights, are formed
per mesh.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import (
    AccuracyError,
    ConfigurationError,
    SingularityError,
    SolverError,
)
from .geometry import _COINCIDENT, RegionMesh
from .layered_green import MediumParams, PlanarGreen, SourceSpec
from .specfun import EULER_GAMMA, phi_matrix


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
                        x_weights: Optional[np.ndarray] = None,
                        average: bool = True) -> np.ndarray:
    """Matrix of total flat-interface values G(x_i, y_j).

    Adds the free-space part on same-side pairs.  Coincident pairs are
    filled with a cell average (requires y_weights, or x_weights as a
    symmetric fallback when the y points carry no cells): self-weight
    integral of the free-space part divided by the cell area, plus the
    regular scattered value.  average=False leaves them at the scattered
    value, for a caller that averages them over cells of its own
    (CellUnion).
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
    if average:
        _add_cell_averages(out, *np.nonzero(coin), Y, med, y_weights,
                           x_weights)
    return out


def _add_cell_averages(out: np.ndarray, ci: np.ndarray, cj: np.ndarray,
                       Y: np.ndarray, medium: MediumParams,
                       y_weights: Optional[np.ndarray] = None,
                       x_weights: Optional[np.ndarray] = None) -> None:
    """Add, at the coincident pairs (ci, cj) of out (a kernel on X x Y),
    the free-space self-weight integral over the cell of y_weights (or of
    x_weights when the y points carry no cells) divided by its area."""
    if not len(ci):
        return
    if y_weights is None and x_weights is None:
        raise SingularityError(
            "coincident kernel points need cell weights for averaging")
    kappa = np.where(Y[cj, 1] > 0.0, medium.kappa1, medium.kappa2)
    w = y_weights[cj] if y_weights is not None else x_weights[ci]
    out[ci, cj] += cell_self_weight(kappa, w) / w


def planar_field_column(green: PlanarGreen, source: SourceSpec,
                        X: np.ndarray, total: bool = True,
                        x_weights: Optional[np.ndarray] = None,
                        average: bool = True) -> np.ndarray:
    """Flat-interface field of a point source at each point of X.

    With total=False only the scattered/transmitted part is returned.  If a
    point of X coincides with a monopole source position, the cell-averaged
    value is used (x_weights required; average=False leaves the scattered
    value there, as in planar_green_matrix); dipole sources must stay off
    X.
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
        if average:
            ci = np.flatnonzero(coin)
            _add_cell_averages(out[:, None], ci, np.zeros_like(ci),
                               np.array([xs], float), green.medium,
                               x_weights=x_weights)
    return out


# ---------------------------------------------------------------------------
# The cells of B1 and B2
# ---------------------------------------------------------------------------
class CellUnion:
    """The cells of the B1 and B2 meshes as one point set U, on which each
    flat-interface kernel block and source column is evaluated once for
    both meshes.

    build_region_mesh cuts both meshes from one lattice (origin (-R, -R),
    one cell size), so a cell is known by its lattice index.  U holds each
    cell once, in lattice order, which is the order of each mesh, and
    index[k][i] is the position in U of cell i of mesh k (0: B1, 1: B2).
    Under a bump B1's cells are B2's below x2 = 0, so U is B2: its side
    blocks, and with them every xi-rule and entry, are the meshes' own.
    The cell center a point coincides with is found from the point's
    lattice index (hits), so coincident pairs are known without comparing
    every point with every center.

    Kernels on U leave coincident pairs unaveraged (average=False).  A
    mesh's block is gathered from U and averaged over that mesh's cells
    with the operations of planar_green_matrix: a cell cut by the interface
    has another weight in each mesh.  Gathered blocks are C-contiguous,
    since a product with a Fortran-ordered gather has other last bits.
    """

    def __init__(self, mesh_B1: RegionMesh, mesh_B2: RegionMesh):
        origin = np.asarray(mesh_B1.origin, float)
        h = mesh_B1.cell_size
        both = np.concatenate([mesh_B1.centers, mesh_B2.centers])
        keys = np.rint((both - origin) / h - 0.5).astype(np.int64)
        cells, where = np.unique(keys, axis=0, return_inverse=True)
        where = where.reshape(-1)
        self.centers = np.empty((len(cells), 2))
        self.centers[where] = both
        if mesh_B2.cell_size != h \
                or not np.array_equal(mesh_B2.origin, origin) \
                or not np.array_equal(self.centers[where], both):
            raise ConfigurationError(
                "the B1 and B2 meshes must be cut from one lattice")
        self.meshes = (mesh_B1, mesh_B2)
        self.index = (where[:mesh_B1.n], where[mesh_B1.n:])
        # lattice indices relative to the lowest, coded in lattice order
        self._origin, self._h = origin, h
        self._low = cells.min(axis=0)
        self._span = cells.max(axis=0) - self._low + 1
        self._stride = np.array([self._span[1], 1])
        self._codes = (cells - self._low) @ self._stride
        # position in mesh k of each cell of U, -1 where mesh k lacks it
        self._in_mesh = []
        for idx in self.index:
            pos = np.full(len(cells), -1)
            pos[idx] = np.arange(len(idx))
            self._in_mesh.append(pos)

    def hits(self, X: np.ndarray, k: int) -> np.ndarray:
        """The cell of mesh k whose center each point of X coincides with,
        -1 if none: looked up by the point's lattice index, with no loop
        over the points and no points x cells temporary."""
        X = np.asarray(X, float).reshape(-1, 2)
        near = np.rint((X - self._origin) / self._h - 0.5) - self._low
        inside = np.flatnonzero(np.all((near >= 0) & (near < self._span),
                                       axis=1))
        code = near[inside].astype(np.int64) @ self._stride
        u = np.minimum(np.searchsorted(self._codes, code),
                       len(self._codes) - 1)
        d = X[inside] - self.centers[u]
        on = (self._codes[u] == code) \
            & (np.hypot(d[:, 0], d[:, 1]) < _COINCIDENT)
        out = np.full(len(X), -1)
        out[inside[on]] = self._in_mesh[k][u[on]]
        return out

    def kernel(self, green: PlanarGreen) -> Optional[np.ndarray]:
        """The flat kernel on U x U, unaveraged on the diagonal; None when
        the contrast vanishes, where no operator reads it."""
        if green.medium.eta == 0.0:
            return None
        return planar_green_matrix(green, self.centers, self.centers,
                                   average=False)

    def columns(self, K: np.ndarray, hit: np.ndarray, k: int,
                medium: MediumParams) -> np.ndarray:
        """Mesh k's columns of K, a kernel on X x U, averaged over its
        cells at the points of X on them (hit = hits(X, k))."""
        return self._averaged(np.ascontiguousarray(K[:, self.index[k]]),
                              hit, k, medium)

    def rows(self, K: np.ndarray, Y: np.ndarray, k: int,
             medium: MediumParams) -> np.ndarray:
        """Mesh k's rows of K, a kernel on U x Y, averaged over its cells
        at the coincident pairs."""
        out = K[self.index[k]]
        hit = self.hits(Y, k)
        cj = np.flatnonzero(hit >= 0)
        _add_cell_averages(out, hit[cj], cj, Y, medium,
                           x_weights=self.meshes[k].weights)
        return out

    def block(self, K: np.ndarray, a: int, b: int,
              medium: MediumParams) -> np.ndarray:
        """Mesh a's rows and mesh b's columns of K, the kernel on U x U,
        gathered in one copy."""
        return self._averaged(K[np.ix_(self.index[a], self.index[b])],
                              self._in_mesh[b][self.index[a]], b, medium)

    def _averaged(self, out: np.ndarray, hit: np.ndarray, k: int,
                  medium: MediumParams) -> np.ndarray:
        """out, mesh k's columns of a kernel on X x U, with the cell
        averages over mesh k's cells added where hit[i] >= 0, the cell
        that point i of X sits on."""
        mesh = self.meshes[k]
        ci = np.flatnonzero(hit >= 0)
        _add_cell_averages(out, ci, hit[ci], mesh.centers, medium,
                           y_weights=mesh.weights)
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
    """Solution of one volume equation, sampled at the mesh cell centers,
    with the right-hand side it solved and, for stage 2, the stage-1
    solution it was built on."""

    mesh: RegionMesh
    values: np.ndarray
    source: SourceSpec
    rhs: np.ndarray
    stage1: Optional["GridSolution"] = None


# ---------------------------------------------------------------------------
# Stage 1: flat -> arc
# ---------------------------------------------------------------------------
def assemble_B1_operator(mesh_B1: RegionMesh, medium: MediumParams,
                         tol: float = 1e-8,
                         green: Optional[PlanarGreen] = None,
                         union: Optional[CellUnion] = None,
                         kernel: Optional[np.ndarray] = None
                         ) -> DenseOperator:
    """Collocation matrix of I + eta*T0 on the B1 mesh (kernel with
    cell-averaged diagonal).

    The kernel is gathered from union (by default B1's cells alone) and
    its kernel, union.kernel(green), which a caller that also assembles
    the B2 operator evaluates once and passes to both."""
    if green is None:
        green = PlanarGreen(medium, tol)
    w = mesh_B1.weights
    if medium.eta == 0.0:
        op = DenseOperator(np.eye(mesh_B1.n, dtype=complex))
    else:
        if union is None:
            union = CellUnion(mesh_B1, mesh_B1)
        if kernel is None:
            kernel = union.kernel(green)
        block = union.block(kernel, 0, 0, medium)
        op = DenseOperator(np.eye(mesh_B1.n, dtype=complex)
                           + medium.eta * block * w[None, :])
    op.mesh = mesh_B1
    op.medium = medium
    op.green = green
    return op


def solve_stage1(source: SourceSpec, operator: DenseOperator,
                 mesh_B1: RegionMesh, medium: MediumParams,
                 rhs: Optional[np.ndarray] = None) -> GridSolution:
    """Solve the B1 equation for one source; values live at cell centers.
    rhs, the source's field column on the B1 centers, skips evaluating
    it."""
    if rhs is None:
        rhs = planar_field_column(operator.green, source, mesh_B1.centers,
                                  total=True, x_weights=mesh_B1.weights)
    values = operator.solve(rhs)
    return GridSolution(mesh=mesh_B1, values=values, source=source, rhs=rhs)


def _subtract_incident(values: np.ndarray, points: np.ndarray,
                       source: SourceSpec, medium: MediumParams) -> np.ndarray:
    """Remove the free-space incident wave at same-side points."""
    out = values.copy()
    xs2 = source.position[1]
    same = (points[:, 1] > 0.0) == (xs2 > 0.0)
    out[same] -= source.incident(points[same], medium.kappa_at(xs2))
    return out


def _extend_stage1(sol: GridSolution, X: np.ndarray, medium: MediumParams,
                   green: PlanarGreen, total: bool, hit: np.ndarray,
                   volume: Optional[np.ndarray]) -> np.ndarray:
    """Stage-1 extension formula at X, with hit the cell center each point
    sits on (-1 if none) and volume the B1 volume integral of the solution
    at the points off the mesh (None when the contrast vanishes)."""
    out = np.empty(len(X), dtype=complex)
    on = hit >= 0
    out[on] = sol.values[hit[on]]
    if np.any(on) and not total:
        out[on] = _subtract_incident(out[on], X[on], sol.source, medium)
    off = ~on
    if np.any(off):
        u0 = planar_field_column(green, sol.source, X[off], total=total)
        out[off] = u0 if volume is None else u0 - medium.eta * volume
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
    mesh = sol.mesh
    hit = CellUnion(mesh, mesh).hits(X, 0)
    off = hit < 0
    volume = None
    if medium.eta != 0.0 and np.any(off):
        volume = planar_green_matrix(green, X[off], mesh.centers,
                                     mesh.weights) @ (mesh.weights
                                                      * sol.values)
    return _extend_stage1(sol, X, medium, green, total, hit, volume)


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
                         stage1_operator: DenseOperator,
                         union: Optional[CellUnion] = None,
                         kernel: Optional[np.ndarray] = None
                         ) -> DenseOperator:
    """Collocation matrix of I - eta*T_R on the B2 mesh.

    The arc-kernel matrix G_R(c_i, c_j) is produced column-wise from the
    stage-1 factorization: each column is a monopole stage-1 solve with the
    source at c_j, assembled as one dense triple product.  The flat-kernel
    blocks are gathered from union, the cells of both meshes (built here
    by default), and its kernel (as in assemble_B1_operator).  The union
    is kept: every later kernel row and source column is evaluated on it.
    """
    green = stage1_operator.green
    mesh_B1 = stage1_operator.mesh
    if union is None:
        union = CellUnion(mesh_B1, mesh_B2)
    w1 = mesh_B1.weights
    w2 = mesh_B2.weights
    if medium.eta == 0.0:
        op = DenseOperator(np.eye(mesh_B2.n, dtype=complex))
        op.cross_matrix = None
        op.stage1_columns = None
    else:
        if kernel is None:
            kernel = union.kernel(green)
        # G12[i, k] = G(c_i^B2, c_k^B1; flat), averaged over the B1 cell at
        # coincident pairs; its transpose is the stage-1 right-hand sides.
        # Weighted by the B1 cell areas it is kept as cross_matrix, the
        # B1 volume integral at the B2 centers of every source.
        G12 = union.block(kernel, 1, 0, medium)
        columns = stage1_operator.solve(np.ascontiguousarray(G12.T))
        cross = G12 * w1[None, :]
        del G12
        # GR = G22 - eta * cross @ columns, with the same operations in
        # place: the union's kernel is still alive here, and each
        # temporary left out keeps the peak memory below the per-mesh one
        GR = (medium.eta * cross) @ columns
        np.subtract(union.block(kernel, 1, 1, medium), GR, out=GR)
        op = DenseOperator(np.eye(mesh_B2.n, dtype=complex)
                           - medium.eta * GR * w2[None, :])
        op.cross_matrix = cross
        op.stage1_columns = columns
    op.mesh = mesh_B2
    op.medium = medium
    op.green = green
    op.stage1 = stage1_operator
    op.union = union
    return op


def solve_stage2(source: SourceSpec, b2_operator: DenseOperator,
                 mesh_B2: RegionMesh, medium: MediumParams) -> GridSolution:
    """Solve the B2 equation (mesh_B2 is the operator's mesh); the
    right-hand side is the stage-1 field.  The source's flat field is
    evaluated once on the union of the B1 and B2 cells, and its B1 part
    is the stage-1 right-hand side."""
    stage1_op = b2_operator.stage1
    union = b2_operator.union
    at = np.array([source.position], float)
    u = planar_field_column(b2_operator.green, source, union.centers,
                            total=True, average=False)[:, None]
    sol1 = solve_stage1(source, stage1_op, stage1_op.mesh, medium,
                        rhs=union.rows(u, at, 0, medium)[:, 0])
    rhs = union.rows(u, at, 1, medium)[:, 0]
    if medium.eta != 0.0:
        rhs = rhs - medium.eta * (b2_operator.cross_matrix @ sol1.values)
    values = b2_operator.solve(rhs)
    return GridSolution(mesh=mesh_B2, values=values, source=source,
                        rhs=rhs, stage1=sol1)


@dataclass(frozen=True)
class ExtensionRows:
    """Source-independent rows of the B1 and B2 volume integrals at every
    point of a set X: the B2 and the B1 cell center each point sits on
    (-1 if none), and the weighted kernel rows G(x, c^B1; flat) w1 and
    G_R(x, c^B2) w2, cell-averaged at a point on a center.  The stage-2
    extension formula reads them at the points off the meshes, the
    obstacle kernels (RoughKernel.smooth_part, radiation_matrix) at every
    point.  Rows are None when the contrast vanishes."""

    hit2: np.ndarray               # coinciding B2 center per point, -1 if none
    hit1: np.ndarray               # coinciding B1 center per point, -1 if none
    rows1: Optional[np.ndarray]    # G(x, c^B1; flat) w1
    rows2: Optional[np.ndarray]    # G_R(x, c^B2) w2


def extension_rows(X: np.ndarray, medium: MediumParams,
                   b2_operator: DenseOperator) -> ExtensionRows:
    """The rows of the volume integrals at X that every source shares;
    the one builder behind extend_stage2_many, RoughKernel.smooth_part and
    radiation_matrix."""
    X = np.asarray(X, float)
    union = b2_operator.union
    mesh1, mesh2 = union.meshes
    hit1, hit2 = union.hits(X, 0), union.hits(X, 1)
    rows1 = rows2 = None
    if medium.eta != 0.0 and len(X):
        K = planar_green_matrix(b2_operator.green, X, union.centers,
                                average=False)
        rows1 = union.columns(K, hit1, 0, medium) * mesh1.weights[None, :]
        rows2 = (union.columns(K, hit2, 1, medium)
                 - medium.eta * rows1 @ b2_operator.stage1_columns) \
            * mesh2.weights[None, :]
    return ExtensionRows(hit2=hit2, hit1=hit1, rows1=rows1, rows2=rows2)


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
    out = np.empty(len(X), dtype=complex)
    on = rows.hit2 >= 0
    out[on] = sol.values[rows.hit2[on]]
    if np.any(on) and not total:
        out[on] = _subtract_incident(out[on], X[on], sol.source, medium)
    off = ~on
    if not np.any(off):
        return out
    sol1 = sol.stage1
    volume = None
    if medium.eta != 0.0:
        volume = (rows.rows1 @ sol1.values)[off & (rows.hit1 < 0)]
    u_arc = _extend_stage1(sol1, X[off], medium, b2_operator.green, total,
                           rows.hit1[off], volume)
    if medium.eta == 0.0:
        out[off] = u_arc
        return out
    out[off] = u_arc + medium.eta * (rows.rows2 @ sol.values)[off]
    return out

