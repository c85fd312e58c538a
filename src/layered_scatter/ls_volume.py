"""The Lippmann-Schwinger volume equation on D_f.

D_f is the bounded region between the flat line x2 = 0 and the graph of
f.  The auxiliary interface min(f, 0) cuts it into B1 = {f < x2 < 0},
the cells over the dips, and B2 = {0 < x2 < f}, the cells under the
bumps (geometry.build_region_mesh).  The rough-interface field solves

    u = u_flat + eta * int_{D_f} G(., y; flat) c(y) u(y) dy,

c = -1 on B1 and +1 on B2: bumps and cavities treated apart, as in
Perez-Arancibia & Bruno, JOSA A 31 (2014).  It is solved once on U, the
cells of B1 and B2 (B1's first): the operator I - eta*K diag(c*w) has one
LU factorization, its B1 block is I + eta*K11 w1 (assemble_B1_operator),
and the field extends everywhere by the same formula.  Under a pure bump
B1 is empty; over a pure dip B2 is empty; a flat f has no cell, and the
field is the planar one.

Discretization is midpoint Nystrom on the uniform region meshes.  The
weakly singular diagonal uses log-extraction: the cell integral of the
free-space kernel splits into a closed-form integral of -(1/2pi)log r over
an equal-area square plus the midpoint value of the smooth remainder.
Every kernel column, of the operator, of a source and of the obstacle's
kernels, is the flat-interface scattered part plus one free-space term
(free_space_matrix): at a coincident point pair (r < _COINCIDENT) a
monopole takes this cell average, a dipole the principal value 0.  With
the cell average in the rows, the extension formula at a cell center
reproduces the solved value there to rounding: it holds at every point,
centers included (extension_rows, extend_stage2_many).

The flat-interface kernel depends only on the two heights and the
horizontal offset.  Every kernel matrix and source column, the grid x grid
operator assembly included, runs on one fixed xi-rule per side pair
(PlanarGreen.matrix), as matrix products.  B1 and B2 share no cell, so
each kernel block and source column is evaluated once on U (CellUnion),
cell-averaged with U's weights.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import AccuracyError, SingularityError, SolverError
from .geometry import _COINCIDENT, RegionMesh
from .layered_green import MediumParams, PlanarGreen, SourceSpec
from .specfun import EULER_GAMMA, grad_phi_matrix, phi_matrix


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
def free_space_matrix(medium: MediumParams, X: np.ndarray, Y: np.ndarray,
                      normals: Optional[np.ndarray] = None,
                      y_weights: Optional[np.ndarray] = None,
                      x_weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Free-space part of the fields of point sources at Y, at every point
    of X: Phi_kappa(x_i, y_j), or nu_j . grad Phi_kappa(x_i - y_j) for
    dipoles along normals (one unit vector per column), on same-side
    pairs and zero across, with the kappa of y's half-plane.

    At a coincident pair a monopole takes the cell average, the
    self-weight integral over the cell of y_weights (or of x_weights when
    the y points carry no cells) divided by its area; SingularityError
    with neither.  A dipole takes the principal value 0, its average over
    any cell centered there.
    """
    X = np.asarray(X, float).reshape(-1, 2)
    Y = np.asarray(Y, float).reshape(-1, 2)
    d = X[:, None, :] - Y[None, :, :]
    r = np.hypot(d[..., 0], d[..., 1])
    coin = r < _COINCIDENT
    up = Y[:, 1] > 0.0
    kappa = np.where(up, medium.kappa1, medium.kappa2)
    out = np.zeros(r.shape, dtype=complex)
    i, j = np.nonzero(((X[:, 1] > 0.0)[:, None] == up[None, :]) & ~coin)
    if len(i) and normals is None:
        out[i, j] = phi_matrix(kappa[j], r[i, j])
    elif len(i):
        grad = grad_phi_matrix(kappa[j], d[i, j], r[i, j])
        out[i, j] = grad[:, 0] * normals[j, 0] + grad[:, 1] * normals[j, 1]
    ci, cj = np.nonzero(coin)
    if len(ci) and normals is None:
        if y_weights is None and x_weights is None:
            raise SingularityError(
                "coincident kernel points need cell weights for averaging")
        w = y_weights[cj] if y_weights is not None else x_weights[ci]
        out[ci, cj] = cell_self_weight(kappa[cj], w) / w
    return out


def planar_scattered_matrix(green: PlanarGreen, X: np.ndarray,
                            Y: np.ndarray,
                            normals: Optional[np.ndarray] = None
                            ) -> np.ndarray:
    """Matrix of scattered/transmitted flat-interface values G^s(x_i, y_j),
    or of the dipoles at y_j along normals, on one fixed xi-rule per side
    pair (PlanarGreen.matrix)."""
    if normals is None:
        return green.matrix("monopole", 0, X, Y)
    return normals[:, 0] * green.matrix("dipole", 1, X, Y) \
        + normals[:, 1] * green.matrix("dipole", 2, X, Y)


def planar_green_matrix(green: PlanarGreen, X: np.ndarray, Y: np.ndarray,
                        y_weights: Optional[np.ndarray] = None,
                        x_weights: Optional[np.ndarray] = None,
                        normals: Optional[np.ndarray] = None) -> np.ndarray:
    """Matrix of total flat-interface values G(x_i, y_j), or of the fields
    of the dipoles at y_j along normals: the scattered part plus the
    free-space part, cell-averaged at coincident pairs as in
    free_space_matrix."""
    return planar_scattered_matrix(green, X, Y, normals) + free_space_matrix(
        green.medium, X, Y, normals, y_weights, x_weights)


# the unit vectors of the coordinate axes, the normals of coordinate dipoles
_AXES = np.eye(2)


def planar_field_column(green: PlanarGreen, source: SourceSpec,
                        X: np.ndarray, total: bool = True,
                        x_weights: Optional[np.ndarray] = None) -> np.ndarray:
    """Flat-interface field of a point source at each point of X.

    With total=False only the scattered/transmitted part is returned.  At
    a point of X on the source position a monopole takes the cell average
    (x_weights required), a dipole the principal value of its free-space
    part, 0 (free_space_matrix); a coordinate dipole is the dipole along
    its axis.
    """
    Y = np.array([source.position], float)
    out = green.matrix(source.kind, source.direction, X, Y)[:, 0]
    if not total:
        return out
    ell = source.direction
    normals = None if source.kind == "monopole" else _AXES[ell - 1:ell]
    return out + free_space_matrix(green.medium, X, Y, normals,
                                   x_weights=x_weights)[:, 0]


# ---------------------------------------------------------------------------
# The cells of B1 and B2
# ---------------------------------------------------------------------------
class CellUnion:
    """The cells of the B1 and B2 meshes as one point set U, B1's cells
    first, with one weight per cell (weights) and the signed weights c*w
    of the volume equation (signed; c = -1 on B1, +1 on B2).  parts[0]
    and parts[1] are the index slices of B1 and B2.  Each flat-interface
    kernel block and source column is evaluated once on U, cell-averaged
    with U's weights.
    """

    def __init__(self, mesh_B1: RegionMesh, mesh_B2: RegionMesh):
        self.centers = np.concatenate([mesh_B1.centers, mesh_B2.centers])
        self.weights = np.concatenate([mesh_B1.weights, mesh_B2.weights])
        self.signed = np.concatenate([-mesh_B1.weights, mesh_B2.weights])
        self.parts = (slice(0, mesh_B1.n), slice(mesh_B1.n, len(self.centers)))

    def kernel(self, green: PlanarGreen) -> Optional[np.ndarray]:
        """The flat kernel on U x U, cell-averaged on the diagonal; None
        when the contrast vanishes, where no operator reads it."""
        if green.medium.eta == 0.0:
            return None
        return planar_green_matrix(green, self.centers, self.centers,
                                   self.weights)


# ---------------------------------------------------------------------------
# Dense operator and grid solution
# ---------------------------------------------------------------------------
class DenseOperator:
    """Dense complex collocation matrix with a lazily computed, immutable
    LU factorization (partial pivoting).  It may have no row at all (the
    operator of an empty mesh): its solves then return empty arrays.

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
        scale = float(np.max(np.abs(rhs), initial=0.0))
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
    """Solution of the volume equation of one source, sampled at the cell
    centers of U (CellUnion)."""

    values: np.ndarray
    source: SourceSpec


# ---------------------------------------------------------------------------
# The operator on U and its solve
# ---------------------------------------------------------------------------
def assemble_B1_operator(mesh_B1: RegionMesh, medium: MediumParams,
                         green: PlanarGreen,
                         kernel: Optional[np.ndarray]) -> DenseOperator:
    """Collocation matrix of I + eta*T0 on the B1 mesh: the B1 block of
    the operator on U (assemble_B2_operator).

    kernel is the flat kernel on the B1 cells, cell-averaged on its
    diagonal, cut from the union's (CellUnion.kernel); None at zero
    contrast."""
    entries = np.eye(mesh_B1.n, dtype=complex)
    if kernel is not None:
        entries += medium.eta * kernel * mesh_B1.weights[None, :]
    op = DenseOperator(entries)
    op.green = green
    return op


def assemble_B2_operator(union: CellUnion, medium: MediumParams,
                         b1_operator: DenseOperator,
                         kernel: Optional[np.ndarray]) -> DenseOperator:
    """Collocation matrix of I - eta*K diag(c*w) on U, the cells of the
    union, c = -1 on B1 and +1 on B2.

    Its B1 block, I + eta*K11 w1, is placed from b1_operator; the rows
    and columns of B2 are filled in from kernel, union.kernel(green)
    (None at zero contrast).  The union is kept: every later kernel row
    and source column is evaluated on it.
    """
    b1, b2 = union.parts
    entries = np.eye(len(union.centers), dtype=complex)
    entries[b1, b1] = b1_operator.entries
    if kernel is not None:
        cw = union.signed
        entries[:, b2] -= medium.eta * kernel[:, b2] * cw[None, b2]
        entries[b2, b1] -= medium.eta * kernel[b2, b1] * cw[None, b1]
    op = DenseOperator(entries)
    op.green = b1_operator.green
    op.union = union
    return op


def solve_stage2(source: SourceSpec,
                 b2_operator: DenseOperator) -> GridSolution:
    """Solve the volume equation on U for one source: its flat field,
    evaluated once on U and cell-averaged at a center the source sits on,
    is the right-hand side."""
    union = b2_operator.union
    u = planar_field_column(b2_operator.green, source, union.centers,
                            total=True, x_weights=union.weights)
    return GridSolution(values=b2_operator.solve(u), source=source)


def extension_rows(X: np.ndarray, medium: MediumParams,
                   b2_operator: DenseOperator) -> Optional[np.ndarray]:
    """The weighted rows G(x, U; flat) c w of the volume integral at every
    point of X, cell-averaged at a point on a center, that every source
    shares: the one builder behind extend_stage2_many,
    RoughKernel.smooth_part and radiation_matrix.  None when the contrast
    vanishes, where no integral reads them."""
    if medium.eta == 0.0:
        return None
    union = b2_operator.union
    return planar_green_matrix(b2_operator.green, X, union.centers,
                               union.weights) * union.signed[None, :]


def extend_stage2_many(sol: GridSolution, X: np.ndarray,
                       medium: MediumParams,
                       b2_operator: DenseOperator,
                       rows: Optional[np.ndarray],
                       total: bool = True) -> np.ndarray:
    """Rough-interface field at each point of X, by the extension formula
    u_flat + eta * int_{D_f} G(., y; flat) c u dy, with rows from
    extension_rows at the same X.

    The formula holds at every point: at a cell center of U it is the
    equation itself and returns the solved value there.  total=False
    removes the free-space incident wave (same side only), yielding the
    scattered/transmitted part directly.
    """
    out = planar_field_column(b2_operator.green, sol.source, X, total=total)
    if rows is not None:
        out += medium.eta * (rows @ sol.values)
    return out
