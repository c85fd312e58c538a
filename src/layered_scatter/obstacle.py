"""Embedded-obstacle solvers on top of the rough-interface Green's function.

Impenetrable obstacles use a combined double/single-layer ansatz
w(x) = int_dD (dG/dnu(y) - i G(x,y)) psi(y) ds(y) leading to the
second-kind system (I + K - iS) psi = -2*U on the boundary for the
sound-soft case, and a single-layer ansatz with the adjoint double-layer
operator for Neumann/impedance conditions.

The kernel splits as G(x,y;rough) = Phi_k2(x,y) + smooth remainder: the
free-space part is discretized with the spectrally accurate log-singular
trigonometric rule on 2M equispaced parameter nodes, the remainder (a
composition of the nested volume solves, smooth near D) with the periodic
trapezoid rule.  Normal derivatives of the remainder come from central
finite differences of shifted nested solves.

Penetrable obstacles use one more Lippmann-Schwinger equation, this time
over a mesh of D with contrast m = 1 - n and kernel G(.,.;rough); like the
boundary operators, its operator depends on the scene alone.  Either
solution radiates as a source-independent matrix times its weights.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import AccuracyError, ConfigurationError
from .geometry import ObstacleNodes, RegionMesh
from .layered_green import MediumParams
from .ls_volume import (
    DenseOperator,
    ExtensionRows,
    cell_self_weight,
    extension_rows,
    planar_green_matrix,
    planar_scattered_matrix,
)
from .specfun import bessel_j0j1_y0y1_arrays, phi_matrix, EULER_GAMMA

_FD_STEP_FACTOR = 1e-4  # times diam(D), for smooth-remainder normal derivatives
_KRESS_BLOCK = 1 << 18  # cosine-tensor entries per kress_log_weights block


# ---------------------------------------------------------------------------
# Rough-interface kernel columns
# ---------------------------------------------------------------------------
class RoughKernel:
    """Evaluator for G(x, y; rough) with a fixed set of source points y.

    One stage-1 and one stage-2 column solve per source, all sharing the
    two LU factorizations held by the B2 operator.  The flat-kernel rows
    and columns are evaluated once on the union of the B1 and B2 cells
    (the operator's CellUnion) and gathered for each mesh.  At evaluation
    points X the kernel reads the weighted volume rows of extension_rows,
    which every kernel on the same operator shares.
    """

    def __init__(self, b2_operator, medium: MediumParams, sources: np.ndarray):
        self.b2 = b2_operator
        self.medium = medium
        self.sources = np.asarray(sources, float)
        if medium.eta == 0.0:
            self.g = None
            self.q = None
        else:
            union = b2_operator.union
            # sources may land exactly on mesh centers; average over the
            # coinciding cell (the sources themselves carry no cells)
            K = planar_green_matrix(b2_operator.green, union.centers,
                                    self.sources, average=False)
            self.g = b2_operator.stage1.solve(
                union.rows(K, self.sources, 0, medium))
            rhs2 = union.rows(K, self.sources, 1, medium) \
                - medium.eta * (b2_operator.cross_matrix @ self.g)
            self.q = b2_operator.solve(rhs2)

    def smooth_part(self, X: np.ndarray,
                    rows: Optional[ExtensionRows] = None) -> np.ndarray:
        """G(x_i, y_j; rough) less the free-space part full adds: finite on
        the diagonal.

        Meaningful when evaluation points share the lower medium with the
        sources, so the subtracted free-space part is the local singularity.
        rows, from extension_rows at the same X, skips rebuilding them.
        """
        X = np.asarray(X, float)
        out = planar_scattered_matrix(self.b2.green, X, self.sources)
        if self.medium.eta == 0.0:
            return out
        if rows is None:
            rows = extension_rows(X, self.medium, self.b2)
        return out - self.medium.eta * rows.rows1 @ self.g \
            + self.medium.eta * rows.rows2 @ self.q

    def full(self, X: np.ndarray, y_weights: Optional[np.ndarray] = None,
             rows=None) -> np.ndarray:
        """G(x_i, y_j; rough) including the free-space part on same-side
        pairs, at the wavenumber of the sources' half-plane.

        Coincident pairs are cell-averaged when y_weights is given; rows as
        in smooth_part.
        """
        X = np.asarray(X, float)
        out = self.smooth_part(X, rows)
        dx = X[:, 0][:, None] - self.sources[None, :, 0]
        dy = X[:, 1][:, None] - self.sources[None, :, 1]
        r = np.hypot(dx, dy)
        same = (X[:, 1] > 0.0)[:, None] == (self.sources[:, 1] > 0.0)[None, :]
        coin = r < 1e-12
        kappa = np.where(self.sources[:, 1] > 0.0, self.medium.kappa1,
                         self.medium.kappa2)
        m = same & ~coin
        if np.any(m):
            out[m] += phi_matrix(np.broadcast_to(kappa, r.shape)[m], r[m])
        ci, cj = np.nonzero(coin)
        for i, j in zip(ci, cj):
            if y_weights is None:
                raise AccuracyError("kernel evaluated at a source point")
            out[i, j] += cell_self_weight(kappa[j], y_weights[j]) / y_weights[j]
        return out


def green_rough_columns(points: np.ndarray, b2_operator: DenseOperator,
                        medium: MediumParams,
                        sources: np.ndarray) -> np.ndarray:
    """Matrix of rough-interface Green's values G(x_i, y_j; rough) for
    evaluation points x_i and monopole source positions y_j: one stage-1
    and one stage-2 column solve per source (RoughKernel.full).  Sources
    must stay off the evaluation points."""
    return RoughKernel(b2_operator, medium, sources).full(points)


# ---------------------------------------------------------------------------
# Log-singular trigonometric quadrature
# ---------------------------------------------------------------------------
def kress_log_weights(t: np.ndarray, nodes_t: np.ndarray) -> np.ndarray:
    """Quadrature weights for int_0^2pi ln(4 sin^2((t-tau)/2)) f(tau) dtau
    on 2M equispaced nodes, exact for trigonometric polynomials.

    Rows correspond to evaluation parameters t (which need not be nodes).
    A weight depends on t - tau only, so at the nodes themselves the matrix
    is the circulant of its first row; other rows are summed in blocks
    that bound the (rows, 2M, M - 1) cosine tensor to _KRESS_BLOCK
    entries.
    """
    t = np.asarray(t, float)
    n = len(nodes_t)
    M = n // 2
    m = np.arange(1, M)

    def rows(tb):
        s = tb[:, None] - nodes_t[None, :]
        out = -(2.0 * np.pi / M) * np.tensordot(
            np.cos(np.multiply.outer(s, m)), 1.0 / m, axes=([2], [0]))
        out -= (np.pi / M ** 2) * np.cos(M * s)
        return out

    if np.array_equal(t, nodes_t):
        # R[i, j] = f(t_i - t_j) = f(t_0 - t_{j-i}) on equispaced nodes
        first = rows(t[:1])[0]
        k = np.arange(n)
        return first[(k[None, :] - k[:, None]) % n]
    out = np.empty((len(t), n))
    step = max(1, _KRESS_BLOCK // (n * max(1, M - 1)))
    for i in range(0, len(t), step):
        out[i:i + step] = rows(t[i:i + step])
    return out


def _phi_layer_blocks(nodes: ObstacleNodes, kappa: float, t: np.ndarray,
                      adjoint: bool = False):
    """Split single/double-layer free-space kernels at parameters t.

    Returns (M1, M2, L1, L2): the log-factor and smooth parts of the
    single-layer kernel 2*Phi*|x'| and the double-layer kernel
    2*dPhi/dnu(y)*|x'| (or its adjoint with the normal at x).
    """
    xt = nodes.curve.point(t)
    y = nodes.positions
    dx = xt[:, None, :] - y[None, :, :]
    r = np.hypot(dx[..., 0], dx[..., 1])
    diag = r < 1e-14
    r_safe = np.where(diag, 1.0, r)
    j0, j1, y0, y1 = bessel_j0j1_y0y1_arrays(kappa * r_safe)
    jac = nodes.jacobians

    M1 = -(1.0 / (2.0 * np.pi)) * j0 * jac[None, :]
    h0 = j0 + 1j * y0
    log_term = np.log(4.0 * np.sin(0.5 * (t[:, None] - nodes.t[None, :]))
                      ** 2 + np.where(diag, 1.0, 0.0))
    M2 = 0.5j * h0 * jac[None, :] - M1 * log_term

    if adjoint:
        nu = nodes.curve.dpoint(t)
        nu = np.stack([nu[..., 1], -nu[..., 0]], axis=-1)
        nu /= np.hypot(nu[..., 0], nu[..., 1])[..., None]
        dot = np.einsum("ijk,ik->ij", dx, nu)
        sign = -1.0
    else:
        dot = np.einsum("ijk,jk->ij", dx, nodes.normals)
        sign = 1.0
    h1 = j1 + 1j * y1
    L1 = sign * -(kappa / (2.0 * np.pi)) * j1 * dot / r_safe * jac[None, :]
    Lfull = sign * 0.5j * kappa * h1 * dot / r_safe * jac[None, :]
    L2 = Lfull - L1 * log_term

    if np.any(diag):
        di, dj = np.nonzero(diag)
        tj = nodes.t[dj]
        xp = nodes.tangents[dj]
        xpp = nodes.second[dj]
        M1[di, dj] = -(1.0 / (2.0 * np.pi)) * jac[dj]
        M2[di, dj] = (0.5j - EULER_GAMMA / np.pi
                      - np.log(0.5 * kappa * jac[dj]) / np.pi) * jac[dj]
        L1[di, dj] = 0.0
        # K and its adjoint share the curvature diagonal
        L2[di, dj] = (xpp[:, 0] * xp[:, 1] - xpp[:, 1] * xp[:, 0]) \
            / (2.0 * np.pi * jac[dj] ** 2)
    return M1, M2, L1, L2


def layer_matrices(nodes: ObstacleNodes, kappa: float,
                   t: Optional[np.ndarray] = None, adjoint: bool = False):
    """Discrete free-space single- and double-layer operators (S, K).

    Rows are evaluation parameters (the nodes by default), columns the 2M
    quadrature nodes; S approximates 2*int Phi psi ds and K approximates
    2*int dPhi/dnu(y) psi ds (adjoint=True swaps the normal to x).
    """
    if t is None:
        t = nodes.t
    M = nodes.n // 2
    R = kress_log_weights(t, nodes.t)
    M1, M2, L1, L2 = _phi_layer_blocks(nodes, kappa, t, adjoint=adjoint)
    S = R * M1 + (np.pi / M) * M2
    K = R * L1 + (np.pi / M) * L2
    return S, K


# ---------------------------------------------------------------------------
# Impenetrable obstacle
# ---------------------------------------------------------------------------
@dataclass
class BoundaryDensity:
    """Solved boundary density with everything needed to radiate it."""

    nodes: ObstacleNodes
    psi: np.ndarray
    operator: DenseOperator
    ansatz: str                      # "combined" or "single"
    impedance: Optional[np.ndarray] = None


def _remainder_blocks(nodes: ObstacleNodes, kernel_ctx,
                      rows: Optional[ExtensionRows] = None):
    """Smooth-remainder values and normal-derivative values at node pairs.

    kernel_ctx holds three RoughKernel column sets: at the nodes and at the
    nodes shifted by +/- delta along the outward normals.  rows, from
    extension_rows at the nodes, skips rebuilding them.
    """
    center, plus, minus, delta = kernel_ctx
    X = nodes.positions
    if rows is None:
        rows = extension_rows(X, center.medium, center.b2)
    rho = center.smooth_part(X, rows)
    drho = (plus.smooth_part(X, rows) - minus.smooth_part(X, rows)) \
        / (2.0 * delta)
    return rho, drho


def build_rough_kernel_context(nodes: ObstacleNodes, b2_operator,
                               medium: MediumParams):
    """Column solves for sources on the boundary and its normal shifts."""
    delta = _FD_STEP_FACTOR * nodes.curve.diameter()
    P = nodes.positions
    nu = nodes.normals
    center = RoughKernel(b2_operator, medium, P)
    plus = RoughKernel(b2_operator, medium, P + delta * nu)
    minus = RoughKernel(b2_operator, medium, P - delta * nu)
    return (center, plus, minus, delta)


def assemble_bie(nodes: ObstacleNodes, medium: MediumParams, b2_operator,
                 kernel_ctx=None,
                 rows: Optional[ExtensionRows] = None) -> DenseOperator:
    """Collocation matrix of I + K - iS for the sound-soft condition.

    The free-space parts of S and K use the log-singular rule; the smooth
    remainder of the rough-interface kernel enters through the periodic
    trapezoid rule, with finite-difference normal derivatives for K.  rows,
    from extension_rows at the nodes, skips rebuilding them.
    """
    if np.any(nodes.positions[:, 1] >= 0.0):
        raise ConfigurationError("obstacle boundary must lie in the lower "
                                 "half-plane")
    if kernel_ctx is None:
        kernel_ctx = build_rough_kernel_context(nodes, b2_operator, medium)
    S, K = layer_matrices(nodes, medium.kappa2)
    rho, drho = _remainder_blocks(nodes, kernel_ctx, rows)
    M = nodes.n // 2
    trap = (np.pi / M) * nodes.jacobians[None, :]
    # dG/dnu(y) differentiates in the source point: the FD shift moved y
    S = S + 2.0 * rho * trap
    K = K + 2.0 * drho * trap
    op = DenseOperator(np.eye(nodes.n, dtype=complex) + K - 1j * S)
    op.nodes = nodes
    op.kernel_ctx = kernel_ctx
    op.medium = medium
    op.b2 = b2_operator
    op.ansatz = "combined"
    return op


def solve_density(operator: DenseOperator,
                  incident: np.ndarray) -> BoundaryDensity:
    """Solve (I + K - iS) psi = -2 * incident for the sound-soft density."""
    psi = operator.solve(-2.0 * np.asarray(incident, complex))
    return BoundaryDensity(nodes=operator.nodes, psi=psi, operator=operator,
                           ansatz="combined")


def assemble_neumann_impedance(nodes: ObstacleNodes, medium: MediumParams,
                               b2_operator,
                               lam: Union[float, np.ndarray] = 0.0,
                               kernel_ctx=None, rows=None) -> DenseOperator:
    """Collocation matrix of I - K' - i*lam*S for the single-layer ansatz.

    lam = 0 is the Neumann condition; lam > 0 the impedance condition.  The
    matrix depends on the scene and lam only, so one factorization serves
    every source.  rows, from extension_rows at the nodes and at their
    shifts by +delta and -delta along the normals (in that order), skips
    rebuilding them.
    """
    lam = np.broadcast_to(np.asarray(lam, float), (nodes.n,))
    if np.any(lam < 0.0):
        raise ConfigurationError("impedance must be nonnegative")
    if kernel_ctx is None:
        kernel_ctx = build_rough_kernel_context(nodes, b2_operator, medium)
    S, Kp = layer_matrices(nodes, medium.kappa2, adjoint=True)
    # adjoint double layer differentiates in the evaluation point: shift x
    center, plus, minus, delta = kernel_ctx
    P = nodes.positions
    nu = nodes.normals
    shifted = (P, P + delta * nu, P - delta * nu)
    if rows is None:
        rows = [extension_rows(X, medium, b2_operator) for X in shifted]
    rho, rho_plus, rho_minus = (center.smooth_part(X, r)
                                for X, r in zip(shifted, rows))
    drho_x = (rho_plus - rho_minus) / (2.0 * delta)
    M = nodes.n // 2
    trap = (np.pi / M) * nodes.jacobians[None, :]
    S = S + 2.0 * rho * trap
    Kp = Kp + 2.0 * drho_x * trap
    op = DenseOperator(np.eye(nodes.n, dtype=complex) - Kp
                       - 1j * lam[:, None] * S)
    op.nodes = nodes
    op.kernel_ctx = kernel_ctx
    op.medium = medium
    op.b2 = b2_operator
    op.ansatz = "single"
    op.impedance = lam
    return op


def neumann_impedance_solve(nodes: ObstacleNodes,
                            medium: MediumParams, b2_operator,
                            incident: np.ndarray,
                            incident_normal: np.ndarray,
                            lam: Union[float, np.ndarray] = 0.0,
                            kernel_ctx=None,
                            operator: Optional[DenseOperator] = None
                            ) -> BoundaryDensity:
    """Single-layer solve of (I - K' - i*lam*S) psi = 2(dU/dnu + i*lam*U).

    lam = 0 is the Neumann condition; lam > 0 the impedance condition.
    operator is the matrix from assemble_neumann_impedance for the same
    nodes and lam; without it the matrix is assembled and factorized for
    this call only.  Either way the density is bit-for-bit the same.
    """
    lam = np.broadcast_to(np.asarray(lam, float), (nodes.n,))
    if np.any(lam < 0.0):
        raise ConfigurationError("impedance must be nonnegative")
    if operator is None:
        operator = assemble_neumann_impedance(nodes, medium, b2_operator,
                                              lam, kernel_ctx)
    elif not np.array_equal(operator.impedance, lam):
        raise ConfigurationError("operator was assembled for another "
                                 "impedance")
    rhs = 2.0 * (np.asarray(incident_normal, complex)
                 + 1j * lam * np.asarray(incident, complex))
    psi = operator.solve(rhs)
    return BoundaryDensity(nodes=nodes, psi=psi, operator=operator,
                           ansatz="single", impedance=lam)


def radiation_matrix(kernel_ctx, ansatz: str, X: np.ndarray,
                     rows: Optional[ExtensionRows] = None) -> np.ndarray:
    """Matrix taking the density's quadrature weights to its field at X.

    Combined ansatz: dG/dnu(y) - iG; single-layer ansatz: G.  It depends
    on the kernel columns and X only, not on the density.  rows, from
    extension_rows at the same X, skips rebuilding them.
    """
    center, plus, minus, delta = kernel_ctx
    if rows is None:
        rows = extension_rows(X, center.medium, center.b2)
    G = center.full(X, rows=rows)
    if ansatz == "single":
        return G
    dG = (plus.full(X, rows=rows) - minus.full(X, rows=rows)) / (2.0 * delta)
    return dG - 1j * G


def scattered_from_density(density: Union[BoundaryDensity, VolumeDensity],
                           X: np.ndarray,
                           radiation: Optional[np.ndarray] = None
                           ) -> np.ndarray:
    """Radiated field of a boundary density at points X away from dD, or
    of a penetrable obstacle's VolumeDensity.

    Combined ansatz: w = int (dG/dnu(y) - iG) psi ds; single-layer ansatz:
    w = int G psi ds; penetrable: w = -k2^2 int_D G m u dy.  radiation, from
    (penetrable_)radiation_matrix at the same X and with the density's
    kernel columns, skips rebuilding that source-independent matrix;
    without it the matrix is built for this call only.  Points closer to
    dD than the node spacing trigger an accuracy warning (the trapezoid
    rule degrades there).
    """
    X = np.atleast_2d(np.asarray(X, float))
    if isinstance(density, VolumeDensity):
        if radiation is None:
            radiation = penetrable_radiation_matrix(density.operator, X, None)
        pen = density.operator.pen
        return radiation @ (pen.m_values * pen.mesh.weights * density.values)
    nodes = density.nodes
    d = np.hypot(X[:, 0][:, None] - nodes.positions[None, :, 0],
                 X[:, 1][:, None] - nodes.positions[None, :, 1])
    if np.min(d) < nodes.spacing:
        warnings.warn("evaluation point within one node spacing of the "
                      "obstacle boundary; quadrature accuracy degrades",
                      stacklevel=2)
    if radiation is None:
        radiation = radiation_matrix(density.operator.kernel_ctx,
                                     density.ansatz, X)
    M = nodes.n // 2
    wts = (np.pi / M) * nodes.jacobians * density.psi
    return radiation @ wts


# ---------------------------------------------------------------------------
# Penetrable obstacle
# ---------------------------------------------------------------------------
@dataclass
class PenetrableMedium:
    """Refractive-index profile supported on the obstacle mesh."""

    mesh: RegionMesh
    n: Union[complex, np.ndarray]

    def __post_init__(self):
        n = np.broadcast_to(np.asarray(self.n, complex), (self.mesh.n,))
        if np.any(n.real <= 0.0) or np.any(n.imag < 0.0):
            raise ConfigurationError("need Re(n) > 0 and Im(n) >= 0")
        object.__setattr__(self, "n_values", n)

    @property
    def m_values(self) -> np.ndarray:
        return 1.0 - self.n_values


@dataclass
class VolumeDensity:
    """Solved total field u of a penetrable obstacle at the cells of D."""

    operator: DenseOperator          # from assemble_penetrable
    values: np.ndarray


def assemble_penetrable(pen: PenetrableMedium, medium: MediumParams,
                        b2_operator, rows: ExtensionRows) -> DenseOperator:
    """Collocation matrix of u + k2^2 int_D G(x,y;rough) m(y) u(y) dy on
    the cells of D, with the kernel columns at the cell centers; rows are
    the volume rows there (extension_rows).

    The kernel's local singularity on D is the free-space k2 kernel, so the
    diagonal uses the same log-extracted cell average as the volume stages.
    """
    mesh = pen.mesh
    kernel = RoughKernel(b2_operator, medium, mesh.centers)
    G = kernel.full(mesh.centers, y_weights=mesh.weights, rows=rows)
    kap2 = medium.kappa2 ** 2
    op = DenseOperator(np.eye(mesh.n, dtype=complex)
                       + kap2 * G * (pen.m_values * mesh.weights)[None, :])
    op.pen = pen
    op.kernel = kernel
    return op


def penetrable_radiation_matrix(operator: DenseOperator, X: np.ndarray,
                                rows: Optional[ExtensionRows]) -> np.ndarray:
    """-k2^2 G(x_i, c_j; rough), at the cell centers c_j of the operator
    from assemble_penetrable; rows (extension_rows at X, or None) as in
    radiation_matrix."""
    kernel = operator.kernel
    G = kernel.full(X, y_weights=operator.pen.mesh.weights, rows=rows)
    return (-kernel.medium.kappa2 ** 2) * G
