"""Embedded-obstacle solvers on top of the rough-interface Green's function.

An impenetrable obstacle radiates w(x) = int_dD (dG/dnu(y) + c G(x,y))
phi(y) ds(y), and the boundary limit of w gives one second-kind system
(I + s(K + cS)) phi = -2s U on the boundary for all three conditions:

- sound-soft: the combined ansatz, c = -i and s = 1, so
  (I + K - iS) psi = -2U for a density psi;
- Neumann (lam = 0) and impedance (lam > 0): Green's representation of
  the total field (the direct method), c = i lam and s = -1, so
  (I - K - i lam S) u = 2U for the boundary total field u itself.

The kernel splits as G(x,y;rough) = Phi_k2(x,y) + smooth remainder: the
free-space part is discretized with the spectrally accurate log-singular
trigonometric rule on 2M equispaced parameter nodes, the remainder (the
flat-interface kernel's scattered part and the volume integrals over the
dip and bump cells of D_f, smooth near D) with the periodic trapezoid
rule.  The normal derivative dG/dnu(y) is exact: it is minus the
field of a dipole at y along nu, whose columns the one volume operator
on those cells solves like the monopole ones.  Both column sets, and
their values at evaluation points, take the flat-interface kernel and
its free-space part from ls_volume (planar_green_matrix,
planar_scattered_matrix, free_space_matrix), as the volume equation's
own columns do.

Penetrable obstacles use one more Lippmann-Schwinger equation, this time
over a mesh of D with contrast m = 1 - n and kernel G(.,.;rough); like the
boundary operators, its operator depends on the scene alone.  Either
solution radiates as a source-independent matrix times its weights.
Every kernel evaluation takes the volume rows at its points that the
caller holds (ls_volume.extension_rows), None only at zero contrast.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigurationError
from .geometry import ObstacleNodes, RegionMesh
from .layered_green import MediumParams
from .ls_volume import (
    DenseOperator,
    extension_rows,
    free_space_matrix,
    planar_green_matrix,
    planar_scattered_matrix,
)
from .specfun import EULER_GAMMA, bessel_j0j1_y0y1_arrays


# ---------------------------------------------------------------------------
# Rough-interface kernel columns
# ---------------------------------------------------------------------------
class RoughKernel:
    """Evaluator for G(x, y; rough) with a fixed set of source points y,
    or, given unit normals at them, for the fields of the dipoles at y
    along those normals: -dG/dnu(y), since a dipole's field is the
    derivative of Phi in the evaluation point (SourceSpec).

    One column solve per source, q = A^-1 K(U, y), on the one LU
    factorization of the operator A on U (assemble_B2_operator); the
    flat-kernel columns K(U, y) are one planar_green_matrix call on U,
    the operator's CellUnion.  At evaluation points X the kernel adds
    eta * rows q, with the weighted volume rows of extension_rows at X,
    which every kernel on the same operator shares (None at zero
    contrast).
    """

    def __init__(self, b2_operator, medium: MediumParams, sources: np.ndarray,
                 normals: Optional[np.ndarray] = None):
        self.b2 = b2_operator
        self.medium = medium
        self.sources = np.asarray(sources, float)
        self.normals = None if normals is None else np.asarray(normals, float)
        if medium.eta == 0.0:
            self.q = None
            return
        # a monopole on a cell center takes the average over the coinciding
        # cell (the sources carry no cells), a dipole the principal value 0
        union = b2_operator.union
        self.q = b2_operator.solve(planar_green_matrix(
            b2_operator.green, union.centers, self.sources,
            x_weights=union.weights, normals=self.normals))

    def smooth_part(self, X: np.ndarray,
                    rows: Optional[np.ndarray]) -> np.ndarray:
        """The kernel at (x_i, y_j) less the free-space part full adds:
        finite on the diagonal.

        Meaningful when evaluation points share the lower medium with the
        sources, so the subtracted free-space part is the local singularity.
        rows are extension_rows at the same X.
        """
        out = planar_scattered_matrix(self.b2.green, X, self.sources,
                                      self.normals)
        if rows is None:
            return out
        return out + self.medium.eta * rows @ self.q

    def full(self, X: np.ndarray, rows: Optional[np.ndarray],
             y_weights: Optional[np.ndarray] = None) -> np.ndarray:
        """The kernel at (x_i, y_j) including the free-space part on
        same-side pairs, coincident pairs as in free_space_matrix over
        y_weights; rows as in smooth_part."""
        return self.smooth_part(X, rows) + free_space_matrix(
            self.medium, X, self.sources, self.normals, y_weights)


def green_rough_columns(points: np.ndarray, b2_operator: DenseOperator,
                        medium: MediumParams,
                        sources: np.ndarray) -> np.ndarray:
    """Matrix of rough-interface Green's values G(x_i, y_j; rough) for
    evaluation points x_i and monopole source positions y_j: one column
    solve per source on the operator of U (RoughKernel.full).  Sources
    must stay off the evaluation points."""
    return RoughKernel(b2_operator, medium, sources).full(
        points, extension_rows(points, medium, b2_operator))


# ---------------------------------------------------------------------------
# Log-singular trigonometric quadrature
# ---------------------------------------------------------------------------
def kress_log_weights(nodes_t: np.ndarray) -> np.ndarray:
    """Quadrature weights for int_0^2pi ln(4 sin^2((t-tau)/2)) f(tau) dtau
    on 2M equispaced nodes, exact for trigonometric polynomials, with the
    nodes as the evaluation parameters t.

    A weight depends on t - tau only, so the matrix is the circulant of
    its first row.
    """
    n = len(nodes_t)
    M = n // 2
    m = np.arange(1, M)
    s = nodes_t[0] - nodes_t
    first = -(2.0 * np.pi / M) * (np.cos(np.multiply.outer(s, m)) @ (1.0 / m))
    first -= (np.pi / M ** 2) * np.cos(M * s)
    # R[i, j] = f(t_i - t_j) = f(t_0 - t_{j-i}) on equispaced nodes
    k = np.arange(n)
    return first[(k[None, :] - k[:, None]) % n]


def _phi_layer_blocks(nodes: ObstacleNodes, kappa: float):
    """Split single/double-layer free-space kernels at the nodes.

    Returns (M1, M2, L1, L2): the log-factor and smooth parts of the
    single-layer kernel 2*Phi*|x'| and the double-layer kernel
    2*dPhi/dnu(y)*|x'|.
    """
    t = nodes.t
    y = nodes.positions
    dx = y[:, None, :] - y[None, :, :]
    r = np.hypot(dx[..., 0], dx[..., 1])
    diag = r < 1e-14
    r_safe = np.where(diag, 1.0, r)
    j0, j1, y0, y1 = bessel_j0j1_y0y1_arrays(kappa * r_safe)
    jac = nodes.jacobians

    M1 = -(1.0 / (2.0 * np.pi)) * j0 * jac[None, :]
    h0 = j0 + 1j * y0
    log_term = np.log(4.0 * np.sin(0.5 * (t[:, None] - t[None, :]))
                      ** 2 + np.where(diag, 1.0, 0.0))
    M2 = 0.5j * h0 * jac[None, :] - M1 * log_term

    dot = np.einsum("ijk,jk->ij", dx, nodes.normals)
    h1 = j1 + 1j * y1
    L1 = -(kappa / (2.0 * np.pi)) * j1 * dot / r_safe * jac[None, :]
    Lfull = 0.5j * kappa * h1 * dot / r_safe * jac[None, :]
    L2 = Lfull - L1 * log_term

    di, dj = np.nonzero(diag)
    xp = nodes.tangents[dj]
    xpp = nodes.second[dj]
    M1[di, dj] = -(1.0 / (2.0 * np.pi)) * jac[dj]
    M2[di, dj] = (0.5j - EULER_GAMMA / np.pi
                  - np.log(0.5 * kappa * jac[dj]) / np.pi) * jac[dj]
    L1[di, dj] = 0.0
    L2[di, dj] = (xpp[:, 0] * xp[:, 1] - xpp[:, 1] * xp[:, 0]) \
        / (2.0 * np.pi * jac[dj] ** 2)
    return M1, M2, L1, L2


def layer_matrices(nodes: ObstacleNodes, kappa: float):
    """Discrete free-space single- and double-layer operators (S, K).

    Rows are the nodes as evaluation points, columns the 2M quadrature
    nodes; S approximates 2*int Phi psi ds and K approximates
    2*int dPhi/dnu(y) psi ds.
    """
    M = nodes.n // 2
    R = kress_log_weights(nodes.t)
    M1, M2, L1, L2 = _phi_layer_blocks(nodes, kappa)
    S = R * M1 + (np.pi / M) * M2
    K = R * L1 + (np.pi / M) * L2
    return S, K


# ---------------------------------------------------------------------------
# Impenetrable obstacle
# ---------------------------------------------------------------------------
@dataclass
class BoundaryDensity:
    """Solved boundary density with everything needed to radiate it: the
    density psi (sound-soft) or the boundary total field u (Neumann,
    impedance), and the operator of assemble_bie it solved."""

    nodes: ObstacleNodes
    psi: np.ndarray
    operator: DenseOperator


def build_rough_kernel_context(nodes: ObstacleNodes, b2_operator,
                               medium: MediumParams):
    """Column solves for monopole and for normal-dipole sources at the
    boundary nodes: (center, dnu), with dG/dnu(y) = -dnu."""
    P = nodes.positions
    center = RoughKernel(b2_operator, medium, P)
    dnu = RoughKernel(b2_operator, medium, P, nodes.normals)
    return (center, dnu)


def assemble_bie(nodes: ObstacleNodes, medium: MediumParams, kernel_ctx,
                 rows: Optional[np.ndarray],
                 lam: Union[None, float, np.ndarray] = None
                 ) -> DenseOperator:
    """Collocation matrix of I + s(K + cS) for an impenetrable obstacle:
    I + K - iS for the sound-soft condition (lam None), I - K - i lam S
    for the Neumann (lam = 0) and impedance (lam > 0) conditions.

    The free-space parts of S and K use the log-singular rule; the smooth
    remainder of the rough-interface kernel and of its normal derivative
    enters through the periodic trapezoid rule.  The matrix depends on the
    scene and lam only, so one factorization serves every source.
    kernel_ctx is build_rough_kernel_context at the nodes, rows are
    extension_rows there.
    """
    if np.any(nodes.positions[:, 1] >= 0.0):
        raise ConfigurationError("obstacle boundary must lie in the lower "
                                 "half-plane")
    if lam is None:
        sign, coupling = 1.0, np.full(nodes.n, -1j)
    else:
        lam = np.broadcast_to(np.asarray(lam, float), (nodes.n,))
        if np.any(lam < 0.0):
            raise ConfigurationError("impedance must be nonnegative")
        sign, coupling = -1.0, 1j * lam
    center, dnu = kernel_ctx
    X = nodes.positions
    S, K = layer_matrices(nodes, medium.kappa2)
    M = nodes.n // 2
    trap = (np.pi / M) * nodes.jacobians[None, :]
    S = S + 2.0 * center.smooth_part(X, rows) * trap
    K = K - 2.0 * dnu.smooth_part(X, rows) * trap
    op = DenseOperator(np.eye(nodes.n, dtype=complex)
                       + sign * (K + coupling[None, :] * S))
    op.nodes = nodes
    op.kernel_ctx = kernel_ctx
    op.sign = sign
    op.coupling = coupling
    op.impedance = lam
    return op


def solve_density(operator: DenseOperator,
                  incident: np.ndarray) -> BoundaryDensity:
    """Solve the boundary equation of assemble_bie, (I + s(K + cS)) phi =
    -2s * incident."""
    phi = operator.solve(-2.0 * operator.sign * np.asarray(incident, complex))
    return BoundaryDensity(nodes=operator.nodes, psi=phi, operator=operator)


def neumann_impedance_solve(operator: DenseOperator, incident: np.ndarray,
                            lam: Union[float, np.ndarray]
                            ) -> BoundaryDensity:
    """Boundary total field u from (I - K - i*lam*S) u = 2U, on the
    operator of assemble_bie for the same lam.

    lam = 0 is the Neumann condition; lam > 0 the impedance condition.
    """
    lam = np.broadcast_to(np.asarray(lam, float), (operator.nodes.n,))
    if not np.array_equal(operator.impedance, lam):
        raise ConfigurationError("operator was assembled for another "
                                 "impedance")
    return solve_density(operator, incident)


def radiation_matrix(operator: DenseOperator, X: np.ndarray,
                     rows: Optional[np.ndarray]) -> np.ndarray:
    """Matrix taking the quadrature weights of a solution of the operator
    from assemble_bie to its field at X: dG/dnu(y) + cG, with c = -i
    (sound-soft) or i lam (Neumann, impedance).

    It depends on the kernel columns and X only, not on the density.
    rows are extension_rows at X.
    """
    center, dnu = operator.kernel_ctx
    return operator.coupling[None, :] * center.full(X, rows) \
        - dnu.full(X, rows)


def scattered_from_density(density: Union[BoundaryDensity, VolumeDensity],
                           X: np.ndarray, radiation: np.ndarray
                           ) -> np.ndarray:
    """Radiated field of a boundary density at points X away from dD, or
    of a penetrable obstacle's VolumeDensity.

    Impenetrable: w = int (dG/dnu(y) + cG) phi ds (see assemble_bie);
    penetrable: w = -k2^2 int_D G m u dy.  radiation is the
    source-independent (penetrable_)radiation_matrix at the same X, with
    the density's kernel columns.  Points closer to dD than the node
    spacing trigger an accuracy warning (the trapezoid rule degrades
    there).
    """
    X = np.atleast_2d(np.asarray(X, float))
    if isinstance(density, VolumeDensity):
        pen = density.operator.pen
        return radiation @ (pen.m_values * pen.mesh.weights * density.values)
    nodes = density.nodes
    d = np.hypot(X[:, 0][:, None] - nodes.positions[None, :, 0],
                 X[:, 1][:, None] - nodes.positions[None, :, 1])
    if np.min(d) < nodes.spacing:
        warnings.warn("evaluation point within one node spacing of the "
                      "obstacle boundary; quadrature accuracy degrades",
                      stacklevel=2)
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
                        b2_operator, rows: Optional[np.ndarray]
                        ) -> DenseOperator:
    """Collocation matrix of u + k2^2 int_D G(x,y;rough) m(y) u(y) dy on
    the cells of D, with the kernel columns at the cell centers; rows are
    the volume rows there (extension_rows).

    The kernel's local singularity on D is the free-space k2 kernel, so the
    diagonal uses the same log-extracted cell average as the volume equation.
    """
    mesh = pen.mesh
    kernel = RoughKernel(b2_operator, medium, mesh.centers)
    G = kernel.full(mesh.centers, rows, y_weights=mesh.weights)
    kap2 = medium.kappa2 ** 2
    op = DenseOperator(np.eye(mesh.n, dtype=complex)
                       + kap2 * G * (pen.m_values * mesh.weights)[None, :])
    op.pen = pen
    op.kernel = kernel
    return op


def penetrable_radiation_matrix(operator: DenseOperator, X: np.ndarray,
                                rows: Optional[np.ndarray]) -> np.ndarray:
    """-k2^2 G(x_i, c_j; rough), at the cell centers c_j of the operator
    from assemble_penetrable; rows as in radiation_matrix."""
    kernel = operator.kernel
    G = kernel.full(X, rows, y_weights=operator.pen.mesh.weights)
    return (-kernel.medium.kappa2 ** 2) * G
