"""Shared fixtures: media, scenes and pre-factorized solvers.

The heavier objects are session-scoped; everything they hold is immutable
after construction, so sharing them across tests is safe.
"""

import numpy as np
import pytest

from layered_scatter import (
    ForwardSolver,
    InterfaceProfile,
    MediumParams,
    ObstacleCurve,
    ObstacleSpec,
    PlanarGreen,
    ReceiverLine,
    SceneConfig,
    SceneGeometry,
    assemble_B1_operator,
    assemble_B2_operator,
    build_region_mesh,
)


@pytest.fixture(scope="session")
def medium():
    return MediumParams(1.0, 1.5)


@pytest.fixture(scope="session")
def green(medium):
    return PlanarGreen(medium, tol=1e-10)


@pytest.fixture(scope="session")
def reference(medium):
    """Flat-interface kernels on the reference integrals at 1e-12, the
    reference for the fixed xi-rules."""
    return PlanarGreen(medium, tol=1e-12)


@pytest.fixture(scope="session")
def flat_scene():
    """Flat interface, no obstacle: D_f is empty, so no mesh has a cell."""
    return SceneGeometry(InterfaceProfile(()))


def _volume_operator(scene, medium, cell_size=0.1):
    m1 = build_region_mesh("B1", scene, cell_size)
    m2 = build_region_mesh("B2", scene, cell_size)
    op1 = assemble_B1_operator(m1, medium)
    return assemble_B2_operator(m2, medium, op1)


@pytest.fixture(scope="session")
def flat_b2(flat_scene, medium):
    """The volume operator of the flat scene, on no cell."""
    return _volume_operator(flat_scene, medium)


@pytest.fixture(scope="session")
def dip_scene():
    """A dip of depth 0.3, no obstacle: every cell of D_f lies in B1, so the
    rough-interface kernel is the Green's function of min(f, 0)."""
    return SceneGeometry(InterfaceProfile(((0.0, 1.0, -0.3),)))


@pytest.fixture(scope="session")
def dip_b2(dip_scene, medium):
    """The volume operator of the dip scene at desk resolution, on the B1
    cells alone (the B2 mesh is empty)."""
    return _volume_operator(dip_scene, medium)


@pytest.fixture(scope="session")
def bump_and_dip_profile():
    """A bump and a dip side by side: cells on both sides of x2 = 0."""
    return InterfaceProfile(((-0.9, 0.7, 0.25), (0.9, 0.7, -0.25)))


@pytest.fixture(scope="session")
def free_circle_solver():
    """Degenerate free-space scene with a sound-soft circle: the setting
    where the Mie series is the exact answer."""
    config = SceneConfig(
        medium=MediumParams(2.0, 2.0),
        cell_size=0.25,
        obstacle=ObstacleSpec(
            curve=ObstacleCurve("circle", (0.0, -2.0), 0.5),
            condition="sound_soft", boundary_M=32),
    )
    return ForwardSolver(config)


@pytest.fixture(scope="session")
def bump_profile():
    return InterfaceProfile(((0.0, 1.0, 0.3),))


@pytest.fixture(scope="session")
def layered_obstacle_solver(bump_profile):
    """Full layered scene: bump interface and a sound-soft circle below."""
    config = SceneConfig(
        medium=MediumParams(1.0, 1.5),
        profile=bump_profile,
        cell_size=0.2,
        receivers=ReceiverLine(2.0, 3.0, 11),
        obstacle=ObstacleSpec(
            curve=ObstacleCurve("circle", (0.0, -1.3), 0.5),
            condition="sound_soft", boundary_M=32),
    )
    return ForwardSolver(config)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260824)


_KRESS_BLOCK = 1 << 18  # cosine-tensor entries per off-node weight block


def _kress_weights_off_nodes(t, nodes_t):
    """The log-singular weights of obstacle.kress_log_weights at evaluation
    parameters t that need not be nodes: rows summed in blocks that bound
    the (rows, 2M, M - 1) cosine tensor to _KRESS_BLOCK entries."""
    t = np.asarray(t, float)
    n = len(nodes_t)
    M = n // 2
    m = np.arange(1, M)
    out = np.empty((len(t), n))
    step = max(1, _KRESS_BLOCK // (n * max(1, M - 1)))
    for i in range(0, len(t), step):
        s = t[i:i + step, None] - nodes_t[None, :]
        out[i:i + step] = -(2.0 * np.pi / M) * np.tensordot(
            np.cos(np.multiply.outer(s, m)), 1.0 / m, axes=([2], [0])) \
            - (np.pi / M ** 2) * np.cos(M * s)
    return out


def _layer_matrices_off_nodes(nodes, kappa, t):
    """The free-space (S, K) of obstacle.layer_matrices with rows at
    parameters t off the nodes, where no kernel is singular."""
    from scipy.special import hankel1, jv
    xt = nodes.curve.point(t)
    dx = xt[:, None, :] - nodes.positions[None, :, :]
    r = np.hypot(dx[..., 0], dx[..., 1])
    jac = nodes.jacobians[None, :]
    log_term = np.log(4.0 * np.sin(0.5 * (t[:, None] - nodes.t[None, :]))
                      ** 2)
    M1 = -(1.0 / (2.0 * np.pi)) * jv(0, kappa * r) * jac
    M2 = 0.5j * hankel1(0, kappa * r) * jac - M1 * log_term
    dot = np.einsum("ijk,jk->ij", dx, nodes.normals)
    L1 = -(kappa / (2.0 * np.pi)) * jv(1, kappa * r) * dot / r * jac
    L2 = 0.5j * kappa * hankel1(1, kappa * r) * dot / r * jac - L1 * log_term
    M = nodes.n // 2
    R = _kress_weights_off_nodes(t, nodes.t)
    return R * M1 + (np.pi / M) * M2, R * L1 + (np.pi / M) * L2


def _boundary_total_field(density, t, background):
    """Total field on dD at off-node parameters t (sound-soft check).

    Uses the boundary limit of the combined potential: the singular rule
    evaluated at arbitrary t plus the trigonometrically interpolated jump
    term psi(t)/2.  The normal derivative of the smooth remainder is a
    central difference of monopole columns at the nodes shifted by
    +-delta along the normals, independent of the solver's dipole
    columns.
    """
    from layered_scatter.ls_volume import extension_rows
    from layered_scatter.obstacle import RoughKernel
    t = np.asarray(t, float)
    nodes = density.nodes
    op = density.operator
    medium = op.medium
    center = op.kernel_ctx[0]
    P, nu = nodes.positions, nodes.normals
    delta = 1e-4 * np.ptp(P, axis=0).max()
    plus = RoughKernel(op.b2, medium, P + delta * nu)
    minus = RoughKernel(op.b2, medium, P - delta * nu)
    S, K = _layer_matrices_off_nodes(nodes, medium.kappa2, t)
    X = nodes.curve.point(t)
    rows = extension_rows(X, medium, op.b2)
    rho = center.smooth_part(X, rows)
    drho = (plus.smooth_part(X, rows) - minus.smooth_part(X, rows)) \
        / (2.0 * delta)
    M = nodes.n // 2
    trap = (np.pi / M) * nodes.jacobians[None, :]
    S = S + 2.0 * rho * trap
    K = K + 2.0 * drho * trap
    # trigonometric interpolation of the density at t
    coeffs = np.fft.fft(density.psi) / nodes.n
    k = np.fft.fftfreq(nodes.n, d=1.0 / nodes.n)
    interp = (np.exp(1j * np.outer(t, k)) @ coeffs)
    w = 0.5 * (K - 1j * S) @ density.psi + 0.5 * interp
    return np.asarray(background, complex) + w


@pytest.fixture(scope="session")
def boundary_total_field():
    """The sound-soft oracle: total field of a boundary density at
    off-node parameters, from the boundary limit of its potential."""
    return _boundary_total_field


@pytest.fixture(scope="session")
def kress_weights_off_nodes():
    """The log-singular weights at parameters off the nodes."""
    return _kress_weights_off_nodes
