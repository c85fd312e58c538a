"""Shared fixtures: media, scenes, pre-factorized solvers and the
oracles that only tests call (the sound-soft boundary trace, the mixed
reciprocity identity and the radiation probe).

The heavier objects are session-scoped; everything they hold is immutable
after construction, so sharing them across tests is safe.
"""

import numpy as np
import pytest

from layered_scatter import (
    ForwardSolver,
    GeometryError,
    InterfaceProfile,
    MediumParams,
    ObstacleCurve,
    ObstacleSpec,
    PlanarGreen,
    ReceiverLine,
    SceneConfig,
    SceneGeometry,
    SourceSpec,
    assemble_B1_operator,
    assemble_B2_operator,
    build_region_mesh,
)
from layered_scatter.ls_volume import CellUnion
from layered_scatter.specfun import (
    fundamental_solution_grad,
    hankel1_0,
    hankel1_1,
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
    """The volume operator on the B1 and B2 cells of scene, assembled as
    ForwardSolver assembles it."""
    union = CellUnion(medium, build_region_mesh("B1", scene, cell_size),
                      build_region_mesh("B2", scene, cell_size))
    green = PlanarGreen(medium, 1e-8)
    kernel = union.kernel(green)
    op1 = assemble_B1_operator(union, green, kernel)
    return assemble_B2_operator(union, op1, kernel)


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
    center = density.operator.kernel_ctx[0]
    medium, b2 = center.medium, center.b2
    P, nu = nodes.positions, nodes.normals
    delta = 1e-4 * np.ptp(P, axis=0).max()
    plus = RoughKernel(b2, medium, P + delta * nu)
    minus = RoughKernel(b2, medium, P - delta * nu)
    S, K = _layer_matrices_off_nodes(nodes, medium.kappa2, t)
    X = nodes.curve.point(t)
    rows = extension_rows(X, b2)
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


# ---------------------------------------------------------------------------
# Mixed reciprocity check
# ---------------------------------------------------------------------------
_FD_STEP = 1e-4          # first derivatives of smooth evaluated fields
_TRAPEZOID_POINTS = 64   # nodes on the small circle of the reciprocity check


def _grad_kernel_derivative(kappa, y, c, ell):
    """Gradient in y of the direction-ell derivative of the free-space
    kernel centered at c (closed form, no finite differences)."""
    d = np.asarray(y, float) - np.asarray(c, float)
    r = float(np.hypot(d[0], d[1]))
    z = kappa * r
    h1 = hankel1_1(z)
    h1p = hankel1_0(z) - h1 / z
    e = np.zeros(2)
    e[ell - 1] = 1.0
    return -0.25j * kappa * (kappa * h1p * (d[ell - 1] / r) * (d / r)
                             + h1 * (e / r - d[ell - 1] * d / r ** 3))


def _mixed_reciprocity_check(config, xs1, xs2, ell, eps=1e-2, solver=None):
    """Both sides of the monopole/dipole reciprocity identity.

    Left: total field at xs1 of the direction-ell dipole at xs2.  Right:
    trapezoid quadrature over the circle of radius eps around xs2 of
    d(u~inc)/dnu * u - du/dnu * u~inc, with u the total monopole field of
    the source at xs1 and finite-difference normal derivatives of u.
    """
    xs1 = np.asarray(xs1, float)
    xs2 = np.asarray(xs2, float)
    if np.hypot(*(xs1 - xs2)) <= 2.0 * eps:
        raise GeometryError("source points closer than the quadrature circle")
    if solver is None:
        solver = ForwardSolver(config)
    profile = config.profile
    gap = abs(xs2[1] - profile(xs2[0]))
    if gap <= eps:
        raise GeometryError("quadrature circle intersects the interface")
    if config.obstacle is not None:
        t = np.linspace(0.0, 2.0 * np.pi, 129)[:-1]
        bd = config.obstacle.curve.point(t)
        if np.min(np.hypot(bd[:, 0] - xs2[0], bd[:, 1] - xs2[1])) <= eps:
            raise GeometryError("quadrature circle intersects the obstacle")

    kappa1 = config.medium.kappa1
    dip = SourceSpec("dipole", (float(xs2[0]), float(xs2[1])), ell)
    left = solver.solve(dip).total(xs1)

    mono = solver.solve(SourceSpec("monopole", (float(xs1[0]), float(xs1[1]))))
    th = np.arange(_TRAPEZOID_POINTS) * (2.0 * np.pi / _TRAPEZOID_POINTS)
    # normal of the excised ball, pointing into it (outward for the domain)
    nu = -np.stack([np.cos(th), np.sin(th)], axis=-1)
    Y = xs2[None, :] - eps * nu

    u = mono.total(Y)
    h = _FD_STEP
    du = (mono.total(Y + h * nu) - mono.total(Y - h * nu)) / (2.0 * h)
    uinc_t = np.array([fundamental_solution_grad(kappa1, y, xs2, ell)
                       for y in Y])
    duinc_t = np.array([
        _grad_kernel_derivative(kappa1, y, xs2, ell) @ n_
        for y, n_ in zip(Y, nu)])
    ds = eps * (2.0 * np.pi / _TRAPEZOID_POINTS)
    right = complex(np.sum((duinc_t * u - du * uinc_t) * ds))
    mismatch = abs(left - right) / max(abs(left), abs(right), 1e-300)
    return {"left": complex(left), "right": right, "mismatch": float(mismatch)}


@pytest.fixture(scope="session")
def mixed_reciprocity_check():
    """Both sides of the monopole/dipole reciprocity identity."""
    return _mixed_reciprocity_check


# ---------------------------------------------------------------------------
# Radiation-condition probe
# ---------------------------------------------------------------------------
def _radiation_probe(fieldfn, direction, radii, kappa, fd_step=1e-3):
    """sqrt(r)*|du/dr - i*kappa*u| along a ray, radial derivative by
    central differences; decays toward zero for outgoing fields."""
    d = np.asarray(direction, float)
    d = d / np.hypot(d[0], d[1])
    out = []
    for r in radii:
        um = fieldfn(tuple((r - fd_step) * d))
        u0 = fieldfn(tuple(r * d))
        up = fieldfn(tuple((r + fd_step) * d))
        du = (up - um) / (2.0 * fd_step)
        out.append(np.sqrt(r) * abs(du - 1j * kappa * u0))
    return np.asarray(out)


@pytest.fixture(scope="session")
def radiation_probe():
    """The Sommerfeld radiation-condition residual along a ray."""
    return _radiation_probe
