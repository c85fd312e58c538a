"""Scene geometry: interface profile, arc interface, region meshes,
obstacle curves and the receiver line.

All objects are immutable after construction and all operations are pure,
so everything here is safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, GeometryError

Point = Tuple[float, float]


# ---------------------------------------------------------------------------
# Interface profile
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class InterfaceProfile:
    """Compactly supported C^2 perturbation of the flat line x2 = 0.

    The profile is a finite sum of smooth bumps; each bump contributes
    height * exp(1 - 1/(1 - t^2)) with t = (x1 - center)/halfwidth inside
    |t| < 1 and vanishes identically outside.
    """

    bumps: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self):
        for center, halfwidth, _height in self.bumps:
            if halfwidth <= 0.0:
                raise ConfigurationError("bump halfwidth must be positive")

    def __call__(self, x1):
        x1 = np.asarray(x1, dtype=float)
        scalar = x1.ndim == 0
        if scalar:
            x1 = x1[None]
        out = np.zeros_like(x1)
        for c, w, h in self.bumps:
            t = (x1 - c) / w
            m = np.abs(t) < 1.0
            if np.any(m):
                tm = t[m]
                out[m] += h * np.exp(1.0 - 1.0 / (1.0 - tm * tm))
        return float(out[0]) if scalar else out

    def derivative(self, x1):
        """Exact f'(x1)."""
        x1 = np.asarray(x1, dtype=float)
        out = np.zeros_like(x1)
        scalar = out.ndim == 0
        if scalar:
            x1 = x1[None]
            out = out[None]
        for c, w, h in self.bumps:
            t = (x1 - c) / w
            m = np.abs(t) < 1.0
            if np.any(m):
                tm = t[m]
                u = 1.0 - tm * tm
                out[m] += h * np.exp(1.0 - 1.0 / u) * (-2.0 * tm / (u * u)) / w
        return float(out[0]) if scalar else out

    def support_radius(self) -> float:
        """Smallest rho with f identically zero outside [-rho, rho]."""
        if not self.bumps:
            return 0.0
        return max(abs(c) + w for c, w, _h in self.bumps)

    def max_abs(self) -> float:
        """max |f|, estimated on a dense sample of the support."""
        rho = self.support_radius()
        if rho == 0.0:
            return 0.0
        x = np.linspace(-rho, rho, 4001)
        return float(np.max(np.abs(self(x))))

    def max_height(self) -> float:
        """max f (signed), estimated on a dense sample of the support."""
        rho = self.support_radius()
        if rho == 0.0:
            return 0.0
        x = np.linspace(-rho, rho, 4001)
        return float(np.max(self(x)))

    def upward_normal(self, x1: float) -> Tuple[float, float]:
        """Unit normal on the graph of f pointing into the upper medium."""
        fp = self.derivative(x1)
        n = np.hypot(fp, 1.0)
        return (-fp / n, 1.0 / n)


# ---------------------------------------------------------------------------
# Arc interface
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ArcInterface:
    """Auxiliary interface: flat for |x1| >= R, lower half-circle inside."""

    R: float

    def __post_init__(self):
        if self.R <= 0.0:
            raise ConfigurationError("arc radius must be positive")

    def height(self, x1):
        """x2-coordinate of the arc at horizontal position x1."""
        x1 = np.asarray(x1, dtype=float)
        inside = np.abs(x1) < self.R
        out = np.zeros_like(x1)
        out = np.where(inside, -np.sqrt(np.maximum(self.R ** 2 - x1 * x1, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def validate_against(self, profile: InterfaceProfile) -> None:
        if self.R <= profile.support_radius():
            raise ConfigurationError(
                f"arc radius {self.R} must exceed the profile support radius "
                f"{profile.support_radius()}")
        x = np.linspace(-self.R, self.R, 4001)[1:-1]
        gap = profile(x) - self.height(x)
        if np.min(gap) <= 0.0:
            raise ConfigurationError("interface profile must lie strictly above the arc")


def default_arc_radius(profile: InterfaceProfile) -> float:
    """Default arc radius 2*(support radius + max |f|), at least 1."""
    return max(1.0, 2.0 * (profile.support_radius() + profile.max_abs()))


# ---------------------------------------------------------------------------
# Obstacle curves
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ObstacleCurve:
    """Closed C^2 obstacle boundary, parametrized over [0, 2*pi).

    kind "circle": center + radius (cos t, sin t).
    kind "kite":   center + scale (cos t + 0.65 cos 2t - 0.65, 1.5 sin t).
    """

    kind: str
    center: Point
    radius: float = 1.0   # circle
    scale: float = 1.0    # kite

    def __post_init__(self):
        if self.kind not in ("circle", "kite"):
            raise ConfigurationError(f"unknown obstacle curve kind {self.kind!r}")
        if self.kind == "circle" and self.radius <= 0.0:
            raise ConfigurationError("circle radius must be positive")
        if self.kind == "kite" and self.scale <= 0.0:
            raise ConfigurationError("kite scale must be positive")

    def point(self, t):
        t = np.asarray(t, dtype=float)
        cx, cy = self.center
        if self.kind == "circle":
            return np.stack([cx + self.radius * np.cos(t),
                             cy + self.radius * np.sin(t)], axis=-1)
        return np.stack(
            [cx + self.scale * (np.cos(t) + 0.65 * np.cos(2 * t) - 0.65),
             cy + self.scale * 1.5 * np.sin(t)], axis=-1)

    def dpoint(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "circle":
            return np.stack([-self.radius * np.sin(t),
                             self.radius * np.cos(t)], axis=-1)
        return np.stack(
            [self.scale * (-np.sin(t) - 1.3 * np.sin(2 * t)),
             self.scale * 1.5 * np.cos(t)], axis=-1)

    def ddpoint(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "circle":
            return np.stack([-self.radius * np.cos(t),
                             -self.radius * np.sin(t)], axis=-1)
        return np.stack(
            [self.scale * (-np.cos(t) - 2.6 * np.cos(2 * t)),
             self.scale * 1.5 * -np.sin(t)], axis=-1)

    def diameter(self) -> float:
        t = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
        p = self.point(t)
        return float(np.max(np.hypot(p[:, 0, None] - p[None, :, 0],
                                     p[:, 1, None] - p[None, :, 1])))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Even-odd containment test against a dense polygon sample."""
        if self.kind == "circle":
            d = points - np.asarray(self.center)
            return np.hypot(d[..., 0], d[..., 1]) < self.radius
        t = np.linspace(0.0, 2.0 * np.pi, 513)[:-1]
        poly = self.point(t)
        x, y = points[..., 0], points[..., 1]
        inside = np.zeros(x.shape, dtype=bool)
        px, py = poly[:, 0], poly[:, 1]
        qx, qy = np.roll(px, -1), np.roll(py, -1)
        for i in range(len(px)):
            cond = (py[i] > y) != (qy[i] > y)
            xint = px[i] + (y - py[i]) / (qy[i] - py[i] + 1e-300) * (qx[i] - px[i])
            inside ^= cond & (x < xint)
        return inside


@dataclass(frozen=True)
class ObstacleNodes:
    """Trigonometric quadrature nodes on an obstacle boundary."""

    curve: ObstacleCurve
    t: np.ndarray
    positions: np.ndarray    # (2M, 2)
    tangents: np.ndarray     # x'(t)
    second: np.ndarray       # x''(t)
    jacobians: np.ndarray    # |x'(t)|
    normals: np.ndarray      # outward unit normals

    @property
    def n(self) -> int:
        return len(self.t)

    @property
    def spacing(self) -> float:
        return float(np.min(self.jacobians) * (self.t[1] - self.t[0]))


def obstacle_nodes(curve: ObstacleCurve, M: int) -> ObstacleNodes:
    """2M equispaced-parameter nodes with tangents, normals and Jacobians."""
    if M < 4:
        raise ConfigurationError("need M >= 4 quadrature parameter points")
    t = np.arange(2 * M) * (np.pi / M)
    pos = curve.point(t)
    dp = curve.dpoint(t)
    ddp = curve.ddpoint(t)
    jac = np.hypot(dp[:, 0], dp[:, 1])
    normals = np.stack([dp[:, 1], -dp[:, 0]], axis=-1) / jac[:, None]
    return ObstacleNodes(curve=curve, t=t, positions=pos, tangents=dp,
                         second=ddp, jacobians=jac, normals=normals)


# ---------------------------------------------------------------------------
# Receivers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ReceiverLine:
    """Equispaced receivers on the segment {(x1, b): |x1| <= a}."""

    b: float
    a: float
    count: int

    def __post_init__(self):
        if self.a <= 0.0 or self.count < 1:
            raise ConfigurationError("receiver line needs a > 0 and count >= 1")

    def points(self) -> np.ndarray:
        x1 = np.linspace(-self.a, self.a, self.count)
        return np.stack([x1, np.full_like(x1, self.b)], axis=-1)


# ---------------------------------------------------------------------------
# Scene
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SceneGeometry:
    """Interface profile + arc + optional obstacle + receivers."""

    profile: InterfaceProfile
    arc: ArcInterface
    obstacle: Optional[ObstacleCurve] = None
    receivers: Optional[ReceiverLine] = None

    def __post_init__(self):
        self.arc.validate_against(self.profile)
        if self.receivers is not None and self.receivers.b <= self.profile.max_height():
            raise ConfigurationError("receiver line must lie above the interface")
        if self.obstacle is not None:
            t = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
            p = self.obstacle.point(t)
            clearance = self.profile(p[:, 0]) - p[:, 1]
            if np.min(clearance) <= 0.0:
                raise ConfigurationError("obstacle must lie strictly below the interface")


def classify_point(p: Point, scene: SceneGeometry, kappa1: float, kappa2: float):
    """Region label and local wavenumber for the rough interface.

    Returns ("Omega1", kappa1) above the graph of f, ("Omega2", kappa2)
    below, and ("Gamma", kappa2) exactly on it.
    """
    f = scene.profile(p[0])
    if p[1] > f:
        return "Omega1", kappa1
    if p[1] < f:
        return "Omega2", kappa2
    return "Gamma", kappa2


# ---------------------------------------------------------------------------
# Region meshes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RegionMesh:
    """Uniform-cell midpoint mesh of a bounded region.

    Cells are kept iff their center lies inside the region; the weight of a
    kept cell is cell_size^2 times the inside fraction estimated on a
    subsample x subsample sub-grid.
    """

    region_tag: str
    cell_size: float
    origin: Point
    centers: np.ndarray   # (n, 2)
    weights: np.ndarray   # (n,)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def _region_indicator(tag: str, scene: SceneGeometry):
    arc = scene.arc
    prof = scene.profile

    def inside_b1(pts):
        x1, x2 = pts[..., 0], pts[..., 1]
        r2 = arc.R ** 2 - x1 * x1
        low = np.where(r2 > 0.0, -np.sqrt(np.maximum(r2, 0.0)), 0.0)
        return (np.abs(x1) < arc.R) & (x2 > low) & (x2 < 0.0)

    def inside_b2(pts):
        x1, x2 = pts[..., 0], pts[..., 1]
        r2 = arc.R ** 2 - x1 * x1
        low = np.where(r2 > 0.0, -np.sqrt(np.maximum(r2, 0.0)), 0.0)
        return (np.abs(x1) < arc.R) & (x2 > low) & (x2 < prof(x1))

    def inside_obstacle(pts):
        if scene.obstacle is None:
            raise ConfigurationError("no obstacle present for D_penetrable mesh")
        return scene.obstacle.contains(pts)

    if tag == "B1":
        return inside_b1
    if tag == "B2":
        return inside_b2
    if tag == "D_penetrable":
        return inside_obstacle
    raise ConfigurationError(f"unknown region tag {tag!r}")


def _bounding_box(tag: str, scene: SceneGeometry):
    R = scene.arc.R
    if tag == "B1":
        return (-R, -R), (R, 0.0)
    if tag == "B2":
        top = max(0.0, scene.profile.max_height())
        return (-R, -R), (R, top)
    if tag == "D_penetrable":
        if scene.obstacle is None:
            raise ConfigurationError("no obstacle present for D_penetrable mesh")
        t = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
        p = scene.obstacle.point(t)
        return ((float(p[:, 0].min()), float(p[:, 1].min())),
                (float(p[:, 0].max()), float(p[:, 1].max())))
    raise ConfigurationError(f"unknown region tag {tag!r}")


def _box_grid(region_tag: str, scene: SceneGeometry, h: float):
    """Lower-left corner and cell counts (nx, ny) of the region's bounding
    box at cell size h."""
    if h <= 0.0:
        raise ConfigurationError("cell_size must be positive")
    (x_lo, y_lo), (x_hi, y_hi) = _bounding_box(region_tag, scene)
    nx = max(1, int(np.ceil((x_hi - x_lo) / h - 1e-12)))
    ny = max(1, int(np.ceil((y_hi - y_lo) / h - 1e-12)))
    return x_lo, y_lo, nx, ny


def box_cells(region_tag: str, scene: SceneGeometry, cell_size: float) -> int:
    """Cells of the bounding box that build_region_mesh scans: an upper
    bound on the size of the mesh, known before it is built."""
    _, _, nx, ny = _box_grid(region_tag, scene, cell_size)
    return nx * ny


def build_region_mesh(region_tag: str, scene: SceneGeometry, cell_size: float,
                      subsample: int = 4) -> RegionMesh:
    """Uniform Cartesian midpoint mesh of B1, B2 or the penetrable obstacle."""
    if subsample < 1:
        raise ConfigurationError("subsample must be >= 1")
    inside = _region_indicator(region_tag, scene)
    x_lo, y_lo, nx, ny = _box_grid(region_tag, scene, cell_size)
    h = cell_size
    cx = x_lo + (np.arange(nx) + 0.5) * h
    cy = y_lo + (np.arange(ny) + 0.5) * h
    X, Y = np.meshgrid(cx, cy, indexing="ij")
    centers = np.stack([X.ravel(), Y.ravel()], axis=-1)
    keep = inside(centers)
    # Cell centers must stay strictly off the flat line x2 = 0.
    keep &= np.abs(centers[:, 1]) > 1e-12
    centers = centers[keep]
    if len(centers) == 0:
        raise ConfigurationError(f"region {region_tag} mesh is empty at cell_size {h}")

    # Inside fraction on the subsample grid.
    s = subsample
    off = (np.arange(s) + 0.5) / s - 0.5
    OX, OY = np.meshgrid(off * h, off * h, indexing="ij")
    sub = centers[:, None, :] + np.stack([OX.ravel(), OY.ravel()], axis=-1)[None, :, :]
    frac = np.mean(inside(sub), axis=1)
    weights = h * h * frac
    pos = weights > 0.0
    return RegionMesh(region_tag=region_tag, cell_size=h, origin=(x_lo, y_lo),
                      centers=centers[pos], weights=weights[pos])
