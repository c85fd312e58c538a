"""Scene geometry: interface profile, region meshes, obstacle curves and
the receiver line.

The volume equation lives on D_f, the bounded region between the flat
line x2 = 0 and the graph of f.  The auxiliary interface min(f, 0) cuts
it into the dips B1 = {f < x2 < 0} and the bumps B2 = {0 < x2 < f}, whose
meshes are cut from one lattice with cell edges on x1 = 0 and x2 = 0.

All objects are immutable after construction and all operations are pure,
so everything here is safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, GeometryError

Point = Tuple[float, float]

# points closer than this coincide
_COINCIDENT = 1e-12


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

    def touches(self, point) -> bool:
        """Whether a point lies inside the curve or within _COINCIDENT of it.

        A point within one sample arc of the nearest of 512 equispaced
        samples is judged at its foot on the curve, found by Newton's
        method on (x(s) - point) . x'(s) = 0: it touches when the foot is
        within _COINCIDENT, or when it lies behind the outward normal
        (x2', -x1') there.  Any other point is farther from the curve than
        the sample polygon of contains() strays from it, so contains()
        decides; off the samples' bounding box it would say no, and is
        not called (a kite's contains() takes milliseconds).
        """
        t = np.linspace(0.0, 2.0 * np.pi, 513)[:-1]
        x = self.point(t)
        p = np.asarray(point, float)
        r = np.hypot(*(x - p).T)
        arc = np.max(np.hypot(*self.dpoint(t).T)) * (t[1] - t[0])
        if r.min() > arc:
            return bool(np.all((x.min(axis=0) <= p) & (p <= x.max(axis=0)))
                        and self.contains(p[None, :])[0])
        s = t[np.argmin(r)]
        for _ in range(6):
            d, dx, ddx = self.point(s) - p, self.dpoint(s), self.ddpoint(s)
            s -= (d @ dx) / (dx @ dx + d @ ddx)
        d, dx = p - self.point(s), self.dpoint(s)
        return bool(np.hypot(*d) < _COINCIDENT
                    or d[0] * dx[1] - d[1] * dx[0] < 0.0)


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
    """Interface profile + optional obstacle + receivers."""

    profile: InterfaceProfile
    obstacle: Optional[ObstacleCurve] = None
    receivers: Optional[ReceiverLine] = None

    def __post_init__(self):
        if self.receivers is not None and self.receivers.b <= self.profile.max_height():
            raise ConfigurationError("receiver line must lie above the interface")
        if self.obstacle is not None:
            t = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
            p = self.obstacle.point(t)
            clearance = self.profile(p[:, 0]) - p[:, 1]
            if np.min(clearance) <= 0.0:
                raise ConfigurationError("obstacle must lie strictly below the interface")


# ---------------------------------------------------------------------------
# Region meshes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RegionMesh:
    """Uniform-cell midpoint mesh of a bounded region.

    The weight of a kept cell is cell_size^2 times the inside fraction
    estimated on a subsample x subsample sub-grid (see build_region_mesh
    for which cells are kept); origin is a corner of the lattice the
    cells are cut from.
    """

    region_tag: str
    cell_size: float
    origin: Point
    centers: np.ndarray   # (n, 2)
    weights: np.ndarray   # (n,)

    @property
    def n(self) -> int:
        return len(self.weights)


def _region_indicator(tag: str, scene: SceneGeometry):
    prof = scene.profile

    def inside_b1(pts):
        x2 = pts[..., 1]
        return (prof(pts[..., 0]) < x2) & (x2 < 0.0)

    def inside_b2(pts):
        x2 = pts[..., 1]
        return (0.0 < x2) & (x2 < prof(pts[..., 0]))

    def inside_obstacle(pts):
        return scene.obstacle.contains(pts)

    return {"B1": inside_b1, "B2": inside_b2,
            "D_penetrable": inside_obstacle}[tag]


def _scan_grid(tag: str, scene: SceneGeometry, h: float):
    """Abscissae and heights of the cell centers build_region_mesh scans
    at cell size h, and the lattice corner they are cut from.

    B1 and B2 share the lattice whose cell edges lie on x1 = 0 and
    x2 = 0, so their centers are ((i + 1/2) h, (j + 1/2) h): the columns
    over the support of f, from x2 = 0 down (B1) or up (B2) to max |f|.
    The penetrable mesh is cut from the obstacle's bounding box.
    """
    if h <= 0.0:
        raise ConfigurationError("cell_size must be positive")
    if tag in ("B1", "B2"):
        prof = scene.profile
        rho = prof.support_radius()
        i = np.arange(np.floor(-rho / h), np.ceil(rho / h))
        depth = np.ceil(prof.max_abs() / h)
        j = np.arange(0.0, depth) if tag == "B2" else np.arange(-depth, 0.0)
        return (i + 0.5) * h, (j + 0.5) * h, (0.0, 0.0)
    if tag != "D_penetrable":
        raise ConfigurationError(f"unknown region tag {tag!r}")
    if scene.obstacle is None:
        raise ConfigurationError("no obstacle present for D_penetrable mesh")
    t = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    p = scene.obstacle.point(t)
    lo, hi = p.min(axis=0), p.max(axis=0)
    nx, ny = (max(1, int(np.ceil((b - a) / h - 1e-12)))
              for a, b in zip(lo, hi))
    return (lo[0] + (np.arange(nx) + 0.5) * h,
            lo[1] + (np.arange(ny) + 0.5) * h,
            (float(lo[0]), float(lo[1])))


def box_cells(region_tag: str, scene: SceneGeometry, cell_size: float) -> int:
    """Cells that build_region_mesh scans: an upper bound on the size of
    the mesh, known before it is built."""
    cx, cy, _ = _scan_grid(region_tag, scene, cell_size)
    return len(cx) * len(cy)


def build_region_mesh(region_tag: str, scene: SceneGeometry, cell_size: float,
                      subsample: int = 4) -> RegionMesh:
    """Uniform Cartesian midpoint mesh of B1, B2 or the penetrable obstacle.

    B2 holds the cells under the bumps, {0 < x2 < f}, and the penetrable
    mesh the cells of the obstacle: a cell is kept when its center lies
    inside.  B1 holds the cells over the dips, {f < x2 < 0}: a cell whose
    center lies in the dip keeps its whole area, one whose center lies
    under f keeps its part over f.  Cells of zero weight are dropped.  B1
    or B2 may be empty (a flat f has no cell); the penetrable mesh may
    not.
    """
    if subsample < 1:
        raise ConfigurationError("subsample must be >= 1")
    h = cell_size
    cx, cy, origin = _scan_grid(region_tag, scene, h)
    inside = _region_indicator(region_tag, scene)
    X, Y = np.meshgrid(cx, cy, indexing="ij")
    centers = np.stack([X.ravel(), Y.ravel()], axis=-1)
    at_center = inside(centers)
    if region_tag != "B1":
        # cell centers must stay strictly off the flat line x2 = 0
        centers = centers[at_center
                          & (np.abs(centers[:, 1]) > _COINCIDENT)]
    if region_tag == "D_penetrable" and len(centers) == 0:
        raise ConfigurationError(f"region {region_tag} mesh is empty at cell_size {h}")

    # Inside fraction on the subsample grid.
    s = subsample
    off = (np.arange(s) + 0.5) / s - 0.5
    OX, OY = np.meshgrid(off * h, off * h, indexing="ij")
    sub = centers[:, None, :] + np.stack([OX.ravel(), OY.ravel()], axis=-1)[None, :, :]
    frac = np.mean(inside(sub), axis=1)
    if region_tag == "B1":
        frac[at_center] = 1.0
    weights = h * h * frac
    pos = weights > 0.0
    return RegionMesh(region_tag=region_tag, cell_size=h, origin=origin,
                      centers=centers[pos], weights=weights[pos])
