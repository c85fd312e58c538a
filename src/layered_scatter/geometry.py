"""Scene geometry: interface profile, obstacle curves, the receiver line
and region meshes.

The volume equation lives on D_f, the bounded region between the flat
line x2 = 0 and the graph of f.  The auxiliary interface min(f, 0) cuts
it into the dips B1 = {f < x2 < 0} and the bumps B2 = {0 < x2 < f}, whose
meshes are cut from one lattice with cell edges on x1 = 0 and x2 = 0.
The dips, the bumps and a penetrable obstacle share one rule: a cell
weighs its area times the part of it inside the region (inside_fraction).

All objects are immutable after construction and all operations are pure,
so everything here is safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import ConfigurationError

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
                raise ConfigurationError(
                    "interface.bumps halfwidths must be positive")

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

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Whether each point lies strictly inside D_f, between x2 = 0 and
        the graph: min(f, 0) < x2 < max(f, 0), in a dip or under a bump."""
        x2, f = points[..., 1], self(points[..., 0])
        return (np.minimum(f, 0.0) < x2) & (x2 < np.maximum(f, 0.0))

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
            raise ConfigurationError(
                "obstacle.curve.kind must be 'circle' or 'kite'")
        # a smaller curve is a point: its nodes coincide, and the squared
        # lengths of its tangents underflow
        if not min(self.radius, self.scale) > _COINCIDENT:
            raise ConfigurationError("obstacle.curve.radius and scale must "
                                     "exceed %g" % _COINCIDENT)

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
        """Whether each point lies strictly inside the curve, in closed
        form.

        With d the offset from the center, the kite's point at t has
        d2 = 1.5 s sin t and d1/s + 1.3 sin^2 t = cos t, so the horizontal
        line at v = d2/(1.5 s) meets it where d1/s + 1.3 v^2 = +-sqrt(1 -
        v^2): a point is inside when (d1/s + 1.3 v^2)^2 < 1 - v^2, which
        needs |v| < 1.
        """
        d = np.asarray(points, float) - np.asarray(self.center)
        if self.kind == "circle":
            return np.hypot(d[..., 0], d[..., 1]) < self.radius
        u, v = d[..., 0] / self.scale, d[..., 1] / (1.5 * self.scale)
        # a coordinate that overflows belongs to a point far outside
        with np.errstate(over="ignore", invalid="ignore"):
            return (u + 1.3 * v * v) ** 2 < 1.0 - v * v

    def touches(self, point) -> bool:
        """Whether a point lies inside the curve or within _COINCIDENT of it.

        Inside is contains().  A point outside touches when its foot on
        the curve, found by Newton's method on (x(s) - point) . x'(s) = 0
        from the nearest of 512 equispaced samples, is within _COINCIDENT;
        a point farther than one sample arc from every sample is farther
        than that from the curve.
        """
        p = np.asarray(point, float)
        if self.contains(p):
            return True
        t = np.linspace(0.0, 2.0 * np.pi, 513)[:-1]
        r = np.hypot(*(self.point(t) - p).T)
        if r.min() > np.max(np.hypot(*self.dpoint(t).T)) * (t[1] - t[0]):
            return False
        s = t[np.argmin(r)]
        for _ in range(6):
            d, dx, ddx = self.point(s) - p, self.dpoint(s), self.ddpoint(s)
            s -= (d @ dx) / (dx @ dx + d @ ddx)
        return bool(np.hypot(*(self.point(s) - p)) < _COINCIDENT)


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
            raise ConfigurationError(
                "receivers.a must be positive and receivers.count at least 1")

    def points(self) -> np.ndarray:
        x1 = np.linspace(-self.a, self.a, self.count)
        return np.stack([x1, np.full_like(x1, self.b)], axis=-1)


# ---------------------------------------------------------------------------
# Region meshes
# ---------------------------------------------------------------------------
# sub-cells per axis of the grid on which a midpoint mesh estimates the
# part of each cell inside its region (inside_fraction)
SUBSAMPLE = 4
# the shape that bounds a mesh's region
Region = Union[InterfaceProfile, ObstacleCurve]


@dataclass(frozen=True)
class RegionMesh:
    """Midpoint mesh of a bounded region.

    The weight of a cell is its area times its inside fraction
    (inside_fraction).  build_region_mesh keeps every cell of positive
    weight, forward.blowup_mesh only those whose center lies inside.
    """

    cell_size: float
    centers: np.ndarray   # (n, 2)
    weights: np.ndarray   # (n,)

    @property
    def n(self) -> int:
        return len(self.weights)


def inside_fraction(centers: np.ndarray, sizes, inside) -> np.ndarray:
    """The fraction of each square cell (centers, side sizes: one for all
    or one a cell) that lies in a region, estimated on the cell-centred
    SUBSAMPLE x SUBSAMPLE sub-grid; inside is the region's indicator on an
    array of points (..., 2)."""
    off = (np.arange(SUBSAMPLE) + 0.5) / SUBSAMPLE - 0.5
    OX, OY = np.meshgrid(off, off, indexing="ij")
    sub = centers[:, None, :] + np.multiply.outer(
        sizes, np.stack([OX.ravel(), OY.ravel()], axis=-1))
    return np.mean(inside(sub), axis=1)


def _scan_grid(tag: str, region: Region, h: float):
    """The lattice of cells build_region_mesh scans at cell size h: its
    corner and, per axis, the index of the first cell and the number of
    cells, counted without building them; the centers on an axis lie at
    corner + (first + k + 1/2) h, 0 <= k < count.

    B1 and B2 share the lattice whose cell edges lie on x1 = 0 and
    x2 = 0: the columns over the support of the profile, from x2 = 0 down
    (B1) or up (B2) to max |f|.  The penetrable mesh is cut from the
    obstacle curve's bounding box.
    """
    if h <= 0.0:
        raise ConfigurationError("cell_size must be positive")
    if tag in ("B1", "B2"):
        rho = region.support_radius()
        first = np.floor(-rho / h)
        depth = np.ceil(region.max_abs() / h)
        return (0.0, 0.0), (first, np.ceil(rho / h) - first), \
            (0.0 if tag == "B2" else -depth, depth)
    if tag != "D_penetrable":
        raise ConfigurationError(f"unknown region tag {tag!r}")
    t = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    p = region.point(t)
    lo, hi = p.min(axis=0), p.max(axis=0)
    nx, ny = (max(1, int(np.ceil((b - a) / h - 1e-12)))
              for a, b in zip(lo, hi))
    return (float(lo[0]), float(lo[1])), (0.0, nx), (0.0, ny)


def box_cells(region_tag: str, region: Region, cell_size: float) -> float:
    """Cells that build_region_mesh scans: an upper bound on the size of
    the mesh, known before it is built.  A float, so that a count too
    large for any array still compares (as inf past the float range)."""
    _, (_, nx), (_, ny) = _scan_grid(region_tag, region, cell_size)
    return float(nx) * float(ny)


def build_region_mesh(region_tag: str, region: Region,
                      cell_size: float) -> RegionMesh:
    """Uniform Cartesian midpoint mesh of B1, B2 or the penetrable obstacle,
    bounded by region: the interface profile for B1 and B2, the obstacle
    curve for D_penetrable.

    Every cell of the scanned lattice (_scan_grid) weighs h^2 times the
    part of it inside the region (inside_fraction): D_f for B1 and B2,
    whose lattices lie under and over x2 = 0, and the obstacle for
    D_penetrable.  Cells of zero weight are dropped.  B1 or B2 may be
    empty (a flat f has no cell); the penetrable mesh may not.
    """
    h = cell_size
    origin, *axes = _scan_grid(region_tag, region, h)
    cx, cy = (o + (first + np.arange(n) + 0.5) * h
              for o, (first, n) in zip(origin, axes))
    X, Y = np.meshgrid(cx, cy, indexing="ij")
    centers = np.stack([X.ravel(), Y.ravel()], axis=-1)
    # cell centers must stay strictly off the flat line x2 = 0
    centers = centers[np.abs(centers[:, 1]) > _COINCIDENT]
    weights = h * h * inside_fraction(centers, h, region.contains)
    pos = weights > 0.0
    if region_tag == "D_penetrable" and not np.any(pos):
        raise ConfigurationError(f"region {region_tag} mesh is empty at cell_size {h}")
    return RegionMesh(cell_size=h, centers=centers[pos], weights=weights[pos])
