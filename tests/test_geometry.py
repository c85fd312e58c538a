"""Scene geometry: profiles, obstacle curves and region meshes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered_scatter.errors import ConfigurationError
from layered_scatter.forward import ObstacleSpec, SceneConfig
from layered_scatter.geometry import (
    InterfaceProfile,
    ObstacleCurve,
    ReceiverLine,
    build_region_mesh,
    inside_fraction,
    obstacle_nodes,
)
from layered_scatter.layered_green import MediumParams


# ---------------------------------------------------------------------------
# Interface profile
# ---------------------------------------------------------------------------
def test_profile_compact_support():
    prof = InterfaceProfile(((0.5, 1.0, 0.3),))
    assert prof(1.5) == 0.0
    assert prof(-0.5) == 0.0
    assert prof(0.5) == pytest.approx(0.3)   # peak value is the height
    assert prof.support_radius() == pytest.approx(1.5)


def test_profile_derivative_matches_fd():
    prof = InterfaceProfile(((0.0, 1.0, 0.3), (1.2, 0.4, -0.1)))
    x = np.linspace(-1.5, 2.0, 37)
    h = 1e-6
    fd = (prof(x + h) - prof(x - h)) / (2.0 * h)
    assert np.max(np.abs(prof.derivative(x) - fd)) < 1e-7


def test_profile_upward_normal_is_unit_and_upward():
    prof = InterfaceProfile(((0.0, 1.0, 0.3),))
    for x1 in (-0.7, 0.0, 0.4):
        n1, n2 = prof.upward_normal(x1)
        assert np.hypot(n1, n2) == pytest.approx(1.0)
        assert n2 > 0.0
    # on a slope the normal tilts against the gradient
    n1, _ = prof.upward_normal(-0.5)
    assert n1 * prof.derivative(-0.5) < 0.0


def test_profile_rejects_bad_halfwidth():
    with pytest.raises(ConfigurationError):
        InterfaceProfile(((0.0, -1.0, 0.3),))


def test_max_abs_and_height_for_negative_bump():
    prof = InterfaceProfile(((0.0, 1.0, -0.4),))
    assert prof.max_abs() == pytest.approx(0.4, abs=1e-6)
    assert prof.max_height() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Obstacle curves and boundary nodes
# ---------------------------------------------------------------------------
def test_circle_parametrization():
    c = ObstacleCurve("circle", (1.0, -2.0), 0.5)
    p = c.point(np.array([0.0, np.pi / 2]))
    assert np.allclose(p, [[1.5, -2.0], [1.0, -1.5]])


@pytest.mark.parametrize("kind,kwargs", [
    ("circle", {"radius": 0.5}),
    ("kite", {"scale": 0.4}),
])
def test_tangent_matches_fd(kind, kwargs):
    c = ObstacleCurve(kind, (0.3, -1.5), **kwargs)
    t = np.linspace(0.0, 2.0 * np.pi, 17)[:-1]
    h = 1e-6
    fd = (c.point(t + h) - c.point(t - h)) / (2.0 * h)
    assert np.max(np.abs(c.dpoint(t) - fd)) < 1e-8
    fd2 = (c.dpoint(t + h) - c.dpoint(t - h)) / (2.0 * h)
    assert np.max(np.abs(c.ddpoint(t) - fd2)) < 1e-7


def test_containment_circle_and_kite():
    c = ObstacleCurve("circle", (0.0, -2.0), 0.5)
    pts = np.array([[0.0, -2.0], [0.4, -2.0], [0.6, -2.0], [0.0, 0.0]])
    assert list(c.contains(pts)) == [True, True, False, False]
    k = ObstacleCurve("kite", (0.0, -2.0), scale=0.5)
    assert k.contains(np.array([[0.0, -2.0]]))[0]
    assert not k.contains(np.array([[3.0, -2.0]]))[0]


def test_kite_containment_is_exact_a_micron_off_the_curve():
    # the closed form judges points 1e-6 off the curve along the normal,
    # where a 512-edge polygon strays by up to ~1e-5
    k = ObstacleCurve("kite", (0.3, -1.4), scale=0.5)
    t = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 40)
    tangent = k.dpoint(t)
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1) \
        / np.hypot(tangent[:, 0], tangent[:, 1])[:, None]
    assert not np.any(k.contains(k.point(t) + 1e-6 * normal))
    assert np.all(k.contains(k.point(t) - 1e-6 * normal))


@pytest.mark.parametrize("curve", [
    ObstacleCurve("circle", (0.0, -2.0), 0.5),
    ObstacleCurve("kite", (0.3, -2.0), scale=0.5)], ids=["circle", "kite"])
def test_touches_holds_inside_and_on_the_curve_only(curve):
    t = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 40)
    on = curve.point(t)
    tangent = curve.dpoint(t)
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1) \
        / np.hypot(tangent[:, 0], tangent[:, 1])[:, None]
    assert all(curve.touches(p) for p in on)
    assert all(curve.touches(p) for p in on - 1e-3 * normal)
    assert not any(curve.touches(p) for p in on + 1e-6 * normal)
    assert not curve.touches((3.0, -2.0))
    assert not curve.touches((0.3, 1.0))


def test_obstacle_nodes_normals_outward():
    c = ObstacleCurve("circle", (1.0, -2.0), 0.5)
    nodes = obstacle_nodes(c, 16)
    assert nodes.n == 32
    radial = nodes.positions - np.array([1.0, -2.0])
    dots = np.einsum("ij,ij->i", nodes.normals, radial)
    assert np.all(dots > 0.0)
    assert np.allclose(np.hypot(nodes.normals[:, 0], nodes.normals[:, 1]), 1.0)
    assert np.allclose(nodes.jacobians, 0.5)


def test_obstacle_nodes_rejects_tiny_M():
    with pytest.raises(ConfigurationError):
        obstacle_nodes(ObstacleCurve("circle", (0.0, -2.0), 0.5), 2)


def test_unknown_curve_kind():
    with pytest.raises(ConfigurationError):
        ObstacleCurve("square", (0.0, 0.0))


# ---------------------------------------------------------------------------
# Receivers and scene admissibility
# ---------------------------------------------------------------------------
def test_receiver_line_points():
    line = ReceiverLine(2.0, 3.0, 5)
    pts = line.points()
    assert pts.shape == (5, 2)
    assert np.allclose(pts[:, 1], 2.0)
    assert pts[0, 0] == -3.0 and pts[-1, 0] == 3.0


def test_scene_rejects_obstacle_above_interface(bump_profile):
    spec = ObstacleSpec(ObstacleCurve("circle", (0.0, 0.5), 0.3),
                        "sound_soft")
    with pytest.raises(ConfigurationError, match="obstacle must lie "
                       "strictly below the interface and the line x2 = 0"):
        SceneConfig(MediumParams(1.0, 1.5), bump_profile, obstacle=spec)


def test_scene_rejects_receivers_below_interface(bump_profile):
    with pytest.raises(ConfigurationError,
                       match="receivers.b must lie above the interface"):
        SceneConfig(MediumParams(1.0, 1.5), bump_profile,
                    receivers=ReceiverLine(0.1, 3.0, 5))


# ---------------------------------------------------------------------------
# Region meshes
# ---------------------------------------------------------------------------
def test_b1_b2_mesh_areas_converge_to_dip_and_bump_areas(
        bump_and_dip_profile):
    prof = bump_and_dip_profile
    x = np.linspace(-2.0, 2.0, 400001)
    f = prof(x)
    # the kept cells (center rule) err at first order in the cell size,
    # not monotonically: each quartering of the cell must shrink the error
    for tag, depth in (("B1", np.maximum(-f, 0.0)),
                       ("B2", np.maximum(f, 0.0))):
        exact = np.trapezoid(depth, x)
        errs = [abs(build_region_mesh(tag, prof, h).weights.sum() - exact)
                / exact for h in (0.2, 0.05, 0.0125)]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1.5e-2


def test_b2_mesh_extends_above_zero_with_bump(bump_profile):
    mesh = build_region_mesh("B2", bump_profile, 0.1)
    assert np.min(mesh.centers[:, 1]) > 0.0
    # a bump has no dip: B1 is empty, and the flat scene has no cell
    assert build_region_mesh("B1", bump_profile, 0.1).n == 0
    flat = InterfaceProfile(())
    assert build_region_mesh("B1", flat, 0.1).n == 0
    assert build_region_mesh("B2", flat, 0.1).n == 0


def test_mesh_centers_stay_off_the_flat_line(bump_and_dip_profile):
    h = 0.1
    for tag, side in (("B1", -1.0), ("B2", 1.0)):
        mesh = build_region_mesh(tag, bump_and_dip_profile, h)
        assert mesh.n > 0
        assert np.min(side * mesh.centers[:, 1]) > 1e-12
        assert np.all(mesh.weights > 0.0)
        # centers on the lattice with cell edges on x1 = 0 and x2 = 0
        assert np.allclose(mesh.centers / h - 0.5,
                           np.rint(mesh.centers / h - 0.5), rtol=0,
                           atol=1e-9)
    # a B1 cell whose center lies in the dip keeps its whole area, one
    # whose center lies under f only its part over f
    mesh = build_region_mesh("B1", bump_and_dip_profile, h)
    over = bump_and_dip_profile(mesh.centers[:, 0]) < mesh.centers[:, 1]
    assert np.any(over) and np.any(~over)
    assert np.all(mesh.weights[over] == h * h)
    assert np.all(mesh.weights[~over] < h * h)


def test_inside_fraction_samples_a_cell_centred_4_by_4_grid():
    # every midpoint mesh weighs its cells on the same sub-grid: offsets
    # (k + 1/2)/4 - 1/2 of the cell side on each axis, around the center
    seen = []

    def below_diagonal(pts):
        seen.append(pts)
        return pts[..., 0] - pts[..., 1] < 0.0

    centers = np.array([[0.0, 0.0], [1.0, 1.0]])
    sizes = np.array([1.0, 0.5])
    frac = inside_fraction(centers, sizes, below_diagonal)
    off = (seen[0] - centers[:, None, :]) / sizes[:, None, None]
    grid = np.array([-0.375, -0.125, 0.125, 0.375])
    for cell in off:
        assert sorted(map(tuple, cell)) == [(a, b) for a in grid for b in grid]
    # 6 of the 16 points lie strictly below the diagonal through the centers
    assert list(frac) == [6 / 16, 6 / 16]
    # one size for all cells is the same as that size for each
    assert np.array_equal(inside_fraction(centers, 0.5, below_diagonal),
                          inside_fraction(centers, np.full(2, 0.5),
                                          below_diagonal))


def test_penetrable_mesh_area():
    curve = ObstacleCurve("circle", (0.0, -1.3), 0.5)
    mesh = build_region_mesh("D_penetrable", curve, 0.025)
    assert abs(mesh.weights.sum() - np.pi * 0.25) / (np.pi * 0.25) < 1e-2


def test_mesh_rejects_bad_inputs(flat_profile):
    with pytest.raises(ConfigurationError):
        build_region_mesh("B1", flat_profile, 0.0)
    with pytest.raises(ConfigurationError):
        build_region_mesh("nowhere", flat_profile, 0.1)
    # at cell size 10 the disk's box is one cell, centered off the disk
    with pytest.raises(ConfigurationError, match="empty"):
        build_region_mesh("D_penetrable",
                          ObstacleCurve("circle", (0.0, -1.3), 0.5), 10.0)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(-2.0, 2.0), w=st.floats(0.1, 2.0),
       h=st.floats(-1.0, 1.0))
def test_profile_support_property(c, w, h):
    prof = InterfaceProfile(((c, w, h),))
    rho = prof.support_radius()
    assert prof(rho + 1e-9) == 0.0
    assert prof(-rho - 1e-9) == 0.0
