"""Shared fixtures: media, scenes and pre-factorized solvers.

The heavier objects are session-scoped; everything they hold is immutable
after construction, so sharing them across tests is safe.
"""

import numpy as np
import pytest

from layered_scatter import (
    ArcInterface,
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
    """Adaptive flat-interface kernels at the tightest tolerance, the
    reference for the fixed xi-rules."""
    return PlanarGreen(medium, tol=1e-12)


@pytest.fixture(scope="session")
def flat_scene():
    """Flat interface, arc radius 1, no obstacle."""
    return SceneGeometry(InterfaceProfile(()), ArcInterface(1.0))


@pytest.fixture(scope="session")
def flat_b2(flat_scene, medium):
    """Nested operators for the flat scene at desk resolution."""
    m1 = build_region_mesh("B1", flat_scene, 0.1)
    m2 = build_region_mesh("B2", flat_scene, 0.1)
    op1 = assemble_B1_operator(m1, medium)
    return assemble_B2_operator(m2, medium, op1)


@pytest.fixture(scope="session")
def free_circle_solver():
    """Degenerate free-space scene with a sound-soft circle: the setting
    where the Mie series is the exact answer."""
    config = SceneConfig(
        medium=MediumParams(2.0, 2.0),
        arc_radius=1.0,
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
        arc_radius=2.6,
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
