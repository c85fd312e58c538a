"""Acoustic point-source scattering in a two-layered medium with a locally
rough interface and an optional embedded obstacle.

The solver chain is: planar-interface Sommerfeld integrals -> one volume
integral equation over the dips of f (the cells below x2 = 0, contrast
-eta), its bumps (the cells above x2 = 0, contrast +eta) and a penetrable
obstacle's cells (contrast -kappa2^2 m), transferring the planar interface
to the rough one -> boundary equation for an impenetrable obstacle.
"""

from .errors import (
    AccuracyError,
    ConfigurationError,
    GeometryError,
    SingularityError,
    SolverError,
)
from .geometry import (
    InterfaceProfile,
    ObstacleCurve,
    ReceiverLine,
    RegionMesh,
    SceneGeometry,
    build_region_mesh,
    obstacle_nodes,
)
from .layered_green import MediumParams, PlanarGreen, SourceSpec, beta
from .ls_volume import (
    DenseOperator,
    GridSolution,
    assemble_B1_operator,
    assemble_B2_operator,
    extend_stage2_many,
    solve_stage2,
)
from .obstacle import (
    BoundaryDensity,
    RoughKernel,
    assemble_bie,
    green_rough_columns,
    layer_matrices,
    neumann_impedance_solve,
    scattered_from_density,
    solve_density,
)
from .forward import (
    BlowupSequenceConfig,
    FieldEvaluator,
    ForwardSolver,
    NearFieldRecord,
    ObstacleSpec,
    SceneConfig,
    blowup_experiment,
    synthesize_dataset,
)
from .verify import (
    StencilProbe,
    helmholtz_residual,
    mie_interior_circle,
    mie_series_circle,
    stencil_convergence_ratio,
)

__all__ = [
    "AccuracyError",
    "ConfigurationError",
    "GeometryError",
    "SingularityError",
    "SolverError",
    "InterfaceProfile",
    "ObstacleCurve",
    "ReceiverLine",
    "RegionMesh",
    "SceneGeometry",
    "build_region_mesh",
    "obstacle_nodes",
    "MediumParams",
    "PlanarGreen",
    "SourceSpec",
    "beta",
    "DenseOperator",
    "GridSolution",
    "assemble_B1_operator",
    "assemble_B2_operator",
    "extend_stage2_many",
    "solve_stage2",
    "BoundaryDensity",
    "RoughKernel",
    "assemble_bie",
    "green_rough_columns",
    "layer_matrices",
    "neumann_impedance_solve",
    "scattered_from_density",
    "solve_density",
    "BlowupSequenceConfig",
    "FieldEvaluator",
    "ForwardSolver",
    "NearFieldRecord",
    "ObstacleSpec",
    "SceneConfig",
    "blowup_experiment",
    "synthesize_dataset",
    "StencilProbe",
    "helmholtz_residual",
    "mie_interior_circle",
    "mie_series_circle",
    "stencil_convergence_ratio",
]
