"""Workload table of the benchmark and the seeded source pools.

Every workload is one committed scene file (perfbench/scenes) plus a set of
point sources drawn by the run seed from the pool stored in the workload's
reference file (perfbench/reference), one from each stratum of the pool
ordered by reference field energy.  The reference holds the receiver
values of every pool source on a finer mesh, so any seed can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"

MIN_ROUNDS = 2

# Entry points every workload calls; names follow perfbench/spans.py.
_COMMON = (
    "cli.load_config",
    "geometry.build_region_mesh",
    "quad.fold_integrate_batch",
    "layered_green.scattered_batch",
    "specfun.phi_matrix",
    "specfun.bessel_j0j1_y0y1_arrays",
    "ls_volume.planar_scattered_matrix",
    "ls_volume.planar_green_matrix",
    "ls_volume.planar_field_column",
    "ls_volume.assemble_B1_operator",
    "ls_volume.assemble_B2_operator",
    "ls_volume.factorize",
    "ls_volume.dense_solve",
    "ls_volume.solve_stage2",
    "ls_volume.extend_stage2_many",
    "forward.ForwardSolver",
    "forward.solve",
    "forward.scattered",
)
_OBSTACLE = (
    "geometry.obstacle_nodes",
    "obstacle.build_rough_kernel_context",
    "obstacle.RoughKernel",
    "obstacle.smooth_part",
    "obstacle.layer_matrices",
    "obstacle.scattered_from_density",
)


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str                  # file name under perfbench/scenes
    reference: str              # file name under perfbench/reference
    sources: int                # pass-1 sources, the same in every round
    pass2_sources: int          # the first n of them also run in pass 2
    round_s: float              # nominal seconds of one round, 2 cores
    err_bound: float            # receiver_err above this fails the run
    uses: tuple                 # traced entry points the workload must call

    @property
    def scene_path(self) -> Path:
        return BENCH_DIR / "scenes" / self.scene

    @property
    def reference_path(self) -> Path:
        return BENCH_DIR / "reference" / self.reference

    def rounds(self, seconds: float) -> int:
        """Rounds a run of `seconds` is expected to make."""
        return max(MIN_ROUNDS, int(seconds // self.round_s))


# Why each workload: dataset-bump, many sources on the shipped bump scene,
# is bound by the per-source path and the worker pool; obstacle-soft by the
# Fourier integrals behind the obstacle kernel columns in set-up; fine-bump,
# the bump at a twice finer cell, by kernel assembly, LU and memory;
# obstacle-impedance re-assembles the boundary equation for every source.
# The obstacle rounds are short (10 sources) so that two fit in a run on a
# slow machine; their latency tail needs four rounds.
WORKLOADS = {w.name: w for w in (
    Workload("dataset-bump", "bump.json", "bump.json", 100, 100, 11.0, 0.2,
             _COMMON),
    Workload("obstacle-soft", "obstacle-soft.json", "obstacle-soft.json",
             10, 10, 10.0, 0.2,
             _COMMON + _OBSTACLE + ("obstacle.assemble_bie",)),
    Workload("fine-bump", "bump-fine.json", "bump.json", 20, 20, 11.0, 0.02,
             _COMMON),
    Workload("obstacle-impedance", "obstacle-impedance.json",
             "obstacle-impedance.json", 10, 4, 15.0, 0.2,
             _COMMON + _OBSTACLE + ("obstacle.neumann_impedance_solve",)),
)}


def source_to_json(src) -> dict:
    out = {"kind": src.kind, "position": [float(src.position[0]),
                                          float(src.position[1])]}
    if src.kind == "dipole":
        out["direction"] = int(src.direction)
    return out


def source_from_json(doc):
    from layered_scatter import SourceSpec
    return SourceSpec(doc["kind"], tuple(doc["position"]),
                      doc.get("direction", 0))


def make_pool(seed: int, count: int) -> list:
    """Sources above the bump and below the receiver line: half monopoles,
    a quarter horizontal and a quarter vertical dipoles."""
    from layered_scatter import SourceSpec
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(count):
        pos = (float(rng.uniform(-1.8, 1.8)), float(rng.uniform(0.5, 1.5)))
        u = rng.random()
        if u < 0.5:
            pool.append(SourceSpec("monopole", pos))
        else:
            pool.append(SourceSpec("dipole", pos, 1 if u < 0.75 else 2))
    return pool


def draw_sources(pool: list, strength, seed: int, count: int) -> tuple:
    """(pool indices, sources): one source from each of `count` strata of
    the pool ordered by `strength`, in seeded run order.  With the reference
    field energy at the receivers as strength, every draw mixes strong and
    weak fields alike, so the receiver error moves less from seed to seed."""
    rng = np.random.default_rng(seed)
    strata = np.array_split(np.argsort(strength, kind="stable"), count)
    idx = rng.permutation([rng.choice(s) for s in strata])
    return idx, [pool[i] for i in idx]
