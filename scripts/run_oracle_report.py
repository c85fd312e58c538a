#!/usr/bin/env python3
"""Compare the solver chain against its independent oracles and print a
small report: series-solution agreement for a circle in free space
(sound-soft, Neumann, impedance and penetrable, with the interior field
of the last),
the flat-scene composition identity (a flat interface builds no cell, so
the solver must return the planar kernel), and reciprocity of the planar
kernel and of the rough-interface kernel over a dip (whose cells all lie
under x2 = 0) and over the shipped bump (whose cells all lie over it).

All comparisons here are also enforced (with tolerances) by the test
suite; this script exists to eyeball the actual numbers.
"""

import sys

import numpy as np

from layered_scatter.forward import ForwardSolver, ObstacleSpec, SceneConfig
from layered_scatter.geometry import ObstacleCurve, ReceiverLine
from layered_scatter.layered_green import MediumParams, PlanarGreen, SourceSpec
from layered_scatter.obstacle import green_rough_columns
from layered_scatter.verify import mie_interior_circle, mie_series_circle


def mie_comparison() -> None:
    circle = ObstacleCurve("circle", (0.0, -2.0), 0.5)
    src = (2.0, -2.0)
    n = 1.5 + 0.1j
    lam = 2.0
    th = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
    pts = np.stack([1.4 * np.cos(th), -2.0 + 1.4 * np.sin(th)], axis=-1)
    for condition in ("sound_soft", "neumann", "impedance", "penetrable"):
        index = n if condition == "penetrable" else None
        impedance = lam if condition == "impedance" else 0.0
        config = SceneConfig(
            medium=MediumParams(2.0, 2.0), cell_size=0.25,
            obstacle=ObstacleSpec(curve=circle, condition=condition,
                                  lam=impedance, boundary_M=32, n=index,
                                  cell_size=0.05))
        ev = ForwardSolver(config).solve(SourceSpec("monopole", src))
        errs = [abs(v - mie_series_circle(condition, 0.5, 2.0, src,
                                          tuple(p), n=index,
                                          center=(0.0, -2.0), lam=impedance))
                for p, v in zip(pts, ev.scattered(pts))]
        print("circle %-11s vs series: max error %.2e"
              % (condition, max(errs)))
    q = (0.2, -1.9)
    err = abs(ev.total(q) - mie_interior_circle(0.5, 2.0, n, src, q,
                                                center=(0.0, -2.0)))
    print("circle penetrable  interior field at %s: error %.2e" % (q, err))


def composition_identity() -> None:
    medium = MediumParams(1.0, 1.5)
    src = SourceSpec("monopole", (0.3, 1.2))
    config = SceneConfig(medium=medium, cell_size=0.05,
                         receivers=ReceiverLine(2.0, 3.0, 11))
    ev = ForwardSolver(config).solve(src)
    pts = config.receivers.points()
    green = PlanarGreen(medium)
    errs = [abs(v - green.scattered(p, src.position))
            for p, v in zip(pts, ev.scattered(pts))]
    print("flat-scene composition identity: max error %.2e" % max(errs))


def reciprocity() -> None:
    medium = MediumParams(1.0, 1.5)
    green = PlanarGreen(medium, 1e-10)
    x, y = (0.3, 0.7), (-0.2, 1.1)
    a = green.scattered(x, y)
    print("planar reciprocity defect: %.2e"
          % (abs(a - green.scattered(y, x)) / abs(a)))

    from layered_scatter.geometry import InterfaceProfile
    p, q = np.array([[0.43, 1.07]]), np.array([[-0.81, 0.63]])
    for level, height in (("rough-interface (dip)", -0.3),
                          ("rough-interface (bump)", 0.3)):
        config = SceneConfig(medium=medium,
                             profile=InterfaceProfile(((0.0, 1.0, height),)),
                             cell_size=0.2)
        solver = ForwardSolver(config)
        a = green_rough_columns(p, solver.b2, medium, q)[0, 0]
        b = green_rough_columns(q, solver.b2, medium, p)[0, 0]
        print("%s reciprocity defect: %.2e" % (level, abs(a - b) / abs(a)))


def main() -> int:
    mie_comparison()
    composition_identity()
    reciprocity()
    return 0


if __name__ == "__main__":
    sys.exit(main())
