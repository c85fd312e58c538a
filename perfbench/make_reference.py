"""Build a workload's accuracy reference: the receiver values of every pool
source, solved on a finer mesh than the benchmark uses.

    python3 perfbench/make_reference.py --scene bump.json --cell 0.05 \
        --pool-seed 2102 --count 400 --out perfbench/reference/bump.json

Run it from the root of a checkout.  It records the command, the pool
seed, the commit and the run's time and peak memory beside the values.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import replace

from workloads import BENCH_DIR, ROOT, SRC_DIR, make_pool, source_to_json

sys.path.insert(0, str(SRC_DIR))

from harness import git_commit, provenance  # noqa: E402
from layered_scatter import ForwardSolver  # noqa: E402
from layered_scatter.cli import load_config  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scene", required=True,
                    help="scene file name under perfbench/scenes")
    ap.add_argument("--cell", type=float, required=True)
    ap.add_argument("--boundary-M", type=int, default=None)
    ap.add_argument("--pool-seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--note", default="",
                    help="estimate of the reference's own error")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    scene = load_config(str(BENCH_DIR / "scenes" / args.scene)).scene
    scene = replace(scene, cell_size=args.cell)
    if args.boundary_M is not None:
        scene = replace(scene, obstacle=replace(scene.obstacle,
                                                boundary_M=args.boundary_M))
    solver = ForwardSolver(scene)
    setup_s = time.perf_counter() - t0
    print("set-up %.1f s, n1 %d, n2 %d" % (setup_s, solver.mesh_B1.n,
                                          solver.mesh_B2.n), flush=True)
    pts = scene.receivers.points()
    pool = make_pool(args.pool_seed, args.count)
    rows = []
    for i, src in enumerate(pool):
        us = solver.solve(src).scattered(pts)
        rows.append({"source": source_to_json(src),
                     "values": [[float(v.real), float(v.imag)] for v in us]})
        if (i + 1) % 25 == 0:
            print("%d/%d sources, %.0f s" % (i + 1, len(pool),
                                             time.perf_counter() - t0),
                  flush=True)
    doc = {
        "command": "python3 perfbench/make_reference.py "
                   + " ".join(argv if argv is not None else sys.argv[1:]),
        "scene": args.scene,
        "cell_size": args.cell,
        "boundary_M": scene.obstacle.boundary_M if scene.obstacle else None,
        "pool_seed": args.pool_seed,
        "commit": git_commit(ROOT),
        "reference_error_note": args.note,
        "n1": solver.mesh_B1.n,
        "n2": solver.mesh_B2.n,
        "setup_s": round(setup_s, 1),
        "wall_s": round(time.perf_counter() - t0, 1),
        "peak_rss_mb": round(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        "provenance": provenance(ROOT, args.pool_seed, 1,
                                 {args.scene: len(pool)}),
        "receivers": pts.tolist(),
        "pool": rows,
    }
    head = json.dumps({k: v for k, v in doc.items() if k != "pool"},
                      indent=1)
    body = ",\n".join("  " + json.dumps(r) for r in rows)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(head[:-2] + ',\n "pool": [\n' + body + "\n ]\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
