#!/usr/bin/env python3
"""Synthesize a near-field dataset for a configured scene.

Reads a JSON configuration (see configs/), solves the forward problem for
every listed source and writes the scattered-field samples on the receiver
line as CSV.  Equivalent to `layered-scatter forward`, kept as a script so
the experiment is easy to modify in place.
"""

import argparse
import sys
import time

from layered_scatter.cli import load_config
from layered_scatter.forward import ForwardSolver, synthesize_dataset


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config", help="JSON scene configuration")
    ap.add_argument("--output", default="nearfield.csv")
    ap.add_argument("--threads", type=int, default=1,
                    help="dataset worker processes (forked)")
    args = ap.parse_args()

    run = load_config(args.config)
    if not run.sources:
        print("configuration lists no sources", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    solver = ForwardSolver(run.scene)
    t1 = time.perf_counter()
    records = synthesize_dataset(run.scene, list(run.sources),
                                 threads=args.threads, solver=solver)
    t2 = time.perf_counter()

    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("source_index,xs1,xs2,x1,x2,re_us,im_us\n")
        for r in records:
            fh.write("%d,%r,%r,%r,%r,%r,%r\n"
                     % (r.source_index, r.source_position[0],
                        r.source_position[1], r.receiver[0], r.receiver[1],
                        r.value.real, r.value.imag))

    print("scene setup   %6.2f s" % (t1 - t0))
    print("%d solves     %6.2f s" % (len(run.sources), t2 - t1))
    print("wrote %d rows to %s" % (len(records), args.output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
