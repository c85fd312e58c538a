"""Benchmark of the layered-scatter solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a child process
(perfbench/workload.py) under a wall-clock cap, so a hung solve is reported
as a failed run instead of hanging the benchmark.  The report lists every
metric with its unit, the output checks and the provenance; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.

Exit code 0 with a result line, 2 without one when the solver package or a
benchmark input is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from harness import run_capped
from workloads import BENCH_DIR, ROOT, SRC_DIR, WORKLOADS

CAP_S = 165.0      # wall-clock cap on one workload process
EXIT_MISSING = 3   # workload.py: solver package or input missing
# One BLAS thread per worker: pass 2 runs two workers, and a run should not
# ask for more threads than a 2-core machine has.  Idle OpenBLAS threads
# spin, so with its default of one thread per core a single worker keeps
# both cores busy and slows down whenever anything else runs.
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}


def _listed_metrics(trace: int):
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
    except OSError:
        return None
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def _planned_attempts(name: str, seconds: float, trace: int) -> int:
    w = WORKLOADS[name]
    if trace:
        return 2 * w.sources
    return w.rounds(seconds) * (w.sources + w.pass2_sources)


def measure(name, seed, seconds, trace, cap_s=CAP_S, cmd=None):
    """(result, report lines) of one capped workload run, or (None, lines)
    when the workload could not start because an input is missing."""
    if cmd is None:
        cmd = [sys.executable, str(BENCH_DIR / "workload.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    rc, out, err, timed_out, wall = run_capped(
        cmd, cap_s, cwd=ROOT, env=dict(os.environ, **BLAS_ENV))
    lines = []
    if rc == EXIT_MISSING:
        return None, [err.strip()]
    child = None
    if not timed_out and rc == 0 and out.strip():
        try:
            child = json.loads(out.strip().splitlines()[-1])
        except json.JSONDecodeError:
            child = None
    if child is None:
        n = _planned_attempts(name, seconds, trace)
        why = ("exceeded the %.0f s cap" % cap_s if timed_out
               else "exited with code %s" % rc)
        lines.append("FAILED: the workload process %s after %.1f s"
                     % (why, wall))
        lines.extend("  " + s for s in err.strip().splitlines()[-15:])
        return {"correct": False, "attempted": n, "failed": n,
                "metrics": {}}, lines

    report = child.get("report", {})
    metrics = child["metrics"]
    correct = bool(child["correct"])
    lines.append("%-44s %14s  %s" % ("metric", "value", "unit"))
    for key in sorted(metrics):
        v = metrics[key]
        note = ""
        if key == "solve_tail_ms":
            note = "  (%s)" % report.get("tail", "")
        elif key == "setup_s":
            note = "  (median of %s set-ups)" % report.get("setup_samples")
        elif key in ("dataset_s", "sources_per_s"):
            note = "  (median of %s rounds)" % report.get("rounds")
        lines.append("%-44s %14.6g  %s%s" % (key, v["value"], v["unit"], note))
    if "solve_tail_ms" not in metrics and "tail" in report:
        lines.append("solve_tail_ms: %s" % report["tail"])
    for key, share in sorted(report.get("setup_shares", {}).items(),
                             key=lambda kv: -kv[1])[:6]:
        lines.append("set-up self-time share %-24s %6.1f %%"
                     % (key, 100 * share))
    if report.get("absent"):
        lines.append("absent entry points: " + ", ".join(report["absent"]))
    lines.extend("check: " + c for c in report.get("checks", []))
    for key, xs in sorted(report.get("samples", {}).items()):
        lines.append("samples %s: %s" % (key, " ".join("%.4g" % x
                                                      for x in xs)))

    listed = _listed_metrics(trace)
    absent = tuple(a + "." for a in report.get("absent", []))
    final = {}
    for key in (listed if listed is not None else sorted(metrics)):
        v = metrics.get(key)
        if v is None:
            if not key.startswith(absent):
                correct = False
                lines.append("check: metric %s missing" % key)
            continue
        if not math.isfinite(v["value"]):
            correct = False
            lines.append("check: metric %s is not finite" % key)
            continue
        final[key] = {"value": v["value"], "unit": v["unit"]}
    lines.append("provenance: " + json.dumps(report.get("provenance"),
                                             sort_keys=True))
    return {"correct": correct, "attempted": int(child["attempted"]),
            "failed": int(child["failed"]), "metrics": final}, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="layered-scatter benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    missing = [p for p in (SRC_DIR / "layered_scatter" / "__init__.py",
                           w.scene_path, w.reference_path) if not p.is_file()]
    if missing:
        print("benchmark input missing: %s" % ", ".join(map(str, missing)),
              file=sys.stderr)
        return 2
    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace), flush=True)
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    if result is None:
        return 2
    print(json.dumps(result, sort_keys=True, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
