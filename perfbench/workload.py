"""One workload run in its own process; prints one JSON result line.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (--trace 0), closed loop, in rounds: at least two, and more while
the next round should end nearer to --seconds than the last.  Every round
  * builds a solver (config load + ForwardSolver, timed as set-up) and
    solves the sources one after another on it (pass 1, one worker),
    timing each solve(src).scattered(receivers);
  * builds a second solver, which no kernel cache of pass 1 helps, and
    runs synthesize_dataset(threads=2) on it (pass 2).
Rounds spread every metric over the whole run, so a slow spell of the
machine moves one round's numbers, not the medians.
Traced (--trace 1): one untraced set-up + pass 1, then the same again with
spans installed, which gives the per-layer metrics and the overhead.

Exit code 3 means the solver package or a benchmark input is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import numpy as np

from harness import closed_loop, provenance, receiver_error, tail_latency
from workloads import (MIN_ROUNDS, ROOT, SRC_DIR, WORKLOADS, draw_sources,
                       source_from_json)

PASS2_WORKERS = 2


def _load(name):
    if not (SRC_DIR / "layered_scatter" / "__init__.py").is_file():
        raise FileNotFoundError("solver package not found under %s" % SRC_DIR)
    sys.path.insert(0, str(SRC_DIR))
    w = WORKLOADS[name]
    with open(w.reference_path, encoding="utf-8") as fh:
        ref = json.load(fh)
    if not w.scene_path.is_file():
        raise FileNotFoundError("scene %s not found" % w.scene_path)
    return w, ref


class Run:
    """The solver modules, the drawn sources and their reference values."""

    def __init__(self, w, ref, seed):
        import layered_scatter.cli as cli
        import layered_scatter.errors as errors
        import layered_scatter.forward as forward
        self.cli, self.forward = cli, forward
        self.typed = (errors.LayeredScatterError,)
        self.w = w
        pool = [source_from_json(r["source"]) for r in ref["pool"]]
        strength = [sum(a * a + b * b for a, b in r["values"])
                    for r in ref["pool"]]
        idx, self.sources = draw_sources(pool, strength, seed,
                                         min(w.sources, len(pool)))
        self.reference = [np.array([complex(a, b) for a, b in
                                    ref["pool"][i]["values"]]) for i in idx]
        self.ref_receivers = np.array(ref["receivers"])

    def build(self):
        t0 = time.perf_counter()
        scene = self.cli.load_config(str(self.w.scene_path)).scene
        solver = self.forward.ForwardSolver(scene)
        return solver, time.perf_counter() - t0

    def pass1(self, solver):
        pts = solver.config.receivers.points()
        if not np.array_equal(pts, self.ref_receivers):
            raise ValueError("scene receivers differ from the reference's")
        t0 = time.perf_counter()
        cols, lat, fails = closed_loop(
            self.sources, lambda s: solver.solve(s).scattered(pts), self.typed)
        return cols, lat, fails, time.perf_counter() - t0


def _table_bytes(columns):
    return np.array(columns, dtype=complex).tobytes()


def untraced(run: Run, seconds: float, report: dict):
    n = len(run.sources)
    pass2 = run.sources[:run.w.pass2_sources]
    n_rx = len(run.ref_receivers)
    setups, datasets, rates, lat = [], [], [], []
    first, failed, ok = None, 0, True
    deadline = time.perf_counter() + seconds
    round_walls, r = [], 0
    # Another round while it should end less than half a round past the
    # deadline, so that a run lasts about --seconds.
    while r < MIN_ROUNDS or (time.perf_counter()
                             + statistics.median(round_walls) / 2 <= deadline):
        t_round = time.perf_counter()
        solver, t = run.build()
        setups.append(t)
        cols, lat_r, fails, wall = run.pass1(solver)
        del solver
        datasets.append(t + wall)
        lat.extend(lat_r)
        failed += len(fails)
        report["checks"].extend("round %d source %d failed: %s: %s"
                                % ((r,) + f) for f in fails)
        if first is None:
            first = cols
        elif not fails and all(c is not None for c in first) \
                and _table_bytes(cols) != _table_bytes(first):
            ok = False
            report["checks"].append("round %d table differs from round 0" % r)

        solver, t = run.build()
        setups.append(t)
        t0 = time.perf_counter()
        try:
            records = run.forward.synthesize_dataset(
                solver.config, pass2, threads=PASS2_WORKERS, solver=solver)
        except run.typed as exc:
            records = None
            failed += len(pass2)
            report["checks"].append("round %d pass 2 raised %s: %s"
                                    % (r, type(exc).__name__, exc))
        rates.append(len(pass2) / (time.perf_counter() - t0))
        del solver
        if records is not None and not fails:
            cols2 = [[rec.value for rec in records[i * n_rx:(i + 1) * n_rx]]
                     for i in range(len(pass2))]
            same = _table_bytes(cols[:len(pass2)]) == _table_bytes(cols2)
            ok &= same
            if not same:
                report["checks"].append(
                    "round %d: pass-2 table (%d workers) differs from pass 1"
                    % (r, PASS2_WORKERS))
        round_walls.append(time.perf_counter() - t_round)
        r += 1
    rounds = r
    report["checks"].append(
        "determinism: %d rounds, pass 1 (1 worker) and pass 2 (%d workers, "
        "%d sources) %s" % (rounds, PASS2_WORKERS, len(pass2),
                            "byte-identical" if ok else "DIFFER"))

    m = {
        "setup_s": (statistics.median(setups), "s"),
        "dataset_s": (statistics.median(datasets), "s"),
        "solve_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "sources_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    attempted = rounds * (n + len(pass2))
    m["failed_frac"] = (failed / attempted, "frac")
    tail = tail_latency(lat)
    if tail is None:
        report["tail"] = "none: %d samples are too few" % len(lat)
    else:
        pct, value, beyond = tail
        m["solve_tail_ms"] = (1e3 * value, "ms")
        report["tail"] = "p%g of %d samples, %d beyond" % (pct, len(lat),
                                                            beyond)
    report["setup_samples"] = len(setups)
    report["rounds"] = rounds
    report["samples"] = {"setup_s": setups, "dataset_s": datasets,
                         "sources_per_s": rates}
    return m, first, attempted, failed, ok


def traced(run: Run, report: dict):
    from spans import Tracer, dense_bytes, layer_metrics, setup_shares
    solver, setup0 = run.build()
    cols0, _, fails0, wall0 = run.pass1(solver)
    del solver

    tr = Tracer()
    tr.install()
    try:
        tr.phase = "setup"
        solver, setup1 = run.build()
        tr.phase = "solve"
        cols, _, fails, wall1 = run.pass1(solver)
    finally:
        tr.uninstall()
    m = layer_metrics(tr, setup1 + wall1, setup0 + wall0)
    m["ls_volume.dense_bytes_computed"] = (dense_bytes(solver), "bytes")
    del solver

    ok = True
    if not fails and not fails0:
        same = _table_bytes(cols) == _table_bytes(cols0)
        report["checks"].append("traced outputs equal untraced: %s"
                                % ("yes" if same else "NO"))
        ok &= same
    silent = [e for e in run.w.uses if e not in tr.absent and not tr.calls[e]]
    if silent:
        ok = False
        report["checks"].append("wrapped entry points with no call: "
                                + ", ".join(silent))
    else:
        report["checks"].append("every expected entry point was called")
    report["absent"] = tr.absent
    report["setup_shares"] = setup_shares(tr, setup1)
    for f in fails0 + fails:
        report["checks"].append("source %d failed: %s: %s" % f)
    return m, cols, 2 * len(run.sources), len(fails0) + len(fails), ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        w, ref = _load(args.workload)
    except (OSError, ValueError) as exc:
        print("cannot set up the workload: %s" % exc, file=sys.stderr)
        return 3
    run = Run(w, ref, args.seed)
    report = {"checks": [], "provenance": provenance(
        ROOT, args.seed, [1] if args.trace else [1, PASS2_WORKERS],
        {w.name: len(run.sources)})}
    if args.trace:
        metrics, cols, attempted, failed, ok = traced(run, report)
    else:
        metrics, cols, attempted, failed, ok = untraced(
            run, args.seconds, report)
    err, rms = receiver_error(cols, run.reference)
    if not args.trace:
        metrics["receiver_err"] = (err, "rel")
        metrics["receiver_rms_err"] = (rms, "rel")
    within = err <= w.err_bound
    report["checks"].append("receiver_err %.4g %s bound %g"
                            % (err, "within" if within else "EXCEEDS",
                               w.err_bound))
    result = {
        "correct": bool(ok and within and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
        "report": report,
    }
    print(json.dumps(result, sort_keys=True, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
