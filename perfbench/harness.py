"""Measurement rules shared by the benchmark, make_reference.py and the
self-checks: latency percentiles, the closed-loop source pass, the receiver
error, the wall-clock cap on a workload process and the provenance record.

Importing this module does not import the solver.
"""

from __future__ import annotations

import math
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10    # samples a reported tail needs strictly beyond it
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "LAYERED_SCATTER_THREADS")


def tail_latency(samples):
    """(percentile, value, beyond) of the highest ladder percentile with at
    least TAIL_BEYOND samples strictly beyond it, or None when the sample
    is too small for any tail.  Percentiles use the nearest-rank rule."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)       # 1-based nearest rank
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return p, xs[rank - 1], n - rank
    return None


def closed_loop(sources, solve_one, typed_errors):
    """Solve the sources one after another (one worker, closed loop).

    Returns (columns, latencies_s, failures).  A source whose solve raises
    one of typed_errors leaves None in its column slot, is recorded in
    failures as (index, error name, message), and the loop carries on.
    Every latency is kept, failed solves included.
    """
    columns, lat, failures = [], [], []
    for i, src in enumerate(sources):
        t0 = time.perf_counter()
        try:
            col = solve_one(src)
        except typed_errors as exc:
            col = None
            failures.append((i, type(exc).__name__, str(exc)))
        lat.append(time.perf_counter() - t0)
        columns.append(col)
    return columns, lat, failures


def receiver_error(columns, reference):
    """(max, rms) relative error of the computed columns against the
    reference: max |u - u_ref| / max |u_ref| and ||u - u_ref|| / ||u_ref||
    over every source and receiver.  NaN when no column was computed."""
    got = [(c, r) for c, r in zip(columns, reference) if c is not None]
    if not got:
        return float("nan"), float("nan")
    u = np.array([c for c, _ in got])
    ref = np.array([r for _, r in got])
    diff = np.abs(u - ref)
    return (float(np.max(diff) / np.max(np.abs(ref))),
            float(np.linalg.norm(diff) / np.linalg.norm(ref)))


def run_capped(cmd, cap_s: float, cwd=None, env=None):
    """Run cmd with a wall-clock cap.

    Returns (returncode, stdout, stderr, timed_out, wall_s).  A process
    that outlives the cap is killed and waited for; its returncode is None.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=cap_s)
        return proc.returncode, out, err, False, time.monotonic() - t0
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return None, out, err, True, time.monotonic() - t0


def git_commit(root: Path) -> str:
    """Commit of a git checkout at root, read from .git without running git;
    "unknown" outside a git checkout."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_libraries():
    out = {}
    for mod_name in ("numpy", "scipy"):
        try:
            mod = __import__(mod_name)
            cfg = mod.show_config(mode="dicts")
            blas = cfg["Build Dependencies"]["blas"]
            out[mod_name] = "%s %s" % (blas.get("name"), blas.get("version"))
        except (ImportError, KeyError, TypeError, AttributeError):
            out[mod_name] = "unknown"
    return out


def provenance(root: Path, seed: int, workers, source_counts) -> dict:
    import numpy
    import scipy
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "blas": _blas_libraries(),
        "blas_thread_vars": {k: os.environ.get(k, "unset")
                             for k in BLAS_THREAD_VARS},
        "workers": workers,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(root),
        "seed": seed,
        "source_counts": source_counts,
    }
