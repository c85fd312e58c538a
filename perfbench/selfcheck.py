"""Self-checks of the benchmark harness.

    python3 perfbench/selfcheck.py

Covers the latency-tail rule, the counting of failed solves and the
wall-clock cap that turns a hung workload into a failed run.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from harness import closed_loop, receiver_error, tail_latency
from workloads import SRC_DIR

HANG_CAP_S = 8.0


def check_tail_rule():
    assert tail_latency(range(1, 201)) == (95.0, 190, 10)
    assert tail_latency(range(1, 41)) == (75.0, 30, 10)
    assert tail_latency(range(1, 1001)) == (99.0, 990, 10)
    # 20 samples leave five beyond p75: too few for any tail
    assert tail_latency(range(1, 21)) is None
    assert tail_latency([]) is None


def check_failure_counting():
    sys.path.insert(0, str(SRC_DIR))
    from layered_scatter.errors import (AccuracyError, LayeredScatterError,
                                        SolverError)

    def solve_one(i):
        if i == 1:
            raise AccuracyError("residual too large")
        if i == 3:
            raise SolverError("singular matrix")
        return np.full(2, complex(i))

    cols, lat, fails = closed_loop(range(5), solve_one,
                                   (LayeredScatterError,))
    assert [f[:2] for f in fails] == [(1, "AccuracyError"), (3, "SolverError")]
    assert len(lat) == 5 and cols[1] is None and cols[3] is None
    assert cols[4][0] == 4
    ref = [np.full(2, complex(i)) for i in range(5)]
    assert receiver_error(cols, ref) == (0.0, 0.0)
    assert np.isnan(receiver_error([None], ref[:1])[0])

    def untyped(i):
        raise ZeroDivisionError
    try:
        closed_loop([0], untyped, (LayeredScatterError,))
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("an untyped error must not count as a failure")


def check_cap():
    from run import measure
    cmd = [sys.executable, __file__, "--hang"]
    t0 = time.monotonic()
    result, lines = measure("dataset-bump", 1, 10, 0, cap_s=HANG_CAP_S,
                            cmd=cmd)
    wall = time.monotonic() - t0
    assert wall < HANG_CAP_S + 10.0, wall
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "cap" in lines[0], lines


def hang():
    """A workload that never finishes: a NaN source position (which hangs
    the adaptive quadrature in versions without an input check), then an
    endless sleep in case the solve returns or raises."""
    sys.path.insert(0, str(SRC_DIR))
    from layered_scatter import ForwardSolver, SourceSpec
    from layered_scatter.cli import load_config
    from workloads import WORKLOADS
    scene = load_config(str(WORKLOADS["dataset-bump"].scene_path)).scene
    try:
        ForwardSolver(scene).solve(SourceSpec("monopole", (float("nan"), 1.0)))
    except Exception:  # noqa: BLE001 - any outcome falls through to the hang
        pass
    while True:
        time.sleep(1.0)


def main(argv) -> int:
    if argv[1:] == ["--hang"]:
        hang()
    failed = 0
    for check in (check_tail_rule, check_failure_counting, check_cap):
        try:
            check()
            print("ok    %s" % check.__name__)
        except AssertionError as exc:
            failed += 1
            print("FAIL  %s %s" % (check.__name__, exc))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
