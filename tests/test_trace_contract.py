"""The benchmark's traced runs wrap solver entry points by name
(perfbench/spans.py) and expect each workload to call a fixed list of them
(perfbench/workloads.py).  A renamed or bypassed entry point, or a counter
whose argument moved, turns a traced run into a failure; this test finds
that inside the test suite, on the same scene files, with the benchmark's
own Tracer."""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return spans, workloads


def test_traced_entry_points_all_called(bench_modules):
    from layered_scatter import cli
    from layered_scatter.forward import ForwardSolver
    spans, workloads = bench_modules
    sources = workloads.make_pool(5, 2)
    tr = spans.Tracer()
    tr.install()
    try:
        t0 = time.perf_counter()
        solvers = []
        for scene in ("bump.json", "obstacle-soft.json"):
            config = cli.load_config(str(BENCH / "scenes" / scene)).scene
            solver = ForwardSolver(config)
            rx = config.receivers.points()
            for src in sources:
                solver.solve(src).scattered(rx)
            solvers.append(solver)
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    expected = workloads._COMMON + workloads._OBSTACLE \
        + ("obstacle.assemble_bie",)
    assert [e for e in expected if not tr.calls[e]] == []
    assert tr.absent == []
    m = spans.layer_metrics(tr, wall, wall)
    m["ls_volume.dense_bytes_computed"] = (spans.dense_bytes(solvers[1]),
                                           "bytes")
    assert all(np.isfinite(v) for v, _ in m.values())
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = [e["name"] for e in json.load(fh)["per_layer"]]
    assert [name for name in listed if name not in m] == []
