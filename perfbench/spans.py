"""Spans and counters around the solver's public entry points, attached
from outside the package.

The solver binds many names at import time (forward imports
assemble_B1_operator, obstacle imports planar_green_matrix, layered_green
imports fold_integrate_batch).  A wrapper is therefore installed on every
module of the package that holds the original object, and on the class for
methods.  An entry point missing from the package is reported as absent.

Spans are kept in memory; the traced pass runs on one thread.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "layered_scatter"
MODULES = ("cli", "geometry", "quad", "layered_green", "specfun",
           "ls_volume", "obstacle", "forward")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(args, kwargs, i, name):
    return int(np.shape(_arg(args, kwargs, i, name))[0])


def _scattered_batch_key(tr, state, args, kwargs, result):
    key = tuple(_arg(args, kwargs, i, n) for i, n in
                ((1, "kind"), (2, "ell"), (3, "x2"), (4, "xs2")))
    offsets = np.asarray(_arg(args, kwargs, 5, "offsets"), float)
    tr.keys.add(hash(key + (offsets.tobytes(),)))


def _region_mesh(tr, state, args, kwargs, result):
    tag = _arg(args, kwargs, 0, "region_tag")
    if tag in ("B1", "B2"):
        tr.gauges["geometry." + ("n1" if tag == "B1" else "n2")] = result.n


def _boundary_nodes(tr, state, args, kwargs, result):
    tr.gauges["geometry.boundary_nodes"] = result.n


def _rhs_columns(tr, state, args, kwargs, result):
    rhs = _arg(args, kwargs, 1, "rhs")
    tr.add("ls_volume.dense_solve.rhs_columns",
           1 if np.ndim(rhs) == 1 else np.shape(rhs)[1])


def _fresh_lu(args, kwargs):
    # factorize() also runs inside every solve(); count real factorizations
    return getattr(args[0], "_lu", None) is None


def _count_factorization(tr, fresh, args, kwargs, result):
    tr.add("ls_volume.factorize.calls", 1 if fresh else 0)


# (span name, module, attribute, after hook, before hook, counter name,
#  counter function of the call arguments)
ENTRIES = (
    ("cli.load_config", "cli", "load_config", None, None, None, None),
    ("geometry.build_region_mesh", "geometry", "build_region_mesh",
     _region_mesh, None, None, None),
    ("geometry.obstacle_nodes", "geometry", "obstacle_nodes",
     _boundary_nodes, None, None, None),
    ("quad.fold_integrate_batch", "quad", "fold_integrate_batch", None, None,
     "offsets", lambda a, k: np.size(_arg(a, k, 2, "offsets"))),
    ("layered_green.scattered_batch", "layered_green",
     "PlanarGreen.scattered_batch", _scattered_batch_key, None, None, None),
    ("specfun.phi_matrix", "specfun", "phi_matrix", None, None,
     "points", lambda a, k: np.size(_arg(a, k, 1, "r"))),
    ("specfun.bessel_j0j1_y0y1_arrays", "specfun", "bessel_j0j1_y0y1_arrays",
     None, None, "points", lambda a, k: np.size(_arg(a, k, 0, "x"))),
    ("ls_volume.planar_scattered_matrix", "ls_volume",
     "planar_scattered_matrix", None, None, "entries",
     lambda a, k: _rows(a, k, 1, "X") * _rows(a, k, 2, "Y")),
    ("ls_volume.planar_green_matrix", "ls_volume", "planar_green_matrix",
     None, None, None, None),
    ("ls_volume.planar_field_column", "ls_volume", "planar_field_column",
     None, None, None, None),
    ("ls_volume.assemble_B1_operator", "ls_volume", "assemble_B1_operator",
     None, None, None, None),
    ("ls_volume.assemble_B2_operator", "ls_volume", "assemble_B2_operator",
     None, None, None, None),
    ("ls_volume.factorize", "ls_volume", "DenseOperator.factorize",
     _count_factorization, _fresh_lu, None, None),
    ("ls_volume.dense_solve", "ls_volume", "DenseOperator.solve",
     _rhs_columns, None, None, None),
    ("ls_volume.solve_stage2", "ls_volume", "solve_stage2", None, None,
     None, None),
    ("ls_volume.extend_stage2_many", "ls_volume", "extend_stage2_many",
     None, None, "points", lambda a, k: _rows(a, k, 1, "X")),
    ("obstacle.build_rough_kernel_context", "obstacle",
     "build_rough_kernel_context", None, None, None, None),
    ("obstacle.RoughKernel", "obstacle", "RoughKernel.__init__", None, None,
     "columns", lambda a, k: _rows(a, k, 3, "sources")),
    ("obstacle.smooth_part", "obstacle", "RoughKernel.smooth_part", None,
     None, None, None),
    ("obstacle.layer_matrices", "obstacle", "layer_matrices", None, None,
     None, None),
    ("obstacle.assemble_bie", "obstacle", "assemble_bie", None, None,
     None, None),
    ("obstacle.neumann_impedance_solve", "obstacle",
     "neumann_impedance_solve", None, None, None, None),
    ("obstacle.scattered_from_density", "obstacle", "scattered_from_density",
     None, None, None, None),
    ("forward.ForwardSolver", "forward", "ForwardSolver.__init__", None,
     None, None, None),
    ("forward.solve", "forward", "ForwardSolver.solve", None, None,
     None, None),
    ("forward.scattered", "forward", "FieldEvaluator.scattered", None, None,
     None, None),
)


class Tracer:
    """Records spans (name, start, end, parent, phase) and counters."""

    def __init__(self):
        self.phase = "setup"
        self.spans = []          # [name, t0, t1, parent index, phase]
        self._stack = []
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.gauges = {}
        self.keys = set()
        self.absent = []
        self._restore = []

    def add(self, name, value):
        self.counters[name] += value

    # -- installation -------------------------------------------------------
    def install(self):
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for span, mod_name, attr, after, before, cname, cfun in ENTRIES:
            mod = pkg.get(PACKAGE + "." + mod_name)
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            target = meth if owner_name else attr
            orig = getattr(owner, target, None) if owner is not None else None
            if orig is None:
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, orig, after, before, cname, cfun)
            if owner_name:
                self._set(owner, target, wrapper)
                continue
            for m in pkg.values():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def _set(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, span, fn, after, before, cname, cfun):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            tr.calls[span] += 1
            if cfun is not None:
                tr.counters[span + "." + cname] += cfun(args, kwargs)
            idx = len(tr.spans)
            parent = tr._stack[-1] if tr._stack else -1
            tr.spans.append([span, time.perf_counter(), None, parent, tr.phase])
            tr._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._stack.pop()
                tr.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(tr, state, args, kwargs, result)
            return result
        return wrapper

    # -- analysis -----------------------------------------------------------
    def self_times(self):
        """Per span: (name, phase, duration, self time, inclusive?) where
        inclusive marks spans with no ancestor of the same name."""
        n = len(self.spans)
        child = np.zeros(n)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = []
        for i, (name, t0, t1, parent, phase) in enumerate(self.spans):
            outer, p = True, parent
            while p >= 0:
                if self.spans[p][0] == name:
                    outer = False
                    break
                p = self.spans[p][3]
            out.append((name, phase, t1 - t0, t1 - t0 - child[i], outer))
        return out

    def top_level_time(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans
                   if parent < 0)


def dense_bytes(obj) -> int:
    """Bytes of the distinct 2-D arrays reachable from obj through package
    objects, tuples, lists and dicts: the dense matrices a solver holds,
    computed from their shapes."""
    seen, total = set(), 0
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            if o.ndim == 2:
                total += o.size * o.itemsize
        elif isinstance(o, (tuple, list)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif type(o).__module__.startswith(PACKAGE) and hasattr(o, "__dict__"):
            stack.extend(vars(o).values())
    return total


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    m = {}
    inclusive = defaultdict(float)
    self_by_span = defaultdict(float)
    self_by_module = defaultdict(float)
    for name, _, dur, self_t, outer in tr.self_times():
        if outer:
            inclusive[name] += dur
        self_by_span[name] += self_t
        self_by_module[name.split(".")[0]] += self_t
    present = [e for e in ENTRIES if e[0] not in tr.absent]
    for span, *_, cname, _ in present:
        m[span + ".s"] = (inclusive[span], "s")
        m[span + ".calls"] = (tr.calls[span], "count")
        m[span + ".self_s"] = (self_by_span[span], "s")
        if cname:
            m[span + "." + cname] = (0, "count")
    for key, value in list(tr.counters.items()) + list(tr.gauges.items()):
        m[key] = (value, "count")
    m.setdefault("geometry.boundary_nodes", (0, "count"))
    calls = tr.calls["layered_green.scattered_batch"]
    if "layered_green.scattered_batch" not in tr.absent:
        m["layered_green.scattered_batch.distinct_frac"] = (
            len(tr.keys) / calls if calls else 0.0, "frac")
    for mod in MODULES:
        m[mod + ".self_s"] = (self_by_module[mod], "s")
    m["trace.unattributed_frac"] = (
        max(0.0, traced_wall - tr.top_level_time()) / traced_wall, "frac")
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    return m


def setup_shares(tr: Tracer, setup_wall: float):
    """Self-time shares of the set-up phase: one group for the Fourier
    integrals (quad + layered_green), one for specfun, and each other span."""
    shares = defaultdict(float)
    for name, phase, _, self_t, _ in tr.self_times():
        if phase != "setup":
            continue
        mod = name.split(".")[0]
        group = {"quad": "fourier", "layered_green": "fourier",
                 "specfun": "specfun"}.get(mod, name)
        shares[group] += self_t / setup_wall
    return dict(shares)
