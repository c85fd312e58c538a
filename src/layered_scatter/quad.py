"""Adaptive half-line quadrature for oscillatory integrands with
square-root branch points.

Panels are split at the branch points; a panel ending at a breakpoint kappa
uses the substitution xi = kappa sin t (from below) or xi = kappa cosh t
(from above), which removes a 1/sqrt singularity exactly.  The tail is
truncated where the declared decay envelope drops below the tolerance.

A batch mode integrates k(xi) * trig(xi * d) for many offsets d at once
against a shared panel set; the adaptive refinement is driven by the worst
offset, so every returned value meets the tolerance.

fixed_rule builds one non-adaptive Gauss rule on the same segments and
maps for a whole family of integrands, from its slowest decay and fastest
phase; callers apply it as matrix products and check it against the
adaptive engine.  A rule's nodes and weights are a pure function of its
plan (tail end, segments, panel counts), and are kept per plan.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import AccuracyError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

_MAX_PANELS = 4000
_TAIL_START_FACTOR = 1.5  # resolve the propagating band before truncating
_TAIL_STEPS = np.arange(7.0)  # where a tail bound samples [X, 2X], in steps

# Fixed rules: 20-point Gauss panels, each spanning at most _RULE_PHASE
# radians of the fastest phase, and no more nodes than _MAX_RULE_NODES.
_RULE_GL_NODES, _RULE_GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_RULE_PHASE = 16.0
_MAX_RULE_NODES = 200000
# Nodes of the rules kept by plan (16 bytes each, for nodes and weights).
_KEPT_RULE_NODES = 1 << 18


class BoundedMemo:
    """Thread-safe map from keys to values that are pure functions of
    their keys, forgetting the least recently used entries once their
    sizes add up past budget.

    A value is built outside the lock, so two threads may build the same
    one; the first stored is kept and returned to both.  Since a value
    depends on its key alone, what is forgotten is rebuilt with the same
    bytes, and no value depends on the order or thread of the calls.
    """

    def __init__(self, budget: int, size: Callable[[object], int]):
        self.budget = budget
        self.total = 0
        self._size = size
        self._entries = OrderedDict()       # key -> (value, size)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, build: Callable[[], object]):
        """The value kept for key, built by build() on a miss."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                return hit[0]
        value = build()
        n = self._size(value)
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                return hit[0]
            self._entries[key] = (value, n)
            self.total += n
            while self.total > self.budget and len(self._entries) > 1:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.total -= dropped
        return value


@dataclass(frozen=True)
class DecayClass:
    """Tail envelope |k(xi)| <= C * xi^(-power) * exp(-rate * xi).

    rate == 0 with power > 1 is pure algebraic decay; power == 0 with
    rate > 0 is pure exponential decay.  Mixed hints are allowed and give
    the sharper truncation point.
    """

    rate: float = 0.0
    power: float = 0.0

    @staticmethod
    def exponential(rate: float) -> "DecayClass":
        return DecayClass(rate=rate, power=0.0)

    @staticmethod
    def algebraic(power: float) -> "DecayClass":
        return DecayClass(rate=0.0, power=power)


@dataclass
class IntegrandSpec:
    """Half-line integrand with breakpoint and tail metadata.

    evaluator maps an array of xi >= 0 to complex values; breakpoints are
    the (positive) branch points where the integrand may behave like
    1/sqrt(|xi - kappa|).
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    breakpoints: Tuple[float, ...]
    decay: DecayClass


def fold_even_odd(kernel: Callable[[np.ndarray], np.ndarray], parity: str,
                  offset: float, breakpoints: Sequence[float],
                  decay: DecayClass) -> IntegrandSpec:
    """Fold a two-sided integrand k(xi) e^{i xi d} with definite parity.

    Even kernels fold to 2 k(xi) cos(xi d), odd ones to 2i k(xi) sin(xi d);
    integrating the folded spec over [0, inf) gives the exact two-sided
    value.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    d = float(offset)
    if parity == "even":
        def evaluator(xi):
            return 2.0 * kernel(xi) * np.cos(xi * d)
    else:
        def evaluator(xi):
            return 2.0j * kernel(xi) * np.sin(xi * d)
    return IntegrandSpec(evaluator=evaluator,
                         breakpoints=tuple(sorted(set(float(b) for b in breakpoints
                                                      if b > 0.0))),
                         decay=decay)


# ---------------------------------------------------------------------------
# Panel machinery
# ---------------------------------------------------------------------------
def _segments(breakpoints, tail_end):
    """(a, b, mapping) segment list covering [0, tail_end].

    mapping is None (identity), ("sin", kappa) for a segment ending at the
    breakpoint kappa, or ("cosh", kappa) for a segment starting at it.
    """
    bps = [b for b in breakpoints if 0.0 < b < tail_end]
    segs = []
    lo = 0.0
    for i, b in enumerate(bps):
        if lo < b:
            if i > 0 and bps[i - 1] == lo:
                mid = 0.5 * (lo + b)
                segs.append((lo, mid, ("cosh", lo)))
                segs.append((mid, b, ("sin", b)))
            else:
                segs.append((lo, b, ("sin", b)))
        lo = b
    if lo < tail_end:
        if bps and bps[-1] == lo:
            first = min(tail_end, _TAIL_START_FACTOR * lo)
            segs.append((lo, first, ("cosh", lo)))
            lo = first
        # doubling panels keep the oscillation count per panel bounded
        while lo < tail_end:
            hi = min(tail_end, 2.0 * max(lo, 1.0))
            segs.append((lo, hi, None))
            lo = hi
    return segs


def _map_segment(seg):
    """Return (t_lo, t_hi, transform) with transform(t) -> (xi, dxi/dt)."""
    a, b, mapping = seg
    if mapping is None:
        return a, b, lambda t: (t, np.ones_like(t))
    kind, kappa = mapping
    if kind == "sin":
        t_lo = np.arcsin(min(1.0, a / kappa))
        t_hi = 0.5 * np.pi
        return t_lo, t_hi, lambda t: (kappa * np.sin(t), kappa * np.cos(t))
    t_lo = 0.0
    t_hi = float(np.arccosh(b / kappa))
    return t_lo, t_hi, lambda t: (kappa * np.cosh(t), kappa * np.sinh(t))


def _adaptive_batch(batch_eval, t_lo, t_hi, transform, tol, budget):
    """Adaptive GL15 with bisection on a mapped segment.

    batch_eval(xi) returns an (nrows, len(xi)) array; refinement is driven
    by the max-over-rows panel error.  Every evaluated panel counts against
    the budget, so a panel that never converges (a NaN integrand, say) ends
    in AccuracyError.  Returns (values, error, panels_evaluated).
    """
    def panel_values(los, his):
        # nodes for every pending panel in one evaluator call
        half = 0.5 * (his - los)[:, None]
        mid = 0.5 * (his + los)[:, None]
        t = mid + half * _GL_NODES[None, :]
        xi, jac = transform(t.ravel())
        vals = batch_eval(xi)                     # (nrows, npanels*15)
        nrows = vals.shape[0]
        vals = vals.reshape(nrows, t.shape[0], 15) * jac.reshape(t.shape)[None, :, :]
        return np.tensordot(vals, _GL_WEIGHTS, axes=([2], [0])) * half[None, :, 0]

    los = np.array([t_lo])
    his = np.array([t_hi])
    coarse = panel_values(los, his)               # (nrows, 1)
    total = None
    err_total = 0.0
    panels = 0
    # worklist of (lo, hi, coarse_value-column) processed in deterministic order
    work = [(t_lo, t_hi, coarse[:, 0])]
    acc_vals = []
    while work:
        if panels + 2 * len(work) > budget:
            best = np.sum(acc_vals, axis=0) if acc_vals else 0.0
            rest = np.sum([w[2] for w in work], axis=0)
            raise AccuracyError("panel budget exhausted",
                                value=best + rest, estimate=err_total + np.inf)
        lo_arr = np.array([w[0] for w in work])
        hi_arr = np.array([w[1] for w in work])
        mid_arr = 0.5 * (lo_arr + hi_arr)
        halves = panel_values(np.concatenate([lo_arr, mid_arr]),
                              np.concatenate([mid_arr, hi_arr]))
        nw = len(work)
        panels += 2 * nw
        fine = halves[:, :nw] + halves[:, nw:]
        next_work = []
        for i, (lo, hi, cval) in enumerate(work):
            err = float(np.max(np.abs(fine[:, i] - cval)))
            local_tol = tol * max((hi - lo) / (t_hi - t_lo), 1e-3)
            if err <= local_tol or (hi - lo) < 1e-13 * max(1.0, abs(t_hi)):
                acc_vals.append(fine[:, i])
                err_total += err
            else:
                mid = 0.5 * (lo + hi)
                next_work.append((lo, mid, halves[:, i]))
                next_work.append((mid, hi, halves[:, nw + i]))
        work = next_work
    total = np.sum(acc_vals, axis=0)
    return total, err_total, panels


def _tail_cutoff(kernel_abs_at, decay, breakpoints, tol):
    """Smallest doubling point X past the breakpoints with tail bound < tol.

    Returns (X, bound).  kernel_abs_at(xi) -> max |k| over the batch rows,
    elementwise in xi.  The doubling ladder start * 2^k, up to its first
    point past 1e9, is searched in batches of 8, 16 and 32 points, one
    kernel call per batch.  Each point's bound takes the same operations as
    on its own, so the first X below tol is the one a point-by-point search
    finds.
    """
    h, p = decay.rate, decay.power
    start = _TAIL_START_FACTOR * max(list(breakpoints) + [1.0])
    ladder = [start]
    while ladder[-1] <= 1e9:
        ladder.append(2.0 * ladder[-1])

    def bounds(X):
        # |int_X^inf| <= C X^-p e^{-hX}/h  (h>0)  or  C X^{1-p}/(p-1)  (h=0)
        # several samples so oscillatory zeros cannot fake a small envelope;
        # row k is np.linspace(X[k], 2 X[k], 7), by the same operations
        X = np.asarray(X)
        samples = _TAIL_STEPS * ((2.0 * X - X) / 6.0)[:, None] + X[:, None]
        samples[:, -1] = 2.0 * X
        kabs = kernel_abs_at(samples.ravel()).reshape(samples.shape)
        env = samples ** (-p) * np.exp(-h * np.maximum(samples - start, 0.0))
        Cs = np.max(np.where(env > 0.0, kabs / np.maximum(env, 1e-300), 0.0),
                    axis=1)
        for x, C in zip(X.tolist(), Cs.tolist()):
            if h > 0.0:
                yield x, C * x ** (-p) * np.exp(-h * max(x - start, 0.0)) / h
            elif p > 1.0:
                yield x, C * x ** (1.0 - p) / (p - 1.0)
            else:
                yield x, np.inf

    lo, size = 0, 8
    while lo < len(ladder):
        for X, b in bounds(ladder[lo:lo + size]):
            if b < 0.5 * tol:
                return X, b
        lo, size = lo + size, 2 * size
    raise AccuracyError(
        "tail of half-line integral cannot be truncated at the requested "
        "tolerance for the declared decay class", estimate=b)


def _integrate_batch(batch_eval, breakpoints, decay, tol):
    """Core engine shared by the scalar and batched entry points."""
    def kernel_abs_at(xi):
        return np.max(np.abs(batch_eval(np.asarray(xi, float))), axis=0)

    tail_end, tail_bound = _tail_cutoff(kernel_abs_at, decay, breakpoints, tol)
    segs = _segments(breakpoints, tail_end)
    seg_tol = 0.5 * tol / max(len(segs), 1)
    total = 0.0
    err = tail_bound
    for seg in segs:
        t_lo, t_hi, transform = _map_segment(seg)
        if t_hi <= t_lo:
            continue
        vals, seg_err, _ = _adaptive_batch(batch_eval, t_lo, t_hi, transform,
                                           seg_tol, _MAX_PANELS)
        total = total + vals
        err += seg_err
    return total, err


def fixed_rule(kernel_abs_at: Callable[[np.ndarray], np.ndarray],
               breakpoints: Sequence[float], decay: DecayClass,
               offset: float, height: float,
               tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of one fixed Gauss rule on [0, X] for a family of
    integrands k(xi) * g(xi) with |g| <= 1.

    X is where the tail bound of k (the family's slowest-decaying member,
    with its decay class) drops below a tenth of the tolerance: a fixed
    rule carries no error estimate, so its truncation stays an order below
    what the adaptive engine allows itself.  The segments and their
    sin/cosh branch-point maps are those of the adaptive engine; each
    segment is cut into equal panels so that no panel spans more than
    _RULE_PHASE radians of the fastest phase in g.  On the branch-point
    segments that phase is e^{i (offset xi + height beta)}, with offset the
    largest horizontal offset and height the largest height sum; the
    segment's largest |dxi/dt| scales the bound, and also bounds the
    t-derivative of the vertical wavenumbers there.  The identity
    segments lie past every branch point, where the height factors decay
    without oscillating, so only the offset sets their panels.  A rule of
    more than _MAX_RULE_NODES nodes raises AccuracyError before any node
    is built.
    """
    bps = tuple(sorted(set(float(b) for b in breakpoints if b > 0.0)))
    tail_end, _ = _tail_cutoff(kernel_abs_at, decay, bps, 0.1 * tol)
    panels = []
    for seg, t_lo, t_hi, _ in _rule_segments(bps, tail_end):
        mapping = seg[2]
        if mapping is None:
            phase = offset
        else:
            phase = (offset + height) * mapping[1] \
                * (np.cosh(t_hi) if mapping[0] == "cosh" else 1.0)
        panels.append(max(1, int(np.ceil(phase * (t_hi - t_lo)
                                         / _RULE_PHASE))))
    if len(_RULE_GL_NODES) * sum(panels) > _MAX_RULE_NODES:
        raise AccuracyError("fixed rule for this block needs more than %d "
                            "nodes" % _MAX_RULE_NODES)
    plan = (bps, tail_end, tuple(panels))
    return _KEPT_RULES.get(plan, lambda: _rule_nodes(*plan))


def _rule_segments(bps, tail_end):
    """(segment, t_lo, t_hi, transform) of each non-empty segment of a
    fixed rule."""
    out = []
    for seg in _segments(bps, tail_end):
        t_lo, t_hi, transform = _map_segment(seg)
        if t_hi > t_lo:
            out.append((seg, t_lo, t_hi, transform))
    return out


def _rule_nodes(bps, tail_end, panels):
    """Read-only nodes and weights of the fixed rule of one plan: the
    segments of bps and tail_end, each cut into its number of equal
    20-point Gauss panels."""
    nodes, weights = [], []
    for (_, t_lo, t_hi, transform), n in zip(_rule_segments(bps, tail_end),
                                              panels):
        half = 0.5 * (t_hi - t_lo) / n
        mids = t_lo + half * (2.0 * np.arange(n) + 1.0)
        xi, jac = transform((mids[:, None] + half * _RULE_GL_NODES).ravel())
        nodes.append(xi)
        weights.append(half * np.tile(_RULE_GL_WEIGHTS, n) * jac)
    xi, w = np.concatenate(nodes), np.concatenate(weights)
    xi.flags.writeable = False
    w.flags.writeable = False
    return xi, w


# Nodes and weights of the fixed rules built in this process, by plan.
_KEPT_RULES = BoundedMemo(_KEPT_RULE_NODES, lambda rule: len(rule[0]))


def integrate_halfline(spec: IntegrandSpec, tol: float) -> complex:
    """Integral of spec.evaluator over [0, inf) with absolute error <= tol."""
    if tol < 1e-12:
        raise ValueError("tol must be >= 1e-12")

    def batch_eval(xi):
        return np.asarray(spec.evaluator(xi), dtype=complex)[None, :]

    total, _err = _integrate_batch(batch_eval, spec.breakpoints, spec.decay, tol)
    return complex(total[0])


def fold_integrate_batch(kernel: Callable[[np.ndarray], np.ndarray],
                         parity: str, offsets: np.ndarray,
                         breakpoints: Sequence[float], decay: DecayClass,
                         tol: float) -> np.ndarray:
    """Folded two-sided integrals for many offsets d sharing one kernel.

    Returns the array of values of int_{-inf}^{inf} k(xi) e^{i xi d} dxi for
    each d in offsets, computed as cosine (even kernel) or sine (odd kernel)
    transforms on a shared adaptively refined panel set.
    """
    offsets = np.asarray(offsets, dtype=float)
    if offsets.size == 0:
        return np.zeros(0, dtype=complex)
    trig = np.cos if parity == "even" else np.sin
    factor = 2.0 if parity == "even" else 2.0j

    def batch_eval(xi):
        k = np.asarray(kernel(xi), dtype=complex)[None, :]
        return k * trig(np.outer(offsets, xi))

    bps = tuple(sorted(set(float(b) for b in breakpoints if b > 0.0)))
    total, _err = _integrate_batch(batch_eval, bps, decay, tol)
    return factor * total
