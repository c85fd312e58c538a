"""Quadrature for the Fourier integrals of the flat-interface kernels,
whose integrands have square-root branch points on the real axis.

fixed_rule builds one non-adaptive Gauss rule on [0, X] for a whole family
of integrands, from its slowest decay and fastest phase.  Its segments are
split at the branch points; a segment ending at a breakpoint kappa uses the
substitution xi = kappa sin t (from below) or xi = kappa cosh t (from
above), which removes a 1/sqrt singularity exactly.  X is where the
declared decay envelope drops below the tolerance.  A rule's nodes and
weights are a pure function of its plan (tail end, segments, panel
counts), and are kept per plan.

fold_integrate_batch is the independent reference the rules are checked
against: k(xi) e^{i xi d} for many offsets d on one contour that dips
below the branch points and returns to the real axis past them (Michalski
& Mosig, IEEE Trans. Antennas Propag. 45, 1997), followed by a real-axis
tail ended by an a-priori bound.  It shares no segment, map or tail code
with fixed_rule.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import AccuracyError

_TAIL_START_FACTOR = 1.5  # resolve the propagating band before truncating
_TAIL_STEPS = np.arange(7.0)  # where a tail bound samples [X, 2X], in steps

# Fixed rules: 20-point Gauss panels, each spanning at most _RULE_PHASE
# radians of the fastest phase, and no more nodes than _MAX_RULE_NODES.
_RULE_GL_NODES, _RULE_GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_RULE_PHASE = 16.0
_MAX_RULE_NODES = 200000
# Nodes of the rules kept by plan (16 bytes each, for nodes and weights).
_KEPT_RULE_NODES = 1 << 18

# Reference integrals: 16-point Gauss panels, each spanning at most pi
# radians of the fastest phase and half the distance to the nearest branch
# point, and no more nodes than _MAX_REFERENCE_NODES.
_REF_GL_NODES, _REF_GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_REFERENCE_NODES = 1 << 17


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


def fixed_rule(kernel_abs_at: Callable[[np.ndarray], np.ndarray],
               breakpoints: Sequence[float], decay: DecayClass,
               offset: float, height: float,
               tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of one fixed Gauss rule on [0, X] for a family of
    integrands k(xi) * g(xi) with |g| <= 1.

    X is where the tail bound of k (the family's slowest-decaying member,
    with its decay class) drops below a tenth of the tolerance: a fixed
    rule carries no error estimate, so its truncation stays an order below
    the tolerance.  The segments are split at the branch points, with
    their sin/cosh maps (_segments, _map_segment); each segment is cut
    into equal panels so that no panel spans more than
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




def fold_integrate_batch(kernel: Callable[[np.ndarray], np.ndarray],
                         parity: str, offsets: np.ndarray,
                         breakpoints: Sequence[float], decay: DecayClass,
                         tol: float) -> np.ndarray:
    """Folded two-sided integrals for many offsets d sharing one kernel.

    Returns the array of values of int_{-inf}^{inf} k(xi) e^{i xi d} dxi for
    each d in offsets: 2 int_0^inf k(xi) cos(xi d) dxi for an even kernel,
    2i int_0^inf k(xi) sin(xi d) dxi for an odd one.  kernel must take
    complex xi and be analytic between the positive real axis and the path
    below it, as the flat-interface kernels on the branch Im beta >= 0 are.

    On [0, T], T twice the largest breakpoint, the path is
    xi = t - i a sin(pi t / T) with depth a = min(T/4, 1/max|d|), so that
    |cos(xi d)| and |sin(xi d)| stay below cosh(1); past T it is the real
    axis.  Its 16-point Gauss panels span at most pi radians of the phase
    (max|d| + decay rate) and at most half the distance to the nearest
    breakpoint, which grades them where the path passes a branch point.
    The tail ends at the first X where the bound of the decay class,
    C X^-p e^{-hX} / h, or C X^(1-p) / (p-1) when h = 0, with C measured
    on the last panel, is below tol/4.  Non-finite offsets or kernel
    values, a decay class that bounds no tail, and more than
    _MAX_REFERENCE_NODES nodes raise AccuracyError.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    offsets = np.asarray(offsets, dtype=float)
    if offsets.size == 0:
        return np.zeros(0, dtype=complex)
    if not np.all(np.isfinite(offsets)):
        raise AccuracyError("reference integral at a non-finite offset")
    h, p = decay.rate, decay.power
    if h <= 0.0 and p <= 1.0:
        raise AccuracyError(
            "tail of half-line integral cannot be truncated at the requested "
            "tolerance for the declared decay class")
    bps = sorted({float(b) for b in breakpoints if b > 0.0})
    top = bps[-1] if bps else 0.5
    T = 2.0 * top
    dmax = float(np.abs(offsets).max())
    depth = min(0.5 * top, 1.0 / dmax) if dmax > 0.0 else 0.5 * top
    longest = np.pi / (dmax + h) if dmax + h > 0.0 else np.inf
    speed = np.hypot(1.0, depth * np.pi / T)
    trig = np.cos if parity == "even" else np.sin
    left = _MAX_REFERENCE_NODES // len(_REF_GL_NODES)   # panels

    def panels(t, stop, step):
        """Gauss nodes (one row per panel) and weights from t to stop."""
        nonlocal left
        ends = [t]
        while ends[-1] < stop:
            left -= 1
            if left < 0:
                raise AccuracyError("reference integral needs more than %d "
                                    "nodes" % _MAX_REFERENCE_NODES,
                                    estimate=np.inf)
            ends.append(min(stop, ends[-1] + step(ends[-1])))
        ends = np.array(ends)
        half = 0.5 * np.diff(ends)[:, None]
        return ends[:-1, None] + half * (1.0 + _REF_GL_NODES), \
            half * _REF_GL_WEIGHTS

    def integrate(xi, w):
        k = np.asarray(kernel(xi.ravel()), dtype=complex)
        if not np.all(np.isfinite(k)):
            raise AccuracyError("non-finite kernel value in a reference "
                                "integral", estimate=np.inf)
        wk = w.ravel() * k
        return np.array([np.dot(trig(d * xi.ravel()), wk) for d in offsets]), \
            np.abs(k[-xi.shape[1]:])

    def path(t):
        return t - 1j * depth * np.sin(np.pi * t / T)

    def arc_step(t):
        xi = complex(t, -depth * math.sin(math.pi * t / T))
        return min([longest] + [0.5 * abs(xi - b) / speed for b in bps])

    t, w = panels(0.0, T, arc_step)
    total, _ = integrate(path(t), w * (1.0 - 1j * depth * np.pi / T
                                       * np.cos(np.pi * t / T)))
    X, stop = T, 2.0 * T
    while True:
        t, w = panels(X, stop, lambda x: min(longest, 0.5 * (x - top)))
        vals, kabs = integrate(t, w)
        total = total + vals
        X = stop
        C = float(np.max(kabs * (t[-1] / X) ** p * np.exp(h * (t[-1] - X))))
        # int_X^inf of the envelope C (xi/X)^-p e^{-h (xi - X)} is at most
        # C/h and, for p > 1, C X/(p - 1); else the tail runs on to where
        # that bound falls to tol/8
        bound = min(C / h if h > 0.0 else np.inf,
                    C * X / (p - 1.0) if p > 1.0 else np.inf)
        if bound < 0.25 * tol:
            break
        stop = min(X + np.log(8.0 * C / (h * tol)) / h if h > 0.0 else np.inf,
                   X * (8.0 * C * X / ((p - 1.0) * tol)) ** (1.0 / (p - 1.0))
                   if p > 1.0 else np.inf)
        if not np.isfinite(stop):
            raise AccuracyError("tail of a reference integral has no finite "
                                "end", estimate=bound)
    return (2.0 if parity == "even" else 2.0j) * total
