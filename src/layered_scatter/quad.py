"""Quadrature for the Fourier integrals of the flat-interface kernels,
whose integrands have square-root branch points on the real axis.

fixed_rule plans one non-adaptive Gauss rule on [0, X] for a whole family
of integrands, from its slowest decay and fastest phase, and rule_nodes
builds the plan's nodes and weights.  The segments are split at the branch
points; a segment ending at a breakpoint kappa uses the substitution
xi = kappa sin t (from below) or xi = kappa cosh t (from above), which
removes a 1/sqrt singularity exactly.  X is the first point of a doubling
ladder where the declared decay envelope bounds the tail below the
tolerance.  The module keeps no state: a rule is a pure function of its
plan, and the caller keeps what it reuses.

fold_integrate_batch is the independent reference the rules are checked
against: k(xi) e^{i xi d} for many offsets d on one contour that dips
below the branch points and returns to the real axis past them (Michalski
& Mosig, IEEE Trans. Antennas Propag. 45, 1997), followed by a real-axis
tail ended by an a-priori bound.  It shares no segment, map or tail code
with fixed_rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError

_TAIL_START_FACTOR = 1.5  # resolve the propagating band before truncating

# Fixed rules: 20-point Gauss panels, each spanning at most _RULE_PHASE
# radians of the fastest phase, and no more nodes than _MAX_RULE_NODES.
_RULE_GL_NODES, _RULE_GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_RULE_PHASE = 16.0
_MAX_RULE_NODES = 200000

# Reference integrals: 16-point Gauss panels, each spanning at most pi
# radians of the fastest phase and half the distance to the nearest branch
# point, and no more nodes than _MAX_REFERENCE_NODES.
_REF_GL_NODES, _REF_GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MAX_REFERENCE_NODES = 1 << 17


@dataclass(frozen=True)
class DecayClass:
    """Tail envelope |k(xi)| <= C * xi^(-power) * exp(-rate * xi).

    rate == 0 with power > 1 is pure algebraic decay; power == 0 with
    rate > 0 is pure exponential decay.  Mixed hints are allowed and give
    the sharper truncation point.
    """

    rate: float = 0.0
    power: float = 0.0


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


def fixed_rule(kernel_abs_at: Callable[[np.ndarray], np.ndarray],
               breakpoints: Sequence[float], decay: DecayClass,
               offset: float, height: float, tol: float) -> tuple:
    """Plan (breakpoints, tail end X, panels per segment) of one fixed
    Gauss rule on [0, X] for a family of integrands k(xi) * g(xi) with
    |g| <= 1; rule_nodes(*plan) builds its nodes and weights.

    X is the first point of the ladder 1.5 max(breakpoints, 1) 2^k (up to
    its first point past 1e9) where the tail bound
    E(X) min(1/h, X/(p - 1)), with h and p the decay rate and power, drops
    below a twentieth of the tolerance: a fixed rule carries no error
    estimate, so its truncation stays an order below the tolerance.
    kernel_abs_at(xi) -> E(xi), elementwise, is called once on the whole
    ladder.  The bound holds when E bounds |k| and xi^p e^{h xi} E(xi)
    does not grow past the ladder's start; the caller owns that contract.
    The segments are split at the branch points, with their sin/cosh maps
    (_segments, _map_segment); each segment is cut into equal panels so
    that no panel spans more than _RULE_PHASE radians of the fastest phase
    in g.  On the branch-point segments that phase is
    e^{i (offset xi + height beta)}, with offset the largest horizontal
    offset and height the largest height sum; the segment's largest
    |dxi/dt| scales the bound, and also bounds the t-derivative of the
    vertical wavenumbers there.  The identity segments lie past every
    branch point, where the height factors decay without oscillating, so
    only the offset sets their panels.  A decay class that bounds no tail
    on the ladder, or a rule of more than _MAX_RULE_NODES nodes, raises
    AccuracyError.
    """
    bps = tuple(sorted(set(float(b) for b in breakpoints if b > 0.0)))
    h, p = decay.rate, decay.power
    ladder = [_TAIL_START_FACTOR * max(bps + (1.0,))]
    while ladder[-1] <= 1e9:
        ladder.append(2.0 * ladder[-1])
    X = np.array(ladder)
    # |int_X^inf k| <= E(X) int_X^inf (X/xi)^p e^{-h (xi - X)} dxi; at a
    # subnormal h, Python's float division gives 1/h = inf without numpy's
    # overflow warning, and X/(p - 1) is the reach
    reach = np.minimum(1.0 / float(h) if h > 0.0 else np.inf,
                       X / (p - 1.0) if p > 1.0 else np.inf)
    bound = kernel_abs_at(X) * reach if h > 0.0 or p > 1.0 else np.inf * X
    below = np.nonzero(bound < 0.05 * tol)[0]
    if not below.size:
        raise AccuracyError(
            "tail of half-line integral cannot be truncated at the requested "
            "tolerance for the declared decay class", estimate=np.inf)
    tail_end = ladder[below[0]]
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
    return bps, tail_end, tuple(panels)


def _rule_segments(bps, tail_end):
    """(segment, t_lo, t_hi, transform) of each non-empty segment of a
    fixed rule."""
    out = []
    for seg in _segments(bps, tail_end):
        t_lo, t_hi, transform = _map_segment(seg)
        if t_hi > t_lo:
            out.append((seg, t_lo, t_hi, transform))
    return out


def rule_nodes(bps, tail_end, panels):
    """Nodes and weights of the fixed rule of one plan: the segments of
    bps and tail_end, each cut into its number of equal 20-point Gauss
    panels."""
    nodes, weights = [], []
    for (_, t_lo, t_hi, transform), n in zip(_rule_segments(bps, tail_end),
                                              panels):
        half = 0.5 * (t_hi - t_lo) / n
        mids = t_lo + half * (2.0 * np.arange(n) + 1.0)
        xi, jac = transform((mids[:, None] + half * _RULE_GL_NODES).ravel())
        nodes.append(xi)
        weights.append(half * np.tile(_RULE_GL_WEIGHTS, n) * jac)
    return np.concatenate(nodes), np.concatenate(weights)


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
        with np.errstate(divide="ignore", invalid="ignore"):
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
