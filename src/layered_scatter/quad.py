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
adaptive engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import AccuracyError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

_MAX_PANELS = 4000
_TAIL_START_FACTOR = 1.5  # resolve the propagating band before truncating

# Fixed rules: 20-point Gauss panels, each spanning at most _RULE_PHASE
# radians of the fastest phase, and no more nodes than _MAX_RULE_NODES.
_RULE_GL_NODES, _RULE_GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_RULE_PHASE = 16.0
_MAX_RULE_NODES = 200000


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

    Returns (X, bound).  kernel_abs_at(xi) -> max |k| over the batch rows.
    """
    h, p = decay.rate, decay.power
    start = _TAIL_START_FACTOR * max(list(breakpoints) + [1.0])

    def bound(X):
        # |int_X^inf| <= C X^-p e^{-hX}/h  (h>0)  or  C X^{1-p}/(p-1)  (h=0)
        # several samples so oscillatory zeros cannot fake a small envelope
        samples = np.linspace(X, 2.0 * X, 7)
        kabs = kernel_abs_at(samples)
        env = samples ** (-p) * np.exp(-h * np.maximum(samples - start, 0.0))
        C = float(np.max(np.where(env > 0.0, kabs / np.maximum(env, 1e-300), 0.0)))
        if h > 0.0:
            return C * X ** (-p) * np.exp(-h * max(X - start, 0.0)) / h
        if p > 1.0:
            return C * X ** (1.0 - p) / (p - 1.0)
        return np.inf

    X = start
    for _ in range(60):
        b = bound(X)
        if b < 0.5 * tol:
            return X, b
        if X > 1e9:
            break
        X = 2.0 * X
    raise AccuracyError(
        "tail of half-line integral cannot be truncated at the requested "
        "tolerance for the declared decay class", estimate=bound(X))


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
    plan = []
    for seg in _segments(bps, tail_end):
        t_lo, t_hi, transform = _map_segment(seg)
        if t_hi <= t_lo:
            continue
        mapping = seg[2]
        if mapping is None:
            phase = offset
        else:
            phase = (offset + height) * mapping[1] \
                * (np.cosh(t_hi) if mapping[0] == "cosh" else 1.0)
        panels = max(1, int(np.ceil(phase * (t_hi - t_lo) / _RULE_PHASE)))
        plan.append((t_lo, 0.5 * (t_hi - t_lo) / panels, panels, transform))
    if len(_RULE_GL_NODES) * sum(p[2] for p in plan) > _MAX_RULE_NODES:
        raise AccuracyError("fixed rule for this block needs more than %d "
                            "nodes" % _MAX_RULE_NODES)
    nodes, weights = [], []
    for t_lo, half, panels, transform in plan:
        mids = t_lo + half * (2.0 * np.arange(panels) + 1.0)
        xi, jac = transform((mids[:, None] + half * _RULE_GL_NODES).ravel())
        nodes.append(xi)
        weights.append(half * np.tile(_RULE_GL_WEIGHTS, panels) * jac)
    return np.concatenate(nodes), np.concatenate(weights)


def integrate_halfline(spec: IntegrandSpec, tol: float) -> complex:
    """Integral of spec.evaluator over [0, inf) with absolute error <= tol."""
    if tol < 1e-12:
        raise ValueError("tol must be >= 1e-12")

    def batch_eval(xi):
        return np.asarray(spec.evaluator(xi), dtype=complex)[None, :]

    total, _err = _integrate_batch(batch_eval, spec.breakpoints, spec.decay, tol)
    return complex(total[0])


def integrate_halfline_with_error(spec: IntegrandSpec, tol: float):
    """Like integrate_halfline but also returns the error estimate."""
    def batch_eval(xi):
        return np.asarray(spec.evaluator(xi), dtype=complex)[None, :]

    total, err = _integrate_batch(batch_eval, spec.breakpoints, spec.decay, tol)
    return complex(total[0]), float(err)


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
