"""Green's function of a two-layer medium separated by the flat interface
x2 = 0, for monopole and dipole point sources.

The scattered/transmitted part is a Fourier integral over the horizontal
wavenumber xi.  With beta_j = sqrt(kappa_j^2 - xi^2) (upper branch), the
kernels are, writing d = x1 - xs1 and suppressing e^{i xi d}:

monopole, both points upper   (i/4pi) (1/b1) (b1-b2)/(b1+b2) e^{i b1 (x2+xs2)}
monopole, x lower / xs upper  (i/2pi) 1/(b1+b2) e^{i(b1 xs2 - b2 x2)}
monopole, x upper / xs lower  (i/2pi) 1/(b1+b2) e^{i(b1 x2 - b2 xs2)}
monopole, both points lower   (i/4pi) (1/b2) (b2-b1)/(b1+b2) e^{-i b2 (x2+xs2)}

The horizontal dipole (direction 1) multiplies each kernel by xi and the
prefactor by 1/i, making the integrand odd (a sine transform).  The
vertical dipole (direction 2) differentiates the exponential instead,
trading the 1/beta factor for a beta factor on the cross-side cases.

Each kernel factors as a weight w(xi) times one height factor per point,
F = e^{i b1 x2} above the interface and e^{-i b2 x2} below, so on one fixed
xi-rule the cos/sin fold of e^{i xi d} turns a block of point pairs into
two matrix products: (F_x cos xi x1) diag(w) (F_y cos xi y1)^T plus the same
with sin (PlanarGreen.matrix).  A single column (one source point) whose
points lie on a small grid of distinct heights and abscissae, as a mesh or
a receiver line does, is evaluated on that grid instead, with the source's
factors folded into the height factors, and then gathered per point.
A rule is planned by quad.fixed_rule and kept, folded, by the PlanarGreen
that uses it, keyed by its plan.
scattered_batch is the reference the rules are checked against: the same
kernels integrated on a path below the branch points
(quad.fold_integrate_batch), which shares no node, segment or tail code
with the rules.

The total field adds the free-space term only when both points lie in the
same half-plane; the cross-side "scattered" part *is* the transmitted
total field.  Points exactly on the interface are rejected, and cross-side
evaluation requires a minimal vertical separation because those kernels
decay only through their exponential factor.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import (
    AccuracyError,
    ConfigurationError,
    GeometryError,
    SingularityError,
)
from .quad import DecayClass, fixed_rule, fold_integrate_batch, rule_nodes
from .specfun import grad_phi_matrix, phi_matrix

#: Minimal total vertical separation |x2| + |xs2| for cross-side kernels.
H_MIN = 1e-6

# Largest (points x nodes) factor block of a fixed-rule evaluation; longer
# rules are applied in node chunks, which bounds the transient memory.
_CHUNK_ELEMENTS = 1 << 16

# What one PlanarGreen keeps: the folded rules, up to this many nodes in
# all (24 bytes a node), and the grid splits of this many point sets.
_KEPT_RULE_NODES = 1 << 16
_KEPT_SPLITS = 16


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


def beta(xi, kappa: float):
    """Vertical wavenumber sqrt(kappa^2 - xi^2) with Re >= 0, Im >= 0.

    The principal square root of kappa^2 - xi^2 + 0j lands on the correct
    branch automatically: positive real in the propagating band, positive
    imaginary in the evanescent band.  Complex xi below the positive real
    axis, as on the path of the reference integrals, stays on the same
    branch, continuously.
    """
    xi = np.asarray(xi, dtype=complex if np.iscomplexobj(xi) else float)
    val = np.sqrt(kappa * kappa - xi * xi + 0.0j)
    return val if val.ndim else complex(val)


@dataclass(frozen=True)
class MediumParams:
    """Wavenumbers of the upper (kappa1) and lower (kappa2) half-planes,
    both positive and finite (ConfigurationError otherwise)."""

    kappa1: float
    kappa2: float

    def __post_init__(self):
        if not (self.kappa1 > 0.0 and self.kappa2 > 0.0):
            raise ConfigurationError(
                "medium.kappa1 and medium.kappa2 must be positive")
        if not (np.isfinite(self.kappa1) and np.isfinite(self.kappa2)):
            raise ConfigurationError(
                "medium.kappa1 and medium.kappa2 must be finite")

    @property
    def eta(self) -> float:
        """Contrast kappa2^2 - kappa1^2 driving the volume equations."""
        return self.kappa2 ** 2 - self.kappa1 ** 2


@dataclass(frozen=True)
class SourceSpec:
    """A monopole or dipole point source.

    A monopole radiates Phi_kappa(., xs); a dipole radiates the derivative
    of Phi_kappa in coordinate direction ell (1 horizontal, 2 vertical).
    The wavenumber kappa is that of the half-plane containing xs.  A kind,
    direction or position outside these raises ConfigurationError.
    """

    kind: str
    position: Tuple[float, float]
    direction: int = 0

    def __post_init__(self):
        if self.kind not in ("monopole", "dipole"):
            raise ConfigurationError(
                "source kind must be 'monopole' or 'dipole'")
        if self.kind == "dipole" and self.direction not in (1, 2):
            raise ConfigurationError("dipole direction must be 1 or 2")
        if self.kind == "monopole" and self.direction != 0:
            raise ConfigurationError("monopole takes no direction")
        if np.shape(self.position) != (2,) \
                or not np.all(np.isfinite(self.position)):
            raise ConfigurationError(
                "source position must be two finite numbers")


def _height_factor(rule: "_FixedRule", sl: slice, h: np.ndarray):
    """Height factors e^{i b1 h} above the interface or e^{-i b2 h} below
    at the nodes sl of rule, one row per height of h; all heights lie on
    one side."""
    xi = rule.xi[sl]
    if h[0] > 0.0:
        return np.exp(1j * np.multiply.outer(h, beta(xi, rule.kappa1)))
    return np.exp(-1j * np.multiply.outer(h, beta(xi, rule.kappa2)))


def _sides(P: np.ndarray):
    """Index arrays of the points above and below the interface (empty
    ones dropped)."""
    up = P[:, 1] > 0.0
    return [ix for ix in (np.nonzero(up)[0], np.nonzero(~up)[0]) if ix.size]


@dataclass(frozen=True)
class _FixedRule:
    """Nodes of one block's rule, the weights with the kernel weight and
    prefactor folded in, and the wavenumbers of the two media.  The
    vertical wavenumbers are computed where a height factor needs them:
    kept, they would triple a rule's memory."""

    xi: np.ndarray
    weights: np.ndarray
    parity: str
    kappa1: float
    kappa2: float


def _grid_split(X: np.ndarray):
    """(h, a), np.unique with inverse of X's heights and abscissae, when
    that grid has at most twice as many entries as X has points; else
    None."""
    h = np.unique(X[:, 1], return_inverse=True)
    a = np.unique(X[:, 0], return_inverse=True)
    if len(h[0]) * len(a[0]) > 2 * len(X):
        return None
    for arr in h + a:
        arr.flags.writeable = False
    return h, a


def _apply_rule(rule: _FixedRule, X: np.ndarray, Y: np.ndarray,
                split=_grid_split) -> np.ndarray:
    """The block of one side pair on its rule; all points of X share a
    side, as do those of Y.

    A single column (one point in Y) whose points lie on a tensor grid of
    distinct heights and abscissae at most twice their number (a mesh, a
    receiver line; split(X) finds it) is evaluated on that grid
    (_apply_grid); any other block as the product of its point factors
    (_apply_product)."""
    if len(Y) == 1:
        grid = split(X)
        if grid is not None:
            return _apply_grid(rule, *grid, Y[0])[:, None]
    return _apply_product(rule, X, Y)


def _apply_grid(rule: _FixedRule, h, a, y: np.ndarray) -> np.ndarray:
    """One column on the grid of distinct heights h[0] and abscissae a[0]
    (np.unique with inverse): V = (F_h g_c) C^T + (F_h g_s) S^T with C, S
    = cos, sin(xi a) (crossed for an odd kernel), where F_h is the height
    factor at h and g_c, g_s the source point's weighted factors; returns
    V[h_i, a_i] for each point."""
    V = np.zeros((len(h[0]), len(a[0])), dtype=complex)
    step = max(1, _CHUNK_ELEMENTS // max(len(h[0]), len(a[0])))
    for q in range(0, len(rule.xi), step):
        sl = slice(q, q + step)
        xi = rule.xi[sl]
        g = _height_factor(rule, sl, y[1:])[0] * rule.weights[sl]
        F = _height_factor(rule, sl, h[0])
        Fc, Fs = F * (g * np.cos(xi * y[0])), F * (g * np.sin(xi * y[0]))
        phase = np.multiply.outer(a[0], xi)
        C, S = np.cos(phase), np.sin(phase)
        if rule.parity == "even":
            V += Fc @ C.T + Fs @ S.T
        else:
            V += Fc @ S.T - Fs @ C.T
    return V[h[1], a[1]]


def _apply_product(rule: _FixedRule, X: np.ndarray,
                   Y: np.ndarray) -> np.ndarray:
    """(F_x cos xi x1) diag(w k) (F_y cos xi y1)^T plus the sine term (for
    an even kernel), or the sin/cos cross terms (odd), where F is the
    height factor.

    The factors are evaluated at the distinct heights and abscissae only,
    which on a mesh are far fewer than the points."""
    out = np.zeros((len(X), len(Y)), dtype=complex)
    step = max(1, _CHUNK_ELEMENTS // max(len(X), len(Y)))
    distinct = [[np.unique(P[:, k], return_inverse=True) for k in (0, 1)]
                for P in (X, Y)]

    def fold(sl, x1, x2):
        F = _height_factor(rule, sl, x2[0])[x2[1]]
        phase = np.multiply.outer(x1[0], rule.xi[sl])
        return F * np.cos(phase)[x1[1]], F * np.sin(phase)[x1[1]]

    for q in range(0, len(rule.xi), step):
        sl = slice(q, q + step)
        xc, xs = fold(sl, *distinct[0])
        yc, ys = fold(sl, *distinct[1])
        yc *= rule.weights[sl]
        ys *= rule.weights[sl]
        if rule.parity == "even":
            out += xc @ yc.T + xs @ ys.T
        else:
            out += xs @ yc.T - xc @ ys.T
    return out


def _check_heights(x2, xs2):
    if np.any(np.asarray(x2) == 0.0) or np.any(np.asarray(xs2) == 0.0):
        raise GeometryError(
            "evaluation exactly on the flat interface is not defined; "
            "offset the point by at least %g" % H_MIN)


class PlanarGreen:
    """Evaluator for the flat-interface two-layer Green's function.

    The point calls scattered() and total() take the source's kind and
    direction as matrix() and scattered_batch() do and, like
    scattered_batch (one height pair against many horizontal offsets), run
    on the reference integrals of quad.fold_integrate_batch; matrix()
    evaluates whole point-set blocks on fixed xi-rules, which is what makes
    dense operator assembly affordable.

    An instance keeps the folded rules it builds, keyed by the kind, the
    dipole direction, the side case and the rule's plan (quad.fixed_rule),
    and the grid split of the point sets of its recent single columns,
    keyed by their bytes; nothing else keeps rules.  Both maps are bounded,
    and each value is a pure function of its key, so a block has the same
    bytes whether its rule was built for it or kept from another call, in
    any order and from any thread.  tol lies in [1e-13, 1e-4], where the
    reference integrals meet it (ConfigurationError otherwise).
    """

    def __init__(self, medium: MediumParams, tol: float = 1e-8):
        if not 1e-13 <= tol <= 1e-4:
            raise ConfigurationError("tol must lie in [1e-13, 1e-4]")
        self.medium = medium
        self.tol = float(tol)
        self.rules = BoundedMemo(_KEPT_RULE_NODES,
                                 lambda rule: len(rule.xi))
        self.splits = BoundedMemo(_KEPT_SPLITS, lambda split: 1)

    # -- kernel construction ------------------------------------------------
    def _case(self, x2: float, xs2: float) -> str:
        return ("u" if x2 > 0.0 else "l") + ("u" if xs2 > 0.0 else "l")

    def _weight(self, kind: str, ell: int, case: str):
        """(weight(b1, b2, xi), prefactor, parity, tail power) of one side
        case.  The kernel of a height pair is the weight times the height
        factor of each point (see _height_factor)."""
        if case == "uu":
            def mono(b1, b2):
                return (b1 - b2) / (b1 * (b1 + b2))
            pref, power = 0.25j / np.pi, 3.0
        elif case == "ll":
            def mono(b1, b2):
                return (b2 - b1) / (b2 * (b1 + b2))
            pref, power = 0.25j / np.pi, 3.0
        else:
            def mono(b1, b2):
                return 1.0 / (b1 + b2)
            pref, power = 0.5j / np.pi, 1.0

        if kind == "monopole":
            return (lambda b1, b2, xi: mono(b1, b2)), pref, "even", power
        if ell == 1:
            return (lambda b1, b2, xi: mono(b1, b2) * xi), pref * 1j, \
                "odd", power - 1.0
        # vertical dipole: differentiate the source's height factor and negate
        if case[1] == "u":
            return (lambda b1, b2, xi: -1j * b1 * mono(b1, b2)), pref, \
                "even", power - 1.0
        return (lambda b1, b2, xi: 1j * b2 * mono(b1, b2)), pref, \
            "even", power - 1.0

    def _kernel(self, kind: str, ell: int, x2: float, xs2: float):
        """(kernel(xi), prefactor, parity, decay) for one height pair."""
        k1, k2 = self.medium.kappa1, self.medium.kappa2
        case = self._case(x2, xs2)
        rate = abs(x2) + abs(xs2)
        if case[0] != case[1] and rate < H_MIN:
            raise GeometryError(
                "cross-interface evaluation needs |x2| + |xs2| >= %g" % H_MIN)
        weight, pref, parity, power = self._weight(kind, ell, case)

        def kern(xi):
            b1, b2 = beta(xi, k1), beta(xi, k2)
            # the two height factors e^{i b1 h} (above), e^{-i b2 h} (below)
            bx = b1 if case[0] == "u" else -b2
            bs = b1 if case[1] == "u" else -b2
            # near the float range a height overflows the exponent; the rule
            # plan and the reference then fail with AccuracyError
            with np.errstate(over="ignore", invalid="ignore"):
                return weight(b1, b2, xi) * np.exp(1j * (bx * x2 + bs * xs2))
        return kern, pref, parity, DecayClass(rate=rate, power=power)

    # -- batched evaluation -------------------------------------------------
    def scattered_batch(self, kind: str, ell: int, x2: float, xs2: float,
                        offsets: np.ndarray) -> np.ndarray:
        """Scattered/transmitted values at heights (x2, xs2) for each
        horizontal offset d = x1 - xs1 in offsets, each within tol, on the
        deformed path of quad.fold_integrate_batch.

        This is the reference the fixed rules of matrix() are checked
        against, and the path of the point calls scattered and total."""
        _check_heights(x2, xs2)
        offsets = np.asarray(offsets, dtype=float)
        kern, pref, parity, decay = self._kernel(kind, ell, x2, xs2)
        bps = (self.medium.kappa1, self.medium.kappa2)
        # the prefactor scales the tolerance so the *returned* values meet it
        return pref * fold_integrate_batch(kern, parity, offsets, bps, decay,
                                           self.tol / abs(pref))

    # -- fixed-rule evaluation ------------------------------------------------
    def matrix(self, kind: str, ell: int, X: np.ndarray,
               Y: np.ndarray) -> np.ndarray:
        """Scattered/transmitted values at every pair (x_i, y_j).

        Each side pair (x above or below, y above or below) is one block
        on its own fixed xi-rule, evaluated as two matrix products.  The
        rule depends on the block's extreme heights and offsets, so an
        entry's last bits depend on the other points of X and Y; the same
        X and Y always give the same bytes."""
        X = np.asarray(X, float).reshape(-1, 2)
        Y = np.asarray(Y, float).reshape(-1, 2)
        _check_heights(X[:, 1], Y[:, 1])
        out = np.empty((len(X), len(Y)), dtype=complex)
        for ix in _sides(X):
            for iy in _sides(Y):
                Xb, Yb = X[ix], Y[iy]
                out[np.ix_(ix, iy)] = _apply_rule(
                    self._rule(kind, ell, Xb, Yb), Xb, Yb, self._split)
        return out

    def _split(self, X: np.ndarray):
        """_grid_split(X), kept by the bytes of X."""
        return self.splits.get(X.tobytes(), lambda: _grid_split(X))

    def _rule(self, kind: str, ell: int, X: np.ndarray, Y: np.ndarray):
        """Fixed rule of one side-pair block, with the kernel weights and
        the prefactor folded into the quadrature weights.

        The tail comes from the pair with the smallest height sum (the
        slowest decay); the panel widths from the largest horizontal offset
        and the largest height sum (see quad.fixed_rule).  The folded rule
        is kept by kind, ell, side case and the plan fixed_rule gives.

        fixed_rule's tail bound needs an envelope E >= |k| with
        xi^p e^{h xi} E(xi) nonincreasing past 1.5 max(kappa1, kappa2).
        E = |k| serves every kernel but the cross-side vertical
        dipole, whose weight |beta_j / (beta1 + beta2)|, j the source's
        medium, grows toward 1/2 when that medium has the larger kappa:
        its envelope carries the factor (|beta1| + |beta2|) / (2 |beta_j|)
        where that exceeds one, at most 1.17 past the ladder's start."""
        ax, ay = np.abs(X[:, 1]), np.abs(Y[:, 1])
        hx, hy = X[np.argmin(ax), 1], Y[np.argmin(ay), 1]
        kern, pref, parity, decay = self._kernel(kind, ell, hx, hy)
        case = self._case(hx, hy)
        offset = max(X[:, 0].max() - Y[:, 0].min(),
                     Y[:, 0].max() - X[:, 0].min())
        k1, k2 = self.medium.kappa1, self.medium.kappa2

        def envelope(xi):
            kabs = np.abs(kern(xi))
            if ell != 2 or case[0] == case[1]:
                return kabs
            s1, s2 = np.abs(beta(xi, k1)), np.abs(beta(xi, k2))
            return kabs * np.maximum(1.0, 0.5 * (s1 + s2)
                                     / (s1 if case[1] == "u" else s2))
        plan = fixed_rule(envelope, (k1, k2), decay, offset,
                          ax.max() + ay.max(), self.tol / abs(pref))

        def fold():
            xi, w = rule_nodes(*plan)
            weight = self._weight(kind, ell, case)[0]
            b1, b2 = beta(xi, k1), beta(xi, k2)
            # a wavenumber whose square underflows makes a vertical
            # wavenumber vanish at a node, and the weight there infinite
            with np.errstate(divide="ignore", invalid="ignore"):
                wk = (2.0 if parity == "even" else 2.0j) * pref * w \
                    * weight(b1, b2, xi)
            if not np.all(np.isfinite(wk)):
                raise AccuracyError("non-finite weight in a fixed xi-rule",
                                    estimate=np.inf)
            xi.flags.writeable = False
            wk.flags.writeable = False
            return _FixedRule(xi=xi, weights=wk, parity=parity, kappa1=k1,
                              kappa2=k2)
        return self.rules.get((kind, ell, case, plan), fold)

    def check_rule(self, X: np.ndarray, Y: np.ndarray) -> None:
        """Compare the fixed rule of every side-pair block of X x Y with the
        reference integrals, for the monopole and both dipoles.

        Each block's rule is the one matrix(X, Y) builds for it.  It is
        checked at the block's pair with the smallest height sum
        |x2| + |y2| (the slowest decay), at that pair's offset and at the
        block's largest offset |x1 - y1| (the fastest oscillation), with
        one scattered_batch call per block and kind.  The reference runs at
        a hundredth of tol, but no finer than 1e-12, and AccuracyError is
        raised when a value differs from it by more than tol plus the
        reference's tolerance.
        """
        X = np.asarray(X, float).reshape(-1, 2)
        Y = np.asarray(Y, float).reshape(-1, 2)
        reference = PlanarGreen(self.medium, max(0.01 * self.tol, 1e-12))
        for ix in _sides(X):
            for iy in _sides(Y):
                Xb, Yb = X[ix], Y[iy]
                x = Xb[np.argmin(np.abs(Xb[:, 1]))]
                y = Yb[np.argmin(np.abs(Yb[:, 1]))]
                right = Xb[:, 0].max() - Yb[:, 0].min()
                left = Xb[:, 0].min() - Yb[:, 0].max()
                offsets = np.array([x[0] - y[0],
                                    right if right >= -left else left])
                at = np.column_stack([offsets, [x[1], x[1]]])
                for kind, ell in (("monopole", 0), ("dipole", 1),
                                  ("dipole", 2)):
                    got = _apply_rule(self._rule(kind, ell, Xb, Yb), at,
                                      np.array([[0.0, y[1]]]))[:, 0]
                    ref = reference.scattered_batch(kind, ell, float(x[1]),
                                                    float(y[1]), offsets)
                    err = float(np.max(np.abs(got - ref)))
                    if err > self.tol + reference.tol:
                        raise AccuracyError(
                            "fixed xi-rule differs from the reference "
                            "integral by %.3e at heights (%g, %g), offsets "
                            "%s (%s %d)" % (err, x[1], y[1], offsets, kind,
                                            ell),
                            value=got, estimate=err)

    # -- point evaluation ---------------------------------------------------
    def scattered(self, x, xs, kind: str = "monopole",
                  ell: int = 0) -> complex:
        """Scattered part at x of the source (kind, ell) at xs, a
        SourceSpec's kind and direction (ConfigurationError otherwise); the
        transmitted field cross-side."""
        SourceSpec(kind, (float(xs[0]), float(xs[1])), ell)
        return complex(self.scattered_batch(
            kind, ell, float(x[1]), float(xs[1]),
            np.array([float(x[0]) - float(xs[0])]))[0])

    def total(self, x, xs, kind: str = "monopole", ell: int = 0) -> complex:
        """Total field at x of the source (kind, ell) at xs: the scattered
        part plus, on the source's side, Phi_kappa(x, xs) or its
        x_ell-derivative, kappa that of the source's half-plane."""
        value = self.scattered(x, xs, kind, ell)
        if (x[1] > 0.0) != (xs[1] > 0.0):
            return value
        if x[0] == xs[0] and x[1] == xs[1]:
            raise SingularityError("total field requested at the source")
        kappa = self.medium.kappa1 if xs[1] > 0.0 else self.medium.kappa2
        d = np.subtract(x, xs, dtype=float)
        r = np.hypot(*d)
        return value + complex(phi_matrix(kappa, r) if kind == "monopole"
                               else grad_phi_matrix(kappa, d, r)[ell - 1])
