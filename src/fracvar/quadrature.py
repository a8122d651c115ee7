"""Adaptive quadrature with declared algebraic singularities and algebraic tails.

Design notes
------------
* Core rule: 15-point Gauss--Kronrod on finite intervals, adaptive bisection
  ordered by the per-interval error estimate (largest first, ties broken by
  the left endpoint), so results are deterministic for identical inputs.
  One panel kernel, ``_gk15``, evaluates any set of panels (lo[j], hi[j])
  in one integrand call: both halves of a bisection are one call on their
  30 nodes; an integrand that is elementwise in its nodes gets the bits of
  one call per panel, while one that decides on the whole batch (a batch
  gradient, or an angular profile whose budget runs out) may round
  differently.
* Declared endpoint singularities |x - p|^g with g > -1 are removed by the
  power substitution x = p + (q - p) t^m, m ~ 3/(1+g); the Kronrod nodes are
  interior, so singular endpoints are never evaluated.
* Infinite endpoints require a declared algebraic tail |x|^(-tau), tau > 1,
  and are mapped to [0, 1) by x = c + s u/(1-u); the image endpoint exponent
  tau - 2 is then handled like any other declared singularity.
* On a segment mapped from a declared singular endpoint p the offset
  d = x - p = +/- h t^m is known exactly, even where x itself rounds to p.
  An :class:`OffsetIntegrand` reads offsets from its singular points through
  that d instead of subtracting from the rounded x, so a singularity at any p
  is resolved to full precision.  A plain ``f(x)`` integrand singular at
  |p| >~ 1 sees x only to one ulp of p, which floors its accuracy at about
  eps^(1+g); at p = 0 it does not (subnormals are dense).
* Integrands are evaluated in vectorized batches (callables take and return
  numpy arrays); evaluation counts are tracked against ``max_evals``.
* Many independent integrals can run in lockstep (``_adaptive_batch``):
  each round is one ``_gk15`` call on the panels of all of them, each
  integral making the scalar routine's decisions bit for bit, at its own
  tolerances and with scalar or vector values.
* One planner (``_plan``) turns a range with declared singularities into
  leaves, the adaptive integrals it needs: cuts, endpoint and tail maps,
  the tolerance split and the summation order.  It is the only code that
  splits a range's tolerance: every 1-d range integral of the operators is
  an ``integrate_core`` or ``integrate_many`` call at the caller's spec.
  ``integrate_core`` runs the leaves one after another (``_adaptive``, the
  cheaper loop for a few leaves); ``integrate_many`` runs the leaves of
  many ranges in lockstep (``_adaptive_batch``), each range bit for bit
  ``integrate_core`` on it alone when the integrand is elementwise in its
  points.
* Fixed composite Gauss--Legendre rules, on the panels between given
  edges, all come from ``gauss_legendre_panels``.
* Integrals over t in (0, inf) of t^(b-1) F(t), where F is a product of
  1-d heat convolutions (Gaussian subordination), use the trapezoid rule in
  u = log t (``log_trapezoid``), which converges exponentially for such
  integrands, with both ends summed as geometric series on the same grid.
* Every routine above the Gauss--Kronrod loop returns a :class:`QuadResult`
  (value, error estimate, evaluations, convergence flag), and results of
  the pieces of one integral add with ``+``.  The panel routines keep raw
  tuples: ``_gk15`` (values and errors per panel), ``_adaptive`` and
  ``_adaptive_batch``, whose tuples ``integrate_core``, ``integrate_many``
  and the batch's other callers turn into results.

The operators' kernel integrals in n = 2, 3 factor into a radial integral
of angular averages; angular quadrature is the doubling trapezoid rule
(n = 2) or a Gauss-Legendre x trapezoid product (n = 3), both with fixed
node layouts.  ``angular_profile`` refines each radius on its own, evaluates
a level only if its open radii fit into the budget, and its convergence flag
is AND-ed into the result of the radial integral.
Cube kernel integrals (``cube_kernel_integral``) are sums of face fluxes.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "QuadSpec",
    "QuadResult",
    "OffsetIntegrand",
    "NonIntegrableSingularityError",
    "QuadratureBudgetError",
    "SingularPointError",
    "cube_kernel_integral",
    "integrate_1d",
    "integrate_core",
    "integrate_many",
    "default_spec",
    "gauss_hermite",
    "gauss_legendre",
    "gauss_legendre_panels",
    "log_trapezoid",
]


class NonIntegrableSingularityError(ValueError):
    """Declared singularity exponent <= -1 inside the integration range."""


class QuadratureBudgetError(RuntimeError):
    """Evaluation budget exhausted before reaching the requested tolerance."""


class SingularPointError(ValueError):
    """Evaluation requested at a declared singular point."""


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature policy: tolerances and evaluation budget."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_evals: int = 1_000_000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("rel_tol and abs_tol must be positive and finite")
        if not 100 <= self.max_evals < math.inf:
            raise ValueError("max_evals must be finite and at least 100")

    @classmethod
    def from_overrides(cls, overrides) -> QuadSpec:
        """The spec with these field overrides; ValueError for a bad field or value."""
        try:
            return cls(**overrides)
        except TypeError as exc:
            raise ValueError(f"invalid quadrature overrides {overrides!r}: {exc}") from None


_DEFAULT_REL = {1: 1e-8, 2: 1e-6, 3: 1e-5}


def default_spec(n: int = 1) -> QuadSpec:
    """Default policy per ambient dimension: rel_tol 1e-8 / 1e-6 / 1e-5."""
    return QuadSpec(rel_tol=_DEFAULT_REL.get(n, 1e-5))


@dataclass(frozen=True)
class QuadResult:
    """A quadrature value with its error estimate, the evaluations charged to
    its counter when it finished, and whether it met its tolerance.

    ``value`` is a float or an array; ``err_estimate`` is a float, or an
    array of the value's shape where each entry has its own estimate
    (``log_trapezoid``).  Results add: values and errors add, flags AND, and
    ``evals_used`` is the larger reading, since the pieces of one integral
    share one monotone ``_Counter`` and its last reading counts every
    evaluation once.
    """

    value: float | np.ndarray
    err_estimate: float | np.ndarray
    evals_used: int
    converged: bool

    def __add__(self, other: QuadResult) -> QuadResult:
        return QuadResult(
            self.value + other.value,
            self.err_estimate + other.err_estimate,
            max(self.evals_used, other.evals_used),
            self.converged and other.converged,
        )

    def require(self, what: str = "quadrature") -> float | np.ndarray:
        """The value, or QuadratureBudgetError naming ``what`` if it did not converge."""
        if not self.converged:
            raise QuadratureBudgetError(
                f"{what} did not converge (err ~ {_magnitude(self.err_estimate):.3e} after "
                f"{self.evals_used} evaluations)"
            )
        return self.value


class OffsetIntegrand:
    """An integrand ``fn(x, dx)`` that reads offsets from its singular points
    through ``dx(c)``, which returns x - c (``fn(x, dx, owner)`` for
    ``integrate_many``, where c may also be an array, one entry per point).

    On a segment mapped from a declared singular endpoint p the engine holds
    d = x - p exactly (d = +/- h t^m, never recomputed from x), and ``dx(c)``
    is d + (p - c): exactly d at c = p, however far below one ulp of p the
    offset lies.  Everywhere else ``dx(c)`` is x - c.  Called with x alone,
    the wrapper evaluates as a plain integrand.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[..., np.ndarray]):
        self.fn = fn

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x, lambda c: x - c)


# 15-point Kronrod extension of 7-point Gauss (standard QUADPACK constants).
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

# Full symmetric node/weight tables on [-1, 1].
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # ascending, 15 nodes
_W_K = np.concatenate([_WGK[:-1], _WGK[::-1]])
_w_gauss_half = np.zeros(8)
_w_gauss_half[1::2] = _WG  # Gauss nodes sit at indices 1,3,5 of XGK plus center
_W_G = np.concatenate([_w_gauss_half[:-1], _w_gauss_half[::-1]])

_EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    and returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_panels(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with ``order`` nodes on each panel
    between consecutive ``edges``: the nodes mid + half t and the weights
    half w of every panel, flat and panel by panel."""
    e = np.asarray(edges, dtype=float)
    lo, hi = e[:-1, None], e[1:, None]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t, w = gauss_legendre(order)
    return (mid + half * t).ravel(), (half * w).ravel()


@functools.lru_cache(maxsize=None)
def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for int h(z) exp(-z^2) dz over the
    real line, computed once per order and returned read-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class _Counter:
    __slots__ = ("used", "budget")

    def __init__(self, budget: int) -> None:
        self.used = 0
        self.budget = budget

    def add(self, k: int) -> bool:
        self.used += k
        return self.used <= self.budget


def _gk15(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
          counter: _Counter):
    """The Gauss-Kronrod panels [lo[j], hi[j]] (the whole interval, the two
    halves of a bisection, or the panels of many integrals in lockstep) from
    one call of f on all their nodes, panel by panel.  Returns (values[p],
    errs[p], ok), one value vector and one error per panel.  The sums are
    stacked (p, k) products ``_W_K @ V``, bit for bit the per-panel
    ``_W_K @ vals``, so an elementwise f gets the values and errors of one
    call per panel; the counter is charged 15 per panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = (mid[:, None] + half[:, None] * _NODES).ravel()
    ok = counter.add(x.size)
    with np.errstate(all="ignore"):
        fx = np.atleast_2d(np.asarray(f(x), dtype=float))
        # (k, m) layout from atleast_2d of a 1-d result
        V = (fx if fx.shape[0] == x.size else fx.T).reshape(lo.size, _NODES.size, -1)
        # Non-finite values can only come from evaluating within one ulp of a
        # declared singularity (measure zero); drop them rather than poison
        # sums, charging the panel error with a neighbor-scale bound for each
        # drop.  A panel with no finite node has no such scale, and its mass
        # (a NaN, or a pole closer than its offsets can say) is unknown: its
        # infinite error keeps the integral from converging.
        finite = np.isfinite(V)
        drop_charge = None
        if not finite.all():
            drop_charge = np.zeros(lo.size)
            for i in range(lo.size):
                col_finite = finite[i].all(axis=1)
                if col_finite.any():
                    scale = float(np.max(np.abs(V[i][col_finite])))
                    drop_charge[i] = abs(half[i]) * float(_W_K[~col_finite].sum()) * scale
                else:
                    drop_charge[i] = math.inf
            V = np.where(finite, V, 0.0)
        h = half[:, None]
        resk = h * (_W_K @ V)
        resg = h * (_W_G @ V)
        resabs = h * (_W_K @ np.abs(V))
        mean = resk / (hi - lo)[:, None]
        resasc = h * (_W_K @ np.abs(V - mean[:, None, :]))
        err = _panel_error(resk, resg, resabs, resasc).max(axis=1)
    if drop_charge is not None:
        err += drop_charge
    return resk, err, ok


def _panel_error(resk, resg, resabs, resasc) -> np.ndarray:
    """QUADPACK error estimate of GK15 panels, elementwise (Piessens et al. 1983):
    |K - G| scaled by the panel's mean deviation, floored at rounding level.
    Call it with overflow and invalid warnings off: a large |K - G| over a
    small deviation overflows the power, and its minimum with 1 is 1."""
    err = np.abs(resk - resg)
    pos = resasc > 0.0
    scale = np.where(pos, resasc, 1.0)
    scaled = scale * np.minimum(1.0, (200.0 * err / scale) ** 1.5)
    return np.maximum(np.where(pos, scaled, err), 50.0 * _EPS * resabs)


def _magnitude(v) -> float:
    """max |v_i| of a value vector, or |v| of a scalar (a one-entry vector read
    as one)."""
    if isinstance(v, float):
        return abs(v)
    if isinstance(v, np.ndarray) and v.size == 1:
        return abs(float(v.item()))
    return float(np.max(np.abs(v)))


class _AdaptiveState:
    """Interval heap and running sums of one adaptive integral.

    ``_adaptive`` and ``_adaptive_batch`` both drive it, so they bisect the
    same intervals and stop at the same point: worst interval first (largest
    error, ties by lo, then hi), a width floor, and a stall counter for
    refinement that has reached the integrand's round-off floor.  Intervals
    retired at the width floor keep their error; once that retired error
    alone exceeds the tolerance, no further bisection can meet it, and the
    integral stops.
    """

    __slots__ = ("heap", "done", "value_sum", "err_sum", "retired_err", "stalls", "span",
                 "converged")

    def __init__(self, a: float, b: float, val, err: float, ok: bool) -> None:
        self.heap = [(-err, a, b, val, err)]
        self.done: list[tuple] = []
        self.value_sum, self.err_sum = val, err
        self.retired_err = 0.0
        self.stalls = 0
        self.span = b - a
        self.converged = ok

    def next_split(self, rel_tol: float, abs_tol: float):
        """The heap entry to bisect next, or None once the integral stops."""
        while True:
            tol = max(abs_tol, rel_tol * _magnitude(self.value_sum))
            if (self.err_sum <= tol or not self.heap or self.stalls >= 40
                    or self.retired_err > tol):
                return None
            item = heapq.heappop(self.heap)
            lo, hi = item[1], item[2]
            width = hi - lo
            if width <= 1e-14 * max(abs(lo), abs(hi), self.span) or width < 5e-308:
                self.done.append(item)
                self.retired_err += item[4]
                continue
            return item

    def split(self, item, mid: float, vl, el: float, vr, er: float) -> None:
        _, lo, hi, v, e = item
        self.stalls = self.stalls + 1 if el + er >= 0.99 * e else 0
        self.value_sum = self.value_sum - v + vl + vr
        self.err_sum = self.err_sum - e + el + er
        heapq.heappush(self.heap, (-el, lo, mid, vl, el))
        heapq.heappush(self.heap, (-er, mid, hi, vr, er))

    def result(self, rel_tol: float, abs_tol: float):
        """(value, err, converged), the pieces summed in (lo, hi) order."""
        pieces = sorted(self.heap + self.done, key=lambda p: (p[1], p[2]))
        value = err = 0.0
        for p in pieces:
            value = value + p[3]
            err = err + p[4]
        if self.converged:
            return value, err, err <= max(abs_tol, rel_tol * _magnitude(value))
        return value, err, False


def _adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float,
    abs_tol: float,
    counter: _Counter,
) -> tuple[np.ndarray, float, bool]:
    """Adaptive Gauss-Kronrod on [a, b] for a vectorized (possibly vector-valued) f."""
    val, err, ok = _gk15(f, np.array([a]), np.array([b]), counter)
    state = _AdaptiveState(a, b, val[0], err.item(), ok)
    while (item := state.next_split(rel_tol, abs_tol)) is not None:
        mid = 0.5 * (item[1] + item[2])
        edges = np.array((item[1], mid, item[2]))
        (vl, vr), err, ok = _gk15(f, edges[:-1], edges[1:], counter)
        el, er = err.tolist()
        state.split(item, mid, vl, el, vr, er)
        if not ok:
            state.converged = False
            break
    return state.result(rel_tol, abs_tol)


def _adaptive_batch(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    rel_tol: float | np.ndarray,
    abs_tol: float | np.ndarray,
    counter: _Counter,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_adaptive`` for independent integrals over [a[j], b[j]], in lockstep.

    ``g(x, owner)`` returns the integrand of integral ``owner[j]`` at the 15
    points ``x[j]``: a (p, 15) array, or (p, 15, k) for k-vector values.
    Each round evaluates the panels of every unfinished integral in one
    call, and each integral makes the decisions of the scalar routine at its
    own tolerances ``rel_tol[j]``, ``abs_tol[j]`` (arrays, or one scalar for
    all): it bisects its worst interval (largest error, ties by lo, then
    hi), keeps the same running sums, stall counter and width floor, and
    sums its pieces in (lo, hi) order.  So integral j returns bit for bit
    what ``_adaptive`` returns for ``x -> g(x[None], [j])[0]`` on
    [a[j], b[j]].  When ``counter`` runs out during a round, every integral
    evaluated in it stops with converged=False.  Returns (value, err[J],
    converged[J], evals[J]): value[J] for scalar values, (J, k) for vector
    ones, and the evaluations charged for each integral.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    rel = np.broadcast_to(np.asarray(rel_tol, dtype=float), a.shape)
    tol_abs = np.broadcast_to(np.asarray(abs_tol, dtype=float), a.shape)
    vector = []  # whether g returns k-vectors, read from its first call

    def panels(lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
        def h(x: np.ndarray) -> np.ndarray:
            fx = np.asarray(g(x.reshape(-1, _NODES.size), owner), dtype=float)
            if not vector:
                vector.append(fx.ndim > 2)
            return fx.reshape(x.size, -1)

        return _gk15(h, lo, hi, counter)

    val, err, ok = panels(a, b, np.arange(a.size))
    settled = err <= np.fmax(tol_abs, rel * np.max(np.abs(val), axis=1))
    # an integral settled by its first panel is that one piece, summed from 0.0
    value, err_tot, converged = 0.0 + val, 0.0 + err, ok & settled
    evals = np.full(a.size, _NODES.size)
    # the open integrals' states and tolerances; scalar integrals keep Python
    # floats in their states, vector ones rows
    open_idx = np.flatnonzero(~settled)
    rows = val[open_idx] if vector[0] else val[open_idx, 0].tolist()
    active = open_idx.tolist()
    states = {j: _AdaptiveState(*args, ok) for j, *args in zip(
        active, a[open_idx].tolist(), b[open_idx].tolist(), rows, err[open_idx].tolist())}
    tols = dict(zip(active, zip(rel[open_idx].tolist(), tol_abs[open_idx].tolist())))
    while active:
        todo = [(j, item) for j in active
                if (item := states[j].next_split(*tols[j])) is not None]
        if not todo:
            break
        owner = np.array([j for j, _ in todo])
        lo = np.array([item[1] for _, item in todo])
        hi = np.array([item[2] for _, item in todo])
        mid = 0.5 * (lo + hi)
        v, e, ok = panels(np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                          np.concatenate([owner, owner]))
        evals[owner] += 2 * _NODES.size
        r = len(todo)
        v = v if vector[0] else v[:, 0].tolist()
        e, mid = e.tolist(), mid.tolist()
        for i, (j, item) in enumerate(todo):
            states[j].split(item, mid[i], v[i], e[i], v[r + i], e[r + i])
            states[j].converged = states[j].converged and ok
        active = owner.tolist() if ok else []
    for j, state in states.items():
        value[j], err_tot[j], converged[j] = state.result(*tols[j])
    return (value if vector[0] else value[:, 0]), err_tot, converged, evals


def _power_m(exponent: float) -> int:
    """Substitution power for an endpoint behaving like |x - p|^exponent."""
    if exponent >= 2.0:
        return 1
    return min(64, max(1, math.ceil(3.0 / (1.0 + exponent))))


class _Leaf(NamedTuple):
    """One adaptive integral of an integration plan, over [lo, hi] at its
    tolerances.  With m > 1 it runs in t on (0, 1) under v = p + h t^m, the
    substitution of a declared endpoint p; with a ``tail`` (anchor,
    direction s, s) the point v in (0, 1] maps to x = anchor + direction
    s (1 - v)/v, the half-line beyond the anchor."""

    lo: float
    hi: float
    rel_tol: float
    abs_tol: float
    m: int = 1
    p: float = 0.0
    h: float = 1.0
    tail: tuple[float, float, float] | None = None


def _leaf_nodes(t, m: int, p, h, tail):
    """The points x of leaves with power m at their nodes t, the exact offset
    d of x = p + d from the mapped endpoint p (p = 0, d = x where there is
    none), and the Jacobians of the tail and the power map (None for a map
    the leaves lack).  p, h and the tail's entries are scalars, or columns
    that broadcast against t, one row per leaf; m stays a Python int, so
    that ``t**m`` takes numpy's scalar-exponent path in both cases."""
    jac_tail = jac_power = None
    if m > 1:
        d = h * t**m
        jac_power = (m * abs(h)) * t ** (m - 1)
        x = p + d
    else:
        p, d, x = 0.0, t, t
    if tail is not None:
        anchor, sdir, s = tail
        jac_tail = s / x**2
        x = anchor + sdir * (1.0 - x) / x
        p, d = 0.0, x
    return x, p, d, jac_tail, jac_power


def _evaluate(f, x: np.ndarray, p, d, *owner) -> np.ndarray:
    """f at the points x = p + d; an :class:`OffsetIntegrand` reads its
    offsets from c as d + (p - c).  ``owner`` (lockstep calls) is passed on."""
    if isinstance(f, OffsetIntegrand):
        return f.fn(x, lambda c: d + (p - c), *owner)
    return f(x, *owner)


def _leaf_integrand(f, leaf: _Leaf):
    """f in the variable of ``leaf``, times the Jacobians of its maps (the
    tail's first); f itself on a leaf without maps."""
    if leaf.m == 1 and leaf.tail is None:
        return f

    def g(t: np.ndarray) -> np.ndarray:
        x, p, d, jac_tail, jac_power = _leaf_nodes(t, leaf.m, leaf.p, leaf.h, leaf.tail)
        vals = np.asarray(_evaluate(f, x, p, d), dtype=float)
        shape = (-1,) + (1,) * (vals.ndim - 1)
        for jac in (jac_tail, jac_power):
            if jac is not None:
                vals = vals * jac.reshape(shape)
        return vals

    return g


def _segment_leaves(p: float, q: float, g_left: float | None, g_right: float | None,
                    rel_tol: float, abs_tol: float) -> list[_Leaf]:
    """The leaves of [p, q] with optional declared endpoint exponents: a
    segment with both ends declared is halved, each half at abs_tol / 2,
    and a declared end with power m > 1 is mapped by x = p + (q - p) t^m."""
    if g_left is not None and g_right is not None:
        mid = 0.5 * (p + q)
        return (_segment_leaves(p, mid, g_left, None, rel_tol, abs_tol / 2)
                + _segment_leaves(mid, q, None, g_right, rel_tol, abs_tol / 2))
    if g_left is not None and _power_m(g_left) > 1:
        return [_Leaf(0.0, 1.0, rel_tol, abs_tol, _power_m(g_left), p, q - p)]
    if g_right is not None and _power_m(g_right) > 1:
        return [_Leaf(0.0, 1.0, rel_tol, abs_tol, _power_m(g_right), q, p - q)]
    return [_Leaf(p, q, rel_tol, abs_tol)]


def _tail_leaf(anchor: float, tau: float, direction: int, rel_tol: float,
               abs_tol: float) -> _Leaf:
    """The leaf of [anchor, +inf) (direction=+1) or (-inf, anchor].

    Uses x = anchor + direction * s (1 - v)/v, s = max(1, |anchor|), so the
    point at infinity maps to v = 0; working in v directly avoids the 1 - u
    cancellation that would otherwise send evaluation points to the literal
    endpoint.  The image of the tail behaves like v^(tau - 2) near v = 0,
    a declared end of [0, 1].
    """
    s = max(1.0, abs(anchor))
    (leaf,) = _segment_leaves(0.0, 1.0, tau - 2.0, None, rel_tol, abs_tol)
    return leaf._replace(tail=(anchor, direction * s, s))


def _combine(pieces: Sequence[tuple[int, ...]], results: Sequence[QuadResult]) -> QuadResult:
    """The sum of a plan's leaf results: each piece's leaves first, then the
    pieces in order, as the pieces of one integral add."""
    sums = [sum((results[i] for i in piece[1:]), results[piece[0]]) for piece in pieces]
    return sum(sums[1:], sums[0])


def _plan(
    a: float, b: float, singularities: Sequence[tuple[float, float]], spec: QuadSpec
) -> tuple[list[_Leaf], list[tuple[int, ...]]]:
    """The integration plan of [a, b] with declared singularities: its
    leaves, and the pieces that sum them (leaf indices, one tuple per
    segment between cuts and per tail).

    The declared points inside the range cut it; each segment's declared
    ends are mapped (``_segment_leaves``), and an infinite end runs over the
    tail beyond an anchor one unit (or |ref|) past the outermost finite
    reference (``_tail_leaf``).  Every leaf runs at rel_tol / 4, and the
    absolute tolerance is split as abs_tol / nseg / 2 over the segments and
    tails; no caller divides its tolerances before.  ``integrate_core`` and
    ``integrate_many`` run the same plan.  A declaration with a NaN point or
    exponent raises ValueError; one outside [a, b] is ignored.
    """
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    points: dict[float, float] = {}
    tail_lo = tail_hi = None
    for p, e in singularities:
        p = float(p)
        e = float(e)
        if math.isnan(p) or math.isnan(e):
            raise ValueError(f"singularity ({p}, {e}) needs a point and an exponent, not NaN")
        if math.isinf(p):
            if p > 0:
                tail_hi = e
            else:
                tail_lo = e
            continue
        if a <= p <= b and e <= -1.0:
            raise NonIntegrableSingularityError(
                f"exponent {e} at x = {p} is not integrable"
            )
        if a <= p <= b:
            points[p] = e
    if math.isinf(b) and (tail_hi is None or not tail_hi > 1.0):
        raise ValueError("integration to +inf requires a declared tail exponent > 1")
    if math.isinf(a) and (tail_lo is None or not tail_lo > 1.0):
        raise ValueError("integration to -inf requires a declared tail exponent > 1")

    finite_refs = [p for p in points] + [x for x in (a, b) if math.isfinite(x)]
    hi_ref = max(finite_refs) if finite_refs else 0.0
    lo_ref = min(finite_refs) if finite_refs else 0.0
    anchor_hi = hi_ref + max(1.0, abs(hi_ref)) if math.isinf(b) else None
    anchor_lo = lo_ref - max(1.0, abs(lo_ref)) if math.isinf(a) else None

    lo = anchor_lo if anchor_lo is not None else a
    hi = anchor_hi if anchor_hi is not None else b
    cuts = sorted(p for p in points if lo < p < hi)
    edges = [lo] + cuts + [hi]

    nseg = len(edges) - 1 + (anchor_lo is not None) + (anchor_hi is not None)
    rel_seg = spec.rel_tol / 4.0
    abs_seg = spec.abs_tol / max(nseg, 1) / 2.0

    groups = [_segment_leaves(p, q, points.get(p), points.get(q), rel_seg, abs_seg)
              for p, q in zip(edges[:-1], edges[1:])]
    if anchor_hi is not None:
        groups.append([_tail_leaf(anchor_hi, float(tail_hi), +1, rel_seg, abs_seg)])
    if anchor_lo is not None:
        groups.append([_tail_leaf(anchor_lo, float(tail_lo), -1, rel_seg, abs_seg)])
    leaves, pieces = [], []
    for group in groups:
        pieces.append(tuple(range(len(leaves), len(leaves) + len(group))))
        leaves += group
    return leaves, pieces


def integrate_core(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    singularities: Sequence[tuple[float, float]] = (),
    spec: QuadSpec | None = None,
    counter: _Counter | None = None,
) -> QuadResult:
    """Shared integration plan; f may be vector-valued (returns (m, k) arrays).

    Returns the result with a value vector; ``evals_used`` reads the counter,
    which callers may share across several integrals.  The leaves of the
    plan (``_plan``) run one after another, each by ``_adaptive``.
    """
    spec = spec or QuadSpec()
    leaves, pieces = _plan(a, b, singularities, spec)
    counter = counter or _Counter(spec.max_evals)
    results = []
    for leaf in leaves:
        value, err, converged = _adaptive(_leaf_integrand(f, leaf), leaf.lo, leaf.hi,
                                          leaf.rel_tol, leaf.abs_tol, counter)
        results.append(QuadResult(value, err, counter.used, converged))
    total = _combine(pieces, results)
    return QuadResult(np.atleast_1d(total.value), total.err_estimate, counter.used,
                      total.converged and counter.used <= spec.max_evals)


def integrate_many(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray] | OffsetIntegrand,
    ranges: Sequence[tuple],
    spec: QuadSpec | None = None,
) -> list[QuadResult]:
    """Independent integrals over the ``ranges`` (a, b) or (a, b,
    singularities), in lockstep: one result per range, as ``integrate_core``
    returns it.

    ``f(x, owner)`` returns the integrand of range ``owner[i]`` at the point
    ``x[i]``, one value or a k-vector per point (the same k for every
    range); an :class:`OffsetIntegrand` takes ``fn(x, dx, owner)``.  Each
    range is planned as ``integrate_core`` plans it (``_plan``), and the
    leaves of all ranges run through ``_adaptive_batch``, so each round is
    one call of f on the open panels of every range.  The ranges share one
    counter with a budget of ``spec.max_evals`` per range; a range that
    takes more than ``spec.max_evals`` evaluations itself does not
    converge.  When f is elementwise in its points, each range's value,
    ``err_estimate`` and flag are bit for bit those of ``integrate_core``
    on that range alone (``evals_used`` counts the range's own
    evaluations).
    """
    spec = spec or QuadSpec()
    if not ranges:
        return []
    plans = [_plan(float(r[0]), float(r[1]), r[2] if len(r) > 2 else (), spec) for r in ranges]
    leaves = [leaf for plan_leaves, _ in plans for leaf in plan_leaves]
    sizes = [len(plan_leaves) for plan_leaves, _ in plans]
    range_of = np.repeat(np.arange(len(plans)), sizes)
    # leaves with one map shape (power m, tail or not) map their nodes together
    kinds = sorted({(leaf.m, leaf.tail is not None) for leaf in leaves})
    kind_of = np.array([kinds.index((leaf.m, leaf.tail is not None)) for leaf in leaves])
    P = np.array([leaf.p for leaf in leaves])
    H = np.array([leaf.h for leaf in leaves])
    T = np.array([leaf.tail or (0.0, 0.0, 0.0) for leaf in leaves])

    def g(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        x, d = np.empty_like(t), np.empty_like(t)
        p = np.zeros_like(t)
        jac_tail, jac_power = np.ones_like(t), np.ones_like(t)
        kind = kind_of[owner]
        for k, (m, tailed) in enumerate(kinds):
            rows = kind == k
            if not rows.any():
                continue
            leaf = owner[rows][:, None]
            tail = (T[leaf, 0], T[leaf, 1], T[leaf, 2]) if tailed else None
            x[rows], p[rows], d[rows], jt, jp = _leaf_nodes(t[rows], m, P[leaf], H[leaf], tail)
            if jt is not None:
                jac_tail[rows] = jt
            if jp is not None:
                jac_power[rows] = jp
        vals = np.asarray(_evaluate(f, x.ravel(), p.ravel(), d.ravel(),
                                    np.repeat(range_of[owner], t.shape[1])), dtype=float)
        shape = t.shape + vals.shape[1:]
        jac_shape = t.shape + (1,) * (vals.ndim - 1)
        return vals.reshape(shape) * jac_tail.reshape(jac_shape) * jac_power.reshape(jac_shape)

    counter = _Counter(spec.max_evals * len(plans))
    value, err, converged, evals = _adaptive_batch(
        g, np.array([leaf.lo for leaf in leaves]), np.array([leaf.hi for leaf in leaves]),
        np.array([leaf.rel_tol for leaf in leaves]), np.array([leaf.abs_tol for leaf in leaves]),
        counter)
    value = value.reshape(len(leaves), -1)
    err, converged, evals = err.tolist(), converged.tolist(), evals.tolist()
    out, start = [], 0
    for (plan_leaves, pieces), size in zip(plans, sizes):
        results = [QuadResult(value[i], err[i], evals[i], converged[i])
                   for i in range(start, start + size)]
        total = _combine(pieces, results)
        used = sum(evals[start:start + size])
        out.append(QuadResult(np.atleast_1d(total.value), total.err_estimate, used,
                              total.converged and used <= spec.max_evals))
        start += size
    return out


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    singularities: Sequence[tuple[float, float]] = (),
    spec: QuadSpec | None = None,
) -> QuadResult:
    """Integrate a vectorized real function over [a, b].

    ``singularities`` declares algebraic behavior: a pair ``(p, g)`` with finite
    ``p`` means f ~ |x - p|^g near p (required g > -1 when p lies in [a, b]);
    a pair with ``p = +/-inf`` declares an algebraic tail f ~ |x|^(-g) toward
    that end (required g > 1).  Infinite endpoints require a matching tail
    declaration.  f returns one value per point (ValueError otherwise:
    ``integrate_core`` integrates a vector-valued f).
    """
    res = integrate_core(f, a, b, singularities, spec)
    if res.value.size != 1:
        raise ValueError(f"integrate_1d takes a scalar integrand, but f returned "
                         f"{res.value.size} values per point; use integrate_core")
    return replace(res, value=float(res.value[0]))


# ---------------------------------------------------------------------------
# Trapezoid rule in log t (Gaussian subordination)
# ---------------------------------------------------------------------------

_LOG_T_STEP = 0.25  # finest step of the first pass; its estimate compares with 2h = 0.5
_LOG_T_LEVELS = 4  # step halvings after the first pass
_HEAT_T_MAX = 1e13  # t beyond which F(t) is replaced by its asymptotic form, at unit scale
_LOG_T_MIN = -700.0  # smallest u = log t on the grid: exp(u) and t^b stay normal floats


def log_trapezoid(
    F: Callable[[np.ndarray, bool], np.ndarray],
    b: float,
    tail: np.ndarray,
    decay: float,
    small_t_power: float,
    reach: float,
    scale: float,
    spec: QuadSpec,
    counter: _Counter,
    power: tuple[np.ndarray, float] | None = None,
) -> QuadResult:
    """int_0^inf t^(b-1) (F(t) + c t^-p) dt by the trapezoid rule in u = log t,
    with ``power`` = (c, p), p < b, or without the power term if it is None.

    ``F(t, check)`` returns the integrand factor at the nodes ``t`` as an
    array of shape (t.size, ..., k); it charges ``counter`` itself.  With
    ``check`` true it returns a cheaper, less accurate evaluation of the same
    values (e.g. fewer quadrature panels for a convolution), whose
    difference from the full one bounds the error of evaluating F.  In u the
    integrand t^b F(t) is analytic in a strip about the real axis for heat
    convolutions of smooth profiles, so the rule converges exponentially in
    1/h (Trefethen and Weideman, SIAM Rev. 56, 2014).

    * Large t: for t > T, t^b F(t) is replaced by its asymptotic form
      ``tail * t^-decay`` (decay > 0), summed on the same grid as a geometric
      series.  T = 1e13 / scale^2, with ``scale`` the smallest feature length
      of F.  The mismatch between the two forms at T, which falls like
      t^-(decay + 1) beyond it, is charged to the error.
    * Small t: t^b F(t) = O((t reach^2)^small_t_power) relative to the
      integral's own scale, so the grid stops where that is below
      1e-3 rel_tol, but not below t = e^-700, where t^b would underflow
      for small b; the nodes beyond it are summed as a geometric series
      from the value at the last node, and that sum is charged to the error.
    * The power term: c t^(b-p) is added to t^b F(t) at every node, and its
      nodes below the grid are summed exactly as a geometric series, not
      charged to the error; eps times the sum of its magnitudes on the
      grid, the rounding floor of a value that cancels it, is charged.  It
      may decay at t -> 0 far more slowly than t^b F(t) (the fractional
      Laplacian's f(x) (pi/t)^(n/2), whose t^(beta/2) would put the grid's
      end below t = 1e-300), so only F sets the end.
    * Error: the nodes of step 2h are every other node of step h, so
      |S_h - S_2h| comes free, plus the check difference at the 2h nodes and
      the large-t mismatch.  h starts at 0.25 and halves until every entry
      meets max(abs_tol, rel_tol * |value|), |value| the max-norm over the
      last axis, or the budget runs out.

    Returns the result with value and err_estimate of F's per-node shape;
    c has that shape too.
    """
    h = _LOG_T_STEP
    u_hi = math.log(_HEAT_T_MAX / scale**2)
    u_lo = math.log(1e-3 * spec.rel_tol) / small_t_power - 2.0 * math.log(reach)
    u_lo = min(max(u_lo, _LOG_T_MIN), u_hi - 1.0)
    m = 2 * math.ceil((u_hi - u_lo) / (2.0 * h))

    def weighted(u: np.ndarray, check: bool) -> np.ndarray:
        t = np.exp(u)
        vals = np.asarray(F(t, check), dtype=float)
        return vals * (t**b).reshape((-1,) + (1,) * (vals.ndim - 1))

    def pure(u: np.ndarray) -> np.ndarray:  # the power term c t^(b-p) at the nodes u
        c, p = power
        return c * np.exp((b - p) * u).reshape((-1,) + (1,) * np.ndim(c))

    def nodes(u: np.ndarray) -> np.ndarray:  # the whole integrand
        vals = weighted(u, False)
        return vals if power is None else vals + pure(u)

    def geometric(step: float, rate: float) -> float:
        q = math.exp(-rate * step)
        return step * q / (1.0 - q)

    u = u_hi - h * np.arange(m + 1)
    g = weighted(u, False)
    panel = 2.0 * h * np.abs(g[::2] - weighted(u[::2], True)).sum(axis=0)
    small_t = g[-1]  # t^b F(t) at the smallest t, without the power term
    rounding = 0.0
    if power is not None:
        terms = pure(u)
        # F cancels the power term where it is large, and each node rounds
        # at about eps times its magnitude
        rounding = _EPS * h * np.abs(terms).sum(axis=0)
        g = g + terms
    large_t = tail * math.exp(-decay * u_hi)  # the asymptotic form at the last node
    mismatch = np.abs(g[0] - large_t)

    def ends(step: float) -> np.ndarray:
        out = large_t * geometric(step, decay) + small_t * geometric(step, small_t_power)
        if power is not None:
            out = out + pure(u[-1:])[0] * geometric(step, b - power[1])
        return out

    coarse = 2.0 * h * g[::2].sum(axis=0) + ends(2.0 * h)
    inner = h * g.sum(axis=0)
    for level in range(_LOG_T_LEVELS + 1):
        value = inner + ends(h)
        err = (np.abs(value - coarse) + panel + mismatch * geometric(h, decay + 1.0)
               + np.abs(small_t) * geometric(h, small_t_power) + rounding)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * np.max(np.abs(value), axis=-1, keepdims=True))
        within_budget = counter.used <= counter.budget
        if bool(np.all(err <= tol)) or not within_budget or level == _LOG_T_LEVELS:
            return QuadResult(value, err, counter.used, bool(np.all(err <= tol)) and within_budget)
        # halve the step: the new nodes sit midway between the current ones
        coarse = value
        h /= 2.0
        inner = 0.5 * inner + h * nodes(u_hi - h - 2.0 * h * np.arange(m)).sum(axis=0)
        m *= 2


# ---------------------------------------------------------------------------
# Angular machinery for n = 2, 3
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _circle_nodes(m: int) -> np.ndarray:
    """The m trapezoid nodes on S^1, (m, 2), computed once per m and returned
    read-only."""
    theta = 2.0 * math.pi * np.arange(m) / m
    omega = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    omega.flags.writeable = False
    return omega


@functools.lru_cache(maxsize=None)
def _sphere_nodes(q: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule on S^2: Gauss-Legendre in cos(polar) x trapezoid in
    azimuth, computed once per (q, m) and returned read-only."""
    z, wz = gauss_legendre(q)
    theta = 2.0 * math.pi * np.arange(m) / m
    st = np.sqrt(1.0 - z**2)
    omega = np.empty((q, m, 3))
    omega[..., 0] = st[:, None] * np.cos(theta)[None, :]
    omega[..., 1] = st[:, None] * np.sin(theta)[None, :]
    omega[..., 2] = z[:, None] * np.ones_like(theta)[None, :]
    w = (wz[:, None] * (2.0 * math.pi / m)) * np.ones((q, m))
    omega, w = omega.reshape(-1, 3), w.reshape(-1)
    omega.flags.writeable = w.flags.writeable = False
    return omega, w


def angular_profile(
    f: Callable[[np.ndarray], np.ndarray],
    center: np.ndarray,
    r: np.ndarray,
    n: int,
    tol: float,
    counter: _Counter,
    moments: bool = False,
) -> QuadResult:
    """Sphere integrals S0(r) = int f(c + r w) dw, or the moments M_i(r) = int w_i f dw.

    Vectorized over the radius batch ``r``; node counts double, for each
    radius on its own, until its increment (the max-norm of the increment of
    S0 and, with ``moments``, of M) is below ``tol`` (absolute); later levels
    are evaluated only on the radii still open.  The value is M with
    ``moments``, else S0, at each radius's last level, and the error estimate
    is the largest last increment.  A level is evaluated only if its nodes
    for the open radii fit into what is left of the counter's budget (the
    first level always is); a call that would overrun the budget, or that
    reaches the finest level (8192 circle nodes, 256 x 512 sphere nodes)
    with a radius above ``tol``, returns the last levels it evaluated,
    unconverged.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if n == 2:
        levels = [(1, 32 << k) for k in range(9)]
    elif n == 3:
        levels = [(8 << k, 16 << k) for k in range(6)]
    else:
        raise ValueError(f"angular_profile supports n in {{2, 3}}, got {n}")
    live = np.arange(r.size)  # the radii still open
    s0 = mom = None
    inc = np.full(r.size, math.inf)
    for q, m in levels:
        size = live.size * q * m
        if s0 is not None and counter.used + size > counter.budget:
            break
        counter.add(size)
        rl = r[live]
        if n == 2:
            omega = _circle_nodes(m)
            vals = np.asarray(f((center + rl[:, None, None] * omega).reshape(-1, 2)),
                              dtype=float).reshape(rl.size, m)
            s0_l = vals.mean(axis=1) * 2.0 * math.pi
            mom_l = (vals[:, :, None] * omega).mean(axis=1) * 2.0 * math.pi if moments else None
        else:
            omega, w = _sphere_nodes(q, m)
            vals = np.asarray(f((center + rl[:, None, None] * omega).reshape(-1, 3)),
                              dtype=float).reshape(rl.size, -1)
            s0_l = vals @ w
            mom_l = np.einsum("rk,k,ki->ri", vals, w, omega) if moments else None
        if s0 is None:
            s0, mom = s0_l, mom_l
            continue
        step = np.abs(s0_l - s0[live])
        if moments:
            step = np.maximum(step, np.max(np.abs(mom_l - mom[live]), axis=1))
            mom[live] = mom_l
        s0[live] = s0_l
        inc[live] = step
        live = live[~(step <= tol)]  # a NaN increment stays open
        if not live.size:
            return QuadResult(mom if moments else s0, float(inc.max()), counter.used, True)
    return QuadResult(mom if moments else s0, float(inc.max()), counter.used, False)


# ---------------------------------------------------------------------------
# Kernel integrals over a cube
# ---------------------------------------------------------------------------


def _exprel(x: np.ndarray) -> np.ndarray:
    """expm1(x) / x, continued by 1 at x = 0."""
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.expm1(safe) / safe)


def _fan(dist: float, s_lo: float, s_hi: float) -> tuple[float, float, float, float]:
    """Polar piece of the segment s in (s_lo, s_hi) of a line at signed
    distance dist from a center, s measured from the center's foot point.

    With s = |dist| sinh(tau) the point lies at radius |dist| cosh(tau) and
    dphi = dtau / cosh(tau), so the piece (sign(dist), |dist|, tau_lo, tau_hi)
    stands for the signed angular integral
    sign(dist) int K(|dist| cosh tau) / cosh(tau) dtau over (tau_lo, tau_hi).
    In tau both the part near the foot and the far part of a segment seen at
    a grazing angle stay resolved; in phi the far part would shrink to an
    angle of order |dist| / |s|.
    """
    delta = abs(dist)
    return math.copysign(1.0, dist), delta, math.asinh(s_lo / delta), math.asinh(s_hi / delta)


def cube_kernel_integral(
    p: np.ndarray,
    exponent: float,
    half_width: float = 1.0,
    over_complement: bool = False,
    spec: QuadSpec | None = None,
    detail: bool = False,
) -> float | QuadResult:
    """int |y - p|^(-exponent) dy over the cube Q = (-h, h)^n or its complement.

    Flux form: div_y[(y - p) |y - p|^(-E)] = (n - E) |y - p|^(-E), so the
    integral over Q (p outside, or inside with E < n) is -1/(E - n), and the
    one over the complement (p inside, E > n) +1/(E - n), times the boundary
    sum  sum_faces int_face d_f |y - p|^(-E) dS,  where d_f = h - s p_i is
    (y - p).nu_out on the face y_i = s h.  In n = 1 the sum is closed form.
    In n = 2, 3 each face is integrated in polar coordinates about the foot
    point c of p on the face plane (see ``_fan``):

    * n = 2: the face is a segment at distance d from p, and contributes
      sign(d) int r^(2-E) dphi over the angles it subtends;
    * n = 3: the square face is a signed fan of four triangles about c, one
      per edge, signed by the side of the edge line c lies on.  The radial
      part is exact, d/(E - 2) (|d|^(2-E) - (d^2 + R^2)^((2-E)/2)) out to the
      edge at R, which leaves one angular integral per triangle.  When c lies
      outside the face the signed angles sum to zero, so the radial part is
      taken relative to (d^2 + h^2) instead of d^2 and stays well conditioned
      at grazing angles.

    All pieces are mapped to [0, 1] and integrated as one sum, so the
    tolerance applies to the boundary sum itself; the budget counts one
    evaluation per piece and node.  With ``detail`` the result is the
    QuadResult of the sum (a float value); without it QuadratureBudgetError
    is raised when the sum does not converge.  Raises SingularPointError for
    p on the boundary of Q, NonIntegrableSingularityError when the kernel is
    not integrable at p, and ValueError for a complement with E <= n or for
    E == n.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    n = p.size
    if n not in (1, 2, 3):
        raise ValueError("cube_kernel_integral supports n in {1, 2, 3}")
    h = float(half_width)
    E = float(exponent)
    spec = spec or default_spec(n)
    inside = bool(np.all(np.abs(p) < h))
    if not inside and bool(np.all(np.abs(p) <= h)):
        raise SingularPointError(f"{p.tolist()} lies on the boundary of the cube")
    if over_complement and E <= n:
        raise ValueError(f"the complement integral diverges at infinity for exponent {E} <= n")
    if inside != over_complement and E >= n:
        raise NonIntegrableSingularityError(f"exponent {E} >= n is not integrable at p")
    if E == n:
        raise ValueError("the flux form needs exponent != n")
    factor = 1.0 / (E - n) if over_complement else -1.0 / (E - n)

    faces = [(h - s * p[i], np.delete(p, i)) for i in range(n) for s in (1.0, -1.0)]
    if n == 1:
        res = QuadResult(factor * float(sum(d * abs(d) ** (-E) for d, _ in faces)), 0.0, 0, True)
        return res if detail else res.value

    rows = []  # one (sign, |dist|, tau_lo, tau_hi, d, S) per piece
    for d, c in faces:
        if d == 0.0:
            continue  # p on the face plane, outside the face: zero flux
        if n == 2:
            rows.append(_fan(d, -h - c[0], h - c[0]) + (d, 0.0))
            continue
        S = d * d if bool(np.all(np.abs(c) <= h)) else d * d + h * h
        for a in (0, 1):
            for s in (1.0, -1.0):
                e = h - s * c[a]
                if e != 0.0:
                    rows.append(_fan(e, -h - c[1 - a], h - c[1 - a]) + (d, S))
    w, delta, lo, hi, D, S = (np.array(col) for col in zip(*rows))
    k = (2.0 - E) / 2.0

    def boundary_sum(u: np.ndarray) -> np.ndarray:
        ch = np.cosh(lo + (hi - lo) * u[:, None])
        rho2 = (delta * ch) ** 2
        if n == 2:
            K = rho2**k
        else:  # d/(2k) ((d^2 + rho^2)^k - S^k), as d S^k (ell/2) exprel(k ell)
            ell = np.where(S == D * D, np.log1p(rho2 / (D * D)), np.log((rho2 + D * D) / S))
            K = D * S**k * (0.5 * ell) * _exprel(k * ell)
        return (K / ch) @ (w * (hi - lo))

    flux_spec = replace(spec, abs_tol=spec.abs_tol * abs(E - n))
    flux = integrate_core(boundary_sum, 0.0, 1.0, (), flux_spec, _Counter(spec.max_evals // len(rows)))
    res = QuadResult(factor * float(flux.value[0]), abs(factor) * flux.err_estimate,
                     flux.evals_used * len(rows), flux.converged)
    return res if detail else res.require("cube kernel integral")
