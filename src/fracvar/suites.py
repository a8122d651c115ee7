"""Executable verification suites: operators vs closed forms, identities, margins.

Each suite compares an operator-side quadrature against the matching closed
form or identity and reports per-case lhs/rhs/errors in a deterministic
:class:`SuiteReport`.  Every runner takes one argument, its order grid
``alpha``: ``DEFAULT_ALPHAS`` for most, ``IDENTITY_ALPHAS`` for ``hardy`` and
(0.5,) for the single-order suites ``gauss-green``, ``hardy-half``,
``rigidity`` and ``leibniz``; ``halfspace`` and ``leibniz`` also take the
``QuadSpec`` of their operator calls.  An order grid given to ``run_suite`` or
``run_all`` (``verify --alpha``) replaces every suite's default, ``hardy``'s
included; the cases pinned at one order stay (the n = 2 half-space and IBP
cases, ``hardy``'s table rows at 0.5 and the zero-field checks of ``ibp``
and ``weighted``).  ``run_all`` returns (reports, exit code): 0 when every
case passes, 1 otherwise; the CLI adds 2 for usage errors and 3 for an
exhausted quadrature budget.

Each family of independent 1-d integrals of a suite (the atom pairings and
log-slope integrals of ``chain``, the half-line and Hardy-weighted integrals
of ``gauss-green`` and ``hardy-half``, ``hardy``'s kernel integrals,
``weighted``'s left sides and tails, ``ibp``'s density pairings and the
outer ranges of ``gagliardo``'s seminorms) runs as one lockstep call per field
(``quadrature.integrate_many``), each integral bit for bit what it gives
alone when its integrand is elementwise in its points.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from . import closed_forms as cf
from . import operators as ops
from .constants import mu
from .fields import (
    FAlpha,
    Gaussian,
    HalfSpace,
    HalfSpaceIndicator,
    IntervalIndicator,
    ProductField,
    ScalarField,
    SmoothBump,
    VectorField,
    d_alpha_measure,
)
from .quadrature import (OffsetIntegrand, QuadResult, QuadSpec, gauss_legendre_panels,
                         integrate_core, integrate_many)

__all__ = [
    "CaseResult",
    "SuiteReport",
    "suite_ibp",
    "suite_halfspace",
    "suite_hardy_optimal",
    "suite_chain_failure",
    "suite_gauss_green",
    "suite_hardy_halfspace",
    "suite_weighted_hardy",
    "suite_rigidity",
    "suite_leibniz",
    "suite_variation_bound",
    "suite_gagliardo_bound",
    "run_all",
    "reports_to_csv",
    "SUITE_NAMES",
    "DEFAULT_ALPHAS",
]

DEFAULT_ALPHAS = (0.25, 0.5, 0.75)
IDENTITY_ALPHAS = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    alpha: float
    n: int
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    inputs: str = ""


@dataclass
class SuiteReport:
    suite: str
    tolerance: float
    cases: list[CaseResult] = dc_field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def add_compare(
        self, case_id: str, alpha: float, n: int, lhs: float, rhs: float,
        tol: float | None = None, inputs: str = "",
    ) -> None:
        """pass iff rel_err <= tol, or abs_err <= tol when rhs is near zero."""
        tol = self.tolerance if tol is None else tol
        abs_err = abs(lhs - rhs)
        near_zero = abs(rhs) <= tol
        rel_err = abs_err / abs(rhs) if rhs != 0.0 else math.inf
        passed = (abs_err <= tol) if near_zero else (rel_err <= tol)
        self.cases.append(
            CaseResult(case_id, alpha, n, lhs, rhs, abs_err,
                       0.0 if near_zero and rhs == 0 else rel_err, tol, passed, inputs)
        )

    def add_margin(
        self, case_id: str, alpha: float, n: int, lhs: float, rhs: float,
        tol: float | None = None, inputs: str = "",
    ) -> None:
        """Inequality lhs <= rhs: pass iff margin rhs - lhs >= -tol."""
        tol = self.tolerance if tol is None else tol
        violation = max(0.0, lhs - rhs)
        rel = violation / abs(rhs) if rhs != 0.0 else violation
        self.cases.append(
            CaseResult(case_id, alpha, n, lhs, rhs, violation, rel, tol,
                       lhs - rhs <= tol, inputs)
        )


def _gl_grid_aligned(lo: float, hi: float, cuts: Sequence[float]):
    """Composite Gauss-Legendre grid of order 14 with panel edges at the
    given cut points, and panels at most 0.9 wide between them.

    Bump-type fields are non-analytic at their support edges; aligning panel
    boundaries there keeps the composite rule spectrally accurate.  Cuts
    closer than rounding (a few eps of hi - lo) to lo, hi or the cut before
    them are one cut: two boxes whose edges differ by an ulp give no sliver
    panel of repeated nodes.  lo and hi stay exact.
    """
    tiny = 4.0 * np.finfo(float).eps * (hi - lo)
    kept = [lo]
    for c in sorted(c for c in cuts if lo + tiny < c < hi - tiny):
        if c - kept[-1] > tiny:
            kept.append(c)
    cuts = kept + [hi]
    edges = [lo]
    for p, q in zip(cuts[:-1], cuts[1:]):
        parts = max(1, math.ceil((q - p) / 0.9))
        edges += np.linspace(p, q, parts + 1)[1:].tolist()
    return gauss_legendre_panels(edges, 14)


def _orders(alpha: Sequence[float]) -> list[float]:
    """The order grid as checked floats (ValueError outside the operators' range)."""
    return [ops._check_alpha(a) for a in np.atleast_1d(alpha)]


def _grad_rows(f: ScalarField, alphas: Sequence[float], xs: np.ndarray) -> np.ndarray:
    """The 1-d batch gradient of f at the points xs, an (m, A) array with
    one column per order: the field is sampled once for all orders
    (``operators._grad_batch_1d``), and each column is bit for bit the
    one-order ``frac_gradient_batch``."""
    return ops._grad_batch_1d(f, alphas, xs[:, None], ops._batch_box(f)).T


def _ibp_lhs(f: ScalarField, comp: ScalarField, alphas: Sequence[float]) -> np.ndarray:
    """int f div_a phi dx (n = 1, phi = (comp,)) at each order, one integral
    of the order vector over the union of the two boxes."""
    lo = min(float(f.quad_box[0][0]), float(comp.quad_box[0][0]))
    hi = max(float(f.quad_box[1][0]), float(comp.quad_box[1][0]))

    def lhs_fn(xs: np.ndarray) -> np.ndarray:
        return f.values(xs[:, None])[:, None] * _grad_rows(comp, alphas, xs)

    return integrate_core(lhs_fn, lo, hi, spec=QuadSpec(rel_tol=1e-9, abs_tol=1e-12)).require()


def suite_ibp(alpha: Sequence[float] = DEFAULT_ALPHAS) -> SuiteReport:
    """int f div_a phi dx = -<phi, D^a f> for smooth pairs, n = 1 (by ``pair``) and 2."""
    report = SuiteReport("ibp", tolerance=1e-6)
    f1 = Gaussian(center=(0.3,), width=1.0)
    comp = SmoothBump(center=(-0.2,), width=1.5)
    alphas = _orders(alpha)
    # the density held with the order grid pairs every order in one lockstep call
    pairs = d_alpha_measure(f1, tuple(alphas)).pair(VectorField(components=(comp,))).tolist()
    for a, lhs, pair in zip(alphas, _ibp_lhs(f1, comp, alphas).tolist(), pairs):
        rhs = -pair
        report.add_compare(f"ibp_1d_a{a}", a, 1, lhs, rhs, tol=1e-6,
                           inputs="gaussian(0.3,1) vs bump(-0.2,1.5)")
    # zero case: f identically 0 pairs to 0 = 0
    report.add_compare("ibp_1d_zero", 0.5, 1, 0.0, 0.0, tol=1e-6, inputs="f = 0")

    a = 0.5
    f2 = SmoothBump(center=(0.1, -0.1), width=(1.2, 1.2))
    phi2 = VectorField(components=(
        SmoothBump(center=(-0.2, 0.15), width=(1.0, 1.4)),
        SmoothBump(center=(0.25, 0.0), width=(1.3, 1.1)),
    ))
    all_fields = [f2, *phi2.components]
    cuts_x = [float(v) for g in all_fields for v in (g.quad_box[0][0], g.quad_box[1][0])]
    cuts_y = [float(v) for g in all_fields for v in (g.quad_box[0][1], g.quad_box[1][1])]

    def grid_2d(box):
        (lox, loy), (hix, hiy) = box[0], box[1]
        xs, wx = _gl_grid_aligned(lox, hix, cuts_x)
        ys, wy = _gl_grid_aligned(loy, hiy, cuts_y)
        P = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        W = np.outer(wx, wy).ravel()
        return P, W

    P_f, W_f = grid_2d(f2.quad_box)
    div = np.zeros(P_f.shape[0])
    for i, phi_i in enumerate(phi2.components):
        div += ops.frac_gradient_batch(phi_i, a, P_f)[:, i]
    lhs2 = float(W_f @ (f2.values(P_f) * div))
    lo = np.minimum(phi2.components[0].quad_box[0], phi2.components[1].quad_box[0])
    hi = np.maximum(phi2.components[0].quad_box[1], phi2.components[1].quad_box[1])
    P_p, W_p = grid_2d((lo, hi))
    grad_f = ops.frac_gradient_batch(f2, a, P_p)
    rhs2 = -float(W_p @ np.einsum("mi,mi->m", phi2.values(P_p), grad_f))
    report.add_compare("ibp_2d_a0.5", a, 2, lhs2, rhs2, tol=1e-4, inputs="tensor bumps")
    return report


def suite_halfspace(
    alpha: Sequence[float] = DEFAULT_ALPHAS,
    spec: QuadSpec | None = None,
) -> SuiteReport:
    """Definitional quadrature of the half-space gradient vs its closed form."""
    report = SuiteReport("halfspace", tolerance=1e-6)
    H1 = HalfSpace.make((1.0,))
    hs1 = HalfSpaceIndicator(halfspace=H1)
    for a in np.atleast_1d(alpha):
        a = float(a)
        for d in (0.25, 1.0, 4.0):
            num = ops.frac_gradient(hs1, a, np.array([d]), spec)[0]
            ref = cf.half_space_gradient(a, H1, np.array([d]))[0]
            report.add_compare(f"hs_1d_a{a}_d{d}", a, 1, num, ref, tol=1e-6,
                               inputs=f"nu=+1, d={d}")
    # n = 2 tilted normal, 3 (alpha, distance) pairs + tangential checks
    H2 = HalfSpace.make((0.6, 0.8))
    hs2 = HalfSpaceIndicator(halfspace=H2)
    nu2 = np.array([0.6, 0.8])
    tan2 = np.array([-0.8, 0.6])
    for a, d in ((0.25, 1.0), (0.5, 1.0), (0.75, 2.0)):
        x = d * nu2 + 1.3 * tan2
        g = ops.frac_gradient(hs2, a, x, spec)
        ref = cf.half_space_gradient(a, H2, x)
        report.add_compare(
            f"hs_2d_a{a}_d{d}", a, 2, float(g @ nu2), float(ref @ nu2), tol=1e-4,
            inputs="nu=(3/5,4/5)",
        )
        report.add_compare(
            f"hs_2d_tangential_a{a}_d{d}", a, 2, float(g @ tan2), 0.0, tol=1e-8,
            inputs="tangential component",
        )
    return report


def suite_hardy_optimal(alpha: Sequence[float] = IDENTITY_ALPHAS) -> SuiteReport:
    """Interval-indicator optimal-constant identity and its Hardy integral."""
    report = SuiteReport("hardy", tolerance=1e-8)
    alphas = [float(a) for a in np.atleast_1d(alpha)]
    # one |x|^-a integral per order, in lockstep (a per-owner exponent array
    # rounds as the scalar one: -a is none of numpy's fast-path exponents)
    neg = -np.array(alphas)
    quads = _scalars(integrate_many(lambda x, owner: np.abs(x) ** neg[owner],
                                   [(-1.0, 1.0, [(0.0, -a)]) for a in alphas],
                                   QuadSpec(rel_tol=1e-10, abs_tol=1e-13)))
    for a, quad in zip(alphas, quads):
        hardy_integral, variation, hardy_constant = cf.interval_identities(a)
        report.add_compare(
            f"identity_a{a}", a, 1, hardy_constant * hardy_integral, variation, tol=1e-14
        )
        report.add_compare(f"hardy_integral_a{a}", a, 1, quad, hardy_integral, tol=1e-8)
    hi5, var5, c5 = cf.interval_identities(0.5)
    report.add_compare("row_hardy_integral_0.5", 0.5, 1, hi5, 4.0, tol=1e-12)
    report.add_compare("row_variation_0.5", 0.5, 1, var5, 3.1915382432114616, tol=1e-12)
    report.add_compare("row_constant_0.5", 0.5, 1, c5, 0.7978845608028654, tol=1e-12)
    return report


def _values(results: Sequence[QuadResult]) -> list[np.ndarray]:
    """The value vectors of lockstep results, each required to converge."""
    return [r.require() for r in results]


def _scalars(results: Sequence[QuadResult]) -> list[float]:
    """The values of scalar lockstep results, each required to converge."""
    return [float(v[0]) for v in _values(results)]


def _by_owner(fields: Sequence[ScalarField], field_of: np.ndarray, owner: np.ndarray, fn):
    """``fn(field, sel)`` for the points ``sel`` (a boolean mask) of each
    field, the field of a point's owner being ``fields[field_of[owner]]``,
    stacked back in point order: one call per field present."""
    which = field_of[owner]
    out = None
    for k, f in enumerate(fields):
        sel = which == k
        if sel.any():
            vals = fn(f, sel)
            if out is None:
                out = np.empty((owner.size,) + vals.shape[1:])
            out[sel] = vals
    return out


def _atom_pairings(bumps: Sequence[ScalarField], alphas: Sequence[float]) -> list[np.ndarray]:
    """int f_a(x) div_a phi(x) dx at each order a, for each bump phi, with
    each order's f_a read through exact offsets from its singular points 0
    and 1: one integral of the order vector per window and bump, whose
    singular points are declared at the smallest order (f_a ~ |x - p|^(a - 1)
    there), all in lockstep; each round samples each bump's batch gradient
    once, on the points of all its windows."""
    spec = QuadSpec(rel_tol=1e-8, abs_tol=1e-11)
    fas = [FAlpha(alpha=a) for a in alphas]
    edge = min(alphas) - 1.0
    windows = (
        (-math.inf, -0.4, [(-math.inf, 3.0)]),
        (-0.4, 0.4, [(0.0, edge)]),
        (0.4, 0.6, []),
        (0.6, 1.4, [(1.0, edge)]),
        (1.4, math.inf, [(math.inf, 3.0)]),
    )
    bump_of = np.arange(len(bumps) * len(windows)) // len(windows)

    def pairing(xs: np.ndarray, dx, owner: np.ndarray) -> np.ndarray:
        f_rows = np.stack([fa.values_from_offsets(dx) for fa in fas], axis=1)
        return f_rows * _by_owner(bumps, bump_of, owner,
                                  lambda bump, sel: _grad_rows(bump, alphas, xs[sel]))

    vals = _values(integrate_many(OffsetIntegrand(pairing), windows * len(bumps), spec))
    return [sum(vals[k * len(windows):(k + 1) * len(windows)]) for k in range(len(bumps))]


# the lower ends of the log-divergence fit of the chain suite
_CHAIN_EPS = (1e-7, 1e-8, 1e-9, 1e-10)


def suite_chain_failure(alpha: Sequence[float] = DEFAULT_ALPHAS) -> SuiteReport:
    """Atom-pair pairing of the counterexample function and its log divergence.

    (a) int f_a div_a phi dx = -<phi, D^a f_a> = phi(1) - phi(0) for smooth
        bumps, from ``d_alpha_measure`` (the atoms +delta_0 - delta_1);
    (b) P(eps) = int_eps^(1/2) |f_a| / x^a dx grows like |mu(1,-a)| ln(1/eps);
        the remainder carries a genuine eps^(1-a) term, which decays only as
        eps^0.1 at a = 0.9, so the slope A comes from a least-squares fit of
        A ln(1/eps) + B + C eps^(1-a) to the integrals at the small eps.
    """
    report = SuiteReport("chain", tolerance=1e-4)
    bumps = (
        (SmoothBump(center=(0.0,), width=0.8), "phi(0)=1, phi(1)=0"),
        (SmoothBump(center=(1.0,), width=0.8), "phi(0)=0, phi(1)=1"),
        (SmoothBump(center=(5.0,), width=1.0), "phi vanishing at both atoms"),
    )
    eps = np.asarray(_CHAIN_EPS)
    logs = np.log(1.0 / eps)
    alphas = _orders(alpha)
    pairings = [p.tolist() for p in _atom_pairings([bump for bump, _ in bumps], alphas)]
    # the one-sided weighted integrals of every (order, eps), in lockstep;
    # each round samples each order's f_a once
    fas = [FAlpha(alpha=a) for a in alphas]
    order_of = np.repeat(np.arange(len(alphas)), len(_CHAIN_EPS))
    neg = -np.array(alphas)

    def weighted(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        f_abs = _by_owner(fas, order_of, owner, lambda fa, sel: np.abs(fa.values(x[sel][:, None])))
        return f_abs * x ** neg[order_of[owner]]

    ps_all = _scalars(integrate_many(weighted, [(e, 0.5) for _ in alphas for e in _CHAIN_EPS],
                                    QuadSpec(rel_tol=1e-10, abs_tol=1e-13)))
    for i, a in enumerate(alphas):
        fa = fas[i]
        for (bump, label), vals in zip(bumps, pairings):
            # 0.0 - x, not -x: phi(1) - phi(0) is +0.0 for a phi vanishing at both atoms
            expected = 0.0 - d_alpha_measure(fa, a).pair(VectorField(components=(bump,)))
            report.add_compare(f"pairing_a{a}_{label}", a, 1, vals[i], expected, tol=1e-4,
                               inputs=label)
        # log-divergence slope of the one-sided weighted integral
        m_abs = abs(mu(1, -a))
        ps = ps_all[i * len(_CHAIN_EPS):(i + 1) * len(_CHAIN_EPS)]
        basis = np.stack([logs, np.ones_like(eps), eps ** (1.0 - a)], axis=1)
        slope = float(np.linalg.lstsq(basis, np.asarray(ps), rcond=None)[0][0])
        report.add_compare(f"log_slope_a{a}", a, 1, slope, m_abs, tol=0.02,
                           inputs=f"fit over eps {list(_CHAIN_EPS)}")
    return report


# the bump of the half-space suites, and their geometries: (name, sign of
# the normal, hyperplane offset x0)
_GG_BUMP = SmoothBump(center=(0.0,), width=1.0)
_GG_GEOMETRIES = (
    ("hyperplane_through_peak", +1.0, 0.0),
    ("support_inside_positive", +1.0, -2.0),
    ("offset_interior", +1.0, 0.4),
    ("negative_normal", -1.0, 0.3),
    ("support_inside_negative", +1.0, 3.0),
)


# the integrals of the batch gradient over half-lines (gauss-green, hardy-half, weighted)
_HALF_LINE_SPEC = QuadSpec(rel_tol=1e-8, abs_tol=1e-11)


def _grad_integrals(f: ScalarField, a: float, sides, absolute: bool) -> list[float]:
    """int_lo^hi grad_a f dx (of |grad_a f| if ``absolute``) over each
    half-line (lo, hi) of ``sides`` in one dimension, with its infinite end
    declared as a 1 + a tail: one lockstep call, each round one batch
    gradient on the points of every half-line."""

    def g(xs: np.ndarray, owner: np.ndarray) -> np.ndarray:
        grad = ops.frac_gradient_batch(f, a, xs[:, None])[:, 0]
        return np.abs(grad) if absolute else grad

    ranges = [(lo, hi, [(hi if math.isinf(hi) else lo, 1.0 + a)]) for lo, hi in sides]
    return _scalars(integrate_many(g, ranges, _HALF_LINE_SPEC))


def _tail_integrals(f: ScalarField, alphas: Sequence[float], radii) -> list[np.ndarray]:
    """int_{|x| > r} |grad_a f| dx at each order a (n = 1) for each radius r:
    one integral per radius over x > r of |grad_a f| at x and at -x, the two
    half-line tails of every order side by side, the tail declared as 1 + a
    at the smallest order; the radii run in lockstep, each round one batch
    gradient on the points of all of them."""
    A = len(alphas)

    def g(xs: np.ndarray, owner: np.ndarray) -> np.ndarray:
        grad = np.abs(_grad_rows(f, alphas, np.concatenate([xs, -xs])))
        return np.concatenate([grad[: xs.size], grad[xs.size:]], axis=1)

    tail = [(math.inf, 1.0 + min(alphas))]
    both = _values(integrate_many(g, [(r, math.inf, tail) for r in radii], _HALF_LINE_SPEC))
    return [v[:A] + v[A:] for v in both]


def _positive_side(nu_sign: float, x0: float) -> tuple[float, float]:
    """The half-line {(x - x0) nu > 0} as (lo, hi)."""
    return (x0, math.inf) if nu_sign > 0 else (-math.inf, x0)


def _hardy_weighted_integrals(f: ScalarField, a: float, x0s: Sequence[float]) -> list[float]:
    """(mu(1,a)/a) int f(x) |x - x0|^(-a) dx over the support of f for each
    x0 of ``x0s``, with the kernel read through the exact offset from x0:
    one lockstep call."""
    lo, hi = float(f.quad_box[0][0]), float(f.quad_box[1][0])
    centers = np.array(x0s, dtype=float)
    g = OffsetIntegrand(
        lambda xs, dx, owner: f.values(xs[:, None]) * np.abs(dx(centers[owner])) ** -a)
    ranges = [(lo, hi, [(x0, -a)] if lo <= x0 <= hi else []) for x0 in x0s]
    vals = _scalars(integrate_many(g, ranges, QuadSpec(rel_tol=1e-9, abs_tol=1e-12)))
    return [mu(1, a) / a * v for v in vals]


def suite_gauss_green(alpha: Sequence[float] = (0.5,)) -> SuiteReport:
    """Half-space flux identity for smooth bumps:

        (mu/a) int f / |(x-x0).nu|^a dx = -nu . int_{H+} grad_a f dx.

    Nonlocality makes the right side nonzero even when supp f avoids the
    hyperplane entirely.
    """
    report = SuiteReport("gauss-green", tolerance=1e-4)
    for a in np.atleast_1d(alpha):
        a = float(a)
        lhs = _hardy_weighted_integrals(_GG_BUMP, a, [x0 for _, _, x0 in _GG_GEOMETRIES])
        sides = [_positive_side(nu_sign, x0) for _, nu_sign, x0 in _GG_GEOMETRIES]
        flux = _grad_integrals(_GG_BUMP, a, sides, absolute=False)
        for (name, nu_sign, x0), left, right in zip(_GG_GEOMETRIES, lhs, flux):
            report.add_compare(f"gg_{name}", a, 1, left, -nu_sign * right, tol=1e-4,
                               inputs=f"bump(0.0,1.0), nu={nu_sign:+.0f}, x0={x0}")
        report.add_compare("gg_zero_field", a, 1, 0.0, 0.0, tol=1e-4, inputs="f = 0")
    return report


def suite_hardy_halfspace(alpha: Sequence[float] = (0.5,)) -> SuiteReport:
    """(mu/a) int f / |(x-x0).nu|^a dx <= int_{cl H+} |grad_a f| dx for f >= 0."""
    report = SuiteReport("hardy-half", tolerance=1e-6)
    for a in np.atleast_1d(alpha):
        a = float(a)
        lhs = _hardy_weighted_integrals(_GG_BUMP, a, [x0 for _, _, x0 in _GG_GEOMETRIES])
        sides = [_positive_side(nu_sign, x0) for _, nu_sign, x0 in _GG_GEOMETRIES]
        rhs = _grad_integrals(_GG_BUMP, a, sides, absolute=True)
        for (name, nu_sign, x0), left, right in zip(_GG_GEOMETRIES, lhs, rhs):
            report.add_margin(f"hh_{name}", a, 1, left, right, tol=1e-6,
                              inputs=f"bump(0.0,1.0), nu={nu_sign:+.0f}, x0={x0}")
        report.add_margin("hh_zero_field", a, 1, 0.0, 0.0, tol=1e-6, inputs="f = 0")
    return report


def _weighted_hardy_lhs(f: ScalarField, cases: Sequence[tuple[float, float]]) -> list[QuadResult]:
    """int f(x) w(|x|, r) dx for the n = 1 weight of ``closed_forms.weight_w``
    at each (a, r) of ``cases``, in lockstep.

    The kernel |t - r| (t = |x|) is read through the exact offset from r or
    -r, the declared singular points inside the support.  The order and
    radius are per-owner arrays; -a is none of numpy's fast-path exponents,
    so the powers round as with a scalar exponent.
    """
    lo, hi = float(f.quad_box[0][0]), float(f.quad_box[1][0])
    A, R = (np.array(col) for col in zip(*cases))
    scale = np.array([mu(1, a) / (2.0 * a) for a in A.tolist()])

    def wfun(xs: np.ndarray, dx, owner: np.ndarray) -> np.ndarray:
        a, r = A[owner], R[owner]
        near = np.abs(np.where(xs >= 0.0, dx(r), dx(-r)))
        return scale[owner] * (near**-a + (np.abs(dx(0.0)) + r) ** -a) * f.values(xs[:, None])

    ranges = [(lo, hi, [(p, -a) for p in (-r, r) if lo < p < hi]) for a, r in cases]
    return integrate_many(OffsetIntegrand(wfun), ranges, QuadSpec(rel_tol=1e-8, abs_tol=1e-11))


def suite_weighted_hardy(alpha: Sequence[float] = DEFAULT_ALPHAS) -> SuiteReport:
    """int f w(|x|, r) dx <= int_{|x|>r} |grad_a f| dx for f >= 0 (n = 1)."""
    report = SuiteReport("weighted", tolerance=1e-6)
    f = SmoothBump(center=(0.0,), width=1.0)
    alphas = _orders(alpha)
    radii = (0.5, 1.0, 2.0)
    tails = [t.tolist() for t in _tail_integrals(f, alphas, radii)]
    lhs = iter(_scalars(_weighted_hardy_lhs(f, [(a, r) for a in alphas for r in radii])))
    for i, a in enumerate(alphas):
        for r, tail in zip(radii, tails):
            report.add_margin(f"wh_a{a}_r{r}", a, 1, next(lhs), tail[i], tol=1e-6,
                              inputs=f"bump(0,1), r={r}")
    report.add_margin("wh_zero_field", 0.5, 1, 0.0, 0.0, tol=1e-6, inputs="f = 0")
    return report


def suite_rigidity(alpha: Sequence[float] = (0.5,)) -> SuiteReport:
    """Sign rigidity of non-negative bumps: the gradient component past the
    support is strictly negative, with magnitude decaying like x^-(n+alpha)."""
    report = SuiteReport("rigidity", tolerance=0.15)
    f = SmoothBump(center=(0.0,), width=1.0)
    xs = np.linspace(1.0, 4.0, 20)
    far = np.geomspace(8.0, 256.0, 12)
    for a in np.atleast_1d(alpha):
        a = float(a)
        g = ops.frac_gradient_batch(f, a, xs[:, None])[:, 0]
        for x, gval in zip(xs, g):
            # strict negativity: encode as margin gval <= 0 with zero tolerance
            report.add_margin(f"sign_x{x:.3f}", a, 1, float(gval), 0.0, tol=0.0,
                              inputs=f"x = {x:.3f}")
        gfar = ops.frac_gradient_batch(f, a, far[:, None])[:, 0]
        slope = float(np.polyfit(np.log(far), np.log(np.abs(gfar)), 1)[0])
        report.add_compare("tail_exponent", a, 1, -slope, 1.0 + a, tol=0.15,
                           inputs="log-log fit over [8, 256]")
    return report


def suite_leibniz(
    alpha: Sequence[float] = (0.5,),
    spec: QuadSpec | None = None,
) -> SuiteReport:
    """grad_a(fg) = g grad_a f + f grad_a g + nl_grad(f, g), pointwise."""
    report = SuiteReport("leibniz", tolerance=1e-6)
    f = Gaussian(center=(0.0,), width=1.0)
    g = Gaussian(center=(0.6,), width=1.2)
    prod = ProductField(left=f, right=g)
    for a in np.atleast_1d(alpha):
        a = float(a)
        for x in np.linspace(-1.2, 1.8, 10):
            x_arr = np.array([float(x)])
            lhs = float(ops.frac_gradient(prod, a, x_arr, spec)[0])
            fv = float(f.values(x_arr[None, :])[0])
            gv = float(g.values(x_arr[None, :])[0])
            rhs = (
                gv * float(ops.frac_gradient(f, a, x_arr, spec)[0])
                + fv * float(ops.frac_gradient(g, a, x_arr, spec)[0])
                + float(ops.nl_gradient(f, g, a, x_arr, spec)[0])
            )
            report.add_compare(f"leibniz_x{float(x):+.3f}", a, 1, lhs, rhs, tol=1e-6,
                               inputs="offset gaussians")
        # swapping the factors leaves the non-local term unchanged
        x_arr = np.array([0.4])
        v12 = float(ops.nl_gradient(f, g, a, x_arr, spec)[0])
        v21 = float(ops.nl_gradient(g, f, a, x_arr, spec)[0])
        report.add_compare("nl_symmetry", a, 1, v12, v21, tol=1e-12)
    return report


def suite_variation_bound(alpha: Sequence[float] = DEFAULT_ALPHAS) -> SuiteReport:
    """Dual lower bound for the interval indicator: positive, at least 60% of
    the exact variation with the shipped family, and never above it.

    The 60% quality target is asserted for alpha >= 0.2 only: the dual density
    decays like |x|^-alpha, so as alpha -> 0 its mass escapes every fixed
    compact test family and no finite family can hold a fixed fraction.
    """
    report = SuiteReport("varbound", tolerance=1e-9)
    chi = IntervalIndicator(a=-1.0, b=1.0)
    family = ops.default_test_family()
    alphas = [float(a) for a in np.atleast_1d(alpha)]
    # each test field is paired once for all orders
    pairings = ops._variation_pairings(chi, alphas, family)
    for a, row in zip(alphas, pairings):
        bound = max(row.tolist())
        exact = cf.interval_identities(a)[1]
        report.add_margin(f"upper_a{a}", a, 1, bound, exact, tol=1e-9,
                          inputs="bound <= exact variation")
        if a >= 0.2:
            report.add_margin(f"quality_a{a}", a, 1, 0.6 * exact, bound, tol=1e-9,
                              inputs="bound >= 60% of exact")
        report.add_compare(f"empty_family_a{a}", a, 1,
                           ops.variation_lower_bound(chi, a, ()), 0.0, tol=1e-15)
    return report


def _l1_norms(f: ScalarField, alphas: Sequence[float]) -> np.ndarray:
    """||grad_a f||_1 (n = 1) at each order a, one integral of the order
    vector over the line, the kinks of f's support edges declared and both
    tails declared as 1 + a at the smallest order."""
    lo, hi = float(f.quad_box[0][0]), float(f.quad_box[1][0])
    tail = 1.0 + min(alphas)
    return integrate_core(
        lambda xs: np.abs(_grad_rows(f, alphas, xs)), -math.inf, math.inf,
        singularities=[(lo, 0.0), (hi, 0.0), (math.inf, tail), (-math.inf, tail)],
        spec=QuadSpec(rel_tol=1e-7, abs_tol=1e-10),
    ).require()


def suite_gagliardo_bound(alpha: Sequence[float] = DEFAULT_ALPHAS) -> SuiteReport:
    """L1 norm of the fractional gradient vs mu(1, a) times the Gagliardo
    seminorm, for a smooth bump (n = 1)."""
    report = SuiteReport("gagliardo", tolerance=1e-6)
    f = SmoothBump(center=(0.0,), width=1.0)
    alphas = _orders(alpha)
    seminorms = ops._gagliardo_seminorms(f, alphas).tolist()
    for a, lhs, seminorm in zip(alphas, _l1_norms(f, alphas).tolist(), seminorms):
        report.add_margin(f"gag_a{a}", a, 1, lhs, mu(1, a) * seminorm, tol=1e-6,
                          inputs="bump(0,1)")
    return report


SUITE_NAMES = (
    "ibp",
    "halfspace",
    "hardy",
    "chain",
    "gauss-green",
    "hardy-half",
    "weighted",
    "rigidity",
    "leibniz",
    "varbound",
    "gagliardo",
)

# every runner takes its order grid ``alpha``; those named in _SPEC_SUITES
# also take the QuadSpec of their operator calls, the others pin their own
_SUITE_RUNNERS: dict[str, Callable[..., SuiteReport]] = {
    "ibp": suite_ibp,
    "halfspace": suite_halfspace,
    "hardy": suite_hardy_optimal,
    "chain": suite_chain_failure,
    "gauss-green": suite_gauss_green,
    "hardy-half": suite_hardy_halfspace,
    "weighted": suite_weighted_hardy,
    "rigidity": suite_rigidity,
    "leibniz": suite_leibniz,
    "varbound": suite_variation_bound,
    "gagliardo": suite_gagliardo_bound,
}

_SPEC_SUITES = ("halfspace", "leibniz")


def run_suite(
    name: str,
    alphas: Sequence[float] | None = None,
    spec: QuadSpec | None = None,
) -> SuiteReport:
    """Run one suite on its default grid, or on ``alphas`` when given, and
    time it into the report's ``wall_time``."""
    if name not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    kwargs = {"spec": spec} if spec is not None and name in _SPEC_SUITES else {}
    if alphas is not None:
        kwargs["alpha"] = tuple(alphas)
    t0 = time.perf_counter()
    report = _SUITE_RUNNERS[name](**kwargs)
    report.wall_time = time.perf_counter() - t0
    return report


def run_all(config: dict | None = None) -> tuple[list[SuiteReport], int]:
    """Run every suite, one after another; exit code 0 iff all cases pass.

    Config keys: "suites" (names), "alphas" (order grid override), "quad"
    (QuadSpec field overrides).
    """
    config = config or {}
    names = config.get("suites", SUITE_NAMES)
    alphas = config.get("alphas")
    spec = QuadSpec.from_overrides(config["quad"]) if "quad" in config else None
    reports = [run_suite(nm, alphas, spec) for nm in names]
    return reports, 0 if all(r.passed for r in reports) else 1


def reports_to_csv(reports: Sequence[SuiteReport]) -> str:
    """Deterministic CSV: suite,case_id,alpha,n,lhs,rhs,abs_err,rel_err,tol,pass."""
    lines = ["suite,case_id,alpha,n,lhs,rhs,abs_err,rel_err,tol,pass"]
    for rep in reports:
        for c in rep.cases:
            lines.append(
                ",".join(
                    [
                        rep.suite,
                        c.case_id,
                        format(c.alpha, ".17g"),
                        str(c.n),
                        format(c.lhs, ".17g"),
                        format(c.rhs, ".17g"),
                        format(c.abs_err, ".17g"),
                        format(c.rel_err, ".17g"),
                        format(c.tol, ".17g"),
                        "1" if c.passed else "0",
                    ]
                )
            )
    return "\n".join(lines) + "\n"
