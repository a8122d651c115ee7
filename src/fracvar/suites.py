"""Executable verification suites: operators vs closed forms, identities, margins.

Each suite compares an operator-side quadrature against the matching closed
form or identity and reports per-case lhs/rhs/errors in a deterministic
:class:`SuiteReport`.  ``run_all`` drives every suite on its default grid and
returns (reports, exit code): 0 when every case passes, 1 otherwise; the CLI
adds 2 for usage errors and 3 for an exhausted quadrature budget.
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
    ScalarField,
    SmoothBump,
    VectorField,
)
from .quadrature import OffsetIntegrand, QuadResult, QuadSpec, gauss_legendre, integrate_1d

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


def _default_ibp_fields_1d() -> tuple[ScalarField, VectorField]:
    f = Gaussian(center=(0.3,), width=1.0)
    phi = VectorField(components=(SmoothBump(center=(-0.2,), width=1.5),))
    return f, phi


def _default_ibp_fields_2d() -> tuple[ScalarField, VectorField]:
    f = SmoothBump(center=(0.1, -0.1), width=(1.2, 1.2))
    phi = VectorField(
        components=(
            SmoothBump(center=(-0.2, 0.15), width=(1.0, 1.4)),
            SmoothBump(center=(0.25, 0.0), width=(1.3, 1.1)),
        )
    )
    return f, phi


def _gl_grid_aligned(lo: float, hi: float, cuts: Sequence[float], order: int = 16,
                     max_width: float = 0.8):
    """Composite Gauss-Legendre grid with panel edges at the given cut points.

    Bump-type fields are non-analytic at their support edges; aligning panel
    boundaries there keeps the composite rule spectrally accurate.
    """
    gl_t, gl_w = gauss_legendre(order)
    edges = sorted({lo, hi, *[c for c in cuts if lo < c < hi]})
    xs, ws = [], []
    for p, q in zip(edges[:-1], edges[1:]):
        parts = max(1, int(math.ceil((q - p) / max_width)))
        sub = np.linspace(p, q, parts + 1)
        for pp, qq in zip(sub[:-1], sub[1:]):
            mid, half = 0.5 * (pp + qq), 0.5 * (qq - pp)
            xs.append(mid + half * gl_t)
            ws.append(half * gl_w)
    return np.concatenate(xs), np.concatenate(ws)


def suite_ibp(
    alpha: Sequence[float] = DEFAULT_ALPHAS,
    f: ScalarField | None = None,
    phi: VectorField | None = None,
    include_2d: bool = True,
) -> SuiteReport:
    """int f div_a phi dx = -int phi . grad_a f dx for smooth pairs, n = 1, 2."""
    report = SuiteReport("ibp", tolerance=1e-6)
    t0 = time.perf_counter()
    f1, phi1 = (f, phi) if f is not None and phi is not None else _default_ibp_fields_1d()
    for a in np.atleast_1d(alpha):
        a = float(a)
        lo_f, hi_f = float(f1.quad_box[0][0]), float(f1.quad_box[1][0])
        comp = phi1.components[0]
        lo_p, hi_p = float(comp.quad_box[0][0]), float(comp.quad_box[1][0])

        def lhs_fn(xs: np.ndarray) -> np.ndarray:
            div = ops.frac_gradient_batch(comp, a, xs[:, None])[:, 0]
            return f1.values(xs[:, None]) * div

        lhs = integrate_1d(lhs_fn, min(lo_f, lo_p), max(hi_f, hi_p),
                           spec=QuadSpec(rel_tol=1e-9, abs_tol=1e-12)).require()

        def rhs_fn(xs: np.ndarray) -> np.ndarray:
            grad = ops.frac_gradient_batch(f1, a, xs[:, None])[:, 0]
            return comp.values(xs[:, None]) * grad

        rhs = -integrate_1d(rhs_fn, lo_p, hi_p,
                            spec=QuadSpec(rel_tol=1e-9, abs_tol=1e-12)).require()
        report.add_compare(f"ibp_1d_a{a}", a, 1, lhs, rhs, tol=1e-6,
                           inputs="gaussian(0.3,1) vs bump(-0.2,1.5)")
    # zero case: f identically 0 pairs to 0 = 0
    report.add_compare("ibp_1d_zero", 0.5, 1, 0.0, 0.0, tol=1e-6, inputs="f = 0")

    if include_2d:
        a = 0.5
        f2, phi2 = _default_ibp_fields_2d()
        all_fields = [f2, *phi2.components]
        cuts_x = [float(v) for g in all_fields for v in (g.quad_box[0][0], g.quad_box[1][0])]
        cuts_y = [float(v) for g in all_fields for v in (g.quad_box[0][1], g.quad_box[1][1])]

        def grid_2d(box):
            (lox, loy), (hix, hiy) = box[0], box[1]
            xs, wx = _gl_grid_aligned(lox, hix, cuts_x, order=14, max_width=0.9)
            ys, wy = _gl_grid_aligned(loy, hiy, cuts_y, order=14, max_width=0.9)
            P = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
            W = np.outer(wx, wy).ravel()
            return P, W

        batch_kw = dict(n_theta=96, radial_order=10, panel_cap=1.2)
        P_f, W_f = grid_2d(f2.quad_box)
        div = np.zeros(P_f.shape[0])
        for i, comp in enumerate(phi2.components):
            div += ops.frac_gradient_batch(comp, a, P_f, **batch_kw)[:, i]
        lhs2 = float(W_f @ (f2.values(P_f) * div))
        lo = np.minimum(phi2.components[0].quad_box[0], phi2.components[1].quad_box[0])
        hi = np.maximum(phi2.components[0].quad_box[1], phi2.components[1].quad_box[1])
        P_p, W_p = grid_2d((lo, hi))
        grad_f = ops.frac_gradient_batch(f2, a, P_p, **batch_kw)
        rhs2 = -float(W_p @ np.einsum("mi,mi->m", phi2.values(P_p), grad_f))
        report.add_compare("ibp_2d_a0.5", a, 2, lhs2, rhs2, tol=1e-4, inputs="tensor bumps")
    report.wall_time = time.perf_counter() - t0
    return report


def suite_halfspace(
    alpha: Sequence[float] = DEFAULT_ALPHAS,
    distances: Sequence[float] = (0.25, 1.0, 4.0),
    spec: QuadSpec | None = None,
) -> SuiteReport:
    """Definitional quadrature of the half-space gradient vs its closed form."""
    report = SuiteReport("halfspace", tolerance=1e-6)
    t0 = time.perf_counter()
    H1 = HalfSpace.make((1.0,))
    hs1 = HalfSpaceIndicator(halfspace=H1)
    for a in np.atleast_1d(alpha):
        a = float(a)
        for d in distances:
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
    report.wall_time = time.perf_counter() - t0
    return report


def suite_hardy_optimal(alpha_grid: Sequence[float] = IDENTITY_ALPHAS) -> SuiteReport:
    """Interval-indicator optimal-constant identity and its Hardy integral."""
    report = SuiteReport("hardy", tolerance=1e-8)
    t0 = time.perf_counter()
    for a in alpha_grid:
        a = float(a)
        hardy_integral, variation, hardy_constant = cf.interval_identities(a)
        report.add_compare(
            f"identity_a{a}", a, 1, hardy_constant * hardy_integral, variation, tol=1e-14
        )
        quad = integrate_1d(
            lambda x: np.abs(x) ** -a, -1.0, 1.0, singularities=[(0.0, -a)],
            spec=QuadSpec(rel_tol=1e-10, abs_tol=1e-13),
        ).require()
        report.add_compare(f"hardy_integral_a{a}", a, 1, quad, hardy_integral, tol=1e-8)
    hi5, var5, c5 = cf.interval_identities(0.5)
    report.add_compare("row_hardy_integral_0.5", 0.5, 1, hi5, 4.0, tol=1e-12)
    report.add_compare("row_variation_0.5", 0.5, 1, var5, 3.1915382432114616, tol=1e-12)
    report.add_compare("row_constant_0.5", 0.5, 1, c5, 0.7978845608028654, tol=1e-12)
    report.wall_time = time.perf_counter() - t0
    return report


def _atom_pairing(fa: FAlpha, bump: ScalarField, a: float) -> float:
    """int f_a(x) div_a phi(x) dx, with f_a read through exact offsets from
    its singular points 0 and 1."""
    spec = QuadSpec(rel_tol=1e-8, abs_tol=1e-11)

    def pairing(xs: np.ndarray, dx) -> np.ndarray:
        div_phi = ops.frac_gradient_batch(bump, a, xs[:, None])[:, 0]
        return fa.values_from_offsets(dx) * div_phi

    g = OffsetIntegrand(pairing)
    windows = (
        (-math.inf, -0.4, [(-math.inf, 3.0)]),
        (-0.4, 0.4, [(0.0, a - 1.0)]),
        (0.4, 0.6, []),
        (0.6, 1.4, [(1.0, a - 1.0)]),
        (1.4, math.inf, [(math.inf, 3.0)]),
    )
    return sum(integrate_1d(g, lo, hi, sings, spec).require() for lo, hi, sings in windows)


def suite_chain_failure(
    alpha: Sequence[float] = DEFAULT_ALPHAS,
    eps_list: Sequence[float] = (1e-7, 1e-8, 1e-9, 1e-10),
) -> SuiteReport:
    """Atom-pair pairing of the counterexample function and its log divergence.

    (a) int f_a div_a phi dx = phi(1) - phi(0) for smooth bumps (the variation
        measure is +delta_0 - delta_1);
    (b) P(eps) = int_eps^(1/2) |f_a| / x^a dx grows like |mu(1,-a)| ln(1/eps);
        the fit runs over small eps because the remainder carries a genuine
        eps^(1-a) term that would bias the slope on coarser grids.
    """
    report = SuiteReport("chain", tolerance=1e-4)
    t0 = time.perf_counter()
    bumps = (
        (SmoothBump(center=(0.0,), width=0.8), "phi(0)=1, phi(1)=0"),
        (SmoothBump(center=(1.0,), width=0.8), "phi(0)=0, phi(1)=1"),
        (SmoothBump(center=(5.0,), width=1.0), "phi vanishing at both atoms"),
    )
    for a in np.atleast_1d(alpha):
        a = float(a)
        fa = FAlpha(alpha=a)
        for bump, label in bumps:
            expected = float(bump.values(np.array([[1.0]]))[0]) - float(
                bump.values(np.array([[0.0]]))[0]
            )
            val = _atom_pairing(fa, bump, a)
            report.add_compare(f"pairing_a{a}_{label}", a, 1, val, expected, tol=1e-4,
                               inputs=label)
        # log-divergence slope of the one-sided weighted integral
        m_abs = abs(mu(1, -a))
        ps = []
        for eps in eps_list:
            val = integrate_1d(
                lambda x: np.abs(fa.values(x[:, None])) * x ** -a, eps, 0.5,
                spec=QuadSpec(rel_tol=1e-10, abs_tol=1e-13),
            ).require()
            ps.append(val)
        logs = np.log(1.0 / np.asarray(eps_list))
        slope = float(np.polyfit(logs, np.asarray(ps), 1)[0])
        report.add_compare(f"log_slope_a{a}", a, 1, slope, m_abs, tol=0.02,
                           inputs=f"fit over eps {list(eps_list)}")
    report.wall_time = time.perf_counter() - t0
    return report


_GG_GEOMETRIES = (
    ("hyperplane_through_peak", 0.0, 1.0, +1.0, 0.0),
    ("support_inside_positive", 0.0, 1.0, +1.0, -2.0),
    ("offset_interior", 0.0, 1.0, +1.0, 0.4),
    ("negative_normal", 0.0, 1.0, -1.0, 0.3),
    ("support_inside_negative", 0.0, 1.0, +1.0, 3.0),
)


def _halfspace_flux(f: ScalarField, a: float, nu_sign: float, x0: float) -> float:
    """-nu . int_{H+} grad_a f dx in one dimension, with declared tails."""

    def g(xs: np.ndarray) -> np.ndarray:
        return ops.frac_gradient_batch(f, a, xs[:, None])[:, 0]

    if nu_sign > 0:
        val = integrate_1d(g, x0, math.inf, singularities=[(math.inf, 1.0 + a)],
                           spec=QuadSpec(rel_tol=1e-8, abs_tol=1e-11)).require()
    else:
        val = integrate_1d(g, -math.inf, x0, singularities=[(-math.inf, 1.0 + a)],
                           spec=QuadSpec(rel_tol=1e-8, abs_tol=1e-11)).require()
    return -nu_sign * val


def _hardy_weighted_integral(f: ScalarField, a: float, x0: float) -> float:
    """(mu(1,a)/a) int f(x) |x - x0|^(-a) dx over the support of f, with the
    kernel read through the exact offset from x0."""
    lo, hi = float(f.quad_box[0][0]), float(f.quad_box[1][0])
    sings = [(x0, -a)] if lo <= x0 <= hi else []
    val = integrate_1d(
        OffsetIntegrand(lambda xs, dx: f.values(xs[:, None]) * np.abs(dx(x0)) ** -a), lo, hi,
        singularities=sings, spec=QuadSpec(rel_tol=1e-9, abs_tol=1e-12),
    ).require()
    return mu(1, a) / a * val


def suite_gauss_green(
    alpha: float = 0.5,
    geometries=_GG_GEOMETRIES,
) -> SuiteReport:
    """Half-space flux identity for smooth bumps:

        (mu/a) int f / |(x-x0).nu|^a dx = -nu . int_{H+} grad_a f dx.

    Nonlocality makes the right side nonzero even when supp f avoids the
    hyperplane entirely.
    """
    report = SuiteReport("gauss-green", tolerance=1e-4)
    t0 = time.perf_counter()
    a = float(alpha)
    for name, c, w, nu_sign, x0 in geometries:
        f = SmoothBump(center=(c,), width=w)
        lhs = _hardy_weighted_integral(f, a, x0)
        rhs = _halfspace_flux(f, a, nu_sign, x0)
        report.add_compare(f"gg_{name}", a, 1, lhs, rhs, tol=1e-4,
                           inputs=f"bump({c},{w}), nu={nu_sign:+.0f}, x0={x0}")
    report.add_compare("gg_zero_field", a, 1, 0.0, 0.0, tol=1e-4, inputs="f = 0")
    report.wall_time = time.perf_counter() - t0
    return report


def suite_hardy_halfspace(
    alpha: float = 0.5,
    geometries=_GG_GEOMETRIES,
) -> SuiteReport:
    """(mu/a) int f / |(x-x0).nu|^a dx <= int_{cl H+} |grad_a f| dx for f >= 0."""
    report = SuiteReport("hardy-half", tolerance=1e-6)
    t0 = time.perf_counter()
    a = float(alpha)
    for name, c, w, nu_sign, x0 in geometries:
        f = SmoothBump(center=(c,), width=w)
        lhs = _hardy_weighted_integral(f, a, x0)

        def absg(xs: np.ndarray) -> np.ndarray:
            return np.abs(ops.frac_gradient_batch(f, a, xs[:, None])[:, 0])

        if nu_sign > 0:
            rhs = integrate_1d(absg, x0, math.inf, singularities=[(math.inf, 1.0 + a)],
                               spec=QuadSpec(rel_tol=1e-8, abs_tol=1e-11)).require()
        else:
            rhs = integrate_1d(absg, -math.inf, x0, singularities=[(-math.inf, 1.0 + a)],
                               spec=QuadSpec(rel_tol=1e-8, abs_tol=1e-11)).require()
        report.add_margin(f"hh_{name}", a, 1, lhs, rhs, tol=1e-6,
                          inputs=f"bump({c},{w}), nu={nu_sign:+.0f}, x0={x0}")
    report.add_margin("hh_zero_field", a, 1, 0.0, 0.0, tol=1e-6, inputs="f = 0")
    report.wall_time = time.perf_counter() - t0
    return report


def _weighted_hardy_lhs(f: ScalarField, a: float, r: float, x0: float = 0.0) -> QuadResult:
    """int f(x) w(|x - x0|, r) dx for the n = 1 weight of ``closed_forms.weight_w``.

    The kernel |t - r| (t = |x - x0|) is read through the exact offset from
    x0 + r or x0 - r, the declared singular points inside the support.
    """
    lo, hi = float(f.quad_box[0][0]), float(f.quad_box[1][0])
    scale = mu(1, a) / (2.0 * a)

    def wfun(xs: np.ndarray, dx) -> np.ndarray:
        near = np.abs(np.where(xs >= x0, dx(x0 + r), dx(x0 - r)))
        return scale * (near**-a + (np.abs(dx(x0)) + r) ** -a) * f.values(xs[:, None])

    sings = [(p, -a) for p in (x0 - r, x0 + r) if lo < p < hi]
    return integrate_1d(OffsetIntegrand(wfun), lo, hi, singularities=sings,
                        spec=QuadSpec(rel_tol=1e-8, abs_tol=1e-11))


def suite_weighted_hardy(
    alpha: Sequence[float] = DEFAULT_ALPHAS,
    radii: Sequence[float] = (0.5, 1.0, 2.0),
    x0: float = 0.0,
) -> SuiteReport:
    """int f w(|x - x0|, r) dx <= int_{|x-x0|>r} |grad_a f| dx for f >= 0 (n = 1)."""
    report = SuiteReport("weighted", tolerance=1e-6)
    t0 = time.perf_counter()
    f = SmoothBump(center=(0.0,), width=1.0)
    for a in np.atleast_1d(alpha):
        a = float(a)
        for r in radii:
            lhs = _weighted_hardy_lhs(f, a, r, x0).require()

            def absg(xs: np.ndarray) -> np.ndarray:
                return np.abs(ops.frac_gradient_batch(f, a, xs[:, None])[:, 0])

            rhs = integrate_1d(absg, x0 + r, math.inf, singularities=[(math.inf, 1.0 + a)],
                               spec=QuadSpec(rel_tol=1e-8, abs_tol=1e-11)).require()
            rhs += integrate_1d(absg, -math.inf, x0 - r, singularities=[(-math.inf, 1.0 + a)],
                                spec=QuadSpec(rel_tol=1e-8, abs_tol=1e-11)).require()
            report.add_margin(f"wh_a{a}_r{r}", a, 1, lhs, rhs, tol=1e-6,
                              inputs=f"bump(0,1), r={r}")
    report.add_margin("wh_zero_field", 0.5, 1, 0.0, 0.0, tol=1e-6, inputs="f = 0")
    report.wall_time = time.perf_counter() - t0
    return report


def suite_rigidity(
    alpha: float = 0.5,
    L: float = 1.0,
    sample_count: int = 20,
) -> SuiteReport:
    """Sign rigidity of non-negative bumps: the gradient component past the
    support is strictly negative, with magnitude decaying like x^-(n+alpha)."""
    report = SuiteReport("rigidity", tolerance=0.15)
    t0 = time.perf_counter()
    a = float(alpha)
    f = SmoothBump(center=(0.0,), width=L)
    xs = np.linspace(L, 4.0 * L, sample_count)
    g = ops.frac_gradient_batch(f, a, xs[:, None])[:, 0]
    for x, gval in zip(xs, g):
        # strict negativity: encode as margin gval <= 0 with zero tolerance
        report.add_margin(f"sign_x{x:.3f}", a, 1, float(gval), 0.0, tol=0.0,
                          inputs=f"x = {x:.3f}")
    far = L * np.geomspace(8.0, 256.0, 12)
    gfar = ops.frac_gradient_batch(f, a, far[:, None])[:, 0]
    slope = float(np.polyfit(np.log(far), np.log(np.abs(gfar)), 1)[0])
    report.add_compare("tail_exponent", a, 1, -slope, 1.0 + a, tol=0.15,
                       inputs="log-log fit over [8L, 256L]")
    report.wall_time = time.perf_counter() - t0
    return report


def suite_leibniz(
    alpha: float = 0.5,
    f: ScalarField | None = None,
    g: ScalarField | None = None,
    points: Sequence[float] | None = None,
    spec: QuadSpec | None = None,
) -> SuiteReport:
    """grad_a(fg) = g grad_a f + f grad_a g + nl_grad(f, g), pointwise."""
    from .fields import ProductField

    report = SuiteReport("leibniz", tolerance=1e-6)
    t0 = time.perf_counter()
    a = float(alpha)
    f = f or Gaussian(center=(0.0,), width=1.0)
    g = g or Gaussian(center=(0.6,), width=1.2)
    prod = ProductField(left=f, right=g)
    pts = points if points is not None else np.linspace(-1.2, 1.8, 10)
    for x in pts:
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
    report.wall_time = time.perf_counter() - t0
    return report


def suite_variation_bound(alpha: Sequence[float] = DEFAULT_ALPHAS) -> SuiteReport:
    """Dual lower bound for the interval indicator: positive, at least 60% of
    the exact variation with the shipped family, and never above it.

    The 60% quality target is asserted for alpha >= 0.2 only: the dual density
    decays like |x|^-alpha, so as alpha -> 0 its mass escapes every fixed
    compact test family and no finite family can hold a fixed fraction.
    """
    report = SuiteReport("varbound", tolerance=1e-9)
    t0 = time.perf_counter()
    chi = IntervalIndicator(a=-1.0, b=1.0)
    family = ops.default_test_family()
    for a in np.atleast_1d(alpha):
        a = float(a)
        bound = ops.variation_lower_bound(chi, a, family)
        exact = cf.interval_identities(a)[1]
        report.add_margin(f"upper_a{a}", a, 1, bound, exact, tol=1e-9,
                          inputs="bound <= exact variation")
        if a >= 0.2:
            report.add_margin(f"quality_a{a}", a, 1, 0.6 * exact, bound, tol=1e-9,
                              inputs="bound >= 60% of exact")
        report.add_compare(f"empty_family_a{a}", a, 1,
                           ops.variation_lower_bound(chi, a, ()), 0.0, tol=1e-15)
    report.wall_time = time.perf_counter() - t0
    return report


def suite_gagliardo_bound(alpha: Sequence[float] = DEFAULT_ALPHAS) -> SuiteReport:
    """L1 norm of the fractional gradient vs mu(1, a) times the Gagliardo
    seminorm, for a smooth bump (n = 1)."""
    report = SuiteReport("gagliardo", tolerance=1e-6)
    t0 = time.perf_counter()
    f = SmoothBump(center=(0.0,), width=1.0)
    for a in np.atleast_1d(alpha):
        a = float(a)
        seminorm = ops.gagliardo_seminorm(f, a)

        def absg(xs: np.ndarray) -> np.ndarray:
            return np.abs(ops.frac_gradient_batch(f, a, xs[:, None])[:, 0])

        lhs = integrate_1d(
            absg, -math.inf, math.inf,
            singularities=[(-1.0, 0.0), (1.0, 0.0), (math.inf, 1.0 + a), (-math.inf, 1.0 + a)],
            spec=QuadSpec(rel_tol=1e-7, abs_tol=1e-10),
        ).require()
        report.add_margin(f"gag_a{a}", a, 1, lhs, mu(1, a) * seminorm, tol=1e-6,
                          inputs="bump(0,1)")
    report.wall_time = time.perf_counter() - t0
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

_SUITE_RUNNERS: dict[str, Callable[[], SuiteReport]] = {
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


# the suites whose operator calls take a QuadSpec; the others pin their own
_SPEC_SUITES = ("halfspace", "leibniz")


def run_suite(
    name: str,
    alphas: Sequence[float] | None = None,
    spec: QuadSpec | None = None,
) -> SuiteReport:
    if name not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    runner = _SUITE_RUNNERS[name]
    kwargs = {"spec": spec} if spec is not None and name in _SPEC_SUITES else {}
    if alphas is None:
        return runner(**kwargs)
    if name in ("gauss-green", "hardy-half", "rigidity", "leibniz"):
        # single-alpha suites: run once per requested alpha and merge
        merged: SuiteReport | None = None
        for a in alphas:
            rep = runner(alpha=float(a), **kwargs)
            if merged is None:
                merged = rep
            else:
                merged.cases.extend(rep.cases)
                merged.wall_time += rep.wall_time
        return merged
    if name == "hardy":
        return runner()
    return runner(alpha=tuple(alphas), **kwargs)


def run_all(config: dict | None = None) -> tuple[list[SuiteReport], int]:
    """Run every suite on its default grid, one after another; exit code 0 iff
    all cases pass.

    Config keys: "suites" (names), "alphas" (order grid override), "quad"
    (QuadSpec field overrides).
    """
    config = config or {}
    names = config.get("suites", SUITE_NAMES)
    alphas = config.get("alphas")
    spec = QuadSpec.from_overrides(config["quad"]) if "quad" in config else None
    reports = [run_suite(nm, alphas, spec) for nm in names]
    reports = [r for r in reports if r is not None]  # an empty order grid skips some suites
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
