"""Pointwise evaluation of the fractional operator family from the defining integrals.

The fractional gradient of f at x is

    mu(n, alpha) * int (y - x) (f(y) - f(x)) / |y - x|^(n + alpha + 1) dy,

with the divergence, non-local two-function gradient, Riesz potential, and
fractional Laplacian sharing the same singular-kernel machinery:

* smooth fields with ``heat_factors`` (tensor products such as
  ``SmoothBump``, ``Gaussian`` and their products and scalings): in every
  n the gradient (I_(1-alpha) grad f) and the fractional Laplacian, and in
  n >= 2 the Riesz potential (s <= n - 1), go by Gaussian subordination,
  |z|^(-2b) = Gamma(b)^(-1) int_0^inf t^(b-1) e^(-t|z|^2) dt, to integrals
  over t of products of 1-d heat convolutions G_t g(x_i)
  (``_heat_products``, one loop over the factors for all three), summed by
  the trapezoid rule in log t; the Laplacian's f(x) (pi/t)^(n/2) term is
  summed exactly below the grid.  Larger orders and other fields take the
  Riesz potential in n >= 2 as one radial integral of angular profiles,
* smooth fields in n = 1 without ``heat_factors`` (``FAlpha``,
  ``OddPlateau``, ``OddBumpPair``) take the annulus:
  (x - delta, x + delta) is one product panel on [0, delta]
  (``_product_panel``) of the odd part f(x + r) - f(x - r) (the
  Laplacian's even part f(x + r) + f(x - r) - 2 f(x)), and delta is
  halved, adding back shells, until the panel's 24- and 12-node rules
  agree within tolerance (``_annulus_limit``),
* indicator fields, which declare their ``region``: the kernel integral over
  the region is decomposed geometrically, since generic cubature cannot see
  the jump: interval pieces and spherical wedges with exact angular moments
  reduce to declared-singularity radial integrals, and a cube's kernel
  integral (``cube_kernel_integral``, the Laplacian and the Riesz potential
  in n >= 2) becomes a sum of smooth face fluxes by the divergence theorem;
  the gradient and the Laplacian refuse the region's boundary, the jump
  set, where their kernels are not integrable (the Riesz potential stays
  finite there, and only the cube's flux form refuses it),
* the f(x) kernel term is cancelled exactly by odd symmetry over every sphere
  centered at x, so only f(y) itself is ever integrated for the gradient.

Every evaluation path returns a :class:`~fracvar.quadrature.QuadResult`,
with the convergence flags of its angular profiles AND-ed in; an angular
profile's tolerance is relative to the field's ``sup_norm_bound``.  The public
operators return the value if it converged and raise QuadratureBudgetError
otherwise; with ``detail=True`` every one of them returns the result
itself (``frac_divergence`` the sum of its components' results).

Quadrature operators accept alpha in [0.05, 0.95] and dimensions 1..3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .constants import gamma, mu, nu, sphere_area
from .fields import (
    AxisBox,
    Gaussian,
    HalfSpace,
    OddBumpPair,
    OddPlateau,
    ScalarField,
    SingularPointError,
    SmoothBump,
    UnsupportedFieldError,
    VectorField,
    as_points,
)
from .quadrature import (
    OffsetIntegrand,
    QuadResult,
    QuadSpec,
    _EPS,
    _Counter,
    _adaptive_batch,
    _segment,
    _tail_segment,
    angular_profile,
    cube_kernel_integral,
    default_spec,
    gauss_legendre,
    gauss_legendre_panels,
    integrate_1d,
    integrate_core,
    integrate_many,
    log_trapezoid,
)

__all__ = [
    "DivergentPotentialError",
    "TestFieldNormError",
    "ALPHA_QUAD_RANGE",
    "frac_gradient",
    "frac_gradient_batch",
    "frac_divergence",
    "riesz_potential",
    "riesz_potential_hyperplane",
    "frac_laplacian",
    "nl_gradient",
    "spectral_gradient_1d",
    "gagliardo_seminorm",
    "variation_lower_bound",
    "variation_lower_bound_detail",
    "default_test_family",
    "cube_kernel_integral",
    "riesz_constant",
]


class DivergentPotentialError(ValueError):
    """Riesz potential requested for a field without enough decay."""


class TestFieldNormError(ValueError):
    """A dual test field is not admissible: not 1-d, not smooth with compact
    support, or above sup-norm 1."""


ALPHA_QUAD_RANGE = (0.05, 0.95)


def _check_alpha(alpha: float, name: str = "alpha") -> float:
    alpha = float(alpha)
    lo, hi = ALPHA_QUAD_RANGE
    if not lo <= alpha <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}] for quadrature operators")
    return alpha


def _check_point(field: ScalarField, x) -> np.ndarray:
    pt = as_points(x, field.dim)[0]
    if field.is_singular(pt):
        raise SingularPointError(f"{field.kind} is singular at {pt.tolist()}")
    return pt


def _on_jump(field: ScalarField, pt: np.ndarray) -> bool:
    """Whether pt lies on the boundary of the field's ``region``, an indicator's jump set."""
    region = field.region
    return region is not None and region.on_boundary(pt)


def _check_off_jump(field: ScalarField, x) -> np.ndarray:
    """The point x, refused also on the field's jump set: there f(y) - f(x)
    is of order 1 on a half-ball about x, against which neither the gradient
    kernel |y - x|^-(n + alpha) nor the Laplacian's |y - x|^-(n + beta) is
    integrable.  The Riesz potential stays finite there."""
    pt = _check_point(field, x)
    if _on_jump(field, pt):
        raise SingularPointError(f"{pt.tolist()} lies on the jump set of {field.kind}")
    return pt


def _field_box(field: ScalarField):
    try:
        return field.quad_box
    except UnsupportedFieldError:
        return None


def _reach(box, x: np.ndarray) -> float:
    lo, hi = box
    return float(np.linalg.norm(np.maximum(np.abs(lo - x), np.abs(hi - x))))


def _profiles(values, center, n, abs_tol, rel_tol, bound, counter, moments=False):
    """``profile(r)``, the ``angular_profile`` of ``values`` about center to a
    tolerance relative to the sup-norm ``bound``, and the list of its flags."""
    tol, flags = max(abs_tol, rel_tol * bound) * 1e-2, []

    def profile(r: np.ndarray) -> np.ndarray:
        prof = angular_profile(values, center, r, n, tol=tol, counter=counter, moments=moments)
        flags.append(prof.converged)
        return prof.value

    return profile, flags


# ---------------------------------------------------------------------------
# fractional gradient
# ---------------------------------------------------------------------------


def _annulus_limit(annulus, sample, alpha: float, delta: float, reach: float, far: float,
                   spec: QuadSpec, counter: _Counter):
    """int_0^reach of a singular kernel integral in r: ``annulus(delta, reach)``
    plus the product panel of ``sample`` on [0, delta], with delta halved
    (adding ``annulus(delta / 2, delta)``) until the panel's 24- and 12-node
    rules agree within tol = max(abs_tol, rel_tol |value + far|) / 4, ``far``
    being added outside.  A difference that rises from one halving to the
    next is the samples' rounding floor, and eps sum |shell| the shells':
    either ends without convergence.  Value and error (the shells' plus the
    rules' difference) leave ``far`` out."""
    core = annulus(delta, reach)
    mass = float(np.max(np.abs(core.value)))  # sum of |shell|, the scale of core's rounding
    prev = math.inf
    while True:
        fine = _product_panel(sample, delta, alpha)
        diff = float(np.max(np.abs(fine - _product_panel(sample, delta, alpha, order=12))))
        value = core.value + fine
        tol = max(spec.abs_tol, spec.rel_tol * float(np.max(np.abs(value + far)))) / 4.0
        converged = diff <= tol
        if converged or diff > prev or counter.used > spec.max_evals:
            return QuadResult(value, core.err_estimate + diff, counter.used,
                              converged and core.converged and _EPS * mass <= tol)
        shell = annulus(delta / 2.0, delta)
        core = core + shell
        mass += float(np.max(np.abs(shell.value)))
        delta, prev = delta / 2.0, diff


def _grad_smooth(field: ScalarField, alpha: float, x: np.ndarray, spec: QuadSpec):
    """Annulus evaluation, in n = 1, for fields that ``has_gradient`` and
    have no ``heat_factors``; it reads the field's values only.

    The ball (x - delta, x + delta) is one product panel on [0, delta] of
    the odd part f(x + r) - f(x - r); the first delta stays below half the
    distance from x to the nearest declared singular point, so that the
    panel never straddles it.  Each shell folds the two sides of x into one
    integral over r, of (f(x + r) - f(x - r)) r^(-1-a) on [r_in, r_out], so
    the mirror cancellation happens at every node (``fold_from_offsets``).
    A declared singular point p of the field sits at r = |x - p|, where the
    side that reaches it reads its offset exactly, +/- dr(|x - p|); the
    shells are cut where a side leaves the support.  No shell is asked to resolve its
    integral below the rounding noise of a difference of two field values,
    whose slope term is read from one fold sample (2 evaluations).
    A field without a support box adds its two tails, and the tolerance of
    the first panel (``_annulus_limit``) is relative to the whole integral,
    tails included.
    """
    box = _field_box(field)
    counter = _Counter(spec.max_evals)
    rel = spec.rel_tol / 4.0
    absr = spec.abs_tol / 4.0
    # the kernel reads x - p from the field's declared singular points exactly
    sings = list(field.singularities)

    def kernel(y: np.ndarray, dy) -> np.ndarray:
        d = dy(x[0])
        return field.values_from_offsets(dy) * np.sign(d) * np.abs(d) ** (-1.0 - alpha)

    kernel = OffsetIntegrand(kernel)

    if box is not None:
        reach = max(_reach(box, x), 2.0 * field.smooth_scale)
        tail = QuadResult(np.zeros(1), 0.0, 0, True)
    else:
        # algebraic tail: rays handled by declared tail exponents
        reach = 4.0 + float(np.max(np.abs(x))) + max((abs(p) for p, _ in sings), default=0.0)
        tau = 1.0 + alpha + field.decay_exponent
        tail_spec = QuadSpec(rel_tol=rel, abs_tol=absr, max_evals=spec.max_evals)
        tail = (integrate_core(kernel, x[0] + reach, math.inf, sings + [(math.inf, tau)],
                               tail_spec, counter)
                + integrate_core(kernel, -math.inf, x[0] - reach, sings + [(-math.inf, tau)],
                                 tail_spec, counter))
        if not tail.converged:
            return tail

    x0 = float(x[0])
    # a side leaves the field's support (or the tails' reach) at these radii;
    # cutting the shells there keeps a vanishing side out of a featureless panel
    if box is not None:
        y_lo, y_hi = float(box[0][0]), float(box[1][0])
    else:
        y_lo, y_hi = x0 - reach, x0 + reach
    right = (y_lo - x0, y_hi - x0)  # r with x + r in the support
    left = (x0 - y_hi, x0 - y_lo)  # r with x - r in the support
    # a singular point p lies at r = |x - p| on the side that reaches it
    ahead = {p: p - x0 for p, _ in sings if p > x0}
    behind = {p: x0 - p for p, _ in sings if p < x0}
    r_sings = [(abs(p - x0), e) for p, e in sings if p != x0]

    def odd(r: np.ndarray, dr) -> np.ndarray:
        def plus(c: float) -> np.ndarray:  # offsets of x + r
            return dr(ahead[c]) if c in ahead else (x0 - c) + r

        def minus(c: float) -> np.ndarray:  # offsets of x - r
            return -dr(behind[c]) if c in behind else (x0 - c) - r

        return field.fold_from_offsets(x0, r, plus, minus)

    folded = OffsetIntegrand(lambda r, dr: odd(r, dr) * r ** (-1.0 - alpha))

    def sample(r: np.ndarray) -> np.ndarray:
        counter.add(2 * r.size)
        return odd(r, lambda c: r - c)

    delta = min(field.smooth_scale / 2.0, reach / 4.0,
                0.5 * min((r for r, _ in r_sings), default=math.inf))
    # f(x + r) - f(x - r) computed as a difference carries rounding noise of
    # about eps (2 |f(x)| + |x f'(x)|) that does not shrink with r; no shell
    # is asked for more than that noise integrated against r^(-1-a).  The
    # slope |f'(x)| is read from one fold at r = h, well inside the first ball
    h = 1e-3 * delta
    slope = abs(float(sample(np.array([h]))[0])) / (2.0 * h)
    noise = _EPS * (2.0 * abs(float(field.values(x[None, :])[0])) + abs(x0) * slope)

    def annulus(r_in: float, r_out: float) -> QuadResult:
        cuts = sorted({r for r in right + left if r_in < r < r_out} | {r_in, r_out})
        shells = []
        for a_, b_ in zip(cuts[:-1], cuts[1:]):
            m_ = 0.5 * (a_ + b_)
            if right[0] < m_ < right[1] or left[0] < m_ < left[1]:
                floor = noise * (a_**-alpha - b_**-alpha) / alpha
                shells.append(_segment_with_sings(
                    folded, a_, b_, r_sings, rel, max(absr, floor), counter
                ))
        return sum(shells, QuadResult(np.zeros(1), 0.0, 0, True))

    core = _annulus_limit(annulus, sample, alpha, delta, reach, tail.value, spec, counter)
    return QuadResult(mu(1, alpha) * (core.value + tail.value),
                      abs(mu(1, alpha)) * (core.err_estimate + tail.err_estimate),
                      counter.used, core.converged)


def _heat_products(f: ScalarField, X: np.ndarray, columns, counter: _Counter):
    """Products of the 1-d heat convolutions of a field with ``heat_factors``
    at the targets X (m, n), one column per entry of ``columns``: column k
    takes the derivative g_j' of the factor on axis j = columns[k] (on no
    axis for None) and g_i on every other axis.

    Returns ``F(t, check)`` for ``log_trapezoid``, prod_i G_t g_i(x_i) of
    shape (t.size, m, len(columns)), and pi^(n/2) prod_i g_i(x_i) of shape
    (m, len(columns)), the limit of t^(n/2) F(t) as t -> inf, since
    G_t g(x) ~ sqrt(pi/t) g(x).  Each factor's G_t is evaluated once per
    distinct coordinate of its axis, and each target takes a row-wise
    product; G_t g' only on the axes that a column differentiates.  A field
    without ``heat_factors`` raises UnsupportedFieldError: in n >= 2 its
    gradient and Laplacian have no other path.
    """
    n = f.dim
    factors = f.heat_factors
    if factors is None:
        raise UnsupportedFieldError(f"{f.kind} has no heat_factors for the route in n = {n}")
    axes = [np.unique(X[:, i], return_inverse=True) for i in range(n)]

    def F(t: np.ndarray, check: bool) -> np.ndarray:
        heat = []
        for i, (g, (u, inv)) in enumerate(zip(factors, axes)):
            G, dG, samples = g.heat(u, t, check, deriv=i in columns)
            counter.add(samples)
            heat.append((G[inv], None if dG is None else dG[inv]))
        out = np.empty((t.size, X.shape[0], len(columns)))
        for k, j in enumerate(columns):
            prod = heat[0][j == 0]
            for i in range(1, n):
                prod = prod * heat[i][i == j]
            out[:, :, k] = prod.T
        return out

    limit = np.empty((X.shape[0], len(columns)))
    for k, j in enumerate(columns):
        limit[:, k] = math.pi ** (n / 2.0)
        for i, g in enumerate(factors):
            limit[:, k] *= g.deriv(X[:, i]) if i == j else g(X[:, i])
    return F, limit


def _laplacian_limit(f: ScalarField, X: np.ndarray) -> np.ndarray:
    """pi^(n/2) Laplacian f(x) / 4 at the targets X (m, n) of a field with
    ``heat_factors``, from the factors' second derivatives: the sum over i
    of g_i''(x_i) prod_(j != i) g_j(x_j)."""
    factors = f.heat_factors
    vals = [g(X[:, i]) for i, g in enumerate(factors)]
    lap = sum(g.deriv2(X[:, i]) * math.prod(vals[:i] + vals[i + 1:])
              for i, g in enumerate(factors))
    return math.pi ** (f.dim / 2.0) * lap / 4.0


def _subordinate(f: ScalarField, X: np.ndarray, F, b: float, tail, decay: float,
                 small_t_power: float, spec: QuadSpec, counter: _Counter, power=None):
    """``log_trapezoid`` of t^(b-1) F(t) over the heat products of f at the
    targets X, with the grid's ends set by the field's box and scale."""
    lo, hi = f.quad_box
    far_corner = np.linalg.norm(np.maximum(np.abs(lo - X), np.abs(hi - X)), axis=1)
    reach = max(field_scale(f), float(np.max(far_corner)))
    return log_trapezoid(F, b, tail, decay, small_t_power, reach, field_scale(f), spec, counter,
                         power)


def _grad_heat(f: ScalarField, alpha: float, X: np.ndarray, spec: QuadSpec, counter: _Counter):
    """Fractional gradient at the targets X of a field with ``heat_factors``,
    by Gaussian subordination of grad_a f = I_(1-a) grad f (CS19):

        d_j^a f(x) = k(n, 1-a)/Gamma(b) int_0^inf t^(b-1) prod_i G_t g_ij(x_i) dt,

    b = (n - 1 + a)/2, g_jj = g_j' and g_ij = g_i otherwise, summed by
    ``log_trapezoid``.  As t -> inf, G_t g(x) ~ sqrt(pi/t) g(x); as t -> 0,
    G_t g_j' = O(t).  The result's value and err_estimate have shape (m, n).
    """
    n = f.dim
    b = (n - 1.0 + alpha) / 2.0
    F, limit = _heat_products(f, X, range(n), counter)
    res = _subordinate(f, X, F, b, limit, (1.0 - alpha) / 2.0, b + 1.0, spec, counter)
    k = riesz_constant(n, 1.0 - alpha) / gamma(b)
    return QuadResult(k * res.value, abs(k) * res.err_estimate, res.evals_used, res.converged)


def _segment_with_sings(
    f, a: float, b: float, sings, rel: float, absr: float, counter: _Counter
) -> QuadResult:
    """Finite-interval integral with declared singular points inside or at the ends."""
    exps = dict(sings)
    pts = sorted(p for p in exps if a < p < b)
    if not pts:
        return _segment(f, a, b, exps.get(a), exps.get(b), rel, absr, counter)
    edges = [a] + pts + [b]
    pieces = [_segment(f, p, q, exps.get(p), exps.get(q), rel, absr / len(edges), counter)
              for p, q in zip(edges[:-1], edges[1:])]
    return sum(pieces[1:], pieces[0])


def _jump_integral(region, inside: bool, kernel, tail: float, spec: QuadSpec) -> QuadResult:
    """int (chi(y) - chi(x)) kernel(y) dy for the indicator chi of an n = 1
    region (an interval or a half-line) and x inside it or not: +/- the
    integrals of kernel over the pieces where chi(y) != chi(x), each one
    ``integrate_core`` integral with the tail exponent ``tail`` declared at
    an infinite end.  The pieces share one evaluation budget."""
    if isinstance(region, HalfSpace):
        x0 = region.x0[0]
        lo, hi = (x0, math.inf) if region.nu[0] > 0 else (-math.inf, x0)
    else:
        lo, hi = region.lo[0], region.hi[0]
    if inside:
        pieces = [(a, b) for a, b in ((-math.inf, lo), (hi, math.inf)) if a < b]
    else:
        pieces = [(lo, hi)]
    counter = _Counter(spec.max_evals)
    parts = [integrate_core(kernel, a, b, [(e, tail) for e in (a, b) if math.isinf(e)], spec,
                            counter)
             for a, b in pieces]
    res = sum(parts[1:], parts[0])
    return QuadResult(-res.value if inside else res.value, res.err_estimate, counter.used,
                      res.converged)


def _grad_halfspace(H: HalfSpace, alpha: float, x: np.ndarray, spec: QuadSpec):
    """Wedge reduction: exact angular moments of the cap, numeric radial integral."""
    n = H.dim
    d = float(H.signed_distance(x[None, :])[0])
    if d == 0.0:
        raise SingularPointError("point lies on the boundary hyperplane")
    u = np.asarray(H.nu) * (-1.0 if d > 0 else 1.0)
    sign = -1.0 if d > 0 else 1.0
    a = abs(d)
    counter = _Counter(spec.max_evals)

    if n == 2:
        theta0 = math.atan2(u[1], u[0])

        def moment(r: np.ndarray) -> np.ndarray:
            c = np.clip(a / r, -1.0, 1.0)
            psi = np.arccos(c)
            m1 = np.sin(theta0 + psi) - np.sin(theta0 - psi)
            m2 = np.cos(theta0 - psi) - np.cos(theta0 + psi)
            return r[:, None] ** (-1.0 - alpha) * np.stack([m1, m2], axis=1)

        edge_exp = 0.5
    else:  # n == 3: cap moment is pi (1 - c^2) u, exactly along u

        def moment(r: np.ndarray) -> np.ndarray:
            c = np.clip(a / r, -1.0, 1.0)
            mag = math.pi * (1.0 - c**2)
            return r[:, None] ** (-1.0 - alpha) * mag[:, None] * u[None, :]

        edge_exp = 1.0

    rel, absr = spec.rel_tol / 4.0, spec.abs_tol / 4.0
    res = (_segment(moment, a, 8.0 * a + 8.0, edge_exp, None, rel, absr, counter)
           + _tail_segment(moment, 8.0 * a + 8.0, 1.0 + alpha, +1, rel, absr, counter))
    return QuadResult(mu(n, alpha) * sign * res.value, abs(mu(n, alpha)) * res.err_estimate,
                      counter.used, res.converged)


def frac_gradient(
    f: ScalarField, alpha: float, x, spec: QuadSpec | None = None, detail: bool = False
):
    """Fractional gradient of f at x from the defining singular integral.

    With ``detail`` the result is the :class:`~fracvar.quadrature.QuadResult`
    of the evaluation: the gradient vector as its value, the error estimate,
    the evaluation count and the convergence flag.  Without it the vector is
    returned only if it converged, and QuadratureBudgetError is raised
    otherwise.  The path follows the field's traits: an indicator's
    ``region`` (interval pieces in n = 1, the half-space wedge in n >= 2);
    then ``heat_factors``, in every n (the Gaussian subordination route,
    ``_grad_heat``), which in n >= 2 every other field needs
    (UnsupportedFieldError otherwise); in n = 1 ``has_gradient`` (the
    annulus, ``_grad_smooth``, from the field's values alone).

    The heat route's accuracy floors where a factor's heat convolutions are
    panel sums (a bump, or a product other than of two Gaussians): their
    check evaluation differs from the full one by about 1e-10 relative, so
    a 1-d ``SmoothBump`` converges at rel_tol 1e-9, at about half its
    points at 1e-10 and nowhere at 1e-11, where it reports
    converged=False (the annulus reached 1e-12).  A Gaussian's factors are
    closed form and reach about 1e-15.
    """
    alpha = _check_alpha(alpha)
    pt = _check_off_jump(f, x)
    n = f.dim
    if n not in (1, 2, 3):
        raise ValueError("operators support n in {1, 2, 3}")
    spec = spec or default_spec(n)
    region = f.region
    if region is not None and n == 1:
        x0 = float(pt[0])
        res = _jump_integral(region, float(f.values(pt[None, :])[0]) == 1.0,
                             lambda y: np.sign(y - x0) * np.abs(y - x0) ** (-1.0 - alpha),
                             1.0 + alpha, spec)
        res = QuadResult(mu(1, alpha) * res.value, abs(mu(1, alpha)) * res.err_estimate,
                         res.evals_used, res.converged)
    elif isinstance(region, HalfSpace):
        res = _grad_halfspace(region, alpha, pt, spec)
    elif region is not None:
        raise UnsupportedFieldError("gradient of box indicators implemented for n = 1")
    elif n >= 2 or f.heat_factors is not None:
        res = _grad_heat(f, alpha, pt[None, :], spec, _Counter(spec.max_evals))
        res = replace(res, value=res.value[0], err_estimate=float(np.max(res.err_estimate)))
    elif f.has_gradient:
        res = _grad_smooth(f, alpha, pt, spec)
    else:
        raise UnsupportedFieldError(f"no gradient evaluation path for {f.kind}")
    return res if detail else res.require("fractional gradient")


def frac_divergence(
    phi: VectorField, alpha: float, x, spec: QuadSpec | None = None, detail: bool = False
):
    """Fractional divergence of a vector field: sum_i [grad_alpha phi_i]_i.

    With ``detail`` the result is the :class:`~fracvar.quadrature.QuadResult`
    of the sum (a float value): the components' values and error estimates
    add, their evaluation counts add (each gradient has its own budget), and
    it converged if every gradient did.  Without it the value is returned if
    it converged, and QuadratureBudgetError is raised otherwise.
    """
    if len(phi.components) != phi.dim:
        raise ValueError("divergence needs as many components as dimensions")
    parts = [frac_gradient(comp, alpha, x, spec, detail=True) for comp in phi.components]
    res = QuadResult(sum(float(r.value[i]) for i, r in enumerate(parts)),
                     sum(float(np.max(r.err_estimate)) for r in parts),
                     sum(r.evals_used for r in parts), all(r.converged for r in parts))
    return res if detail else res.require("fractional divergence")


# ---------------------------------------------------------------------------
# Riesz potential
# ---------------------------------------------------------------------------


def riesz_constant(n: int, s: float) -> float:
    """Kernel constant of the Riesz potential: 2^-s pi^(-n/2) Gamma((n-s)/2)/Gamma(s/2)."""
    return 2.0 ** (-s) * math.pi ** (-n / 2.0) * gamma((n - s) / 2.0) / gamma(s / 2.0)


def _scaled(res: QuadResult, k: float) -> QuadResult:
    """k times a one-entry result, with a float value and error."""
    return QuadResult(k * float(np.ravel(res.value)[0]), abs(k) * float(np.max(res.err_estimate)),
                      res.evals_used, res.converged)


def riesz_potential(
    f: ScalarField, s: float, x, spec: QuadSpec | None = None, detail: bool = False
):
    """Riesz potential I_s f(x) for 0 < s < n, requiring decay_exponent > s.

    With ``detail`` the result is the :class:`~fracvar.quadrature.QuadResult`
    of the evaluation (a float value); without it the value is returned if
    it converged, and QuadratureBudgetError is raised otherwise.  In n >= 2
    the path follows the field's traits: a cube indicator's ``region`` (k(n, s)
    ``cube_kernel_integral``), then ``heat_factors`` for s <= n - 1 (Gaussian
    subordination, I_s f(x) = k(n, s)/Gamma(b) int_0^inf t^(b-1) prod_i
    G_t g_i(x_i) dt with b = (n - s)/2, whose large-t form is
    pi^(n/2) f(x) t^(-s/2)), then the radial integral of angular profiles
    about x.
    """
    n = f.dim
    s = float(s)
    if not 0.0 < s < n:
        raise ValueError(f"potential order must lie in (0, n) = (0, {n})")
    if not f.decay_exponent > s:
        raise DivergentPotentialError(
            f"I_s diverges: field decay {f.decay_exponent} <= order {s}"
        )
    pt = _check_point(f, x)
    spec = spec or default_spec(n)
    k = riesz_constant(n, s)
    counter = _Counter(spec.max_evals)
    box = _field_box(f)
    if n == 1:
        x0 = float(pt[0])
        # the field and the kernel read x - p from their singular points exactly
        g = OffsetIntegrand(lambda y, dy: f.values_from_offsets(dy) * np.abs(dy(x0)) ** (s - 1.0))
        sings = [(x0, s - 1.0), *f.singularities]
        if box is not None:
            lo, hi = float(box[0][0]), float(box[1][0])
            a, b = min(lo, x0 - 1.0), max(hi, x0 + 1.0)
        else:
            a, b = -math.inf, math.inf
            tau = f.decay_exponent + 1.0 - s
            sings += [(math.inf, tau), (-math.inf, tau)]
        res = _scaled(integrate_core(g, a, b, sings, spec, counter), k)
    elif isinstance(f.region, AxisBox):
        c, h = np.asarray(f.region.center), f.region.half_width
        res = _scaled(cube_kernel_integral(pt - c, n - s, h, spec=spec, detail=True), k)
    elif f.heat_factors is not None and s <= n - 1.0:
        # b >= 1/2: as s -> n the grid's small-t end, log(1e-3 rel_tol)/b,
        # runs off to t = e^-700 and the node count grows like 1/b
        b = (n - s) / 2.0
        X = pt[None, :]
        F, limit = _heat_products(f, X, (None,), counter)
        res = _scaled(_subordinate(f, X, F, b, limit, s / 2.0, b, spec, counter), k / gamma(b))
    elif box is None:
        raise UnsupportedFieldError("Riesz potential for n >= 2 needs a finite evaluation box")
    else:  # a radial profile around x with declared r^(s-1) behavior at 0
        profile, flags = _profiles(f.values, pt, n, spec.abs_tol, spec.rel_tol, f.sup_norm_bound,
                                   counter)

        def radial(r: np.ndarray) -> np.ndarray:
            return r ** (s - 1.0) * profile(r)

        rel, absr = spec.rel_tol / 4.0, spec.abs_tol / 4.0
        res = _segment(radial, 0.0, _reach(box, pt), s - 1.0 if s < 1.0 else None, None, rel,
                       absr, counter)
        res = _scaled(replace(res, converged=res.converged and all(flags)), k)
    return res if detail else res.require("Riesz potential")


def riesz_potential_hyperplane(
    alpha: float, H, x, spec: QuadSpec | None = None
) -> float:
    """I_(1-alpha) of the surface measure of the hyperplane of H, by quadrature.

    The n = 2 case is a line integral, n = 3 reduces to a radial integral in
    the plane; both use the kernel |y - x|^(-(n - 1 + alpha)).
    """
    alpha = _check_alpha(alpha)
    n = H.dim
    pt = as_points(x, n)[0]
    d = abs(float(H.signed_distance(pt[None, :])[0]))
    if d == 0.0:
        raise SingularPointError("point lies on the hyperplane")
    spec = spec or default_spec(n)
    k = riesz_constant(n, 1.0 - alpha)
    p = n - 1.0 + alpha
    if n == 2:
        res = integrate_1d(
            lambda t: (d * d + t * t) ** (-p / 2.0),
            0.0,
            math.inf,
            singularities=[(math.inf, p)],
            spec=spec,
        )
        return 2.0 * k * res.require()
    if n == 3:
        res = integrate_1d(
            lambda rho: rho * (d * d + rho * rho) ** (-p / 2.0),
            0.0,
            math.inf,
            singularities=[(math.inf, p - 1.0)],
            spec=spec,
        )
        return 2.0 * math.pi * k * res.require()
    raise ValueError("hyperplane potential implemented for n in {2, 3}")


# ---------------------------------------------------------------------------
# fractional Laplacian
# ---------------------------------------------------------------------------


def frac_laplacian(
    f: ScalarField, beta: float, x, spec: QuadSpec | None = None, detail: bool = False
):
    """Fractional Laplacian nu(n, beta) int (f(x+y) - f(x)) / |y|^(n+beta) dy.

    ``detail`` is as for ``riesz_potential``.  The path follows the field's
    traits: an indicator's ``region`` (``cube_kernel_integral`` in n >= 2,
    interval pieces in n = 1).  A smooth field with ``heat_factors`` takes,
    in every n, Gaussian subordination, nu(n, beta)/Gamma(b) int_0^inf
    t^(b-1) [prod_i G_t g_i(x_i) - f(x) (pi/t)^(n/2)] dt with
    b = (n + beta)/2, whose large-t form is pi^(n/2) Laplacian f(x)/4
    t^(beta/2 - 1), the Laplacian from the factors' second derivatives
    (``_laplacian_limit``); the pure power f(x) (pi/t)^(n/2) is summed exactly
    below the grid.  In n >= 2 a smooth field needs ``heat_factors``
    (UnsupportedFieldError otherwise); in n = 1 one without them takes the
    annulus (``_laplacian_annulus``).
    """
    beta = _check_alpha(beta, "beta")
    pt = _check_off_jump(f, x)
    n = f.dim
    spec = spec or default_spec(n)
    const = nu(n, beta)
    fx = float(f.values(pt[None, :])[0])

    region = f.region
    if isinstance(region, AxisBox) and n >= 2:
        c, h = np.asarray(region.center), region.half_width
        inside = fx == 1.0
        res = cube_kernel_integral(pt - c, n + beta, h, over_complement=inside, spec=spec,
                                   detail=True)
        res = _scaled(res, -const if inside else const)
    elif region is not None and n == 1:
        x0 = float(pt[0])
        res = _scaled(_jump_integral(region, fx == 1.0, lambda y: np.abs(y - x0) ** (-1.0 - beta),
                                     1.0 + beta, spec), const)
    elif not f.is_smooth:
        raise UnsupportedFieldError(f"no Laplacian evaluation path for {f.kind}")
    elif n >= 2 or f.heat_factors is not None:
        b = (n + beta) / 2.0
        X = pt[None, :]
        counter = _Counter(spec.max_evals)
        F, limit = _heat_products(f, X, (None,), counter)
        tail = _laplacian_limit(f, X)[:, None]
        res = _subordinate(f, X, F, b, tail, 1.0 - beta / 2.0, b, spec, counter,
                           power=(-limit, n / 2.0))
        res = _scaled(res, const / gamma(b))
    else:
        res = _scaled(_laplacian_annulus(f, beta, pt, fx, spec), const)
    return res if detail else res.require("fractional Laplacian")


def _laplacian_annulus(f: ScalarField, beta: float, pt: np.ndarray, fx: float, spec: QuadSpec):
    """int (f(x+y) - f(x)) / |y|^(1+beta) dy for a smooth field on the line
    with a finite evaluation box, far term included, by ``_annulus_limit``:
    the ball (x - delta, x + delta) is one product panel on [0, delta] of
    the even part f(x + r) + f(x - r) - 2 f(x), at order beta."""
    box = _field_box(f)
    if box is None:
        raise UnsupportedFieldError("Laplacian of non-compact smooth fields not supported")
    reach = max(_reach(box, pt), 2.0 * field_scale(f))
    counter = _Counter(spec.max_evals)
    rel, absr = spec.rel_tol / 4.0, spec.abs_tol / 4.0
    x0 = float(pt[0])

    def kernel(y: np.ndarray) -> np.ndarray:
        return (f.values(y[:, None]) - fx) * np.abs(y - x0) ** (-1.0 - beta)

    def annulus(r_in: float, r_out: float) -> QuadResult:
        return (_segment(kernel, x0 + r_in, x0 + r_out, None, None, rel, absr, counter)
                + _segment(kernel, x0 - r_out, x0 - r_in, None, None, rel, absr, counter))

    far = -fx * sphere_area(1) * reach ** (-beta) / beta  # exact once f ~ 0 beyond reach

    def sample(r: np.ndarray) -> np.ndarray:
        counter.add(2 * r.size)
        return f.values((x0 + r)[:, None]) + f.values((x0 - r)[:, None]) - 2.0 * fx

    delta = min(field_scale(f) / 2.0, reach / 4.0)
    res = _annulus_limit(annulus, sample, beta, delta, reach, far, spec, counter)
    return replace(res, value=res.value + far)


def field_scale(f: ScalarField) -> float:
    return max(f.smooth_scale, 1e-8)


# ---------------------------------------------------------------------------
# non-local two-function gradient
# ---------------------------------------------------------------------------


def nl_gradient(
    f: ScalarField, g: ScalarField, alpha: float, x, spec: QuadSpec | None = None,
    detail: bool = False,
):
    """mu(n,a) int (y-x)(f(y)-f(x))(g(y)-g(x)) / |y-x|^(n+a+1) dy.

    The integrand vanishes like |y-x|^(2-n-a) at the center and the constant
    far-field product cancels by odd symmetry over |y - x| > reach, so a
    symmetric truncation at the joint support reach is exact.  With
    ``detail`` the result is the :class:`~fracvar.quadrature.QuadResult` of
    the evaluation, the vector as its value; without it the vector is
    returned if it converged, and QuadratureBudgetError is raised otherwise.
    """
    alpha = _check_alpha(alpha)
    if f.dim != g.dim:
        raise ValueError("fields must share the ambient dimension")
    ptf = _check_point(f, x)
    _check_point(g, x)
    if _on_jump(f, ptf) and _on_jump(g, ptf):
        # (f(y) - f(x))(g(y) - g(x)) can be of order 1 on a half-ball (it is
        # for f = g), against a kernel of order |y - x|^-(n + alpha); one
        # jump alone is integrable
        raise SingularPointError(f"{ptf.tolist()} lies on the jump sets of both fields")
    n = f.dim
    spec = spec or default_spec(n)
    box_f, box_g = _field_box(f), _field_box(g)
    if box_f is None or box_g is None:
        raise UnsupportedFieldError("nl_gradient needs finite evaluation boxes")
    reach = max(_reach(box_f, ptf), _reach(box_g, ptf), field_scale(f), field_scale(g))
    fx = float(f.values(ptf[None, :])[0])
    gx = float(g.values(ptf[None, :])[0])
    counter = _Counter(spec.max_evals)

    if n == 1:
        x0 = float(ptf[0])

        def kern(y: np.ndarray) -> np.ndarray:
            d = y - x0
            df = f.values(y[:, None]) - fx
            dg = g.values(y[:, None]) - gx
            return np.sign(d) * np.abs(d) ** (-1.0 - alpha) * df * dg

        res = integrate_core(kern, x0 - reach, x0 + reach, [(x0, 1.0 - alpha)], spec, counter)
    else:

        def h(Y: np.ndarray) -> np.ndarray:
            return (f.values(Y) - fx) * (g.values(Y) - gx)

        rel, absr = spec.rel_tol / 4.0, spec.abs_tol / 4.0
        bound = f.sup_norm_bound * g.sup_norm_bound
        profile, flags = _profiles(h, ptf, n, absr, rel, bound, counter, moments=True)

        def moment(r: np.ndarray) -> np.ndarray:
            return r[:, None] ** (-1.0 - alpha) * profile(r)

        res = _segment(moment, 0.0, reach, 1.0 - alpha, None, rel, absr, counter)
        res = replace(res, converged=res.converged and all(flags))
    k = mu(n, alpha)
    res = QuadResult(k * res.value, abs(k) * res.err_estimate, res.evals_used, res.converged)
    return res if detail else res.require("non-local gradient")


# ---------------------------------------------------------------------------
# spectral oracle (Gaussian, n = 1)
# ---------------------------------------------------------------------------


def spectral_gradient_1d(f: ScalarField, alpha: float, x) -> float:
    """Independent frequency-side evaluation of the fractional gradient of a
    1-d Gaussian: the composition of the derivative symbol with the smoothing
    symbol of order 1 - alpha, inverted by real quadrature.

    The frequency integrand has no kernel stiffness, so any alpha in (0, 1)
    is accepted (the alpha -> 1 limit reproduces the classical derivative).
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not isinstance(f, Gaussian) or f.dim != 1:
        raise UnsupportedFieldError("the spectral oracle is defined for 1-d Gaussians")
    pt = as_points(x, 1)[0, 0]
    w = f.width
    u = pt - f.center[0]
    cutoff = 4.5 / w

    def integrand(xi: np.ndarray) -> np.ndarray:
        return (2.0 * math.pi * xi) ** alpha * np.exp(-math.pi * (w * xi) ** 2) * np.sin(
            2.0 * math.pi * u * xi
        )

    res = integrate_1d(
        integrand, 0.0, cutoff, singularities=[(0.0, alpha)],
        spec=QuadSpec(rel_tol=1e-11, abs_tol=1e-14),
    )
    return -2.0 * f.amplitude * w * res.require()


# ---------------------------------------------------------------------------
# Gagliardo seminorm (n = 1)
# ---------------------------------------------------------------------------


_KINK_HALVINGS = 24  # bisections that place a Gagliardo inner panel's cut, to 2^-24 of its width


def gagliardo_seminorm(f: ScalarField, alpha: float, spec: QuadSpec | None = None) -> float:
    """Double integral of |f(x) - f(y)| / |x - y|^(1 + alpha) over the line.

    Smooth compactly supported fields only.  The integrand is symmetric in
    (x, y), so the seminorm is twice the integral over y > x.  The inner
    integral at x0 covers y > x0: a product panel on [0, d]
    (``_product_panel`` of |f(x0 + s) - f(x0)|, with d = 2e-4 field
    scales, less near either end of the support (lo, hi), so that mirrored
    nodes get mirrored panels), geometric panels grading away from it out
    to hi, and the exact power tail |f(x0)| (hi - x0)^-a / a beyond the
    support.  The panels of all outer nodes of a Gauss-Kronrod panel run as
    one lockstep batch of adaptive integrals.  The integrand has a kink
    where f(y) = f(x0): a panel whose ends differ in the sign of
    f(y) - f(x0) is cut there, the crossing placed by ``_KINK_HALVINGS``
    bisections, and its two pieces join the batch, so the adaptive rule
    does not spend its rounds bisecting toward the kink (it still resolves
    any kink the cut misses).  The outer integral over the support is
    folded: its two halves, mapped from their ends as a declared end is
    mapped (x = lo + h t^3 and hi - h t^3, h = (hi - lo)/2), are one
    integral over t in (0, 1), so each evaluation runs one lockstep batch
    on both halves' nodes.  Left of the support the inner integral is
    int |f(y)| (y - x)^(-1-alpha) dy; integrated over x < lo first
    (Fubini), that part is (1/alpha) int_lo^hi |f(y)| (y - lo)^-alpha dy,
    one integral with the support edge declared.  Right of the support the
    inner integral is 0.  The two outer parts share one evaluation budget.
    Raises QuadratureBudgetError when an inner or the outer integral does
    not converge.
    """
    return float(_gagliardo_seminorms(f, (alpha,), spec)[0])


def _gagliardo_seminorms(f: ScalarField, alphas: Sequence[float],
                         spec: QuadSpec | None = None) -> np.ndarray:
    """``gagliardo_seminorm`` at each order of ``alphas``, one value per order.

    The outer ranges of every order (the folded support part and the left
    outside part) run in one lockstep call (``integrate_many``).  Each round
    calls ``inner`` once per order on that order's outer nodes, the call
    the one-order run makes, so each value is bit for bit the one-order
    seminorm.  The inner batches stay one order each, which keeps their
    arrays at the one-order size: one batch over all orders raised the
    verdict's peak RSS by about 1 MB.  Each order keeps its own budgets:
    its inner integrals, and its two outer parts together, may take
    ``spec.max_evals`` evaluations each.
    """
    alphas = [_check_alpha(a) for a in alphas]
    if f.dim != 1:
        raise ValueError("gagliardo_seminorm is implemented for n = 1")
    if not f.is_smooth:
        raise UnsupportedFieldError("gagliardo_seminorm needs a smooth field")
    box = _field_box(f)
    if box is None:
        raise UnsupportedFieldError("gagliardo_seminorm needs compact support")
    lo, hi = float(box[0][0]), float(box[1][0])
    spec = spec or default_spec(1)
    A = len(alphas)
    orders = np.array(alphas)
    counters = [_Counter(spec.max_evals) for _ in alphas]
    rel_in, abs_in = spec.rel_tol / 4.0, spec.abs_tol
    delta = 2e-4 * field_scale(f)

    def inner(x0: np.ndarray, i: int) -> np.ndarray:
        """Inner integrals over y > x0 at the nodes x0, all inside (lo, hi),
        at the order ``alphas[i]``."""
        alpha, counter = alphas[i], counters[i]
        fx = f.values(x0[:, None])
        d_eff = np.minimum(np.minimum(delta, 0.25 * (x0 - lo)), 0.25 * (hi - x0))

        def window(s: np.ndarray) -> np.ndarray:  # |f(x0 + s) - f(x0)| on the (m, order) nodes
            y = x0[:, None] + s
            return np.abs(f.values(y.reshape(-1, 1)).reshape(y.shape) - fx[:, None])

        out = _product_panel(window, d_eff, alpha)

        # geometric panels [x0 + r, x0 + min(2r, width)] past the window,
        # r = d_eff 2^k (exact) while r < width = hi - x0; one column per k,
        # summed into out in that order
        width = hi - x0
        r = d_eff[:, None] * 2.0 ** np.arange(int(np.log2((width / d_eff).max())) + 3)
        col, node = np.nonzero((r < width[:, None]).T)
        r = r[node, col]
        a, b = x0[node] + r, x0[node] + np.minimum(2.0 * r, width[node])

        # the kink of |f(x0) - f(y)|: a panel whose ends differ in the sign
        # of f(y) - f(x0) is cut where the sign changes, found by bisection,
        # and integrated as two pieces [a, m] and [m, b] of the same batch
        level = fx[node]
        s_a = np.sign(f.values(a[:, None]) - level)
        cut = np.flatnonzero(s_a * np.sign(f.values(b[:, None]) - level) < 0.0)
        lo_c, hi_c, s_c, level_c = a[cut], b[cut], s_a[cut], level[cut]
        for _ in range(_KINK_HALVINGS):
            m = 0.5 * (lo_c + hi_c)
            keep_lo = np.sign(f.values(m[:, None]) - level_c) != s_c
            lo_c, hi_c = np.where(keep_lo, lo_c, m), np.where(keep_lo, m, hi_c)
        m = 0.5 * (lo_c + hi_c)
        owner_of = np.concatenate([node, node[cut]])

        def g(y: np.ndarray, owner: np.ndarray) -> np.ndarray:
            j = owner_of[owner][:, None]
            fy = f.values(y.reshape(-1, 1)).reshape(y.shape)
            return np.abs(fx[j] - fy) * (y - x0[j]) ** (-1.0 - alpha)

        b_left = b.copy()
        b_left[cut] = m
        v, e, c, _ = _adaptive_batch(g, np.concatenate([a, m]), np.concatenate([b_left, b[cut]]),
                                     rel_in, abs_in, counter)
        QuadResult(v, float(e.max()), counter.used, bool(c.all())).require(
            "Gagliardo inner integral"
        )
        v, v_right = v[: a.size], v[a.size :]
        v[cut] = v[cut] + v_right
        sums = np.zeros((int(col.max()) + 1, x0.size))
        sums[col, node] = v
        for row in sums:
            out = out + row
        return out + np.abs(fx) * width**-alpha / alpha

    half = 0.5 * (hi - lo)

    def support(t: np.ndarray, order: np.ndarray) -> np.ndarray:
        # both halves of (lo, hi), mapped from their ends as integrate_1d
        # maps a declared (p, 0) end, x = lo + half t^3 and hi - half t^3,
        # summed at each t from one call of inner per order on both halves'
        # nodes; a node that rounds onto lo or hi contributes 0
        d = half * t**3
        xs = np.concatenate([lo + d, hi - d])
        inside = (lo < xs) & (xs < hi)
        both = np.concatenate([order, order])
        v = np.zeros(xs.size)
        for i in range(A):
            sel = inside & (both == i)
            if sel.any():
                v[sel] = inner(xs[sel], i)
        return (3.0 * half) * t**2 * (v[: t.size] + v[t.size :])

    def left(y: np.ndarray, order: np.ndarray) -> np.ndarray:
        # the inner integrals at x < lo, int |f(y)| (y - x)^(-1-alpha) dy,
        # integrated over x < lo first (Fubini); -alpha as a per-point array
        # rounds as the scalar exponent (it is none of numpy's fast paths)
        alpha = orders[order]
        return np.abs(f.values(y[:, None])) * (y - lo) ** -alpha / alpha

    def outer(t: np.ndarray, owner: np.ndarray) -> np.ndarray:
        # ranges 0..A-1 are the support parts, A..2A-1 the left parts
        out = np.empty(t.size)
        sup = owner < A
        if sup.any():
            out[sup] = support(t[sup], owner[sup])
        if not sup.all():
            out[~sup] = left(t[~sup], owner[~sup] - A)
        return out

    # each order's support part and left outside part share one evaluation budget
    outer_spec = QuadSpec(rel_tol=max(spec.rel_tol, 1e-7), abs_tol=spec.abs_tol,
                          max_evals=spec.max_evals)
    parts = integrate_many(outer, [(0.0, 1.0)] * A + [(lo, hi, [(lo, 0.0)])] * A, outer_spec)
    out = np.empty(A)
    for i, (sup, lft) in enumerate(zip(parts[:A], parts[A:])):
        used = sup.evals_used + lft.evals_used
        res = QuadResult(sup.value + lft.value, sup.err_estimate + lft.err_estimate, used,
                         sup.converged and lft.converged and used <= spec.max_evals)
        out[i] = 2.0 * float(res.require("Gagliardo outer integral")[0])
    return out


# ---------------------------------------------------------------------------
# dual lower bound for the fractional variation
# ---------------------------------------------------------------------------


def _check_test_field(phi: VectorField) -> None:
    for comp in phi.components:
        if comp.dim != 1:
            raise TestFieldNormError(f"test fields must be 1-d, not {comp.dim}-d")
        if not comp.is_smooth or comp.support_box is None:
            raise TestFieldNormError("test fields must be smooth with compact support")
    if phi.sup_norm_bound > 1.0 + 1e-12:
        raise TestFieldNormError("test field exceeds sup-norm 1")
    lo, hi = phi.components[0].support_box
    grid = np.linspace(float(lo[0]), float(hi[0]), 2001)[:, None]
    vals = np.abs(phi.values(grid))
    if float(vals.max()) > 1.0 + 1e-9:
        raise TestFieldNormError("sampled test field exceeds sup-norm 1")


def _variation_pairings(
    f: ScalarField,
    alphas: Sequence[float],
    test_family: Sequence[VectorField],
) -> np.ndarray:
    """Pairings int f div_alpha phi dx (n = 1), an (A, F) array: one row per
    order of ``alphas``, one column per test field.

    The outer integrand div_alpha phi is C-infinity, so a composite
    Gauss-Legendre grid with the batch gradient evaluator is spectrally
    accurate and much cheaper than pointwise adaptive calls; the grid and
    the batch gradient's rules are fixed, so there is no tolerance to set.
    Each test field is sampled once for all orders (``_grad_batch_1d``), so
    row i is bit for bit the pairing at ``alphas[i]`` alone.
    """
    alphas = [_check_alpha(a) for a in alphas]
    if f.dim != 1:
        raise ValueError("variation_lower_bound is implemented for n = 1")
    if _field_box(f) is None:
        raise UnsupportedFieldError("variation pairing needs a finite evaluation box")
    xs, ws = _support_grid(f, 16)
    out = np.empty((len(alphas), len(test_family)))
    for k, phi in enumerate(test_family):
        _check_test_field(phi)
        comp = phi.components[0]
        _check_batch_field(comp)
        div_vals = _grad_batch_1d(comp, alphas, xs, _batch_box(comp))
        for i in range(len(alphas)):
            out[i, k] = ws @ div_vals[i]
    return out


def variation_lower_bound_detail(
    f: ScalarField,
    alpha: float,
    test_family: Sequence[VectorField],
) -> list[float]:
    """Pairings int f div_alpha phi dx for each test field (n = 1), on the
    fixed grid of ``_variation_pairings``."""
    return _variation_pairings(f, (alpha,), test_family)[0].tolist()


def variation_lower_bound(
    f: ScalarField,
    alpha: float,
    test_family: Sequence[VectorField],
) -> float:
    """Certified lower bound for the total fractional variation: the best
    pairing against a finite family of admissible test fields (0 if empty)."""
    if not test_family:
        return 0.0
    return max(variation_lower_bound_detail(f, alpha, test_family))


def default_test_family() -> tuple[VectorField, ...]:
    """20 admissible 1-d test fields: odd plateaus at 3 spans, odd bump pairs
    at 3 scales x 4 offsets, and 5 single bumps on a translated grid.

    Oriented for indicators centered at the origin: positive on the left.
    """
    members: list[VectorField] = []
    for span, core, edge in ((5.0, 0.35, 0.8), (12.0, 0.45, 1.5), (40.0, 0.6, 4.0)):
        members.append(VectorField(components=(OddPlateau(span=span, core=core, edge=edge),)))
    for scale in (0.5, 1.0, 2.0):
        for t in (0.5, 1.0, 1.5, 2.0):
            members.append(VectorField(components=(OddBumpPair(offset=t, scale=scale),)))
    for center, width in ((-1.5, 1.0), (-1.0, 1.0), (-0.5, 1.0), (-1.0, 0.5), (-1.0, 2.0)):
        members.append(VectorField(components=(SmoothBump(center=(center,), width=width),)))
    return tuple(members)


# ---------------------------------------------------------------------------
# batch gradient on fixed deterministic grids (suite performance path)
# ---------------------------------------------------------------------------


_VALUE_BLOCK = 1 << 15  # sampled values per block of rows in _row_blocks
_MIRROR_VALUES = 1 << 17  # odd-part values per group of row blocks of an even or odd field


def _row_blocks(m: int, k: int):
    """The bounds (s, e) of consecutive blocks of the m rows of an (m, k)
    sample, about ``_VALUE_BLOCK`` values each, so that a sample is taken
    and contracted one block at a time.  A BLAS matrix-vector product then
    rounds each row as one product over all m rows does on one thread:
    every block but the last has a multiple of 8 rows, and a lone last row
    joins the block before it (numpy takes a one-row product as a dot
    product, which rounds differently)."""
    step = max(8, _VALUE_BLOCK // max(k, 1) // 8 * 8)
    s = 0
    while s < m:
        e = s + step if m - s > step + 1 else m
        yield s, e
        s = e


def _block_groups(blocks, limit: int):
    """Runs of consecutive row blocks (s, e) that span at most ``limit``
    rows, a block that spans more on its own."""
    group = []
    for s, e in blocks:
        if group and e - group[0][0] > limit:
            yield group
            group = []
        group.append((s, e))
    if group:
        yield group


def _radial_edges(start: float, reach: float, step_cap: float) -> tuple[float, ...]:
    """The panel edges start, lo + min(lo, step_cap), ... (Python floats),
    geometric near the kernel singularity and at most ``step_cap`` apart
    farther out, up to the first edge at or past ``reach``.  The sequence
    does not depend on the reach, which only picks where it stops, so no
    panel is truncated."""
    edges = [start]
    while edges[-1] < reach:
        lo = edges[-1]
        edges.append(lo + min(lo, step_cap))
    return tuple(edges)


@functools.lru_cache(maxsize=64)
def _product_weights(order: int, alpha: float) -> np.ndarray:
    """Product-integration weights W_j / x_j at the ``order`` Gauss-Legendre
    nodes x_j of [0, 1], computed once per (order, alpha) and returned
    read-only.  sum_j W_j g(x_j) is the integral of x^(-alpha) p(x) over
    [0, 1] for the polynomial p of degree < order through the samples
    g(x_j), so a sample difference f(x + r) - f(x - r) = r g(r), odd in r,
    is weighed by W_j / x_j.  The W_j solve sum_j W_j P_k(2 x_j - 1) = M_k
    for k < order, with the modified moments M_k = int_0^1 x^(s-1)
    P_k(2x - 1) dx = prod_(i=1..k) (s - i) / prod_(i=0..k) (s + i),
    s = 1 - alpha (QUADPACK's QAWS, Piessens et al. 1983).  At exact Gauss
    nodes the solution is (w_j / 2) sum_k (2k + 1) M_k P_k(2 x_j - 1); the
    solve keeps the rounding of the nodes from being amplified by the
    moments, which grow with k as alpha nears 1 (to 2.5e-13 relative on
    1/(k + s) at order 24 and alpha = 0.95 by the sum, 3.6e-14 solved)."""
    t, _ = gauss_legendre(order)
    s = 1.0 - alpha
    moments = np.empty(order)
    moments[0] = 1.0 / s
    for k in range(1, order):
        moments[k] = moments[k - 1] * (s - k) / (s + k)
    vander = np.polynomial.legendre.legvander(t, order - 1)  # P_k(t_j)
    out = np.linalg.solve(vander.T, moments) / (0.5 * (t + 1.0))
    out.flags.writeable = False
    return out


def _product_panel(sample, d, alpha: float, order: int | None = None):
    """int_0^d g(r) r^(-1-alpha) dr for a g with g(0) = 0 and g(r)/r smooth,
    from ``sample(r)`` = g(r) at the ``order`` product nodes of [0, d] (by
    default the batch's 24, the first panel of ``_radial_rule``) weighed by
    d^(-alpha) ``_product_weights``.  An array d (m,) gives m panels at
    once: ``sample`` then maps the (m, order) nodes to samples of that shape."""
    order = order or _BATCH_RADIAL[1][0]
    t, _ = gauss_legendre(order)
    d = np.asarray(d, dtype=float)
    return d**-alpha * (sample(d[..., None] * (0.5 * (t + 1.0))) @ _product_weights(order, alpha))


_GRID_PANELS = 8  # Gauss-Legendre panels per axis of a support grid

# the batch gradient's fixed rules: per dimension, the Gauss-Legendre order
# and the panel cap (in units of the field's scale) of its radial panels,
# and the trapezoid angles of the n = 2 fold (a multiple of 4, so that each
# orbit {(+-c, +-s)} lies on the circle)
_BATCH_RADIAL = {1: (24, 0.4), 2: (10, 1.2)}
_FOLD_ANGLES = 96
_PRODUCT_EDGE = 256  # the product panel [0, 256 delta] at the kernel singularity
_NEAR_COLUMNS = 2048  # offsets per chunk of an n = 1 near sample
_FOLD_COLUMNS = 256  # (radius, angle) columns per chunk of the n = 2 fold


@functools.lru_cache(maxsize=16)
def _support_grid(f: ScalarField, order: int = 24):
    """Composite Gauss-Legendre grid of order ``order`` on ``_GRID_PANELS``
    equal panels per axis of the field's evaluation box: the nodes (m, n)
    and the weights times f, read-only and cached for the most recent
    fields."""
    lo, hi = f.quad_box
    rules = [gauss_legendre_panels(np.linspace(lo[i], hi[i], _GRID_PANELS + 1), order)
             for i in range(f.dim)]
    axes_nodes, axes_weights = zip(*rules)
    if f.dim == 1:
        ys = axes_nodes[0][:, None]
        ws = axes_weights[0]
    else:
        mesh = np.meshgrid(*axes_nodes, indexing="ij")
        ys = np.stack([m.ravel() for m in mesh], axis=1)
        wmesh = np.meshgrid(*axes_weights, indexing="ij")
        ws = np.prod(np.stack([w.ravel() for w in wmesh], axis=1), axis=1)
    wf = ws * f.values(ys)
    ys.flags.writeable = wf.flags.writeable = False
    return ys, wf


def _check_batch_field(f: ScalarField) -> None:
    if not (f.is_smooth and f.has_gradient):
        raise UnsupportedFieldError("batch gradient needs a smooth field with gradient")


def _batch_box(f: ScalarField):
    box = _field_box(f)
    if box is None:
        raise UnsupportedFieldError("batch gradient needs a finite evaluation box")
    return box


def _far_targets(f: ScalarField, box, X: np.ndarray) -> np.ndarray:
    """Whether each target's distance from the box center exceeds the box
    diagonal plus the field's structure scale."""
    lo_b, hi_b = box
    center = 0.5 * (lo_b + hi_b)
    halfdiag = float(np.linalg.norm(hi_b - lo_b)) / 2.0
    dist = np.linalg.norm(X - center, axis=1)
    return dist > 2.0 * halfdiag + field_scale(f)


def _radial_rule(f: ScalarField, box, Xn: np.ndarray):
    """(r, weights): the radial nodes of the near annulus, out to the first
    edge of the field's fixed edge sequence at or past the farthest box
    corner over the targets Xn, and ``weights(alpha)``, their weights with
    the kernel power r^(-1-alpha) in.  The first panel is [0, c0], c0 = 256
    delta with delta = 2e-4 field scales: its samples, odd in r, are
    weighed by product integration against r^(-alpha) (``_product_weights``
    times c0^(-alpha)).  The panels beyond lie between the
    ``_radial_edges`` from c0, with Gauss-Legendre weights times
    r^(-1-alpha).  The edges depend on the targets only through the panel
    count, and the panels past a target's own reach sample f where it is
    zero, so a target's value does not depend on the other targets of the
    call (to the rounding of the sums).  The rule is cached per edge
    sequence (``_edge_rule``), so per field scale and panel count."""
    lo_b, hi_b = box
    far_sq = np.square(np.maximum(np.abs(lo_b - Xn), np.abs(hi_b - Xn))).sum(axis=1)
    order, cap = _BATCH_RADIAL[f.dim]
    scale = field_scale(f)
    edges = _radial_edges(_PRODUCT_EDGE * (2e-4 * scale), math.sqrt(far_sq.max()), cap * scale)
    return _edge_rule(edges, order)


@functools.lru_cache(maxsize=64)
def _edge_rule(edges: tuple[float, ...], order: int):
    """The radial rule of ``_radial_rule`` on the panels between ``edges``,
    after the product panel [0, edges[0]]: the nodes r and ``weights(alpha)``,
    read-only and computed once per edge sequence and (for the most recent
    orders) per order."""
    c0 = edges[0]
    r0, _ = gauss_legendre_panels((0.0, c0), order)
    rt, wt = gauss_legendre_panels(edges, order)
    r = np.concatenate([r0, rt])
    r.flags.writeable = False

    @functools.lru_cache(maxsize=16)
    def weights(a: float) -> np.ndarray:
        w = np.concatenate([c0 ** -a * _product_weights(order, a), wt * rt ** (-1.0 - a)])
        w.flags.writeable = False
        return w

    return r, weights


def _grad_batch_1d(f: ScalarField, alphas: Sequence[float], X: np.ndarray, box) -> np.ndarray:
    """The n = 1 batch gradient of ``frac_gradient_batch`` at each order of
    ``alphas`` (checked by the caller): an (A, m) array for the targets X
    (m, 1).  The field is sampled once for all orders, at x +- r on the
    radial rule (``_radial_rule``, whose nodes do not depend on the order)
    for near targets and on the cached support grid for far ones, a block
    of targets at a time (``_row_blocks``) and, for near targets,
    ``_NEAR_COLUMNS`` offsets (+-r for half as many radii) at a time; each
    sample's odd part f(x + r) - f(x - r) is contracted with every order's
    kernel weights before the next is taken.  Only the
    weights and the contractions depend on the order, so each row is bit
    for bit the one-order call.

    A field with a ``parity`` p (even or odd about 0, bit for bit) has
    f(-x +- r) = p f(x -+ r), so the odd part at -x is -p times the one at
    x.  When the near targets repeat an |x|, they are taken a group of
    row blocks at a time (``_block_groups``, up to ``_MIRROR_VALUES``
    odd-part values), f is sampled at each distinct |x| of the group
    (``np.unique`` with the inverse index), and each block's product runs
    on the rows the block would have sampled, mapped back with their
    signs.  A BLAS product
    rounds a row by where it sits among the product's rows, so the values
    are bit for bit those of the unfolded batch only because the blocks
    keep their rows.  Far targets are not folded: their sum on the mirrored
    support grid would run in mirrored order and round differently."""
    out = np.empty((len(alphas), X.shape[0]))
    far = _far_targets(f, box, X)
    if far.any():
        # the far integrand is smooth, summed on the support grid
        ys, wf = _support_grid(f)
        idx = np.flatnonzero(far)
        for s, e in _row_blocks(idx.size, ys.shape[0]):
            blk = idx[s:e]
            d = X[blk][:, None, :] - ys[None, :, :]  # (m, K, 1)
            rr = np.abs(d[:, :, 0])  # the norm over the length-1 axis, bit for bit
            for i, a in enumerate(alphas):
                kern = -d * (rr ** (-(1 + a + 1.0)))[:, :, None]
                out[i, blk] = mu(1, a) * np.einsum("mki,k->mi", kern, wf)[:, 0]
    near = ~far
    if not near.any():
        return out
    Xn = X[near]
    r, kernel = _radial_rule(f, box, Xn)
    weights = [kernel(a) for a in alphas]
    core = np.zeros((len(alphas), Xn.shape[0]))
    step = _NEAR_COLUMNS // 2
    fold = False
    if f.parity:
        # fold only a call whose near targets repeat an |x| (np.unique without
        # return_inverse would import numpy.ma, 20 ms in a fresh process)
        xa = np.sort(np.abs(Xn[:, 0]))
        fold = bool((xa[1:] == xa[:-1]).any())
    limit = _MIRROR_VALUES // min(step, r.size) if fold else 0
    for group in _block_groups(_row_blocks(Xn.shape[0], 2 * r.size), limit):
        s0, e0 = group[0][0], group[-1][1]
        x = Xn[s0:e0, 0]
        if fold:
            # f(-x +- r) = parity f(x -+ r) bit for bit, so the odd part at -x
            # is -parity times the one at x: f is sampled at each distinct |x|
            x, mirror = np.unique(np.abs(x), return_inverse=True)
            sign = np.where(Xn[s0:e0, :1] < 0.0, -float(f.parity), 1.0)
        for c in range(0, r.size, step):
            cols = slice(c, c + step)
            offs = np.concatenate([r[cols], -r[cols]])
            # the odd part f(x + r) - f(x - r) first: its terms are of the
            # size of the sum, and the panels past a target's reach add zeros
            odd = np.empty((x.size, offs.size // 2))
            for a, b in _row_blocks(x.size, 2 * r.size):
                vals = f.values((x[a:b, None] + offs).reshape(-1, 1)).reshape(b - a, 2, -1)
                odd[a:b] = vals[:, 0] - vals[:, 1]
            # each block's product runs on the rows the block would sample
            for s, e in group:
                rows = slice(s - s0, e - s0)
                block = sign[rows] * odd[mirror[rows]] if fold else odd[rows]
                for i, w in enumerate(weights):
                    core[i, s:e] += block @ w[cols]
    for i, a in enumerate(alphas):
        out[i, near] = mu(1, a) * core[i]
    return out


def frac_gradient_batch(f: ScalarField, alpha: float, X) -> np.ndarray:
    """Fractional gradient of a smooth field at many points on fixed rules,
    an (m, n) array ((0, n) for no targets).

    In n >= 2 the field needs ``heat_factors`` (UnsupportedFieldError
    otherwise).  Points whose distance from the box center exceeds the box
    diagonal plus the field's structure scale are far; the others near.
    Far points in n = 2, every point in n = 3, and every point in n = 2 when
    the near points have more than four times as many pairs of distinct
    coordinates as points (a tensor grid has exactly as many) take the
    Gaussian subordination route of ``frac_gradient``, each factor's heat
    convolutions evaluated once per distinct coordinate, at the default
    tolerance of n per point (QuadratureBudgetError if any does not
    converge).  In n = 1 far points see a smooth integrand, summed on a
    cached support grid (n = 1 is ``_grad_batch_1d`` at the one order,
    which serves many orders from one sample of the field).  Near points
    in n = 1 and near tensor-grid points in n = 2 take fixed radial rules
    (``_radial_rule``, order and cap from ``_BATCH_RADIAL``): one
    product-integration panel [0, 256 delta], delta = 2e-4 field scales,
    that integrates the smooth odd part over r against r^(-alpha) exactly
    for polynomials below the order (``_product_weights``), then
    Gauss-Legendre panels whose widths double up to a cap of 0.4 (n = 1) or
    1.2 (n = 2) field scales, on the field's fixed edge sequence
    (``_radial_edges``) out to the first edge at or past the farthest
    reach, cached per edge sequence.  In n = 1 the odd part
    f(x + r) - f(x - r) is formed before it meets the weights, so a
    target's value does not depend on the other targets of the call (to
    ~1e-15 relative).  That is ~1e-8
    relative in n = 1 (at alpha in [0.1, 0.9], 5.7e-9 on bumps against
    a tight ``frac_gradient``, 7.6e-14 on a Gaussian against
    ``spectral_gradient_1d``), and in n = 2, with ``_FOLD_ANGLES`` trapezoid
    angles, ~1e-5 relative for the catalog's smooth fields (against a tight
    heat-route reference, 1.04e-5 to 1.19e-5 of the largest component on
    the three ``ibp_2d`` grids and at most 7.4e-6 on a 5 x 4 grid; no error
    estimate, ``frac_gradient`` gives one).  The n = 2 sum folds each orbit
    {(+-c, +-s)} of the circle's symmetries z1 -> -z1, z2 -> -z2 into one
    term, so it runs over the ``_FOLD_ANGLES``/4 + 1 angles in [0, pi/2];
    each factor is evaluated once per distinct coordinate at +-r c (or
    +-r s), and the sums of all pairs are ``np.einsum`` products per
    component.  Near samples are taken and contracted a piece at a time, so
    the working set is bounded in every dimension: in n = 1 a block of
    targets (``_row_blocks``) and ``_NEAR_COLUMNS`` offsets, in n = 2
    ``_FOLD_COLUMNS`` (radius, angle) columns of a block of each factor's
    coordinates.  The values do not depend on the row blocks.  In n = 1 an
    even or odd field (``ScalarField.parity``) is sampled once per distinct
    |x| of a group of near targets, and its values are bit for bit those of
    the unfolded batch (``_grad_batch_1d``).
    """
    alpha = _check_alpha(alpha)
    _check_batch_field(f)
    n = f.dim
    if n > 3:
        raise UnsupportedFieldError(f"batch gradient implemented for n <= 3, not n = {n}")
    X = as_points(X, n)
    if X.shape[0] == 0:
        return np.empty((0, n))
    if n >= 2 and f.heat_factors is None:
        raise UnsupportedFieldError(f"batch gradient in n = {n} needs heat_factors, not {f.kind}")
    box = _batch_box(f)
    if n == 1:
        return _grad_batch_1d(f, (alpha,), X, box)[0][:, None]

    def heat(P: np.ndarray) -> np.ndarray:
        spec = default_spec(n)
        counter = _Counter(spec.max_evals * P.shape[0])
        return _grad_heat(f, alpha, P, spec, counter).require("batch gradient")

    if n == 3:
        return heat(X)
    far = _far_targets(f, box, X)
    Xn = X[~far]
    (u0, inv0), (u1, inv1) = (np.unique(Xn[:, i], return_inverse=True) for i in (0, 1))
    if u0.size * u1.size > 4 * Xn.shape[0]:
        return heat(X)
    out = np.empty_like(X, dtype=float)
    if far.any():
        out[far] = heat(X[far])
    if not Xn.size:
        return out

    r, kernel = _radial_rule(f, box, Xn)

    # the trapezoid circle is closed under z1 -> -z1 and z2 -> -z2, so each
    # orbit {(+-c, +-s)} of an angle in [0, pi/2] is summed once; the
    # two-member orbits at 0 and pi/2 take half weight
    j = np.arange(_FOLD_ANGLES // 4 + 1)
    theta = 2.0 * math.pi * j / _FOLD_ANGLES
    c, s = np.cos(theta), np.sin(theta)
    wk = kernel(alpha)[:, None] * (np.where((j == 0) | (4 * j == _FOLD_ANGLES), 0.5, 1.0)
                                   * (2.0 * math.pi / _FOLD_ANGLES))  # (K, J)
    factors = f.heat_factors
    z1, z2 = (r[:, None] * c).ravel(), (r[:, None] * s).ravel()  # (K*J,)
    w1, w2 = (wk * c).ravel(), (wk * s).ravel()

    def folded(g, u, z):
        # the odd and even parts g(u + z) -+ g(u - z), for the coordinates u
        # and the offsets z = r c (or r s)
        plus, minus = g(u[:, None] + z[None, :]), g(u[:, None] - z[None, :])
        return plus - minus, plus + minus

    # f(x + z) = f1(x1 + z1) f2(x2 + z2): component 1 of an orbit's sum is
    # w c (f1(x1 + rc) - f1(x1 - rc)) (f2(x2 + rs) + f2(x2 - rs)), component
    # 2 the mirror product, and the sums of every pair of distinct
    # coordinates are summed per component by einsum's own loop: a threaded
    # BLAS GEMM rounds differently at different thread counts.  Both
    # factors' parts are taken _FOLD_COLUMNS (radius, angle) columns at a
    # time, and within those a block of each factor's coordinates at a
    # time; the partial sums are added column chunk by column chunk
    sums = np.zeros((2, u0.size, u1.size))
    for k in range(0, z1.size, _FOLD_COLUMNS):
        cols = slice(k, k + _FOLD_COLUMNS)
        for a, b in _row_blocks(u1.size, _FOLD_COLUMNS):
            odd2, even2 = folded(factors[1], u1[a:b], z2[cols])
            for p, q in _row_blocks(u0.size, _FOLD_COLUMNS):
                odd1, even1 = folded(factors[0], u0[p:q], z1[cols])
                odd1 *= w1[cols]
                even1 *= w2[cols]
                sums[0, p:q, a:b] += np.einsum("uk,vk->uv", odd1, even2)
                sums[1, p:q, a:b] += np.einsum("uk,vk->uv", even1, odd2)
    out[~far] = mu(2, alpha) * sums[:, inv0, inv1].T
    return out
