"""Exact expressions for every identity the operator quadratures are tested against.

These are the oracle side of the dual-route checks: each function here has a
corresponding definitional-quadrature evaluation in :mod:`fracvar.operators`,
and the test suites require the two to agree at stated tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import ball_volume, gamma, mu
from .fields import HalfSpace, SingularPointError, as_points
from .quadrature import OffsetIntegrand, QuadSpec, integrate_1d

__all__ = [
    "half_space_gradient",
    "riesz_hyperplane",
    "gamma_radial_integral",
    "interval_identities",
    "weight_w",
    "f_alpha_closed",
]


def half_space_gradient(alpha: float, H: HalfSpace, x) -> np.ndarray:
    """Fractional gradient of the half-space indicator, in closed form:

        (mu(1, alpha) / alpha) * nu / |(x - x0) . nu|^alpha,

    valid off the boundary hyperplane and parallel to nu in any dimension.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    pt = as_points(x, H.dim)[0]
    d = float(H.signed_distance(pt[None, :])[0])
    if d == 0.0:
        raise SingularPointError("closed form undefined on the hyperplane")
    return (mu(1, alpha) / alpha) * abs(d) ** (-alpha) * np.asarray(H.nu)


def riesz_hyperplane(alpha: float, H: HalfSpace, x) -> float:
    """Smoothing potential of order 1 - alpha of the hyperplane surface measure:

        (mu(1, alpha) / alpha) / |(x - x0) . nu|^alpha.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    pt = as_points(x, H.dim)[0]
    d = float(H.signed_distance(pt[None, :])[0])
    if d == 0.0:
        raise SingularPointError("closed form undefined on the hyperplane")
    return (mu(1, alpha) / alpha) * abs(d) ** (-alpha)


def gamma_radial_integral(n: int, alpha: float) -> float:
    """int_0^inf rho^(n-2) (1 + rho^2)^(-(n+alpha-1)/2) drho in Gamma form:

        Gamma(alpha/2) Gamma((n-1)/2) / (2 Gamma((n+alpha-1)/2)),

    which collapses to 1/alpha at n = 3.  Defined for n >= 2.
    """
    if n < 2:
        raise ValueError("the radial integral needs n >= 2")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return gamma(alpha / 2.0) * gamma((n - 1.0) / 2.0) / (2.0 * gamma((n + alpha - 1.0) / 2.0))


def interval_identities(alpha: float) -> tuple[float, float, float]:
    """The optimal-constant triple of the unit-interval indicator:

        hardy_integral = int chi / |x - x0|^alpha dx = 2 / (1 - alpha),
        variation      = 4 mu(1, alpha) / (alpha (1 - alpha)),
        hardy_constant = 2 mu(1, alpha) / alpha,

    with hardy_constant * hardy_integral = variation exactly.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    hardy_integral = 2.0 / (1.0 - alpha)
    variation = 4.0 * mu(1, alpha) / (alpha * (1.0 - alpha))
    hardy_constant = 2.0 * mu(1, alpha) / alpha
    return hardy_integral, variation, hardy_constant


def weight_w(
    n: int,
    alpha: float,
    t: float,
    r: float,
    spec: QuadSpec | None = None,
) -> float:
    """Spherical average of the half-space Hardy weight at radius t from
    the ball center, ball radius r:

        n = 1:   (mu(1,a) / 2a) (|t - r|^-a + (t + r)^-a),
        n >= 2:  ((n-1) omega_(n-1) / (n omega_n)) (mu(1,a)/a)
                 int_-1^1 (1 - s^2)^((n-3)/2) |s t - r|^-a ds.

    The n = 1 form is closed; for n >= 2 the s-integral is evaluated with its
    declared endpoint and interior singularities.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    t = float(t)
    r = float(r)
    if t < 0.0 or r <= 0.0:
        raise ValueError("need t >= 0 and r > 0")
    if n == 1:
        if t == r:
            raise SingularPointError("the n = 1 weight is non-integrable at t = r")
        return (mu(1, alpha) / (2.0 * alpha)) * (abs(t - r) ** -alpha + (t + r) ** -alpha)
    if n not in (2, 3):
        raise ValueError("weight_w implemented for n in {1, 2, 3}")
    edge = (n - 3.0) / 2.0
    front = (n - 1.0) * ball_volume(n - 1) / (n * ball_volume(n)) * mu(1, alpha) / alpha
    if t == 0.0:
        base = 2.0 if n == 3 else math.pi  # int (1-s^2)^edge ds over [-1, 1]
        return front * base * r**-alpha
    c = r / t  # the kernel point: |s t - r| = t |s - c|
    if c == 1.0 and edge - alpha <= -1.0:
        raise SingularPointError("weight integrand is non-integrable at the t = r edge")

    def integrand(s: np.ndarray, ds) -> np.ndarray:
        base = np.maximum(-ds(1.0) * ds(-1.0), 0.0)  # (1 - s)(1 + s)
        # offsets are exact from whichever point anchors the segment: c while
        # it lies in [-1, 1], else the edge s = 1 next to it
        kern = t * ds(c) if c <= 1.0 else t * ds(1.0) + (t - r)
        return base**edge * np.abs(kern) ** -alpha

    sings: list[tuple[float, float]] = [(-1.0, edge)] if edge != 0.0 else []
    if c < 1.0:
        sings.append((c, -alpha))
        if edge != 0.0:
            sings.append((1.0, edge))
    else:
        # t <= r: kernel and right-edge singularities meet at or beyond s = 1
        sings.append((1.0, edge - alpha if c == 1.0 else edge))
    res = integrate_1d(OffsetIntegrand(integrand), -1.0, 1.0, singularities=sings, spec=spec)
    return front * res.require()


def f_alpha_closed(alpha: float, x: float) -> float:
    """Closed-form counterexample function (delegates to the field catalog)."""
    from .fields import FAlpha, eval as field_eval

    return field_eval(FAlpha(alpha=float(alpha)), x)
