"""Independent references for the eval-mix stream.

Every reference is computed before the timed phase, at 30 significant digits,
and never through the quadrature engine of the library:

* Gaussians exp(-pi |x - c|^2 / w^2): the Riesz potential, the fractional
  gradient (the gradient of I_(1-alpha)) and the fractional Laplacian are
  confluent hypergeometric functions of |x - c|^2, by heat-semigroup
  subordination.  The non-local gradient of a Gaussian pair follows from the
  Leibniz rule, because the product of two Gaussians is a Gaussian.
* The 1-d smooth bump: a tanh-sinh mpmath quadrature of the defining integral
  folded onto t > 0, split at the support edges.
* The interval and square indicators under the Laplacian: the kernel
  integral in closed form on the line, and in polar coordinates about the
  point (exact radial part, one angular quadrature) in the plane.
* f_alpha: its fractional variation measure is the atom pair
  delta_0 - delta_1, so the gradient vanishes at every point off {0, 1}.

The half-space and interval gradients and the 1-d Gaussian gradient use the
library's own closed forms (``half_space_gradient``, ``spectral_gradient_1d``);
they are called here, during set-up, so traced runs never count them.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30  # digits for every reference below


def _mp(v) -> mp.mpf:
    return mp.mpf(float(v))


def mu(n: int, alpha) -> mp.mpf:
    """2^a pi^(-n/2) Gamma((n+a+1)/2) / Gamma((1-a)/2)."""
    a = _mp(alpha)
    return 2**a * mp.pi ** (-mp.mpf(n) / 2) * mp.gamma((n + a + 1) / 2) / mp.gamma((1 - a) / 2)


def nu(n: int, beta) -> mp.mpf:
    """2^b pi^(-n/2) Gamma((n+b)/2) / Gamma(-b/2) (negative for b in (0, 1))."""
    b = _mp(beta)
    return 2**b * mp.pi ** (-mp.mpf(n) / 2) * mp.gamma((n + b) / 2) / mp.gamma(-b / 2)


def _gauss(width, d):
    a = mp.pi / _mp(width) ** 2
    r2 = mp.fsum(_mp(v) ** 2 for v in d)
    return a, r2


def gaussian_riesz(n: int, s, width, d, amp=1) -> float:
    """I_s of amp * exp(-pi |y|^2 / w^2) at offset d from the center."""
    a, r2 = _gauss(width, d)
    s = _mp(s)
    b = (n - s) / 2
    c = mp.gamma(b) / mp.gamma(mp.mpf(n) / 2) * (4 * a) ** (-s / 2)
    return float(amp * c * mp.hyp1f1(b, mp.mpf(n) / 2, -a * r2))


def _gaussian_grad_mp(n: int, alpha, width, d, amp=1) -> list:
    a, r2 = _gauss(width, d)
    s = 1 - _mp(alpha)
    b = (n - s) / 2
    c = mp.gamma(b) / mp.gamma(mp.mpf(n) / 2) * (4 * a) ** (-s / 2)
    dr = amp * c * (b / (mp.mpf(n) / 2)) * mp.hyp1f1(b + 1, mp.mpf(n) / 2 + 1, -a * r2) * (-2 * a)
    return [dr * _mp(v) for v in d]


def gaussian_grad(n: int, alpha, width, d) -> list[float]:
    """grad_alpha = grad I_(1-alpha) of exp(-pi |y|^2 / w^2) at offset d."""
    return [float(v) for v in _gaussian_grad_mp(n, alpha, width, d)]


def gaussian_laplacian(n: int, beta, width, d) -> float:
    """(-Delta)^(beta/2) of exp(-pi |y|^2 / w^2) at offset d (the library's sign)."""
    a, r2 = _gauss(width, d)
    b = _mp(beta)
    c = mp.gamma((n + b) / 2) / mp.gamma(mp.mpf(n) / 2) * (4 * a) ** (b / 2)
    return float(c * mp.hyp1f1((n + b) / 2, mp.mpf(n) / 2, -a * r2))


def gaussian_pair_nl(n: int, alpha, c1, w1, c2, w2, x) -> list[float]:
    """Non-local gradient of two unit Gaussians: grad(fg) - g grad f - f grad g."""
    c1, c2, x = ([_mp(v) for v in p] for p in (c1, c2, x))
    w1, w2 = _mp(w1), _mp(w2)
    iw = 1 / w1**2 + 1 / w2**2
    w = 1 / mp.sqrt(iw)
    c = [(p / w1**2 + q / w2**2) / iw for p, q in zip(c1, c2)]
    amp = mp.exp(-mp.pi * mp.fsum((p - q) ** 2 for p, q in zip(c1, c2)) / (w1**2 + w2**2))

    def val(cc, ww):
        return mp.exp(-mp.pi * mp.fsum((xi - ci) ** 2 for xi, ci in zip(x, cc)) / ww**2)

    g_prod = _gaussian_grad_mp(n, alpha, w, [xi - ci for xi, ci in zip(x, c)], amp)
    g_f = _gaussian_grad_mp(n, alpha, w1, [xi - ci for xi, ci in zip(x, c1)])
    g_g = _gaussian_grad_mp(n, alpha, w2, [xi - ci for xi, ci in zip(x, c2)])
    f, g = val(c1, w1), val(c2, w2)
    return [float(p - g * u - f * v) for p, u, v in zip(g_prod, g_f, g_g)]


def _bump(t: mp.mpf) -> mp.mpf:
    return mp.exp(1 - 1 / (1 - t * t)) if abs(t) < 1 else mp.mpf(0)


def bump_grad_1d(alpha, x, center=0.0, width=1.0) -> float:
    """mu(1,a) int_0^inf (f(x+t) - f(x-t)) t^(-1-a) dt for the unit-peak bump."""
    a, x, c, w = _mp(alpha), _mp(x), _mp(center), _mp(width)

    def f(y):
        return _bump((y - c) / w)

    edges = sorted({abs(x - (c - w)), abs(x - (c + w))})
    knots = [mp.mpf(0)] + [e for e in edges if e > 0]
    val = mp.quad(lambda t: (f(x + t) - f(x - t)) * t ** (-1 - a), knots)
    return float(mu(1, a) * val)


def interval_laplacian(beta, lo, hi, x) -> float:
    """nu(1,b) int (chi(x+y) - chi(x)) |y|^(-1-b) dy for chi of (lo, hi)."""
    b, lo, hi, x = _mp(beta), _mp(lo), _mp(hi), _mp(x)
    if lo < x < hi:
        val = -((x - lo) ** -b + (hi - x) ** -b) / b
    elif x <= lo:
        val = ((lo - x) ** -b - (hi - x) ** -b) / b
    else:
        val = ((x - hi) ** -b - (x - lo) ** -b) / b
    return float(nu(1, b) * val)


def _ray_in_square(p, theta):
    """Entry and exit distances of the ray p + t (cos, sin), t > 0, through
    the square (-1, 1)^2, or None when it misses."""
    t_lo, t_hi = -mp.inf, mp.inf
    for pi, ui in zip(p, (mp.cos(theta), mp.sin(theta))):
        if ui == 0:
            if not -1 < pi < 1:
                return None
            continue
        a, b = (-1 - pi) / ui, (1 - pi) / ui
        t_lo, t_hi = max(t_lo, min(a, b)), min(t_hi, max(a, b))
    return (max(t_lo, 0), t_hi) if t_hi > max(t_lo, 0) else None


def square_laplacian(beta, x) -> float:
    """nu(2,b) int (chi(x+y) - chi(x)) |y|^(-2-b) dy for chi of (-1, 1)^2.

    In polar coordinates about x the radial integral is exact, leaving
    (1/b) int (r_in^-b - r_out^-b) dtheta over the directions that hit the
    square (x outside), or -(1/b) int rho^-b dtheta with rho the distance to
    the boundary (x inside); the angular integrand has kinks only at the
    corner directions.
    """
    b, p = _mp(beta), [_mp(v) for v in x]
    inside = all(-1 < v < 1 for v in p)
    corners = sorted(mp.atan2(cy - p[1], cx - p[0]) % (2 * mp.pi)
                     for cx in (-1, 1) for cy in (-1, 1))

    def g(theta):
        hit = _ray_in_square(p, theta)
        if hit is None:
            return mp.mpf(0)
        r_in, r_out = hit
        return -(r_out ** -b) if inside else r_in ** -b - r_out ** -b

    val = mp.quad(g, [0] + corners + [2 * mp.pi]) / b
    return float(nu(2, b) * val)

