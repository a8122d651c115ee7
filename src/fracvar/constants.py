"""Gamma function and the normalization constants of the fractional operator family.

Everything downstream (operator kernels, closed-form identities, Hardy
constants) is a ratio of Gamma values, so this module owns a single Gamma
entry point, ``math.gamma`` behind range and pole checks on |x| <= 64, and
caches the derived constants per (n, order).
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "GammaPoleError",
    "MAX_GAMMA_ARG",
    "MAX_CONST_DIM",
    "gamma",
    "validate_dim",
    "mu",
    "nu",
    "ball_volume",
    "sphere_area",
    "hardy_constants",
]


class GammaPoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


MAX_GAMMA_ARG = 64.0
MAX_CONST_DIM = 8


def gamma(x: float) -> float:
    """Gamma(x) for real x with |x| <= 64, x not a non-positive integer.

    Raises GammaPoleError at the poles and ValueError outside the supported
    range.
    """
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"gamma argument must be finite, got {x!r}")
    if abs(x) > MAX_GAMMA_ARG:
        raise ValueError(f"gamma argument out of supported range |x| <= {MAX_GAMMA_ARG}: {x}")
    if x <= 0.0 and x == math.floor(x):
        raise GammaPoleError(f"gamma has a pole at {x}")
    return math.gamma(x)


def validate_dim(n: int, *, max_dim: int = MAX_CONST_DIM) -> int:
    """Check an ambient dimension. Constants accept n in 1..8, quadrature 1..3."""
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise TypeError(f"dimension must be an int, got {n!r}")
    if n < 1 or n > max_dim:
        raise ValueError(f"dimension must be in 1..{max_dim}, got {n}")
    return n


@lru_cache(maxsize=None)
def mu(n: int, alpha: float) -> float:
    """Normalization constant of the fractional gradient/divergence kernel.

    mu(n, alpha) = 2^alpha pi^(-n/2) Gamma((n+alpha+1)/2) / Gamma((1-alpha)/2),
    defined for alpha in (-1, 1); negative orders appear in the closed form of
    the one-dimensional counterexample function.
    """
    validate_dim(n)
    alpha = float(alpha)
    if not -1.0 < alpha < 1.0:
        raise ValueError(f"mu requires alpha in (-1, 1), got {alpha}")
    return (
        2.0**alpha
        * math.pi ** (-n / 2.0)
        * gamma((n + alpha + 1.0) / 2.0)
        / gamma((1.0 - alpha) / 2.0)
    )


@lru_cache(maxsize=None)
def nu(n: int, beta: float) -> float:
    """Normalization constant of the fractional Laplacian kernel (negative).

    nu(n, beta) = 2^beta pi^(-n/2) Gamma((n+beta)/2) / Gamma(-beta/2) for
    beta in (0, 1).  Gamma(-beta/2) < 0 there, hence nu < 0.
    """
    validate_dim(n)
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"nu requires beta in (0, 1), got {beta}")
    return (
        2.0**beta
        * math.pi ** (-n / 2.0)
        * gamma((n + beta) / 2.0)
        / gamma(-beta / 2.0)
    )


@lru_cache(maxsize=None)
def ball_volume(n: int) -> float:
    """Volume of the unit ball: omega_n = pi^(n/2) / Gamma(n/2 + 1)."""
    validate_dim(n)
    return math.pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


@lru_cache(maxsize=None)
def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^(n-1): n * omega_n (2 for n = 1)."""
    validate_dim(n)
    return n * ball_volume(n)


@lru_cache(maxsize=None)
def hardy_constants(n: int, alpha: float) -> tuple[float, float, float]:
    """Constants of the fractional Hardy inequality.

    Returns (c_half, gamma_spector, c_max) where

      c_half        = 2 mu(1, alpha) / alpha   (optimal in dimension 1),
      gamma_spector = 2^alpha Gamma(alpha/2) Gamma((n+1)/2)
                      / (pi^(1-alpha/2) Gamma((n-alpha)/2)),
      c_max         = max(c_half, gamma_spector).

    Whether c_max is optimal for n >= 2 is unknown; callers should report
    margins against it, never optimality.
    """
    validate_dim(n)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"hardy_constants requires alpha in (0, 1), got {alpha}")
    c_half = 2.0 * mu(1, alpha) / alpha
    gamma_spector = (
        2.0**alpha
        * gamma(alpha / 2.0)
        * gamma((n + 1.0) / 2.0)
        / (math.pi ** (1.0 - alpha / 2.0) * gamma((n - alpha) / 2.0))
    )
    return c_half, gamma_spector, max(c_half, gamma_spector)
