"""Catalog of analytic fields the verification suites evaluate operators on.

Each field knows the metadata the quadrature engine needs: exact or effective
support box, algebraic tail rate, singular set and smoothness; a tensor
product's per-axis ``heat_factors`` carry the only derivatives an operator
reads (no field has a closed-form gradient or Laplacian).  Raw ``values``
are total functions (indicator boundaries give 0, within-ulp singular hits
give 0); the public :func:`eval` refuses declared singular points instead.  Operators pick their path from traits, not classes:
an indicator's ``region`` and a tensor product's per-axis ``heat_factors``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np

from .constants import mu, nu
from .quadrature import (QuadSpec, SingularPointError, cube_kernel_integral, gauss_hermite,
                         gauss_legendre_panels, integrate_many)

__all__ = [
    "ScalarField",
    "VectorField",
    "HalfSpace",
    "AxisBox",
    "SignedMeasure",
    "SingularPointError",
    "UnsupportedFieldError",
    "Gaussian",
    "SmoothBump",
    "IntervalIndicator",
    "CubeIndicator",
    "HalfSpaceIndicator",
    "FAlpha",
    "MagicCube",
    "ProductField",
    "ScaledField",
    "OddPlateau",
    "OddBumpPair",
    "eval",
    "d_alpha_measure",
    "field_from_json",
]


class UnsupportedFieldError(ValueError):
    """Operation not defined for this catalog entry."""


def as_points(x, dim: int) -> np.ndarray:
    """Coerce scalars, points, and point batches to an (m, dim) array;
    NaN or infinite coordinates raise ValueError."""
    a = np.asarray(x, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("points must have finite coordinates")
    if a.ndim == 0:
        if dim != 1:
            raise ValueError(f"scalar point given for dim {dim}")
        return a.reshape(1, 1)
    if a.ndim == 1:
        if a.size == dim:
            return a.reshape(1, dim)
        if dim == 1:
            return a.reshape(-1, 1)
        raise ValueError(f"point of length {a.size} given for dim {dim}")
    if a.ndim == 2 and a.shape[1] == dim:
        return a
    raise ValueError(f"cannot interpret array of shape {a.shape} as points in dim {dim}")


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _positive(*values: float) -> bool:
    """Whether every value is finite and > 0."""
    return all(0.0 < v < math.inf for v in values)


@dataclass(frozen=True)
class HalfSpace:
    """Open half-space {(y - x0) . nu > 0} with its boundary hyperplane."""

    nu: tuple[float, ...]
    x0: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.nu) != len(self.x0):
            raise ValueError("nu and x0 must have the same dimension")
        if not _finite(*self.nu, *self.x0):
            raise ValueError("nu and x0 must be finite")
        if not abs(float(np.linalg.norm(self.nu)) - 1.0) <= 1e-14:
            raise ValueError("nu must be a unit vector to 1e-14")

    @property
    def dim(self) -> int:
        return len(self.nu)

    def signed_distance(self, X: np.ndarray) -> np.ndarray:
        n = np.asarray(self.nu)
        x0 = np.asarray(self.x0)
        return (X - x0) @ n

    def on_boundary(self, pt: np.ndarray) -> bool:
        return bool(self.signed_distance(pt[None, :])[0] == 0.0)

    @staticmethod
    def make(nu: Sequence[float], x0: Sequence[float] | None = None) -> "HalfSpace":
        n = np.asarray(nu, dtype=float)
        norm = float(np.linalg.norm(n))
        if not (_finite(*n) and norm > 0.0):
            raise ValueError("nu must be a finite nonzero vector")
        n = n / norm
        if x0 is None:
            x0 = (0.0,) * n.size
        return HalfSpace(nu=tuple(float(v) for v in n), x0=tuple(float(v) for v in x0))


@dataclass(frozen=True)
class AxisBox:
    """Open axis box lo < y < hi.  A cube keeps the center and half-width it
    was built from, since (lo + hi)/2 need not round back to its center."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    center: tuple[float, ...] | None = None
    half_width: float | None = None

    def on_boundary(self, pt: np.ndarray) -> bool:
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        return bool(np.any((pt == lo) | (pt == hi)) and np.all((pt >= lo) & (pt <= hi)))


# ---------------------------------------------------------------------------
# Scalar fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """Base catalog entry; subclasses fill in the metadata and evaluation."""

    @property
    def kind(self) -> str:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        raise NotImplementedError

    # -- metadata -----------------------------------------------------------
    @property
    def support_box(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The closed box outside which the field vanishes: the region of an
        axis-box indicator, unbounded by default."""
        box = self.region
        return (np.array(box.lo), np.array(box.hi)) if isinstance(box, AxisBox) else None

    @property
    def quad_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Box outside which the field is zero (exactly, or below 1e-50)."""
        box = self.support_box
        if box is None:
            raise UnsupportedFieldError(f"{self.kind} has no finite evaluation box")
        return box

    @property
    def decay_exponent(self) -> float:
        return math.inf  # compact support counts as infinitely fast decay

    @property
    def singularities(self) -> tuple[tuple[float, float], ...]:
        """The field's algebraic singular points on the line (n = 1), as the
        pairs (p, e) that ``integrate_1d`` takes: the field behaves like
        |x - p|^e near p.  Empty for a field without them."""
        return ()

    @property
    def is_smooth(self) -> bool:
        return False

    @property
    def has_gradient(self) -> bool:
        """Whether the n = 1 annulus (``frac_gradient`` of a field without
        ``heat_factors``), the batch gradient and the density variation
        measure may evaluate this field's fractional gradient: a routing
        trait, not a derivative the field supplies."""
        return False

    @property
    def smooth_scale(self) -> float:
        return 1.0

    @property
    def sup_norm_bound(self) -> float:
        return 1.0

    @property
    def parity(self) -> int:
        """+1 if the field is even about the origin, f(-x) = f(x), -1 if it is
        odd, f(-x) = -f(x), and 0 if it is neither or not known to be.  A
        field reports +-1 only where ``values`` keeps the symmetry bit for
        bit; the n = 1 batch gradient then samples it once for a pair of
        mirrored targets (``operators._grad_batch_1d``)."""
        return 0

    @property
    def region(self) -> HalfSpace | AxisBox | None:
        """The set the field is the indicator of (a half-space, or an axis box,
        an interval in n = 1); None unless the field is an indicator."""
        return None

    @property
    def heat_factors(self) -> tuple | None:
        """Per-axis factors g_i, f(x) = g_1(x_1) ... g_n(x_n) up to rounding;
        None unless the field is such a product (a ``ProductField`` unless
        both of its fields are).  Each factor is callable on coordinates and
        has ``deriv(y)`` = g_i'(y) and ``deriv2(y)`` = g_i''(y), the only
        derivatives of a field that an operator reads (on the heat routes),
        ``support``, the ends of the interval outside which g_i vanishes (a
        Gaussian's at center +- 6 width, as in its ``quad_box``), and
        ``heat(x, t, check, deriv)``, which returns
        G_t g_i(x), G_t g_i'(x) (arrays of shape (x.size, t.size), G_t g(x) =
        int g(y) exp(-t (x - y)^2) dy; the second is None unless ``deriv``,
        and G_t g_i does not depend on it) and the number of samples drawn,
        which is what the quadrature budget is charged; ``check`` asks for a
        cheaper evaluation by a different rule that bounds the error of the
        full one.  A Gaussian's convolutions are closed form, one sample per
        (x, t) pair, and so are those of a ``ProductField``'s factor l_i r_i
        when both are Gaussian (one scaled Gaussian, ``_gaussian_product``);
        a bump's and any other product's go by window regime
        (``_WindowedAxis``); a ``ScaledField``'s factor, and a Gaussian's
        amplitude, scales the first factor (``_ScaledAxis``)."""
        return None

    def is_singular(self, x: np.ndarray) -> bool:
        """Whether the field has no point value at x.  The gradient and the
        Laplacian also refuse the boundary of an indicator's ``region``, its
        jump set, where their kernels are not integrable."""
        pt = as_points(x, self.dim)[0]
        return any(np.array_equal(pt, (p,)) for p, _ in self.singularities)

    # -- evaluation ---------------------------------------------------------
    def values(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def values_from_offsets(self, dx) -> np.ndarray:
        """Values at the points x whose offsets ``dx(c)`` = x - c an
        :class:`~fracvar.quadrature.OffsetIntegrand` supplies; a field with
        singular points reads them from there exactly.  By default this is
        ``values`` at x = dx(0), bit-identical to calling it with x."""
        return self.values(dx(0.0)[:, None])

    def fold_from_offsets(self, x0: float, r: np.ndarray, plus, minus) -> np.ndarray:
        """f(x0 + r) - f(x0 - r) in n = 1, with ``plus(c)`` and ``minus(c)`` the
        offsets of x0 + r and x0 - r from c, as ``values_from_offsets`` reads
        them.  By default the difference of the two values, whose rounding
        noise does not shrink with r; a field may evaluate it without that
        cancellation."""
        return self.values_from_offsets(plus) - self.values_from_offsets(minus)

    def variation_measure(self, alpha: float) -> "SignedMeasure":
        """D^alpha f where it is known; by default the density, the fractional
        gradient of a smooth field, held with the order or order grid
        (ValueError for an order outside (0, 1))."""
        if not (self.is_smooth and self.has_gradient):
            raise UnsupportedFieldError(f"variation measure of {self.kind} is not identified")
        return SignedMeasure(density=(self, alpha))

    def __call__(self, x) -> float | np.ndarray:
        X = as_points(x, self.dim)
        out = self.values(X)
        return float(out[0]) if np.asarray(x).ndim <= 1 and np.asarray(x).size <= self.dim else out


def _intersection(a, b):
    """The intersection of two boxes, or intervals, (lo, hi); an empty one has hi = lo."""
    lo = np.maximum(a[0], b[0])
    return lo, np.maximum(np.minimum(a[1], b[1]), lo)


def _factor_box(f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """The box spanned by the supports of a tensor product's factors."""
    lo, hi = zip(*(g.support for g in f.heat_factors))
    return np.array(lo), np.array(hi)


def _norm2(X: np.ndarray, center: np.ndarray) -> np.ndarray:
    d = X - center
    return np.einsum("ij,ij->i", d, d)


@dataclass(frozen=True)
class Gaussian(ScalarField):
    """exp(-pi |x - center|^2 / width^2); effectively supported in center +/- 6 width."""

    center: tuple[float, ...] = (0.0,)
    width: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not _finite(*self.center, self.amplitude):
            raise ValueError("gaussian center and amplitude must be finite")
        if not _positive(self.width):
            raise ValueError("gaussian width must be finite and positive")

    @property
    def kind(self) -> str:
        return "gaussian"

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def quad_box(self):
        return _factor_box(self)

    @property
    def is_smooth(self) -> bool:
        return True

    @property
    def has_gradient(self) -> bool:
        return True

    @property
    def smooth_scale(self) -> float:
        return self.width

    @property
    def sup_norm_bound(self) -> float:
        return abs(self.amplitude)

    @cached_property
    def heat_factors(self) -> tuple:
        axes = tuple(_GaussianAxis(c, self.width) for c in self.center)
        return (_ScaledAxis(self.amplitude, axes[0]),) + axes[1:]

    def values(self, X: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        return self.amplitude * np.exp(-math.pi * _norm2(X, c) / self.width**2)


def _bump_1d(t: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1 - t^2)) inside (-1, 1) and 0 outside, in one temporary:
    1 - t^2 is clamped at 0, where 1/0 = inf gives exp(-inf) = 0 exactly.
    A NaN stays NaN."""
    u = np.multiply(t, t, out=np.empty(np.shape(t)))
    np.subtract(1.0, u, out=u)
    np.maximum(u, 0.0, out=u)
    with np.errstate(divide="ignore"):
        np.divide(1.0, u, out=u)
    np.subtract(1.0, u, out=u)
    return np.exp(u, out=u)


def _bump_1d_d1(t: np.ndarray) -> np.ndarray:
    """The kernel's derivative, 0 outside (-1, 1); a NaN stays NaN."""
    out = np.where(np.isnan(t), t, 0.0)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    om = 1.0 - ti**2
    out[inside] = np.exp(1.0 - 1.0 / om) * (-2.0 * ti / om**2)
    return out


def _bump_1d_d2(t: np.ndarray) -> np.ndarray:
    """The kernel's second derivative, 0 outside (-1, 1); a NaN stays NaN."""
    out = np.where(np.isnan(t), t, 0.0)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    om = 1.0 - ti**2
    s = -2.0 * ti / om**2
    sp = (-2.0 - 6.0 * ti**2) / om**3
    out[inside] = np.exp(1.0 - 1.0 / om) * (s**2 + sp)
    return out


_HEAT_WINDOW = 12.0  # exp(-t (x - y)^2) < e^-144 beyond |x - y| = 12 / sqrt(t)
_HEAT_ORDER = 24  # Gauss-Legendre nodes per panel
_HEAT_PANELS = (12, 8)  # panels per window, of the full and of the check evaluation
_HEAT_HERMITE = (24, 16)  # Gauss-Hermite nodes, of the full and of the check evaluation
_HEAT_CHUNK = 1 << 20  # samples per block of targets


@dataclass(frozen=True)
class _GaussianAxis:
    """Factor exp(-pi (y - center)^2 / width^2) of a Gaussian; its heat
    convolutions are closed form."""

    center: float
    width: float

    @property
    def support(self) -> tuple[float, float]:
        pad = 6.0 * self.width
        return self.center - pad, self.center + pad

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return np.exp(-math.pi * ((y - self.center) / self.width) ** 2)

    def deriv(self, y: np.ndarray) -> np.ndarray:
        return (-2.0 * math.pi / self.width**2) * (y - self.center) * self(y)

    def deriv2(self, y: np.ndarray) -> np.ndarray:
        a = math.pi / self.width**2
        d = y - self.center
        return (4.0 * a * a * d * d - 2.0 * a) * self(y)

    def heat(self, x: np.ndarray, t: np.ndarray, check: bool = False, deriv: bool = True):
        a = math.pi / self.width**2
        dx = (np.asarray(x, dtype=float) - self.center)[:, None]
        t = np.asarray(t, dtype=float)[None, :]
        G = np.sqrt(math.pi / (a + t)) * np.exp(-a * t * dx**2 / (a + t))
        return G, (-2.0 * a * t * dx / (a + t)) * G if deriv else None, G.size


@lru_cache(maxsize=None)
def _panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes of ``panels`` equal panels of half width 1 on
    [0, 2 panels] and their weights, computed once and returned read-only."""
    nodes, weights = gauss_legendre_panels(np.arange(0.0, 2 * panels + 1, 2.0), _HEAT_ORDER)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class _WindowedAxis:
    """Heat convolutions of a factor g that vanishes outside ``support`` = (lo, hi).

    A subclass gives ``support`` and ``samples(y, deriv)``: g at the points
    y and, if ``deriv``, g' times ``deriv_unit``, stacked along a new first
    axis (by default from ``__call__`` and ``deriv``, with unit 1); G_t g'
    is divided by ``deriv_unit`` after the sums.  The convolutions go by
    where the window [x - 12/sqrt(t), x + 12/sqrt(t)], beyond which the
    kernel is below e^-144, falls against the support, pair by pair of
    target x and node t:

    * the window misses the support: G = G' = 0 exactly, and no samples;
    * the window lies inside the support: G_t g(x) = t^(-1/2) sum_k w_k
      g(x + z_k/sqrt(t)) with 24 Gauss-Hermite nodes (16 for the check),
      24 (16) samples per pair;
    * the window covers the support: Gauss-Legendre sums over 12 (8) equal
      panels of 24 nodes on the support, whose offsets d = y - x do not
      depend on t, so g and g' are sampled once per target and every such
      t takes exp(-t d^2) against those samples; each pair is charged its
      288 (192) kernel terms;
    * one end of the window clipped: the same panels on the window clipped
      to the support, 288 (192) samples per pair.

    The three rules of the check differ from the full ones, so the
    difference of the two bounds the error of each.  The panel nodes are
    placed as offsets d = y - x, so the kernel exp(-t d^2) keeps full
    precision however narrow the window.
    """

    deriv_unit = 1.0

    def samples(self, y: np.ndarray, deriv: bool) -> np.ndarray:
        return np.stack([self(y), self.deriv(y)]) if deriv else self(y)[None]

    def heat(self, x: np.ndarray, t: np.ndarray, check: bool = False, deriv: bool = True):
        panels = _HEAT_PANELS[check]
        nodes, weights = _panel_rule(panels)
        zh, wh = gauss_hermite(_HEAT_HERMITE[check])
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        y_lo, y_hi = self.support
        reach = _HEAT_WINDOW / np.sqrt(t)
        out = np.zeros((1 + deriv, x.size, t.size))  # G and, with deriv, G' times deriv_unit
        samples = 0
        rows = max(1, _HEAT_CHUNK // (t.size * nodes.size))
        for s in range(0, x.size, rows):
            xs = x[s : s + rows]
            lo = (y_lo - xs)[:, None]  # the support's ends as offsets from x
            hi = (y_hi - xs)[:, None]
            inside = (lo < -reach) & (reach < hi)
            covers = (-reach <= lo) & (hi <= reach)
            clipped = (-reach < hi) & (lo < reach) & ~inside & ~covers

            i, j = np.nonzero(inside)
            if i.size:
                rt = np.sqrt(t[j])
                vals = self.samples(xs[i, None] + zh / rt[:, None], deriv)
                out[:, s + i, j] = (vals @ wh) / rt
                samples += i.size * zh.size

            i, j = np.nonzero(covers)
            if i.size:
                k = np.flatnonzero(covers.any(axis=1))
                row = np.searchsorted(k, i)
                half = (hi[k, 0] - lo[k, 0]) / (2 * panels)
                d = lo[k] + half[:, None] * nodes
                vals = self.samples(xs[k, None] + d, deriv) * weights
                kern = np.exp(-t[j, None] * (d * d)[row])
                out[:, s + i, j] = half[row] * np.einsum("pk,qpk->qp", kern, vals[:, row])
                samples += kern.size

            i, j = np.nonzero(clipped)
            if i.size:
                a = np.maximum(-reach[j], lo[i, 0])
                half = (np.minimum(reach[j], hi[i, 0]) - a) / (2 * panels)
                d = a[:, None] + half[:, None] * nodes
                vals = self.samples(xs[i, None] + d, deriv)
                kern = np.exp(-t[j, None] * d * d) * weights
                out[:, s + i, j] = half * (vals * kern).sum(axis=-1)
                samples += kern.size
        return out[0], out[1] / self.deriv_unit if deriv else None, samples


@dataclass(frozen=True)
class _BumpAxis(_WindowedAxis):
    """Factor exp(1 - 1/(1 - u^2)), u = (y - center) / width, of a SmoothBump,
    on the support [center - width, center + width].  Its samples are
    ``_bump_1d`` and ``_bump_1d_d1`` from one exponential, g' in u
    (``deriv_unit`` = width)."""

    center: float
    width: float

    @property
    def support(self) -> tuple[float, float]:
        return self.center - self.width, self.center + self.width

    @property
    def deriv_unit(self) -> float:
        return self.width

    def samples(self, y: np.ndarray, deriv: bool) -> np.ndarray:
        u = (y - self.center) / self.width
        val = _bump_1d(u)
        if not deriv:
            return val[None]
        om = 1.0 - u * u
        om[val == 0.0] = 1.0  # 0 * (-2u / om^2) = 0, also where om = 0
        return np.stack([val, val * (-2.0 * u / om**2)])

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return _bump_1d((y - self.center) / self.width)

    def deriv(self, y: np.ndarray) -> np.ndarray:
        return _bump_1d_d1((y - self.center) / self.width) / self.width

    def deriv2(self, y: np.ndarray) -> np.ndarray:
        return _bump_1d_d2((y - self.center) / self.width) / self.width**2


@dataclass(frozen=True)
class _ProductAxis(_WindowedAxis):
    """Factor l(y) r(y) of a ProductField, on the intersection of the two
    factors' supports (empty supports give G = G' = 0 exactly)."""

    left: object
    right: object

    @property
    def support(self) -> tuple[float, float]:
        return _intersection(self.left.support, self.right.support)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.left(y) * self.right(y)

    def deriv(self, y: np.ndarray) -> np.ndarray:
        return self.left.deriv(y) * self.right(y) + self.left(y) * self.right.deriv(y)

    def deriv2(self, y: np.ndarray) -> np.ndarray:
        l, r = self.left, self.right
        return l.deriv2(y) * r(y) + 2.0 * l.deriv(y) * r.deriv(y) + l(y) * r.deriv2(y)

    def samples(self, y: np.ndarray, deriv: bool) -> np.ndarray:
        # each factor and derivative once per sample, by the arithmetic above
        l, r = self.left(y), self.right(y)
        if not deriv:
            return (l * r)[None]
        return np.stack([l * r, self.left.deriv(y) * r + l * self.right.deriv(y)])


def _gaussian_product(left, right) -> _ScaledAxis | None:
    """The factor k exp(-pi (y - c)^2 / w^2) equal to the product of two
    Gaussian factors (each a ``_GaussianAxis``, bare or scaled), whose heat
    convolutions stay closed form; None unless both factors are Gaussian."""
    parts = []
    for g in (left, right):
        k = 1.0
        while isinstance(g, _ScaledAxis):
            k, g = k * g.factor, g.base
        if not isinstance(g, _GaussianAxis):
            return None
        parts.append((k, g.center, g.width**2))
    (k1, c1, v1), (k2, c2, v2) = parts
    v = v1 * v2 / (v1 + v2)
    amp = k1 * k2 * math.exp(-math.pi * (c1 - c2) ** 2 / (v1 + v2))
    return _ScaledAxis(amp, _GaussianAxis((c1 * v2 + c2 * v1) / (v1 + v2), math.sqrt(v)))


@dataclass(frozen=True)
class _ScaledAxis:
    """Factor k g(y) on the first axis of a ScaledField, or of a Gaussian with
    amplitude k, with k times g's heat convolutions."""

    factor: float
    base: object

    @property
    def support(self) -> tuple[float, float]:
        return self.base.support

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.factor * self.base(y)

    def deriv(self, y: np.ndarray) -> np.ndarray:
        return self.factor * self.base.deriv(y)

    def deriv2(self, y: np.ndarray) -> np.ndarray:
        return self.factor * self.base.deriv2(y)

    def heat(self, x: np.ndarray, t: np.ndarray, check: bool = False, deriv: bool = True):
        G, dG, samples = self.base.heat(x, t, check, deriv)
        return self.factor * G, None if dG is None else self.factor * dG, samples


@dataclass(frozen=True)
class SmoothBump(ScalarField):
    """Tensor product of 1-d bumps exp(1 - 1/(1 - t^2)), peak 1, support the open box."""

    center: tuple[float, ...] = (0.0,)
    width: tuple[float, ...] | float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.width, (int, float)):
            object.__setattr__(self, "width", (float(self.width),) * len(self.center))
        if len(self.width) != len(self.center):
            raise ValueError("width and center dimensions differ")
        if not _finite(*self.center):
            raise ValueError("smooth_bump center must be finite")
        if not _positive(*self.width):
            raise ValueError("smooth_bump widths must be finite and positive")

    @property
    def kind(self) -> str:
        return "smooth_bump"

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def support_box(self):
        return _factor_box(self)

    @property
    def is_smooth(self) -> bool:
        return True

    @property
    def has_gradient(self) -> bool:
        return True

    @property
    def smooth_scale(self) -> float:
        return min(self.width)

    @property
    def parity(self) -> int:
        # each factor's (y - 0) / w keeps the sign of y exactly, and _bump_1d
        # reads only its square
        return 1 if all(c == 0.0 for c in self.center) else 0

    @cached_property
    def heat_factors(self) -> tuple:
        return tuple(_BumpAxis(c, w) for c, w in zip(self.center, self.width))

    def values(self, X: np.ndarray) -> np.ndarray:
        first, *rest = self.heat_factors
        out = first(X[:, 0])
        for i, factor in enumerate(rest, 1):
            out = out * factor(X[:, i])
        return out


@dataclass(frozen=True)
class IntervalIndicator(ScalarField):
    """Indicator of the open interval (a, b) on the line; boundary evaluates to 0."""

    a: float = -1.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError("need a < b")

    @property
    def kind(self) -> str:
        return "interval_indicator"

    @property
    def dim(self) -> int:
        return 1

    @property
    def region(self) -> AxisBox:
        return AxisBox((self.a,), (self.b,))

    def values(self, X: np.ndarray) -> np.ndarray:
        x = X[:, 0]
        return np.where((x > self.a) & (x < self.b), 1.0, 0.0)


@dataclass(frozen=True)
class CubeIndicator(ScalarField):
    """Indicator of the open cube center + (-half_width, half_width)^n."""

    ndim: int = 1
    half_width: float = 1.0
    center: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.center is None:
            object.__setattr__(self, "center", (0.0,) * self.ndim)
        if len(self.center) != self.ndim:
            raise ValueError("center dimension mismatch")
        if not _finite(*self.center):
            raise ValueError("cube_indicator center must be finite")
        if not _positive(self.half_width):
            raise ValueError("cube_indicator half_width must be finite and positive")

    @property
    def kind(self) -> str:
        return "cube_indicator"

    @property
    def dim(self) -> int:
        return self.ndim

    @property
    def region(self) -> AxisBox:
        c = np.asarray(self.center)
        lo, hi = (c - self.half_width).tolist(), (c + self.half_width).tolist()
        return AxisBox(tuple(lo), tuple(hi), self.center, self.half_width)

    def values(self, X: np.ndarray) -> np.ndarray:
        lo, hi = self.support_box
        inside = np.all((X > lo) & (X < hi), axis=1)
        return np.where(inside, 1.0, 0.0)

    def is_singular(self, x) -> bool:
        return self.region.on_boundary(as_points(x, self.dim)[0])


@dataclass(frozen=True)
class HalfSpaceIndicator(ScalarField):
    """Indicator of an open half-space; the boundary hyperplane is its singular set."""

    halfspace: HalfSpace = dc_field(default_factory=lambda: HalfSpace.make((1.0,)))

    @property
    def kind(self) -> str:
        return "half_space_indicator"

    @property
    def dim(self) -> int:
        return self.halfspace.dim

    @property
    def decay_exponent(self) -> float:
        return 0.0  # bounded, no decay

    @property
    def region(self) -> HalfSpace:
        return self.halfspace

    def values(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.halfspace.signed_distance(X) > 0.0, 1.0, 0.0)

    def is_singular(self, x) -> bool:
        return self.halfspace.on_boundary(as_points(x, self.dim)[0])


@dataclass(frozen=True)
class FAlpha(ScalarField):
    """mu(1,-a) (|x|^(a-1) sgn x - |x-1|^(a-1) sgn(x-1)): the one-dimensional
    function whose fractional variation is the atom pair +delta_0 - delta_1,
    while its absolute value has infinite fractional variation."""

    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("f_alpha requires alpha in (0, 1)")

    @property
    def kind(self) -> str:
        return "f_alpha"

    @property
    def dim(self) -> int:
        return 1

    @property
    def decay_exponent(self) -> float:
        return 2.0 - self.alpha  # from the differenced |x|^(alpha-1) tails

    @property
    def singularities(self):
        return ((0.0, self.alpha - 1.0), (1.0, self.alpha - 1.0))

    @property
    def has_gradient(self) -> bool:
        return True  # away from the singular pair

    def values(self, X: np.ndarray) -> np.ndarray:
        x = X[:, 0]
        return self.values_from_offsets(lambda c: x - c)

    def values_from_offsets(self, dx) -> np.ndarray:
        """Values from ``dx(c)`` = x - c at the singular points c = 0 and 1,
        as an :class:`~fracvar.quadrature.OffsetIntegrand` supplies them."""
        d0, d1 = dx(0.0), dx(1.0)
        m = mu(1, -self.alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = m * (
                np.abs(d0) ** (self.alpha - 1.0) * np.sign(d0)
                - np.abs(d1) ** (self.alpha - 1.0) * np.sign(d1)
            )
        return np.where(np.isfinite(v), v, 0.0)

    def fold_from_offsets(self, x0: float, r: np.ndarray, plus, minus) -> np.ndarray:
        """f(x0 + r) - f(x0 - r), without cancellation where r < |x0 - c|/2
        for both singular points c.

        With u = x0 - c and t = r/u, the term |u +/- r|^(a-1) sgn(u +/- r) is
        sgn(u) |u|^(a-1) (1 +/- t)^(a-1), so the pair differs by
        sgn(u) |u|^(a-1) (expm1((a-1) log1p(t)) - expm1((a-1) log1p(-t))),
        which keeps its relative precision as r -> 0.  Farther out the two
        values are read from the offsets, exactly near c.
        """
        e = self.alpha - 1.0
        near = r < 0.5 * min(abs(x0), abs(x0 - 1.0))
        pairs = 0.0
        for c, sign in ((0.0, 1.0), (1.0, -1.0)):
            u = x0 - c
            t = np.where(near, r / u, 0.0)
            pairs = pairs + sign * math.copysign(abs(u) ** e, u) * (
                np.expm1(e * np.log1p(t)) - np.expm1(e * np.log1p(-t))
            )
        split = self.values_from_offsets(plus) - self.values_from_offsets(minus)
        return np.where(near, mu(1, -self.alpha) * pairs, split)

    def variation_measure(self, alpha: float) -> "SignedMeasure":
        """The atom pair +delta_0 - delta_1, at the field's own order only."""
        if not abs(alpha - self.alpha) <= 1e-12:  # a NaN order fails too
            raise UnsupportedFieldError(
                "the variation measure of f_alpha is identified only at its own order"
            )
        return SignedMeasure(atoms=(((0.0,), (1.0,)), ((1.0,), (-1.0,))))


@dataclass(frozen=True)
class MagicCube(ScalarField):
    """Fractional Laplacian of order (1-alpha) applied to the unit-cube indicator.

    Negative outside the cube with f -> 0^- at infinity, positive inside, and
    unbounded near the boundary; in dimension 1 it has a closed form, in
    dimensions 2 and 3 the defining region integrals are evaluated on demand.
    """

    alpha: float = 0.5
    ndim: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("magic_cube requires alpha in (0, 1)")
        if self.ndim not in (1, 2, 3):
            raise ValueError("magic_cube supports dim 1..3")

    @property
    def kind(self) -> str:
        return "magic_cube"

    @property
    def dim(self) -> int:
        return self.ndim

    @property
    def decay_exponent(self) -> float:
        return self.ndim + 1.0 - self.alpha

    @property
    def singularities(self):
        if self.ndim == 1:
            return ((-1.0, self.alpha - 1.0), (1.0, self.alpha - 1.0))
        return ()

    def is_singular(self, x) -> bool:
        pt = as_points(x, self.dim)[0]
        on_face = np.any(np.abs(pt) == 1.0)
        inside_closed = np.all(np.abs(pt) <= 1.0)
        return bool(on_face and inside_closed)

    def values(self, X: np.ndarray) -> np.ndarray:
        if self.ndim == 1:
            return self._values_1d(X)
        return np.array([self._value_nd(p) for p in X])

    def _values_1d(self, X: np.ndarray) -> np.ndarray:
        x = np.abs(X[:, 0])
        a = self.alpha
        c = nu(1, 1.0 - a) / (1.0 - a)
        out = np.zeros_like(x)
        ext = x > 1.0
        inn = x < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out[ext] = c * ((x[ext] - 1.0) ** (a - 1.0) - (x[ext] + 1.0) ** (a - 1.0))
            out[inn] = -c * ((1.0 - x[inn]) ** (a - 1.0) + (1.0 + x[inn]) ** (a - 1.0))
        return np.where(np.isfinite(out), out, 0.0)

    def _value_nd(self, p: np.ndarray) -> float:
        n, a = self.ndim, self.alpha
        c = nu(n, 1.0 - a)
        inside = bool(np.all(np.abs(p) < 1.0))
        val = cube_kernel_integral(p, exponent=n + 1.0 - a, half_width=1.0, over_complement=inside)
        return -c * val if inside else c * val

    def variation_measure(self, alpha: float) -> "SignedMeasure":
        """In dimension 1 the atoms of the derivative of the cube indicator, at
        the field's own order only."""
        if not abs(alpha - self.alpha) <= 1e-12:  # a NaN order fails too
            raise UnsupportedFieldError(
                "the variation measure of magic_cube is identified only at its own order"
            )
        if self.dim == 1:
            return SignedMeasure(atoms=(((-1.0,), (1.0,)), ((1.0,), (-1.0,))))
        raise UnsupportedFieldError(
            "for dim >= 2 the variation measure of magic_cube is a surface measure, "
            "which this atomic+density representation cannot hold"
        )


@dataclass(frozen=True)
class ProductField(ScalarField):
    """Pointwise product of two fields (used by the Leibniz-rule checks)."""

    left: ScalarField = dc_field(default_factory=Gaussian)
    right: ScalarField = dc_field(default_factory=Gaussian)

    def __post_init__(self) -> None:
        if self.left.dim != self.right.dim:
            raise ValueError("factor dimensions differ")

    @property
    def kind(self) -> str:
        return "product"

    @property
    def dim(self) -> int:
        return self.left.dim

    @property
    def support_box(self):
        boxes = [b for b in (self.left.support_box, self.right.support_box) if b is not None]
        return reduce(_intersection, boxes) if boxes else None

    @property
    def quad_box(self):
        return _intersection(self.left.quad_box, self.right.quad_box)

    @property
    def is_smooth(self) -> bool:
        return self.left.is_smooth and self.right.is_smooth

    @property
    def has_gradient(self) -> bool:
        return self.left.has_gradient and self.right.has_gradient

    @property
    def smooth_scale(self) -> float:
        return min(self.left.smooth_scale, self.right.smooth_scale)

    @property
    def sup_norm_bound(self) -> float:
        return self.left.sup_norm_bound * self.right.sup_norm_bound

    @cached_property
    def heat_factors(self) -> tuple | None:
        left, right = self.left.heat_factors, self.right.heat_factors
        if None in (left, right):
            return None
        return tuple(_gaussian_product(l, r) or _ProductAxis(l, r) for l, r in zip(left, right))

    def values(self, X: np.ndarray) -> np.ndarray:
        return self.left.values(X) * self.right.values(X)


@dataclass(frozen=True)
class ScaledField(ScalarField):
    base: ScalarField = dc_field(default_factory=Gaussian)
    factor: float = 1.0

    def __post_init__(self) -> None:
        if not _finite(self.factor):
            raise ValueError("scaled field factor must be finite")

    @property
    def kind(self) -> str:
        return "scaled"

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def support_box(self):
        return self.base.support_box

    @property
    def quad_box(self):
        return self.base.quad_box

    @property
    def decay_exponent(self) -> float:
        return self.base.decay_exponent

    @property
    def singularities(self):
        return self.base.singularities

    @property
    def is_smooth(self) -> bool:
        return self.base.is_smooth

    @property
    def has_gradient(self) -> bool:
        return self.base.has_gradient

    @property
    def smooth_scale(self) -> float:
        return self.base.smooth_scale

    @property
    def sup_norm_bound(self) -> float:
        return abs(self.factor) * self.base.sup_norm_bound

    @cached_property
    def heat_factors(self) -> tuple | None:
        base = self.base.heat_factors
        return None if base is None else (_ScaledAxis(self.factor, base[0]),) + base[1:]

    def is_singular(self, x) -> bool:
        return self.base.is_singular(x)

    def values(self, X: np.ndarray) -> np.ndarray:
        return self.factor * self.base.values(X)

    def values_from_offsets(self, dx) -> np.ndarray:
        return self.factor * self.base.values_from_offsets(dx)

    def fold_from_offsets(self, x0: float, r: np.ndarray, plus, minus) -> np.ndarray:
        return self.factor * self.base.fold_from_offsets(x0, r, plus, minus)


def _ramp(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1."""
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    h1 = np.exp(-1.0 / tm)
    h2 = np.exp(-1.0 / (1.0 - tm))
    out[mid] = h1 / (h1 + h2)
    return out


@dataclass(frozen=True)
class OddPlateau(ScalarField):
    """Smooth, compactly supported, odd field close to sign(x) on [-span, span].

    tanh(x / core) times a C-infinity cutoff ramp of width ``edge`` at the
    ends; sup norm < 1 by construction.  These are the wide members of the
    default dual test family for the fractional variation.
    """

    span: float = 10.0
    core: float = 0.25
    edge: float = 1.0

    def __post_init__(self) -> None:
        if not (self.span > self.edge > 0.0 and self.core > 0.0):
            raise ValueError("need span > edge > 0 and core > 0")

    @property
    def kind(self) -> str:
        return "odd_plateau"

    @property
    def dim(self) -> int:
        return 1

    @property
    def support_box(self):
        return np.array([-self.span]), np.array([self.span])

    @property
    def is_smooth(self) -> bool:
        return True

    @property
    def has_gradient(self) -> bool:
        return True

    @property
    def smooth_scale(self) -> float:
        return min(self.core, self.edge)

    @property
    def parity(self) -> int:
        return -1  # tanh is odd, and the ramp reads |x|

    def values(self, X: np.ndarray) -> np.ndarray:
        x = X[:, 0]
        return np.tanh(x / self.core) * _ramp((self.span - np.abs(x)) / self.edge)


@dataclass(frozen=True)
class OddBumpPair(ScalarField):
    """b((x - offset)/scale) - b((x + offset)/scale): an odd pair of bumps.

    Sup norm <= 1 since each lobe lies in [0, 1]; positive lobe on the right,
    matching the sign of the optimal dual field for indicators centered at 0.
    """

    offset: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.offset > 0.0 and self.scale > 0.0):
            raise ValueError("offset and scale must be positive")

    @property
    def kind(self) -> str:
        return "odd_bump_pair"

    @property
    def dim(self) -> int:
        return 1

    @property
    def support_box(self):
        w = self.offset + self.scale
        return np.array([-w]), np.array([w])

    @property
    def is_smooth(self) -> bool:
        return True

    @property
    def has_gradient(self) -> bool:
        return True

    @property
    def smooth_scale(self) -> float:
        return self.scale

    @property
    def parity(self) -> int:
        return -1  # the lobes swap at -x, and a - b = -(b - a) exactly

    def values(self, X: np.ndarray) -> np.ndarray:
        x = X[:, 0]
        return _bump_1d((x - self.offset) / self.scale) - _bump_1d((x + self.offset) / self.scale)


# ---------------------------------------------------------------------------
# Vector fields and measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    components: tuple[ScalarField, ...]

    def __post_init__(self) -> None:
        dims = {c.dim for c in self.components}
        if len(dims) != 1:
            raise ValueError("all components must share the ambient dimension")

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def values(self, X: np.ndarray) -> np.ndarray:
        return np.stack([c.values(X) for c in self.components], axis=1)

    @property
    def sup_norm_bound(self) -> float:
        return max(c.sup_norm_bound for c in self.components)


@dataclass(frozen=True)
class SignedMeasure:
    """A vector measure on R^n, checked when built (ValueError): atoms (point,
    vector weight) at distinct points, each point and weight of length n with
    finite entries, plus an optional density, grad_a f of a smooth f on R^n
    with a in (0, 1), held as (f, a).  A density held with an order grid,
    (f, (a1, a2, ...)), stands for one measure per order, and ``pair``
    returns one value per order."""

    atoms: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...] = ()
    density: tuple[ScalarField, float | tuple[float, ...]] | None = None
    _PAIR_SPEC = QuadSpec(rel_tol=1e-9, abs_tol=1e-12)  # the rule of the density pairing

    def __post_init__(self) -> None:
        dims = {len(v) for atom in self.atoms for v in atom}
        if self.density is not None:
            orders = np.atleast_1d(np.asarray(self.density[1], dtype=float))
            if not (orders.size and np.all((0.0 < orders) & (orders < 1.0))):
                raise ValueError(f"the density's order must lie in (0, 1), not {self.density[1]}")
            dims.add(self.density[0].dim)
        if len(dims) > 1 or not all(math.isfinite(c) for a in self.atoms for v in a for c in v):
            raise ValueError("atom points and weights need finite entries and one common dimension")
        if len({tuple(p) for p, _ in self.atoms}) != len(self.atoms):
            raise ValueError("atoms must sit at distinct points")

    @property
    def total_atomic_variation(self) -> float:
        return float(sum(np.linalg.norm(w) for _, w in self.atoms))

    def pair(self, phi: VectorField) -> float | np.ndarray:
        """<phi, mu>: the sum of w . phi(p) over the atoms, plus the density's
        int phi grad_a f over phi's support box, by the n = 1 batch gradient
        at ``_PAIR_SPEC`` (n = 1 only, else UnsupportedFieldError).  A
        density with an order grid gives an array, one pairing per order:
        the orders' integrals run in lockstep (``integrate_many``), each
        round one batch gradient of every order on the distinct points of
        all of them, and each is bit for bit the one-order pairing when the
        batch gradient is elementwise in its targets.  phi needs n smooth
        components of compact support on R^n (else ValueError for the count
        or dimension, UnsupportedFieldError for the rest)."""
        n = len(self.atoms[0][0]) if self.atoms else self.density and self.density[0].dim
        if (not isinstance(phi, VectorField) or len(phi.components) != phi.dim
                or n not in (None, phi.dim)):
            raise ValueError(f"pair takes a VectorField of n components on R^n, n = {n}")
        boxes = [c.support_box for c in phi.components]
        if None in boxes or not all(c.is_smooth for c in phi.components):
            raise UnsupportedFieldError("a test field needs smooth components of compact support")
        total = sum((float(np.dot(w, phi.values(np.array([p], dtype=float))[0]))
                     for p, w in self.atoms), 0.0)
        if self.density is not None:
            if n != 1:
                raise UnsupportedFieldError(f"density pairing implemented for n = 1, not n = {n}")
            from . import operators as ops

            f, order = self.density
            alphas = [ops._check_alpha(a) for a in np.atleast_1d(order).tolist()]
            ops._check_batch_field(f)
            box = ops._batch_box(f)

            def integrand(xs: np.ndarray, owner: np.ndarray) -> np.ndarray:
                # the orders share one range, so their points often coincide:
                # the batch runs once on each distinct point
                pts, at = np.unique(xs, return_inverse=True)
                grad = ops._grad_batch_1d(f, alphas, pts[:, None], box)[owner, at]
                return phi.values(xs[:, None])[:, 0] * grad

            (lo,), (hi,) = boxes[0]
            res = integrate_many(integrand, [(float(lo), float(hi))] * len(alphas), self._PAIR_SPEC)
            vals = np.array([float(r.require()[0]) for r in res])
            return total + (vals if np.ndim(order) else float(vals[0]))
        return total


# ---------------------------------------------------------------------------
# Module operations
# ---------------------------------------------------------------------------


def eval(field: ScalarField, x) -> float:  # noqa: A001 - spec operation name
    """Evaluate a catalog field at a point, refusing declared singular points."""
    X = as_points(x, field.dim)
    if field.is_singular(X[0]):
        raise SingularPointError(f"{field.kind} is singular at {X[0].tolist()}")
    return float(field.values(X)[0])


def d_alpha_measure(field: ScalarField, alpha: float) -> SignedMeasure:
    """D^alpha f, with int f div_alpha phi dx = -<phi, D^alpha f> (``pair``).

    f_alpha and 1-d magic_cube at their own order (not NaN) give the atom
    pairs +delta_0 - delta_1 and +delta_-1 - delta_1; smooth fields give the
    density grad_alpha f, held as (f, alpha), or with an order grid when
    ``alpha`` is a tuple of orders.  Everything else raises
    UnsupportedFieldError.
    """
    return field.variation_measure(alpha)


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


def field_from_json(obj) -> ScalarField:
    """Build a field from a JSON descriptor (dict or JSON text).

    Examples: {"kind": "f_alpha", "alpha": 0.5},
    {"kind": "gaussian", "center": [0], "width": 1, "dim": 1}.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("field descriptor must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "gaussian":
        center = obj.get("center", [0.0] * obj.get("dim", 1))
        return Gaussian(center=tuple(float(c) for c in center), width=float(obj.get("width", 1.0)))
    if kind == "smooth_bump":
        center = obj.get("center", [0.0] * obj.get("dim", 1))
        width = obj.get("width", 1.0)
        width = tuple(float(w) for w in width) if isinstance(width, (list, tuple)) else float(width)
        return SmoothBump(center=tuple(float(c) for c in center), width=width)
    if kind == "interval_indicator":
        return IntervalIndicator(a=float(obj.get("a", -1.0)), b=float(obj.get("b", 1.0)))
    if kind == "cube_indicator":
        ndim = int(obj.get("dim", 1))
        center = obj.get("center")
        return CubeIndicator(
            ndim=ndim,
            half_width=float(obj.get("half_width", 1.0)),
            center=tuple(float(c) for c in center) if center is not None else None,
        )
    if kind == "half_space_indicator":
        nu_v = obj.get("nu", [1.0])
        x0 = obj.get("x0")
        return HalfSpaceIndicator(halfspace=HalfSpace.make(nu_v, x0))
    if kind == "f_alpha":
        return FAlpha(alpha=float(obj["alpha"]))
    if kind == "magic_cube":
        return MagicCube(alpha=float(obj["alpha"]), ndim=int(obj.get("dim", 1)))
    raise ValueError(f"unknown field kind {kind!r}")
