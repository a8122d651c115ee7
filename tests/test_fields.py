"""Field catalog: evaluation, metadata, heat factors, measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvar.constants import mu, nu
from fracvar.fields import (
    CubeIndicator,
    FAlpha,
    Gaussian,
    HalfSpace,
    HalfSpaceIndicator,
    IntervalIndicator,
    MagicCube,
    OddBumpPair,
    OddPlateau,
    ProductField,
    ScaledField,
    SignedMeasure,
    SingularPointError,
    SmoothBump,
    UnsupportedFieldError,
    VectorField,
    _BumpAxis,
    _GaussianAxis,
    _ProductAxis,
    _ScaledAxis,
    _bump_1d,
    _bump_1d_d1,
    _bump_1d_d2,
    as_points,
    d_alpha_measure,
    eval as feval,
    field_from_json,
)
from fracvar.quadrature import QuadSpec, integrate_1d


class TestFAlpha:
    def test_frozen_values(self):
        fa = FAlpha(alpha=0.5)
        # mu(1,-1/2) (2^(-1/2) - 1) and 2/sqrt(pi), frozen from the
        # high-precision oracle
        assert feval(fa, 2.0) == pytest.approx(-0.11684748862755453, rel=1e-12)
        assert feval(fa, 0.5) == pytest.approx(1.1283791670955126, rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
           st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=120, deadline=None)
    def test_reflection_symmetry_on_unit_interval(self, x, a):
        # sampled away from the endpoints, where representing 1 - x already
        # costs ~eps/x of the offset to the singular point
        fa = FAlpha(alpha=a)
        assert feval(fa, 1.0 - x) == pytest.approx(feval(fa, x), rel=1e-12)

    def test_singular_points_raise(self):
        fa = FAlpha(alpha=0.5)
        with pytest.raises(SingularPointError):
            feval(fa, 0.0)
        with pytest.raises(SingularPointError):
            feval(fa, 1.0)

    def test_decay_metadata(self):
        fa = FAlpha(alpha=0.3)
        assert fa.decay_exponent == pytest.approx(1.7)
        # differenced tails: f ~ mu (a-1) x^(a-2)
        x = 1e5
        expect = mu(1, -0.3) * (0.3 - 1.0) * x ** (0.3 - 2.0)
        assert feval(fa, x) == pytest.approx(expect, rel=1e-4)


class TestCompactSupport:
    def test_bump_bit_exact_zero_outside(self):
        b = SmoothBump(center=(0.25,), width=0.5)
        for x in (0.76, 5.0, -0.25, -100.0):
            assert feval(b, x) == 0.0
        assert feval(b, 0.25) == 1.0

    def test_bump_axis_factors_multiply_to_values(self):
        b = SmoothBump(center=(0.1, -0.3), width=(1.2, 0.7))
        X = np.random.default_rng(0).uniform(-1.5, 1.5, (200, 2))
        f0, f1 = b.heat_factors
        assert np.array_equal(b.values(X), f0(X[:, 0]) * f1(X[:, 1]))

    @pytest.mark.parametrize("field", [
        SmoothBump(center=(0.1, -0.3), width=(1.2, 0.7)),
        Gaussian(center=(0.2, -0.1), width=0.8, amplitude=1.5),
    ])
    def test_heat_factors_against_quadrature(self, field):
        # the factors multiply to the field, and G_t of a factor and of its
        # derivative match an adaptive quadrature of the defining integral
        X = np.random.default_rng(1).uniform(-1.5, 1.5, (50, 2))
        g0, g1 = field.heat_factors
        assert np.allclose(g0(X[:, 0]) * g1(X[:, 1]), field.values(X), rtol=1e-14, atol=0.0)
        x, t = np.array([-0.4, 0.3, 1.6]), np.array([1e-3, 1.0, 50.0, 1e6])
        G, dG, samples = g1.heat(x, t)
        assert G.shape == dG.shape == (3, 4) and samples >= G.size
        spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-300)
        box_lo, box_hi = float(field.quad_box[0][1]), float(field.quad_box[1][1])
        for i, xi in enumerate(x):
            for j, tj in enumerate(t):
                lo = max(xi - 12.0 / math.sqrt(tj), box_lo)
                hi = min(xi + 12.0 / math.sqrt(tj), box_hi)
                for h, g in ((G, g1), (dG, g1.deriv)):
                    ref = integrate_1d(lambda y: g(y) * np.exp(-tj * (xi - y) ** 2), lo, hi,
                                       spec=spec).value if lo < hi else 0.0
                    assert h[i, j] == pytest.approx(ref, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("field", [
        SmoothBump(center=(0.1, -0.3), width=(1.2, 0.7)),
        Gaussian(center=(0.2, -0.1), width=0.8, amplitude=1.5),
    ])
    def test_heat_without_derivative(self, field):
        # G_t g does not depend on whether G_t g' is asked for, in any regime
        x, t = np.linspace(-2.0, 2.0, 41), np.geomspace(1e-4, 1e10, 30)
        for g in field.heat_factors:
            for check in (False, True):
                G, dG, samples = g.heat(x, t, check)
                G0, dG0, samples0 = g.heat(x, t, check, deriv=False)
                assert dG0 is None and dG is not None and samples0 == samples
                assert np.array_equal(G0, G)


    def test_indicator_open_interval(self):
        chi = IntervalIndicator(a=-1.0, b=1.0)
        assert feval(chi, 0.0) == 1.0
        assert feval(chi, 1.0) == 0.0  # boundary evaluates to 0
        assert feval(chi, 2.0) == 0.0

    def test_cube_indicator(self):
        q = CubeIndicator(ndim=2)
        assert feval(q, (0.5, -0.5)) == 1.0
        assert feval(q, (1.5, 0.0)) == 0.0
        with pytest.raises(SingularPointError):
            feval(q, (1.0, 0.0))

    def test_half_space(self):
        hs = HalfSpaceIndicator(halfspace=HalfSpace.make((0.6, 0.8)))
        assert feval(hs, (0.6, 0.8)) == 1.0
        assert feval(hs, (-0.6, -0.8)) == 0.0
        # exact hyperplane hits are declared singular (axis-aligned normal so
        # the signed distance is exactly zero in floating point)
        hs_axis = HalfSpaceIndicator(halfspace=HalfSpace.make((1.0, 0.0)))
        with pytest.raises(SingularPointError):
            feval(hs_axis, (0.0, 0.7))

    def test_halfspace_unit_normal_validation(self):
        with pytest.raises(ValueError):
            HalfSpace(nu=(1.0, 1.0), x0=(0.0, 0.0))

    @pytest.mark.parametrize("make", [
        lambda: HalfSpace(nu=(math.nan, 1.0), x0=(0.0, 0.0)),
        lambda: HalfSpace(nu=(1.0, 0.0), x0=(math.inf, 0.0)),
        lambda: HalfSpace.make((0.0, 0.0)),
        lambda: HalfSpace.make((math.nan, 1.0)),
        lambda: HalfSpace.make((1.0, math.inf)),
        lambda: HalfSpace.make((0.6, 0.8), (0.0, math.nan)),
    ])
    def test_halfspace_zero_or_non_finite_input(self, make):
        # a NaN normal passed the unit-norm check, and a zero one was
        # divided by its norm
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("make", [
    lambda: Gaussian(width=0.0),
    lambda: Gaussian(width=-1.0),
    lambda: Gaussian(width=math.inf),
    lambda: Gaussian(center=(0.0, math.nan)),
    lambda: Gaussian(amplitude=math.inf),
    lambda: SmoothBump(width=-1.0),
    lambda: SmoothBump(center=(0.0, 0.0), width=(1.0, 0.0)),
    lambda: SmoothBump(center=(math.inf,)),
    lambda: CubeIndicator(ndim=2, half_width=-1.0),
    lambda: CubeIndicator(half_width=math.nan),
    lambda: CubeIndicator(center=(math.inf,)),
    lambda: ScaledField(factor=math.nan),
    lambda: ScaledField(factor=-math.inf),
])
def test_catalog_parameters_are_checked(make):
    # centers, amplitudes and scale factors finite, widths and half-widths
    # finite and > 0; a NaN factor used to exhaust a quadrature budget
    with pytest.raises(ValueError):
        make()


def _panel_heat(g, x: float, t: float, lo: float, hi: float, panels: int = 12):
    """G_t g(x), G_t g'(x) and sum |k g'| over the nodes, by Gauss-Legendre
    over ``panels`` equal panels of [lo, hi] with 24 nodes each, one (x, t)
    pair at a time.  The nodes are offsets d = y - x, so that the kernel
    exp(-t d^2) keeps full precision in a narrow window."""
    z, wz = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(lo - x, hi - x, panels + 1)
    G = dG = mag = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        d = 0.5 * (a + b) + 0.5 * (b - a) * z
        k = 0.5 * (b - a) * wz * np.exp(-t * d * d)
        G, dG, mag = G + k @ g(x + d), dG + k @ g.deriv(x + d), mag + k @ np.abs(g.deriv(x + d))
    return G, dG, mag


class TestBumpHeatRegimes:
    """Where the window x +- 12/sqrt(t) falls against a bump factor's
    support [-0.6, 0.8] sets the rule for G_t and what it charges."""

    g = SmoothBump(center=(0.1,), width=0.7).heat_factors[0]

    def _check_against_panels(self, G, dG, x, t, window, rel):
        # G is positive; G' may cancel to far below its terms, whose summed
        # magnitude sets its rounding floor
        ref = np.array([[_panel_heat(self.g, xi, tj, *window(xi, tj)) for tj in t] for xi in x])
        assert np.all(np.abs(G - ref[..., 0]) <= rel * ref[..., 0])
        assert np.all(np.abs(dG - ref[..., 1]) <= rel * ref[..., 2])

    def test_empty_window(self):
        x, t = np.array([2.1, -2.5, 1.3]), np.array([1e3, 1e4, 1e8])
        for check in (False, True):
            G, dG, samples = self.g.heat(x, t, check)
            assert samples == 0 and not np.any(G) and not np.any(dG)

    def test_inside_support_gauss_hermite(self):
        # every window lies inside the support: 24 Gauss-Hermite samples a
        # pair (16 for the check) agree with the 12-panel sum on the window
        x, t = np.linspace(-0.45, 0.65, 12), np.geomspace(1e4, 1e12, 20)
        G, dG, samples = self.g.heat(x, t)
        Gc, dGc, samples_c = self.g.heat(x, t, check=True)
        assert samples == 24 * G.size and samples_c == 16 * G.size
        self._check_against_panels(G, dG, x, t, lambda xi, tj: (xi - 12.0 / math.sqrt(tj),
                                                                xi + 12.0 / math.sqrt(tj)), 1e-13)
        # the check is a different rule, so |full - check| is not identically 0
        assert np.any(G != Gc) and np.all(np.abs(G - Gc) <= 1e-10 * G)

    def test_window_covers_support(self):
        # every window covers the support: the panels on the support are
        # shared by every t, and each pair is charged its 288 kernel terms
        x, t = np.array([-1.2, -0.3, 0.1, 0.5, 1.0]), np.geomspace(1e-6, 30.0, 15)
        G, dG, samples = self.g.heat(x, t)
        assert samples == 288 * G.size
        self._check_against_panels(G, dG, x, t, lambda xi, tj: (-0.6, 0.8), 1e-13)


class TestBumpKernel:
    """The bump's kernel exp(1 - 1/(1 - t^2)), computed in place, and the heat
    factor's samples, which call it."""

    T = np.concatenate([np.linspace(-1.5, 1.5, 3001), [-1.0, 1.0, np.nextafter(1.0, 0.0),
                                                       np.nextafter(-1.0, 0.0), 0.0, -0.0]])

    def test_bit_identical_to_the_masked_formula(self):
        # the masked kernel it replaces; outside the support exactly 0
        inside = np.abs(self.T) < 1.0
        ref = np.zeros_like(self.T)
        ref[inside] = np.exp(1.0 - 1.0 / (1.0 - self.T[inside] ** 2))
        got = _bump_1d(self.T)
        assert got.tobytes() == ref.tobytes()
        assert np.all(got[~inside] == 0.0)

    def test_samples_bit_identical_to_the_masked_formula(self):
        g = SmoothBump(center=(0.1,), width=0.7).heat_factors[0]
        y = 0.1 + 0.7 * self.T
        u = (y - 0.1) / 0.7
        om = 1.0 - u * u
        inside = om > 0.0
        om = np.where(inside, om, 1.0)
        val = np.where(inside, np.exp(1.0 - 1.0 / om), 0.0)
        ref = np.stack([val, val * (-2.0 * u / om**2)])
        assert g.samples(y, True).tobytes() == ref.tobytes()
        assert g.samples(y, False).tobytes() == val[None].tobytes()

    def test_derivatives_bit_identical_inside_and_zero_outside(self):
        # the masked formulas; a NaN now stays NaN instead of reading as outside
        inside = np.abs(self.T) < 1.0
        ti = self.T[inside]
        om = 1.0 - ti**2
        s = -2.0 * ti / om**2
        d1, d2 = np.zeros_like(self.T), np.zeros_like(self.T)
        d1[inside] = np.exp(1.0 - 1.0 / om) * s
        d2[inside] = np.exp(1.0 - 1.0 / om) * (s**2 + (-2.0 - 6.0 * ti**2) / om**3)
        assert _bump_1d_d1(self.T).tobytes() == d1.tobytes()
        assert _bump_1d_d2(self.T).tobytes() == d2.tobytes()
        t = np.array([math.nan, math.inf, -math.inf, 0.5])
        for kernel in (_bump_1d_d1, _bump_1d_d2):
            got = kernel(t)
            assert np.isnan(got[0]) and got[1] == got[2] == 0.0 and np.isfinite(got[3])

    def test_nan_propagates(self):
        # the masked kernel read a NaN as outside the support, so 0.0
        assert np.isnan(SmoothBump(center=(0.0,), width=1.0).values(np.array([[math.nan]]))[0])
        g = SmoothBump(center=(0.0,), width=1.0).heat_factors[0]
        assert np.isnan(g.deriv(np.array([math.nan]))).all()
        assert np.isnan(g.deriv2(np.array([math.nan]))).all()
        y = np.array([math.nan, 0.5])
        assert np.isnan(g.samples(y, True)[:, 0]).all()
        assert np.isfinite(g.samples(y, True)[:, 1]).all()


class TestProductAndScaledFactors:
    """A product's factor l_i r_i and a scaled field's first factor k g_1."""

    def test_product_factors_need_both_fields(self):
        smooth = OddBumpPair()  # smooth, but no factors
        assert ProductField(left=SmoothBump(), right=smooth).heat_factors is None
        assert ProductField(left=smooth, right=Gaussian()).heat_factors is None
        assert ScaledField(base=smooth, factor=2.0).heat_factors is None
        assert len(ProductField(left=SmoothBump(center=(0.0, 0.0)),
                                right=Gaussian(center=(0.0, 0.0))).heat_factors) == 2

    def test_product_support_is_the_intersection(self):
        # a Gaussian factor counts as supported on center +- 6 width
        g = ProductField(left=Gaussian(center=(0.5,), width=0.1),
                         right=SmoothBump(center=(0.1,), width=0.7)).heat_factors[0]
        assert g.support == pytest.approx((-0.1, 0.8), abs=1e-15)
        g = ProductField(left=SmoothBump(center=(-1.0,), width=0.5),
                         right=SmoothBump(center=(1.0,), width=0.5)).heat_factors[0]
        assert g.support == (0.5, 0.5)
        G, dG, _ = g.heat(np.array([0.0, 0.5, 2.0]), np.geomspace(1e-3, 1e9, 13))
        assert not np.any(G) and not np.any(dG)

    def test_gaussian_product_factor_against_closed_form(self):
        # exp(-pi (y - c1)^2/w1^2) exp(-pi (y - c2)^2/w2^2) is a Gaussian of
        # width w, center c and amplitude A, whose convolutions are closed
        # form; the product's go by the window regimes, at every t of a grid
        c1, w1, c2, w2 = 0.0, 1.0, 0.6, 1.2
        g = ProductField(left=Gaussian(center=(c1,), width=w1),
                         right=Gaussian(center=(c2,), width=w2)).heat_factors[0]
        w = (w1**-2 + w2**-2) ** -0.5
        c = (c1 / w1**2 + c2 / w2**2) * w**2
        merged = Gaussian(center=(c,), width=w,
                          amplitude=math.exp(-math.pi * (c1 - c2) ** 2 / (w1**2 + w2**2)))
        x, t = np.linspace(-3.0, 3.5, 14), np.geomspace(1e-6, 1e12, 40)
        G, dG, _ = g.heat(x, t)
        ref, dref, _ = merged.heat_factors[0].heat(x, t)
        assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(dG - dref)) <= 1e-13 * np.max(np.abs(dref))
        y = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_allclose(g(y), merged.heat_factors[0](y), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(g.deriv(y), merged.heat_factors[0].deriv(y),
                                   rtol=1e-13, atol=1e-15)

    def test_scaled_factor_scales_the_convolutions(self):
        base = SmoothBump(center=(0.1, -0.2), width=(0.7, 1.3))
        g, h = ScaledField(base=base, factor=-2.5).heat_factors
        assert h is base.heat_factors[1]
        x, t = np.array([-0.5, 0.1, 0.9]), np.geomspace(1e-3, 1e9, 13)
        for check in (False, True):
            G, dG, samples = g.heat(x, t, check)
            ref, dref, ref_samples = base.heat_factors[0].heat(x, t, check)
            assert np.array_equal(G, -2.5 * ref) and np.array_equal(dG, -2.5 * dref)
            assert samples == ref_samples


def _mp_factor(kind, c, w, k=1.0):
    """k exp(-pi (y - c)^2 / w^2) or k times the bump of center c and width w,
    in mpmath."""
    mp = pytest.importorskip("mpmath")

    def gaussian(y):
        return k * mp.exp(-mp.pi * (y - c) ** 2 / mp.mpf(w) ** 2)

    def bump(y):
        u = (y - c) / mp.mpf(w)
        return k * mp.exp(1 - 1 / (1 - u * u)) if abs(u) < 1 else mp.mpf(0)

    return gaussian if kind == "gaussian" else bump


class TestFactorSecondDerivatives:
    """``deriv2`` of every kind of heat factor against mpmath's derivative of
    the factor's formula.  A value test cannot see a wrong second
    derivative: a negated Gaussian one moved the n = 1 Laplacian at order
    0.5 by 1.2e-10, and a product's without its 2 l'r' term moved one at
    order 0.75 by 5.4e-9, still converged."""

    Y = np.linspace(-1.5, 1.5, 61)
    # (field, axis, factor kind, the factor as a product of mpmath formulas)
    CASES = [
        (Gaussian(center=(0.3, -0.2), width=0.8), 1, _GaussianAxis,
         [("gaussian", -0.2, 0.8)]),
        (Gaussian(center=(0.3,), width=0.8, amplitude=-1.7), 0, _ScaledAxis,
         [("gaussian", 0.3, 0.8, -1.7)]),
        (SmoothBump(center=(0.1,), width=0.7), 0, _BumpAxis, [("bump", 0.1, 0.7)]),
        (ScaledField(base=SmoothBump(center=(0.1,), width=0.7), factor=-2.5), 0, _ScaledAxis,
         [("bump", 0.1, 0.7, -2.5)]),
        # two Gaussians merge into one scaled Gaussian (``_gaussian_product``)
        (ProductField(left=Gaussian(center=(0.0,), width=1.0),
                      right=Gaussian(center=(0.6,), width=1.2)), 0, _ScaledAxis,
         [("gaussian", 0.0, 1.0), ("gaussian", 0.6, 1.2)]),
        (ProductField(left=Gaussian(center=(0.5,), width=0.9),
                      right=SmoothBump(center=(0.1,), width=0.7)), 0, _ProductAxis,
         [("gaussian", 0.5, 0.9), ("bump", 0.1, 0.7)]),
        (ProductField(left=SmoothBump(center=(-0.2,), width=1.0),
                      right=ScaledField(base=SmoothBump(center=(0.3,), width=0.8),
                                        factor=1.5)), 0, _ProductAxis,
         [("bump", -0.2, 1.0), ("bump", 0.3, 0.8, 1.5)]),
    ]
    IDS = ["gaussian", "gaussian-amplitude", "bump", "scaled-bump", "gaussian-product",
           "product", "bump-product"]

    @pytest.mark.parametrize("field, axis, kind, formula", CASES, ids=IDS)
    def test_against_mpmath(self, field, axis, kind, formula):
        mp = pytest.importorskip("mpmath")
        g = field.heat_factors[axis]
        assert isinstance(g, kind)
        parts = [_mp_factor(*p) for p in formula]

        def ref_fn(y):
            return mp.fprod(p(y) for p in parts)

        with mp.workdps(40):
            ref2 = np.array([float(mp.diff(ref_fn, mp.mpf(y), 2)) for y in self.Y])
            ref1 = np.array([float(mp.diff(ref_fn, mp.mpf(y), 1)) for y in self.Y])
        assert np.max(np.abs(g.deriv2(self.Y) - ref2)) <= 1e-12 * np.max(np.abs(ref2))
        assert np.max(np.abs(g.deriv(self.Y) - ref1)) <= 1e-12 * np.max(np.abs(ref1))

    @pytest.mark.parametrize("field, axis", [c[:2] for c in CASES], ids=IDS)
    def test_nan_propagates(self, field, axis):
        got = field.heat_factors[axis].deriv2(np.array([math.nan, 0.25]))
        assert np.isnan(got[0]) and np.isfinite(got[1])


class TestAsPoints:
    @pytest.mark.parametrize("x, dim", [
        (math.nan, 1), ((0.0, math.inf), 2), (np.array([[0.0, 0.0, -math.inf]]), 3),
    ])
    def test_non_finite_raises(self, x, dim):
        with pytest.raises(ValueError, match="finite"):
            as_points(x, dim)

    def test_no_points(self):
        assert as_points(np.empty((0, 3)), 3).shape == (0, 3)
        assert as_points([], 1).shape == (0, 1)


class TestMagicCube:
    def test_closed_form_vs_defining_integrals_1d(self):
        # exterior: nu(1,1-a) int_(-1,1) |y-x|^(a-2) dy; interior: the
        # complement integral; the closed form must agree with quadrature
        a = 0.5
        f = MagicCube(alpha=a, ndim=1)
        c = nu(1, 1.0 - a)
        for x in (1.5, 2.5, -3.0):
            quad = integrate_1d(
                lambda y: np.abs(y - x) ** (a - 2.0), -1.0, 1.0,
                spec=QuadSpec(rel_tol=1e-11),
            ).value
            assert feval(f, x) == pytest.approx(c * quad, rel=1e-9)
        for x in (0.0, 0.6):
            quad = integrate_1d(
                lambda y: np.abs(y - x) ** (a - 2.0), 1.0, math.inf,
                singularities=[(math.inf, 2.0 - a)], spec=QuadSpec(rel_tol=1e-11),
            ).value
            quad += integrate_1d(
                lambda y: np.abs(y - x) ** (a - 2.0), -math.inf, -1.0,
                singularities=[(-math.inf, 2.0 - a)], spec=QuadSpec(rel_tol=1e-11),
            ).value
            assert feval(f, x) == pytest.approx(-c * quad, rel=1e-9)

    def test_frozen_exterior_value(self):
        f = MagicCube(alpha=0.5, ndim=1)
        assert feval(f, 1.5) == pytest.approx(-0.31187633134574028, rel=1e-11)

    def test_negative_tail_to_zero_from_below(self):
        f = MagicCube(alpha=0.5, ndim=1)
        vals = [feval(f, x) for x in (2.0, 5.0, 20.0, 200.0)]
        assert all(v < 0.0 for v in vals)
        assert all(abs(b) < abs(a) for a, b in zip(vals, vals[1:]))

    def test_positive_inside_negative_outside_2d(self):
        f = MagicCube(alpha=0.5, ndim=2)
        assert feval(f, (0.0, 0.0)) > 0.0
        assert feval(f, (1.2, 0.3)) < 0.0

    def test_boundary_is_singular(self):
        f = MagicCube(alpha=0.5, ndim=1)
        with pytest.raises(SingularPointError):
            feval(f, 1.0)


_BUMP1 = SmoothBump(center=(0.0,), width=1.0)
_BUMP2 = SmoothBump(center=(0.0, 0.0), width=1.0)
_GAUSS1 = Gaussian(center=(0.0,), width=1.0)
_ATOMS = SignedMeasure(atoms=(((0.0,), (1.0,)), ((1.0,), (-1.0,))))


class TestDAlphaMeasure:
    def test_f_alpha_atom_pair(self):
        m = d_alpha_measure(FAlpha(alpha=0.5), 0.5)
        assert m.density is None
        assert m.atoms == (((0.0,), (1.0,)), ((1.0,), (-1.0,)))
        assert m.total_atomic_variation == pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_smooth_field_density_pairing(self, alpha):
        """The density pairing int phi grad_a f against phi times the pointwise
        adaptive gradient."""
        from fracvar.operators import frac_gradient

        f = Gaussian(center=(0.3,), width=1.0)
        phi = SmoothBump(center=(-0.2,), width=1.5)
        m = d_alpha_measure(f, alpha)
        assert m.atoms == () and m.density == (f, alpha)
        (lo,), (hi,) = phi.support_box

        def pointwise(xs):
            return phi.values(xs[:, None]) * np.array([frac_gradient(f, alpha, x)[0] for x in xs])

        ref = integrate_1d(pointwise, float(lo), float(hi),
                           spec=QuadSpec(rel_tol=1e-10, abs_tol=1e-13)).require()
        assert m.pair(VectorField(components=(phi,))) == pytest.approx(ref, rel=1e-8)

    def test_order_grid_density_pairs_each_order(self):
        """A density held with an order grid pairs to one value per order,
        each the one-order pairing up to the batch gradient's rounding."""
        f = Gaussian(center=(0.3,), width=1.0)
        phi = VectorField(components=(SmoothBump(center=(-0.2,), width=1.5),))
        orders = (0.25, 0.5, 0.75)
        got = d_alpha_measure(f, orders).pair(phi)
        assert got.shape == (3,)
        for a, value in zip(orders, got.tolist()):
            assert value == pytest.approx(d_alpha_measure(f, a).pair(phi), rel=1e-14, abs=0.0)

    # at 5.0 phi vanishes at both atoms, and phi(1) - phi(0) is +0.0
    @pytest.mark.parametrize("center", [0.0, 1.0, 5.0])
    def test_atom_pairing_is_phi1_minus_phi0_bit_for_bit(self, center):
        phi = SmoothBump(center=(center,), width=0.8)
        got = 0.0 - d_alpha_measure(FAlpha(alpha=0.5), 0.5).pair(VectorField(components=(phi,)))
        want = feval(phi, 1.0) - feval(phi, 0.0)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_magic_cube_1d_atoms(self):
        m = d_alpha_measure(MagicCube(alpha=0.5, ndim=1), 0.5)
        assert m.atoms == (((-1.0,), (1.0,)), ((1.0,), (-1.0,)))

    def test_magic_cube_2d_unsupported(self):
        with pytest.raises(UnsupportedFieldError):
            d_alpha_measure(MagicCube(alpha=0.5, ndim=2), 0.5)

    @pytest.mark.parametrize("field, alpha, error", [
        (FAlpha(alpha=0.5), 0.25, UnsupportedFieldError),
        (IntervalIndicator(), 0.5, UnsupportedFieldError),
        (FAlpha(alpha=0.5), math.nan, UnsupportedFieldError),
        (MagicCube(alpha=0.5, ndim=1), math.nan, UnsupportedFieldError),
        (_GAUSS1, math.nan, ValueError),
        (_GAUSS1, math.inf, ValueError),
        (_GAUSS1, 0.0, ValueError),
        (_GAUSS1, 1.0, ValueError),
        (_BUMP1, -0.5, ValueError),
        (_GAUSS1, (0.5, 1.0), ValueError),
        (_GAUSS1, (), ValueError),
    ], ids=["f_alpha_other_order", "indicator", "f_alpha_nan", "magic_cube_nan", "density_nan",
            "density_inf", "density_0", "density_1", "density_negative", "density_grid_1",
            "density_grid_empty"])
    def test_order_mismatch_and_unknown_fields(self, field, alpha, error):
        with pytest.raises(error, match="order|not identified"):
            d_alpha_measure(field, alpha)

    @pytest.mark.parametrize("make, error, match", [
        (lambda: SignedMeasure(atoms=(((0.0,), (1.0,)), ((0.0,), (2.0,)))), ValueError,
         "distinct"),
        (lambda: SignedMeasure(atoms=(((0.0,), (1.0, 2.0)),)), ValueError, "dimension"),
        (lambda: SignedMeasure(atoms=(((0.0,), (math.nan,)),)), ValueError, "finite"),
        (lambda: SignedMeasure(atoms=(((math.inf,), (1.0,)),)), ValueError, "finite"),
        (lambda: SignedMeasure(atoms=(((0.0,), (1.0,)), ((0.0, 1.0), (1.0, 0.0)))), ValueError,
         "dimension"),
        (lambda: SignedMeasure(atoms=(((0.0, 1.0), (1.0, 0.0)),), density=(_BUMP1, 0.5)),
         ValueError, "dimension"),
        # a test field of another dimension, with too few components, or no VectorField
        (lambda: _ATOMS.pair(VectorField(components=(_BUMP2, _BUMP2))), ValueError,
         "VectorField of n components"),
        (lambda: d_alpha_measure(_BUMP2, 0.5).pair(VectorField(components=(_BUMP2,))),
         ValueError, "VectorField of n components"),
        (lambda: _ATOMS.pair(_BUMP1), ValueError, "VectorField of n components"),
        # a test field without compact support
        (lambda: _ATOMS.pair(VectorField(components=(_GAUSS1,))), UnsupportedFieldError,
         "compact support"),
        (lambda: d_alpha_measure(_GAUSS1, 0.5).pair(VectorField(components=(_GAUSS1,))),
         UnsupportedFieldError, "compact support"),
        # a test field that jumps at the atoms
        (lambda: _ATOMS.pair(VectorField(components=(IntervalIndicator(a=0.0, b=1.0),))),
         UnsupportedFieldError, "smooth"),
        # the density pairing is implemented in n = 1 only
        (lambda: d_alpha_measure(_BUMP2, 0.5).pair(VectorField(components=(_BUMP2, _BUMP2))),
         UnsupportedFieldError, "n = 1"),
    ], ids=["duplicate_point", "weight_length", "nan_weight", "inf_point", "mixed_dims",
            "density_dim", "phi_dim", "phi_components", "phi_scalar", "phi_unbounded_atoms",
            "phi_unbounded_density", "phi_jump", "density_2d"])
    def test_signed_measure_validation(self, make, error, match):
        with pytest.raises(error, match=match):
            make()


class TestTestFamilyFields:
    def test_plateau_shape(self):
        p = OddPlateau(span=5.0, core=0.35, edge=0.8)
        xs = np.linspace(-6.0, 6.0, 201)[:, None]
        v = p.values(xs)
        assert np.max(np.abs(v)) <= 1.0
        assert feval(p, 2.0) > 0.9
        assert feval(p, -2.0) < -0.9
        assert feval(p, 5.5) == 0.0

    def test_pair_shape(self):
        q = OddBumpPair(offset=1.0, scale=0.5)
        assert feval(q, 1.0) == pytest.approx(1.0)
        assert feval(q, -1.0) == pytest.approx(-1.0)
        assert feval(q, 3.0) == 0.0


def _parity_fields():
    from fracvar.operators import default_test_family

    family = [phi.components[0] for phi in default_test_family()]
    return [f for f in family if isinstance(f, (OddBumpPair, OddPlateau))] + [
        SmoothBump(center=(0.0,), width=1.0), SmoothBump(center=(0.0,), width=0.7)]


class TestParity:
    @pytest.mark.parametrize("f", _parity_fields(), ids=repr)
    def test_mirror_is_exact(self, f):
        # on [0, hi] and past it, with the support edge hi, its neighbours
        # one ulp away and random points; equal as floats (a zero may
        # differ in sign)
        assert f.parity == (1 if isinstance(f, SmoothBump) else -1)
        hi = float(f.support_box[1][0])
        rng = np.random.default_rng(3)
        x = np.concatenate([np.linspace(0.0, 1.5 * hi, 3001), rng.uniform(0.0, hi, 2000),
                            np.nextafter(hi, [0.0, 2.0 * hi])])[:, None]
        assert np.array_equal(f.values(-x), f.parity * f.values(x))

    @pytest.mark.parametrize("f", [
        SmoothBump(center=(0.3,)), SmoothBump(center=(0.0, 0.5)), Gaussian(center=(0.0,)),
        IntervalIndicator(a=-1.0, b=1.0), ScaledField(base=OddBumpPair(), factor=2.0),
    ], ids=repr)
    def test_other_fields_report_none(self, f):
        assert f.parity == 0


class TestJson:
    @pytest.mark.parametrize(
        "desc,kind",
        [
            ('{"kind":"f_alpha","alpha":0.5}', FAlpha),
            ('{"kind":"gaussian","center":[0],"width":1,"dim":1}', Gaussian),
            ('{"kind":"smooth_bump","center":[0.1,0.2],"width":[1,2],"dim":2}', SmoothBump),
            ('{"kind":"interval_indicator","a":-1,"b":1}', IntervalIndicator),
            ('{"kind":"cube_indicator","dim":2}', CubeIndicator),
            ('{"kind":"half_space_indicator","nu":[3,4],"x0":[0,0]}', HalfSpaceIndicator),
            ('{"kind":"magic_cube","alpha":0.5,"dim":1}', MagicCube),
        ],
    )
    def test_descriptors(self, desc, kind):
        f = field_from_json(desc)
        assert isinstance(f, kind)

    def test_halfspace_descriptor_normalizes(self):
        f = field_from_json('{"kind":"half_space_indicator","nu":[3,4]}')
        assert np.linalg.norm(f.halfspace.nu) == pytest.approx(1.0, abs=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            field_from_json('{"kind":"polynomial"}')


def test_vector_field_dim_consistency():
    with pytest.raises(ValueError):
        VectorField(components=(Gaussian(center=(0.0,)), Gaussian(center=(0.0, 0.0))))
