"""Quadrature engine: declared singularities, tails, angular profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvar.constants import gamma
from fracvar.quadrature import (
    NonIntegrableSingularityError,
    OffsetIntegrand,
    QuadratureBudgetError,
    QuadResult,
    QuadSpec,
    _NODES,
    _W_G,
    _W_K,
    _adaptive,
    _adaptive_batch,
    _gk15,
    _panel_error,
    _Counter,
    _segment,
    angular_profile,
    default_spec,
    gauss_hermite,
    gauss_legendre,
    gauss_legendre_panels,
    integrate_1d,
    integrate_core,
    integrate_many,
    log_trapezoid,
)


class TestIntegrate1d:
    def test_sqrt_singularity(self):
        # antiderivative 2 sqrt(x)
        res = integrate_1d(lambda x: x**-0.5, 0.0, 1.0, singularities=[(0.0, -0.5)])
        assert res.converged
        assert res.value == pytest.approx(2.0, abs=1e-10)
        assert res.err_estimate >= abs(res.value - 2.0)

    def test_algebraic_tail(self):
        # substitution u = 1 + rho^2 gives 1/alpha
        a = 0.5
        res = integrate_1d(
            lambda x: x * (1.0 + x * x) ** (-(2.0 + a) / 2.0),
            0.0, math.inf, singularities=[(math.inf, 1.0 + a)],
        )
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-10)
        assert res.err_estimate >= abs(res.value - 2.0)

    def test_arcsin_weight(self):
        # both endpoints singular: read from the exact offsets the weight
        # gives pi to rounding; computed from s, offsets below one ulp of
        # +/-1 read as 0, the panels next to the poles are infinite at every
        # node, and their unknown mass (2.3e-8) keeps the integral from
        # converging instead of going unreported
        sings = [(-1.0, -0.5), (1.0, -0.5)]
        res = integrate_1d(OffsetIntegrand(lambda s, dx: (-dx(1.0) * dx(-1.0)) ** -0.5),
                           -1.0, 1.0, singularities=sings)
        assert res.converged
        assert abs(res.value - math.pi) <= 1e-13
        plain = integrate_1d(lambda s: ((1.0 - s) * (1.0 + s)) ** -0.5, -1.0, 1.0,
                             singularities=sings)
        assert not plain.converged
        assert plain.err_estimate == math.inf

    @pytest.mark.parametrize("f", [
        lambda x: np.full_like(x, np.nan),
        lambda x: np.where(x < 0.5, np.nan, 1.0),
    ], ids=["all-nan", "half-nan"])
    def test_panel_without_a_finite_value_never_converges(self, f):
        # a panel of NaNs used to be read as 0 with error 0
        res = integrate_1d(f, 0.0, 1.0)
        assert not res.converged
        assert res.err_estimate == math.inf

    def test_interior_singularity(self):
        for a in (0.1, 0.5, 0.9):
            res = integrate_1d(
                lambda x: np.abs(x) ** -a, -1.0, 1.0, singularities=[(0.0, -a)]
            )
            exact = 2.0 / (1.0 - a)
            assert res.converged
            assert res.value == pytest.approx(exact, rel=1e-10)
            assert res.err_estimate >= abs(res.value - exact)

    def test_offset_integrand_away_from_origin(self):
        # int |x - p|^-0.9 over one unit beside p = 1.7 is 10; through a
        # rounded x the offset is lost below one ulp of p, the exact one is not
        p = 1.7
        f = OffsetIntegrand(lambda x, dx: np.abs(dx(p)) ** -0.9)
        for a, b in ((p, p + 1.0), (p - 1.0, p)):
            res = integrate_1d(f, a, b, singularities=[(p, -0.9)])
            assert res.converged
            assert res.value == pytest.approx(10.0, rel=1e-12)

    def test_offset_integrand_called_plainly(self):
        f = OffsetIntegrand(lambda x, dx: dx(0.25))
        assert np.array_equal(f(np.array([1.0, -2.0])), np.array([0.75, -2.25]))

    def test_two_sided_tails(self):
        res = integrate_1d(
            lambda x: 1.0 / (1.0 + x * x), -math.inf, math.inf,
            singularities=[(-math.inf, 2.0), (math.inf, 2.0)],
        )
        assert res.value == pytest.approx(math.pi, rel=1e-9)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling(self, lam):
        base = integrate_1d(lambda x: np.sin(x) + 2.0, 0.0, 3.0)
        scaled = integrate_1d(lambda x: lam * (np.sin(x) + 2.0), 0.0, 3.0)
        assert scaled.value == pytest.approx(lam * base.value, rel=1e-14, abs=1e-13)

    def test_determinism(self):
        args = dict(a=-1.0, b=1.0, singularities=[(0.0, -0.5)])
        r1 = integrate_1d(lambda x: np.abs(x) ** -0.5, **args)
        r2 = integrate_1d(lambda x: np.abs(x) ** -0.5, **args)
        assert r1 == r2

    def test_non_integrable_exponent_raises(self):
        with pytest.raises(NonIntegrableSingularityError):
            integrate_1d(lambda x: np.abs(x) ** -1.2, -1.0, 1.0,
                         singularities=[(0.0, -1.2)])

    def test_missing_tail_declaration_raises(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: np.exp(-x), 0.0, math.inf)

    def test_vector_integrand_is_refused(self):
        # it returned component 0, judged converged on both components
        with pytest.raises(ValueError, match="2 values per point; use integrate_core"):
            integrate_1d(lambda x: np.stack([x, x**2], 1), 0.0, 1.0)
        # one value per point, as a column, is a scalar integrand
        col = integrate_1d(lambda x: (x**2)[:, None], 0.0, 1.0)
        assert col.value == integrate_1d(lambda x: x**2, 0.0, 1.0).value

    def test_budget_flag(self):
        spec = QuadSpec(rel_tol=1e-14, abs_tol=1e-16, max_evals=100)
        res = integrate_1d(lambda x: np.abs(x) ** -0.9, 0.0, 1.0,
                           singularities=[(0.0, -0.9)], spec=spec)
        assert res.evals_used >= 100 or res.converged is False or res.converged

    def test_gamma_radial_family(self):
        # quadrature matches the Gamma-function reduction for several (n, a)
        for n, a in [(2, 0.25), (3, 0.5), (4, 0.5), (5, 0.3)]:
            res = integrate_1d(
                lambda x: x ** (n - 2) * (1.0 + x * x) ** (-(n + a - 1.0) / 2.0),
                0.0, math.inf, singularities=[(math.inf, 1.0 + a)],
            )
            ref = gamma(a / 2.0) * gamma((n - 1.0) / 2.0) / (2.0 * gamma((n + a - 1.0) / 2.0))
            assert res.value == pytest.approx(ref, rel=1e-10)

    def test_near_field_tensor_identity(self):
        # int_{B_delta} z^2 / |z|^(n + a + 1) dz = omega_n delta^(1-a)/(1-a)
        # with n = 1, a = 1/2, delta = 1 this is 4 (radial antiderivative)
        res = integrate_1d(lambda z: np.abs(z) ** 2 * np.abs(z) ** -2.5, -1.0, 1.0,
                           singularities=[(0.0, -0.5)])
        assert res.value == pytest.approx(4.0, rel=1e-10)

    def test_complement_of_an_interval(self):
        # int_{|z| > 1} |z|^-(1 + 1/2) dz = 2 / (1/2) = 4, one tail per side
        def f(z):
            return np.abs(z) ** -1.5

        res = (integrate_1d(f, -math.inf, -1.0, singularities=[(-math.inf, 1.5)])
               + integrate_1d(f, 1.0, math.inf, singularities=[(math.inf, 1.5)]))
        assert res.converged
        assert res.value == pytest.approx(4.0, rel=1e-8)
        assert res.err_estimate >= abs(res.value - 4.0)

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (1.0, 0.0), (math.nan, 1.0), (0.0, math.nan)])
    def test_bounds_must_be_ordered(self, a, b):
        # an empty, reversed or NaN range is refused, not integrated to a
        # value flagged converged
        with pytest.raises(ValueError, match="need a < b"):
            integrate_1d(lambda x: np.ones_like(x), a, b)


def _lockstep_family(J: int = 60, seed: int = 3):
    """Intervals [a, b] with one of three integrands each: smooth, kinked
    |c - f(y)| |y - x0|^(-1-a) (f a Gaussian, x0 just left of a), and
    near-singular |y - x0|^(-1-a)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 1.0, J)
    b = a + rng.uniform(1e-3, 3.0, J)
    kind = np.arange(J) % 3
    x0 = a - 10.0 ** rng.uniform(-10.0, -1.0, J)
    c = rng.uniform(0.2, 0.9, J)
    p = -1.0 - rng.uniform(0.1, 0.9, J)

    def g(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        k, x0o, co, po = kind[owner][:, None], x0[owner][:, None], c[owner][:, None], p[owner][:, None]
        return np.select(
            [k == 0, k == 1],
            [np.cos(3.0 * x) * np.exp(x), np.abs(co - np.exp(-x * x)) * np.abs(x - x0o) ** po],
            np.abs(x - x0o) ** po,
        )

    def scalar(j: int):
        return lambda x: g(x[None, :], np.array([j]))[0]

    return a, b, g, scalar


class TestAdaptiveBatch:
    def test_bit_identical_to_scalar_adaptive(self):
        a, b, g, scalar = _lockstep_family()
        value, err, conv, evals = _adaptive_batch(g, a, b, 1e-9, 1e-12, _Counter(10**8))
        for j in range(a.size):
            counter = _Counter(10**8)
            v, e, c = _adaptive(scalar(j), a[j], b[j], 1e-9, 1e-12, counter)
            assert (value[j], err[j], conv[j], evals[j]) == (v[0], e, c, counter.used), j

        # k-vector values and a tolerance per integral: each integral bisects
        # on the max-norm of its vector as the scalar routine does
        abs_tol = 10.0 ** -np.arange(10, 13).repeat(a.size // 3)

        def gv(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
            v = g(x, owner)
            return np.stack([v, np.sin(x) * v, np.cos(3.0 * x)], axis=-1)

        value, err, conv, evals = _adaptive_batch(gv, a, b, 1e-9, abs_tol, _Counter(10**8))
        assert value.shape == (a.size, 3)
        for j in range(a.size):
            counter = _Counter(10**8)
            v, e, c = _adaptive(lambda x, j=j: gv(x[None, :], np.array([j]))[0], a[j], b[j],
                                1e-9, abs_tol[j], counter)
            assert value[j].tobytes() == v.tobytes(), j
            assert (err[j], conv[j], evals[j]) == (e, c, counter.used), j

    def test_budget_out_mid_round(self):
        a, b, g, scalar = _lockstep_family(J=40)
        # one first panel each, then 15 points more: the second round overruns
        counter = _Counter(15 * a.size + 15)
        value, err, conv, _ = _adaptive_batch(g, a, b, 1e-9, 1e-12, counter)
        assert counter.used > counter.budget
        one_panel = 0
        for j in range(a.size):
            ref = _Counter(10**8)
            v, e, c = _adaptive(scalar(j), a[j], b[j], 1e-9, 1e-12, ref)
            if ref.used == 15:  # settled by its first panel, before the budget ran out
                one_panel += 1
                assert (value[j], err[j], conv[j]) == (v[0], e, c)
            else:
                assert not conv[j]
        assert 0 < one_panel < a.size

    def test_one_call_per_bisection(self):
        # both halves of a bisection are one integrand call on 30 nodes, and
        # the counter is charged 15 per panel
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.abs(x - 0.3) ** -0.4 * np.cos(5.0 * x)

        counter = _Counter(10**6)
        _adaptive(f, -1.0, 2.0, 1e-10, 1e-14, counter)
        bisections = (counter.used // 15 - 1) // 2
        assert bisections > 10
        assert sizes == [15] + [30] * bisections
        assert counter.used == sum(sizes)

    def test_bisection_bit_identical_to_single_panels(self):
        # the stacked sums of both halves are bit for bit those of one call
        # per panel, for an elementwise integrand with vector values
        def f(x):
            return np.stack([np.exp(np.sin(7.0 * x)), x**3 - 1.0 / (1.0 + x * x)], axis=1)

        def one_panel(a, b):  # one call on the panel's 15 nodes
            half = 0.5 * (b - a)
            vals = f(0.5 * (a + b) + half * _NODES)
            resk = half * (_W_K @ vals)
            resasc = half * (_W_K @ np.abs(vals - resk / (b - a)))
            err = _panel_error(resk, half * (_W_G @ vals), half * (_W_K @ np.abs(vals)), resasc)
            return resk, float(np.max(err))

        for lo, hi in ((-1.3, 0.7), (2.0, 2.0 + 1e-9), (-40.0, 125.0)):
            mid = 0.5 * (lo + hi)
            (vl, vr), (el, er), _ = _gk15(f, np.array((lo, mid)), np.array((mid, hi)),
                                          _Counter(10**6))
            for (a, b), v, e in (((lo, mid), vl, el), ((mid, hi), vr, er)):
                ref, ref_err = one_panel(a, b)
                assert np.array_equal(v, ref) and e == ref_err

    def test_retired_error_stops_the_loop(self):
        # x0 sits 6.3e-13 left of the interval, so the panels next to it are
        # retired at the width floor with errors far above the tolerance;
        # bisecting the live ones cannot help, and the loop must stop there
        a, b, x0 = -1.727, 0.933, -1.727 - 6.3e-13

        def f(y):
            return np.abs(0.5 - np.exp(-y * y)) * np.abs(y - x0) ** -1.46

        counter = _Counter(10**6)
        _, err, conv = _adaptive(f, a, b, 1e-9, 1e-12, counter)
        assert not conv
        assert counter.used < 50_000


def _many_cases():
    """(f, range) pairs for ``integrate_many``: a finite range, a declared
    point inside, both ends declared (one mapped by t^2, numpy's squaring
    path), a tail each way and both, and a declared point next to a tail."""
    return [
        (lambda x: np.cos(3.0 * x) * np.exp(x), (-1.0, 2.0)),
        (lambda x: np.abs(x - 0.3) ** -0.4 * np.cos(x), (-1.0, 2.0, [(0.3, -0.4)])),
        (lambda x: np.abs(x) ** -0.5 * np.abs(1.0 - x) ** 0.5, (0.0, 1.0, [(0.0, -0.5),
                                                                         (1.0, 0.5)])),
        (lambda x: (1.0 + x * x) ** -1.25, (0.5, math.inf, [(math.inf, 2.5)])),
        (lambda x: (1.0 + x * x) ** -1.25, (-math.inf, -0.5, [(-math.inf, 2.5)])),
        (lambda x: 1.0 / (1.0 + x**4), (-math.inf, math.inf, [(math.inf, 4.0), (-math.inf, 4.0)])),
        (lambda x: np.exp(-x * x) * np.abs(x) ** -0.5, (-math.inf, 3.0, [(-math.inf, 6.0),
                                                                       (0.0, -0.5)])),
    ]


class TestIntegrateMany:
    @staticmethod
    def _same(got: QuadResult, ref: QuadResult) -> bool:
        return (got.value.tobytes() == ref.value.tobytes() and got.err_estimate == ref.err_estimate
                and got.converged == ref.converged and got.evals_used == ref.evals_used)

    def test_each_range_bit_for_bit_integrate_core(self):
        cases = _many_cases()

        def f(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
            out = np.empty(x.size)
            for k, (fk, _) in enumerate(cases):
                sel = owner == k
                out[sel] = fk(x[sel])
            return out

        spec = QuadSpec(rel_tol=1e-10, abs_tol=1e-13)
        results = integrate_many(f, [r for _, r in cases], spec)
        for (fk, r), got in zip(cases, results):
            ref = integrate_core(fk, *r[:2], r[2] if len(r) > 2 else (), spec)
            assert got.converged and self._same(got, ref), r

    def test_offset_integrand_at_its_declared_points(self):
        # the kernel |x - c|^-0.9 read through the exact offset from each
        # range's own c, with 2-vector values
        centers = np.array([1.0, 0.3, -1.0, 1e8])
        weights = np.array([1.0, -2.0])

        def fn(x, dx, owner):
            return (np.abs(dx(centers[owner])) ** -0.9 * np.exp(-x * x))[:, None] * weights

        ranges = [(-1.0, 1.0, [(c, -0.9)]) for c in centers[:3]] + [(1e8 - 1.0, 1e8,
                                                                      [(1e8, -0.9)])]
        results = integrate_many(OffsetIntegrand(fn), ranges)
        for c, r, got in zip(centers.tolist(), ranges, results):
            alone = integrate_core(OffsetIntegrand(
                lambda x, dx, c=c: (np.abs(dx(c)) ** -0.9 * np.exp(-x * x))[:, None] * weights), *r)
            assert got.value.shape == (2,)
            assert got.converged and self._same(got, alone), c

    def test_unconverged_range_is_flagged(self):
        # 100 evaluations cannot resolve the oscillating range; the smooth one
        # settles within them, bit for bit as alone
        spec = QuadSpec(max_evals=100)
        ranges = [(0.0, 1.0), (0.0, 50.0)]

        def f(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
            return np.where(owner == 0, np.exp(x), np.sin(x * x))

        smooth, wild = integrate_many(f, ranges, spec)
        assert smooth.converged
        assert self._same(smooth, integrate_core(np.exp, 0.0, 1.0, spec=spec))
        assert not wild.converged
        assert wild.evals_used > spec.max_evals
        with pytest.raises(QuadratureBudgetError):
            wild.require("wild range")
        assert not integrate_core(lambda x: np.sin(x * x), 0.0, 50.0, spec=spec).converged

    def test_bad_ranges_are_refused(self):
        with pytest.raises(ValueError, match="need a < b"):
            integrate_many(lambda x, owner: x, [(0.0, 1.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match="tail exponent"):
            integrate_many(lambda x, owner: x, [(0.0, math.inf)])


class TestQuadResult:
    def test_sum_adds_values_and_errors_and_ands_flags(self):
        a = QuadResult(np.array([1.0, -2.0]), 0.25, 30, True)
        b = QuadResult(np.array([0.5, 4.0]), 0.5, 45, False)
        s = a + b
        assert np.array_equal(s.value, [1.5, 2.0])
        assert s.err_estimate == 0.75
        assert s.evals_used == 45
        assert s.converged is False
        assert (a + a).converged is True

    def test_sum_counts_shared_evaluations_once(self):
        counter = _Counter(10**6)
        left = _segment(np.cos, 0.0, 1.0, None, None, 1e-10, 1e-13, counter)
        right = _segment(np.exp, 1.0, 2.0, None, None, 1e-10, 1e-13, counter)
        total = left + right
        assert 0 < left.evals_used < right.evals_used == counter.used
        assert total.evals_used == counter.used
        assert total.converged
        assert total.value[0] == pytest.approx(math.sin(1.0) + math.e**2 - math.e, rel=1e-12)

    def test_require_names_the_quantity(self):
        assert QuadResult(2.0, 0.0, 1, True).require("area") == 2.0
        # an array of estimates is reported by its largest entry
        with pytest.raises(QuadratureBudgetError,
                           match=r"^area did not converge \(err ~ 3\.0+e-01"):
            QuadResult(2.0, np.array([0.1, 0.3]), 7, False).require("area")


class TestAngularProfile:
    def _narrow(self, p: np.ndarray) -> np.ndarray:
        return np.exp(-1e4 * np.sum((p - 0.4) ** 2, axis=1))

    @pytest.mark.parametrize("n, area", [(2, 2.0 * math.pi), (3, 4.0 * math.pi)])
    def test_sphere_area(self, n, area):
        res = angular_profile(lambda p: np.ones(p.shape[0]), np.zeros(n), [0.5, 2.0], n, 1e-12,
                              _Counter(10**6))
        assert res.converged
        assert np.allclose(res.value, area, rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_stops_before_a_level_past_the_budget(self, n):
        # a narrow peak off the center needs the finest levels; the budget
        # admits only a few, and no level is evaluated past it (the open
        # radii of the circle meet 1e-10 within 8,480 evaluations)
        r = np.linspace(0.5, 0.8, 15)
        counter = _Counter(5_000 if n == 2 else 20_000)
        res = angular_profile(self._narrow, np.zeros(n), r, n, 1e-10, counter, moments=True)
        assert not res.converged
        assert res.value.shape == (15, n)
        assert 0 < counter.used <= counter.budget
        assert res.evals_used == counter.used

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_radius_refines_on_its_own(self, n):
        # radii through a peak need finer levels than the others: the batch
        # gives each radius its own profile and spends the sum of their
        # evaluations
        def peak(p):
            return np.exp(-300.0 * np.sum((p - 0.4) ** 2, axis=1))

        r = np.array([0.1, 0.4 * math.sqrt(n), 0.4 * math.sqrt(n) + 0.1, 1.5])
        res = angular_profile(peak, np.zeros(n), r, n, 1e-8, _Counter(10**7), moments=True)
        alone = [angular_profile(peak, np.zeros(n), [ri], n, 1e-8, _Counter(10**7), moments=True)
                 for ri in r]
        assert res.converged and all(a.converged for a in alone)
        # the sphere sums are matrix products, which may round differently
        # with the number of rows
        np.testing.assert_allclose(res.value, np.concatenate([a.value for a in alone]),
                                   rtol=1e-14, atol=1e-16)
        assert res.err_estimate == pytest.approx(max(a.err_estimate for a in alone), abs=1e-16)
        assert res.evals_used == sum(a.evals_used for a in alone)
        assert len({a.evals_used for a in alone}) > 1


class TestLogTrapezoid:
    @pytest.mark.parametrize("b", [0.5, 0.05, 0.005])
    def test_estimate_covers_small_t_mass(self, b):
        # int_0^inf t^(b-1) e^-t dt = Gamma(b); at b = 0.005 the mass sits
        # at t < e^-700, below the grid, and must show in the estimate
        spec = QuadSpec(rel_tol=1e-8, abs_tol=1e-12)

        def F(t, check):
            return np.exp(-t)[:, None]

        res = log_trapezoid(F, b, np.zeros(1), 1.0, b, 1.0, 1.0, spec, _Counter(spec.max_evals))
        assert abs(res.value[0] - gamma(b)) <= res.err_estimate[0]
        assert res.converged == (b >= 0.05)


class TestQuadSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadSpec(max_evals=10)

    @pytest.mark.parametrize("kw", [
        {"rel_tol": math.inf}, {"abs_tol": math.inf}, {"abs_tol": math.nan},
        {"max_evals": math.nan}, {"max_evals": math.inf},
    ])
    def test_non_finite_values_rejected(self, kw):
        # rel_tol = inf let any first estimate count as converged
        with pytest.raises(ValueError):
            QuadSpec(**kw)

    def test_converged_implies_within_tolerance(self):
        spec = QuadSpec(rel_tol=1e-6, abs_tol=1e-9)
        res = integrate_1d(lambda x: np.exp(-x * x), -3.0, 3.0, spec=spec)
        assert res.converged
        assert res.err_estimate <= max(spec.abs_tol, spec.rel_tol * abs(res.value))


class TestGaussRules:
    @pytest.mark.parametrize("order", [1, 4, 10])
    def test_legendre_degree_of_exactness(self, order):
        # exact for x^k up to k = 2 order - 1, not for x^(2 order)
        x, w = gauss_legendre(order)
        for k in range(2 * order):
            exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
            assert np.dot(w, x**k) == pytest.approx(exact, abs=1e-14)
        assert abs(np.dot(w, x ** (2 * order)) - 2.0 / (2 * order + 1)) > 1e-6

    def test_rules_are_cached_and_read_only(self):
        for rule in (gauss_legendre, gauss_hermite):
            assert rule(7) is rule(7)
            x, w = rule(7)
            with pytest.raises(ValueError):
                x[0] = 0.0
            with pytest.raises(ValueError):
                w[0] = 0.0

    @pytest.mark.parametrize("order", [3, 8])
    def test_hermite_moments(self, order):
        # int z^(2k) exp(-z^2) dz = Gamma(k + 1/2); odd moments vanish
        z, w = gauss_hermite(order)
        for k in range(order):
            assert np.dot(w, z ** (2 * k)) == pytest.approx(gamma(k + 0.5), rel=1e-13)
            assert np.dot(w, z ** (2 * k + 1)) == pytest.approx(0.0, abs=1e-13)

    def test_legendre_panels(self):
        # order nodes inside each panel, in panel order; exact for degree
        # 2 order - 1 over the union
        edges = [0.0, 0.5, 2.0, 3.0]
        x, w = gauss_legendre_panels(edges, 3)
        assert x.shape == w.shape == (9,)
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            assert np.all((lo < x[3 * i:3 * i + 3]) & (x[3 * i:3 * i + 3] < hi))
            assert w[3 * i:3 * i + 3].sum() == pytest.approx(hi - lo, rel=1e-14)
        assert np.dot(w, x**5) == pytest.approx(3.0**6 / 6.0, rel=1e-13)


class TestDefaultsAndOverrides:
    @pytest.mark.parametrize("n, rel_tol", [(1, 1e-8), (2, 1e-6), (3, 1e-5)])
    def test_default_spec_per_dimension(self, n, rel_tol):
        assert default_spec(n) == QuadSpec(rel_tol=rel_tol)

    def test_overrides_set_the_named_fields(self):
        spec = QuadSpec.from_overrides({"rel_tol": 1e-10, "max_evals": 500})
        assert spec == QuadSpec(rel_tol=1e-10, abs_tol=QuadSpec().abs_tol, max_evals=500)
        assert QuadSpec.from_overrides({}) == QuadSpec()

    @pytest.mark.parametrize("overrides, message", [
        ({"near_radius": 0.1}, "invalid quadrature overrides"),
        ({"rel_tol": -1.0}, "rel_tol and abs_tol must be positive"),
    ])
    def test_bad_overrides_raise_value_error(self, overrides, message):
        # an unknown field is a ValueError as a bad value is, so the command
        # line reports both as usage errors
        with pytest.raises(ValueError, match=message):
            QuadSpec.from_overrides(overrides)
