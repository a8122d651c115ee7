"""Operator quadratures against closed forms, oracles, and structural identities."""

import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from fracvar import operators as ops
from fracvar.constants import mu
from fracvar.fields import (
    CubeIndicator,
    FAlpha,
    Gaussian,
    HalfSpace,
    HalfSpaceIndicator,
    IntervalIndicator,
    OddBumpPair,
    OddPlateau,
    ProductField,
    ScalarField,
    ScaledField,
    SingularPointError,
    SmoothBump,
    UnsupportedFieldError,
    VectorField,
    _bump_1d,
    _bump_1d_d1,
    _bump_1d_d2,
)
from fracvar.quadrature import (QuadratureBudgetError, QuadSpec, _Counter, default_spec,
                               gauss_legendre_panels, integrate_1d)
from fracvar import suites
from fracvar.suites import DEFAULT_ALPHAS, run_suite


class TestFracGradient:
    def test_half_space_1d_closed_form(self):
        # gradient of the half-space indicator at unit distance: 2 mu(1, 1/2)
        hs = HalfSpaceIndicator(halfspace=HalfSpace.make((1.0,)))
        g = ops.frac_gradient(hs, 0.5, 1.0)
        assert g[0] == pytest.approx(0.3989422804014327, rel=1e-8)

    @pytest.mark.parametrize("field, x", [
        (IntervalIndicator(), 0.95),
        (IntervalIndicator(), 1.05),
        (HalfSpaceIndicator(halfspace=HalfSpace.make((1.0,))), 0.25),
    ])
    def test_indicator_budget_exhaustion(self, field, x):
        # the jump pieces of a 1-d indicator share one budget: starved, the
        # gradient reports converged=False, and the bare call raises
        starved = QuadSpec(max_evals=100)
        assert not ops.frac_gradient(field, 0.5, x, starved, detail=True).converged
        with pytest.raises(QuadratureBudgetError):
            ops.frac_gradient(field, 0.5, x, starved)

    def test_even_field_zero_at_center(self):
        g = ops.frac_gradient(Gaussian(center=(0.4,), width=1.0), 0.5, 0.4)
        assert abs(g[0]) < 1e-10

    def test_gaussian_vs_spectral_oracle(self):
        g = Gaussian(center=(0.0,), width=1.0)
        for x in (-1.3, 0.2, 0.7):
            quad = ops.frac_gradient(g, 0.5, x, QuadSpec(rel_tol=1e-9, abs_tol=1e-12))[0]
            spec = ops.spectral_gradient_1d(g, 0.5, x)
            assert quad == pytest.approx(spec, abs=1e-8)

    def test_translation_invariance(self):
        a, h = 0.5, 0.8
        g0 = Gaussian(center=(0.0,), width=1.0)
        gh = Gaussian(center=(h,), width=1.0)
        v0 = ops.frac_gradient(g0, a, 0.3)[0]
        vh = ops.frac_gradient(gh, a, 0.3 + h)[0]
        assert vh == pytest.approx(v0, rel=1e-8)

    def test_rigidity_sign_outside_support(self):
        # non-negative bump supported in (-L, L): the gradient is strictly
        # negative at every x >= L (the kernel factor y - x is negative there)
        f = SmoothBump(center=(0.0,), width=1.0)
        for x in np.linspace(1.0, 4.0, 7):
            assert ops.frac_gradient(f, 0.5, float(x))[0] < 0.0

    def test_alpha_range_enforced(self):
        f = Gaussian(center=(0.0,), width=1.0)
        with pytest.raises(ValueError):
            ops.frac_gradient(f, 0.99, 0.0)
        with pytest.raises(ValueError):
            ops.frac_gradient(f, 0.01, 0.0)

    def test_cube_gradient_2d_unsupported(self):
        from fracvar.fields import CubeIndicator

        with pytest.raises(UnsupportedFieldError):
            ops.frac_gradient(CubeIndicator(ndim=2), 0.5, (2.0, 0.0))

    def test_batch_matches_adaptive_1d(self):
        f = SmoothBump(center=(0.0,), width=1.0)
        xs = np.linspace(-2.5, 2.5, 11)
        batch = ops.frac_gradient_batch(f, 0.5, xs[:, None])[:, 0]
        point = np.array([ops.frac_gradient(f, 0.5, float(x))[0] for x in xs])
        assert np.max(np.abs(batch - point)) < 1e-7 * np.max(np.abs(point))

    def test_batch_matches_adaptive_2d(self):
        f = SmoothBump(center=(0.1, 0.2), width=(1.0, 1.3))
        P = np.array([[0.3, 0.1], [0.8, -0.4], [0.0, 1.1]])
        batch = ops.frac_gradient_batch(f, 0.5, P)
        point = np.array([ops.frac_gradient(f, 0.5, p) for p in P])
        assert np.max(np.abs(batch - point)) < 1e-5 * np.max(np.abs(point))

    def test_batch_scattered_2d_matches_pointwise(self):
        # scattered targets are no tensor grid, so they take the heat route
        # of frac_gradient
        f = SmoothBump(center=(0.1, 0.2), width=(1.0, 1.3))
        P = np.random.default_rng(7).uniform(-2.5, 2.5, (40, 2))
        batch = ops.frac_gradient_batch(f, 0.5, P)
        point = np.array([ops.frac_gradient(f, 0.5, p) for p in P])
        assert np.max(np.abs(batch - point)) <= 1e-12 * np.max(np.abs(point))

    def test_batch_tensor_grid_bit_identical_across_blas_threads(self):
        # the 70 x 70 grid of the ibp_2d case, where a threaded BLAS GEMM
        # rounded the sums over distinct coordinates differently
        code = (
            "import numpy as np\n"
            "from fracvar import operators as ops\n"
            "from fracvar.fields import SmoothBump\n"
            "f = SmoothBump(center=(-0.2, 0.15), width=(1.0, 1.4))\n"
            "u = np.linspace(-1.5, 1.7, 70)\n"
            "P = np.stack(np.meshgrid(u, u - 0.2, indexing='ij'), axis=-1).reshape(-1, 2)\n"
            "g = ops.frac_gradient_batch(f, 0.5, P)\n"
            "print(g.tobytes().hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, timeout=300)
            assert res.returncode == 0, res.stderr[-2000:]
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("op", [
        lambda f, P: ops.frac_gradient(f, 0.5, P[0]),
        lambda f, P: ops.frac_laplacian(f, 0.5, P[0]),
        lambda f, P: ops.frac_gradient_batch(f, 0.5, P),
    ], ids=["frac_gradient", "frac_laplacian", "frac_gradient_batch"])
    def test_unsupported_without_heat_factors(self, op, n):
        # in n >= 2 the gradient and the Laplacian of a smooth field go by
        # its heat_factors only; the wrapper hides the bump's
        f = _PlainField(SmoothBump(center=(0.0,) * n, width=1.0))
        P = np.array([[0.1, 0.2, 0.3], [5.0, 5.0, 5.0]])[:, :n]
        with pytest.raises(UnsupportedFieldError):
            op(f, P)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_batch_of_no_targets(self, n):
        f = SmoothBump(center=(0.0,) * n, width=1.0)
        out = ops.frac_gradient_batch(f, 0.5, np.empty((0, n)))
        assert out.shape == (0, n)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_non_finite_points_raise(self, n, bad):
        # a NaN target used to return zeros (reported as converged in n = 2)
        f = SmoothBump(center=(0.0,) * n, width=1.0)
        x = (bad,) + (0.0,) * (n - 1)
        with pytest.raises(ValueError, match="finite"):
            ops.frac_gradient(f, 0.5, x, detail=True)
        with pytest.raises(ValueError, match="finite"):
            ops.frac_gradient_batch(f, 0.5, np.array([(0.1,) * n, x]))

    def test_batch_n3_matches_pointwise(self):
        # a tensor grid (shared coordinates) plus scattered and far targets;
        # the 50 scattered ones give every axis many distinct coordinates,
        # inside and outside the support, so one heat call per factor mixes
        # all of its window regimes across targets
        f = SmoothBump(center=(0.1, -0.2, 0.0), width=(1.0, 1.3, 0.8))
        axes = (np.linspace(-1.0, 1.2, 3), np.linspace(-1.4, 1.0, 3), np.array([-0.5, 0.3]))
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        P = np.concatenate([grid, np.random.default_rng(3).uniform(-2.0, 2.0, (50, 3)),
                            [[4.0, -3.0, 2.5]]])
        lo, hi = f.support_box
        assert 10 <= np.sum(np.any((P <= lo) | (P >= hi), axis=1)) < P.shape[0] - 10
        batch = ops.frac_gradient_batch(f, 0.5, P)
        point = np.array([ops.frac_gradient(f, 0.5, p) for p in P])
        assert np.max(np.abs(batch - point)) <= 1e-12 * np.max(np.abs(point))

    @pytest.mark.parametrize("a, x", [(0.25, 0.8905), (0.5, 2.1748), (0.25, 0.5)])
    def test_f_alpha_gradient_vanishes_near_atoms(self, a, x):
        # d_a f_a = delta_0 - delta_1, so the gradient is 0 away from 0 and 1;
        # the annulus reads the field's offsets from 0 and 1 exactly, also
        # where a shell ends on one of them (x = 0.5)
        res = ops.frac_gradient(FAlpha(alpha=a), a, x, detail=True)
        assert res.converged
        assert abs(res.value[0]) <= 1e-12

    def test_bare_call_raises_when_not_converged(self):
        # close to the atom at 0 the shells that straddle it reach ~1e4, so
        # their sum cannot resolve the exact-zero value to abs_tol; the bare
        # call must not return what the annulus stopped at
        res = ops.frac_gradient(FAlpha(alpha=0.25), 0.25, 2.0**-16, detail=True)
        assert not res.converged
        with pytest.raises(QuadratureBudgetError):
            ops.frac_gradient(FAlpha(alpha=0.25), 0.25, 2.0**-16)

    def test_scaled_f_alpha_gradient_vanishes(self):
        # the scaled field declares its base's singular exponent and offsets
        res = ops.frac_gradient(ScaledField(base=FAlpha(alpha=0.25), factor=2.0), 0.25, 2.3,
                                detail=True)
        assert res.converged
        assert abs(res.value[0]) <= 1e-12


def _full_circle_batch(f, alpha, X):
    """The tensor-grid batch gradient at targets near the field's box, its
    polar sums taken over every angle of the trapezoid circle."""
    scale = ops.field_scale(f)
    reach = max(ops._reach(f.quad_box, x) for x in X)
    c0 = 256 * 2e-4 * scale  # the product panel [0, c0] at the kernel singularity
    order, cap = ops._BATCH_RADIAL[2]
    n_theta = ops._FOLD_ANGLES
    gl_t, _ = np.polynomial.legendre.leggauss(order)
    r, wr = _panel_loop(c0, reach, cap * scale, order)
    wr = np.concatenate([c0**-alpha * ops._product_weights(order, alpha), wr * r ** (-1.0 - alpha)])
    r = np.concatenate([0.5 * c0 * (1.0 + gl_t), r])
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    omega = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    Z = (r[:, None, None] * omega).reshape(-1, 2)
    w = (np.repeat(wr, n_theta) * (2.0 * math.pi / n_theta))[:, None] * np.tile(omega, (r.size, 1))
    f1, f2 = f.heat_factors
    # f(x + z) - f(x), as in the definition: the product panel's weights
    # reach ~6e3, and against f(x + z) alone the rounding of the O(1)
    # samples read ~4e-13 relative
    core = np.array([(w * (f1(x[0] + Z[:, 0]) * f2(x[1] + Z[:, 1])
                           - f1(x[:1]) * f2(x[1:]))[:, None]).sum(axis=0)
                     for x in X])
    return mu(2, alpha) * core


def _panel_loop(delta, reach, step_cap, order):
    """Gauss-Legendre nodes and weights built panel by panel, the last panel
    the first to end at or past reach."""
    gl_t, gl_w = np.polynomial.legendre.leggauss(order)
    nodes, weights, lo = [], [], delta
    while lo < reach:
        hi = lo + min(lo, step_cap)
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(mid + half * gl_t)
        weights.append(half * gl_w)
        lo = hi
    return np.concatenate(nodes), np.concatenate(weights)


_TENSOR_CASES = [
    ("bump", SmoothBump(center=(-0.2, 0.15), width=(1.0, 1.4))),
    ("gaussian", Gaussian(center=(0.1, -0.2))),
    ("product", ProductField(left=SmoothBump(center=(0.1, 0.0), width=(1.2, 1.0)),
                             right=Gaussian(center=(0.0, 0.2), width=1.5))),
]
_TENSOR_FIELDS = pytest.mark.parametrize("f", [f for _, f in _TENSOR_CASES],
                                         ids=[name for name, _ in _TENSOR_CASES])


def _tensor_grid():
    """A 5 x 4 tensor grid of targets near the fields of _TENSOR_FIELDS."""
    u0, u1 = np.linspace(-0.9, 0.7, 5), np.linspace(-0.6, 0.9, 4)
    return np.stack(np.meshgrid(u0, u1, indexing="ij"), axis=-1).reshape(-1, 2)


def _far_ring(m, seed):
    """m targets at distances 40 to 200 from the origin, in every direction."""
    rng = np.random.default_rng(seed)
    d, th = rng.uniform(40.0, 200.0, m), rng.uniform(0.0, 2.0 * math.pi, m)
    return np.stack([d * np.cos(th), d * np.sin(th)], axis=1)


class TestBatchTensorGrid:
    def test_signature_has_no_grid_arguments(self):
        # the rules are fixed per dimension; frac_gradient takes a tolerance
        assert list(inspect.signature(ops.frac_gradient_batch).parameters) == ["f", "alpha", "X"]

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("rule", [None, (256, 24, 0.4), (6, 10, 1.2)],
                             ids=["fixed", "fine", "n_theta_6"])
    @_TENSOR_FIELDS
    def test_orbit_fold_matches_full_circle(self, f, rule, alpha, monkeypatch):
        # each orbit {(+-c, +-s)} summed once equals the sum over the circle,
        # for the fixed rule and for any other the constants could be set to:
        # a finer one, and 6 angles, whose circle has no orbit at pi/2
        if rule is not None:
            monkeypatch.setattr(ops, "_FOLD_ANGLES", rule[0])
            monkeypatch.setitem(ops._BATCH_RADIAL, 2, rule[1:])
        P = _tensor_grid()
        batch = ops.frac_gradient_batch(f, alpha, P)
        full = _full_circle_batch(f, alpha, P)
        assert np.max(np.abs(batch - full)) <= 1e-13 * np.max(np.abs(full))

    @pytest.mark.parametrize("case", [
        *[pytest.param((f, alpha), id=f"{name}-{alpha}")
          for name, f in _TENSOR_CASES for alpha in (0.25, 0.5, 0.75)],
        *[pytest.param(call, id=f"ibp_2d-{call}") for call in range(3)],
    ])
    def test_fold_accuracy_against_heat_route(self, case):
        # the fold's fixed rule is ~1e-5 relative: at worst 7.4e-6 on the
        # 5 x 4 grid, and 1.04e-5, 1.07e-5 and 1.19e-5 on the ibp suite's own
        # three calls.  The heat route is the reference, its own error
        # estimate far below that (it stops at its floor, ~1e-10, at rel_tol
        # 1e-9 as at 1e-11, which took 2.4 s instead of 0.3 s an ibp call)
        if isinstance(case, int):
            (f, alpha, P), bound = _ibp_2d_calls()[case], 1.5e-5
        else:
            (f, alpha), P, bound = case, _tensor_grid(), 1e-5
        fold = ops.frac_gradient_batch(f, alpha, P)
        spec = QuadSpec(rel_tol=1e-9)
        ref = ops._grad_heat(f, alpha, P, spec, _Counter(spec.max_evals * P.shape[0]))
        scale = np.max(np.abs(ref.value))
        assert np.max(ref.err_estimate) <= 1e-8 * scale
        assert np.max(np.abs(fold - ref.value)) <= bound * scale

    def test_far_targets_take_the_heat_route(self):
        # the support-grid sum took 1.9 s for these 400 targets
        f = Gaussian(center=(0.1, -0.2))
        P = _far_ring(400, 11)
        ops.frac_gradient_batch(f, 0.5, P[:2])  # warm the caches
        t0 = time.perf_counter()
        batch = ops.frac_gradient_batch(f, 0.5, P)
        elapsed = time.perf_counter() - t0
        point = np.array([ops.frac_gradient(f, 0.5, p) for p in P])
        assert np.max(np.abs(batch - point) / np.abs(point)) <= 1e-12
        assert elapsed < 0.5

    @_TENSOR_FIELDS
    def test_tensor_grid_with_far_targets(self, f):
        # the grid keeps the fold, bit for bit; the far targets take the
        # heat route, as in a call with the far targets alone
        grid, far = _tensor_grid(), _far_ring(6, 3)
        both = ops.frac_gradient_batch(f, 0.5, np.concatenate([grid, far]))
        assert both[:20].tobytes() == ops.frac_gradient_batch(f, 0.5, grid).tobytes()
        assert both[20:].tobytes() == ops.frac_gradient_batch(f, 0.5, far).tobytes()
        point = np.array([ops.frac_gradient(f, 0.5, p) for p in far])
        assert np.max(np.abs(both[20:] - point)) <= 1e-12 * np.max(np.abs(point))

    @pytest.mark.parametrize("delta, reach, step_cap, order", [
        (2e-4, 2.9, 0.4, 24),
        (2e-4, 12.3, 1.2, 10),
        (2e-4 * 0.7, 3.1, 0.28, 1),
        (2e-4, 3e-4, 0.4, 24),  # reach < 2 delta: one panel
        (2e-4, 4e-4, 0.4, 5),  # reach = 2 delta
    ])
    def test_radial_panels_bit_identical_to_panel_loop(self, delta, reach, step_cap, order):
        r, w = gauss_legendre_panels(ops._radial_edges(delta, reach, step_cap), order)
        r_ref, w_ref = _panel_loop(delta, reach, step_cap, order)
        assert r.tobytes() == r_ref.tobytes() and w.tobytes() == w_ref.tobytes()


class TestAlignedRadialRule:
    """The batch gradient's radial rule ends on the field's fixed edge
    sequence, at the first edge at or past the call's farthest reach, and is
    cached per edge sequence."""

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("f", [SmoothBump(center=(-0.2,), width=1.5),
                                   Gaussian(center=(0.3,), width=1.0)], ids=["bump", "gaussian"])
    def test_a_value_does_not_depend_on_the_other_targets(self, f, alpha):
        # with the last panel cut at the call's reach and the samples at
        # x + r and x - r summed apart, these read up to 1.4e-8 (bump) and
        # 2.2e-11 (Gaussian) apart
        X = np.linspace(-1.8, 1.4, 30)[:, None]
        batch = ops.frac_gradient_batch(f, alpha, X)[:, 0]
        alone = np.array([ops.frac_gradient_batch(f, alpha, X[i:i + 1])[0, 0]
                          for i in range(X.shape[0])])
        assert np.max(np.abs(batch - alone) / np.abs(batch)) <= 1e-13

    def test_last_panel_ends_at_the_first_edge_past_the_reach(self):
        f = SmoothBump(center=(0.1,), width=0.9)
        X = np.array([[0.3], [-0.5], [1.2]])
        r, _ = ops._radial_rule(f, ops._batch_box(f), X)
        reach = max(ops._reach(f.quad_box, x) for x in X)
        order, cap = ops._BATCH_RADIAL[1]
        edges = ops._radial_edges(ops._PRODUCT_EDGE * 2e-4 * 0.9, reach, cap * 0.9)
        assert edges[-2] < reach <= edges[-1]
        assert r.size == order * len(edges) and r.max() < edges[-1]

    def test_rule_is_cached_and_read_only(self):
        f = SmoothBump(center=(0.1,), width=0.9)
        X = np.array([[0.3], [-0.5]])
        r, weights = ops._radial_rule(f, ops._batch_box(f), X)
        w = weights(0.5)
        hits = ops._edge_rule.cache_info().hits
        r2, weights2 = ops._radial_rule(f, ops._batch_box(f), X[::-1])
        assert ops._edge_rule.cache_info().hits == hits + 1
        assert r2 is r and weights2(0.5) is w
        for arr in (r, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestProductPanel:
    """The batch gradient's first radial panel, [0, 256 delta], weighs its
    samples by product integration against r^(-alpha)."""

    @pytest.mark.parametrize("order", [10, 24])
    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_weights_integrate_monomials(self, order, alpha):
        # sum_j W_j x_j^k = int_0^1 x^(k - alpha) dx for every k < order
        t, _ = np.polynomial.legendre.leggauss(order)
        x = 0.5 * (1.0 + t)
        W = ops._product_weights(order, alpha) * x
        for k in range(order):
            assert W @ x**k == pytest.approx(1.0 / (k + 1.0 - alpha), rel=1e-13)

    def test_weights_cached_read_only(self):
        w = ops._product_weights(24, 0.5)
        assert ops._product_weights(24, 0.5) is w and not w.flags.writeable

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_gaussian_matches_spectral(self, alpha):
        # the Taylor window and geometric panels it replaced were 9e-10 off
        g = Gaussian(center=(0.0,), width=1.0)
        xs = np.linspace(-2.5, 2.5, 11)
        batch = ops.frac_gradient_batch(g, alpha, xs[:, None])[:, 0]
        spec = np.array([ops.spectral_gradient_1d(g, alpha, x) for x in xs])
        assert np.max(np.abs(batch - spec)) <= 1e-12 * np.max(np.abs(spec))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_bump_matches_adaptive(self, alpha):
        # the reference stops at its floor, err estimates up to 1.1e-10,
        # short of rel_tol; that is still far below the bound
        f = SmoothBump(center=(0.0,), width=0.8)
        xs = np.linspace(-1.5, 1.5, 13)
        batch = ops.frac_gradient_batch(f, alpha, xs[:, None])[:, 0]
        res = [ops.frac_gradient(f, alpha, float(x), QuadSpec(rel_tol=1e-12), detail=True)
               for x in xs]
        ref = np.array([r.value[0] for r in res])
        scale = np.max(np.abs(ref))
        assert max(float(np.max(r.err_estimate)) for r in res) <= 1e-9 * scale
        assert np.max(np.abs(batch - ref)) <= 1e-8 * scale


def _ibp_2d_calls():
    """(field, alpha, targets) of the three n = 2 batch calls of the ibp
    suite: each component of phi on f's grid, and f on phi's."""
    calls = []
    batch = ops.frac_gradient_batch

    def recorded(f, alpha, X):
        calls.append((f, alpha, np.array(X)))
        return batch(f, alpha, X)

    ops.frac_gradient_batch = recorded
    try:
        run_suite("ibp")
    finally:
        ops.frac_gradient_batch = batch
    calls = [c for c in calls if c[0].dim == 2]
    assert [c[2].shape for c in calls] == [(4900, 2), (4900, 2), (6860, 2)]
    return calls


def _ibp_2d_fold_call():
    """(field, alpha, targets) of the largest n = 2 batch call of the ibp
    suite: the 6,860-point grid of the ibp_2d case."""
    f, alpha, X = _ibp_2d_calls()[-1]
    assert np.unique(X, axis=0).shape == X.shape  # no repeated targets
    return f, alpha, X


def _traced_peak_mib(fn) -> float:
    """The tracemalloc peak of a second call of fn, in MiB (the first warms
    the caches)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestBatchBlocks:
    """The batch gradient samples and contracts a block of rows at a time;
    its values do not depend on the blocks, and its working set is bounded."""

    @pytest.fixture(scope="class")
    def fold_call(self):
        return _ibp_2d_fold_call()

    # 180 targets: 161 near ones, a lone row past a whole number of blocks at
    # the default and at the smallest block size, and 19 far ones
    TARGETS_1D = np.linspace(-5.0, 5.0, 180)[:, None]

    @pytest.mark.parametrize("block", [1 << 10, 1 << 24])
    def test_fold_values_do_not_depend_on_blocks(self, fold_call, block, monkeypatch):
        f, alpha, X = fold_call
        default = ops.frac_gradient_batch(f, alpha, X)
        monkeypatch.setattr(ops, "_VALUE_BLOCK", block)
        assert ops.frac_gradient_batch(f, alpha, X).tobytes() == default.tobytes()

    @pytest.mark.parametrize("block", [1 << 10, 1 << 24])
    def test_1d_values_do_not_depend_on_blocks(self, block, monkeypatch):
        f = SmoothBump(center=(-0.2,), width=1.5)
        X = self.TARGETS_1D
        assert int(ops._far_targets(f, ops._batch_box(f), X).sum()) == 19
        default = [ops.frac_gradient_batch(f, a, X) for a in (0.25, 0.5, 0.75)]
        monkeypatch.setattr(ops, "_VALUE_BLOCK", block)
        for a, ref in zip((0.25, 0.5, 0.75), default):
            assert ops.frac_gradient_batch(f, a, X).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("block", [1 << 10, 1 << 24])
    def test_pairings_do_not_depend_on_blocks(self, block, monkeypatch):
        chi = IntervalIndicator(a=-1.0, b=1.0)
        family = ops.default_test_family()
        default = ops._variation_pairings(chi, DEFAULT_ALPHAS, family)
        monkeypatch.setattr(ops, "_VALUE_BLOCK", block)
        assert ops._variation_pairings(chi, DEFAULT_ALPHAS, family).tobytes() == default.tobytes()

    @pytest.mark.parametrize("m", [0, 1, 9, 161, 200])
    @pytest.mark.parametrize("k", [192, 8000])
    def test_row_blocks_cover_the_rows(self, m, k):
        blocks = list(ops._row_blocks(m, k))
        assert [i for s, e in blocks for i in range(s, e)] == list(range(m))
        assert all((e - s) % 8 == 0 for s, e in blocks[:-1])
        assert all(e - s > 1 for s, e in blocks) or m == 1

    def test_1d_bit_identical_across_blas_threads(self):
        # 750 near targets x 960 radial nodes: one matrix-vector product over
        # them all was split between two BLAS threads at row 375, and rows
        # 372-374 rounded differently than on one thread
        code = (
            "import numpy as np\n"
            "from fracvar import operators as ops\n"
            "from fracvar.fields import SmoothBump\n"
            "f = SmoothBump(center=(-0.2,), width=1.5)\n"
            "X = np.linspace(-6.0, 6.0, 1001)[:, None]\n"
            "print(ops.frac_gradient_batch(f, 0.25, X).tobytes().hex())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, timeout=300)
            assert res.returncode == 0, res.stderr[-2000:]
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1]

    def test_fold_working_set(self, fold_call):
        # a chunk of (radius, angle) columns of both factors' parts at a time;
        # the whole sample of both factors peaked at 15.9 MiB, and factor 2's
        # parts kept whole against a block of factor 1 at 6.9 MiB
        f, alpha, X = fold_call
        assert _traced_peak_mib(lambda: ops.frac_gradient_batch(f, alpha, X)) <= 3.0

    def test_pairings_working_set(self):
        # a chunk of offsets of a block of targets at a time; the whole
        # targets x radial-nodes sample peaked at 13.2 MiB, and whole rows of
        # 8-row blocks at 3.3 MiB
        chi = IntervalIndicator(a=-1.0, b=1.0)
        family = ops.default_test_family()
        assert _traced_peak_mib(
            lambda: ops._variation_pairings(chi, DEFAULT_ALPHAS, family)) <= 2.0


class TestBatchRoutes:
    """Which targets of frac_gradient_batch take which route, and the
    values of the routes that the tensor-grid tests do not reach."""

    @pytest.mark.parametrize("alpha", [0.0, 0.04, 0.96, math.nan])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_alpha_outside_quadrature_range_raises(self, n, alpha):
        f = SmoothBump(center=(0.0,) * n, width=1.0)
        with pytest.raises(ValueError, match="alpha"):
            ops.frac_gradient_batch(f, alpha, [[0.3] * n])

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @_TENSOR_FIELDS
    def test_far_targets_match_pointwise_2d(self, f, alpha):
        # n = 2 far targets take the heat route of frac_gradient
        P = _far_ring(8, 5)
        batch = ops.frac_gradient_batch(f, alpha, P)
        point = np.array([ops.frac_gradient(f, alpha, p) for p in P])
        assert np.max(np.abs(batch - point) / np.abs(point)) <= 1e-12

    @pytest.mark.parametrize("targets", ["grid", "far", "grid_and_far", "scattered"])
    @_TENSOR_FIELDS
    def test_no_2d_target_reaches_the_support_grid_sum(self, f, targets, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an n = 2 target reached the support-grid sum")

        monkeypatch.setattr(ops, "_support_grid", refuse)
        P = {
            "grid": _tensor_grid(),
            "far": _far_ring(6, 3),
            "grid_and_far": np.concatenate([_tensor_grid(), _far_ring(6, 3)]),
            "scattered": np.random.default_rng(2).uniform(-2.0, 2.0, (12, 2)),
        }[targets]
        out = ops.frac_gradient_batch(f, 0.5, P)
        assert out.shape == P.shape and np.all(np.isfinite(out))

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("f", [SmoothBump(center=(0.1,), width=1.0), Gaussian(center=(-0.2,))],
                             ids=["bump", "gaussian"])
    def test_far_targets_match_pointwise_1d(self, f, alpha):
        # n = 1 far targets are summed on the cached support grid
        xs = np.array([-80.0, -40.0, -25.0, 25.0, 40.0, 80.0])
        lo, hi = ops._field_box(f)
        assert np.all(np.abs(xs - 0.5 * (lo[0] + hi[0])) > (hi[0] - lo[0]) + ops.field_scale(f))
        batch = ops.frac_gradient_batch(f, alpha, xs[:, None])[:, 0]
        point = np.array([ops.frac_gradient(f, alpha, float(x))[0] for x in xs])
        assert np.max(np.abs(batch - point) / np.abs(point)) <= 1e-10

    @pytest.mark.parametrize("name", ["variation_lower_bound", "variation_lower_bound_detail"])
    def test_variation_bounds_take_no_tolerance(self, name):
        # their grid and the batch gradient's rules are fixed; a spec
        # argument would be read by nothing
        params = list(inspect.signature(getattr(ops, name)).parameters)
        assert params == ["f", "alpha", "test_family"]


class TestFoldedAnnulus:
    """The n = 1 annulus integrates f(x + r) - f(x - r) over each shell in r,
    and halves its first product panel [0, delta] until the panel's 24- and
    12-node rules agree, or stops where their difference rises, at the
    rounding floor of the samples."""

    @pytest.mark.parametrize("a, x", [
        (0.75, 0.18776619318958226),  # eval-mix seed 1: converged=False, 0.5 s before the fold
        (0.75, 0.8503000975172985),  # eval-mix seed 7: likewise
        (0.25, 0.25),  # returned -5953, converged=False, before the fold
        (0.25, 0.125),  # returned -10199, converged=False
        (0.75, 0.1357),  # ran the whole budget without the stop rule
    ])
    def test_f_alpha_exact_zero(self, a, x):
        res = ops.frac_gradient(FAlpha(alpha=a), a, x, detail=True)
        assert res.converged
        assert abs(res.value[0]) <= 1e-12
        assert res.evals_used < 2000

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_f_alpha_dyadic_sweep(self, a):
        # near the atom at 0 the annulus may fail to converge, but a value it
        # reports as converged must be the exact zero to abs_tol
        converged = 0
        for k in range(1, 21):
            res = ops.frac_gradient(FAlpha(alpha=a), a, 2.0**-k, detail=True)
            if res.converged:
                converged += 1
                assert abs(res.value[0]) <= 1e-12, k
        assert converged >= 10

    def test_stop_rule_at_rounding_floor(self):
        # with the plain difference of the two values, the rounding noise of
        # the panel's samples grows like delta^-a while its two rules must
        # agree to 2.5e-13: their difference stops falling, and the loop ends
        # within a few halvings (725 evaluations)
        f = _DifferencedFAlpha(alpha=0.75)
        res = ops.frac_gradient(f, 0.75, 0.1357, detail=True)
        assert not res.converged
        assert res.evals_used < 2_000
        with pytest.raises(QuadratureBudgetError):
            ops.frac_gradient(f, 0.75, 0.1357)

    @pytest.mark.parametrize("f", [FAlpha(alpha=0.5), OddBumpPair()], ids=["f_alpha", "odd_pair"])
    def test_budget_exhaustion(self, f):
        spec = QuadSpec(max_evals=100)
        res = ops.frac_gradient(f, 0.5, 0.3, spec, detail=True)
        assert not res.converged and res.evals_used > 100
        with pytest.raises(QuadratureBudgetError):
            ops.frac_gradient(f, 0.5, 0.3, spec)

    @pytest.mark.parametrize("a, x, ref", [
        # mu(1, a) int_0^inf (f(x + t) - f(x - t)) t^(-1-a) dt by mpmath at 60
        # digits, which agree with 90 to 17; at 30, f(x + t) - f(x - t) near
        # t = 0 loses digits, and the order-0.75 values read 2.4e-9 off
        (0.25, -0.8989, 0.6595462171619431),
        (0.25, 0.45, -0.6834922960387048),
        (0.5, -0.8989, 0.703693023106095),
        (0.5, -0.3, 0.5207218410847188),
        (0.5, 0.93, -0.542007083536738),
        (0.5, 0.4776403439728828, -0.8525533965934597),
        (0.75, -0.3, 0.5894386752591784),
        (0.75, 0.45, -0.9394799050348838),
        (0.75, 0.93, -0.44247577541674205),
    ])
    def test_bump_against_mpmath(self, a, x, ref):
        # the bump without its heat factors takes the annulus, whose estimate
        # covers its error; with them, the heat route
        f = SmoothBump(center=(0.0,), width=1.0)
        res = ops.frac_gradient(_PlainField(f), a, x, detail=True)
        assert res.converged
        assert res.value[0] == pytest.approx(ref, rel=1e-10)
        assert abs(res.value[0] - ref) <= res.err_estimate
        assert ops.frac_gradient(f, a, x)[0] == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("a, x, ref", [
        # spectral_gradient_1d, the frequency-side route
        (0.25, -1.2, 0.184294004756936),
        (0.25, 2.5, -0.10473794222060684),
        (0.5, 0.05, 0.7252857024407691),
        (0.5, 0.7, -0.904784290052207),
        (0.75, 0.05, 0.9596874261220351),
        (0.75, 0.7, -1.1637589039994682),
    ])
    def test_gaussian_against_spectral(self, a, x, ref):
        f = Gaussian(center=(0.3,), width=1.0)
        assert ops.spectral_gradient_1d(f, a, x) == pytest.approx(ref, rel=1e-12)
        assert ops.frac_gradient(f, a, x)[0] == pytest.approx(ref, rel=1e-8)


@dataclass(frozen=True)
class _DifferencedFAlpha(FAlpha):
    """FAlpha whose fold is the plain difference of its two values, the
    default of fields without a cancellation-free one."""

    def fold_from_offsets(self, x0, r, plus, minus):
        return ScalarField.fold_from_offsets(self, x0, r, plus, minus)


@dataclass(frozen=True)
class _PlainField(ScalarField):
    """Delegates evaluation to ``base`` but has no ``heat_factors``: in n >= 2
    its Riesz potential takes the angular path, and its gradient and
    Laplacian raise UnsupportedFieldError."""

    base: ScalarField

    @property
    def kind(self) -> str:
        return self.base.kind

    @property
    def sup_norm_bound(self) -> float:
        return self.base.sup_norm_bound

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def quad_box(self):
        return self.base.quad_box

    @property
    def is_smooth(self) -> bool:
        return self.base.is_smooth

    @property
    def has_gradient(self) -> bool:
        return self.base.has_gradient

    @property
    def smooth_scale(self) -> float:
        return self.base.smooth_scale

    def values(self, X: np.ndarray) -> np.ndarray:
        return self.base.values(X)


def _gaussian_grad_mp(n, alpha, width, d):
    """grad I_(1-a) of exp(-pi |y|^2 / w^2) at offset d: I_s of a Gaussian is
    a confluent hypergeometric function of |d|^2."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = mp.pi / mp.mpf(width) ** 2
        s, h = 1 - mp.mpf(alpha), mp.mpf(n) / 2
        b = (n - s) / 2
        r2 = mp.fsum(mp.mpf(v) ** 2 for v in d)
        c = mp.gamma(b) / mp.gamma(h) * (4 * a) ** (-s / 2) * (b / h)
        radial = c * mp.hyp1f1(b + 1, h + 1, -a * r2) * (-2 * a)
        return np.array([float(radial * mp.mpf(v)) for v in d])


class TestSubordination:
    """The Gaussian-subordination route of the n >= 2 gradient."""

    @pytest.mark.parametrize("x, ref", [
        ((0.3, 0.2, -0.4), (-0.3285242147919623, -0.2014266850783018, 0.4955066962482402)),
        ((1.5, 0.2, -0.3), (-0.03657486310448021, -0.004262248866242479, 0.006429006894199167)),
    ])
    def test_bump_3d_evaluation_count(self, x, ref):
        # a deterministic guard on the heat factors' cost, not a timing: the
        # window regimes (no samples for an empty window, 24 Gauss-Hermite
        # samples inside the support) keep a 3-d bump gradient under 110,000
        # samples, against about 186,000 for 288 panel samples at every
        # (x, t) pair, whose values ref holds
        res = ops.frac_gradient(SmoothBump(center=(0.0, 0.0, 0.0)), 0.5, x, detail=True)
        assert res.converged and res.evals_used <= 110_000
        np.testing.assert_allclose(res.value, ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.05, 0.5, 0.95])
    def test_gaussian_against_mpmath(self, n, a):
        center = (0.1, -0.2, 0.15)[:n]
        g = Gaussian(center=center, width=1.0)
        for x in ((0.5, 0.3, -0.4), (-1.3, 0.9, 0.4), (2.5, -1.5, 1.0)):
            x = np.array(x[:n])
            res = ops.frac_gradient(g, a, x, detail=True)
            ref = _gaussian_grad_mp(n, a, 1.0, x - np.array(center))
            assert res.converged
            assert np.max(np.abs(np.array(res.value) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("a", [0.25, 0.75])
    def test_bump_1d_matches_adaptive(self, a):
        # the reference is the n = 1 annulus, whose first product panel at
        # the kernel singularity is halved until its 24- and 12-node rules
        # agree; fields without heat_factors take it
        f = SmoothBump(center=(0.1,), width=1.3)
        spec = QuadSpec(rel_tol=1e-9, abs_tol=1e-13)
        X = np.array([[0.3], [-0.9], [1.35], [2.5]])
        res = ops._grad_heat(f, a, X, spec, _Counter(spec.max_evals))
        ref_spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-15)
        ref = np.array([ops._grad_smooth(f, a, x, ref_spec).require()[0] for x in X])
        assert res.converged
        assert np.max(np.abs(res.value[:, 0] - ref)) <= 1e-9 * np.max(np.abs(ref))
        # the estimate covers the error of the panel sums for G_t, which
        # dominates once the trapezoid sums in log t have converged
        assert np.all(np.abs(res.value[:, 0] - ref) <= res.err_estimate[:, 0])

    def test_bump_1d_floor(self):
        # the panel sums of a bump factor's heat convolutions floor the route
        # near 1e-10 relative: rel_tol 1e-9 converges at eight points across
        # the support [-1.2, 1.4] and beyond it, and 1e-11 at none, without
        # ever reporting a value as converged
        f = SmoothBump(center=(0.1,), width=1.3)
        for x in np.linspace(-1.6, 1.9, 8):
            assert ops.frac_gradient(f, 0.5, x, QuadSpec(rel_tol=1e-9, abs_tol=1e-15),
                                     detail=True).converged
            res = ops.frac_gradient(f, 0.5, x, QuadSpec(rel_tol=1e-11, abs_tol=1e-15),
                                    detail=True)
            assert not res.converged
        with pytest.raises(QuadratureBudgetError):
            ops.frac_gradient(f, 0.5, 0.3, QuadSpec(rel_tol=1e-11, abs_tol=1e-15))

    @pytest.mark.parametrize("x, annulus", [
        # the n = 2 Taylor-corrected annulus (angular moments of shells), the
        # second route it had before the heat route became the only one
        ((0.3, 0.1), (-0.2934719658145941, -0.2771579762538449)),
        ((0.8, -0.4), (-1.0876288596210886, 0.0883554888839662)),
        ((0.0, 1.1), (0.013678974844382335, -0.217177616610042)),
        ((1.5, 0.2), (-0.09566248442585558, -0.02023617577228043)),
    ])
    def test_bump_2d_matches_annulus(self, x, annulus):
        f = SmoothBump(center=(0.1, -0.2), width=(1.0, 1.3))
        rel_tol = default_spec(2).rel_tol
        heat = ops.frac_gradient(f, 0.5, x, detail=True)
        assert heat.converged
        diff = np.max(np.abs(np.array(heat.value) - np.array(annulus)))
        assert diff <= rel_tol * np.max(np.abs(annulus))

    @pytest.mark.parametrize("a, x", [
        (0.25, (0.4180263564558081, -0.478936392837862, 0.7971352080118591)),
        (0.5, (-1.224608825273144, 0.9288437249608741, 0.3489427130445786)),
        (0.75, (0.7243338556055445, -1.6394006684647116, 0.6517175003210751)),
    ])
    def test_bump_3d_converges_within_budget(self, a, x):
        # points where the annulus route ends with converged=False; the
        # budget keeps at least a factor 2 in reserve
        spec = default_spec(3)
        res = ops.frac_gradient(SmoothBump(center=(0.0, 0.0, 0.0), width=1.0), a, x, detail=True)
        assert res.converged
        assert res.err_estimate <= spec.rel_tol * np.max(np.abs(res.value))
        assert 2 * res.evals_used <= spec.max_evals

    def test_exact_zero_at_bump_center(self):
        # every component vanishes at the center by symmetry, so only abs_tol
        # can be met; one coordinate at the center zeroes its own component
        f = SmoothBump(center=(0.2, -0.1, 0.3), width=(1.0, 1.2, 0.9))
        abs_tol = default_spec(3).abs_tol
        res = ops.frac_gradient(f, 0.5, f.center, detail=True)
        assert res.converged
        assert np.max(np.abs(res.value)) <= abs_tol
        res = ops.frac_gradient(f, 0.5, (0.2, 0.4, -0.5), detail=True)
        assert res.converged
        assert abs(res.value[0]) <= abs_tol < np.min(np.abs(res.value[1:]))

    def test_budget_exhaustion(self):
        f = SmoothBump(center=(0.0, 0.0), width=1.0)
        spec = QuadSpec(max_evals=100)
        res = ops.frac_gradient(f, 0.5, (0.3, 0.2), spec, detail=True)
        assert not res.converged and res.evals_used > 100
        with pytest.raises(QuadratureBudgetError):
            ops.frac_gradient(f, 0.5, (0.3, 0.2), spec)

    def test_bit_identical_across_blas_threads(self):
        code = (
            "import numpy as np\n"
            "from fracvar import operators as ops\n"
            "from fracvar.fields import Gaussian, SmoothBump\n"
            "f = SmoothBump(center=(0.0, 0.1, -0.2), width=1.0)\n"
            "P = np.random.default_rng(5).uniform(-1.5, 1.5, (6, 3))\n"
            "print(repr(ops.frac_gradient_batch(f, 0.5, P).tolist()))\n"
            "print(repr(ops.frac_gradient(Gaussian(center=(0.1, 0.2)), 0.75, (0.4, -0.3))))\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, timeout=300)
            assert res.returncode == 0, res.stderr[-2000:]
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1]


def _gaussian_riesz_mp(n, s, width, d):
    """I_s of exp(-pi |y|^2 / w^2) at offset d, a confluent hypergeometric
    function of |d|^2: Gamma(b)/Gamma(n/2) (4a)^(-s/2) 1F1(b; n/2; -a |d|^2),
    b = (n - s)/2, a = pi/w^2."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a, s, h = mp.pi / mp.mpf(width) ** 2, mp.mpf(s), mp.mpf(n) / 2
        r2 = mp.fsum(mp.mpf(v) ** 2 for v in d)
        b = h - s / 2
        return float(mp.gamma(b) / mp.gamma(h) * (4 * a) ** (-s / 2) * mp.hyp1f1(b, h, -a * r2))


def _gaussian_laplacian_mp(n, beta, width, d):
    """(-Delta)^(beta/2) of exp(-pi |y|^2 / w^2) at offset d:
    Gamma(b)/Gamma(n/2) (4a)^(beta/2) 1F1(b; n/2; -a |d|^2), b = (n + beta)/2."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a, beta, h = mp.pi / mp.mpf(width) ** 2, mp.mpf(beta), mp.mpf(n) / 2
        r2 = mp.fsum(mp.mpf(v) ** 2 for v in d)
        b = h + beta / 2
        return float(mp.gamma(b) / mp.gamma(h) * (4 * a) ** (beta / 2) * mp.hyp1f1(b, h, -a * r2))


class TestSubordinationPotentials:
    """The Riesz potential (in n >= 2) and the fractional Laplacian (in every
    n) of fields with ``heat_factors`` by Gaussian subordination."""

    # the Riesz potential takes the heat route in n >= 2 only
    _MPMATH_CASES = [(op, ref_fn, order, n)
                     for op, ref_fn in ((ops.riesz_potential, _gaussian_riesz_mp),
                                        (ops.frac_laplacian, _gaussian_laplacian_mp))
                     for order in (0.05, 0.5, 0.95)
                     for n in (1, 2, 3) if n >= 2 or op is ops.frac_laplacian]

    @pytest.mark.parametrize("op, ref_fn, order, n", _MPMATH_CASES, ids=[
        f"{op.__name__}-{ref_fn.__name__}-{order}-{n}" for op, ref_fn, order, n in _MPMATH_CASES
    ])
    def test_gaussian_against_mpmath(self, n, order, op, ref_fn):
        center = (0.1, -0.2, 0.15)[:n]
        g = Gaussian(center=center, width=1.0)
        for x in ((0.5, 0.3, -0.4), (-1.3, 0.9, 0.4), (2.5, -1.5, 1.0), center):
            x = np.array(x[:n])
            res = op(g, order, x, detail=True)
            ref = ref_fn(n, order, 1.0, x - np.array(center))
            # 100 times tighter than the default rel_tol 1e-8 (n = 1), 1e-6
            # (n = 2), and tighter still than 1e-5 (n = 3)
            assert res.converged
            assert abs(res.value - ref) <= (1e-10 if n == 1 else 1e-8) * abs(ref)

    @pytest.mark.parametrize("n, s", [(2, 1.0), (3, 2.0)])
    def test_gaussian_potential_at_largest_routed_order(self, n, s):
        center = (0.1, -0.2, 0.15)[:n]
        g = Gaussian(center=center, width=1.0)
        for x in ((0.5, 0.3, -0.4), center):
            x = np.array(x[:n])
            res = ops.riesz_potential(g, s, x, detail=True)
            ref = _gaussian_riesz_mp(n, s, 1.0, x - np.array(center))
            assert res.converged
            assert abs(res.value - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("n, s", [(2, 1.5), (2, 1.99), (3, 2.5), (3, 2.99)])
    def test_gaussian_potential_near_order_n(self, n, s):
        # b = (n - s)/2 < 1/2 would put the grid's small-t end below
        # t = e^-700, where t^b underflows; these orders take the angular path
        center = (0.1, -0.2, 0.15)[:n]
        g = Gaussian(center=center, width=1.0)
        rel_tol = default_spec(n).rel_tol
        for x in ((0.5, 0.3, -0.4), center):
            x = np.array(x[:n])
            res = ops.riesz_potential(g, s, x, detail=True)
            ref = _gaussian_riesz_mp(n, s, 1.0, x - np.array(center))
            assert res.converged
            assert abs(res.value - ref) <= rel_tol * abs(ref)

    # the n = 2 Taylor-corrected annulus of the Laplacian over angular
    # profiles, at the points of test_bump_2d_matches_angular, before the heat
    # route became the Laplacian's only path in n >= 2
    _ANGULAR_LAPLACIAN = {
        0.05: (0.9318894717107329, 0.3731032749940963, -0.014709842968252434,
               -0.008021345103389518),
        0.5: (1.2273523629358045, 0.3857943686520033, -0.177762313148061,
              -0.0765564210155555),
        0.95: (1.6733882310432078, 0.4725728850259043, -0.407098186235352,
               -0.13191345603885504),
    }

    @pytest.mark.parametrize("order", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("op", [ops.riesz_potential, ops.frac_laplacian])
    def test_bump_2d_matches_angular(self, order, op):
        # the wrapper has no heat_factors, so its Riesz potential takes the
        # angular path; the Laplacian's angular values are pinned
        f = SmoothBump(center=(0.1, -0.2), width=(1.0, 1.3))
        rel_tol = default_spec(2).rel_tol
        points = ((0.3, 0.1), (0.8, -0.4), (0.0, 1.1), (1.5, 0.2))
        for k, x in enumerate(points):
            heat = op(f, order, x, detail=True)
            if op is ops.riesz_potential:
                angular = op(_PlainField(f), order, x, detail=True)
                assert angular.converged
                angular = angular.value
            else:
                angular = self._ANGULAR_LAPLACIAN[order][k]
            assert heat.converged
            assert abs(heat.value - angular) <= rel_tol * abs(angular)

    @pytest.mark.parametrize("order", [0.05, 0.95])
    @pytest.mark.parametrize("op", [ops.riesz_potential, ops.frac_laplacian])
    def test_bump_3d_converges_within_budget(self, order, op):
        # the angular path exhausts the budget on these; the route keeps at
        # least a factor 2 of it in reserve
        f = SmoothBump(center=(0.0, 0.0, 0.0), width=1.0)
        spec = default_spec(3)
        for x in ((0.4180263564558081, -0.478936392837862, 0.7971352080118591),
                  (-1.224608825273144, 0.9288437249608741, 0.3489427130445786),
                  (0.0, 0.0, 0.0)):
            res = op(f, order, x, detail=True)
            assert res.converged
            assert res.err_estimate <= spec.rel_tol * abs(res.value)
            assert 2 * res.evals_used <= spec.max_evals

    @pytest.mark.parametrize("op", [ops.riesz_potential, ops.frac_laplacian])
    def test_budget_exhaustion(self, op):
        f = SmoothBump(center=(0.0, 0.0), width=1.0)
        spec = QuadSpec(max_evals=100)
        res = op(f, 0.5, (0.3, 0.2), spec, detail=True)
        assert not res.converged and res.evals_used > 100
        with pytest.raises(QuadratureBudgetError):
            op(f, 0.5, (0.3, 0.2), spec)

    def test_laplacian_power_term_at_small_order(self):
        # at beta = 0.05 the f(x) (pi/t)^(n/2) term would need the grid to
        # reach t ~ e^-800; it is summed below the grid instead
        g = Gaussian(center=(0.1, -0.2, 0.15), width=1.0)
        res = ops.frac_laplacian(g, 0.05, (0.3, 0.2, 0.1), detail=True)
        assert res.converged and math.isfinite(res.value)
        assert res.evals_used < 2000


class TestProductAndScaledFields:
    """Products and scalings of fields with ``heat_factors`` take the heat
    route in n >= 2, with factor l_i r_i (or k g_1) per axis."""

    def test_product_3d_converges_within_budget(self):
        # the n = 3 annulus over angular moments returned converged=False here,
        # err 8.0e-3 after the whole budget
        f = ProductField(left=Gaussian(center=(0.0, 0.0, 0.0)),
                         right=SmoothBump(center=(0.1, 0.0, 0.0), width=1.0))
        spec = default_spec(3)
        res = ops.frac_gradient(f, 0.5, (0.4, -0.3, 0.2), detail=True)
        assert res.converged
        assert res.err_estimate <= spec.rel_tol * np.max(np.abs(res.value))
        assert 2 * res.evals_used <= spec.max_evals

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [0.05, 0.5, 0.95])
    def test_gaussian_product_against_mpmath(self, n, a):
        # the product of two Gaussians is a Gaussian of width w, center c and
        # amplitude A; its factors merge into closed-form ones of that Gaussian
        c1, w1 = np.array((0.0, 0.0, 0.1)[:n]), 1.0
        c2, w2 = np.array((0.6, -0.3, 0.2)[:n]), 1.2
        f = ProductField(left=Gaussian(center=tuple(c1), width=w1),
                         right=Gaussian(center=tuple(c2), width=w2))
        w = (w1**-2 + w2**-2) ** -0.5
        c = (c1 / w1**2 + c2 / w2**2) * w**2
        amp = math.exp(-math.pi * np.sum((c1 - c2) ** 2) / (w1**2 + w2**2))
        for x in ((0.5, 0.3, -0.4), (-1.3, 0.9, 0.4)):
            d = np.array(x[:n]) - c
            grad = ops.frac_gradient(f, a, x[:n], detail=True)
            ref = amp * _gaussian_grad_mp(n, a, w, d)
            assert grad.converged
            assert np.max(np.abs(grad.value - ref)) <= 1e-9 * np.max(np.abs(ref))
            lap = ops.frac_laplacian(f, a, x[:n], detail=True)
            ref = amp * _gaussian_laplacian_mp(n, a, w, d)
            assert lap.converged
            assert abs(lap.value - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("n", [1, 2])
    def test_gaussian_product_at_tight_tolerance(self, n):
        # summed by panels, the factor l_i r_i switched to Gauss-Hermite nodes
        # inside c +/- 6 w, where at t ~ 4.6 the kernel is as wide as the
        # Gaussian; the n = 2 case returned converged=False, err 6.9e-8, after
        # 861,616 evaluations
        c1, c2, w2 = np.zeros(n), np.array((0.6, -0.3)[:n]), 1.2
        f = ProductField(left=Gaussian(center=tuple(c1)),
                         right=Gaussian(center=tuple(c2), width=w2))
        w = (1.0 + w2**-2) ** -0.5
        c = (c1 + c2 / w2**2) * w**2
        amp = math.exp(-math.pi * np.sum((c1 - c2) ** 2) / (1.0 + w2**2))
        x = (0.13, 0.2)[:n]
        res = ops.frac_gradient(f, 0.5, x, QuadSpec(rel_tol=1e-8), detail=True)
        ref = amp * _gaussian_grad_mp(n, 0.5, w, np.array(x) - c)
        assert res.converged
        assert np.max(np.abs(res.value - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("field, x, annulus", [
        # the n = 2 Taylor-corrected annulus over angular moments, the path
        # these fields took before they had heat_factors
        (ProductField(left=Gaussian(center=(0.0, 0.0)),
                      right=SmoothBump(center=(0.1, 0.0), width=1.0)),
         (0.4, -0.3), (-0.6266733636657351, 0.5085358896290447, 0.5022168991843466)),
        (ProductField(left=Gaussian(center=(0.0, 0.0)),
                      right=SmoothBump(center=(0.1, 0.0), width=1.0)),
         (1.2, 0.5), (-0.04793627557610716, -0.02009827753798843, -0.03941064283810962)),
        (ScaledField(base=SmoothBump(center=(0.1, -0.2), width=(1.0, 1.3)), factor=-2.5),
         (0.3, 0.1), (0.7336799145364857, 0.6928949406346143, -3.0683809073395105)),
        (ScaledField(base=SmoothBump(center=(0.1, -0.2), width=(1.0, 1.3)), factor=-2.5),
         (1.5, 0.2), (0.2391562110646389, 0.05059043943070106, 0.19139105253888866)),
    ])
    def test_2d_matches_annulus(self, field, x, annulus):
        rel_tol = default_spec(2).rel_tol
        grad = ops.frac_gradient(field, 0.5, x, detail=True)
        lap = ops.frac_laplacian(field, 0.5, x, detail=True)
        assert grad.converged and lap.converged
        assert np.max(np.abs(grad.value - annulus[:2])) <= rel_tol * np.max(np.abs(annulus[:2]))
        assert abs(lap.value - annulus[2]) <= rel_tol * abs(annulus[2])

    @pytest.mark.parametrize("n", [2, 3])
    def test_scaled_is_k_times_base(self, n):
        base = SmoothBump(center=(0.1, -0.2, 0.15)[:n], width=(1.0, 1.3, 0.8)[:n])
        f = ScaledField(base=base, factor=-2.5)
        x = (0.3, 0.1, -0.4)[:n]
        grad, ref = ops.frac_gradient(f, 0.5, x), -2.5 * ops.frac_gradient(base, 0.5, x)
        assert np.max(np.abs(grad - ref)) <= 1e-14 * np.max(np.abs(ref))
        pot, ref = ops.riesz_potential(f, 0.5, x), -2.5 * ops.riesz_potential(base, 0.5, x)
        assert abs(pot - ref) <= 1e-14 * abs(ref)
        # the Laplacian's products cancel f(x) (pi/t)^(n/2) at large t, which
        # magnifies the rounding of k G_t g_1 (1.6e-13 relative in n = 3),
        # far inside the error estimate
        lap = ops.frac_laplacian(f, 0.5, x, detail=True)
        ref = -2.5 * ops.frac_laplacian(base, 0.5, x)
        assert abs(lap.value - ref) <= min(1e-12 * abs(ref), lap.err_estimate)

    @pytest.mark.parametrize("n", [2, 3])
    def test_disjoint_supports_exact_zero(self, n):
        # the bumps' supports meet nowhere on axis 0: the product vanishes
        # identically, and so do its factor's heat convolutions
        f = ProductField(left=SmoothBump(center=(-1.0,) + (0.0,) * (n - 1), width=0.5),
                         right=SmoothBump(center=(1.0,) + (0.0,) * (n - 1), width=0.5))
        x = (0.2, -0.1, 0.3)[:n]
        grad = ops.frac_gradient(f, 0.5, x, detail=True)
        assert grad.converged and not np.any(grad.value)
        for op in (ops.frac_laplacian, ops.riesz_potential):
            res = op(f, 0.5, x, detail=True)
            assert res.converged and res.value == 0.0


class TestFracDivergence:
    def test_coincides_with_gradient_in_1d(self):
        phi = VectorField(components=(SmoothBump(center=(0.2,), width=1.5),))
        d = ops.frac_divergence(phi, 0.5, 0.3)
        g = ops.frac_gradient(phi.components[0], 0.5, 0.3)[0]
        assert abs(d - g) <= 1e-12 * max(1.0, abs(g))

    def test_even_components_zero_at_center(self):
        g2 = Gaussian(center=(0.0, 0.0), width=1.0)
        phi = VectorField(components=(g2, g2))
        assert abs(ops.frac_divergence(phi, 0.5, (0.0, 0.0))) < 1e-8

    def test_2d_first_component_vs_potential_derivative(self):
        # independent oracle: grad_a = grad of the smoothing potential of
        # order 1 - a; difference the potential numerically along axis 1
        a = 0.5
        g2 = Gaussian(center=(0.0, 0.0), width=1.0)
        x = np.array([0.5, 0.0])
        direct = ops.frac_gradient(g2, a, x)[0]
        h = 2e-3
        spec = QuadSpec(rel_tol=1e-9, abs_tol=1e-12)
        ip = ops.riesz_potential(g2, 1.0 - a, x + np.array([h, 0.0]), spec)
        im = ops.riesz_potential(g2, 1.0 - a, x - np.array([h, 0.0]), spec)
        ip2 = ops.riesz_potential(g2, 1.0 - a, x + np.array([2 * h, 0.0]), spec)
        im2 = ops.riesz_potential(g2, 1.0 - a, x - np.array([2 * h, 0.0]), spec)
        fd = (8.0 * (ip - im) - (ip2 - im2)) / (12.0 * h)
        assert direct == pytest.approx(fd, rel=1e-5)

    def test_detail_sums_component_results(self):
        # each component's gradient has its own budget, so the counts add
        phi = VectorField(components=(Gaussian(center=(0.0, 0.1), width=1.0),
                                      SmoothBump(center=(0.2, 0.0), width=(1.0, 0.7))))
        x = np.array([0.4, -0.3])
        res = ops.frac_divergence(phi, 0.5, x, detail=True)
        parts = [ops.frac_gradient(c, 0.5, x, detail=True) for c in phi.components]
        assert res.converged and res.value == ops.frac_divergence(phi, 0.5, x)
        assert res.value == float(parts[0].value[0]) + float(parts[1].value[1])
        assert res.evals_used == sum(p.evals_used for p in parts) > 0
        assert res.err_estimate == sum(float(np.max(p.err_estimate)) for p in parts)

    def test_budget_exhaustion(self):
        phi = VectorField(components=(Gaussian(center=(0.0,), width=1.0),))
        starved = QuadSpec(max_evals=100)
        assert not ops.frac_divergence(phi, 0.5, 0.3, starved, detail=True).converged
        with pytest.raises(QuadratureBudgetError):
            ops.frac_divergence(phi, 0.5, 0.3, starved)


class TestRieszPotential:
    def test_linearity(self):
        g = Gaussian(center=(0.0,), width=1.0)
        v1 = ops.riesz_potential(g, 0.5, 0.3)
        v2 = ops.riesz_potential(ScaledField(base=g, factor=2.0), 0.5, 0.3)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_gaussian_against_convolution_oracle(self):
        # direct convolution quadrature at 10x tighter tolerance; the value at
        # the center also has the frozen closed form
        g = Gaussian(center=(0.0,), width=1.0)
        s = 0.5
        val = ops.riesz_potential(g, s, 0.0)
        k = ops.riesz_constant(1, s)
        oracle = k * integrate_1d(
            lambda y: np.exp(-math.pi * y * y) * np.abs(y) ** (s - 1.0),
            -8.0, 8.0, singularities=[(0.0, s - 1.0)],
            spec=QuadSpec(rel_tol=1e-11, abs_tol=1e-14),
        ).value
        assert val == pytest.approx(oracle, rel=1e-9)
        assert val == pytest.approx(1.086434811213308, rel=1e-10)

    def test_gaussian_off_center_against_mpmath(self):
        # s = 0.25 puts an |y - x|^-0.75 kernel at x = -1.2, away from the origin
        mp = pytest.importorskip("mpmath")
        s, x = 0.25, -1.2
        val = ops.riesz_potential(Gaussian(center=(0.0,), width=1.0), s, x)
        with mp.workdps(30):
            ref = mp.quad(lambda y: mp.exp(-mp.pi * y * y) * abs(y - x) ** (s - 1),
                          [-mp.inf, x, mp.inf])
        assert val == pytest.approx(ops.riesz_constant(1, s) * float(ref), rel=1e-8)

    def test_f_alpha_against_mpmath(self):
        # the kernel reads the field's offsets from its singular points 0 and 1
        mp = pytest.importorskip("mpmath")
        a, s, x = 0.25, 0.5, 0.3
        m = mu(1, -a)

        def integrand(y):
            fa = m * (mp.sign(y) * abs(y) ** (a - 1) - mp.sign(y - 1) * abs(y - 1) ** (a - 1))
            return fa * abs(y - x) ** (s - 1)

        with mp.workdps(30):
            ref = ops.riesz_constant(1, s) * float(mp.quad(integrand, [-mp.inf, 0, x, 1, mp.inf]))
        assert ops.riesz_potential(FAlpha(alpha=a), s, x) == pytest.approx(ref, rel=1e-9)
        tight = ops.riesz_potential(FAlpha(alpha=a), s, x, QuadSpec(rel_tol=1e-10))
        assert tight == pytest.approx(ref, rel=1e-9)

    def test_scaled_f_alpha_linearity(self):
        v1 = ops.riesz_potential(FAlpha(alpha=0.25), 0.5, 0.3)
        v2 = ops.riesz_potential(ScaledField(base=FAlpha(alpha=0.25), factor=2.0), 0.5, 0.3)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-10)

    @pytest.mark.parametrize("n, x", [(1, 0.3), (2, (0.3, 0.2))])
    def test_budget_exhaustion_raises(self, n, x):
        from fracvar.quadrature import QuadratureBudgetError

        g = Gaussian(center=(0.0,) * n, width=1.0)
        with pytest.raises(QuadratureBudgetError):
            ops.riesz_potential(g, 0.5, x, QuadSpec(max_evals=100))

    def test_divergent_potential_refused(self):
        hs = HalfSpaceIndicator(halfspace=HalfSpace.make((1.0,)))
        with pytest.raises(ops.DivergentPotentialError):
            ops.riesz_potential(hs, 0.5, 1.0)

    def test_order_domain(self):
        g = Gaussian(center=(0.0,), width=1.0)
        with pytest.raises(ValueError):
            ops.riesz_potential(g, 1.0, 0.0)

    @pytest.mark.parametrize("s", [0.5, 1.5])
    @pytest.mark.parametrize("cube, x", [
        (CubeIndicator(ndim=2), (0.3, 0.2)),
        (CubeIndicator(ndim=2, half_width=0.5, center=(0.1, -0.2)), (0.25, -0.5)),
    ])
    def test_cube_against_polar_reference(self, s, cube, x):
        # I_s chi_Q(x) = k int_0^(2 pi) rho(theta)^s / s dtheta at an interior x
        pytest.importorskip("mpmath")
        ref = ops.riesz_constant(2, s) * _square_exit_integral(s, x, cube.center, cube.half_width)
        assert ops.riesz_potential(cube, s, x) == pytest.approx(ref / s, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_hyperplane_potential_vs_closed_form(self, n):
        from fracvar.closed_forms import riesz_hyperplane

        H = HalfSpace.make((1.0,) + (0.0,) * (n - 1))
        x = np.zeros(n)
        x[0] = 1.3
        num = ops.riesz_potential_hyperplane(0.5, H, x)
        assert num == pytest.approx(riesz_hyperplane(0.5, H, x), rel=1e-8)


def _gaussian_derivatives(g: Gaussian, X: np.ndarray):
    """Closed-form gradient and Laplacian of a Gaussian at the points X."""
    d, w2 = X - np.asarray(g.center), g.width**2
    f = g.values(X)
    q = np.einsum("ij,ij->i", d, d)
    return (-2.0 * math.pi / w2) * d * f[:, None], f * (4.0 * math.pi**2 * q / w2**2
                                                         - 2.0 * math.pi * g.dim / w2)


def _bump_derivatives(b: SmoothBump, X: np.ndarray):
    """Closed-form gradient and Laplacian of a bump at the points X, from the
    kernel's derivatives on each axis."""
    t = (X - np.asarray(b.center)) / np.asarray(b.width)
    w = np.asarray(b.width)
    parts = _bump_1d(t)
    others = [np.prod(np.delete(parts, i, axis=1), axis=1) for i in range(b.dim)]
    grad = np.stack([_bump_1d_d1(t[:, i]) / w[i] * others[i] for i in range(b.dim)], axis=1)
    lap = sum(_bump_1d_d2(t[:, i]) / w[i] ** 2 * others[i] for i in range(b.dim))
    return grad, lap


class TestLaplacianLimit:
    """The heat route's large-t form pi^(n/2) Laplacian f(x)/4, built from the
    factors' second derivatives, against the Laplacian's closed forms."""

    @staticmethod
    def _laplacian(f, X):
        return ops._laplacian_limit(f, X) * 4.0 / math.pi ** (f.dim / 2.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gaussian(self, n):
        g = Gaussian(center=(0.1, -0.3, 0.2)[:n], width=0.9, amplitude=-1.3)
        X = np.random.default_rng(n).uniform(-2.0, 2.0, (40, n))
        ref = _gaussian_derivatives(g, X)[1]
        assert np.max(np.abs(self._laplacian(g, X) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("right", [Gaussian(center=(0.6, 0.1), width=1.2),
                                       SmoothBump(center=(0.2, -0.1), width=(1.1, 0.8))],
                             ids=["gaussian", "bump"])
    def test_product(self, right):
        # Laplacian (l r) = r Laplacian l + l Laplacian r + 2 grad l . grad r
        left = Gaussian(center=(0.0, 0.3), width=1.0)
        f = ProductField(left=left, right=right)
        X = np.random.default_rng(5).uniform(-1.2, 1.2, (40, 2))
        gl, ll = _gaussian_derivatives(left, X)
        gr, lr = (_gaussian_derivatives if isinstance(right, Gaussian)
                  else _bump_derivatives)(right, X)
        ref = (ll * right.values(X) + left.values(X) * lr
               + 2.0 * np.einsum("ij,ij->i", gl, gr))
        assert np.max(np.abs(self._laplacian(f, X) - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestFracLaplacian:
    def test_cube_exterior_matches_closed_form(self):
        from fracvar.fields import CubeIndicator, MagicCube

        a = 0.5
        cube = CubeIndicator(ndim=1)
        mc = MagicCube(alpha=a, ndim=1)
        for x in (1.5, 2.5, -3.0):
            lv = ops.frac_laplacian(cube, 1.0 - a, x)
            assert lv == pytest.approx(float(mc.values(np.array([[x]]))[0]), rel=1e-9)

    def test_cube_interior_matches_closed_form(self):
        from fracvar.fields import CubeIndicator, MagicCube

        lv = ops.frac_laplacian(CubeIndicator(ndim=1), 0.5, 0.3)
        ref = float(MagicCube(alpha=0.5, ndim=1).values(np.array([[0.3]]))[0])
        assert lv == pytest.approx(ref, rel=1e-9)

    def test_sign_at_strict_maximum(self):
        # f(y) - f(0) < 0 away from a strict max and the kernel constant is
        # negative, so the value is positive
        val = ops.frac_laplacian(Gaussian(center=(0.0,), width=1.0), 0.5, 0.0)
        assert val > 0.0

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_gaussian_against_frequency_side(self, beta):
        # independent oracle: the operator's symbol is (2 pi |xi|)^beta, so
        # for the unit gaussian the value is
        # 2 int_0^inf (2 pi xi)^beta e^(-pi xi^2) cos(2 pi x xi) dxi
        g = Gaussian(center=(0.0,), width=1.0)
        for x in (0.0, 0.7, 1.5):
            ker = ops.frac_laplacian(g, beta, x, QuadSpec(rel_tol=1e-10, abs_tol=1e-13))
            freq = 2.0 * integrate_1d(
                lambda xi: (2.0 * math.pi * xi) ** beta
                * np.exp(-math.pi * xi**2)
                * np.cos(2.0 * math.pi * x * xi),
                0.0, 4.5, singularities=[(0.0, beta)],
                spec=QuadSpec(rel_tol=1e-12, abs_tol=1e-15),
            ).value
            assert ker == pytest.approx(freq, abs=1e-10)

    @pytest.mark.parametrize("x", [0.4, 1.7, -0.9])
    def test_annulus_matches_difference_of_bumps(self, x):
        # OddBumpPair has no heat_factors, so it takes the n = 1 annulus; its
        # two lobes are SmoothBumps, which take the heat route
        res = ops.frac_laplacian(OddBumpPair(), 0.5, x, detail=True)
        ref = (ops.frac_laplacian(SmoothBump(center=(1.0,), width=1.0), 0.5, x)
               - ops.frac_laplacian(SmoothBump(center=(-1.0,), width=1.0), 0.5, x))
        assert res.converged
        assert abs(res.value - ref) <= res.err_estimate
        assert res.value == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("field", [Gaussian(center=(0.0,), width=1.0), IntervalIndicator(),
                                       OddBumpPair()])
    def test_budget_exhaustion_raises(self, field):
        from fracvar.quadrature import QuadratureBudgetError

        with pytest.raises(QuadratureBudgetError):
            ops.frac_laplacian(field, 0.5, 0.3, QuadSpec(max_evals=100))

    def test_magic_cube_2d_blowup_direction(self):
        # approaching the face midpoint from outside, values decrease without
        # bound (the defining region integral diverges in the limit)
        from fracvar.fields import MagicCube

        mc2 = MagicCube(alpha=0.5, ndim=2)
        vals = [float(mc2.values(np.array([[t, 0.0]]))[0]) for t in (1.1, 1.01, 1.001)]
        assert all(v < 0.0 for v in vals)
        assert vals[0] > vals[1] > vals[2]

    def test_laplacian_of_cube_2d_matches_magic_cube(self):
        from fracvar.fields import CubeIndicator, MagicCube

        lv = ops.frac_laplacian(CubeIndicator(ndim=2), 0.5, (1.1, 0.0))
        ref = float(MagicCube(alpha=0.5, ndim=2).values(np.array([[1.1, 0.0]]))[0])
        assert lv == pytest.approx(ref, rel=1e-6)


def _square_exit_integral(power: float, x, center=(0.0, 0.0), h: float = 1.0) -> float:
    """int_0^(2 pi) rho(theta)^power dtheta, rho the distance from an interior
    x to the boundary of the square center + (-h, h)^2 along theta, with
    breakpoints at the corner directions."""
    import mpmath as mp

    p = [mp.mpf(v) - mp.mpf(c) for v, c in zip(x, center)]
    h = mp.mpf(h)

    def rho(theta):
        u = (mp.cos(theta), mp.sin(theta))
        return min((h - mp.sign(ui) * pi) / abs(ui) for pi, ui in zip(p, u) if ui != 0)

    corners = sorted(
        mp.atan2(cy - p[1], cx - p[0]) % (2 * mp.pi) for cx in (-h, h) for cy in (-h, h)
    )
    return float(mp.quad(lambda t: rho(t) ** power, [0] + corners + [2 * mp.pi]))


def _square_polar_reference(beta: float, x) -> float:
    """Fractional Laplacian of the (-1, 1)^2 indicator at an interior x in
    polar coordinates: -nu(2, b)/b int rho(theta)^-b dtheta."""
    from fracvar.constants import nu

    return -nu(2, beta) * _square_exit_integral(-beta, x) / beta


def _cube_sphere_reference(beta: float, p) -> float:
    """Fractional Laplacian of the (-1, 1)^3 indicator at an interior p as an
    integral over the sphere of directions: -nu(3, b)/b int R(w)^-b dw, R the
    exit distance along w, in polar/azimuthal angles with the azimuthal
    breakpoints where the exit face changes."""
    integrate = pytest.importorskip("scipy.integrate")
    from fracvar.constants import nu

    gap = {(i, s): 1.0 - s * p[i] for i in range(3) for s in (1.0, -1.0)}
    axis_angle = {(0, 1.0): 0.0, (1, 1.0): math.pi / 2, (0, -1.0): math.pi, (1, -1.0): -math.pi / 2}

    def exit_dist(w):
        return min(gap[i, math.copysign(1.0, wi)] / abs(wi) for i, wi in enumerate(w) if wi)

    def phi_kinks(theta):
        st, ct = math.sin(theta), math.cos(theta)
        kinks = [  # between an x face and a y face
            math.atan2(sy * gap[1, sy], sx * gap[0, sx]) for sx in (1.0, -1.0) for sy in (1.0, -1.0)
        ]
        for face, angle in axis_angle.items():  # between a side face and the z face
            c = gap[face] * abs(ct) / (gap[2, math.copysign(1.0, ct)] * st)
            if c < 1.0:
                kinks += [angle + math.acos(c), angle - math.acos(c)]
        return sorted({k % (2 * math.pi) for k in kinks})

    def ring(theta):
        st, ct = math.sin(theta), math.cos(theta)

        def g(phi):
            return exit_dist((st * math.cos(phi), st * math.sin(phi), ct)) ** -beta

        edges = [0.0] + phi_kinks(theta) + [2 * math.pi]
        return st * sum(
            integrate.quad(g, a, b, epsabs=1e-14, epsrel=1e-12)[0]
            for a, b in zip(edges[:-1], edges[1:])
            if b > a
        )

    corners = sorted(
        {
            math.acos((c[2] - p[2]) / math.dist(c, p))
            for c in itertools.product((1.0, -1.0), repeat=3)
        }
    )
    edges = [0.0] + corners + [math.pi]
    val = sum(
        integrate.quad(ring, a, b, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )
    return -nu(3, beta) * val / beta


class TestAngularProfileFlag:
    """An angular profile that stops short of its tolerance makes the
    operator's result unconverged, even where the radial integral over the
    profiles meets its own tolerance."""

    @pytest.mark.parametrize("op", [
        ops.riesz_potential,
        lambda f, a, x, spec=None: ops.nl_gradient(f, Gaussian(center=(0.6, -0.3), width=1.2),
                                                   a, x, spec),
    ], ids=["riesz_potential", "nl_gradient"])
    def test_short_profile_raises(self, op, monkeypatch):
        # without heat_factors the Gaussian's potential takes the angular
        # path; nl_gradient takes it in n >= 2 for every field
        f = _PlainField(Gaussian(center=(0.1, -0.2), width=1.0))
        x = (0.3, 0.2)
        used = []
        profile = ops.angular_profile

        def spy(*args, **kw):
            res = profile(*args, **kw)
            used.append(kw["counter"].used if "counter" in kw else args[5].used)
            return res

        monkeypatch.setattr(ops, "angular_profile", spy)
        value = op(f, 0.5, x)
        budget = used[-1]  # the last evaluation is the last profile's finest level
        assert np.array_equal(op(f, 0.5, x, QuadSpec(rel_tol=1e-6, max_evals=budget)), value)
        with pytest.raises(QuadratureBudgetError):
            op(f, 0.5, x, QuadSpec(rel_tol=1e-6, max_evals=budget - 1))


class TestCubeKernelIntegral:
    """Indicator Laplacians of the square and the cube through the flux form."""

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("x", [(0.3, 0.2), (-0.85, 0.6)])
    def test_square_interior_against_polar_reference(self, beta, x):
        pytest.importorskip("mpmath")
        from fracvar.fields import CubeIndicator

        lv = ops.frac_laplacian(CubeIndicator(ndim=2), beta, x)
        assert lv == pytest.approx(_square_polar_reference(beta, x), rel=1e-6)

    def test_cube_interior_against_sphere_reference(self):
        from fracvar.fields import CubeIndicator

        p = (0.2, 0.1, -0.3)
        lv = ops.frac_laplacian(CubeIndicator(ndim=3), 0.5, p)
        assert lv == pytest.approx(_cube_sphere_reference(0.5, p), rel=1e-6)

    @pytest.mark.parametrize(
        "beta, x, ref",
        [  # values of the nested slab quadrature this form replaced
            (0.5, (1.3, 0.2), -0.32777732269039556),
            (0.25, (1.1, 0.0), -0.325151209316587),
            (0.75, (1.6, -1.4), -0.09351543154658472),
            (0.5, (-1.05, 0.7), -1.2503149697373124),
            (0.5, (1.3, 0.2, -0.4), -0.2588656806296843),
            (0.25, (1.5, -1.2, 0.3), -0.03183858596506953),
        ],
    )
    def test_exterior_values_pinned(self, beta, x, ref):
        from fracvar.fields import CubeIndicator

        lv = ops.frac_laplacian(CubeIndicator(ndim=len(x)), beta, x)
        assert lv == pytest.approx(ref, rel=1e-8)

    def test_budget_exhaustion_raises(self):
        from fracvar.fields import CubeIndicator
        from fracvar.quadrature import QuadratureBudgetError

        with pytest.raises(QuadratureBudgetError):
            ops.frac_laplacian(CubeIndicator(ndim=2), 0.5, (0.3, 0.2), QuadSpec(max_evals=100))

    def test_rejected_inputs(self):
        from fracvar.fields import SingularPointError
        from fracvar.quadrature import NonIntegrableSingularityError

        with pytest.raises(SingularPointError):
            ops.cube_kernel_integral(np.array([1.0, 0.3]), 2.5)
        with pytest.raises(ValueError):  # complement diverges at infinity
            ops.cube_kernel_integral(np.array([0.2, 0.3]), 1.5, over_complement=True)
        with pytest.raises(NonIntegrableSingularityError):
            ops.cube_kernel_integral(np.array([0.2, 0.3, 0.1]), 3.5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_far_point_approaches_point_mass(self, n):
        # |y - p|^-E over the unit-volume cube tends to |p|^-E as p -> infinity
        p = np.full(n, 40.0)
        val = ops.cube_kernel_integral(p, n + 0.5, half_width=0.5)
        assert val == pytest.approx(np.linalg.norm(p) ** -(n + 0.5), rel=1e-3)


class TestNlGradient:
    def test_zero_second_field(self):
        # a constant (here identically zero) second factor kills the integrand
        f = Gaussian(center=(0.0,), width=1.0)
        z = ScaledField(base=SmoothBump(center=(0.0,), width=1.0), factor=0.0)
        assert ops.nl_gradient(f, z, 0.5, 0.3)[0] == 0.0

    def test_symmetry_in_the_pair(self):
        f = Gaussian(center=(0.0,), width=1.0)
        g = Gaussian(center=(0.6,), width=1.2)
        v12 = ops.nl_gradient(f, g, 0.5, 0.4)[0]
        v21 = ops.nl_gradient(g, f, 0.5, 0.4)[0]
        assert v12 == pytest.approx(v21, rel=1e-12)

    def test_leibniz_rearrangement_for_equal_fields(self):
        # nl(f, f) = grad_a(f^2) - 2 f grad_a f for smooth f
        a = 0.5
        f = Gaussian(center=(0.0,), width=1.0)
        x = 0.4
        nl = ops.nl_gradient(f, f, a, x)[0]
        sq = ProductField(left=f, right=f)
        ref = ops.frac_gradient(sq, a, x)[0] - 2.0 * float(
            f.values(np.array([[x]]))[0]
        ) * ops.frac_gradient(f, a, x)[0]
        assert nl == pytest.approx(ref, rel=1e-7)


    @pytest.mark.parametrize("n, x", [(1, 0.3), (2, (0.3, -0.2))])
    def test_budget_exhaustion_raises(self, n, x):
        f = Gaussian(center=(0.0,) * n, width=1.0)
        g = Gaussian(center=(0.5,) * n, width=1.2)
        assert not ops.nl_gradient(f, g, 0.5, x, QuadSpec(max_evals=100), detail=True).converged
        with pytest.raises(QuadratureBudgetError):
            ops.nl_gradient(f, g, 0.5, x, QuadSpec(max_evals=100))

    @pytest.mark.parametrize("n, x", [(1, 0.3), (2, (0.3, -0.2))])
    def test_detail_matches_bare_call(self, n, x):
        f = Gaussian(center=(0.0,) * n, width=1.0)
        g = Gaussian(center=(0.5,) * n, width=1.2)
        res = ops.nl_gradient(f, g, 0.5, x, detail=True)
        assert res.converged and np.array_equal(res.value, ops.nl_gradient(f, g, 0.5, x))
        assert 0.0 <= float(np.max(res.err_estimate)) < 1e-6 and res.evals_used > 0


class TestAngularToleranceRelativeToField:
    """Angular profiles meet a tolerance relative to the field's sup-norm
    bound, so scaling the field scales the value and nothing else.  The
    Riesz potential of a Gaussian takes the heat route, so its angular case
    uses a Gaussian without ``heat_factors``."""

    big = Gaussian(center=(0.1, -0.2), amplitude=1e8)
    unit = Gaussian(center=(0.1, -0.2))
    other = Gaussian(center=(0.6, -0.3), width=1.2)
    x = (0.3, 0.2)

    def test_riesz_potential(self):
        v = ops.riesz_potential(_PlainField(self.big), 0.5, self.x)
        ref = ops.riesz_potential(_PlainField(self.unit), 0.5, self.x)
        assert v == pytest.approx(1e8 * ref, rel=1e-12)

    @pytest.mark.parametrize("op", [ops.riesz_potential, ops.frac_laplacian])
    def test_heat_route(self, op):
        v = op(self.big, 0.5, self.x)
        assert v == pytest.approx(1e8 * op(self.unit, 0.5, self.x), rel=1e-12)

    def test_nl_gradient(self):
        v = ops.nl_gradient(self.big, self.other, 0.5, self.x)
        ref = 1e8 * ops.nl_gradient(self.unit, self.other, 0.5, self.x)
        assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref))


@dataclass(frozen=True)
class _RegionOnly(ScalarField):
    """An indicator known only by its ``region`` trait: it delegates its
    values and region to ``base`` and is none of the indicator classes."""

    base: ScalarField

    @property
    def kind(self) -> str:
        return "region_only"

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def region(self):
        return self.base.region

    def values(self, X: np.ndarray) -> np.ndarray:
        return self.base.values(X)


class TestRegionTrait:
    """The operators dispatch indicators on ``region``, not on their class."""

    @pytest.mark.parametrize("base, x", [
        (IntervalIndicator(a=-1.0, b=0.5), 0.2),
        (IntervalIndicator(a=-1.0, b=0.5), 1.3),
        (HalfSpaceIndicator(halfspace=HalfSpace.make((-1.0,), (0.2,))), 0.7),
        (HalfSpaceIndicator(halfspace=HalfSpace.make((0.6, 0.8), (0.1, 0.1))), (0.4, -0.3)),
    ])
    def test_gradient_takes_the_indicator_path(self, base, x):
        res = ops.frac_gradient(_RegionOnly(base), 0.5, x, detail=True)
        ref = ops.frac_gradient(base, 0.5, x, detail=True)
        assert np.array_equal(res.value, ref.value) and res.evals_used == ref.evals_used

    @pytest.mark.parametrize("base, x", [
        (IntervalIndicator(a=-1.0, b=0.5), 0.2),
        (HalfSpaceIndicator(halfspace=HalfSpace.make((1.0,), (0.2,))), -0.4),
        (CubeIndicator(ndim=2, half_width=0.5, center=(0.1, -0.2)), (0.3, 0.1)),
    ])
    def test_laplacian_takes_the_indicator_path(self, base, x):
        assert ops.frac_laplacian(_RegionOnly(base), 0.5, x) == ops.frac_laplacian(base, 0.5, x)

    @pytest.mark.parametrize("base", [IntervalIndicator(), CubeIndicator()])
    @pytest.mark.parametrize("x", [-1.0, 1.0])
    def test_jump_set_is_singular(self, base, x):
        # the gradient and the Laplacian kernels are not integrable at the jump
        for f in (base, _RegionOnly(base)):
            with pytest.raises(SingularPointError):
                ops.frac_gradient(f, 0.5, x, detail=True)
            with pytest.raises(SingularPointError):
                ops.frac_laplacian(f, 0.5, x)

    @pytest.mark.parametrize("x", [-1.0, 1.0])
    def test_interval_potential_at_endpoint(self, x):
        # I_s of the interval's indicator is finite and continuous at its
        # endpoints: k(1, s) int_0^2 r^(s-1) dr = k(1, s) 2^s / s
        s = 0.5
        for f in (IntervalIndicator(), _RegionOnly(IntervalIndicator())):
            v = ops.riesz_potential(f, s, x)
            assert v == pytest.approx(ops.riesz_constant(1, s) * 2.0**s / s, rel=1e-10)

    @pytest.mark.parametrize("x", [-1.0, 1.0])
    def test_nl_gradient_at_endpoint(self, x):
        # one jump against a smooth field is integrable; two jumps are not
        chi, g = IntervalIndicator(), Gaussian(center=(0.0,), width=1.0)
        assert np.all(np.isfinite(ops.nl_gradient(chi, g, 0.5, x)))
        with pytest.raises(SingularPointError):
            ops.nl_gradient(chi, chi, 0.5, x)


class TestSpectralOracle:
    def test_antisymmetry(self):
        g = Gaussian(center=(0.0,), width=1.0)
        vp = ops.spectral_gradient_1d(g, 0.5, 0.9)
        vm = ops.spectral_gradient_1d(g, 0.5, -0.9)
        assert vp == pytest.approx(-vm, rel=1e-10)

    def test_classical_limit(self):
        g = Gaussian(center=(0.0,), width=1.0)
        x = 0.7
        v = ops.spectral_gradient_1d(g, 0.999, x)
        classical = float(g.heat_factors[0].deriv(np.array([x]))[0])
        assert v == pytest.approx(classical, rel=1e-2)

    def test_gaussian_only(self):
        with pytest.raises(UnsupportedFieldError):
            ops.spectral_gradient_1d(SmoothBump(center=(0.0,), width=1.0), 0.5, 0.0)


class TestGagliardo:
    def test_zero_field(self):
        z = ScaledField(base=SmoothBump(center=(0.0,), width=1.0), factor=0.0)
        assert ops.gagliardo_seminorm(z, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_scaling(self):
        f = SmoothBump(center=(0.0,), width=1.0)
        s1 = ops.gagliardo_seminorm(f, 0.5)
        s3 = ops.gagliardo_seminorm(ScaledField(base=f, factor=3.0), 0.5)
        assert s3 == pytest.approx(3.0 * s1, rel=1e-10)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureBudgetError):
            ops.gagliardo_seminorm(SmoothBump(center=(0.0,), width=1.0), 0.5,
                                   QuadSpec(max_evals=100))

    def test_dominates_gradient_l1_norm(self):
        a = 0.5
        f = SmoothBump(center=(0.0,), width=1.0)
        seminorm = ops.gagliardo_seminorm(f, a)

        def absg(xs):
            return np.abs(ops.frac_gradient_batch(f, a, xs[:, None])[:, 0])

        l1 = integrate_1d(
            absg, -math.inf, math.inf,
            singularities=[(math.inf, 1.0 + a), (-math.inf, 1.0 + a)],
            spec=QuadSpec(rel_tol=1e-7, abs_tol=1e-10),
        ).value
        assert l1 <= mu(1, a) * seminorm + 1e-8

    # seminorms at alpha = 0.25, 0.5, 0.75 before the inner panels were cut
    # at their kinks; the cut moves them by about 1e-9 relative
    UNCUT = {
        "bump": (SmoothBump(center=(0.0,), width=1.0),
                 (24.26095446189221, 17.269575404978294, 22.04504876428737)),
        "offset_product": (ProductField(left=SmoothBump(center=(-0.3,), width=1.0),
                                        right=SmoothBump(center=(0.2,), width=0.8)),
                           (13.4140961150642, 10.983569420234877, 16.163436039621608)),
    }

    @pytest.mark.parametrize("name", sorted(UNCUT))
    def test_kink_cut_keeps_the_seminorm(self, name):
        f, pinned = self.UNCUT[name]
        for a, ref in zip((0.25, 0.5, 0.75), pinned):
            assert ops.gagliardo_seminorm(f, a) == pytest.approx(ref, rel=1e-8)

    @staticmethod
    def _layer_cake(a: float) -> float:
        """The seminorm of the bump exp(1 - 1/(1 - x^2)) by the layer-cake
        formula, its level sets (-L_t, L_t) with t = e^(-s):
        4 2^(1-a)/(a (1-a)) int_0^inf e^(-s) (s/(1 + s))^((1-a)/2) ds."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            p = (1 - mp.mpf(a)) / 2
            s = mp.quad(lambda t: mp.exp(-t) * (t / (1 + t)) ** p, [0, 1, mp.inf])
            return float(4 * mp.mpf(2) ** (1 - a) / (a * (1 - a)) * s)

    def test_folded_outer_keeps_the_seminorm(self, monkeypatch):
        # each outer evaluation runs one lockstep batch on both halves' nodes:
        # 52 batches for the seminorms at 0.25, 0.5, 0.75 before the fold.
        # The reference is exact, and the product panels about the diagonal
        # meet it to 8.5e-12 relative
        batches = {}
        batch = ops._adaptive_batch

        def counted(*args):
            batches[a] = batches.get(a, 0) + 1
            return batch(*args)

        monkeypatch.setattr(ops, "_adaptive_batch", counted)
        f = SmoothBump(center=(0.0,), width=1.0)
        for a in (0.1, 0.25, 0.5, 0.75, 0.9):
            ref = self._layer_cake(a)
            assert abs(ops.gagliardo_seminorm(f, a) - ref) <= 2e-11 * ref, a
        assert batches[0.25] + batches[0.5] + batches[0.75] <= 26

    def test_off_center_bump_meets_the_layer_cake(self):
        # the seminorm is translation invariant and scales as w^(1-a) in the
        # width: the one-sided inner integrals meet the exact value to
        # 8.7e-12 relative off the origin too
        f = SmoothBump(center=(0.3,), width=0.7)
        for a in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            ref = 0.7 ** (1.0 - a) * self._layer_cake(a)
            assert abs(ops.gagliardo_seminorm(f, a) - ref) <= 2e-11 * ref, a

    @pytest.mark.parametrize("offset, scale", [(1.0, 0.5), (2.0, 1.0), (1.5, 1.5)])
    def test_odd_pair_meets_the_layer_cake(self, offset, scale):
        # with disjoint lobes (offset >= scale), f(x) - f(y) = b+(x) + b-(y)
        # on the cross terms, so the seminorm is that of the two lobes apart:
        # 2 scale^(1-a) times the layer-cake value, exactly
        f = OddBumpPair(offset=offset, scale=scale)
        for a in (0.1, 0.25, 0.5, 0.75, 0.9):
            ref = 2.0 * scale ** (1.0 - a) * self._layer_cake(a)
            assert abs(ops.gagliardo_seminorm(f, a) - ref) <= 6e-10 * ref, a

    def test_inner_integrals_are_one_sided(self, monkeypatch):
        # the integrals over y > x only: the two-sided inner integrals of
        # the three default seminorms were 37,334 intervals
        intervals = 0
        batch = ops._adaptive_batch

        def counted(g, a, b, *args):
            nonlocal intervals
            intervals += a.size
            return batch(g, a, b, *args)

        monkeypatch.setattr(ops, "_adaptive_batch", counted)
        f = SmoothBump(center=(0.0,), width=1.0)
        for a in (0.25, 0.5, 0.75):
            ops.gagliardo_seminorm(f, a)
        assert intervals <= 18_667

    def test_kink_cut_lockstep_rounds(self, monkeypatch):
        # each call of a batch integrand is one lockstep round; bisecting
        # toward the kinks took 908 rounds for these three seminorms
        rounds = 0
        batch = ops._adaptive_batch

        def counted_batch(g, *args):
            def counted(x, owner):
                nonlocal rounds
                rounds += 1
                return g(x, owner)

            return batch(counted, *args)

        monkeypatch.setattr(ops, "_adaptive_batch", counted_batch)
        f = SmoothBump(center=(0.0,), width=1.0)
        for a in (0.25, 0.5, 0.75):
            ops.gagliardo_seminorm(f, a)
        assert rounds < 400


class TestVariationLowerBound:
    PAIRINGS = Path(__file__).resolve().parent / "data" / "varbound-pairings.json"

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_pairings_are_pinned(self, a):
        # written by the per-order route before the order axis replaced it;
        # the pairings must not move by a bit
        chi = IntervalIndicator(a=-1.0, b=1.0)
        pinned = json.loads(self.PAIRINGS.read_text(encoding="utf-8"))[repr(a)]
        assert ops.variation_lower_bound_detail(chi, a, ops.default_test_family()) == pinned

    def test_order_axis_matches_one_order_calls(self):
        chi = IntervalIndicator(a=-1.0, b=1.0)
        xs, _ = ops._support_grid(chi, 16)
        alphas = (0.25, 0.5, 0.75)
        far_targets = []
        for phi in ops.default_test_family():
            comp = phi.components[0]
            box = ops._field_box(comp)
            rows = ops._grad_batch_1d(comp, alphas, xs, box)
            far_targets.append(int(ops._far_targets(comp, box, xs).sum()))
            for a, row in zip(alphas, rows):
                assert row.tobytes() == ops.frac_gradient_batch(comp, a, xs)[:, 0].tobytes()
        # field 18, SmoothBump(center=(-1,), width=0.5), takes the far sum
        assert far_targets[18] == 32

    def test_suite_pairs_each_field_once(self, monkeypatch):
        calls = []
        kernel = ops._grad_batch_1d

        def counted(f, alphas, *args):
            calls.append(len(alphas))
            return kernel(f, alphas, *args)

        monkeypatch.setattr(ops, "_grad_batch_1d", counted)
        report = run_suite("varbound")
        assert report.passed
        assert calls == [3] * 20

    def test_empty_family(self):
        chi = IntervalIndicator(a=-1.0, b=1.0)
        assert ops.variation_lower_bound(chi, 0.5, ()) == 0.0

    def test_monotone_in_family(self):
        chi = IntervalIndicator(a=-1.0, b=1.0)
        family = ops.default_test_family()
        partial = ops.variation_lower_bound(chi, 0.5, family[:5])
        full = ops.variation_lower_bound(chi, 0.5, family)
        assert full >= partial

    def test_default_family_quality(self):
        from fracvar.closed_forms import interval_identities

        chi = IntervalIndicator(a=-1.0, b=1.0)
        family = ops.default_test_family()
        assert len(family) == 20
        bound = ops.variation_lower_bound(chi, 0.5, family)
        exact = interval_identities(0.5)[1]
        assert 0.6 * exact <= bound <= exact * (1.0 + 1e-9)

    def test_norm_violation_rejected(self):
        chi = IntervalIndicator(a=-1.0, b=1.0)
        bad = VectorField(
            components=(ScaledField(base=SmoothBump(center=(0.0,), width=1.0), factor=1.5),)
        )
        with pytest.raises(ops.TestFieldNormError):
            ops.variation_lower_bound(chi, 0.5, (bad,))

    @pytest.mark.parametrize("centers", [((0.0, 0.0),), ((0.0, 0.0), (0.5, 0.0))],
                             ids=["one_component", "two_components"])
    def test_test_field_in_2d_rejected(self, centers):
        chi = IntervalIndicator(a=-1.0, b=1.0)
        phi = VectorField(components=tuple(SmoothBump(center=c, width=1.0) for c in centers))
        with pytest.raises(ops.TestFieldNormError, match="1-d"):
            ops.variation_lower_bound(chi, 0.5, (phi,))

    def test_zero_field_pairs_to_zero(self):
        zero = ScaledField(base=SmoothBump(center=(0.0,), width=1.0), factor=0.0)
        family = ops.default_test_family()[:3]
        assert ops.variation_lower_bound(zero, 0.5, family) == pytest.approx(0.0, abs=1e-14)


class TestParityFold:
    """The n = 1 batch samples an even or odd field at each distinct |x| of a
    row block; the values are those of the unfolded batch, bit for bit."""

    ALPHAS = (0.25, 0.5, 0.75)

    @staticmethod
    def _unfolded(monkeypatch, fields):
        for cls in {type(f) for f in fields}:
            monkeypatch.setattr(cls, "parity", 0)

    def test_variation_pairing_grid(self, monkeypatch):
        xs, _ = ops._support_grid(IntervalIndicator(a=-1.0, b=1.0), 16)
        fields = [phi.components[0] for phi in ops.default_test_family()]
        assert sum(f.parity != 0 for f in fields) == 15
        folded = [ops._grad_batch_1d(f, self.ALPHAS, xs, ops._batch_box(f)) for f in fields]
        self._unfolded(monkeypatch, fields)
        for f, rows in zip(fields, folded):
            assert rows.tobytes() == ops._grad_batch_1d(f, self.ALPHAS, xs,
                                                        ops._batch_box(f)).tobytes(), f

    def test_tail_targets(self, monkeypatch):
        # the weighted suite's tail integrals take |grad| at x and -x
        f = SmoothBump(center=(0.0,), width=1.0)
        targets = []
        batch = ops._grad_batch_1d

        def recorded(g, alphas, X, box):
            targets.append(X.copy())
            return batch(g, alphas, X, box)

        monkeypatch.setattr(ops, "_grad_batch_1d", recorded)
        suites._tail_integrals(f, self.ALPHAS, (0.5, 1.0, 2.0))
        monkeypatch.setattr(ops, "_grad_batch_1d", batch)
        assert all(np.array_equal(X[len(X) // 2:], -X[:len(X) // 2]) for X in targets)
        box = ops._batch_box(f)
        folded = [batch(f, self.ALPHAS, X, box) for X in targets]
        self._unfolded(monkeypatch, [f])
        for X, rows in zip(targets, folded):
            assert rows.tobytes() == batch(f, self.ALPHAS, X, box).tobytes()

    def test_mirrors_are_sampled_once(self, monkeypatch):
        f = OddPlateau(span=5.0, core=0.35, edge=0.8)
        xs = np.linspace(0.25, 2.0, 8)
        X = np.concatenate([xs, -xs])[:, None]
        points = []
        values = OddPlateau.values

        def counted(self, P):
            points.append(P.shape[0])
            return values(self, P)

        monkeypatch.setattr(OddPlateau, "values", counted)
        folded = ops._grad_batch_1d(f, self.ALPHAS, X, ops._batch_box(f))
        sampled = sum(points)
        points.clear()
        self._unfolded(monkeypatch, [f])
        unfolded = ops._grad_batch_1d(f, self.ALPHAS, X, ops._batch_box(f))
        assert 2 * sampled == sum(points)
        assert folded.tobytes() == unfolded.tobytes()


class TestThreeDimensions:
    def test_gradient_vanishes_at_gaussian_center(self):
        g3 = Gaussian(center=(0.0, 0.0, 0.0), width=1.0)
        v = ops.frac_gradient(g3, 0.5, (0.0, 0.0, 0.0), QuadSpec(rel_tol=1e-5, abs_tol=1e-7))
        assert np.max(np.abs(v)) < 1e-6

    def test_half_space_gradient_3d(self):
        hs = HalfSpaceIndicator(halfspace=HalfSpace.make((0.0, 0.0, 1.0)))
        g = ops.frac_gradient(hs, 0.5, (0.3, -0.2, 1.5))
        from fracvar.closed_forms import half_space_gradient

        ref = half_space_gradient(0.5, hs.halfspace, (0.3, -0.2, 1.5))
        assert np.max(np.abs(g - ref)) < 1e-8 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, nu, tangent", [
    (2, (0.6, 0.8), (0.8, -0.6)),
    (3, (2 / 7, 3 / 7, 6 / 7), (3 / 7, -2 / 7, 0.0)),
])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_half_space_gradient_matches_closed_form(n, nu, tangent, alpha):
    # the wedge route's radial integral, from the edge at r = |d| out over
    # the algebraic tail, at near, middle and far distances on both sides
    # of the hyperplane, against (mu(1, a)/a) nu / |d|^a
    from fracvar.closed_forms import half_space_gradient

    H = HalfSpace.make(nu, (0.1,) * n)
    hs = HalfSpaceIndicator(halfspace=H)
    spec = QuadSpec(rel_tol=1e-10)
    for d in (1e-3, 0.7, 40.0):
        for side in (1.0, -1.0):
            x = 0.1 + side * d * np.array(nu) + 0.3 * np.array(tangent)
            res = ops.frac_gradient(hs, alpha, x, spec, detail=True)
            ref = half_space_gradient(alpha, H, x)
            assert res.converged, (d, side)
            assert np.max(np.abs(res.value - ref)) <= spec.rel_tol * np.max(np.abs(ref)), (d, side)
