"""Gamma backend and normalization constants against a high-precision oracle."""

import math
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvar.constants import (
    GammaPoleError,
    ball_volume,
    gamma,
    hardy_constants,
    mu,
    nu,
    sphere_area,
    validate_dim,
)

mp.mp.dps = 40


def mp_gamma(x: float) -> float:
    return float(mp.gamma(x))


class TestGamma:
    def test_spot_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-12)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        # recurrence: Gamma(-1/4) = Gamma(3/4) / (-1/4); frozen from the
        # high-precision series oracle
        assert gamma(-0.25) == pytest.approx(-4.9016668098607106, rel=1e-12)
        assert gamma(-0.25) == pytest.approx(gamma(0.75) / (-0.25), rel=1e-12)

    def test_against_series_oracle_random_sample(self):
        rng = np.random.default_rng(20240817)
        count = 0
        while count < 200:
            x = float(rng.uniform(-64.0, 64.0))
            if x <= 0 and abs(x - round(x)) < 1e-2:
                continue
            count += 1
            assert gamma(x) == pytest.approx(mp_gamma(x), rel=1e-12), f"x={x}"

    @given(st.floats(min_value=-60.0, max_value=60.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        if (x <= 0 and abs(x - round(x)) < 1e-2) or abs(x) < 1e-2:
            return
        if x + 1 <= 0 and abs(x + 1 - round(x + 1)) < 1e-2:
            return
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_reflection(self, x):
        lhs = gamma(x) * gamma(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_pole_raises(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(GammaPoleError):
                gamma(x)

    def test_range_cap(self):
        with pytest.raises(ValueError):
            gamma(65.0)
        with pytest.raises(ValueError):
            gamma(-70.0)


class TestMu:
    def test_spot_values(self):
        # exact reductions: 1/(2 sqrt(2 pi)) and 1/sqrt(2 pi)
        assert mu(1, 0.5) == pytest.approx(0.19947114020071634, rel=1e-13)
        assert mu(1, -0.5) == pytest.approx(0.39894228040143268, rel=1e-13)

    def test_definition_round_trip(self):
        for n in (1, 2, 3, 5, 8):
            for a in np.linspace(-0.9, 0.9, 13):
                a = float(a)
                lhs = mu(n, a) * gamma((1.0 - a) / 2.0) / (2.0**a * math.pi ** (-n / 2.0))
                assert lhs == pytest.approx(gamma((n + a + 1.0) / 2.0), rel=1e-12)

    def test_monotone_in_alpha_n1(self):
        # sample-grid check: mu(1, .) decreases on (0, 1), vanishing at 1
        # where the reciprocal Gamma factor blows up
        grid = np.linspace(0.05, 0.95, 40)
        vals = [mu(1, float(a)) for a in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.05

    def test_positive_on_domain_grid(self):
        for n in range(1, 9):
            for a in np.linspace(-0.95, 0.95, 21):
                assert mu(n, float(a)) > 0.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            mu(1, 1.0)
        with pytest.raises(ValueError):
            mu(0, 0.5)
        with pytest.raises(ValueError):
            mu(9, 0.5)


class TestNu:
    def test_spot_value(self):
        assert nu(1, 0.5) == pytest.approx(-0.19947114020071634, rel=1e-13)
        assert nu(1, 0.5) == pytest.approx(-mu(1, 0.5), rel=1e-13)

    def test_against_series_oracle_n2(self):
        assert nu(2, 0.5) == pytest.approx(-0.083241983875425065, rel=1e-12)

    @given(st.integers(min_value=1, max_value=8),
           st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
    @settings(max_examples=100, deadline=None)
    def test_always_negative(self, n, beta):
        assert nu(n, beta) < 0.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            nu(1, 0.0)
        with pytest.raises(ValueError):
            nu(1, 1.0)


class TestBallVolume:
    def test_low_dimensions(self):
        assert ball_volume(1) == pytest.approx(2.0, rel=1e-13)
        assert ball_volume(2) == pytest.approx(math.pi, rel=1e-13)
        assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)

    def test_sphere_area(self):
        assert sphere_area(1) == pytest.approx(2.0, rel=1e-13)
        assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-13)
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-13)


class TestHardyConstants:
    def test_optimal_1d_value(self):
        c_half, _, c_max = hardy_constants(1, 0.5)
        assert c_half == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)
        assert c_half == pytest.approx(4.0 * mu(1, 0.5), rel=1e-13)
        assert c_max >= c_half

    def test_spector_dominates_in_3d(self):
        # for n = 3 the interpolation constant exceeds the 1-d constant on the
        # whole order grid
        for a in [0.1 * k for k in range(1, 10)]:
            c_half, gamma_spector, c_max = hardy_constants(3, a)
            assert gamma_spector > c_half
            assert c_max == gamma_spector

    @given(st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100, deadline=None)
    def test_max_definition(self, n, a):
        c_half, gamma_spector, c_max = hardy_constants(n, a)
        assert c_half > 0 and gamma_spector > 0
        assert c_max == max(c_half, gamma_spector)


def test_cache_thread_consistency():
    # cached constants must read the same from concurrent callers
    with ThreadPoolExecutor(max_workers=8) as pool:
        vals = list(pool.map(lambda _: mu(2, 0.37), range(64)))
    assert len(set(vals)) == 1


def test_validate_dim():
    assert validate_dim(3) == 3
    with pytest.raises(TypeError):
        validate_dim(2.0)
    with pytest.raises(ValueError):
        validate_dim(4, max_dim=3)
