"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance below is pinned, nothing is deferred to calibration.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from fracvar import closed_forms as cf
from fracvar import operators as ops
from fracvar.constants import mu
from fracvar.fields import Gaussian, HalfSpace, HalfSpaceIndicator
from fracvar.quadrature import QuadSpec, integrate_1d
from fracvar.suites import (
    suite_chain_failure,
    suite_gagliardo_bound,
    suite_gauss_green,
    suite_halfspace,
    suite_hardy_halfspace,
    suite_hardy_optimal,
    suite_ibp,
    suite_leibniz,
    suite_rigidity,
    suite_weighted_hardy,
)

ALPHA_NINE = tuple(round(0.1 * k, 1) for k in range(1, 10))


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_01_hardy_optimality():
    t0 = time.perf_counter()
    worst_identity = 0.0
    worst_quad = 0.0
    for a in ALPHA_NINE:
        hardy_integral, variation, constant = cf.interval_identities(a)
        worst_identity = max(
            worst_identity,
            abs(constant * (2.0 / (1.0 - a)) - 4.0 * mu(1, a) / (a * (1.0 - a)))
            / (4.0 * mu(1, a) / (a * (1.0 - a))),
        )
        quad = integrate_1d(
            lambda x: np.abs(x) ** -a, -1.0, 1.0, singularities=[(0.0, -a)],
            spec=QuadSpec(rel_tol=1e-10, abs_tol=1e-13),
        ).value
        worst_quad = max(worst_quad, abs(quad - hardy_integral) / hardy_integral)
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-14 and worst_quad <= 1e-8 and elapsed < 5.0
    _report(1, "hardy optimal constant",
            ok, f"(identity {worst_identity:.2e}, quad {worst_quad:.2e}, {elapsed:.2f}s)")


def test_criterion_02_half_space_gradient():
    t0 = time.perf_counter()
    rep = suite_halfspace()
    elapsed = time.perf_counter() - t0
    one_d = [c for c in rep.cases if c.case_id.startswith("hs_1d")]
    two_d = [c for c in rep.cases if c.case_id.startswith("hs_2d_a")]
    tang = [c for c in rep.cases if "tangential" in c.case_id]
    ok = (
        len(one_d) == 9 and all(c.rel_err <= 1e-6 for c in one_d)
        and len(two_d) == 3 and all(c.rel_err <= 1e-4 for c in two_d)
        and len(tang) == 3 and all(c.abs_err <= 1e-8 for c in tang)
        and elapsed < 60.0
    )
    worst = max(c.rel_err for c in one_d + two_d)
    _report(2, "half-space gradient vs closed form", ok,
            f"(worst rel {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_gamma_radial_integral():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 5):
        for a in (0.25, 0.5, 0.75):
            quad = integrate_1d(
                lambda r: r ** (n - 2) * (1.0 + r * r) ** (-(n + a - 1.0) / 2.0),
                0.0, math.inf, singularities=[(math.inf, 1.0 + a)],
                spec=QuadSpec(rel_tol=1e-10, abs_tol=1e-14),
            ).value
            ref = cf.gamma_radial_integral(n, a)
            worst = max(worst, abs(quad - ref) / ref)
    worst_n3 = max(
        abs(cf.gamma_radial_integral(3, a) - 1.0 / a) * a for a in (0.25, 0.5, 0.75)
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and worst_n3 <= 1e-12 and elapsed < 5.0
    _report(3, "radial Gamma-integral identity", ok,
            f"(quad {worst:.2e}, n=3 {worst_n3:.2e}, {elapsed:.2f}s)")


def test_criterion_04_integration_by_parts():
    t0 = time.perf_counter()
    rep = suite_ibp()
    elapsed = time.perf_counter() - t0
    one_d = [c for c in rep.cases if c.n == 1 and c.case_id != "ibp_1d_zero"]
    two_d = [c for c in rep.cases if c.n == 2]
    ok = (
        all(c.rel_err <= 1e-6 for c in one_d)
        and len(two_d) == 1 and two_d[0].rel_err <= 1e-4
        and elapsed < 120.0
    )
    _report(4, "integration by parts", ok,
            f"(1d worst {max(c.rel_err for c in one_d):.2e}, "
            f"2d {two_d[0].rel_err:.2e}, {elapsed:.1f}s)")


def test_criterion_05_chain_rule_failure():
    t0 = time.perf_counter()
    rep = suite_chain_failure()
    elapsed = time.perf_counter() - t0
    pairings = [c for c in rep.cases if c.case_id.startswith("pairing")]
    slopes = [c for c in rep.cases if c.case_id.startswith("log_slope")]
    ok = (
        len(pairings) == 9 and all(c.abs_err <= 1e-4 for c in pairings)
        and len(slopes) == 3 and all(c.rel_err <= 0.02 for c in slopes)
        and elapsed < 60.0
    )
    _report(5, "chain-rule failure (atoms + log divergence)", ok,
            f"(worst pairing {max(c.abs_err for c in pairings):.2e}, "
            f"worst slope {max(c.rel_err for c in slopes):.2%}, {elapsed:.1f}s)")


def test_criterion_06_gauss_green_half_space():
    t0 = time.perf_counter()
    rep = suite_gauss_green()
    elapsed = time.perf_counter() - t0
    geo = [c for c in rep.cases if c.case_id != "gg_zero_field"]
    ok = len(geo) == 5 and all(
        (c.rel_err <= 1e-4 if abs(c.rhs) > 1e-4 else c.abs_err <= 1e-4) for c in geo
    ) and elapsed < 60.0
    _report(6, "half-space flux identity", ok,
            f"(worst rel {max(c.rel_err for c in geo):.2e}, {elapsed:.1f}s)")


def test_criterion_07_leibniz_rule():
    t0 = time.perf_counter()
    rep = suite_leibniz()
    elapsed = time.perf_counter() - t0
    pts = [c for c in rep.cases if c.case_id.startswith("leibniz_x")]
    ok = len(pts) == 10 and all(
        (c.rel_err <= 1e-6 if abs(c.rhs) > 1e-6 else c.abs_err <= 1e-6) for c in pts
    ) and elapsed < 60.0
    _report(7, "pointwise product rule with non-local term", ok,
            f"(worst {max(max(c.rel_err, 0.0) for c in pts):.2e}, {elapsed:.1f}s)")


def test_criterion_08_spectral_cross_oracle():
    t0 = time.perf_counter()
    g = Gaussian(center=(0.0,), width=1.0)
    xs = np.linspace(-1.8, 1.8, 10)
    worst = 0.0
    for x in xs:
        quad = ops.frac_gradient(g, 0.5, float(x), QuadSpec(rel_tol=1e-9, abs_tol=1e-12))[0]
        spec = ops.spectral_gradient_1d(g, 0.5, float(x))
        worst = max(worst, abs(quad - spec))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7
    _report(8, "kernel vs frequency-side gradient", ok,
            f"(worst abs {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_09_rigidity_sign_and_tail():
    t0 = time.perf_counter()
    rep = suite_rigidity()
    elapsed = time.perf_counter() - t0
    signs = [c for c in rep.cases if c.case_id.startswith("sign_")]
    tail = [c for c in rep.cases if c.case_id == "tail_exponent"][0]
    ok = (
        len(signs) == 20 and all(c.lhs < 0.0 for c in signs)
        and tail.rel_err <= 0.15
    )
    _report(9, "sign rigidity outside the support", ok,
            f"(tail exponent {tail.lhs:.4f} vs {tail.rhs:.4f}, {elapsed:.1f}s)")


def test_criterion_10_inequality_margins():
    t0 = time.perf_counter()
    reports = [suite_hardy_halfspace(), suite_weighted_hardy(), suite_gagliardo_bound()]
    elapsed = time.perf_counter() - t0
    worst_violation = max(
        (c.lhs - c.rhs) for rep in reports for c in rep.cases
    )
    ok = all(rep.passed for rep in reports) and worst_violation <= 1e-6
    _report(10, "inequality margins (half-space, weighted, seminorm)", ok,
            f"(worst violation {worst_violation:.2e}, {elapsed:.1f}s)")


def test_criterion_11_determinism():
    # one run with single-threaded BLAS, one with the default BLAS threads:
    # no reduction may depend on the thread count
    t0 = time.perf_counter()
    outputs = []
    single = {"OPENBLAS_NUM_THREADS": "1"}
    default = {k: v for k, v in os.environ.items() if k not in single}
    for env in ({**default, **single}, default):
        res = subprocess.run(
            [sys.executable, "-m", "fracvar", "verify", "--suite", "all"],
            capture_output=True, timeout=1200, env=env,
        )
        assert res.returncode == 0, res.stderr.decode()[-2000:]
        outputs.append(res.stdout)
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(11, "byte-identical repeated verification", ok,
            f"({len(outputs[0])} bytes, {elapsed:.0f}s for two runs)")
