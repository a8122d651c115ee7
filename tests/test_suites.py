"""Suite machinery: reports, pass rules, determinism, CLI plumbing."""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracvar import cli, operators, suites
from fracvar.constants import mu
from fracvar.fields import FAlpha, Gaussian, SignedMeasure, SmoothBump, field_from_json
from fracvar.quadrature import QuadSpec, gauss_legendre_panels
from fracvar.suites import (
    DEFAULT_ALPHAS,
    SUITE_NAMES,
    SuiteReport,
    reports_to_csv,
    run_all,
    run_suite,
    suite_halfspace,
    suite_hardy_optimal,
    suite_rigidity,
    suite_variation_bound,
)


class TestReportRules:
    def test_compare_pass_fail(self):
        rep = SuiteReport("demo", tolerance=1e-6)
        rep.add_compare("ok", 0.5, 1, 1.0000001, 1.0)
        rep.add_compare("bad", 0.5, 1, 1.01, 1.0)
        assert rep.cases[0].passed
        assert not rep.cases[1].passed
        assert not rep.passed

    def test_near_zero_uses_absolute_error(self):
        rep = SuiteReport("demo", tolerance=1e-6)
        rep.add_compare("zero", 0.5, 1, 5e-7, 0.0)
        assert rep.cases[0].passed
        rep.add_compare("zero_bad", 0.5, 1, 5e-6, 0.0)
        assert not rep.cases[1].passed

    def test_margin_rule(self):
        rep = SuiteReport("demo", tolerance=1e-6)
        rep.add_margin("slack", 0.5, 1, 1.0, 2.0)
        rep.add_margin("tight", 0.5, 1, 1.0, 1.0 - 5e-7)
        rep.add_margin("violated", 0.5, 1, 1.0, 0.9)
        assert rep.cases[0].passed
        assert rep.cases[1].passed
        assert not rep.cases[2].passed


class TestSuiteRuns:
    def test_hardy_suite(self):
        rep = suite_hardy_optimal()
        assert rep.passed
        assert len(rep.cases) == 21  # 9 identities + 9 quadratures + 3 rows

    def test_halfspace_suite(self):
        rep = suite_halfspace()
        assert rep.passed
        tangential = [c for c in rep.cases if "tangential" in c.case_id]
        assert len(tangential) == 3
        assert all(c.abs_err <= 1e-8 for c in tangential)

    def test_rigidity_suite(self):
        rep = suite_rigidity()
        assert rep.passed
        signs = [c for c in rep.cases if c.case_id.startswith("sign_")]
        assert len(signs) == 20
        assert all(c.lhs < 0 for c in signs)

    def test_varbound_suite_single_alpha(self):
        rep = suite_variation_bound(alpha=(0.5,))
        assert rep.passed

    def test_unknown_suite_name(self):
        with pytest.raises(ValueError):
            run_suite("bogus")

    def test_deterministic_reports(self):
        csv1 = reports_to_csv([suite_hardy_optimal()])
        csv2 = reports_to_csv([suite_hardy_optimal()])
        assert csv1 == csv2

    def test_csv_shape(self):
        text = reports_to_csv([suite_hardy_optimal()])
        lines = text.strip().split("\n")
        assert lines[0] == "suite,case_id,alpha,n,lhs,rhs,abs_err,rel_err,tol,pass"
        assert all(len(line.split(",")) == 10 for line in lines[1:])
        assert all(line.split(",")[-1] in ("0", "1") for line in lines[1:])

    def test_run_all_subset_exit_code(self):
        reports, code = run_all({"suites": ("hardy", "halfspace")})
        assert code == 0
        assert [r.suite for r in reports] == ["hardy", "halfspace"]

    def test_quad_config_accepted(self):
        reports, code = run_all({
            "suites": ("halfspace",), "alphas": (0.5,),
            "quad": {"rel_tol": 1e-7, "abs_tol": 1e-11},
        })
        assert code == 0 and reports[0].passed


GOLDEN_CSV = Path(__file__).resolve().parent / "data" / "verify-all.csv"


def test_verify_all_matches_the_golden_csv(tmp_path):
    # the default run of every suite, byte for byte; a change that moves a
    # line on purpose regenerates the file and states the move
    out = tmp_path / "verify-all.csv"
    out.write_text(reports_to_csv(run_all()[0]), encoding="utf-8", newline="")
    assert out.read_bytes() == GOLDEN_CSV.read_bytes(), (
        f"the verify CSV moved; see python scripts/csv_diff.py {GOLDEN_CSV} {out}")


def test_chain_log_slope_at_a_high_order():
    # the remainder of P(eps) carries an eps^(1-a) term, which decays only as
    # eps^0.1 at a = 0.9: a line in ln(1/eps) read the slope 14% off
    rep = run_suite("chain", (0.9,))
    case = next(c for c in rep.cases if c.case_id == "log_slope_a0.9")
    assert case.tol == 0.02
    assert case.passed and case.rel_err <= 1e-8
    assert rep.passed


def test_chain_integrals_run_in_lockstep(monkeypatch):
    # one integral after another, the chain suite made 113 batch-gradient
    # calls and 336 log-slope integrand calls (one f_a sample each); in
    # lockstep each round samples each bump's batch gradient and each
    # order's f_a once for every integral still open
    calls = {"batch": 0, "f_alpha": 0}
    batch, values = operators._grad_batch_1d, FAlpha.values

    def counted_batch(*args):
        calls["batch"] += 1
        return batch(*args)

    def counted_values(self, X):
        calls["f_alpha"] += 1
        return values(self, X)

    monkeypatch.setattr(operators, "_grad_batch_1d", counted_batch)
    monkeypatch.setattr(FAlpha, "values", counted_values)
    assert suites.suite_chain_failure().passed
    assert calls["batch"] <= 113 // 2
    assert calls["f_alpha"] <= 336 // 2


@pytest.mark.parametrize("runner", [suites.suite_chain_failure, suites.suite_ibp])
def test_negated_measure_pairing_fails_a_case(monkeypatch, runner):
    """The right sides of chain and ibp come from ``SignedMeasure.pair``: a
    pairing of the wrong sign must fail a case, so neither side restates the
    other."""
    pair = SignedMeasure.pair
    monkeypatch.setattr(SignedMeasure, "pair", lambda self, phi: -pair(self, phi))
    assert not all(c.passed for c in runner().cases)


def test_aligned_grid_nodes_are_distinct():
    # the ibp_2d boxes end at y = -0.1 + 1.2 = 1.0999999999999999 and at 1.1:
    # one cut, not a 2.2e-16 sliver panel whose 14 nodes repeat its neighbor's
    ends = (-0.1 + 1.2, 1.1)
    assert ends[0] != ends[1]
    xs, w = suites._gl_grid_aligned(-1.25, 1.55, [-1.3, -1.1, *ends, 1.55])
    assert xs.size == 5 * 14
    assert np.min(np.diff(xs)) > 1e-3
    assert float(np.sum(w)) == pytest.approx(2.8, rel=1e-14)
    # a cut within rounding of an end merges into it, and lo and hi stay exact
    got = suites._gl_grid_aligned(0.0, 1.0, [np.nextafter(0.0, 1.0), 1.0 - 1e-16])
    ref = gauss_legendre_panels([0.0, 0.5, 1.0], 14)
    assert all(g.tobytes() == r.tobytes() for g, r in zip(got, ref))


def test_weighted_lhs_against_mpmath():
    # alpha = 0.75, r = 0.5: kernel |t - r|^-0.75 at x = +/-0.5, reference by
    # tanh-sinh split at +/-r and 0
    mp = pytest.importorskip("mpmath")
    a, r = 0.75, 0.5
    (res,) = suites._weighted_hardy_lhs(SmoothBump(center=(0.0,), width=1.0), [(a, r)])
    assert res.converged
    assert res.evals_used < 5000

    def integrand(x):
        t = abs(x)
        return (abs(t - r) ** -a + (t + r) ** -a) * mp.exp(1 - 1 / (1 - x * x))

    with mp.workdps(30):
        ref = mp.quad(integrand, [-1, -r, 0, r, 1])
    assert float(res.value[0]) == pytest.approx(mu(1, a) / (2 * a) * float(ref), rel=1e-8)


def test_verify_budget_exhaustion_exit_code(monkeypatch, tmp_path):
    # a suite integral that cannot converge within its budget stops the run
    def starved(**kw):
        return QuadSpec(**{**kw, "max_evals": 100})

    monkeypatch.setattr(suites, "QuadSpec", starved)
    out = tmp_path / "report.csv"
    assert cli.main(["verify", "--suite", "weighted", "--out", str(out)]) == 3
    assert not out.exists()


def test_eval_budget_exhaustion_exit_code(capsys):
    code = cli.main([
        "eval", "--op", "laplacian", "--alpha", "0.5",
        "--field", '{"kind":"cube_indicator","dim":2,"half_width":1}',
        "--points", "0.3,0.2", "--quad", '{"max_evals":100}',
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("quadrature budget exceeded:") and err.count("\n") == 1


@pytest.mark.parametrize("op, field, point", [
    ("riesz", '{"kind":"gaussian","center":[0.1,-0.2],"dim":2}', "0.3,0.2"),
    ("riesz", '{"kind":"cube_indicator","dim":2,"half_width":1}', "0.3,0.2"),
    ("laplacian", '{"kind":"smooth_bump","center":[0,0],"width":1}', "0.3,0.2"),
    ("laplacian", '{"kind":"interval_indicator","a":-1,"b":1}', "0.3"),
])
def test_eval_reports_err_and_evals(op, field, point, capsys):
    # the Riesz potential and the Laplacian print their own err and evals
    code = cli.main(["eval", "--op", op, "--alpha", "0.5", "--field", field, "--points", point])
    assert code == 0
    *_, err, evals = capsys.readouterr().out.strip().split(",")
    assert 0.0 <= float(err) < 1e-6 and int(evals) > 0


@pytest.mark.parametrize("args", [
    ["--op", "div", "--field", '{"kind":"smooth_bump","center":[0],"width":1}',
     "--points", "0.3"],
    ["--op", "nlgrad", "--field", '{"kind":"gaussian","center":[0]}',
     "--field2", '{"kind":"gaussian","center":[0.5],"width":0.7}', "--points", "0.3"],
    ["--op", "nlgrad", "--field", '{"kind":"gaussian","center":[0,0]}',
     "--field2", '{"kind":"gaussian","center":[0.5,0],"width":0.7}', "--points", "0.3,0.1"],
])
def test_eval_div_and_nlgrad_report_err_and_evals(args, capsys):
    # the divergence and the non-local gradient print their own err and
    # evals, not nan,0
    assert cli.main(["eval", "--alpha", "0.5", *args]) == 0
    *_, err, evals = capsys.readouterr().out.strip().split(",")
    assert 0.0 <= float(err) < 1e-6 and int(evals) > 0


def test_nlgrad_without_second_field_is_usage_error(capsys):
    code = cli.main(["eval", "--op", "nlgrad", "--alpha", "0.5",
                     "--field", '{"kind":"gaussian","center":[0]}', "--points", "0.3"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: nlgrad needs a second field")


@pytest.mark.parametrize("op, desc, point, exact", [
    ("grad", '{"kind":"gaussian","center":[0],"width":1,"dim":1}', "0.3", None),
    ("grad", '{"kind":"smooth_bump","center":[0.1],"width":1,"dim":1}', "0.3", None),
    ("grad", '{"kind":"interval_indicator","a":-1,"b":1}', "0.3", None),
    ("laplacian", '{"kind":"cube_indicator","dim":2}', "0.3,0.2", None),
    ("grad", '{"kind":"half_space_indicator","nu":[3,4],"x0":[0,0]}', "0.3,0.2", None),
    # I_a f_a is the indicator of (0, 1), and I_(1-a) of the magic cube
    # the indicator of [-1, 1]
    ("riesz", '{"kind":"f_alpha","alpha":0.5}', "0.3", 1.0),
    ("riesz", '{"kind":"magic_cube","alpha":0.5,"dim":1}', "0.3", 1.0),
], ids=["gaussian", "smooth_bump", "interval_indicator", "cube_indicator",
        "half_space_indicator", "f_alpha", "magic_cube"])
def test_eval_of_each_field_kind(op, desc, point, exact, capsys):
    # every catalog kind goes through the command line to the library's value
    assert cli.main(["eval", "--op", op, "--alpha", "0.5", "--field", desc,
                     "--points", point]) == 0
    field = field_from_json(desc)
    p = np.array([float(v) for v in point.split(",")])
    fn = {"grad": operators.frac_gradient, "laplacian": operators.frac_laplacian,
          "riesz": operators.riesz_potential}[op]
    res = fn(field, 0.5, p, detail=True)
    values = np.atleast_1d(res.require())
    row = [*p, *values, res.err_estimate]
    assert capsys.readouterr().out == (
        ",".join(format(float(v), ".17g") for v in row) + f",{res.evals_used}\n")
    if exact is not None:
        assert abs(values[0] - exact) <= res.err_estimate


def test_unknown_field_kind_is_usage_error(capsys):
    # mollified is not a catalog kind
    code = cli.main([
        "eval", "--op", "grad", "--alpha", "0.5",
        "--field", '{"kind":"mollified","base":{"kind":"interval_indicator"},"eps":0.1}',
        "--points", "0.3",
    ])
    assert code == 2
    assert "unknown field kind" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["eval", "--op", "grad", "--field", '{"kind":"half_space_indicator","nu":[0,0]}',
     "--points", "1,1"],
    ["eval", "--op", "grad", "--field", '{"kind":"half_space_indicator","nu":[NaN,1]}',
     "--points", "1,1"],
    ["oracle", "--name", "halfspace", "--nu", "0,0", "--point", "1,1"],
    ["oracle", "--name", "hyperplane", "--nu", "1,0", "--x0", "inf,0", "--point", "1,1"],
    ["eval", "--op", "grad", "--field", '{"kind":"gaussian","width":0}', "--points", "1"],
    ["eval", "--op", "grad", "--field", '{"kind":"smooth_bump","width":-1}', "--points", "0.5"],
    ["eval", "--op", "laplacian", "--field", '{"kind":"cube_indicator","dim":2,"half_width":-1}',
     "--points", "3,0"],
    ["eval", "--op", "grad", "--field", '{"kind":"gaussian"}', "--points", "1",
     "--quad", '{"max_evals": NaN}'],
])
def test_invalid_parameters_are_usage_errors(args, capsys):
    # a zero or non-finite normal, a catalog parameter out of range and a
    # non-finite budget exit 2 with a message, not 0, 1 or 3
    assert cli.main([args[0], "--alpha", "0.5", *args[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_quad_field_is_usage_error(tmp_path, capsys):
    # an unknown QuadSpec field, on the command line or in a config, exits 2
    code = cli.main([
        "eval", "--op", "riesz", "--alpha", "0.5", "--field", '{"kind":"gaussian"}',
        "--points", "0.3", "--quad", '{"near_radius":0.1}',
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: invalid quadrature overrides")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"quad": {"bogus": 2.0}}))
    out = tmp_path / "report.csv"
    for suite in ("hardy", "all"):
        assert cli.main(["verify", "--suite", suite, "--config", str(config),
                         "--out", str(out)]) == 2
    assert not out.exists()


def test_runners_take_spec_exactly_when_forwarded(monkeypatch):
    spec = QuadSpec(rel_tol=1e-7)
    for name, runner in suites._SUITE_RUNNERS.items():
        seen = []

        def stub(**kw):
            seen.append(kw)
            return SuiteReport(name, tolerance=0.0)

        monkeypatch.setitem(suites._SUITE_RUNNERS, name, stub)
        run_suite(name, None, spec)
        takes_spec = "spec" in inspect.signature(runner).parameters
        assert takes_spec == ("spec" in seen[0]), name


def test_every_runner_takes_only_its_order_grid():
    for name, runner in suites._SUITE_RUNNERS.items():
        expected = ["alpha", "spec"] if name in ("halfspace", "leibniz") else ["alpha"]
        assert list(inspect.signature(runner).parameters) == expected, name


@pytest.mark.parametrize("name", ["gauss-green", "hardy-half", "rigidity", "leibniz"])
def test_single_order_suite_runs_each_order_in_turn(name):
    both = run_suite(name, (0.3, 0.6))
    parts = [run_suite(name, (a,)) for a in (0.3, 0.6)]
    assert both.cases == parts[0].cases + parts[1].cases
    assert {c.alpha for c in suites._SUITE_RUNNERS[name]().cases} == {0.5}


_BUMP = SmoothBump(center=(0.0,), width=1.0)

# each order-axis integral of the suites, its QuadSpec rel_tol, and the
# scale below which it is compared absolutely: the pairing against a phi
# that vanishes at both atoms is 0 up to quadrature error, on the scale of
# the other pairings' +-1
_ORDER_AXIS = {
    "ibp_lhs": (lambda al: suites._ibp_lhs(Gaussian(center=(0.3,), width=1.0),
                                           SmoothBump(center=(-0.2,), width=1.5), al), 1e-9, 0.0),
    "pairing_phi0": (lambda al: suites._atom_pairings([SmoothBump(center=(0.0,), width=0.8)],
                                                      al)[0], 1e-8, 0.0),
    "pairing_phi1": (lambda al: suites._atom_pairings([SmoothBump(center=(1.0,), width=0.8)],
                                                      al)[0], 1e-8, 0.0),
    "pairing_vanishing": (lambda al: suites._atom_pairings([SmoothBump(center=(5.0,), width=1.0)],
                                                           al)[0], 1e-8, 1.0),
    **{f"tails_r{r}": (lambda al, r=r: suites._tail_integrals(_BUMP, al, [r])[0], 1e-8, 0.0)
       for r in (0.5, 1.0, 2.0)},
    "l1_norm": (lambda al: suites._l1_norms(_BUMP, al), 1e-7, 0.0),
}


@pytest.mark.parametrize("grid", [DEFAULT_ALPHAS, (0.1, 0.45, 0.9)], ids=["default", "wide"])
@pytest.mark.parametrize("name", sorted(_ORDER_AXIS))
def test_order_axis_matches_the_per_order_route(name, grid):
    # one integral of the order vector against one integral per order, each
    # converged to the same QuadSpec; they differ by their error estimates
    fn, rel_tol, floor = _ORDER_AXIS[name]
    joint = fn(grid)
    assert joint.shape == (len(grid),)
    for a, value in zip(grid, joint.tolist()):
        alone = float(fn((a,))[0])
        assert abs(value - alone) <= rel_tol * max(abs(alone), floor), (a, value, alone)


def test_hardy_follows_the_order_override():
    rep = run_suite("hardy", (0.3,))
    assert [c.case_id for c in rep.cases] == [
        "identity_a0.3", "hardy_integral_a0.3",
        "row_hardy_integral_0.5", "row_variation_0.5", "row_constant_0.5",
    ]
    assert rep.passed and rep.wall_time > 0.0


def _cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "fracvar", *args],
        capture_output=True, text=True, timeout=timeout,
    )


class TestCli:
    def test_constants_row(self):
        res = _cli("constants", "--n", "1", "--alpha", "0.5")
        assert res.returncode == 0
        header, row = res.stdout.strip().split("\n")
        assert header.startswith("n,alpha,mu,nu_1_minus_alpha,c_half")
        vals = row.split(",")
        assert float(vals[2]) == pytest.approx(0.19947114020071634, rel=1e-12)
        assert float(vals[3]) < 0.0  # the Laplacian constant is negative

    def test_eval_gradient_points(self):
        res = _cli(
            "eval", "--op", "grad", "--alpha", "0.5",
            "--field", '{"kind":"half_space_indicator","nu":[1],"x0":[0]}',
            "--points", "1;4",
        )
        assert res.returncode == 0
        rows = res.stdout.strip().split("\n")
        assert len(rows) == 2
        v1 = float(rows[0].split(",")[1])
        assert v1 == pytest.approx(0.3989422804014327, rel=1e-6)

    def test_eval_field_from_file(self, tmp_path):
        p = tmp_path / "field.json"
        p.write_text(json.dumps({"kind": "gaussian", "center": [0], "width": 1, "dim": 1}))
        res = _cli("eval", "--op", "riesz", "--alpha", "0.5",
                   "--field", f"@{p}", "--points", "0")
        assert res.returncode == 0
        assert float(res.stdout.strip().split(",")[1]) == pytest.approx(
            1.086434811213308, rel=1e-7
        )

    def test_oracle_interval(self):
        res = _cli("oracle", "--name", "interval", "--alpha", "0.5")
        assert res.returncode == 0
        row = res.stdout.strip().split("\n")[1].split(",")
        assert float(row[0]) == pytest.approx(4.0)

    def test_verify_single_suite_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        res = _cli("verify", "--suite", "hardy", "--out", str(out))
        assert res.returncode == 0
        text = out.read_text()
        assert text.startswith("suite,case_id,alpha,n,lhs,rhs")
        assert "[pass] hardy" in res.stderr

    def test_usage_error_exit_code(self):
        res = _cli("eval", "--op", "unknown-op", "--alpha", "0.5",
                   "--field", "{}", "--points", "0")
        assert res.returncode == 2

    def test_bad_field_json_exit_code(self):
        res = _cli("eval", "--op", "grad", "--alpha", "0.5",
                   "--field", '{"kind":"nope"}', "--points", "0")
        assert res.returncode == 2

    def test_suite_choices_cover_spec_names(self):
        for name in ("ibp", "halfspace", "hardy", "chain", "gauss-green",
                     "hardy-half", "weighted", "rigidity", "leibniz", "varbound"):
            assert name in SUITE_NAMES
