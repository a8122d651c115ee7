"""scripts/coverage.py on single classes of the eval-mix stream."""

import importlib.util
import math
from pathlib import Path

import pytest

pytest.importorskip("mpmath")  # the eval-mix references
_spec = importlib.util.spec_from_file_location(
    "coverage_audit", Path(__file__).resolve().parents[1] / "scripts" / "coverage.py")
coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage)


def test_estimate_below_the_error_exits_1(capsys):
    # the n = 2 Gaussian Laplacian at order 0.75 reports an estimate below its error
    assert coverage.main(["--seed", "7", "--cls", "laplacian.gaussian.n2.a0.75"]) == 1
    out = capsys.readouterr().out
    assert "seed 7: 3 referenced calls" in out
    assert "2 of 3 calls have an error above their estimate or raise" in out


def test_covered_class_exits_0(capsys):
    # the 1-d bump gradient at order 0.75 is covered against references at 60
    # digits; the oracle's 30 put one of its errors above the estimate
    assert coverage.main(["--seed", "7", "--cls", "laplacian.interval_indicator.n1",
                          "--cls", "grad.smooth_bump.n1.a0.75"]) == 0
    assert "0 of 12 calls have an error above their estimate" in capsys.readouterr().out


def test_ratio():
    assert coverage.ratio([1.0, 2.0], 0.5, [1.0, 2.25]) == 0.5
    assert coverage.ratio([1.0, 2.0], [1.0, 0.125], [1.5, 2.25]) == 2.0
    assert coverage.ratio([1.0], 0.0, [1.0]) == 0.0
    assert coverage.ratio([1.0], 0.0, [2.0]) == math.inf
