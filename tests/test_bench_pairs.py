"""scripts/bench_pairs.py's verdict on synthetic paired samples."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

# ten parent runs with median 1.0 and quartiles 0.98 and 1.02 (IQR 4%)
PARENT = [0.97, 0.98, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.02, 1.03]


def test_claim_met_when_lower_in_nine_of_ten_and_beyond_the_iqr():
    change = [p - 0.2 for p in PARENT]
    change[3] = PARENT[3] + 0.01  # one pair the other way
    assert verdict(PARENT, change, "lower", 0.25) == "claim met"


def test_eight_of_ten_is_no_claim():
    change = [p - 0.2 for p in PARENT]
    change[3] = change[5] = 1.5
    assert verdict(PARENT, change, "lower", 0.25) == "within bound"


def test_a_gap_inside_the_parent_iqr_is_no_claim():
    # lower in every pair, by 0.01, but the parent's quartiles are 0.04 apart
    change = [p - 0.01 for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == "within bound"


def test_unresolved_when_the_parent_iqr_exceeds_the_bound():
    # a claim would be met, but the parent's IQR (4%) exceeds a 3% bound
    change = [p - 0.2 for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.03) == "unresolved"


@pytest.mark.parametrize("shift, expected", [(0.3, "worse than bound"), (0.2, "within bound")])
def test_worse_than_bound(shift, expected):
    change = [p + shift for p in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == expected


def test_higher_is_better():
    change = [p + 0.2 for p in PARENT]
    assert verdict(PARENT, change, "higher", 0.25) == "claim met"
    assert verdict(PARENT, [p - 0.3 for p in PARENT], "higher", 0.25) == "worse than bound"


def test_constant_samples():
    # pass_frac reads 1 in every run on both sides
    assert verdict([1.0] * 10, [1.0] * 10, "higher", 0.05) == "within bound"
