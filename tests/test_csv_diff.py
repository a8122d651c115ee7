"""scripts/csv_diff.py on small verify CSVs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "csv_diff", Path(__file__).resolve().parents[1] / "scripts" / "csv_diff.py")
csv_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_diff)

HEADER = "suite,case_id,alpha,n,lhs,rhs,abs_err,rel_err,tol,pass\n"
OLD = HEADER + (
    "ibp,ibp_1d,0.5,1,-0.5,-0.5,0,0,1e-06,1\n"
    "ibp,ibp_2d,0.5,2,-0.3,-0.30000000000000004,4e-17,1e-16,0.0001,1\n"
    "chain,c0,0.5,1,0,0,0,0,1e-06,1\n"
)


def _run(tmp_path, old, new):
    (tmp_path / "old.csv").write_text(old)
    (tmp_path / "new.csv").write_text(new)
    return csv_diff.main([str(tmp_path / "old.csv"), str(tmp_path / "new.csv")])


TWO_ORDERS = HEADER + (
    "gauss-green,gg_zero,0.3,1,0,0,0,0,0.0001,1\n"
    "gauss-green,gg_zero,0.6,1,0,0,0,0,0.0001,1\n"
)


def test_identical_files(tmp_path, capsys):
    assert _run(tmp_path, OLD, OLD) == 0
    out = capsys.readouterr().out
    assert "ibp: 0/2 lines moved, max rel move lhs 0, rhs 0" in out
    assert "chain: 0/1 lines moved" in out


def test_moved_values_report_the_largest_relative_move(tmp_path, capsys):
    new = OLD.replace("-0.3,-0.30000000000000004", "-0.30000000000000004,-0.30000000000000027")
    new = new.replace("chain,c0,0.5,1,0,0", "chain,c0,0.5,1,2e-16,0")
    assert _run(tmp_path, OLD, new) == 0
    out = capsys.readouterr().out
    assert "ibp: 1/2 lines moved, max rel move lhs 1.9e-16, rhs 7.4e-16" in out
    assert "chain: 1/1 lines moved, max rel move lhs 1, rhs 0" in out


@pytest.mark.parametrize("new", [
    OLD.replace("chain,c0,0.5,1,0,0,0,0,1e-06,1", "chain,c0,0.5,1,0,0,0,0,1e-06,0"),
    OLD.replace("chain,c0", "chain,c1"),
    OLD.replace("chain,c0,0.5,1,0,0,0,0,1e-06,1\n", ""),
], ids=["pass_flag", "renamed_case", "dropped_case"])
def test_differing_cases_or_flags_exit_1(tmp_path, capsys, new):
    assert _run(tmp_path, OLD, new) == 1
    assert capsys.readouterr().out


def test_repeated_case_ids_are_keyed_by_order(tmp_path, capsys):
    # the row of the first order is compared too, and its flag checked
    assert _run(tmp_path, TWO_ORDERS, TWO_ORDERS) == 0
    assert "gauss-green: 0/2 lines moved" in capsys.readouterr().out
    new = TWO_ORDERS.replace("gg_zero,0.3,1,0,0,0,0,0.0001,1", "gg_zero,0.3,1,0,0,0,0,0.0001,0")
    assert _run(tmp_path, TWO_ORDERS, new) == 1
    assert "pass flag 1 -> 0: gauss-green,gg_zero,0.3" in capsys.readouterr().out


def test_repeated_key_exits_1(tmp_path, capsys):
    new = OLD + "chain,c0,0.5,1,0,0,0,0,1e-06,1\n"
    assert _run(tmp_path, OLD, new) == 1
    assert "repeated in NEW: chain,c0,0.5" in capsys.readouterr().out


def test_case_ids_with_commas(tmp_path, capsys):
    # the chain pairing ids hold a comma; their pass flag is the last column
    golden = (Path(__file__).resolve().parent / "data" / "verify-all.csv").read_text()
    row = next(line for line in golden.splitlines()
               if line.startswith("chain,pairing_a0.5_phi(0)=1, phi(1)=0,"))
    assert row.endswith(",1")
    old = HEADER + row + "\n"
    assert _run(tmp_path, old, old) == 0
    assert "chain: 0/1 lines moved" in capsys.readouterr().out
    assert _run(tmp_path, old, old.replace(row, row[:-1] + "0")) == 1
    assert "pass flag 1 -> 0: chain,pairing_a0.5_phi(0)=1, phi(1)=0,0.5" in capsys.readouterr().out
