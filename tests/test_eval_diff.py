"""scripts/eval_diff.py on a checkout against itself and on synthetic outcomes."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("eval_diff", ROOT / "scripts" / "eval_diff.py")
eval_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(eval_diff)


def _rec(group, x, value, err=1e-9, evals=30, converged=True, check=None):
    return {"group": group, "cls": f"{group}.a0.5", "x": [x], "value": value, "err": err,
            "evals": evals, "converged": converged, "check": check}


def test_checkout_against_itself_moves_nothing(capsys):
    assert eval_diff.main([str(ROOT), str(ROOT), "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    groups = [line for line in lines if "calls moved" in line]
    assert groups
    for line in groups:
        assert re.search(r": 0/\d+ calls moved \(value 0, err 0, flag 0\), max rel move 0, "
                         r"evals (\d+) -> \1 \(\+0\)$", line), line
    total = sum(int(re.search(r"/(\d+) calls", line)[1]) for line in groups)
    assert lines[-1] == (f"reference checks passed: PARENT {total}/{total}, "
                         f"CHANGE {total}/{total}")


def test_moves_and_check_outcomes_are_reported():
    old = [_rec("grad.a.n1", 0.1, [1.0]), _rec("grad.a.n1", 0.2, [2.0]),
           _rec("riesz.b.n2", 0.3, [0.0, 4.0])]
    new = [_rec("grad.a.n1", 0.1, [1.0]), _rec("grad.a.n1", 0.2, [2.5], err=1e-8, evals=45),
           _rec("riesz.b.n2", 0.3, [0.0, 4.0], converged=False, check="converged=False")]
    lines, same = eval_diff.diff(old, new)
    assert not same
    assert lines[0] == ("grad.a.n1: 1/2 calls moved (value 1, err 1, flag 0), max rel move 0.2, "
                        "evals 60 -> 75 (+15)")
    assert lines[1].startswith("riesz.b.n2: 1/1 calls moved (value 0, err 0, flag 1), "
                               "max rel move 0,")
    assert "check failed in CHANGE: riesz.b.n2.a0.5 at [0.3]: converged=False" in lines
    assert "check outcome differs: riesz.b.n2.a0.5 at [0.3]" in lines
    assert lines[-1] == "reference checks passed: PARENT 3/3, CHANGE 2/3"


def test_different_streams_are_refused():
    lines, same = eval_diff.diff([_rec("grad.a.n1", 0.1, [1.0])], [_rec("grad.a.n1", 0.2, [1.0])])
    assert not same and lines == ["the two streams differ in their calls"]
