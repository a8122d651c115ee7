"""scripts/mutants.py on one suite."""

import importlib.util
from pathlib import Path

from fracvar import operators as ops
from fracvar.fields import OddPlateau

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_caught_mutant_exits_0_and_is_restored(capsys):
    batch = ops._grad_batch_1d
    assert mutants.main(["--mutant", "n1_batch_neg", "--suite", "chain"]) == 0
    out = capsys.readouterr().out
    assert "unmutated run: all 12 cases pass" in out
    assert "n1_batch_neg: caught by 6 cases (chain)" in out
    assert ops._grad_batch_1d is batch


def test_surviving_mutant_exits_1(capsys):
    seminorms = ops._gagliardo_seminorms
    assert mutants.main(["--mutant", "gagliardo_x2", "--suite", "chain"]) == 1
    assert "gagliardo_x2: SURVIVED" in capsys.readouterr().out
    assert ops._gagliardo_seminorms is seminorms


def test_parity_flip_is_caught_and_restored(capsys):
    parity = OddPlateau.__dict__["parity"]
    assert mutants.main(["--mutant", "parity_flip", "--suite", "varbound"]) == 0
    out = capsys.readouterr().out
    assert "parity_flip: caught by 3 cases (varbound)" in out
    assert "quality_a0.25; quality_a0.5; quality_a0.75" in out
    assert OddPlateau.__dict__["parity"] is parity and OddPlateau().parity == -1
