#!/usr/bin/env python3
"""Runtime mutants of the verify suites: which cases catch a wrong operator.

    python scripts/mutants.py [--mutant NAME ...] [--suite NAME ...]

Each mutant patches an operator output or a constant in-process, runs the
suites once (``run_all``) and restores what it patched; no source file is
edited.  A mutant is caught when a case fails or the run raises.  The n = 1
batch gradient is patched only through ``operators._grad_batch_1d``, which
``frac_gradient_batch`` calls in n = 1 and the suites call directly, and the
n = 2 batch through ``frac_gradient_batch`` on fields in n = 2 only, so that
no mutant is applied twice (a x -1 mutant would cancel).  The seminorm is
patched through ``operators._gagliardo_seminorms``, its order-grid form, which
the ``gagliardo`` suite calls and ``gagliardo_seminorm`` wraps.  ``parity_flip``
negates the ``parity`` of every field class that reports one, so the batch
gives the mirrored targets of an even field the signs of an odd one, and the
reverse.

Runs the unmutated suites first, then every mutant (or those named), and
prints the cases that catch each one.  Exits 1 if the unmutated run fails or
any mutant survives, else 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fracvar import operators as ops  # noqa: E402
from fracvar import suites  # noqa: E402
from fracvar.fields import OddBumpPair, OddPlateau, SignedMeasure, SmoothBump  # noqa: E402


def _scaled(k: float):
    return lambda orig: lambda *args, **kwargs: k * orig(*args, **kwargs)


def _n2(transform):
    """A patch of ``frac_gradient_batch`` that transforms its (m, 2) output in n = 2."""

    def patch(orig):
        def batch(f, alpha, X):
            out = orig(f, alpha, X)
            return transform(out) if f.dim == 2 else out

        return batch

    return patch


def _negated(orig):
    return property(lambda self: -orig.fget(self))


def _shifted_orders(orig):
    return lambda f, alphas, X, box: orig(f, [a + 0.01 for a in alphas], X, box)


# name -> [(owner, attribute, patch)], patch(original) giving the replacement
MUTANTS = {
    "n1_batch_x1.001": [(ops, "_grad_batch_1d", _scaled(1.001))],
    "n1_batch_x0.5": [(ops, "_grad_batch_1d", _scaled(0.5))],
    "n1_batch_neg": [(ops, "_grad_batch_1d", _scaled(-1.0))],
    "n1_batch_alpha+0.01": [(ops, "_grad_batch_1d", _shifted_orders)],
    "pair_x1.001": [(SignedMeasure, "pair", _scaled(1.001))],
    "frac_gradient_x1.01": [(ops, "frac_gradient", _scaled(1.01))],
    "mu_x1.01": [(ops, "mu", _scaled(1.01)), (suites, "mu", _scaled(1.01))],
    "n2_batch_x1.001": [(ops, "frac_gradient_batch", _n2(lambda g: 1.001 * g))],
    "n2_batch_x1.1": [(ops, "frac_gradient_batch", _n2(lambda g: 1.1 * g))],
    "n2_batch_swap": [(ops, "frac_gradient_batch", _n2(lambda g: g[:, ::-1]))],
    "n2_batch_neg2": [(ops, "frac_gradient_batch", _n2(lambda g: g * np.array([1.0, -1.0])))],
    "gagliardo_x0.99": [(ops, "_gagliardo_seminorms", _scaled(0.99))],
    "gagliardo_x2": [(ops, "_gagliardo_seminorms", _scaled(2.0))],
    "parity_flip": [(cls, "parity", _negated) for cls in (SmoothBump, OddBumpPair, OddPlateau)],
}


def failed_cases(config: dict) -> tuple[int, dict[str, list[str]]]:
    """The number of cases run and the failed case ids by suite; a run that
    raises counts as one failed case named after the exception."""
    try:
        reports, _ = suites.run_all(config)
    except Exception as exc:  # a crash is a verdict too: the run does not pass
        return 0, {"run": [f"raised {type(exc).__name__}: {exc}"]}
    failed = {}
    for rep in reports:
        ids = [c.case_id for c in rep.cases if not c.passed]
        if ids:
            failed[rep.suite] = ids
    return sum(len(rep.cases) for rep in reports), failed


def run_mutant(name: str, config: dict) -> dict[str, list[str]]:
    """The failed case ids by suite with the mutant ``name`` applied."""
    saved = []
    try:
        for owner, attr, patch in MUTANTS[name]:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, patch(orig))
        return failed_cases(config)[1]
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mutant", action="append", choices=sorted(MUTANTS),
                        help="run only this mutant (repeatable)")
    parser.add_argument("--suite", action="append", choices=suites.SUITE_NAMES,
                        help="run only this suite (repeatable)")
    args = parser.parse_args(argv)
    config = {"suites": tuple(args.suite)} if args.suite else {}

    total, failed = failed_cases(config)
    if failed:
        print(f"unmutated run: {sum(map(len, failed.values()))} of {total} cases fail")
        for suite, ids in failed.items():
            print(f"  {suite}: {'; '.join(ids)}")
        return 1
    print(f"unmutated run: all {total} cases pass")

    survivors = []
    for name in args.mutant or MUTANTS:
        caught = run_mutant(name, config)
        if not caught:
            survivors.append(name)
            print(f"{name}: SURVIVED")
            continue
        count = sum(map(len, caught.values()))
        print(f"{name}: caught by {count} cases ({', '.join(caught)})")
        for suite, ids in caught.items():
            print(f"  {suite}: {'; '.join(ids)}")
    ran = len(args.mutant or MUTANTS)
    print(f"{ran} mutants, {ran - len(survivors)} caught, {len(survivors)} survived"
          + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
