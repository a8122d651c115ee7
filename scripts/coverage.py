#!/usr/bin/env python3
"""Coverage audit of the operators' error estimates on the eval-mix stream.

    python scripts/coverage.py [--seed N ...] [--cls PREFIX ...]

Builds the eval-mix call stream of each seed (default 7) with the references
of ``perfbench/oracle.py`` at 60 digits (``perfbench/`` is imported, never
written; the benchmark itself keeps the oracle's 30), runs
every call that has a reference with ``detail=True`` and compares the error
against the reference, max |value - ref| over the components, with the
``err_estimate`` that the call reports.  ``--cls`` keeps the classes (op.kind.
nN.aORDER) that start with one of the prefixes.

Prints, per class, how many of its calls have an error above their estimate
and the worst ratio of error to estimate, then the worst call of the run.
Exits 1 if any call's error exceeds its estimate or a call raises, else 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import fracvar  # noqa: E402

_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import evalmix  # noqa: E402  (and oracle; no bytecode is written under perfbench/)
import mpmath  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

_OPS = {
    "grad": lambda ops, objs, a, x: ops.frac_gradient(objs[0], a, x, detail=True),
    "div": lambda ops, objs, a, x: ops.frac_divergence(objs[0], a, x, detail=True),
    "riesz": lambda ops, objs, a, x: ops.riesz_potential(objs[0], a, x, detail=True),
    "laplacian": lambda ops, objs, a, x: ops.frac_laplacian(objs[0], a, x, detail=True),
    "nlgrad": lambda ops, objs, a, x: ops.nl_gradient(objs[0], objs[1], a, x, detail=True),
}


def ratio(value, err_estimate, ref) -> float:
    """max |value - ref| / err_estimate over the components (per component
    when the estimate is a vector); 0 for an exact value, inf for an error
    over a zero estimate."""
    err = np.abs(np.atleast_1d(np.asarray(value, dtype=float)) - np.asarray(ref, dtype=float))
    est = np.broadcast_to(np.asarray(err_estimate, dtype=float), err.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(err == 0.0, 0.0, err / est)
    return float(np.max(r))


def audit(seed: int, prefixes: list[str] | None = None) -> list[dict]:
    """One row per referenced call of the seed's stream: its class, point and
    ratio of error to estimate (None with ``raised`` set if the call raised)."""
    stream = [c for c in evalmix.build(seed)
              if not prefixes or any(c["cls"].startswith(p) for p in prefixes)]
    # the oracle's 30 digits lose about 9 to f(x + t) - f(x - t) near t = 0 in
    # the bump's gradient at order 0.75; 60 agree with 90 to 17, so that an
    # error above an estimate is the estimate's, not the reference's
    with mpmath.workdps(60):
        evalmix.attach_references(stream, fracvar)
    stream = [c for c in stream if c["ref"] is not None]
    evalmix.prepare(stream, fracvar)
    rows = []
    for call in stream:
        row = {"cls": call["cls"], "x": call["x"], "ratio": None, "raised": None}
        try:
            res = _OPS[call["op"]](fracvar.operators, call["objs"], call["order"], call["arr"])
            row["ratio"] = ratio(res.value, res.err_estimate, call["ref"])
        except Exception as exc:  # a call that raises has no estimate to audit
            row["raised"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def report(seed: int, rows: list[dict]) -> int:
    """Print the per-class table of one seed; returns the number of calls over
    their estimate or raising."""
    classes: dict[str, list[dict]] = {}
    for row in rows:
        classes.setdefault(row["cls"], []).append(row)
    print(f"seed {seed}: {len(rows)} referenced calls")
    print(f"  {'class':36s} {'calls':>5s} {'over':>4s} {'worst':>10s}")
    bad = 0
    for cls, group in classes.items():
        over = sum(1 for r in group if r["raised"] or r["ratio"] > 1.0)
        bad += over
        worst = max((r["ratio"] for r in group if r["ratio"] is not None), default=0.0)
        print(f"  {cls:36s} {len(group):5d} {over:4d} {worst:10.3g}")
        for r in group:
            if r["raised"]:
                print(f"    raised at x = {r['x']}: {r['raised']}")
    audited = [r for r in rows if r["ratio"] is not None]
    if audited:
        top = max(audited, key=lambda r: r["ratio"])
        x = ", ".join(f"{v:.4f}" for v in top["x"])
        print(f"  worst: {top['ratio']:.3g}x, {top['cls']} at x = ({x})")
    print(f"  {bad} of {len(rows)} calls have an error above their estimate or raise")
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append",
                        help="eval-mix seed (repeatable; default 7)")
    parser.add_argument("--cls", action="append",
                        help="audit only classes starting with this prefix (repeatable)")
    args = parser.parse_args(argv)
    bad = sum(report(seed, audit(seed, args.cls)) for seed in args.seed or [7])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
