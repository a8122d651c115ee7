#!/usr/bin/env python3
"""Compare two fracvar checkouts with alternating benchmark pairs.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed 7]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once in
each checkout, from that checkout's root and with its own ``perfbench/``,
where T is the ``run_seconds`` that the change's ``BENCHMARK.json`` declares;
the side that runs first alternates from pair to pair.  Before every run the
checkout's ``.perfbench/`` directory and every ``__pycache__`` directory under
it are deleted, so each run starts fresh: a stale
``.perfbench/verify-all.first.csv`` makes verify-all report every case
failed, and with ``PYTHONDONTWRITEBYTECODE`` set, bytecode left by another
revision is never rewritten, so the changed modules are compiled again at
every import and the set-up time of that side reads high.  Apart from its
``__pycache__``, nothing under ``perfbench/`` is touched.

Prints, per end-to-end metric, the median and quartiles of each side, the
relative move of the medians, in how many pairs the change read lower, the
parent's interquartile range relative to its median, and a verdict (see
``verdict``) against the metric's direction and bound in the change's
``BENCHMARK.json``; then the failed share of each side and whether every run
was correct.  Exits 1 if a run fails or prints no result, else 0.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object (last stdout line) of one fresh benchmark run in ``root``."""
    shutil.rmtree(root / ".perfbench", ignore_errors=True)
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"benchmark run in {root} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the values; all three equal for a single value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on one metric from its paired samples (pair i is
    ``parent[i]``, ``change[i]``), its better direction ("lower" or
    "higher") and its bound, a share of the parent's median:

    * ``unresolved``: the parent's interquartile range exceeds the bound,
      so the runs spread too widely to tell a move within the bound;
    * ``claim met``: the change is better in at least 9 of 10 pairs and
      its median is better than the parent's by more than the parent's
      interquartile range;
    * ``worse than bound``: the change's median is worse than the
      parent's by more than the bound;
    * ``within bound`` otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, med, q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    scale = abs(med)
    if q3 - q1 > bound * scale:
        return "unresolved"
    gain = sign * (med - c_med)  # > 0 when the change is better
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "claim met"
    if -gain > bound * scale:
        return "worse than bound"
    return "within bound"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, help="verify-all or eval-mix")
    ap.add_argument("--pairs", type=int, required=True, help="number of alternating pairs")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        if not (root / "perfbench" / "run.py").is_file():
            ap.error(f"{root} has no perfbench/run.py")
    declared = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m for m in declared["end_to_end"]}

    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                results[side].append(run_once(sides[side], args.workload, args.seed, seconds))
            except (RuntimeError, ValueError) as exc:
                print(f"error: pair {i + 1}, {side}: {exc}", file=sys.stderr)
                return 1
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"workload={args.workload}  seed={args.seed}  seconds={seconds:g}  "
          f"pairs={args.pairs}")
    print(f"{'metric':14s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} "
          f"{'move':>7s}  {'change lower':12s} {'parent IQR':>10s}  verdict")
    names = [k for k in results["parent"][0]["metrics"] if k in results["change"][0]["metrics"]]
    for name in names:
        p = [r["metrics"][name]["value"] for r in results["parent"]]
        c = [r["metrics"][name]["value"] for r in results["change"]]
        pq, cq = quartiles(p), quartiles(c)
        move = (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
        lower = sum(ci < pi for pi, ci in zip(p, c))
        cols = [f"{med:.6g} [{q1:.6g}, {q3:.6g}]" for q1, med, q3 in (pq, cq)]
        iqr = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else 0.0
        decl = bounds.get(name)
        call = verdict(p, c, decl["better"], decl["bound"]) if decl else "-"
        print(f"{name:14s} {cols[0]:34s} {cols[1]:34s} {move:+7.1%}  "
              f"{f'{lower}/{args.pairs}':12s} {iqr:10.1%}  {call}")
    for side, runs in results.items():
        failed = sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
        correct = sum(bool(r["correct"]) for r in runs)
        print(f"{side}: failed share {failed:.6g}, correct in {correct}/{len(runs)} runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
