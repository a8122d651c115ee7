#!/usr/bin/env python3
"""Compare the eval-mix outcomes of two fracvar checkouts.

    python scripts/eval_diff.py PARENT_DIR CHANGE_DIR --seed S

The eval-mix counterpart of ``csv_diff.py``.  Each checkout builds the
seed's call stream with its own ``perfbench/evalmix.py`` (``build``,
``attach_references``, ``prepare``) and issues every call once, with its own
``src``, in a fresh process, asking the operator for its result with
``detail=True``; a call that raises records the exception.  Prints, per
group (``op.kind.nN``), how many calls moved and how many of them changed
their value, error estimate or convergence flag, the largest relative move of a
value entry (|new - old| / max(|old|, |new|), 0 where both are 0), and
the group's evaluations on each side.  Then the calls that fail their
reference check (``evalmix.check``) on either side, and the number that
pass on each.  Exits 1 if the two streams differ in their calls or a call
passes its check on one side only, else 0.  Nothing under ``perfbench/``
is modified.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path


def _issue(ops, call):
    """The QuadResult of one eval-mix call."""
    op, f, a, x = call["op"], call["objs"][0], call["order"], call["arr"]
    if op == "grad":
        return ops.frac_gradient(f, a, x, detail=True)
    if op == "div":
        return ops.frac_divergence(f, a, x, detail=True)
    if op == "riesz":
        return ops.riesz_potential(f, a, x, detail=True)
    if op == "laplacian":
        return ops.frac_laplacian(f, a, x, detail=True)
    return ops.nl_gradient(f, call["objs"][1], a, x, detail=True)


def outcomes(root: Path, seed: int) -> list[dict]:
    """One record per call of the seed's stream, issued by the checkout at root.

    Run in the process that imports the checkout: ``root/src`` and
    ``root/perfbench`` go first on ``sys.path``.
    """
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np

    import evalmix
    import fracvar

    stream = evalmix.build(seed)
    evalmix.attach_references(stream, fracvar)
    evalmix.prepare(stream, fracvar)
    out = []
    for call in stream:
        rec = {"group": call["group"], "cls": call["cls"], "x": call["x"]}
        try:
            res = _issue(fracvar.operators, call)
        except Exception as exc:  # a call that raises is a failed item
            rec["raised"] = f"{type(exc).__name__}: {exc}"
            rec["check"] = evalmix.check(call, exc)
        else:
            value = np.ravel(res.value).tolist()
            rec.update(value=value, err=float(np.max(res.err_estimate)),
                       evals=int(res.evals_used), converged=bool(res.converged))
            rec["check"] = evalmix.check(call, (value, res.converged))
        out.append(rec)
    return out


def _rel_move(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if scale else 0.0


def _same(a, b) -> bool:
    """Equal floats, lists of floats or flags, NaN equal to NaN."""
    return json.dumps(a) == json.dumps(b)


def diff(old: list[dict], new: list[dict]) -> tuple[list[str], bool]:
    """The report lines, and whether the calls and check outcomes agree."""
    if [(r["cls"], r["x"]) for r in old] != [(r["cls"], r["x"]) for r in new]:
        return ["the two streams differ in their calls"], False
    lines, same = [], True
    groups: dict[str, dict] = {}
    for a, b in zip(old, new):
        g = groups.setdefault(a["group"], {"calls": 0, "moved": 0, "value": 0, "err": 0,
                                           "flag": 0, "rel": 0.0, "evals": [0, 0]})
        g["calls"] += 1
        if "raised" in a or "raised" in b:
            g["moved"] += a.get("raised") != b.get("raised")
            continue
        changed = {k: not _same(a[key], b[key])
                   for k, key in (("value", "value"), ("err", "err"), ("flag", "converged"))}
        for k, moved in changed.items():
            g[k] += moved
        g["moved"] += any(changed.values())
        if len(a["value"]) == len(b["value"]):
            g["rel"] = max([g["rel"]] + [_rel_move(u, v) for u, v in zip(a["value"], b["value"])])
        else:
            g["rel"] = math.inf
        g["evals"][0] += a["evals"]
        g["evals"][1] += b["evals"]
    for name, g in groups.items():
        e0, e1 = g["evals"]
        lines.append(f"{name}: {g['moved']}/{g['calls']} calls moved (value {g['value']}, "
                     f"err {g['err']}, flag {g['flag']}), max rel move {g['rel']:.2g}, "
                     f"evals {e0} -> {e1} ({e1 - e0:+d})")
    for side, recs in (("PARENT", old), ("CHANGE", new)):
        lines += [f"check failed in {side}: {r['cls']} at {r['x']}: {r['check']}"
                  for r in recs if r["check"] is not None]
    for a, b in zip(old, new):
        if (a["check"] is None) != (b["check"] is None):
            same = False
            lines.append(f"check outcome differs: {a['cls']} at {a['x']}")
    passed = [sum(r["check"] is None for r in recs) for recs in (old, new)]
    lines.append(f"reference checks passed: PARENT {passed[0]}/{len(old)}, "
                 f"CHANGE {passed[1]}/{len(new)}")
    return lines, same


def _collect(root: Path, seed: int) -> subprocess.Popen:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect", str(root),
           "--seed", str(seed)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", type=Path, metavar="DIR")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect is not None:
        print(json.dumps(outcomes(args.collect.resolve(), args.seed)))
        return 0
    if len(args.roots) != 2:
        parser.error("need PARENT_DIR and CHANGE_DIR")
    for root in args.roots:
        if not (root / "perfbench" / "evalmix.py").is_file():
            parser.error(f"{root} holds no perfbench/evalmix.py")
    procs = [_collect(root.resolve(), args.seed) for root in args.roots]
    outputs = [proc.communicate() for proc in procs]
    streams = []
    for root, proc, (stdout, stderr) in zip(args.roots, procs, outputs):
        if proc.returncode != 0:
            sys.stderr.write(stderr[-4000:])
            sys.stderr.write(f"eval-mix run in {root} exited with code {proc.returncode}\n")
            return 2
        streams.append(json.loads(stdout.strip().splitlines()[-1]))
    lines, same = diff(*streams)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
