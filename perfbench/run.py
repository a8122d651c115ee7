"""The fracvar benchmark: one command, two workloads.

    python3 perfbench/run.py --workload verify-all|eval-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a fracvar checkout; the library is imported from its
``src``.  Every timed pass runs in a fresh process (``worker.py``), so caches
start cold, as a CLI user pays them.  verify-all passes repeat until
``--seconds`` have elapsed (at least one; one pass takes longer than the
benchmark's 20 s).  An eval-mix pass issues its stream in rounds, at least
``EVAL_ROUNDS`` and until ``--seconds`` have elapsed, and times every call by
its median over the rounds.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass plus the tracing overhead against an untraced pass
of the same seed.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("verify-all", "eval-mix")
SETUP_SAMPLES = {"verify-all": 8, "eval-mix": 3}
EVAL_ROUNDS = 3  # the fewest samples whose median drops one slow one
CHILD_TIMEOUT_S = 170


def _child(root: Path, workload: str, seed: int, mode: str, trace: int,
           rounds: int = 1, seconds: float = 0.0) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace),
           "--rounds", str(rounds), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode} ({workload}, {mode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    """nproc and the cgroup CPU limit (v2 ``cpu.max`` or v1 quota/period), read only."""
    facts = {"nproc": len(os.sched_getaffinity(0)), "cgroup_cpu_limit": "unreadable"}
    cg = Path("/sys/fs/cgroup")
    for files in (("cpu.max",), ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")):
        try:
            facts["cgroup_cpu_limit"] = " ".join((cg / f).read_text().strip() for f in files)
            break
        except OSError:
            pass
    return facts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fracvar" / "__init__.py").is_file():
        print("error: run from the root of a fracvar checkout (src/fracvar not found)",
              file=sys.stderr)
        return 2
    (root / ".perfbench").mkdir(exist_ok=True)

    machine = _machine()
    load_before = os.getloadavg()[0]
    passes = []
    if args.trace:
        plain = _child(root, args.workload, args.seed, "pass", 0)
        traced = _child(root, args.workload, args.seed, "pass", 1)
        passes = [plain, traced]
    elif args.workload == "eval-mix":
        passes = [_child(root, args.workload, args.seed, "pass", 0, EVAL_ROUNDS, args.seconds)]
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(_child(root, args.workload, args.seed, "pass", 0))
    if not args.trace:
        # set-up is sampled after the passes, on a core that has just been busy:
        # a sub-second import timed after an idle spell can read half again slower
        setups = [_child(root, args.workload, args.seed, "setup", 0)["setup_s"]
                  for _ in range(SETUP_SAMPLES[args.workload])]
    load_after = os.getloadavg()[0]

    machine.update(passes[0]["machine"])
    machine["loadavg_1m_before"], machine["loadavg_1m_after"] = load_before, load_after
    print(f"fracvar benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    if args.workload != "eval-mix":
        print("note: verify-all runs the product's fixed default grids; the seed has no effect")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for p in passes:
        for line in p.get("problems", []):
            print(f"problem: {line}")
        for line in p.get("failures", []):
            print(f"failed: {line}")

    if args.trace:
        values = metrics.per_layer_values(traced, plain)
        units = {name: unit for name, unit, _ in metrics.per_layer_specs()}
        counts = {}
    else:
        reduced = metrics.end_to_end_values(setups, passes)
        values = {k: v for k, (v, _) in reduced.items()}
        counts = {k: n for k, (_, n) in reduced.items()}
        units = dict(metrics.END_TO_END)
        print(f"passes: {len(passes)}  rounds: {sum(p['rounds'] for p in passes)}  failed_frac: "
              f"{sum(p['failed'] for p in passes) / sum(p['attempted'] for p in passes):.6g}")
    for name, value in values.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name:48s} {value:>16.6g} {units[name]}{n}")
    if args.trace:
        print("attribution: integrand closures defined in operators and suites run inside "
              "quadrature spans, so their arithmetic is quadrature self time; their field "
              "calls are split out as fields spans.  eval.* and suites.<name>.wall_s come "
              "from the untraced pass of the same seed.")

    result = {
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
