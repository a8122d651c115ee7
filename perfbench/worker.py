"""One fresh process of the fracvar benchmark: set-up, then optionally one timed pass.

    python3 perfbench/worker.py --root DIR --workload W --seed N --mode setup|pass \
        --trace 0|1 [--rounds R --seconds S]

Prints one JSON object on its last stdout line.  ``--mode setup`` times only
``import fracvar`` plus building the workload's inputs (and, for eval-mix,
its references).  ``--mode pass`` then runs the workload, timed, checks its
outputs, and with ``--trace 1`` reports per-layer totals from spans recorded
by ``tracer``.  A verify-all pass runs the verdict once.  An eval-mix pass
issues the whole stream in rounds, at least ``R`` and until ``S`` seconds
have passed, and times each call by its median over the rounds.  ``run.py``
drives this script; it is not a user entry point.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def machine_facts() -> dict:
    import ctypes
    import glob

    import numpy as np

    facts = {"python": sys.version.split()[0], "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        facts["blas"] = "unknown"
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    facts["blas_threads"] = threads if threads is not None else os.environ.get(
        "OPENBLAS_NUM_THREADS", "unknown")
    return facts


def setup(workload: str, seed: int, root: Path):
    """Import the library and build the workload's inputs; returns (seconds, fracvar, inputs)."""
    t0 = time.perf_counter()
    import fracvar
    import fracvar.cli

    if workload == "eval-mix":
        import evalmix

        inputs = evalmix.build(seed)
        evalmix.attach_references(inputs, fracvar)
        evalmix.prepare(inputs, fracvar)
    else:
        inputs = ["verify", "--suite", "all", "--out", str(root / ".perfbench" / "verify-all.out.csv")]
    return time.perf_counter() - t0, fracvar, inputs


def _timed(fn):
    c0, t0 = time.process_time(), time.perf_counter()
    res = fn()
    return res, time.perf_counter() - t0, time.process_time() - c0


def _check_verify(workload: str, code: int, csv_text: str, root: Path) -> dict:
    """Exit code, case ids, pass flags, and byte identity with the checkout's first run."""
    # case ids may hold commas; the other nine columns never do
    rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    ids = [f"{r[0]}/{','.join(r[1:-8])}" for r in rows]
    expected = (HERE / "cases" / f"{workload}.txt").read_text(encoding="utf-8").splitlines()
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if ids != expected:
        problems.append(f"case ids differ from the expected {len(expected)}")
    first = root / ".perfbench" / f"{workload}.first.csv"
    if not problems and not first.exists():
        first.write_text(csv_text, encoding="utf-8")
    if first.exists() and csv_text != first.read_text(encoding="utf-8"):
        problems.append("CSV differs from this checkout's first run")
    failed_cases = sum(1 for r in rows if r[-1] != "1")
    failed = len(expected) if problems else failed_cases
    if failed_cases:
        problems.append(f"{failed_cases} cases failed")
    return {"attempted": len(expected), "failed": failed, "correct": not problems,
            "problems": problems}


def run_verify(workload: str, fracvar, inputs, root: Path, tracer) -> dict:
    cli = fracvar.cli
    captured = []
    orig = cli.run_all

    def capture(config):
        out = orig(config)
        captured.append(out[0])
        return out

    cli.run_all = capture
    out_csv = Path(inputs[-1])
    out_csv.unlink(missing_ok=True)
    main = tracer.wrap("cli:main", cli.main) if tracer else cli.main
    threads = len(os.sched_getaffinity(0))
    os.environ["FRACVAR_THREADS"] = str(threads)
    if tracer:
        tracer.install(fracvar)
    code, wall, cpu = _timed(lambda: main(inputs))
    reports = captured[0] if captured else []
    csv_text = out_csv.read_text(encoding="utf-8") if out_csv.exists() else ""
    out = {"wall_s": wall, "cpu_s": cpu, "rounds": 1}
    out.update(_check_verify(workload, code, csv_text, root))
    walls = {r.suite: r.wall_time for r in reports}
    out["suites"] = walls
    out["suites.critical_path_s"] = max(walls.values(), default=0.0)
    out["suites.busy_share"] = sum(walls.values()) / (threads * wall)
    out["suites.cases_failed"] = sum(1 for r in reports for c in r.cases if not c.passed)
    return out


def run_evalmix(fracvar, stream, tracer, rounds: int, seconds: float) -> dict:
    """Issue the stream in rounds; every call's time is its median over the rounds,
    so a stretch of a shared machine's slowness that covers one round of a call
    does not count.  Every round's outcomes are checked."""
    import evalmix

    if tracer:
        tracer.install(fracvar)
    start = time.perf_counter()
    samples = []
    while len(samples) < rounds or time.perf_counter() - start < seconds:
        samples.append(evalmix.run(stream, fracvar.operators))
    walls = [statistics.median(r[i][0] for r in samples) for i in range(len(stream))]
    cpus = [statistics.median(r[i][1] for r in samples) for i in range(len(stream))]
    groups = {call["group"]: {"wall_s": 0.0, "failed": 0} for call in stream}
    for call, wall in zip(stream, walls):
        groups[call["group"]]["wall_s"] += wall
    failures, broken, failed = [], [], 0
    for k, results in enumerate(samples):
        for call, (_, _, outcome) in zip(stream, results):
            why = evalmix.check(call, outcome)
            if not why:
                continue
            failed += 1
            line = f"{call['cls']} at {call['x']}: {why}"
            if k == 0:  # the rounds repeat the same calls; list the first round's
                groups[call["group"]]["failed"] += 1
                failures.append(line)
            # a wrong or unconverged number is a failed item; a call that
            # gives no number at all also makes the run incorrect
            if why.startswith(("raised", "non-finite")):
                broken.append(f"round {k}: {line}")
    return {"wall_s": sum(walls), "cpu_s": sum(cpus), "calls_ms": [w * 1e3 for w in walls],
            "rounds": len(samples), "attempted": len(stream) * len(samples), "failed": failed,
            "correct": not broken, "problems": broken, "failures": failures, "groups": groups}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()
    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))

    setup_s, fracvar, inputs = setup(args.workload, args.seed, root)
    out = {"setup_s": setup_s}
    if args.mode == "pass":
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
        if args.workload == "eval-mix":
            out.update(run_evalmix(fracvar, inputs, tracer, args.rounds, args.seconds))
        else:
            out.update(run_verify(args.workload, fracvar, inputs, root, tracer))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["machine"] = machine_facts()
        if tracer:
            out["layers"] = tracer.layer_metrics()
            tracer.dump(root / ".perfbench" / f"spans-{args.workload}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
