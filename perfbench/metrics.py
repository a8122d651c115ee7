"""Metric names, units and their reduction from worker results."""

from __future__ import annotations

import statistics

import evalmix
import tracer

# (name, unit) of the end-to-end metrics, measured with tracing off
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)

# spelled out, not read from fracvar: the metric names must match BENCHMARK.json
# whatever the checkout holds
SUITES = ("ibp", "halfspace", "hardy", "chain", "gauss-green", "hardy-half", "weighted",
          "rigidity", "leibniz", "varbound", "gagliardo")
TAIL_BEYOND = 10  # the tail percentile keeps at least this many calls beyond it


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    specs = list(tracer.LAYER_METRIC_SPECS)
    specs += [(f"suites.{s}.wall_s", "s", "lower") for s in SUITES]
    specs += [("suites.critical_path_s", "s", "lower"), ("suites.busy_share", "ratio", "higher"),
              ("suites.cases_failed", "count", "lower")]
    for op, kind, n in evalmix.GROUPS:
        g = evalmix.group_name(op, kind, n)
        specs += [(f"eval.{g}.wall_s", "s", "lower"), (f"eval.{g}.failed", "count", "lower")]
    specs += [("eval.call_p50_ms", "ms", "lower"), ("eval.call_tail_ms", "ms", "lower"),
              ("failed_frac", "ratio", "lower"),
              ("trace.overhead_frac", "ratio", "lower")]
    return specs


def call_tail_ms(calls_ms: list[float]) -> float:
    """The highest percentile with at least TAIL_BEYOND calls beyond it."""
    lat = sorted(calls_ms)
    return lat[max(0, len(lat) - TAIL_BEYOND - 1)]


def end_to_end_values(setups: list[float], passes: list[dict]) -> dict[str, tuple[float, int]]:
    """Median of each end-to-end metric over the run's samples, with the sample count."""
    samples = {
        "setup_s": setups,
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "pass_frac": [1.0 - p["failed"] / p["attempted"] for p in passes],
    }
    out = {k: (statistics.median(v), len(v)) for k, v in samples.items()}
    rounds = sum(p["rounds"] for p in passes)  # eval-mix times each call over its rounds
    for k in ("wall_s", "cpu_s"):
        out[k] = (out[k][0], rounds)
    return out


def per_layer_values(traced: dict, plain: dict) -> dict[str, float]:
    """Layer totals from the traced pass; suite and eval-mix class timings, the
    failure share and the overhead from the untraced pass of the same seed."""
    values = {name: 0.0 for name, _, _ in per_layer_specs()}
    values.update(traced["layers"])
    for suite, wall in plain.get("suites", {}).items():
        values[f"suites.{suite}.wall_s"] = wall
    for key in ("suites.critical_path_s", "suites.busy_share", "suites.cases_failed"):
        values[key] = plain.get(key, 0.0)
    for group, g in plain.get("groups", {}).items():
        values[f"eval.{group}.wall_s"] = g["wall_s"]
        values[f"eval.{group}.failed"] = g["failed"]
    if "groups" in plain:
        values["eval.call_p50_ms"] = statistics.median(plain["calls_ms"])
        values["eval.call_tail_ms"] = call_tail_ms(plain["calls_ms"])
    values["failed_frac"] = plain["failed"] / plain["attempted"]
    values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return values
