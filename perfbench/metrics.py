"""Metric names, units and the reduction of repetitions to one result.

A run is several repetitions, each a fresh interpreter (see rep.py).  The
end-to-end metrics come from the untraced repetitions; the per-layer
metrics come from the traced ones.

Times are medians over a run's repetitions.  The machine is shared: the
same repetition takes 10 % longer or shorter from one second to the next.
The median of a run's 3 to 20 repetitions absorbs that; the minimum does
not, since it keeps one lucky repetition (see README.md, "Spread").
"""

from __future__ import annotations

import math
import statistics

import tracing

# Printed in the result line of an untraced run: defined, never zero and
# steady enough for its bound on every workload.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

# Printed as text only.  The result line must carry each of its metrics on
# every workload, non-zero and with a spread under the bound.  The solver
# timings are not reliably under it on the simulation workloads, which
# solve once or twice per repetition (run-to-run spread up to 44 % over
# ten runs); solve_ms_p95 and
# user_frames_per_s are undefined on some workload; failed_frac is zero on
# a correct run and travels as the result line's ``failed``/``attempted``.
TEXT_ONLY = {
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_p95": "ms",
    "user_frames_per_s": "1/s",
    "failed_frac": "ratio",
}

# Span name -> (metric counting its calls, metric summing its inclusive
# seconds); None where only one of the two is reported.
SPAN_METRICS = {
    "model.validate_config": ("model.validate_calls", "model.validate_s"),
    "rate.snr_coeffs": ("rate.snr_coeffs_calls", None),
    "rate.required_snr": ("rate.required_snr_calls", None),
    "traffic.effective_bandwidth": ("traffic.effective_bandwidth_calls",
                                    "traffic.effective_bandwidth_s"),
    "fading.solve_gain_threshold": ("fading.threshold_calls",
                                    "fading.threshold_s"),
    "fading.drop_bound_F": ("fading.drop_bound_evals", None),
    "allocator.solve_allocation": ("allocator.solve_calls",
                                   "allocator.solve_s"),
    "allocator.allocate_bandwidth": ("allocator.split_calls",
                                     "allocator.split_s"),
    "allocator.find_bandwidth_minimizer": ("allocator.minimizer_calls", None),
    "allocator.power_thresholds": ("allocator.antenna_steps", None),
    "simulator.SimPolicy.from_allocation": (None, "simulator.policy_s"),
    "simulator.run_simulation": (None, "simulator.run_s"),
}

# Simulator count -> the SimReport attribute it sums; user_frames is
# frames x users, taken from the call's arguments.
SIM_COUNTS = {
    "user_frames": None,
    "busy_frames": "busy_frames",
    "arrivals": "arrival_count",
    "deep_fades": "deep_fade_count",
    "drop_events": "drop_events",
    "delay_violations": "delay_violation_count",
}

# cli has no public function; its figure is the timed import.
TRACED_LAYERS = tuple(layer for layer in tracing.LAYERS if layer != "cli")

# Counts that the protocol and the seed fix, whatever the program does:
# the number of solves and user-frames, and the SimReport counts (pinned
# by the reference bytes too).  No change can lower them without changing
# the protocol or the results, so they carry no direction and stay out of
# the result line; a traced run prints them and checks that they repeat.
INVARIANTS = {
    "allocator.solve_calls": "count",
    **{f"simulator.{c}": "count" for c in SIM_COUNTS},
}

PER_LAYER = {
    "cli.import_s": "s",
    "config_io.load_s": "s",
    "model.validate_calls": "count",
    "model.validate_s": "s",
    "rate.snr_coeffs_calls": "count",
    "rate.required_snr_calls": "count",
    "traffic.effective_bandwidth_calls": "count",
    "traffic.effective_bandwidth_s": "s",
    "fading.threshold_calls": "count",
    "fading.threshold_s": "s",
    "fading.drop_bound_evals": "count",
    "allocator.solve_s": "s",
    "allocator.split_calls": "count",
    "allocator.split_s": "s",
    "allocator.minimizer_calls": "count",
    "allocator.antenna_steps": "count",
    "simulator.policy_s": "s",
    "simulator.run_s": "s",
    "simulator.us_per_user_frame": "us",
    "simulator.rng_floor_s": "s",
    **{f"{layer}.self_s": "s" for layer in TRACED_LAYERS},
    **{f"{layer}.calls": "count" for layer in TRACED_LAYERS},
    "tracing.spans": "count",
    "tracing.overhead_s": "s",
}

MIN_BEYOND = 10


def percentile(samples, q: float, min_beyond: int = MIN_BEYOND):
    """Nearest-rank ``q``-th percentile, or None when fewer than
    ``min_beyond`` samples lie above its rank."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def layer_values(summary: dict, import_s: float, load_s: float,
                 sim_counts: dict, rng_floor_s: float) -> dict:
    """Per-layer metrics of one traced repetition.

    ``summary`` is ``tracing.summarize`` of the repetition's spans.
    """
    names = summary["names"]
    out = {"cli.import_s": import_s, "config_io.load_s": load_s}
    for span, (calls, seconds) in SPAN_METRICS.items():
        rec = names.get(span, {"calls": 0, "total_s": 0.0})
        if calls:
            out[calls] = rec["calls"]
        if seconds:
            out[seconds] = rec["total_s"]
    frames = sim_counts["user_frames"]
    out["simulator.us_per_user_frame"] = (
        1e6 * out["simulator.run_s"] / frames if frames else 0.0)
    out["simulator.rng_floor_s"] = rng_floor_s
    out.update({f"simulator.{k}": v for k, v in sim_counts.items()})
    for layer in TRACED_LAYERS:
        rec = summary["layers"].get(layer, {"calls": 0, "self_s": 0.0})
        out[f"{layer}.self_s"] = rec["self_s"]
        out[f"{layer}.calls"] = rec["calls"]
    out["tracing.spans"] = sum(r["calls"] for r in names.values())
    return out


def _median(values):
    return statistics.median(values) if values else None


def reduce_run(reps: list[dict]) -> dict:
    """All metrics of a run from its repetitions (rep.py's result dicts
    plus the parent's ``wall_s``, ``setup_s`` and ``traced`` keys)."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    solve_s = [s for r in plain for s in r["solve_s"]]
    out = {
        "setup_s": _median([r["setup_s"] for r in plain]),
        "wall_s": _median([r["wall_s"] for r in plain]),
        "solves_per_s": _median([len(r["solve_s"]) / sum(r["solve_s"])
                                 for r in plain if r["solve_s"]]),
        "solve_ms_p50": (1e3 * statistics.median(solve_s)
                         if solve_s else None),
        "peak_rss_mb": _median([r["rss_mb"] for r in plain]),
        "solve_ms_p95": (None if percentile(solve_s, 95) is None
                         else 1e3 * percentile(solve_s, 95)),
        "user_frames_per_s": _median([r["sim_counts"]["user_frames"]
                                      / sum(r["sim_s"])
                                      for r in plain if r["sim_s"]]),
    }
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    out["failed_frac"] = failed / attempted if attempted else None
    if traced:
        for name, unit in dict(PER_LAYER, **INVARIANTS).items():
            vals = [r["layers"][name] for r in traced if name in r["layers"]]
            if vals:
                out[name] = (vals[0] if unit == "count"
                             else statistics.median(vals))
        if plain:
            out["tracing.overhead_s"] = (
                statistics.median(r["wall_s"] for r in traced)
                - out["wall_s"])
    return out
