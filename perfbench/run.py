"""Benchmark of urllc-ee: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload sweep-users --seed 1 --seconds 40 \
        --trace 0

Run from the root of a checkout.  The run repeats the workload's protocol,
each repetition in a fresh single-process interpreter (rep.py), while at
least half of the next one fits in ``--seconds``.  Untraced repetitions
give the end-to-end metrics; with ``--trace 1`` the run alternates
untraced and traced repetitions, and the traced ones give the per-layer
metrics, the spans file and the per-layer table (written under
perfbench/out/).

Every metric is printed as ``name value unit``; the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits non-zero without that line when a repetition
cannot run at all, e.g. when the package is missing from the checkout.

On the default seed the output must equal perfbench/reference/ byte for
byte.  A reference is recorded by copying the kept first repetition,
perfbench/out/<workload>-seed1-rep0.*, into perfbench/reference/ after a
seed-1 run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")
# A run must end within 180 s; no repetition starts after this point.
DEADLINE_S = 150.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(
        REFERENCE, f"{workload}-seed{seed}{workloads.output_suffix(workload)}")


def run_rep(job: dict, timeout: float) -> dict:
    """Launch one repetition; the set-up and wall times start here."""
    env = dict(os.environ, **CHILD_ENV)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "rep.py"), json.dumps(job)],
            capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"repetition exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"repetition exited with code {proc.returncode}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["t_setup"] - t_spawn
    rep["wall_s"] = rep["t_end"] - t_spawn
    rep["traced"] = job["trace"]
    return rep


def run(workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, list[dict], list[str]]:
    """Repeat the workload for ``seconds``; returns (metrics, reps, problems)."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}")
    config = stem + ".cfg"
    with open(config, "w") as fh:
        fh.write(workloads.config_text(workload))
    start = time.monotonic()
    reps: list[dict] = []
    outputs: list[str] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        output = f"{stem}-rep{len(reps)}{workloads.output_suffix(workload)}"
        job = {"root": ROOT, "workload": workload, "seed": seed,
               "config": config, "output": output, "trace": traced,
               "check": len(reps) == 0, "spans": stem + "-spans.jsonl"}
        t0 = time.monotonic()
        reps.append(run_rep(job, timeout=170.0 - (t0 - start)))
        outputs.append(output)
        elapsed = time.monotonic() - start
        last = time.monotonic() - t0
        # Start another repetition while half of it fits: a run then
        # overshoots --seconds by at most half a repetition, and a
        # 10 s sweep-users repetition is not dropped for the last 8 s.
        if len(reps) >= (2 if trace else 1) and (
                elapsed + last / 2 > seconds or elapsed + last > DEADLINE_S):
            break
    problems = consistency(workload, seed, reps, outputs)
    return metrics.reduce_run(reps), reps, problems


def consistency(workload, seed, reps, outputs) -> list[str]:
    """Repetitions must agree exactly, and on the default seed match the
    reference; a mismatch fails every operation of the repetition."""
    problems = []
    first = b""
    if os.path.exists(outputs[0]):
        with open(outputs[0], "rb") as fh:
            first = fh.read()
    if seed == workloads.DEFAULT_SEED:
        ref = reference_path(workload, seed)
        if not os.path.exists(ref):
            problems.append(f"reference {os.path.relpath(ref)} is missing")
        else:
            with open(ref, "rb") as fh:
                if fh.read() != first:
                    problems.append(
                        f"output differs from {os.path.relpath(ref)}")
        if problems:
            for rep in reps:
                rep["failed"] = rep["attempted"]
    for rep in reps[1:]:
        if rep["digest"] != reps[0]["digest"]:
            problems.append("repetitions disagree on the outputs")
            rep["failed"] = rep["attempted"]
    traced = [r["layers"] for r in reps if r["traced"]]
    for name, unit in dict(metrics.PER_LAYER, **metrics.INVARIANTS).items():
        if unit == "count" and len({t.get(name) for t in traced}) > 1:
            problems.append(f"traced count {name} differs between repetitions")
    for path in outputs[1:]:
        os.remove(path)
    return problems


def layer_table(values: dict, reps: list[dict]) -> str:
    """Per-layer self time and calls, plus the tracing overhead."""
    lines = ["| layer | self_s | calls |", "| --- | --- | --- |",
             f"| cli (import) | {values['cli.import_s']:.4f} | 1 |"]
    for layer in metrics.TRACED_LAYERS:
        lines.append(f"| {layer} | {values[layer + '.self_s']:.4f} "
                     f"| {values[layer + '.calls']} |")
    lines.append(f"\nspans: {values['tracing.spans']}; tracing overhead: "
                 f"{values['tracing.overhead_s']:+.3f} s (traced wall_s minus "
                 f"untraced wall_s, medians of "
                 f"{sum(r['traced'] for r in reps)} traced and "
                 f"{sum(not r['traced'] for r in reps)} untraced repetitions)")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    values, reps, problems = run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for note in problems + [n for r in reps for n in r["notes"]]:
        print(f"check failed: {note}", file=sys.stderr)
    shown = dict(metrics.END_TO_END, **metrics.TEXT_ONLY)
    if args.trace:
        shown.update(metrics.PER_LAYER, **metrics.INVARIANTS)
        table = layer_table(values, reps)
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                    "-layers.md"), "w") as fh:
            fh.write(table)
        print(table)
    n_solves = sum(len(r["solve_s"]) for r in reps if not r["traced"])
    print(f"{args.workload} seed={args.seed}: {len(reps)} repetitions, "
          f"{n_solves} untraced solve samples, failed {failed} of "
          f"{attempted} operations")
    for name, unit in shown.items():
        value = values.get(name)
        print(f"{name} {'n/a' if value is None else value} {unit}")
    declared = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    missing = [name for name in declared if values.get(name) is None]
    if missing:
        print(f"no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
