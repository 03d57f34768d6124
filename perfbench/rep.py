"""One repetition of a workload in a fresh interpreter.

Usage: python3 rep.py '<job JSON>' (run.py builds the job).  The last line
on stdout is a JSON object with the repetition's timings, operation counts
and, for a traced repetition, its per-layer figures.  Timestamps named
``t_*`` come from ``time.monotonic``, the system-wide clock run.py also
reads, so set-up and wall time count from the moment the interpreter was
launched.

Exit code 2 means the package under test could not be imported from the
checkout; nothing is printed on stdout then.
"""

import json
import os
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    try:
        import urllc_ee.cli  # noqa: F401  (the import users pay for)
    except ImportError as exc:
        print(f"cannot import urllc_ee from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    import urllc_ee
    if not os.path.abspath(urllc_ee.__file__).startswith(src + os.sep):
        print(f"urllc_ee imported from {urllc_ee.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from urllc_ee import config_io, experiments

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.add("cli.import", t0, t0 + import_s)
    t1 = time.perf_counter()
    cfg, _ = config_io.load_config(job["config"])
    load_s = time.perf_counter() - t1
    t_setup = time.monotonic()

    # Harness modules load after set-up so that set-up times only the
    # program's own import and config load.
    import checks
    import metrics
    import workloads

    ops: list = []
    experiments.solve_allocation = checks.record(
        ops, "solve", experiments.solve_allocation)
    experiments.run_simulation = checks.record(
        ops, "simulate", experiments.run_simulation)
    spec = experiments.ExperimentSpec(
        config_path=job["config"], output_path=job["output"],
        **workloads.spec_fields(job["workload"], job["seed"]))
    protocol_error = None
    try:
        experiments.run_experiment(spec)
    except Exception as exc:  # counted as a failed operation below
        protocol_error = f"{type(exc).__name__}: {exc}"
    t_end = time.monotonic()
    import resource
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    output = ""
    if os.path.exists(job["output"]):
        with open(job["output"]) as fh:
            output = fh.read()
    if job["check"]:
        checks.check_ops(job["workload"], cfg, ops, output,
                         workloads.FIXED_NTS)
    else:
        checks.check_unexpected(ops)
    notes = [n for op in ops for n in op.notes]
    failed = sum(op.failed for op in ops)
    attempted = len(ops)
    if protocol_error and not failed:
        # the protocol broke outside any recorded operation
        notes.append(protocol_error)
        failed += 1
        attempted += 1

    sims = [op for op in ops if op.kind == "simulate" and op.error is None]
    result = {
        "t_setup": t_setup, "t_end": t_end, "rss_mb": rss_mb,
        "import_s": import_s, "load_s": load_s,
        "solve_s": [op.seconds for op in ops
                    if op.kind == "solve" and not op.failed],
        "sim_s": [op.seconds for op in sims if not op.failed],
        "sim_counts": sim_counts(sims),
        "attempted": attempted, "failed": failed, "notes": notes[:20],
        "digest": digest(ops, output),
    }
    if tracer is not None:
        tracer.write(job["spans"])
        result["layers"] = metrics.layer_values(
            tracing.summarize(tracer.spans), import_s, load_s,
            result["sim_counts"], rng_floor_s(sims))
    print(json.dumps(result))
    return 0


def sim_counts(sims: list) -> dict:
    """Event counts summed over the simulations; they repeat exactly for a
    fixed seed."""
    import metrics
    counts = dict.fromkeys(metrics.SIM_COUNTS, 0)
    for op in sims:
        counts["user_frames"] += op.kwargs["frames"] * len(op.args[2])
        for name, attr in metrics.SIM_COUNTS.items():
            if attr:
                counts[name] += int(getattr(op.result, attr))
    return counts


def digest(ops: list, output: str) -> str:
    """Hash of the output file and of every operation's outcome."""
    import hashlib
    h = hashlib.sha256(output.encode())
    for op in ops:
        if op.error is not None:
            h.update(f"{op.kind}:{type(op.error).__name__}".encode())
        else:
            h.update(op.result.to_json().encode())
    return h.hexdigest()


def rng_floor_s(sims: list) -> float:
    """Time numpy takes for the simulations' own Philox Gamma/Poisson draws.

    A computed floor, not a measurement of the program: the same streams,
    keys and chunking as the simulator, with nothing done to the draws.
    ``simulator.run_s`` minus this bounds the cost of the queue walk.
    """
    import numpy as np
    from urllc_ee.simulator import _CHUNK  # frames per chunk of draws
    total = 0.0
    for op in sims:
        policy = op.args[0]
        frames, seed = op.kwargs["frames"], op.kwargs["seed"]
        streams = op.kwargs.get("streams", 1)
        base, extra = divmod(frames, streams)
        for s in range(streams):
            nf = base + (1 if s < extra else 0)
            for u, up in enumerate(policy.users):
                t0 = time.perf_counter()
                rng = np.random.Generator(np.random.Philox(
                    np.random.SeedSequence(entropy=seed, spawn_key=(s, u))))
                done = 0
                while done < nf:
                    n = min(_CHUNK, nf - done)
                    rng.standard_gamma(policy.antennas, size=n)
                    rng.poisson(up.arrival_rate, size=n)
                    done += n
                total += time.perf_counter() - t0
    return total


if __name__ == "__main__":
    sys.exit(main())
