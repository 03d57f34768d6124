"""Tests of the benchmark harness itself (not of the program).

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
from urllc_ee import experiments  # noqa: E402
from urllc_ee.config_io import parse_config_text  # noqa: E402
from workloads import DEFAULT_CELL, FIXED_NTS  # noqa: E402


def _bench(*args) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sim-idle",
         "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_end_to_end_metric_is_emitted_with_its_unit(declared):
    result, text = _bench("--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4  # two solves, two simulations
    want = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert want == metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for value in result["metrics"].values():
        assert isinstance(value["value"], float) and value["value"] > 0
    shown = dict(line.rsplit(" ", 2)[::2] for line in text.splitlines()[1:])
    assert shown == {**metrics.END_TO_END, **metrics.TEXT_ONLY}


def test_every_per_layer_metric_is_emitted_with_its_unit(declared):
    result, text = _bench("--trace", "1")
    want = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert want == metrics.PER_LAYER
    got = result["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == want
    # invariants are printed as text only, with no direction to optimise
    assert not set(metrics.INVARIANTS) & set(want)
    shown = {}
    for line in text.splitlines():
        parts = line.split(" ")
        if len(parts) == 3:
            shown[parts[0]] = parts[1:]
    for name, unit in metrics.INVARIANTS.items():
        assert shown[name][1] == unit
    # table-drop solves and simulates once per target; every solve and
    # simulate validates the config once, through the experiments binding
    assert shown["allocator.solve_calls"][0] == "2"
    assert got["model.validate_calls"]["value"] == 4
    assert shown["simulator.user_frames"][0] == "8000000"
    assert (BENCH / "out" / "sim-idle-seed1-spans.jsonl").exists()
    assert (BENCH / "out" / "sim-idle-seed1-layers.md").exists()


def _recorded(monkeypatch, tmp_path, **fields):
    cfg_path = tmp_path / "cell.cfg"
    cfg_path.write_text(DEFAULT_CELL)
    out = tmp_path / "out.txt"
    ops = []
    for name, kind in (("solve_allocation", "solve"),
                       ("run_simulation", "simulate")):
        monkeypatch.setattr(experiments, name, checks.record(
            ops, kind, getattr(experiments, name)))
    experiments.run_experiment(experiments.ExperimentSpec(
        config_path=str(cfg_path), output_path=str(out), **fields))
    cfg, _ = parse_config_text(DEFAULT_CELL)
    return cfg, ops, out.read_text()


@pytest.fixture
def sweep(monkeypatch, tmp_path):
    # K = 7, 8 are bandwidth-limited, so the KKT check runs
    return _recorded(monkeypatch, tmp_path, kind="sweep_users",
                     k_values=tuple(range(1, 9)), fixed_nts=FIXED_NTS,
                     placement="uniform", seed=3)


def _failed(workload, cfg, ops, output):
    checks.check_ops(workload, cfg, ops, output, FIXED_NTS)
    return [op for op in ops if op.failed]


def test_clean_sweep_passes(sweep):
    assert _failed("sweep-users", *sweep) == []


def test_perturbed_ee_row_is_failed(sweep):
    cfg, ops, output = sweep
    lines = output.splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("5,"))
    fields = lines[row].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-9))
    lines[row] = ",".join(fields)
    failed = _failed("sweep-users", cfg, ops, "\n".join(lines) + "\n")
    assert len(failed) == 1 and len(failed[0].args[1]) == 5


def test_fixed_antennas_beating_the_joint_optimum_is_failed(sweep):
    cfg, ops, output = sweep
    joint, fixed = ops[15], ops[16]  # K = 4: joint, then N_t = 8
    assert fixed.kwargs == {"n_antennas": 8} and joint.kwargs == {}
    fixed.result.energy_efficiency = joint.result.energy_efficiency * 1.001
    failed = _failed("sweep-users", cfg, ops, output)
    assert fixed in failed


@pytest.fixture
def simulate(monkeypatch, tmp_path):
    return _recorded(monkeypatch, tmp_path, kind="simulate", frames=40_000,
                     seed=5, streams=2, workers=1)


def test_clean_simulation_passes(simulate):
    assert _failed("sim-busy", *simulate) == []


@pytest.mark.parametrize("field, change", [
    ("empirical_mean_tx_power", lambda x: x * 1.05),
    ("achieved_eps_h", lambda x: 1e-3),
])
def test_perturbed_sim_report_is_failed(simulate, field, change):
    cfg, ops, output = simulate
    report = ops[1].result
    setattr(report, field, change(getattr(report, field)))
    assert _failed("sim-busy", cfg, ops, report.to_json() + "\n") == [ops[1]]


def test_arrivals_outside_the_poisson_interval_are_failed(simulate):
    cfg, ops, output = simulate
    report = ops[1].result
    mean = ops[1].args[2][0].arrival_rate * 40_000
    report.per_user[0]["arrivals"] += int(7 * math.sqrt(mean))
    report.arrival_count = float(report.per_user[0]["arrivals"])
    assert _failed("sim-busy", cfg, ops, report.to_json() + "\n") == [ops[1]]


def test_report_file_differing_from_the_report_is_failed(simulate):
    cfg, ops, output = simulate
    assert _failed("sim-busy", cfg, ops, output + " ") == [ops[1]]


def test_missing_reference_fails_the_default_seed(monkeypatch, tmp_path):
    import run
    monkeypatch.setattr(run, "REFERENCE", str(tmp_path / "reference"))
    output = tmp_path / "out.csv"
    output.write_text("K,ee\n")
    reps = [{"digest": "d", "attempted": 3, "failed": 0, "traced": False}]
    problems = run.consistency("sweep-users", 1, reps, [str(output)])
    assert problems and "missing" in problems[0]
    assert reps[0]["failed"] == 3
    # any other seed has no reference and needs none
    reps[0]["failed"] = 0
    assert run.consistency("sweep-users", 2, reps, [str(output)]) == []


def test_percentile_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 201)]
    assert metrics.percentile(samples, 95) == 190.0  # 191..200 lie beyond
    assert metrics.percentile(samples[:199], 95) is None
    assert metrics.percentile(samples[:20], 50) == 10.0
    assert metrics.percentile(samples[:19], 50) is None
    assert metrics.percentile([], 50) is None


def test_times_are_medians_over_the_untraced_repetitions():
    def rep(setup, wall, rss, traced=False):
        return {"setup_s": setup, "wall_s": wall, "rss_mb": rss,
                "traced": traced, "solve_s": [], "sim_s": [],
                "attempted": 1, "failed": 0, "layers": {}}
    reps = [rep(0.9, 3.0, 80.0), rep(0.5, 4.0, 90.0), rep(0.7, 2.5, 85.0),
            rep(0.6, 3.5, 99.0, traced=True),
            rep(0.4, 3.3, 99.0, traced=True)]
    out = metrics.reduce_run(reps)
    assert (out["setup_s"], out["wall_s"]) == (0.7, 3.0)
    assert out["peak_rss_mb"] == 85.0
    assert out["tracing.overhead_s"] == pytest.approx(0.4)


def test_self_time_subtracts_direct_children():
    spans = [["experiments.run", 0.0, 10.0, -1],
             ["allocator.solve", 1.0, 7.0, 0],
             ["rate.snr", 2.0, 3.0, 1],
             ["rate.snr", 4.0, 6.0, 1]]
    s = tracing.summarize(spans)
    assert s["layers"]["experiments"] == {"calls": 1, "self_s": 4.0}
    assert s["layers"]["allocator"] == {"calls": 1, "self_s": 3.0}
    assert s["names"]["rate.snr"] == {"calls": 2, "total_s": 3.0,
                                      "self_s": 3.0}
