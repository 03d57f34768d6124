import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner

from urllc_ee import (DEFAULT_CONFIG_TEXT, allocator, cli, config_io,
                      experiments, fading, model, rate, simulator,
                      solve_allocation, traffic)
from urllc_ee.cli import main

import oracles


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text(DEFAULT_CONFIG_TEXT)
    return os.fspath(path)


class TestSolve:
    def test_single_user_solve(self, runner, config_file, tmp_path):
        out = os.fspath(tmp_path / "alloc.json")
        res = runner.invoke(main, ["solve", "--config", config_file,
                                   "--out", out])
        assert res.exit_code == 0, res.output
        data = json.loads(Path(out).read_text())
        assert data["antennas"] == 4
        assert data["bandwidths_hz"][0] == pytest.approx(3.1544646939557137e6)
        assert data["case_tag"] == "SufficientBandwidth"

    def test_malformed_config_exit_3(self, runner, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frame_duration = quick\nuser_distances_m = 250\n")
        res = runner.invoke(main, ["solve", "--config", os.fspath(path)])
        assert res.exit_code == 3
        assert "line 1" in res.output

    def test_both_forms_of_one_quantity_exit_3(self, runner, tmp_path):
        path = tmp_path / "both.cfg"
        path.write_text(DEFAULT_CONFIG_TEXT + "max_bs_power = 1\n")
        res = runner.invoke(main, ["solve", "--config", os.fspath(path)])
        assert res.exit_code == 3, res.output
        assert "'max_bs_power_dbm' on line 8" in res.output

    def test_missing_config_exit_3(self, runner, tmp_path):
        res = runner.invoke(main, ["solve", "--config",
                                   os.fspath(tmp_path / "nope.cfg")])
        assert res.exit_code == 3

    def test_infeasible_exit_2(self, runner, tmp_path):
        path = tmp_path / "tight.cfg"
        path.write_text(DEFAULT_CONFIG_TEXT.replace(
            "total_bandwidth = 20e6", "total_bandwidth = 100"))
        res = runner.invoke(main, ["solve", "--config", os.fspath(path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("eff", ["1e-308", "1e-200"])
    def test_antenna_root_past_the_cap(self, runner, tmp_path, eff):
        # the closed-form count is inf or ~1e100: the solve starts at the
        # 512-antenna cap, and past it the power budget is infeasible
        path = tmp_path / "amp.cfg"
        text = DEFAULT_CONFIG_TEXT.replace("amplifier_efficiency = 0.5",
                                           f"amplifier_efficiency = {eff}")
        path.write_text(text)
        out = tmp_path / "alloc.json"
        res = runner.invoke(main, ["solve", "--config", os.fspath(path),
                                   "--out", os.fspath(out)])
        assert res.exit_code == 0, res.output
        assert json.loads(out.read_text())["antennas"] == 512
        path.write_text(text.replace("max_bs_power_dbm = 40",
                                     "max_bs_power_dbm = -10"))
        res = runner.invoke(main, ["solve", "--config", os.fspath(path)])
        assert res.exit_code == 2, res.output
        assert "512 antennas" in res.output

    def test_many_users_reports_feasibility(self, runner, tmp_path):
        # forty cell-edge-ish users: must complete and state the outcome
        dists = ", ".join(str(50 + 5 * i) for i in range(40))
        path = tmp_path / "forty.cfg"
        path.write_text(DEFAULT_CONFIG_TEXT.replace(
            "user_distances_m = 250", f"user_distances_m = {dists}"))
        res = runner.invoke(main, ["solve", "--config", os.fspath(path)])
        assert res.exit_code in (0, 2)
        assert res.output.strip()

    def test_byte_identical_reruns(self, runner, config_file, tmp_path):
        out1 = os.fspath(tmp_path / "a.json")
        out2 = os.fspath(tmp_path / "b.json")
        assert runner.invoke(main, ["solve", "--config", config_file,
                                    "--out", out1]).exit_code == 0
        assert runner.invoke(main, ["solve", "--config", config_file,
                                    "--out", out2]).exit_code == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()


class TestTableWth:
    def test_reference_rows(self, runner, config_file, tmp_path):
        out = os.fspath(tmp_path / "wth.csv")
        res = runner.invoke(main, ["table-wth", "--config", config_file,
                                   "--out", out])
        assert res.exit_code == 0, res.output
        lines = [l for l in Path(out).read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "eps_c,w_th_hz"
        rows = [l.split(",") for l in lines[1:]]
        wths = [float(r[1]) for r in rows]
        for got, want in zip(wths, (7.35e6, 7.42e6, 7.53e6, 7.70e6)):
            assert got == pytest.approx(want, rel=1e-2)
        # tighter error targets need less bandwidth
        assert wths == sorted(wths)

    def test_near_half_eps_rejected_outside_domain(self, runner, config_file,
                                                   tmp_path):
        out = os.fspath(tmp_path / "wth.csv")
        res = runner.invoke(main, ["table-wth", "--config", config_file,
                                   "--out", out, "--eps", "0.6"])
        assert res.exit_code == 3

    def test_near_degenerate_eps_large_minimizer(self, runner, config_file,
                                                 tmp_path):
        out = os.fspath(tmp_path / "wth.csv")
        res = runner.invoke(main, ["table-wth", "--config", config_file,
                                   "--out", out, "--eps", "1e-7,0.4999"])
        assert res.exit_code == 0, res.output
        lines = [l for l in Path(out).read_text().splitlines()
                 if not l.startswith("#")][1:]
        w_tight = float(lines[0].split(",")[1])
        w_loose = float(lines[1].split(",")[1])
        assert w_loose > 50 * w_tight

    def test_byte_identical_reruns(self, runner, config_file, tmp_path):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = os.fspath(tmp_path / name)
            assert runner.invoke(main, ["table-wth", "--config", config_file,
                                        "--out", out]).exit_code == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]


class TestSimulate:
    def test_small_run_writes_report(self, runner, config_file, tmp_path):
        out = os.fspath(tmp_path / "rep.json")
        res = runner.invoke(main, ["simulate", "--config", config_file,
                                   "--out", out, "--frames", "200000",
                                   "--seed", "3", "--streams", "2",
                                   "--eps-h", "1e-2"])
        assert res.exit_code == 0, res.output
        data = json.loads(Path(out).read_text())
        assert data["frames_run"] == 200000
        assert data["achieved_eps_h"] <= 1e-2

    def test_unresolvable_warning(self, runner, config_file, tmp_path):
        out = os.fspath(tmp_path / "rep.json")
        res = runner.invoke(main, ["simulate", "--config", config_file,
                                   "--out", out, "--frames", "50000",
                                   "--seed", "3", "--streams", "1"])
        assert res.exit_code == 0
        assert "unresolved" in res.output

    def test_deterministic(self, runner, config_file, tmp_path):
        outs = []
        for name in ("s1.json", "s2.json"):
            out = os.fspath(tmp_path / name)
            res = runner.invoke(main, ["simulate", "--config", config_file,
                                       "--out", out, "--frames", "100000",
                                       "--seed", "9", "--streams", "2",
                                       "--eps-h", "1e-2"])
            assert res.exit_code == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

    def test_trace_flag(self, runner, config_file, tmp_path):
        trace = os.fspath(tmp_path / "trace.csv")
        res = runner.invoke(main, ["simulate", "--config", config_file,
                                   "--frames", "300", "--seed", "4",
                                   "--streams", "1", "--trace", trace])
        assert res.exit_code == 0, res.output
        lines = Path(trace).read_text().splitlines()
        assert len(lines) == 301
        assert lines[0].startswith("frame,user,gain")


class TestTableDrop:
    def test_rows_and_warning(self, runner, config_file, tmp_path):
        out = os.fspath(tmp_path / "drop.csv")
        res = runner.invoke(main, ["table-drop", "--config", config_file,
                                   "--out", out, "--eps", "1e-2,1e-7",
                                   "--frames", "300000", "--seed", "2",
                                   "--streams", "2"])
        assert res.exit_code == 0, res.output
        lines = [l for l in Path(out).read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0].startswith("required_eps_h,achieved_eps_h")
        first = lines[1].split(",")
        assert float(first[1]) <= float(first[0])
        # the 1e-7 row cannot produce events at this scale
        assert "warning" in res.output


class TestSweepAntennas:
    def test_locus_and_unimodality(self, runner, config_file, tmp_path):
        out = os.fspath(tmp_path / "ant.csv")
        res = runner.invoke(main, ["sweep-antennas", "--config", config_file,
                                   "--out", out, "--k-values", "5,10",
                                   "--nt-max", "40"])
        assert res.exit_code == 0, res.output
        lines = [l for l in Path(out).read_text().splitlines()
                 if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        sweep5 = [(int(r[1]), float(r[2])) for r in rows
                  if r[0] == "5" and r[4] == "0"]
        powers = [p for _n, p in sweep5]
        drops = sum(1 for a, b in zip(powers, powers[1:]) if b < a)
        rises = sum(1 for a, b in zip(powers, powers[1:]) if b > a)
        assert drops > 0 and rises > 0  # falls then rises
        locus5 = [r for r in rows if r[0] == "5" and r[4] == "1"]
        assert len(locus5) == 1

    def test_locus_matches_solver(self, runner, config_file, tmp_path):
        out = os.fspath(tmp_path / "ant.csv")
        res = runner.invoke(main, ["sweep-antennas", "--config", config_file,
                                   "--out", out, "--k-values", "1,5",
                                   "--nt-max", "40"])
        assert res.exit_code == 0
        from urllc_ee import solve_allocation
        from urllc_ee.config_io import load_config
        from urllc_ee.experiments import place_users
        cfg, _ = load_config(config_file)
        lines = [l for l in Path(out).read_text().splitlines()
                 if not l.startswith("#")]
        for k in (1, 5):
            alloc = solve_allocation(cfg, place_users(k, cfg))
            locus = [l.split(",") for l in lines[1:]
                     if l.split(",")[4] == "1" and l.split(",")[0] == str(k)][0]
            assert int(locus[1]) == alloc.antennas


class TestSweepUsers:
    def test_dominance_small_range(self, runner, config_file, tmp_path):
        out = os.fspath(tmp_path / "ee.csv")
        res = runner.invoke(main, ["sweep-users", "--config", config_file,
                                   "--out", out, "--k-min", "1",
                                   "--k-max", "6", "--fixed-nt", "8,16"])
        assert res.exit_code == 0, res.output
        lines = [l for l in Path(out).read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "k,ee_joint,ee_nt8,ee_nt16"
        for line in lines[1:]:
            k, ee, ee8, ee16 = line.split(",")
            for fixed in (ee8, ee16):
                if fixed != "nan":
                    assert float(ee) >= float(fixed) * (1 - 1e-12)

    def test_k_zero_rejected(self, runner, config_file, tmp_path):
        res = runner.invoke(main, ["sweep-users", "--config", config_file,
                                   "--out", os.fspath(tmp_path / "x.csv"),
                                   "--k-min", "0", "--k-max", "3"])
        assert res.exit_code == 3


class TestExperimentSpec:
    def test_unknown_kind_rejected(self, config_file):
        from urllc_ee import ConfigError, ExperimentSpec
        with pytest.raises(ConfigError):
            ExperimentSpec(kind="plot", config_path=config_file).validate()

    def test_empty_ranges_rejected(self, config_file):
        from urllc_ee import ConfigError, ExperimentSpec
        with pytest.raises(ConfigError):
            ExperimentSpec(kind="table_wth", config_path=config_file,
                           eps_list=()).validate()
        with pytest.raises(ConfigError):
            ExperimentSpec(kind="sweep_antennas", config_path=config_file,
                           k_values=(5,), nt_values=()).validate()
        for bad in ({"kind": "simulate", "streams": 0},
                    {"kind": "simulate", "workers": 0},
                    {"kind": "simulate", "trace_path": "t.csv"},
                    {"kind": "table_wth", "service_rate": 0.0},
                    {"kind": "table_wth", "service_rate": float("nan")},
                    {"kind": "table_drop", "distance": -5.0},
                    {"kind": "table_drop", "distance": float("inf")},
                    {"kind": "sweep_users", "k_values": (3,),
                     "fixed_nts": (8, 1)},
                    {"kind": "sweep_antennas", "k_values": (3,),
                     "nt_values": (1, 2, 3)}):
            with pytest.raises(ConfigError):
                ExperimentSpec(config_path=config_file, eps_list=(1e-5,),
                               **bad).validate()

    @pytest.mark.parametrize("args,edit", [
        (["table-wth", "--service-rate", "0"], None),
        (["table-wth", "--service-rate", "nan"], None),
        (["simulate", "--streams", "0"], None),
        (["simulate", "--workers", "0"], None),
        (["table-drop", "--distance", "-5"], None),
        (["solve"], ("noise_psd_dbm_hz = -173", "noise_psd_dbm_hz = nan")),
        (["sweep-users", "--k-max", "2", "--fixed-nt", "1"], None),
        (["sweep-antennas", "--k-values", "2", "--nt-min", "1"], None),
        (["simulate", "--trace", "trace.csv"], None),
        # the sweeps and the dropping table place their own users, so a
        # config whose traffic they would ignore is refused
        (["sweep-users", "--k-max", "2", "--fixed-nt", "8"],
         ("node_packet_rate_hz = 10", "node_packet_rate_hz = 100")),
        (["sweep-antennas", "--k-values", "2"],
         ("nodes_per_user = 20", "nodes_per_user = 5")),
        (["table-drop", "--eps", "1e-2", "--frames", "1000"],
         ("user_distances_m = 250",
          "user_distances_m = 250, 100\nuser_arrival_rates_pps = 200, 400")),
        (["table-drop", "--eps", "1e-4,abc"], None),
        (["table-wth", "--eps", "0.1,y"], None),
        (["sweep-users", "--k-max", "2", "--fixed-nt", "8,x"], None),
        (["sweep-antennas", "--k-values", "5,x"], None),
        # numpy refuses a negative seed; a grid sweep, which ignores the
        # seed, refuses it too
        (["simulate", "--seed", "-1", "--frames", "1000"], None),
        (["table-drop", "--seed", "-1", "--frames", "1000"], None),
        (["sweep-users", "--k-max", "2", "--fixed-nt", "8", "--placement",
          "uniform", "--seed", "-1"], None),
        (["sweep-antennas", "--k-values", "2", "--placement", "uniform",
          "--seed", "-1"], None),
    ], ids=["rate-zero", "rate-nan", "streams-zero", "workers-zero",
            "distance-negative", "noise-nan", "fixed-nt-one", "nt-min-one",
            "trace-multi-stream", "sweep-users-node-rate",
            "sweep-antennas-node-count", "table-drop-user-rates",
            "table-drop-eps-list", "table-wth-eps-list",
            "sweep-users-fixed-nt-list", "sweep-antennas-k-list",
            "simulate-seed-negative", "table-drop-seed-negative",
            "sweep-users-seed-negative", "sweep-antennas-seed-negative"])
    def test_bad_inputs_exit_3(self, runner, tmp_path, args, edit):
        # ``edit`` is a (line, replacement) pair for the default config
        path = tmp_path / "cell.cfg"
        path.write_text(DEFAULT_CONFIG_TEXT.replace(*edit) if edit else
                        DEFAULT_CONFIG_TEXT)
        args = [os.fspath(tmp_path / a) if a.endswith(".csv") else a
                for a in args] + ["--config", os.fspath(path)]
        if args[0].startswith(("table", "sweep")):
            args += ["--out", os.fspath(tmp_path / "t.csv")]
        res = runner.invoke(main, args)
        assert res.exit_code == 3, res.output
        assert "config error" in res.output

    def test_cli_import_leaves_out_quadrature(self):
        # scipy serves only the tests' oracles and the dropping bound's
        # x >= 0.6 a region, and importing it would make up most of every
        # CLI start
        out = run_fresh("import sys, urllc_ee.cli; "
                        "print('scipy' in sys.modules)")
        assert out.strip() == "False"

    def test_programmatic_solve(self, config_file):
        from urllc_ee import ExperimentSpec, run_experiment
        result = run_experiment(ExperimentSpec(kind="solve",
                                               config_path=config_file))
        assert result["allocation"].antennas == 4

    def test_placement_schemes_differ(self, config_file):
        from urllc_ee import place_users
        from urllc_ee.config_io import load_config
        cfg, _ = load_config(config_file)
        grid = [u.distance for u in place_users(4, cfg, scheme="grid")]
        unif = [u.distance for u in place_users(4, cfg, scheme="uniform",
                                                seed=1234)]
        assert grid == [75.0, 125.0, 175.0, 225.0]
        assert grid != unif
        assert all(50 <= d <= 250 for d in unif)
        # uniform placement is prefix-stable as K grows
        unif6 = [u.distance for u in place_users(6, cfg, scheme="uniform",
                                                 seed=1234)]
        assert unif6[:4] == unif


# The six commands on small inputs.
SMALL_COMMANDS = [
    ["solve"],
    # a relaxed dropping budget makes deep fades, which reach the
    # finite-blocklength rate
    ["simulate", "--frames", "20000", "--streams", "1", "--eps-h", "1e-2"],
    ["table-wth", "--eps", "1e-7"],
    ["table-drop", "--eps", "1e-2", "--frames", "20000", "--streams", "1"],
    # the default N_t range 2..64, whose threshold searches bracket past
    # x = 0.6 a, where scipy serves the incomplete gamma
    ["sweep-antennas", "--k-values", "2"],
    ["sweep-users", "--k-max", "2", "--fixed-nt", "8"],
]


def run_fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run with ``args`` in a fresh interpreter that
    imports this checkout's package."""
    import urllc_ee
    src = os.path.dirname(os.path.dirname(urllc_ee.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_every_public_function_runs_in_a_command(runner, config_file,
                                                 tmp_path):
    # a public function that none of the six commands reaches is dead API:
    # test-only references belong in tests/oracles.py
    layers = (cli, config_io, model, rate, traffic, fading, allocator,
              simulator, experiments)
    public = {fn.__code__: f"{mod.__name__}.{name}"
              for mod in layers for name, fn in vars(mod).items()
              if inspect.isfunction(fn) and not name.startswith("_")
              and fn.__module__ == mod.__name__}
    out = os.fspath(tmp_path / "out")
    # memoized results would hide the calls behind them
    allocator._cached_prologue.cache_clear()
    fading._gain_threshold.cache_clear()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        results = [runner.invoke(main, args + ["--config", config_file,
                                               "--out", out])
                   for args in SMALL_COMMANDS]
    finally:
        sys.setprofile(previous)
    for args, res in zip(SMALL_COMMANDS, results):
        assert res.exit_code == 0, (args, res.output)
    assert sorted(public[code] for code in public.keys() - called) == []


def test_commands_leave_out_scipy(config_file, tmp_path):
    # On default inputs no threshold search needs the incomplete gamma's
    # x >= 0.6 a region, so no command loads scipy.  A loose dropping budget
    # does need it, and its solve keeps the all-scipy bits.
    code = textwrap.dedent("""\
        import json, sys
        from click.testing import CliRunner
        from urllc_ee import load_config, solve_allocation
        from urllc_ee.cli import main
        config, out = sys.argv[1:3]
        runner = CliRunner()
        for args in json.loads(sys.argv[3]):
            res = runner.invoke(main, args + ["--config", config,
                                              "--out", out])
            assert res.exit_code == 0, (args, res.output)
        print("scipy" in sys.modules)
        cfg, users = load_config(config)
        print(solve_allocation(cfg, users, eps_h=0.3).to_json())
        print("scipy" in sys.modules)
    """)
    lines = run_fresh(code, config_file, os.fspath(tmp_path / "out"),
                      json.dumps(SMALL_COMMANDS)).splitlines()
    assert (lines[0], lines[-1]) == ("False", "True")

    cfg, users = config_io.load_config(config_file)
    fading._gain_threshold.cache_clear()
    try:
        with mock.patch.object(fading, "drop_bound_F", oracles.drop_bound_F):
            want = solve_allocation(cfg, users, eps_h=0.3).to_json()
    finally:
        fading._gain_threshold.cache_clear()
    assert "\n".join(lines[1:-1]) == want
