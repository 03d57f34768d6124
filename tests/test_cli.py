import ast
import hashlib
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urllc_ee import (DEFAULT_CONFIG_TEXT, allocator, cli, config_io,
                      experiments, fading, model, rate, simulator,
                      solve_allocation, traffic)

from conftest import run_cli


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cell.cfg"
    path.write_text(DEFAULT_CONFIG_TEXT)
    return os.fspath(path)


class TestSolve:
    def test_single_user_solve(self, config_file, tmp_path):
        out = os.fspath(tmp_path / "alloc.json")
        res = run_cli(["solve", "--config", config_file, "--out", out])
        assert res.exit_code == 0, res.output
        data = json.loads(Path(out).read_text())
        assert data["antennas"] == 4
        assert data["bandwidths_hz"][0] == pytest.approx(3.1544646939557137e6)
        assert data["case_tag"] == "SufficientBandwidth"

    def test_malformed_config_exit_3(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frame_duration = quick\nuser_distances_m = 250\n")
        res = run_cli(["solve", "--config", os.fspath(path)])
        assert res.exit_code == 3
        assert "line 1" in res.output

    def test_both_forms_of_one_quantity_exit_3(self, tmp_path):
        path = tmp_path / "both.cfg"
        path.write_text(DEFAULT_CONFIG_TEXT + "max_bs_power = 1\n")
        res = run_cli(["solve", "--config", os.fspath(path)])
        assert res.exit_code == 3, res.output
        assert "'max_bs_power_dbm' on line 8" in res.output

    def test_missing_config_exit_3(self, tmp_path):
        res = run_cli(["solve", "--config", os.fspath(tmp_path / "nope.cfg")])
        assert res.exit_code == 3

    def test_infeasible_exit_2(self, tmp_path):
        path = tmp_path / "tight.cfg"
        path.write_text(DEFAULT_CONFIG_TEXT.replace(
            "total_bandwidth = 20e6", "total_bandwidth = 100"))
        res = run_cli(["solve", "--config", os.fspath(path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("eff", ["1e-308", "1e-200"])
    def test_antenna_root_past_the_cap(self, tmp_path, eff):
        # the closed-form count is inf or ~1e100: the solve starts at the
        # 512-antenna cap, and past it the power budget is infeasible
        path = tmp_path / "amp.cfg"
        text = DEFAULT_CONFIG_TEXT.replace("amplifier_efficiency = 0.5",
                                           f"amplifier_efficiency = {eff}")
        path.write_text(text)
        out = tmp_path / "alloc.json"
        res = run_cli(["solve", "--config", os.fspath(path),
                       "--out", os.fspath(out)])
        assert res.exit_code == 0, res.output
        assert json.loads(out.read_text())["antennas"] == 512
        path.write_text(text.replace("max_bs_power_dbm = 40",
                                     "max_bs_power_dbm = -10"))
        res = run_cli(["solve", "--config", os.fspath(path)])
        assert res.exit_code == 2, res.output
        assert "512 antennas" in res.output

    def test_many_users_reports_feasibility(self, tmp_path):
        # forty cell-edge-ish users: must complete and state the outcome
        dists = ", ".join(str(50 + 5 * i) for i in range(40))
        path = tmp_path / "forty.cfg"
        path.write_text(DEFAULT_CONFIG_TEXT.replace(
            "user_distances_m = 250", f"user_distances_m = {dists}"))
        res = run_cli(["solve", "--config", os.fspath(path)])
        assert res.exit_code in (0, 2)
        assert res.output.strip()

    def test_byte_identical_reruns(self, config_file, tmp_path):
        out1 = os.fspath(tmp_path / "a.json")
        out2 = os.fspath(tmp_path / "b.json")
        assert run_cli(["solve", "--config", config_file,
                        "--out", out1]).exit_code == 0
        assert run_cli(["solve", "--config", config_file,
                        "--out", out2]).exit_code == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()


class TestExitCodes:
    @pytest.mark.parametrize("args, message", [
        (["solve"], "required: --config"),
        (["simulate", "--frames", "abc"], "invalid int value: 'abc'"),
        # argparse names a missing required option before an unknown one
        (["simulate", "--bogus", "1", "--config", None],
         "unrecognized arguments: --bogus"),
        (["sweep-users", "--placement", "ring"], "invalid choice: 'ring'"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        ([], "usage:"),
        # a prefix of --frames is no option: the run would exit 0
        (["simulate", "--fr", "1000", "--config", None],
         "unrecognized arguments: --fr"),
    ], ids=["solve-no-config", "frames-not-int", "unknown-option",
            "placement-unknown", "unknown-command", "bare", "option-prefix"])
    def test_usage_errors_exit_3(self, config_file, args, message):
        # argparse's own code for a usage error is 2, which here means an
        # infeasible allocation; None stands for a valid config file
        res = run_cli([config_file if a is None else a for a in args])
        assert res.exit_code == 3, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert message in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("closed, args, other_text", [
        ("stdout", ["solve", "--config", None], b""),
        ("stdout", ["--help"], b""),
        # with 1000 frames the run warns of too few drop events
        ("stderr", ["simulate", "--frames", "1000", "--out", "report.json",
                    "--config", None], rb"achieved_eps_h=.* drop_events=0\n"),
    ], ids=["solve", "help", "warning"])
    def test_closed_pipe_exits_1(self, config_file, tmp_path, closed, args,
                                 other_text):
        # a reader that stops reading early, as `head` does, ends the run
        # with exit 1 and no error on the other stream, not as a config
        # error; the streams keep their default buffering, so what they
        # still hold is flushed once more at exit
        env = checkout_env()
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        other = "stderr" if closed == "stdout" else "stdout"
        with open(write_end, "wb") as pipe:
            proc = subprocess.run(
                [sys.executable, "-m", "urllc_ee.cli",
                 *(config_file if a is None else a for a in args)],
                **{closed: pipe, other: subprocess.PIPE}, cwd=tmp_path,
                env=env, timeout=60)
        assert proc.returncode == 1, proc
        assert re.fullmatch(other_text, getattr(proc, other))

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_full_stdout_exits_3(self, config_file, tmp_path):
        # a stdout that fails other than by a closed pipe is a config error,
        # named once: the bytes it kept are not flushed again at exit, which
        # would fail once more and exit 120
        env = checkout_env()
        env.pop("PYTHONUNBUFFERED", None)
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "urllc_ee.cli", "solve",
                 "--config", config_file], stdout=full,
                stderr=subprocess.PIPE, cwd=tmp_path, env=env, timeout=60,
                text=True)
        assert proc.returncode == 3, proc
        assert re.fullmatch(r"config error: .*\n", proc.stderr), proc

    @pytest.mark.parametrize("args", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, args):
        res = run_cli(args)
        assert res.exit_code == 0, res.output
        assert res.stdout.startswith("usage:")

    @pytest.mark.parametrize("command", ["solve", "simulate", "table-wth",
                                         "table-drop", "sweep-antennas",
                                         "sweep-users"])
    def test_help_names_the_option_values(self, command):
        # an option's dest is the spec field it fills, so its metavar keeps
        # the usage line's value names
        usage = run_cli([command, "--help"]).stdout
        assert "--config CONFIG" in usage and "--out OUT" in usage
        assert ("--trace TRACE" in usage) == (command == "simulate")
        assert not re.search("CONFIG_PATH|OUTPUT_PATH|TRACE_PATH", usage)


class TestUserForms:
    """A user given by its distance and one given by that distance's gain
    are one user: every output byte agrees."""

    CELLS = {"default": "user_distances_m = 250",
             "busy": "user_distances_m = 100, 150, 200, 250\n"
                     "user_arrival_rates_pps = 20000, 20000, 5000, 20000"}

    @pytest.mark.parametrize("cell", CELLS)
    def test_distances_and_gains_give_the_same_bytes(self, tmp_path, cell):
        from urllc_ee import path_loss_gain
        text = DEFAULT_CONFIG_TEXT.replace("user_distances_m = 250",
                                           self.CELLS[cell])
        dists = text.split("user_distances_m = ")[1].split("\n")[0]
        gains = ", ".join(repr(path_loss_gain(float(d)))
                          for d in dists.split(","))
        outputs = []
        for form, users in (("d", f"user_distances_m = {dists}"),
                            ("g", f"user_gains = {gains}")):
            path = tmp_path / f"{form}.cfg"
            path.write_text(text.replace(f"user_distances_m = {dists}", users))
            for args in (["solve"], ["simulate", "--frames", "20000",
                                     "--streams", "2"]):
                out = tmp_path / f"{form}-{args[0]}.json"
                res = run_cli(args + ["--config", os.fspath(path),
                                      "--out", os.fspath(out)])
                assert res.exit_code == 0, res.output
                outputs.append(out.read_bytes())
        assert "user_gains" in path.read_text()
        assert outputs[:2] == outputs[2:]


class TestTableWth:
    def test_reference_rows(self, config_file, tmp_path):
        out = os.fspath(tmp_path / "wth.csv")
        res = run_cli(["table-wth", "--config", config_file, "--out", out])
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

    def test_near_half_eps_rejected_outside_domain(self, config_file,
                                                   tmp_path):
        out = os.fspath(tmp_path / "wth.csv")
        res = run_cli(["table-wth", "--config", config_file,
                       "--out", out, "--eps", "0.6"])
        assert res.exit_code == 3

    def test_near_degenerate_eps_large_minimizer(self, config_file,
                                                 tmp_path):
        out = os.fspath(tmp_path / "wth.csv")
        res = run_cli(["table-wth", "--config", config_file,
                       "--out", out, "--eps", "1e-7,0.4999"])
        assert res.exit_code == 0, res.output
        lines = [l for l in Path(out).read_text().splitlines()
                 if not l.startswith("#")][1:]
        w_tight = float(lines[0].split(",")[1])
        w_loose = float(lines[1].split(",")[1])
        assert w_loose > 50 * w_tight

    def test_subnormal_eps_writes_a_finite_row(self, config_file,
                                               tmp_path):
        out = os.fspath(tmp_path / "wth.csv")
        res = run_cli(["table-wth", "--config", config_file,
                       "--out", out, "--eps", "1e-320"])
        assert res.exit_code == 0, res.output
        lines = [l for l in Path(out).read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 2
        eps, w_th = map(float, lines[1].split(","))
        assert eps == 1e-320
        assert 0.0 < w_th < math.inf

    def test_byte_identical_reruns(self, config_file, tmp_path):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = os.fspath(tmp_path / name)
            assert run_cli(["table-wth", "--config", config_file,
                            "--out", out]).exit_code == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]


class TestSimulate:
    def test_small_run_writes_report(self, config_file, tmp_path):
        out = os.fspath(tmp_path / "rep.json")
        res = run_cli(["simulate", "--config", config_file,
                       "--out", out, "--frames", "200000",
                       "--seed", "3", "--streams", "2",
                       "--eps-h", "1e-2"])
        assert res.exit_code == 0, res.output
        data = json.loads(Path(out).read_text())
        assert data["frames_run"] == 200000
        assert data["achieved_eps_h"] <= 1e-2

    def test_unresolvable_warning(self, config_file, tmp_path):
        out = os.fspath(tmp_path / "rep.json")
        res = run_cli(["simulate", "--config", config_file,
                       "--out", out, "--frames", "50000",
                       "--seed", "3", "--streams", "1"])
        assert res.exit_code == 0
        assert "unresolved" in res.output

    def test_deterministic(self, config_file, tmp_path):
        outs = []
        for name in ("s1.json", "s2.json"):
            out = os.fspath(tmp_path / name)
            res = run_cli(["simulate", "--config", config_file,
                           "--out", out, "--frames", "100000",
                           "--seed", "9", "--streams", "2",
                           "--eps-h", "1e-2"])
            assert res.exit_code == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]

    def test_trace_flag(self, config_file, tmp_path):
        trace = os.fspath(tmp_path / "trace.csv")
        res = run_cli(["simulate", "--config", config_file,
                       "--frames", "300", "--seed", "4",
                       "--streams", "1", "--trace", trace])
        assert res.exit_code == 0, res.output
        lines = Path(trace).read_text().splitlines()
        assert len(lines) == 301
        assert lines[0].startswith("frame,user,gain")


class TestTableDrop:
    def test_rows_and_warning(self, config_file, tmp_path):
        out = os.fspath(tmp_path / "drop.csv")
        res = run_cli(["table-drop", "--config", config_file,
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
    def test_locus_and_unimodality(self, config_file, tmp_path):
        out = os.fspath(tmp_path / "ant.csv")
        res = run_cli(["sweep-antennas", "--config", config_file,
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

    def test_locus_matches_solver(self, config_file, tmp_path):
        out = os.fspath(tmp_path / "ant.csv")
        res = run_cli(["sweep-antennas", "--config", config_file,
                       "--out", out, "--k-values", "1,5",
                       "--nt-max", "40"])
        assert res.exit_code == 0
        from urllc_ee import solve_allocation
        from urllc_ee.config_io import load_config
        from urllc_ee.experiments import place_users
        cfg, users = load_config(config_file)
        lines = [l for l in Path(out).read_text().splitlines()
                 if not l.startswith("#")]
        for k in (1, 5):
            alloc = solve_allocation(
                cfg, place_users(k, users[0].arrival_rate))
            locus = [l.split(",") for l in lines[1:]
                     if l.split(",")[4] == "1" and l.split(",")[0] == str(k)][0]
            assert int(locus[1]) == alloc.antennas


class TestSweepUsers:
    def test_dominance_small_range(self, config_file, tmp_path):
        out = os.fspath(tmp_path / "ee.csv")
        res = run_cli(["sweep-users", "--config", config_file,
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

    def test_k_zero_rejected(self, config_file, tmp_path):
        res = run_cli(["sweep-users", "--config", config_file,
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
                    {"kind": "simulate", "trace_path": ""},
                    {"kind": "table_wth", "service_rate": 0.0},
                    {"kind": "table_wth", "service_rate": float("nan")},
                    {"kind": "table_drop", "distance": -5.0},
                    {"kind": "table_drop", "distance": float("inf")},
                    {"kind": "sweep_users", "k_values": (3,),
                     "fixed_nts": (8, 1)},
                    {"kind": "sweep_users", "k_values": (3,),
                     "fixed_nts": (8, 513)},
                    {"kind": "sweep_antennas", "k_values": (3,),
                     "nt_values": (1, 2, 3)},
                    {"kind": "sweep_antennas", "k_values": (3,),
                     "nt_values": (511, 512, 513)}):
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
        (["simulate", "--trace", ""], None),
        # the sweeps and the dropping table place users that share one
        # arrival rate, so a config whose users' rates differ is refused
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
        # table-wth validates its config like solve does
        (["table-wth"], ("dl_fraction = 0.5e-4", "dl_fraction = 0")),
        (["table-wth"], ("dl_fraction = 0.5e-4", "dl_fraction = -1e-4")),
        (["table-wth"], ("packet_bits = 160", "packet_bits = 0")),
        # W_th grows like the rate to the 4/3 and overflows
        (["table-wth", "--service-rate", "1e300"], None),
        # the path-loss gain of so short a distance overflows
        (["table-drop", "--distance", "1e-300", "--frames", "1000"], None),
        # the two-frame allowance absorbs at most one backhaul frame
        (["solve"], ("backhaul_delay = 1e-4", "backhaul_delay = 6e-4")),
        # a repeated entry would repeat a column or a row
        (["sweep-users", "--k-max", "2", "--fixed-nt", "8,8"], None),
        (["sweep-antennas", "--k-values", "3,3"], None),
        (["table-drop", "--eps", "1e-4,1e-4", "--frames", "1000"], None),
        # a joint solve stops at the antenna cap, so no fixed or swept
        # count may pass it
        (["sweep-users", "--k-max", "2", "--fixed-nt", "600"], None),
        (["sweep-antennas", "--k-values", "2", "--nt-max", "513"], None),
        # with bandwidth and power to spare, 2e20 packets/frame solves, but
        # numpy draws no Poisson count past about 9.2e18
        (["simulate", "--frames", "1000"], (
            "total_bandwidth = 20e6\nmax_bs_power_dbm = 40",
            "total_bandwidth = 1e40\nmax_bs_power_dbm = 400\n"
            "user_arrival_rates_pps = 2e24")),
    ], ids=["rate-zero", "rate-nan", "streams-zero", "workers-zero",
            "distance-negative", "noise-nan", "fixed-nt-one", "nt-min-one",
            "trace-multi-stream", "trace-empty-path", "table-drop-user-rates",
            "table-drop-eps-list", "table-wth-eps-list",
            "sweep-users-fixed-nt-list", "sweep-antennas-k-list",
            "simulate-seed-negative", "table-drop-seed-negative",
            "sweep-users-seed-negative", "sweep-antennas-seed-negative",
            "table-wth-dl-fraction-zero", "table-wth-dl-fraction-negative",
            "table-wth-packet-bits-zero", "table-wth-w-th-overflow",
            "table-drop-distance-overflow", "backhaul-six-frames",
            "sweep-users-fixed-nt-repeated", "sweep-antennas-k-repeated",
            "table-drop-eps-repeated", "fixed-nt-past-cap",
            "nt-max-past-cap", "arrival-rate-past-poisson-limit"])
    def test_bad_inputs_exit_3(self, tmp_path, args, edit):
        # ``edit`` is a (line, replacement) pair for the default config
        path = tmp_path / "cell.cfg"
        path.write_text(DEFAULT_CONFIG_TEXT.replace(*edit) if edit else
                        DEFAULT_CONFIG_TEXT)
        args = [os.fspath(tmp_path / a) if a.endswith(".csv") else a
                for a in args] + ["--config", os.fspath(path)]
        if args[0].startswith(("table", "sweep")):
            args += ["--out", os.fspath(tmp_path / "t.csv")]
        res = run_cli(args)
        assert res.exit_code == 3, res.output
        assert "config error" in res.output
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("args", [
        ["sweep-users", "--k-max", "2", "--fixed-nt", "8"],
        ["sweep-antennas", "--k-values", "2"],
        ["table-drop", "--eps", "1e-2", "--frames", "1000"],
    ], ids=["sweep-users", "sweep-antennas", "table-drop"])
    def test_nan_traffic_names_the_config_fault(self, tmp_path,
                                                args):
        # a NaN frame makes every user's rate NaN, and NaN differs from
        # itself; the fault named is the frame's, as ``solve`` names it,
        # not a difference between the users' rates
        path = tmp_path / "cell.cfg"
        path.write_text(DEFAULT_CONFIG_TEXT.replace(
            "frame_duration = 1e-4", "frame_duration = nan").replace(
            "user_distances_m = 250", "user_distances_m = 250, 100"))
        res = run_cli([*args, "--config", os.fspath(path),
                       "--out", os.fspath(tmp_path / "t.csv")])
        assert res.exit_code == 3, res.output
        assert "frame_duration must be positive and finite" in res.stderr
        assert "rates differ" not in res.stderr
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("args,edit,rate_hz", [
        (["sweep-users", "--k-max", "2", "--fixed-nt", "8"],
         ("node_packet_rate_hz = 10", "node_packet_rate_hz = 100"), 2000.0),
        (["sweep-antennas", "--k-values", "2"],
         ("nodes_per_user = 20", "nodes_per_user = 5"), 50.0),
        (["table-drop", "--eps", "1e-2", "--frames", "20000", "--streams",
          "1"],
         ("node_packet_rate_hz = 10", "node_packet_rate_hz = 100"), 2000.0),
    ], ids=["sweep-users-node-rate", "sweep-antennas-node-count",
            "table-drop-node-rate"])
    def test_placed_users_take_the_config_traffic(self, tmp_path,
                                                  args, edit, rate_hz):
        # the users these commands place carry the config users' rate
        path = tmp_path / "cell.cfg"
        path.write_text(DEFAULT_CONFIG_TEXT.replace(*edit))
        out = tmp_path / "t.csv"
        res = run_cli(args + ["--config", os.fspath(path),
                              "--out", os.fspath(out)])
        assert res.exit_code == 0, res.output
        cfg = model.SystemConfig()  # the edit leaves the cell as it is
        lam = cfg.packets_per_frame(rate_hz)
        if args[0] == "sweep-users":
            want = [(k, ee, fixed[8]) for k, ee, fixed in
                    experiments.user_sweep_rows(cfg, lam, [1, 2], [8])]
        elif args[0] == "sweep-antennas":
            rows, locus = experiments.antenna_sweep_rows(
                cfg, experiments.place_users(2, lam), list(range(2, 65)))
            want = [(2, *row, 0) for row in rows] + [(2, *locus, True, 1)]
        else:
            want = [(r["required_eps_h"], r["achieved_eps_h"],
                     r["drop_events"], r["deep_fades"], r["antennas"],
                     r["resolvable"])
                    for r in experiments.drop_table_rows(
                        cfg, lam, [1e-2], frames=20000, seed=1, streams=1)]
        got = [line.split(",") for line in out.read_text().splitlines()
               if not line.startswith("#")][1:]
        # float() reads each repr back exactly; None, infeasible, is NaN
        np.testing.assert_array_equal(np.array(got, dtype=float),
                                      np.array(want, dtype=float))

    def test_cli_import_leaves_out_quadrature(self):
        # scipy serves only the tests' oracles, and importing it would make
        # up most of every CLI start
        out = run_fresh("import sys, urllc_ee.cli; "
                        "print('scipy' in sys.modules)")
        assert out.strip() == "False"

    def test_programmatic_solve(self, config_file):
        from urllc_ee import ExperimentSpec, run_experiment
        result = run_experiment(ExperimentSpec(kind="solve",
                                               config_path=config_file))
        assert result["allocation"].antennas == 4

    def test_unknown_placement_is_a_config_error(self, config_file):
        # the CLI offers only the known schemes; a library caller may not
        from urllc_ee import ConfigError, ExperimentSpec, run_experiment
        spec = ExperimentSpec(kind="sweep_users", config_path=config_file,
                              k_values=(1,), placement="hex")
        with pytest.raises(ConfigError, match="placement scheme 'hex'"):
            run_experiment(spec)

    def test_placement_schemes_differ(self, config_file):
        from urllc_ee import path_loss_gain, place_users
        from urllc_ee.config_io import load_config
        _, users = load_config(config_file)
        lam = users[0].arrival_rate
        grid = [u.gain for u in place_users(4, lam, scheme="grid")]
        unif = [u.gain for u in place_users(4, lam, scheme="uniform",
                                            seed=1234)]
        assert grid == [path_loss_gain(d) for d in (75.0, 125.0, 175.0, 225.0)]
        assert grid != unif
        assert all(path_loss_gain(250.0) <= g <= path_loss_gain(50.0)
                   for g in unif)
        # uniform placement is prefix-stable as K grows
        unif6 = [u.gain for u in place_users(6, lam, scheme="uniform",
                                             seed=1234)]
        assert unif6[:4] == unif


def numpy_draw(seed: int, i: int) -> float:
    return float(np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(i,))).random())


class TestUniformDraw:
    """The placement draw is numpy's SeedSequence/PCG64 draw, computed
    without numpy."""

    @pytest.mark.parametrize("seed", [0, 1, 1234, 2**32 - 1, 2**32, 2**64])
    @pytest.mark.parametrize("i", [0, 1023, 2**32 + 1])
    def test_fixed_cases_equal_numpy(self, seed, i):
        assert experiments._uniform_draw.__wrapped__(seed, i) == numpy_draw(
            seed, i)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**200), i=st.integers(0, 2**64))
    def test_equals_numpy(self, seed, i):
        assert experiments._uniform_draw.__wrapped__(seed, i) == numpy_draw(
            seed, i)

    def test_negative_seed_raises(self):
        # numpy's message; an unchecked word split of -1 would never end
        with pytest.raises(ValueError, match="non-negative"):
            experiments.place_users(3, 1.0, "uniform", seed=-1)
        with pytest.raises(ValueError, match="non-negative"):
            experiments._uniform_draw.__wrapped__(1, -1)
        with pytest.raises(TypeError):
            experiments._uniform_draw.__wrapped__(1.0, 0)


def test_sha256_equals_hashlib():
    # every length from 0 to 200 bytes: one to four blocks, with the
    # padding edges at 55/56, 63/64 and 119/120 bytes
    rng = random.Random(0)
    for n in range(201):
        data = rng.randbytes(n)
        assert experiments._sha256(data) == hashlib.sha256(data).hexdigest()


# The six commands on small inputs.
SMALL_COMMANDS = [
    ["solve"],
    # a relaxed dropping budget makes deep fades, which reach the
    # finite-blocklength rate
    ["simulate", "--frames", "20000", "--streams", "1", "--eps-h", "1e-2"],
    ["table-wth", "--eps", "1e-7"],
    ["table-drop", "--eps", "1e-2", "--frames", "20000", "--streams", "1"],
    # the default N_t range 2..64, whose threshold searches bracket past
    # G = n - 1, where the dropping bound switches series
    ["sweep-antennas", "--k-values", "2"],
    # the placement the benchmark's sweep uses, whose draws are memoized
    ["sweep-users", "--k-max", "2", "--fixed-nt", "8",
     "--placement", "uniform"],
    # seven users on the default grid are bandwidth-limited, which reaches
    # the exact split
    ["sweep-users", "--k-min", "7", "--k-max", "7"],
]


# The runner of a fresh interpreter: conftest's, cut down to the exit code
# and both streams, and importing the CLI only when it first runs.
RUN_CLI = textwrap.dedent("""\
    import contextlib, io, sys


    def run_cli(args):
        from urllc_ee.cli import main
        output = io.StringIO()
        with contextlib.redirect_stdout(output), \\
                contextlib.redirect_stderr(output):
            try:
                main(args)
            except SystemExit as exc:
                return exc.code, output.getvalue()
        return 0, output.getvalue()


""")


def checkout_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=src)


def run_fresh(code: str, *args: str, timeout: float | None = None) -> str:
    """Stdout of ``code`` run with ``args`` in a fresh interpreter that
    imports this checkout's package and has ``run_cli`` defined, killed
    after ``timeout`` seconds."""
    return subprocess.run([sys.executable, "-c", RUN_CLI + code, *args],
                          env=checkout_env(), capture_output=True, text=True,
                          check=True, timeout=timeout).stdout


def test_one_process_runs_leave_out_multiprocessing(config_file, tmp_path):
    # the process pool, and with it multiprocessing, is imported only by a
    # run with workers > 1
    code = textwrap.dedent("""\
        import urllc_ee.cli
        config, out = sys.argv[1:3]
        print("multiprocessing" in sys.modules)
        exit_code, output = run_cli(["simulate", "--frames", "20000",
                                     "--streams", "2", "--workers", "1",
                                     "--config", config, "--out", out])
        assert exit_code == 0, output
        print("multiprocessing" in sys.modules)
    """)
    out = run_fresh(code, config_file, os.fspath(tmp_path / "out"))
    assert out.split() == ["False", "False"]


def test_solver_commands_leave_out_numpy(config_file, tmp_path):
    # numpy and the helper threads' executor are imported by the
    # simulator's first run: a command that only solves never loads them,
    # nor hashlib's OpenSSL binding (numpy.random loads it), nor csv, which
    # only a trace writes, nor any other module from outside the standard
    # library
    code = textwrap.dedent("""\
        import json
        before = set(sys.modules)  # site's own imports among them
        import urllc_ee.cli
        config, out = sys.argv[1:3]

        def loaded():
            new = {name.partition(".")[0]
                   for name in sys.modules.keys() - before}
            print("numpy" in sys.modules, "concurrent.futures" in sys.modules,
                  "_hashlib" in sys.modules, "csv" in sys.modules,
                  sorted(new - set(sys.stdlib_module_names) - {"urllc_ee"}))

        loaded()
        for args in json.loads(sys.argv[3]):
            exit_code, output = run_cli(args + ["--config", config,
                                                "--out", out])
            assert exit_code == 0, (args, output)
            loaded()
    """)
    commands = [["solve"], ["table-wth"], ["sweep-antennas", "--k-values", "2"],
                ["sweep-users", "--k-max", "2", "--placement", "uniform"],
                ["simulate", "--frames", "2000"]]
    out = run_fresh(code, config_file, os.fspath(tmp_path / "out"),
                    json.dumps(commands)).splitlines()
    assert out[:5] == ["False False False False []"] * 5
    assert out[5].startswith("True True ")


def test_dependencies_are_the_imported_modules():
    # the runtime dependencies pyproject.toml declares are the modules from
    # outside the standard library that the package imports: none can be
    # added, or left behind, without notice
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    import urllc_ee
    package = Path(urllc_ee.__file__).parent
    imported = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
    imported = {name.partition(".")[0] for name in imported}
    with open(package.parent.parent / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", dep).group() for dep in declared}
    assert (imported - set(sys.stdlib_module_names) - {"urllc_ee"}
            == declared == {"numpy"})


def test_minimizer_past_the_float_range_ends(tmp_path):
    # with 1e300-bit packets W_th lies past the float range; each command
    # that solves must end as infeasible, and the fresh interpreter's
    # timeout turns a hang into a failure instead of a stuck suite
    path = tmp_path / "huge.cfg"
    path.write_text(DEFAULT_CONFIG_TEXT.replace(
        "packet_bits = 160", "packet_bits = 1e300").replace(
        "total_bandwidth = 20e6", "total_bandwidth = 1.7e308"))
    code = textwrap.dedent("""\
        import json
        config, out = sys.argv[1:3]
        for args in json.loads(sys.argv[3]):
            exit_code, output = run_cli(args + ["--config", config,
                                                "--out", out])
            print(exit_code, "float range" in output)
    """)
    commands = [["solve"], ["simulate", "--frames", "1000"],
                ["table-drop", "--frames", "1000"]]
    out = run_fresh(code, os.fspath(path), os.fspath(tmp_path / "out"),
                    json.dumps(commands), timeout=60)
    assert out.splitlines() == ["2 True"] * 3
    assert not (tmp_path / "out").exists()


def test_process_pool_inherits_numpy(config_file, tmp_path):
    # a forked worker that found numpy unloaded would import it itself
    code = textwrap.dedent("""\
        import concurrent.futures
        import urllc_ee.cli
        config, out = sys.argv[1:3]
        loaded = ["numpy" in sys.modules]

        class Recorder(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                loaded.append("numpy" in sys.modules)
                super().__init__(max_workers)

        concurrent.futures.ProcessPoolExecutor = Recorder
        exit_code, output = run_cli(["simulate", "--frames", "2000",
                                     "--streams", "2", "--workers", "2",
                                     "--config", config, "--out", out])
        assert exit_code == 0, output
        print(*loaded)
    """)
    out = run_fresh(code, config_file, os.fspath(tmp_path / "out"))
    assert out.split() == ["False", "True"]


LAYERS = (cli, config_io, model, rate, traffic, fading, allocator, simulator,
          experiments)


def layer_functions(private: bool) -> dict:
    """The functions the layers define, public or private, by qualified
    name: module-level functions (memoized ones unwrapped) and, for
    private, the methods of the private classes too."""
    found = {}
    for mod in LAYERS:
        for name, obj in vars(mod).items():
            if name.startswith("_") != private:
                continue
            fn = inspect.unwrap(obj)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found[f"{mod.__name__}.{name}"] = fn
            elif (private and inspect.isclass(obj)
                    and obj.__module__ == mod.__name__):
                # dataclass dunders are generated, with no code in the file
                found.update({
                    f"{mod.__name__}.{name}.{meth}": fn
                    for meth, fn in vars(obj).items()
                    if inspect.isfunction(fn)
                    and fn.__code__.co_filename == mod.__file__})
    return found


def codes(code):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from codes(const)


@pytest.fixture(scope="module")
def commands_reach(tmp_path_factory):
    """The code objects that SMALL_COMMANDS and a traced ``simulate`` run,
    the helper threads' included."""
    tmp = tmp_path_factory.mktemp("reach")
    config_file = tmp / "cell.cfg"
    config_file.write_text(DEFAULT_CONFIG_TEXT)
    out = os.fspath(tmp / "out")
    commands = SMALL_COMMANDS + [["simulate", "--frames", "2000", "--streams",
                                  "1", "--trace", os.fspath(tmp / "t.csv")]]
    # memoized results would hide the calls behind them
    allocator._prologue.cache_clear()
    allocator._minimizer.cache_clear()
    experiments._uniform_draw.cache_clear()
    fading._gain_threshold.cache_clear()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    # the draws run on helper threads that each simulation starts
    threading.setprofile(record)
    sys.setprofile(record)
    try:
        results = [run_cli(args + ["--config", os.fspath(config_file),
                                   "--out", out])
                   for args in commands]
    finally:
        sys.setprofile(previous)
        threading.setprofile(None)
    for args, res in zip(commands, results):
        assert res.exit_code == 0, (args, res.output)
    return called


def unreached(functions: dict, called: set) -> list:
    """The names of ``functions`` none of whose code ran: a function counts
    as reached when its code or a code nested in it runs, so a decorator
    applied at import counts once its wrapper runs."""
    return sorted(name for name, fn in functions.items()
                  if called.isdisjoint(codes(fn.__code__)))


def test_every_public_function_runs_in_a_command(commands_reach):
    # a public function that none of the six commands reaches is dead API:
    # test-only references belong in tests/oracles.py
    assert unreached(layer_functions(private=False), commands_reach) == []


def test_every_private_helper_runs_in_a_command(commands_reach):
    # the same for the private helpers: one that only tests reach belongs
    # in tests/oracles.py as well
    assert unreached(layer_functions(private=True), commands_reach) == []


def test_commands_leave_out_scipy(config_file, tmp_path):
    # scipy is a test dependency only: no command loads it, nor a loose
    # dropping budget or a large array, whose thresholds lie past n - 1
    code = textwrap.dedent("""\
        import json
        from urllc_ee import load_config, solve_allocation
        config, out = sys.argv[1:3]
        for args in json.loads(sys.argv[3]):
            exit_code, output = run_cli(args + ["--config", config,
                                                "--out", out])
            assert exit_code == 0, (args, output)
        cfg, users = load_config(config)
        solve_allocation(cfg, users, eps_h=0.3)
        print("scipy" in sys.modules)
    """)
    commands = SMALL_COMMANDS + [["sweep-antennas", "--k-values", "2",
                                  "--nt-min", "500", "--nt-max", "512"]]
    out = run_fresh(code, config_file, os.fspath(tmp_path / "out"),
                    json.dumps(commands))
    assert out.strip() == "False"
