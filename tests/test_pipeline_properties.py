"""Whole-pipeline invariants on a randomized configuration grid.

Each sampled scenario either solves cleanly, in which case every contract
of the returned allocation must hold, or fails with one of the typed
infeasibility errors.
"""

import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from urllc_ee import (PowerInfeasibleError, QosInfeasibleError, SystemConfig,
                      UserProfile, effective_bandwidth,
                      find_bandwidth_minimizer, path_loss_gain,
                      solve_allocation, validate_config)
from urllc_ee.allocator import CASE_LIMITED, CASE_SUFFICIENT, build_y_functions
from urllc_ee.config_io import (_LIST_KEYS, _SCALAR_KEYS,
                                DEFAULT_CONFIG_TEXT)

from conftest import LAM, run_cli
from oracles import achievable_rate_max_dispersion, required_snr


def sample_scenario(rng):
    cfg = SystemConfig(
        total_bandwidth=float(rng.uniform(4e6, 40e6)),
        max_bs_power=float(10 ** rng.uniform(0, 1.6)),
        loss_budget=float(10 ** rng.uniform(-8, -3)),
        packet_bits=int(rng.integers(80, 320)),
        e2e_delay=float(rng.uniform(0.5e-3, 2e-3)),
    )
    k = int(rng.integers(1, 9))
    # the gain first, so that the draws keep their order
    users = [UserProfile(gain=path_loss_gain(float(rng.uniform(50, 250))),
                         arrival_rate=cfg.packets_per_frame(
                             int(rng.integers(5, 40)) * 10.0))
             for _ in range(k)]
    return cfg, users


def test_randomized_scenarios_hold_contracts():
    rng = np.random.default_rng(2026)
    solved = failed = 0
    for _ in range(25):
        cfg, users = sample_scenario(rng)
        try:
            alloc = solve_allocation(cfg, users)
        except (QosInfeasibleError, PowerInfeasibleError):
            failed += 1
            continue
        solved += 1
        qos = validate_config(cfg, users)
        k = len(users)

        assert alloc.antennas >= 2
        assert sum(alloc.bandwidths) <= cfg.total_bandwidth * (1 + 1e-9)
        assert sum(alloc.power_caps) <= cfg.max_bs_power * (1 + 1e-9)
        assert all(w > 0 for w in alloc.bandwidths)
        assert all(np.isfinite(alloc.mean_tx_powers))
        assert alloc.energy_efficiency > 0

        # case tag consistent with the unconstrained minimizers
        yfuncs = build_y_functions(cfg, qos, users)
        sum_wth = sum(find_bandwidth_minimizer(f) for f in yfuncs)
        if alloc.case_tag == CASE_SUFFICIENT:
            assert sum_wth <= cfg.total_bandwidth * (1 + 1e-9)
        else:
            assert alloc.case_tag == CASE_LIMITED
            assert sum_wth > cfg.total_bandwidth
            assert sum(alloc.bandwidths) == pytest.approx(
                cfg.total_bandwidth, rel=1e-8)

        # power accounting identity
        total = (sum(alloc.mean_tx_powers) / cfg.amplifier_efficiency
                 + cfg.circuit_power_per_antenna * alloc.antennas
                 + cfg.fixed_circuit_power)
        assert alloc.mean_total_power == pytest.approx(total, rel=1e-12)

        for i, (usr, f) in enumerate(zip(users, yfuncs)):
            # published SNR target is the required SNR at the bandwidth
            gamma = required_snr(alloc.bandwidths[i], f.l, f.v)
            assert alloc.snr_targets[i] == pytest.approx(gamma, rel=1e-12)
            # the cap and threshold encode the same inversion policy
            p_at_threshold = cfg.noise_psd * alloc.bandwidths[i] * gamma / \
                (usr.gain * alloc.gain_thresholds[i])
            assert alloc.power_caps[i] == pytest.approx(p_at_threshold,
                                                        rel=1e-12)
            # QoS closure: transmitting at the cap exactly at the threshold
            # gain sustains the effective bandwidth under the conservative
            # dispersion assumption
            eb = effective_bandwidth(usr.arrival_rate, qos.eps_q,
                                     qos.queue_delay_frames)
            rate = achievable_rate_max_dispersion(
                alloc.power_caps[i], alloc.bandwidths[i], usr.gain,
                alloc.gain_thresholds[i], qos.eps_c, cfg)
            assert rate == pytest.approx(eb, rel=1e-9)

    # the sampler must exercise the solver, not just the error paths
    assert solved >= 15, (solved, failed)


def test_deterministic_across_user_order():
    # permuting users permutes the allocation entries but nothing else
    cfg = SystemConfig()
    users = [UserProfile(LAM, path_loss_gain(d)) for d in (240.0, 110.0, 70.0)]
    fwd = solve_allocation(cfg, users)
    rev = solve_allocation(cfg, users[::-1])
    assert fwd.antennas == rev.antennas
    assert fwd.mean_total_power == pytest.approx(rev.mean_total_power,
                                                 rel=1e-9)
    assert fwd.bandwidths == pytest.approx(rev.bandwidths[::-1], rel=1e-9)


# --- config text through the CLI: every input ends in exit 0, 2 or 3 -------

_CONFIG_KEYS = sorted(_SCALAR_KEYS | _LIST_KEYS)
_WILD = st.one_of(
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e308", "1e-308",
                     "1e300", "1e-300", "1e4", "-1e4", "2.7", "fast", "",
                     "1, 2"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_DEFAULT_LINES = [line.partition("=")[::2]
                  for line in DEFAULT_CONFIG_TEXT.splitlines()
                  if line and not line.startswith(("#", "user_"))]


@st.composite
def config_texts(draw):
    """The default cell with up to two lines scaled, replaced by a wild
    token or dropped, a drawn user list, and possibly one extra (repeated
    or conflicting) line."""
    edits = draw(st.dictionaries(
        st.integers(0, len(_DEFAULT_LINES) - 1),
        st.sampled_from(["scale", "scale", "wild", "drop"]), max_size=2))
    lines = []
    for i, (key, val) in enumerate(_DEFAULT_LINES):
        how = edits.get(i)
        if how == "drop":
            continue
        if how == "scale":
            val = repr(float(val) * draw(st.sampled_from([0.01, 0.5, 3.0,
                                                          100.0])))
        elif how == "wild":
            val = draw(_WILD)
        lines.append(f"{key.strip()} = {val.strip()}")
    k = draw(st.integers(1, 3))
    lines.append("user_distances_m = " + ", ".join(
        map(repr, draw(st.lists(st.floats(1.0, 2000.0), min_size=k,
                                max_size=k)))))
    if draw(st.booleans()):
        lines.append("user_arrival_rates_pps = " + ", ".join(
            map(repr, draw(st.lists(st.floats(0.0, 5e4), min_size=k,
                                    max_size=k)))))
    if draw(st.integers(0, 4)) == 0:
        lines.append(f"{draw(st.sampled_from(_CONFIG_KEYS))} = "
                     f"{draw(_WILD)}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=config_texts(), frames=st.integers(1, 2000),
       streams=st.integers(1, 3))
# table-wth divides by the downlink time
@example(text=DEFAULT_CONFIG_TEXT.replace("dl_fraction = 0.5e-4",
                                          "dl_fraction = 0"),
         frames=1, streams=1)
# a subnormal third of the loss budget: Q^-1 of it must stay finite
@example(text=DEFAULT_CONFIG_TEXT.replace("loss_budget = 3e-7",
                                          "loss_budget = 1e-310"),
         frames=1, streams=1)
# a distance path_loss_gain refuses, and one whose gain overflows
@example(text=DEFAULT_CONFIG_TEXT.replace("user_distances_m = 250",
                                          "user_distances_m = 0"),
         frames=1, streams=1)
@example(text=DEFAULT_CONFIG_TEXT.replace("user_distances_m = 250",
                                          "user_distances_m = -5"),
         frames=1, streams=1)
@example(text=DEFAULT_CONFIG_TEXT.replace("user_distances_m = 250",
                                          "user_distances_m = 1e-300"),
         frames=1, streams=1)
def test_any_config_text_ends_in_a_named_outcome(text, frames, streams):
    # config text -> parse -> validate -> solve -> short simulate, and
    # table-wth, through the CLI: a solution (0), a named infeasibility (2)
    # or a config error (3), never a traceback, and only finite numbers in
    # what is written
    with tempfile.TemporaryDirectory() as tmp:
        cfg, wth = os.path.join(tmp, "cell.cfg"), os.path.join(tmp, "wth.csv")
        with open(cfg, "w") as fh:
            fh.write(text)
        codes = []
        for args in (["solve", "--out", os.path.join(tmp, "alloc.json")],
                     ["simulate", "--out", os.path.join(tmp, "rep.json"),
                      "--frames", str(frames), "--streams", str(streams)]):
            res = run_cli(args + ["--config", cfg])
            assert res.exit_code in (0, 2, 3), (text, res.output)
            assert res.exception is None or isinstance(res.exception,
                                                       SystemExit)
            assert "Traceback" not in res.output
            if res.exit_code == 0:
                assert not re.search(r"\b(nan|inf)\b", res.stdout, re.I)
                with open(args[2]) as fh:
                    data = json.load(fh, parse_constant=float)
                assert all(math.isfinite(x) for x in _numbers(data)), text
            codes.append(res.exit_code)
        assert codes[0] == codes[1], (text, codes)
        event(f"exit {codes[0]}")
        # table-wth makes no allocation, so it has no infeasible outcome:
        # it writes its table (0) or names a config error (3)
        res = run_cli(["table-wth", "--out", wth, "--config", cfg])
        assert res.exit_code in (0, 3), (text, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit)
        if res.exit_code == 0:
            with open(wth) as fh:
                table = fh.read()
            assert not re.search(r"\b(nan|inf)\b", table, re.I), text
