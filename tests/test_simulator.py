import concurrent.futures
import csv
import hashlib
import itertools
import math
import os
import random
import threading
import time
import tracemalloc
from pathlib import Path
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from urllc_ee import SimPolicy, run_simulation, solve_allocation
from urllc_ee import simulator
from urllc_ee.config_io import DEFAULT_CONFIG_TEXT, parse_config_text
from urllc_ee.simulator import UserPolicy, _run_streams, _step, _walk

from conftest import DEFAULT_CFG, LAM
from oracles import QueueState, _advance, drop_prob_B, gain_cdf


@pytest.fixture
def solved(cfg, single_user):
    alloc = solve_allocation(cfg, [single_user])
    return SimPolicy.from_allocation(alloc, cfg, [single_user]), alloc


def relaxed_policy(cfg, user, eps_h):
    alloc = solve_allocation(cfg, [user], eps_h=eps_h)
    return SimPolicy.from_allocation(alloc, cfg, [user]), alloc


class TestChannelDraws:
    def test_mean_within_three_sigma(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 16):
            draws = rng.standard_gamma(n, size=1_000_000)
            se = math.sqrt(n) / math.sqrt(len(draws))
            assert abs(draws.mean() - n) < 3 * se

    def test_deep_fade_probability_matches_cdf(self):
        rng = np.random.default_rng(5)
        n, g_th = 4, 2.0
        draws = rng.standard_gamma(n, size=500_000)
        p_hat = float(np.mean(draws < g_th))
        p = gain_cdf(g_th, n)
        assert abs(p_hat - p) < 3 * math.sqrt(p * (1 - p) / len(draws))

    def test_single_antenna_is_exponential(self):
        rng = np.random.default_rng(3)
        draws = rng.standard_gamma(1, size=100_000)
        _stat, pvalue = stats.kstest(draws, "expon")
        assert pvalue > 1e-4


def walk(g, a, up, dq, cfg, cuts=()):
    """The walk over draws ``g`` and ``a`` as one pair, cut into chunks at
    the frames ``cuts`` and handed as ``_draw`` hands them, with zero power
    sums; returns the tallies without the power sum."""
    chunks = []
    for lo, hi in zip((0, *cuts), (*cuts, len(g))):
        fades = np.flatnonzero(g[lo:hi] < up.gain_threshold)
        frames = np.flatnonzero(a[lo:hi])
        chunks.append((hi - lo, frames, a[lo:hi][frames], fades.tolist(),
                       g[lo:hi][fades].tolist(), 0.0))
    tallies = _walk(chunks, up, dq, cfg)
    del tallies["power_sum"]
    return tallies


def tallies(state):
    """``_advance``'s state as the walk's tallies, the power sum aside."""
    return {"arrivals": state.arrivals, "served": state.served,
            "dropped": state.dropped, "drop_events": state.drop_events,
            "deep_fades": state.deep_fades,
            "busy_frames": state.busy_frames, "departed": state.departed,
            "delay_violations": state.delay_violations,
            "final_queue": state.queue}


class TestQueueTransition:
    def _policy_user(self, cfg, g_th=1.0, eb=0.4, p_th=1.0):
        return UserPolicy(bandwidth=3e6, gain_threshold=g_th,
                          power_cap=p_th, service_rate_nominal=eb,
                          alpha=3e-13, arrival_rate=0.02, eps_c=1e-7,
                          inversion_coeff=1e-7)

    def test_no_drop_without_deep_fade(self, cfg):
        up = self._policy_user(cfg, g_th=1e-9)
        rng = np.random.default_rng(1)
        g, a = zip(*[(1.0 + float(rng.random()), int(rng.poisson(0.1)))
                     for _ in range(5000)])
        out = walk(np.array(g), np.array(a), up, 8, cfg)
        assert out["drop_events"] == 0
        assert out["dropped"] == 0.0

    def test_good_frame_serves_nominal_rate(self, cfg):
        up = self._policy_user(cfg, eb=0.4)
        served, _, queue = _step(0.0, 2.0, 1, up, cfg)
        assert served == pytest.approx(0.4)
        assert queue == pytest.approx(0.6)

    def test_deep_frame_drops_shortfall(self, cfg):
        # power cap so small the deep-fade rate clamps to zero: the whole
        # nominal service amount is dropped, bounded by the queue content,
        # here the 0.2 that two frames at the nominal rate leave of a packet
        up = self._policy_user(cfg, g_th=5.0, eb=0.4, p_th=1e-20)
        out = walk(np.array([10.0, 10.0, 0.01]), np.array([1, 0, 0]), up, 8,
                   cfg)
        assert out["drop_events"] == 1
        assert out["dropped"] == pytest.approx(0.2)
        assert out["served"] == pytest.approx(0.8)
        assert out["final_queue"] == 0.0

    def test_deep_frame_without_backlog_drops_nothing(self, cfg):
        up = self._policy_user(cfg, g_th=5.0, eb=0.4, p_th=1e-20)
        _, dropped, queue = _step(0.0, 0.01, 2, up, cfg)
        assert dropped == 0.0
        assert queue == pytest.approx(2.0)

    def test_conservation_identity(self, cfg):
        up = self._policy_user(cfg, g_th=0.8, eb=0.3, p_th=1e-3)
        rng = np.random.default_rng(9)
        g, a = zip(*[(float(rng.standard_gamma(4)), int(rng.poisson(0.2)))
                     for _ in range(20000)])
        out = walk(np.array(g), np.array(a), up, 8, cfg)
        resid = (out["arrivals"] - out["served"] - out["dropped"]
                 - out["final_queue"])
        assert abs(resid) < 1e-9

    def test_step_queue_draws_arrivals(self, cfg, solved):
        policy, _alloc = solved
        up = policy.users[0]
        rng = np.random.default_rng(2)
        g, a = zip(*[(float(rng.standard_gamma(policy.antennas)),
                      int(rng.poisson(up.arrival_rate)))
                     for _ in range(2000)])
        out = walk(np.array(g), np.array(a), up, policy.queue_delay_frames,
                   cfg)
        assert out["arrivals"] > 0
        assert out["final_queue"] >= 0.0


def frame_by_frame(state, g, a, up, dq, base_frame, cfg):
    """The oracle: every frame of a chunk through ``_advance``; returns
    ``state``."""
    for i in range(len(g)):
        _advance(state, float(g[i]), int(a[i]), up, dq, base_frame + i, cfg)
    return state


# saturated regime: ~half the frames are deep fades with a starved power
# cap, multi-packet arrivals, persistent backlog
DENSE_USER = UserPolicy(bandwidth=3e6, gain_threshold=3.0,
                        power_cap=1e-18, service_rate_nominal=0.9,
                        alpha=3e-13, arrival_rate=0.8, eps_c=1e-7,
                        inversion_coeff=1e-7)


class TestFastPathEquivalence:
    def test_walk_matches_frame_by_frame(self, cfg, single_user):
        # identical draw arrays through the event-skip walk and the plain
        # per-frame loop must produce identical tallies
        policy, _ = relaxed_policy(cfg, single_user, eps_h=5e-2)
        up = policy.users[0]
        rng = np.random.default_rng(17)
        g = rng.standard_gamma(policy.antennas, size=200_000)
        a = rng.poisson(up.arrival_rate, size=200_000)

        dq = policy.queue_delay_frames
        slow = frame_by_frame(QueueState(), g, a, up, dq, 0, cfg)
        assert walk(g, a, up, dq, cfg) == tallies(slow)

    def test_walk_matches_under_dense_events(self, cfg):
        # the walk must never skip wrongly when both branches are busy
        up = DENSE_USER
        rng = np.random.default_rng(23)
        g = rng.standard_gamma(3, size=50_000)
        a = rng.poisson(up.arrival_rate, size=50_000)
        slow = frame_by_frame(QueueState(), g, a, up, 8, 0, cfg)
        assert slow.drop_events > 1000  # both branches heavily exercised
        assert slow.delay_violations > 0
        assert walk(g, a, up, 8, cfg) == tallies(slow)

    def test_deep_fades_inside_busy_spells(self, cfg):
        # a rare deep fade (~1 frame in 300) with a starved cap lands in
        # long busy spells fed by multi-packet arrivals, so the walk steps
        # deep fades with a backlog and several pending arrival frames
        up = UserPolicy(bandwidth=3e6, gain_threshold=0.35,
                        power_cap=1e-18, service_rate_nominal=2.2,
                        alpha=3e-13, arrival_rate=2.0, eps_c=1e-7,
                        inversion_coeff=1e-7)
        rng = np.random.default_rng(29)
        g = rng.standard_gamma(3, size=100_000)
        a = rng.poisson(up.arrival_rate, size=100_000)
        slow = frame_by_frame(QueueState(), g, a, up, 3, 0, cfg)
        deep = g < up.gain_threshold
        assert 100 < slow.deep_fades == int(deep.sum())
        assert slow.drop_events > 100
        assert slow.delay_violations > 1000
        assert walk(g, a, up, 3, cfg) == tallies(slow)

        # hand-built fades, walked in chunks of 8 frames: at a chunk's
        # first frame (empty queue and backlogged), at its last frame, on
        # adjacent frames (across a chunk edge too) and inside the backlog
        # of a burst, so fades follow each other or an idle jump
        a = np.tile([3, 0, 4, 0, 0, 2, 6, 0], 6)
        a[8:12] = 6
        for fades in ([0, 8, 16], [7, 15, 47], [9, 10, 11], [23, 24],
                      [12, 13, 30, 31, 32]):
            g = np.ones(len(a))
            g[fades] = 0.01
            slow = frame_by_frame(QueueState(), g, a, up, 3, 0, cfg)
            assert walk(g, a, up, 3, cfg, cuts=range(8, len(a), 8)) == (
                tallies(slow))
            assert slow.deep_fades == len(fades)
            assert slow.drop_events > 0 and slow.delay_violations > 0

    @pytest.mark.parametrize("up", [
        pytest.param(DENSE_USER, id="dense"),
        pytest.param(UserPolicy(bandwidth=3e6, gain_threshold=0.35,
                                power_cap=1e-18,
                                service_rate_nominal=2.05, alpha=3e-13,
                                arrival_rate=2.0, eps_c=1e-7,
                                inversion_coeff=1e-7), id="busy"),
    ])
    def test_state_carries_across_chunks(self, cfg, monkeypatch, up):
        # with a small chunk and a smaller walk window the queue, the flow
        # counters and the pending arrival frames cross many chunk and
        # window boundaries; the stream must equal one frame-by-frame pass
        # over the same draws
        chunk, frames, seed, stream = 4096, 40_000, 31, 2
        policy = SimPolicy(users=(up,), antennas=3, queue_delay_frames=4)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(stream, 0))))
        slow = QueueState()
        boundaries_pending = 0
        done = 0
        while done < frames:
            n = min(chunk, frames - done)
            g = rng.standard_gamma(policy.antennas, size=n)
            a = rng.poisson(up.arrival_rate, size=n)
            frame_by_frame(slow, g, a, up, policy.queue_delay_frames, done,
                           cfg)
            boundaries_pending += bool(slow.pending)
            done += n
        assert boundaries_pending >= 5

        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        monkeypatch.setattr(simulator, "_WINDOW", 1500)
        ((fast,),) = _run_streams(policy, cfg, [(stream, frames)], seed)
        del fast["power_sum"]  # summed by _draw, not by the queue walk
        assert fast == tallies(slow)
        assert slow.drop_events > 0 and slow.delay_violations > 0

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(dq=st.integers(0, 9),
           eb=st.sampled_from([0.3, 0.9, 1.0, 2.0, 2.05, 2.89, 3.5]),
           load=st.floats(0.1, 1.2),
           g_th=st.sampled_from([0.0, 0.05, 0.35, 3.0]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_walk_matches_on_random_windows(self, dq, eb, load, g_th, seed,
                                            data):
        # violations counted at each arrival frame's deadline must leave
        # every tally as the frame-by-frame oracle does, over chunks of
        # random lengths and windows down to one frame: spells that
        # straddle chunks and windows, deadlines at a chunk's or a
        # window's first frame and queues that empty exactly on a deadline
        # all occur.  The window is set here, not by monkeypatch, whose
        # fixture would outlive the examples
        window = data.draw(st.sampled_from([1, 2, dq + 1, 1 << 16]))
        up = UserPolicy(bandwidth=3e6, gain_threshold=g_th,
                        power_cap=1e-18, service_rate_nominal=eb,
                        alpha=3e-13, arrival_rate=load * eb, eps_c=1e-7,
                        inversion_coeff=1e-7)
        rng = np.random.default_rng(seed)
        frames = 3000
        g = rng.standard_gamma(3, size=frames)
        a = rng.poisson(up.arrival_rate, size=frames)
        cuts = [data.draw(st.integers(50, 700))]
        while cuts[-1] < frames:
            cuts.append(cuts[-1] + data.draw(st.integers(50, 700)))
        slow = frame_by_frame(QueueState(), g, a, up, dq, 0, DEFAULT_CFG)
        default, simulator._WINDOW = simulator._WINDOW, window
        try:
            fast = walk(g, a, up, dq, DEFAULT_CFG, cuts[:-1])
        finally:
            simulator._WINDOW = default
        assert fast == tallies(slow)

    def test_departures_settle_only_where_a_packet_can_be_late(
            self, cfg, monkeypatch):
        # lambda = 2 against eb = 2.89 with dq = 8: most busy spells end
        # before their first packet comes due, so the departures must be
        # counted on only a small share of the visited frames
        up = UserPolicy(bandwidth=3e6, gain_threshold=0.05,
                        power_cap=1e-18, service_rate_nominal=2.89,
                        alpha=3e-13, arrival_rate=2.0, eps_c=1e-7,
                        inversion_coeff=1e-7)
        rng = np.random.default_rng(37)
        g = rng.standard_gamma(3, size=100_000)
        a = rng.poisson(up.arrival_rate, size=100_000)
        deep = g < up.gain_threshold
        calls = 0
        covered = simulator._covered

        def counting_covered(*args):
            nonlocal calls
            calls += 1
            return covered(*args)

        monkeypatch.setattr(simulator, "_covered", counting_covered)
        fast = walk(g, a, up, 8, cfg)
        slow = QueueState()
        visited = 0
        for i in range(len(g)):
            visited += bool(slow.queue > 0.0 or a[i] or deep[i])
            _advance(slow, float(g[i]), int(a[i]), up, 8, i, cfg)
        assert fast == tallies(slow)
        assert 0 < calls <= visited / 5

    @pytest.mark.parametrize("window", [1, 2, 3, simulator._WINDOW],
                             ids=["1", "2", "dq", "default"])
    def test_late_packets_still_queued_at_a_chunk_end(self, cfg,
                                                      monkeypatch, window):
        # a load above the service rate keeps one busy spell over many
        # small chunks, so packets past their deadline are still queued at
        # each chunk end; they count as late only once they depart.
        # Windows of at most dq frames end with every frame of the window
        # not yet due, so a spell's arrival frames cross several windows
        # before their deadline
        chunk, frames, seed, stream = 512, 6000, 43, 0
        up = UserPolicy(bandwidth=3e6, gain_threshold=0.35,
                        power_cap=1e-18, service_rate_nominal=2.05,
                        alpha=3e-13, arrival_rate=2.1, eps_c=1e-7,
                        inversion_coeff=1e-7)
        policy = SimPolicy(users=(up,), antennas=3, queue_delay_frames=3)
        dq = policy.queue_delay_frames
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(stream, 0))))
        slow = QueueState()
        late_waiting = 0
        for done in range(0, frames, chunk):
            n = min(chunk, frames - done)
            g = rng.standard_gamma(policy.antennas, size=n)
            a = rng.poisson(up.arrival_rate, size=n)
            frame_by_frame(slow, g, a, up, dq, done, cfg)
            late_waiting += any(t + dq < done + n for t, _, _ in slow.pending)
        assert late_waiting >= 5

        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        monkeypatch.setattr(simulator, "_WINDOW", window)
        ((fast,),) = _run_streams(policy, cfg, [(stream, frames)], seed)
        assert slow.delay_violations > 0
        assert (fast["delay_violations"], fast["departed"],
                fast["busy_frames"]) == (slow.delay_violations, slow.departed,
                                         slow.busy_frames)


def _digest(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


class TestRecordedOutputs:
    """SHA-256 of ``run_simulation(...).to_json()``, recorded before the
    busy-frame walk moved onto local variables and the pending queue onto
    one entry per arrival frame; any change to a tally or a rounding
    shows."""

    def test_busy_cell(self):
        cfg, users = parse_config_text(DEFAULT_CONFIG_TEXT.replace(
            "user_distances_m = 250",
            "user_distances_m = 100, 150, 200, 250\n"
            "user_arrival_rates_pps = 20000, 20000, 5000, 20000"))
        alloc = solve_allocation(cfg, users)
        policy = SimPolicy.from_allocation(alloc, cfg, users)
        rep = run_simulation(policy, cfg, users, frames=20_000, seed=1,
                             streams=2)
        assert (rep.busy_frames, rep.departed_count) == (29321, 130590)
        assert _digest(rep) == ("a8159f4274af589f5272e7e850353d52"
                                "8f7f9c04cac850b0b03bb978bb48e287")

    def test_relaxed_single_user_with_drops(self, cfg, single_user):
        policy, _ = relaxed_policy(cfg, single_user, eps_h=5e-2)
        rep = run_simulation(policy, cfg, [single_user], frames=200_000,
                             seed=3, streams=2)
        assert (rep.deep_fade_count, rep.drop_events) == (5546, 191)
        assert _digest(rep) == ("361301080f3a9b8c4f3c88a2b02d59cc"
                                "73535018fd2d8e3617ca302255242637")

    def test_scaled_point_with_delay_violations(self, cfg, single_user):
        # 0.03 / 3 is 0.01 exactly: eps_c = eps_q = eps_h = 1e-2
        scaled = replace(cfg, loss_budget=3e-2)
        alloc = solve_allocation(scaled, [single_user])
        policy = SimPolicy.from_allocation(alloc, scaled, [single_user])
        rep = run_simulation(policy, cfg, [single_user], frames=200_000,
                             seed=13, streams=2)
        assert (rep.delay_violation_count, rep.drop_events) == (14, 5)
        assert _digest(rep) == ("5b12a33ada74bad3518a295bba0e70f8"
                                "17297710ada973bde023dc50bbe5802c")


class InlineExecutor:
    """An executor stand-in that runs each call on submit, in the caller."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestRunSimulation:
    def test_rejects_bad_args(self, cfg, single_user, solved):
        policy, _ = solved
        with pytest.raises(ValueError):
            run_simulation(policy, cfg, [single_user], frames=0, seed=1)
        with pytest.raises(ValueError):
            run_simulation(policy, cfg, [single_user], frames=10, seed=1,
                           streams=0)
        with pytest.raises(ValueError):
            run_simulation(policy, cfg, [], frames=10, seed=1)
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                run_simulation(policy, cfg, [single_user], frames=10, seed=1,
                               workers=workers)

    def test_deterministic_reruns(self, cfg, single_user, solved):
        policy, _ = solved
        a = run_simulation(policy, cfg, [single_user], frames=300_000,
                           seed=42, streams=3)
        b = run_simulation(policy, cfg, [single_user], frames=300_000,
                           seed=42, streams=3)
        assert a.to_json() == b.to_json()

    def test_workers_do_not_change_results(self, cfg, single_user):
        policy, _ = relaxed_policy(cfg, single_user, eps_h=1e-2)
        seq = run_simulation(policy, cfg, [single_user], frames=400_000,
                             seed=5, streams=4, workers=1)
        par = run_simulation(policy, cfg, [single_user], frames=400_000,
                             seed=5, streams=4, workers=2)
        assert seq.to_json() == par.to_json()

    def test_pool_never_outgrows_the_streams(self, cfg, single_user,
                                             monkeypatch):
        # a forked pool starts all max_workers processes at its first
        # submit; this stand-in records the size and runs each stream here
        sizes = []

        class InlinePool(InlineExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)

        policy, _ = relaxed_policy(cfg, single_user, eps_h=1e-2)
        # run_simulation imports the pool class at its workers > 1 branch
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        many = run_simulation(policy, cfg, [single_user], frames=100_000,
                              seed=5, streams=2, workers=10_000)
        one = run_simulation(policy, cfg, [single_user], frames=100_000,
                             seed=5, streams=2, workers=1)
        assert sizes == [2]
        assert many.to_json() == one.to_json()
        # one frame over three streams leaves two of them empty
        run_simulation(policy, cfg, [single_user], frames=1, seed=5,
                       streams=3, workers=4)
        assert sizes == [2, 1]

    def test_every_chunk_reaches_its_own_state(self, cfg, single_user,
                                               monkeypatch):
        # two users over three streams, each (stream, user) pair cut into
        # several chunks and windows: every pair must equal one
        # frame-by-frame pass over its own Philox draws, and each user's
        # report the sum of its pairs in stream order, so a chunk walked
        # against the wrong state or out of order shows by name
        chunk, frames, seed, streams = 4096, 3 * 9000 + 1, 41, 3
        ups = (DENSE_USER, UserPolicy(
            bandwidth=3e6, gain_threshold=0.35, power_cap=1e-18,
            service_rate_nominal=2.05, alpha=3e-13, arrival_rate=2.0,
            eps_c=1e-7, inversion_coeff=1e-7))
        policy = SimPolicy(users=ups, antennas=3, queue_delay_frames=4)
        oracle = [{} for _ in ups]
        for s, nf in enumerate((9001, 9000, 9000)):
            for u, up in enumerate(ups):
                rng = np.random.Generator(np.random.Philox(
                    np.random.SeedSequence(entropy=seed, spawn_key=(s, u))))
                slow = QueueState()
                power_sum = power_c = 0.0
                for done in range(0, nf, chunk):
                    n = min(chunk, nf - done)
                    g = rng.standard_gamma(policy.antennas, size=n)
                    a = rng.poisson(up.arrival_rate, size=n)
                    p = np.where(g < up.gain_threshold, up.power_cap,
                                 up.inversion_coeff / g)
                    power_sum, power_c = simulator._kahan(
                        power_sum, power_c, float(np.sum(p)))
                    frame_by_frame(slow, g, a, up, policy.queue_delay_frames,
                                   done, cfg)
                pair = {**tallies(slow), "power_sum": power_sum}
                for key, value in pair.items():
                    oracle[u][key] = oracle[u].get(key, 0) + value

        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        monkeypatch.setattr(simulator, "_WINDOW", 1500)
        # run_simulation reads only the length of its user list
        rep = run_simulation(policy, cfg, [single_user] * 2, frames=frames,
                             seed=seed, streams=streams, workers=1)
        for u, pu in enumerate(rep.per_user):
            assert {key: pu[key] for key in oracle[u]} == oracle[u]
        assert all(o["drop_events"] > 0 and o["delay_violations"] > 0
                   for o in oracle)

    def test_no_thread_outlives_the_run(self, cfg, single_user,
                                        monkeypatch):
        # the draws run two chunks ahead on two helper threads; they end
        # with the run, also when the walk or a draw raises, and the caller
        # sees the original exception
        policy, _ = relaxed_policy(cfg, single_user, eps_h=1e-2)
        before = threading.active_count()
        run_simulation(policy, cfg, [single_user], frames=30_000, seed=5,
                       streams=3)
        assert threading.active_count() == before

        class WalkFailed(Exception):
            pass

        calls = 0
        real_walk = simulator._walk

        def failing_walk(*args):
            nonlocal calls
            calls += 1
            if calls == 2:
                raise WalkFailed
            return real_walk(*args)

        monkeypatch.setattr(simulator, "_walk", failing_walk)
        with pytest.raises(WalkFailed):
            run_simulation(policy, cfg, [single_user], frames=30_000, seed=5,
                           streams=3)
        assert calls == 2
        assert threading.active_count() == before
        monkeypatch.undo()

        # a negative arrival rate makes the helper's Poisson draw raise
        bad = SimPolicy(users=(replace(policy.users[0], arrival_rate=-1.0),),
                        antennas=policy.antennas,
                        queue_delay_frames=policy.queue_delay_frames)
        with pytest.raises(ValueError, match="lam"):
            run_simulation(bad, cfg, [single_user], frames=30_000, seed=5,
                           streams=3)
        assert threading.active_count() == before

    def test_a_failing_draw_surfaces_and_leaves_no_thread(
            self, cfg, single_user, monkeypatch):
        # the third of four draws raises on a helper while the draws after
        # it may be running: the run raises that error once the walk takes
        # its chunk, and every helper thread has ended when it does
        class DrawFailed(Exception):
            pass

        calls = itertools.count(1)
        real_draw = simulator._draw

        def failing_draw(*args):
            if next(calls) == 3:
                raise DrawFailed
            return real_draw(*args)

        policy, _ = relaxed_policy(cfg, single_user, eps_h=1e-2)
        before = threading.active_count()
        monkeypatch.setattr(simulator, "_draw", failing_draw)
        with pytest.raises(DrawFailed):
            run_simulation(policy, cfg, [single_user], frames=40_000, seed=5,
                           streams=4)
        assert threading.active_count() == before

    def test_a_pair_of_several_chunks_holds_one_helper(
            self, cfg, single_user, monkeypatch):
        # two streams of one user, two chunks per pair: one helper draws
        # pair 0's chunks in turn while the other starts pair 1, so each of
        # pair 0's draws sees pair 1's first draw start.  A helper that
        # waited on pair 0's first chunk to draw its second would leave
        # pair 1 queued, and the wait would time out
        chunk = 4096
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        started = threading.Event()
        waits = []
        real_draw = simulator._draw

        def draw(rng, *args):
            if rng.bit_generator.seed_seq.spawn_key == (0, 0):
                waits.append(started.wait(3))
            else:
                started.set()
            return real_draw(rng, *args)

        policy, _ = relaxed_policy(cfg, single_user, eps_h=1e-2)
        monkeypatch.setattr(simulator, "_draw", draw)
        run_simulation(policy, cfg, [single_user], frames=4 * chunk, seed=5,
                       streams=2)
        assert waits == [True, True]

    def test_scheduling_never_changes_a_result(self, cfg, single_user,
                                               monkeypatch):
        # two helpers draw two chunks at once.  A random 0-2 ms sleep before
        # each draw shuffles which of them reaches its generator first, so
        # a chunk drawn before the one ahead of it on its pair's generator,
        # or a chunk walked out of order, changes the report against the
        # one drawn call by call in the caller.  Three chunks per pair queue
        # two draws of one pair on its helper at once
        chunk, frames, seed, streams = 1 << 12, 3 * 12_000, 47, 3
        ups = (DENSE_USER, UserPolicy(
            bandwidth=3e6, gain_threshold=0.35, power_cap=1e-18,
            service_rate_nominal=2.05, alpha=3e-13, arrival_rate=2.0,
            eps_c=1e-7, inversion_coeff=1e-7))
        policy = SimPolicy(users=ups, antennas=3, queue_delay_frames=4)
        monkeypatch.setattr(simulator, "_CHUNK", chunk)

        def run():
            # run_simulation reads only the length of its user list
            return run_simulation(policy, cfg, [single_user] * 2,
                                  frames=frames, seed=seed, streams=streams)

        with monkeypatch.context() as inline:
            # _run_streams imports the executor class where it runs
            inline.setattr(concurrent.futures, "ThreadPoolExecutor",
                           InlineExecutor)
            want = run()
        assert want.delay_violation_count > 0
        assert want.deep_fade_count > 0 and want.drop_events > 0

        sleeps = random.Random(5)
        real_draw = simulator._draw
        threads = []

        def slow_draw(*args):
            threads.append(threading.active_count())
            time.sleep(sleeps.uniform(0.0, 2e-3))
            return real_draw(*args)

        monkeypatch.setattr(simulator, "_draw", slow_draw)
        before = threading.active_count()
        assert run() == want
        assert len(threads) == 18 and max(threads) == before + 2

    def test_seed_changes_results(self, cfg, single_user):
        policy, _ = relaxed_policy(cfg, single_user, eps_h=1e-2)
        a = run_simulation(policy, cfg, [single_user], frames=200_000, seed=1)
        b = run_simulation(policy, cfg, [single_user], frames=200_000, seed=2)
        assert a.to_json() != b.to_json()

    def test_conservation_report(self, cfg, single_user):
        policy, _ = relaxed_policy(cfg, single_user, eps_h=1e-2)
        rep = run_simulation(policy, cfg, [single_user], frames=1_000_000,
                             seed=7, streams=2)
        resid = rep.arrival_count - rep.served_count - rep.drop_count \
            - rep.final_queue
        assert abs(resid) < 1e-9 * max(1.0, rep.arrival_count)

    def test_mean_power_matches_closed_form(self, cfg, single_user):
        policy, alloc = relaxed_policy(cfg, single_user, eps_h=1e-2)
        rep = run_simulation(policy, cfg, [single_user], frames=2_000_000,
                             seed=11, streams=2)
        assert rep.empirical_mean_tx_power == pytest.approx(
            alloc.mean_tx_powers[0], rel=0.01)

    def test_dropping_bound_direction(self, cfg, single_user):
        policy, _ = relaxed_policy(cfg, single_user, eps_h=1e-2)
        rep = run_simulation(policy, cfg, [single_user], frames=2_000_000,
                             seed=11, streams=2)
        assert rep.drop_events >= 30
        assert rep.achieved_eps_h <= 1e-2

    def test_achieved_matches_drop_approximation(self, cfg, single_user):
        # the empirical dropping probability tracks the quadrature
        # approximation (which the threshold's closed-form bound dominates)
        policy, alloc = relaxed_policy(cfg, single_user, eps_h=1e-2)
        rep = run_simulation(policy, cfg, [single_user], frames=10_000_000,
                             seed=99, streams=4)
        approx = drop_prob_B(alloc.gain_thresholds[0], alloc.snr_targets[0],
                             alloc.antennas)
        assert rep.drop_events > 300
        assert 0.6 * approx <= rep.achieved_eps_h <= 1.15 * approx
        assert rep.achieved_eps_h <= 1e-2

    def test_chunk_boundary_crossing(self, cfg, single_user):
        # frames straddling the internal chunk size keep every contract
        policy, _ = relaxed_policy(cfg, single_user, eps_h=1e-2)
        frames = (1 << 20) + 3
        a = run_simulation(policy, cfg, [single_user], frames=frames, seed=8)
        b = run_simulation(policy, cfg, [single_user], frames=frames, seed=8)
        assert a.to_json() == b.to_json()
        resid = a.arrival_count - a.served_count - a.drop_count - a.final_queue
        assert abs(resid) < 1e-9 * max(1.0, a.arrival_count)

    def test_deep_fade_rate_matches_gamma_cdf(self, cfg, single_user):
        policy, alloc = relaxed_policy(cfg, single_user, eps_h=1e-2)
        frames = 2_000_000
        rep = run_simulation(policy, cfg, [single_user], frames=frames,
                             seed=11, streams=2)
        p = gain_cdf(alloc.gain_thresholds[0], alloc.antennas)
        se = math.sqrt(p * (1 - p) * frames)
        assert abs(rep.deep_fade_count - p * frames) < 3 * se

    def test_delay_violation_within_budget(self, cfg, single_user):
        # scaled operating point where violations are measurable
        scaled = replace(cfg, loss_budget=3e-2)
        alloc = solve_allocation(scaled, [single_user])
        policy = SimPolicy.from_allocation(alloc, scaled, [single_user])
        rep = run_simulation(policy, cfg, [single_user], frames=2_000_000,
                             seed=13, streams=2)
        assert rep.arrival_count > 10_000
        assert rep.empirical_delay_violation <= 1e-2

    def test_multi_user_aggregation(self, cfg):
        from urllc_ee import UserProfile, path_loss_gain
        users = [UserProfile(LAM, path_loss_gain(d)) for d in (250.0, 120.0)]
        alloc = solve_allocation(cfg, users, eps_h=1e-2)
        policy = SimPolicy.from_allocation(alloc, cfg, users)
        rep = run_simulation(policy, cfg, users, frames=200_000, seed=3,
                             streams=2)
        assert len(rep.per_user) == 2
        assert rep.arrival_count == sum(pu["arrivals"] for pu in rep.per_user)
        total_power = sum(pu["power_sum"] for pu in rep.per_user) / 200_000
        assert rep.empirical_mean_tx_power == pytest.approx(total_power)

    def test_trace_csv(self, cfg, single_user, solved, tmp_path):
        policy, _ = solved
        path = os.fspath(tmp_path / "trace.csv")
        rep = run_simulation(policy, cfg, [single_user], frames=500, seed=9,
                             streams=1, trace_path=path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == ("frame,user,gain,tx_power_w,arrivals,served,"
                            "dropped,queue_after")
        assert len(lines) == 501
        # trace mode must not change the tallies
        plain = run_simulation(policy, cfg, [single_user], frames=500, seed=9,
                               streams=1)
        assert plain.to_json() == rep.to_json()

    def test_trace_rows_hold_the_oracle_values(self, cfg, single_user,
                                               tmp_path, monkeypatch):
        # at a relaxed dropping budget deep fades drop packets; with a small
        # chunk the rows cross chunks, and every row must hold the values
        # of the frame-by-frame oracle over the same Philox draws
        chunk, frames, seed = 4096, 30_000, 9
        policy, _ = relaxed_policy(cfg, single_user, eps_h=5e-2)
        up = policy.users[0]
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(0, 0))))
        state = QueueState()
        want = []
        for done in range(0, frames, chunk):
            n = min(chunk, frames - done)
            g = rng.standard_gamma(policy.antennas, size=n)
            a = rng.poisson(up.arrival_rate, size=n)
            for i in range(n):
                served, dropped = _advance(state, float(g[i]), int(a[i]), up,
                                           policy.queue_delay_frames,
                                           done + i, cfg)
                want.append((done + i, float(g[i]), int(a[i]), served,
                             dropped, state.queue))

        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        path = tmp_path / "trace.csv"
        rep = run_simulation(policy, cfg, [single_user], frames=frames,
                             seed=seed, streams=1, trace_path=os.fspath(path))
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        got = [(int(r[0]), float(r[2]), int(r[4]), float(r[5]), float(r[6]),
                float(r[7])) for r in rows]
        assert got == want
        assert sum(row[4] > 0.0 for row in want) > 5
        assert got[-1][5] == rep.final_queue

    def test_trace_rows_are_written_as_they_are_made(
            self, cfg, single_user, solved, tmp_path, monkeypatch):
        # past one chunk a traced run holds two chunks of draws, not a row
        # object per frame: 12 000 buffered rows took about 3 MB
        policy, _ = solved
        monkeypatch.setattr(simulator, "_CHUNK", 1024)
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            run_simulation(policy, cfg, [single_user], frames=12_000, seed=9,
                           streams=1, trace_path=os.fspath(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(path.read_text().splitlines()) == 12_001
        assert peak < 2_000_000

    def test_at_most_two_chunks_are_live(self, cfg, single_user, solved,
                                         monkeypatch):
        # the walk drops a chunk before it asks for the next, and asking for
        # chunk i hands over the draw of chunk i + 2, so a run holds the
        # chunk walked and two drawn ahead.  A draw hands over its arrivals
        # as their frames and counts, so at this low load only the draw
        # under way holds arrays of a chunk's length: 1.4 arrays of 8 bytes
        # a frame here.  Handing over the dense arrivals (3.3), or keeping
        # the futures of chunks already walked, one per pair over 40
        # one-chunk pairs or every one over 40 chunks of one pair (3.1 to
        # 3.2), breaks the bound.  Drawing on submit makes that order the
        # only one
        policy, _ = solved
        chunk = 1 << 15
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        # _run_streams imports the executor class where it runs
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            InlineExecutor)
        for streams in (1, 40):
            tracemalloc.start()
            try:
                rep = run_simulation(policy, cfg, [single_user],
                                     frames=40 * chunk, seed=3,
                                     streams=streams)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rep.arrival_count > 0
            assert peak < 2.5 * 8 * chunk

    def test_streams_past_the_frame_count_cost_nothing(self, cfg,
                                                       single_user, solved):
        # a stream with no frame makes no job and takes no memory: 10**6
        # streams over 3 frames run the same three one-frame streams as 3
        policy, _ = solved
        few = run_simulation(policy, cfg, [single_user], frames=3, seed=4,
                             streams=3)
        tracemalloc.start()
        try:
            many = run_simulation(policy, cfg, [single_user], frames=3,
                                  seed=4, streams=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert many.stream_count == 10**6
        assert replace(many, stream_count=3) == few

    def test_trace_requires_single_stream(self, cfg, single_user, solved,
                                          tmp_path):
        policy, _ = solved
        with pytest.raises(ValueError):
            run_simulation(policy, cfg, [single_user], frames=10, seed=1,
                           streams=2, trace_path=os.fspath(tmp_path / "t.csv"))


class TestPolicyConstruction:
    def test_from_allocation_fields(self, cfg, single_user, solved):
        policy, alloc = solved
        up = policy.users[0]
        assert up.bandwidth == alloc.bandwidths[0]
        assert up.power_cap == alloc.power_caps[0]
        assert up.inversion_coeff == pytest.approx(
            cfg.noise_psd * alloc.bandwidths[0] * alloc.snr_targets[0]
            / single_user.gain, rel=1e-12)
        # at the threshold the inversion power equals the cap
        assert up.inversion_coeff / up.gain_threshold == pytest.approx(
            up.power_cap, rel=1e-9)

    def test_user_count_mismatch_rejected(self, cfg, single_user, solved):
        policy, alloc = solved
        with pytest.raises(ValueError):
            SimPolicy.from_allocation(alloc, cfg, [single_user, single_user])
