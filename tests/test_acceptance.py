"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <n>: PASS`` line (visible with -s or
in the captured-output section) and enforces the criterion's stated
tolerance and runtime budget.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from urllc_ee import (DEFAULT_CONFIG_TEXT, SimPolicy, UserProfile,
                      allocate_bandwidth, build_y_functions, drop_bound_F,
                      find_bandwidth_minimizer, path_loss_gain,
                      run_simulation, solve_allocation, validate_config)
from urllc_ee.allocator import CASE_LIMITED
from urllc_ee.experiments import (antenna_sweep_rows, drop_table_rows,
                                  place_users, user_sweep_rows)

from conftest import (DEFAULT_CFG, LAM, WTH_REFERENCE_MHZ, run_cli,
                      unit_rate_yfunction)
from oracles import (drop_prob_B, gain_cdf, gain_pdf, sign_structure_witness,
                     y_derivatives, y_value)

CFG = DEFAULT_CFG


def _report(num: int, runtime: float, detail: str):
    print(f"\nACCEPTANCE {num}: PASS ({runtime:.2f}s) {detail}")


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def test_criterion_01_bandwidth_minimizer_table():
    """Reference bandwidth minimizers at a unit service rate, +/-1%."""
    with Timer() as t:
        got = {eps: find_bandwidth_minimizer(unit_rate_yfunction(eps))
               for eps in WTH_REFERENCE_MHZ}
    for eps, want_mhz in WTH_REFERENCE_MHZ.items():
        assert got[eps] == pytest.approx(want_mhz * 1e6, rel=1e-2), eps
    assert t.elapsed < 1.0
    _report(1, t.elapsed, "W_th = " + ", ".join(
        f"{got[e]/1e6:.3f} MHz @ {e:g}" for e in sorted(got)))


def test_criterion_02_stationarity_at_minimizer():
    """The minimizer is flat: |y'(W_th)| tiny relative to |y'(W_th/2)|."""
    with Timer() as t:
        ratios = []
        for eps in WTH_REFERENCE_MHZ:
            f = unit_rate_yfunction(eps)
            w_th = find_bandwidth_minimizer(f)
            at_min = abs(y_derivatives(w_th, f)[0])
            at_half = abs(y_derivatives(w_th / 2, f)[0])
            ratios.append(at_min / at_half)
    assert all(r < 1e-6 for r in ratios), ratios
    assert t.elapsed < 1.0
    _report(2, t.elapsed, f"max flatness ratio {max(ratios):.2e}")


def _fd_first(w, f, h_rel=3e-6):
    h = w * h_rel
    return (y_value(w + h, f) - y_value(w - h, f)) / (2 * h)


def _fd_second(w, f, h_rel=1e-3):
    # five-point central stencil keeps truncation far below the tolerance
    h = w * h_rel
    return (-y_value(w + 2 * h, f) + 16 * y_value(w + h, f)
            - 30 * y_value(w, f) + 16 * y_value(w - h, f)
            - y_value(w - 2 * h, f)) / (12 * h * h)


def test_criterion_03_derivatives_and_sign_pattern():
    """Analytic derivatives track finite differences; curvature flips once."""
    with Timer() as t:
        worst1 = worst2 = 0.0
        for eps in WTH_REFERENCE_MHZ:
            f = unit_rate_yfunction(eps)
            w_th = find_bandwidth_minimizer(f)
            _w1, w0 = sign_structure_witness(f)
            grid = np.logspace(math.log10(w_th / 20), math.log10(w_th * 20),
                               100)
            sign_flips = 0
            prev_sign = -1
            for w in map(float, grid):
                y1, y2 = y_derivatives(w, f)
                if abs(w - w_th) > 0.02 * w_th:
                    rel1 = abs(y1 - _fd_first(w, f)) / abs(y1)
                    worst1 = max(worst1, rel1)
                    assert rel1 <= 1e-6, (eps, w)
                if abs(w - w0) > 0.02 * w0:
                    rel2 = abs(y2 - _fd_second(w, f)) / abs(y2)
                    worst2 = max(worst2, rel2)
                    assert rel2 <= 1e-6, (eps, w)
                # curvature positive below the witness root, negative above
                if w < w0:
                    assert y2 > 0, (eps, w)
                else:
                    assert y2 < 0, (eps, w)
                sign = 1 if y1 > 0 else -1
                if sign != prev_sign and sign > 0:
                    sign_flips += 1
                prev_sign = sign
            assert sign_flips == 1  # descent then ascent, exactly once
    assert t.elapsed < 1.0
    _report(3, t.elapsed,
            f"max FD mismatch y'={worst1:.2e}, y''={worst2:.2e}")


def test_criterion_04_drop_bound_closed_form_vs_quadrature():
    """Closed-form dropping bound equals its defining integral to 1e-10."""
    with Timer() as t:
        worst = 0.0
        for n in (2, 4, 8, 16, 32):
            for g_th in map(float, np.logspace(-6, 1, 50)):
                closed = drop_bound_F(g_th, n)
                integral, _ = quad(
                    lambda g: (1 - g / g_th) * gain_pdf(g, n - 1),
                    0.0, g_th, epsabs=1e-14, epsrel=1e-12, limit=200)
                worst = max(worst, abs(closed - integral))
                assert abs(closed - integral) <= 1e-10, (n, g_th)
    assert t.elapsed < 5.0
    _report(4, t.elapsed, f"250 points, worst |closed - quad| = {worst:.2e}")


def test_criterion_05_drop_probability_upper_bound():
    """The closed-form bound dominates the quadrature approximation."""
    with Timer() as t:
        points = 0
        worst_margin = math.inf
        for n in (2, 4, 8, 16, 32):
            for gamma in (0.1, 1.0, 10.0, 100.0):
                for g_th in map(float, np.logspace(-6, 1, 50)):
                    b = drop_prob_B(g_th, gamma, n)
                    f = drop_bound_F(g_th, n)
                    assert b <= f + 1e-12, (n, gamma, g_th)
                    points += 1
                    if b > 0:
                        worst_margin = min(worst_margin, f - b)
    assert points == 1000
    assert t.elapsed < 30.0
    _report(5, t.elapsed, f"{points} points, zero violations")


def test_criterion_06_bandwidth_split_against_grid_oracle():
    """Bandwidth-limited allocation beats an exhaustive 1 kHz grid search."""
    with Timer() as t:
        step = 1e3
        # two users, heterogeneous gains, budget forcing the limited case
        users2 = [UserProfile(LAM, path_loss_gain(d)) for d in (250.0, 147.0)]
        qos = validate_config(CFG, users2)
        yf2 = build_y_functions(CFG, qos, users2)
        w_max2 = 5e6
        sol2 = allocate_bandwidth(yf2, w_max2)
        assert sol2.case_tag == CASE_LIMITED
        assert sol2.kkt_residual <= 1e-8

        def y_vec(w, f):
            with np.errstate(over="ignore"):
                return w * np.expm1(f.l / w + f.v / np.sqrt(w))

        w1 = np.arange(step, w_max2, step)
        objs = y_vec(w1, yf2[0]) / yf2[0].alpha \
            + y_vec(w_max2 - w1, yf2[1]) / yf2[1].alpha
        best2 = float(np.nanmin(objs))
        assert sol2.objective <= best2 * (1 + 1e-12)
        gap2 = (best2 - sol2.objective) / best2
        assert abs(sol2.objective - best2) / best2 <= 1e-3

        # three users
        users3 = [UserProfile(LAM, path_loss_gain(d))
                  for d in (250.0, 150.0, 90.0)]
        yf3 = build_y_functions(CFG, validate_config(CFG, users3), users3)
        w_max3 = 6e6
        sol3 = allocate_bandwidth(yf3, w_max3)
        assert sol3.case_tag == CASE_LIMITED
        assert sol3.kkt_residual <= 1e-8
        w1 = np.arange(step, w_max3 - step, step)
        best3 = math.inf
        for w1_val in map(float, w1):
            w2 = np.arange(step, w_max3 - w1_val, step)
            if len(w2) == 0:
                continue
            w3 = w_max3 - w1_val - w2
            with np.errstate(over="ignore", invalid="ignore"):
                obj = (y_vec(np.array([w1_val]), yf3[0])[0] / yf3[0].alpha
                       + y_vec(w2, yf3[1]) / yf3[1].alpha
                       + y_vec(w3, yf3[2]) / yf3[2].alpha)
            m = float(np.nanmin(obj))
            if m < best3:
                best3 = m
        assert sol3.objective <= best3 * (1 + 1e-12)
        gap3 = (best3 - sol3.objective) / best3
        assert abs(sol3.objective - best3) / best3 <= 1e-3
    assert t.elapsed < 120.0
    _report(6, t.elapsed,
            f"grid gaps K=2: {gap2:.2e}, K=3: {gap3:.2e}; "
            f"KKT residuals {sol2.kkt_residual:.1e}/{sol3.kkt_residual:.1e}")


def test_criterion_07_antenna_sweep_consistency():
    """Power-vs-antennas curve is unimodal; its feasible argmin is the
    solver's antenna count; both the optimum and its power grow with load."""
    with Timer() as t:
        nt_values = list(range(2, 65))
        argmins, min_powers = [], []
        for k in (5, 10, 20):
            users = place_users(k, LAM)
            rows, locus = antenna_sweep_rows(CFG, users, nt_values)
            powers = [p for _nt, p, _f in rows]
            falling = True
            for a, b in zip(powers, powers[1:]):
                if b > a and falling:
                    falling = False
                else:
                    assert (b < a) == falling, f"not unimodal at K={k}"
            alloc = solve_allocation(CFG, users)
            assert locus is not None
            assert locus[0] == alloc.antennas, (k, locus, alloc.antennas)
            argmins.append(locus[0])
            min_powers.append(locus[1])
            assert alloc.mean_total_power == pytest.approx(locus[1], rel=1e-9)
        assert argmins == sorted(argmins)
        assert min_powers == sorted(min_powers)
    assert t.elapsed < 10.0
    _report(7, t.elapsed,
            f"N_t* = {argmins}, min powers = "
            + str([f"{p:.3f}" for p in min_powers]))


def test_criterion_08_energy_efficiency_shape_and_dominance():
    """Joint antenna optimization dominates every fixed antenna count, and
    EE rises then falls with the number of users (single peak)."""
    with Timer() as t:
        fixed_nts = [8, 16, 32, 64]
        rows = user_sweep_rows(CFG, LAM, list(range(1, 61)), fixed_nts)
        ee = [r[1] for r in rows]
        assert all(e is not None for e in ee)
        # dominance on the first thirty user counts
        for k, ee_joint, fixed in rows[:30]:
            for nt, ee_fixed in fixed.items():
                if ee_fixed is not None:
                    assert ee_joint >= ee_fixed * (1 - 1e-12), (k, nt)
        # single peak across the sweep (the maximum sits beyond K=30 for the
        # evenly spread placement, so the shape check runs to K=60)
        diffs = np.sign(np.diff(ee))
        changes = int(np.sum(diffs[1:] != diffs[:-1]))
        peak = int(np.argmax(ee)) + 1
        assert changes == 1, f"{changes} sign changes"
        assert 1 < peak < 60
    assert t.elapsed < 60.0
    _report(8, t.elapsed, f"EE peak at K={peak}, single sign change")


def test_criterion_09_simulator_matches_closed_forms():
    """Empirical mean transmit power within 1% of the closed form and the
    deep-fade rate within 3-sigma of the gain CDF (cell-edge policy)."""
    with Timer() as t:
        user = UserProfile(LAM, path_loss_gain(250.0))
        alloc = solve_allocation(CFG, [user])
        policy = SimPolicy.from_allocation(alloc, CFG, [user])
        frames = 10_000_000
        rep = run_simulation(policy, CFG, [user], frames=frames, seed=20260808,
                             streams=8, workers=2)
        power_err = abs(rep.empirical_mean_tx_power - alloc.mean_tx_powers[0]) \
            / alloc.mean_tx_powers[0]
        assert power_err <= 0.01
        p_deep = gain_cdf(alloc.gain_thresholds[0], alloc.antennas)
        sigma = math.sqrt(p_deep * (1 - p_deep) * frames)
        assert abs(rep.deep_fade_count - p_deep * frames) <= 3 * sigma
    assert t.elapsed < 120.0
    _report(9, t.elapsed,
            f"power error {power_err:.2%}, deep fades {rep.deep_fade_count} "
            f"(expected {p_deep * frames:.3g})")


def test_criterion_10_dropping_probability_direction():
    """Required dropping targets 1e-4 and 1e-5: the achieved probability
    stays below the target, with at least 30 drop events at 1e8 frames."""
    with Timer() as t:
        frames = 100_000_000
        rows = drop_table_rows(CFG, LAM, [1e-4, 1e-5], frames=frames,
                               seed=20260808, streams=8, workers=2)
    for r in rows:
        print(f"  required={r['required_eps_h']:g} "
              f"achieved={r['achieved_eps_h']:.3e} events={r['drop_events']} "
              f"deep_fades={r['deep_fades']} antennas={r['antennas']} "
              f"g_th={r['gain_threshold']:.4g}")
        # analytic expectation for the event count, for the record
        p_deep = gain_cdf(r["gain_threshold"], r["antennas"])
        print(f"    (deep-fade prob {p_deep:.3e}; expected events ~= "
              f"{p_deep * 0.04 * frames:.1f} with ~4% queue occupancy)")
    assert t.elapsed < 900.0
    for r in rows:
        assert r["achieved_eps_h"] <= r["required_eps_h"], r
    for r in rows:
        assert r["drop_events"] >= 30, (
            f"only {r['drop_events']} drop events at required "
            f"eps_h={r['required_eps_h']:g} over {frames:.0e} frames; the "
            "deep-fade probability is the Gamma CDF at g_th, which is far "
            "below the dropping budget, so this operating point cannot "
            "produce 30 events at this frame count")
    _report(10, t.elapsed, "bound direction and event counts")


def test_criterion_11_byte_identical_reruns(tmp_path):
    """Every command repeated with identical inputs reproduces its output
    files byte for byte."""
    with Timer() as t:
        user = UserProfile(LAM, path_loss_gain(250.0))
        a = solve_allocation(CFG, [user]).to_json()
        b = solve_allocation(CFG, [user]).to_json()
        assert a == b

        policy = SimPolicy.from_allocation(solve_allocation(CFG, [user]),
                                           CFG, [user])
        ra = run_simulation(policy, CFG, [user], frames=500_000, seed=5,
                            streams=4, workers=1)
        rb = run_simulation(policy, CFG, [user], frames=500_000, seed=5,
                            streams=4, workers=2)
        assert ra.to_json() == rb.to_json()

        cfg_path = os.fspath(tmp_path / "cell.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(DEFAULT_CONFIG_TEXT)
        pairs = []
        for name, args in (
            ("solve", ["solve", "--config", cfg_path, "--out", None]),
            ("wth", ["table-wth", "--config", cfg_path, "--out", None]),
            ("ant", ["sweep-antennas", "--config", cfg_path, "--out", None,
                     "--k-values", "5", "--nt-max", "16"]),
            ("users", ["sweep-users", "--config", cfg_path, "--out", None,
                       "--k-max", "4", "--fixed-nt", "8"]),
        ):
            blobs = []
            for attempt in ("x", "y"):
                out = os.fspath(tmp_path / f"{name}_{attempt}.out")
                argv = [out if a is None else a for a in args]
                res = run_cli(argv)
                assert res.exit_code == 0, (name, res.output)
                blobs.append(Path(out).read_bytes())
            assert blobs[0] == blobs[1], name
            pairs.append(name)
    _report(11, t.elapsed, f"identical outputs for {', '.join(pairs)}")
