import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urllc_ee import (DEFAULT_CONFIG_TEXT, ConfigError, QosInfeasibleError,
                      PowerInfeasibleError, SystemConfig, UserProfile,
                      YFunction, allocate_bandwidth, build_y_functions,
                      find_bandwidth_minimizer, mean_tx_power,
                      optimal_antennas, parse_config_text, power_thresholds,
                      solve_allocation, solve_gain_threshold, validate_config)
from urllc_ee import allocator, experiments, fading
from urllc_ee.allocator import CASE_LIMITED, CASE_SUFFICIENT, mean_total_power
from urllc_ee.experiments import (antenna_sweep_rows, place_users,
                                  user_sweep_rows)
from urllc_ee.model import path_loss_gain
from urllc_ee.rate import _coeffs_at_rate

import oracles
from conftest import DEFAULT_CFG, LAM, WTH_REFERENCE_MHZ, unit_rate_yfunction
from oracles import sign_structure_witness, y_derivatives, y_value


def numeric_first_derivative(w, f, h_rel=3e-6):
    h = w * h_rel
    return (y_value(w + h, f) - y_value(w - h, f)) / (2 * h)


def numeric_second_derivative(w, f, h_rel=1.2e-4):
    h = w * h_rel
    return (y_value(w + h, f) - 2 * y_value(w, f) + y_value(w - h, f)) / (h * h)


class TestYValue:
    def test_degenerate_no_qos(self):
        f = YFunction(l=0.0, v=0.0, alpha=1.0)
        for w in (1e3, 1e6, 1e9):
            assert y_value(w, f) == 0.0

    def test_reference_point(self):
        f = unit_rate_yfunction(1e-7)
        assert y_value(7.42e6, f) == pytest.approx(7.42e6 * 0.7663, rel=1e-4)

    def test_blows_up_at_small_bandwidth(self):
        f = unit_rate_yfunction(1e-7)
        assert y_value(2e4, f) > y_value(2e5, f) > y_value(2e6, f)

    def test_overflow_reported_as_infeasible(self):
        f = YFunction(l=1e6, v=0.0, alpha=1.0)
        with pytest.raises(QosInfeasibleError):
            y_value(1e6 / 750.0, f)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            y_value(0.0, unit_rate_yfunction(1e-7))


class TestYDerivatives:
    def test_matches_finite_differences(self):
        f = unit_rate_yfunction(1e-7)
        for w in np.logspace(5.8, 7.5, 25):
            y1, y2 = y_derivatives(float(w), f)
            assert y1 == pytest.approx(numeric_first_derivative(float(w), f),
                                       rel=2e-6, abs=1e-10)
            assert y2 == pytest.approx(numeric_second_derivative(float(w), f),
                                       rel=2e-5)

    def test_stationary_at_minimizer(self):
        f = unit_rate_yfunction(1e-7)
        w_th = find_bandwidth_minimizer(f)
        y1, y2 = y_derivatives(w_th, f)
        assert abs(y1) < 1e-8
        assert y2 > 0

    def test_convex_everywhere_without_dispersion(self):
        f = YFunction(l=2.2181e6, v=0.0, alpha=1.0)
        for w in np.logspace(4, 9, 30):
            _, y2 = y_derivatives(float(w), f)
            assert y2 > 0

    def test_descent_then_ascent(self):
        for eps in WTH_REFERENCE_MHZ:
            f = unit_rate_yfunction(eps)
            w_th = find_bandwidth_minimizer(f)
            for w in np.logspace(math.log10(w_th / 50),
                                 math.log10(w_th * 0.99), 20):
                assert y_derivatives(float(w), f)[0] < 0
            for w in np.logspace(math.log10(w_th * 1.01),
                                 math.log10(w_th * 10), 20):
                assert y_derivatives(float(w), f)[0] > 0

    def test_convex_left_of_minimizer(self):
        for eps in WTH_REFERENCE_MHZ:
            f = unit_rate_yfunction(eps)
            w_th = find_bandwidth_minimizer(f)
            for w in np.logspace(math.log10(w_th / 100), math.log10(w_th), 20):
                assert y_derivatives(float(w), f)[1] > 0


class TestBandwidthMinimizer:
    @pytest.mark.parametrize("eps", sorted(WTH_REFERENCE_MHZ))
    def test_unit_rate_reference(self, eps):
        w_th = find_bandwidth_minimizer(unit_rate_yfunction(eps))
        assert w_th == pytest.approx(WTH_REFERENCE_MHZ[eps] * 1e6, rel=1e-2)

    def test_monotone_in_error_target(self):
        ths = [find_bandwidth_minimizer(unit_rate_yfunction(e))
               for e in (1e-8, 1e-7, 1e-6, 1e-5)]
        assert all(b > a for a, b in zip(ths, ths[1:]))

    def test_dispersion_free_sentinel(self):
        f = YFunction(l=2.2181e6, v=0.0, alpha=1.0)
        assert find_bandwidth_minimizer(f) == math.inf

    def test_independent_of_alpha(self):
        a = find_bandwidth_minimizer(unit_rate_yfunction(1e-7, alpha=1.0))
        b = find_bandwidth_minimizer(unit_rate_yfunction(1e-7, alpha=1e-13))
        assert a == b


class TestSignStructure:
    def test_curvature_positive_far_left(self):
        # the curvature polynomial tends to 4 l^2 > 0 at the origin; check
        # just inside the representable range
        f = unit_rate_yfunction(1e-7)
        _, y2 = y_derivatives(f.l / 500.0, f)
        assert y2 > 0

    def test_root_and_ordering(self):
        for eps in WTH_REFERENCE_MHZ:
            f = unit_rate_yfunction(eps)
            w1, w0 = sign_structure_witness(f)
            assert w1 < w0
            w_th = find_bandwidth_minimizer(f)
            assert w_th < w0
            # curvature changes sign exactly at w0
            assert y_derivatives(w0 * 0.9, f)[1] > 0
            assert y_derivatives(w0 * 1.1, f)[1] < 0

    def test_rejects_zero_dispersion(self):
        with pytest.raises(ValueError):
            sign_structure_witness(YFunction(l=1e6, v=0.0, alpha=1.0))


class TestAllocateBandwidth:
    def test_case1_single_user(self):
        f = unit_rate_yfunction(1e-7)
        sol = allocate_bandwidth([f], 20e6)
        assert sol.case_tag == CASE_SUFFICIENT
        assert sol.bandwidths[0] == pytest.approx(7.42e6, rel=1e-2)
        assert sol.kkt_multiplier == 0.0

    def test_case2_identical_users_split_evenly(self):
        f = unit_rate_yfunction(1e-7, alpha=3e-13)
        sol = allocate_bandwidth([f, f, f], 12e6)
        assert sol.case_tag == CASE_LIMITED
        for w in sol.bandwidths:
            assert w == pytest.approx(4e6, rel=1e-9)
        assert sum(sol.bandwidths) == pytest.approx(12e6, rel=1e-9)

    def test_case2_against_grid_search(self, cfg):
        # brute-force oracle on the K=2 simplex (coarse grid; the acceptance
        # suite runs the 1 kHz version)
        users = [UserProfile(LAM, path_loss_gain(d)) for d in (250.0, 150.0)]
        qos = validate_config(cfg, users)
        yfuncs = build_y_functions(cfg, qos, users)
        w_max = 5e6
        sol = allocate_bandwidth(yfuncs, w_max)
        assert sol.case_tag == CASE_LIMITED

        grid = np.arange(1e4, w_max, 1e4)
        objs = []
        for w1 in grid:
            w2 = w_max - w1
            objs.append(y_value(float(w1), yfuncs[0]) / yfuncs[0].alpha
                        + y_value(float(w2), yfuncs[1]) / yfuncs[1].alpha)
        best = min(objs)
        assert sol.objective <= best * (1 + 1e-12)
        assert sol.objective == pytest.approx(best, rel=3e-3)

    def test_case2_against_slsqp(self, cfg):
        # independent continuous-optimizer oracle on a K=5 instance
        from scipy.optimize import minimize

        users = [UserProfile(LAM, path_loss_gain(d))
                 for d in (245.0, 210.0, 160.0, 120.0, 65.0)]
        qos = validate_config(cfg, users)
        yfuncs = build_y_functions(cfg, qos, users)
        w_max = 9e6
        sol = allocate_bandwidth(yfuncs, w_max)
        assert sol.case_tag == CASE_LIMITED

        w_ths = [find_bandwidth_minimizer(f) for f in yfuncs]

        def objective(ws):
            return sum(y_value(float(w), f) / f.alpha
                       for w, f in zip(ws, yfuncs)) * 1e-19

        x0 = np.full(len(users), w_max / len(users))
        res = minimize(objective, x0, method="SLSQP",
                       bounds=[(1e5, wt) for wt in w_ths],
                       constraints=[{"type": "eq",
                                     "fun": lambda w: (np.sum(w) - w_max) / w_max}],
                       options={"maxiter": 500, "ftol": 1e-14})
        assert res.success
        assert sol.objective <= res.fun / 1e-19 * (1 + 1e-9)

    def test_case2_kkt_certificate(self, cfg):
        users = [UserProfile(LAM, path_loss_gain(d))
                 for d in (250.0, 180.0, 90.0)]
        qos = validate_config(cfg, users)
        yfuncs = build_y_functions(cfg, qos, users)
        sol = allocate_bandwidth(yfuncs, 6e6)
        assert sol.case_tag == CASE_LIMITED
        assert sol.kkt_residual <= 1e-8
        w_ths = [find_bandwidth_minimizer(f) for f in yfuncs]
        for w, wt in zip(sol.bandwidths, w_ths):
            assert 0 < w <= wt * (1 + 1e-12)

    def test_infeasible_budget_reported(self):
        f = unit_rate_yfunction(1e-7)
        with pytest.raises(QosInfeasibleError):
            allocate_bandwidth([f, f], 200.0)

    def test_overflow_at_the_optimum_is_qos_infeasible(self, cfg):
        # The even split passes its check, but the optimum starves the user
        # of larger alpha past an exponent that expm1 cannot take.
        def just_past_the_even_split(fs):
            k = len(fs)
            # l t^2 + v t = MAX_EXPONENT with t = (k / W)^(1/2)
            w = max(k * (2.0 * f.l / (math.sqrt(
                f.v * f.v + 4.0 * f.l * allocator.MAX_EXPONENT) - f.v)) ** 2
                for f in fs)
            while any(allocator._exponent(w / k, f) > allocator.MAX_EXPONENT
                      for f in fs):
                w = math.nextafter(w, math.inf)
            return 1.001 * w

        fs = [YFunction(l=1e5, v=300.0, alpha=1e-3),
              YFunction(l=1e5, v=300.0, alpha=1e-5)]
        with pytest.raises(QosInfeasibleError,
                           match="exponent 1259.3 overflows at W=81.56"):
            allocate_bandwidth(fs, just_past_the_even_split(fs))
        users = [UserProfile(arrival_rate=0.02, gain=g)
                 for g in (1e-12, 1e-14)]
        yfuncs = build_y_functions(cfg, validate_config(cfg, users), users)
        tight = replace(cfg, total_bandwidth=just_past_the_even_split(yfuncs))
        with pytest.raises(QosInfeasibleError, match="overflows at W="):
            solve_allocation(tight, users)

    def test_dispersion_free_user_gets_all_bandwidth(self):
        # v = 0 has no finite minimizer: the kernel decreases monotonically,
        # so the budget constraint binds and one user takes everything
        f = YFunction(l=2.2181e6, v=0.0, alpha=3e-13)
        sol = allocate_bandwidth([f], 20e6)
        assert sol.case_tag == CASE_LIMITED
        assert sol.bandwidths[0] == pytest.approx(20e6, rel=1e-9)

    def test_dispersion_free_pair_splits_evenly(self):
        f = YFunction(l=2.2181e6, v=0.0, alpha=3e-13)
        sol = allocate_bandwidth([f, f], 20e6)
        assert sum(sol.bandwidths) == pytest.approx(20e6, rel=1e-9)
        assert sol.bandwidths[0] == pytest.approx(1e7, rel=1e-9)

    def test_rejects_empty_users(self):
        with pytest.raises(ValueError):
            allocate_bandwidth([], 1e6)


@pytest.fixture
def eps_h(cfg, single_user) -> float:
    """The default cell's dropping budget, as a solve resolves it."""
    return validate_config(cfg, [single_user]).eps_h


class TestOptimalAntennas:
    def test_degenerate_load_clamps_to_two(self, cfg, eps_h):
        assert optimal_antennas(0.0, cfg, eps_h) == 2

    def test_exact_square_argument(self, cfg, eps_h):
        wy = 48.0 * cfg.amplifier_efficiency * cfg.circuit_power_per_antenna \
            / (4.0 * cfg.noise_psd * (1 - eps_h))
        assert optimal_antennas(wy, cfg, eps_h) == 4

    def test_single_user_regression(self, cfg, single_user):
        # pre-power-loop value at the 250 m operating point
        qos = validate_config(cfg, [single_user])
        yfuncs = build_y_functions(cfg, qos, [single_user])
        sol = allocate_bandwidth(yfuncs, cfg.total_bandwidth)
        assert optimal_antennas(sol.objective, cfg, qos.eps_h) == 3

    def test_monotone_in_load(self, cfg, eps_h):
        counts = [optimal_antennas(wy, cfg, eps_h)
                  for wy in np.logspace(17, 22, 20)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("eff, pc", [(1e-200, 0.05), (1e-308, 0.05),
                                         (1e-308, 1e-20)])
    def test_root_past_the_cap_gives_the_cap(self, cfg, single_user, eps_h,
                                             eff, pc):
        # the closed-form root is ~1e100, infinite, or 1/0 when the
        # efficiency times the circuit power underflows
        tiny = replace(cfg, amplifier_efficiency=eff,
                       circuit_power_per_antenna=pc)
        yfuncs = build_y_functions(cfg, validate_config(cfg, [single_user]),
                                   [single_user])
        wy = allocate_bandwidth(yfuncs, cfg.total_bandwidth).objective
        assert optimal_antennas(wy, tiny, eps_h) == 512
        # mean total power still falls at the cap, the best count within it
        assert (mean_total_power(wy, 512, tiny, eps_h)
                < mean_total_power(wy, 511, tiny, eps_h))
        assert solve_allocation(tiny, [single_user]).antennas == 512
        with pytest.raises(PowerInfeasibleError):
            solve_allocation(replace(tiny, max_bs_power=1e-4), [single_user])

    def test_ceiling_is_exact_integer_argmin(self, cfg, eps_h):
        # the quadratic inside the ceiling encodes the discrete optimality
        # condition (n-1)(n-2) <= B <= n(n-1), so no off-by-one is possible;
        # verify against an explicit sweep across five decades of load
        rng = np.random.default_rng(31)
        for _ in range(60):
            wy = float(10 ** rng.uniform(17.5, 22.5))
            n_formula = optimal_antennas(wy, cfg, eps_h)
            sweep = {n: mean_total_power(wy, n, cfg, eps_h)
                     for n in range(2, 4000)}
            n_best = min(sweep, key=sweep.get)
            assert n_formula == n_best, (wy, n_formula, n_best)


class TestPowerThresholds:
    def _setup(self, cfg, single_user):
        qos = validate_config(cfg, [single_user])
        yfuncs = build_y_functions(cfg, qos, [single_user])
        sol = allocate_bandwidth(yfuncs, cfg.total_bandwidth)
        return sol, yfuncs, qos.eps_h

    def test_more_antennas_lower_caps(self, cfg, single_user):
        sol, yfuncs, eps_h = self._setup(cfg, single_user)
        _, caps2 = power_thresholds(sol, 2, cfg, yfuncs, eps_h)
        _, caps16 = power_thresholds(sol, 16, cfg, yfuncs, eps_h)
        assert caps16[0] < caps2[0]

    def test_alpha_scaling(self, cfg, single_user):
        sol, yfuncs, eps_h = self._setup(cfg, single_user)
        doubled = [YFunction(l=f.l, v=f.v, alpha=2 * f.alpha) for f in yfuncs]
        _, caps = power_thresholds(sol, 4, cfg, yfuncs, eps_h)
        _, caps2 = power_thresholds(sol, 4, cfg, doubled, eps_h)
        assert caps2[0] == pytest.approx(caps[0] / 2, rel=1e-12)

    def test_threshold_consistency(self, cfg, single_user):
        sol, yfuncs, eps_h = self._setup(cfg, single_user)
        g_th, caps = power_thresholds(sol, 4, cfg, yfuncs, eps_h)
        from urllc_ee import drop_bound_F
        assert drop_bound_F(g_th, 4) == pytest.approx(cfg.loss_budget / 3,
                                                      rel=1e-3, abs=0)
        assert caps[0] > 0


class TestSolveAllocation:
    def test_single_user_reference(self, cfg, single_user):
        alloc = solve_allocation(cfg, [single_user])
        assert alloc.case_tag == CASE_SUFFICIENT
        # regression pins from the first verified run of this pipeline
        assert alloc.bandwidths[0] == pytest.approx(3.1544646939557137e6, rel=1e-9)
        assert alloc.snr_targets[0] == pytest.approx(1.0554245851898885, rel=1e-9)
        assert alloc.antennas == 4
        assert alloc.mean_total_power == pytest.approx(0.28913055499, rel=1e-9)
        assert alloc.energy_efficiency == pytest.approx(110676.6125, rel=1e-9)

    def test_overflowing_totals_are_config_errors(self, cfg, single_user):
        # finite inputs whose products overflow end in a config error, not
        # in an inf mean power or a traceback
        with pytest.raises(ConfigError, match="mean total power"):
            solve_allocation(replace(cfg, circuit_power_per_antenna=1e308),
                             [single_user])
        tiny = UserProfile(arrival_rate=2e-313, gain=path_loss_gain(250.0))
        with pytest.raises(ConfigError, match="effective bandwidth"):
            solve_allocation(cfg, [tiny])

    def test_power_cap_loop_engaged(self, cfg, single_user):
        # the unconstrained antenna optimum needs more than the 10 W budget
        qos = validate_config(cfg, [single_user])
        yfuncs = build_y_functions(cfg, qos, [single_user])
        sol = allocate_bandwidth(yfuncs, cfg.total_bandwidth)
        n0 = optimal_antennas(sol.objective, cfg, qos.eps_h)
        _, caps = power_thresholds(sol, n0, cfg, yfuncs, qos.eps_h)
        assert sum(caps) > cfg.max_bs_power
        alloc = solve_allocation(cfg, [single_user])
        assert alloc.antennas > n0
        assert sum(alloc.power_caps) <= cfg.max_bs_power

    def test_mean_power_matches_fading_closed_form(self, cfg, single_user):
        alloc = solve_allocation(cfg, [single_user])
        qos = validate_config(cfg, [single_user])
        want = mean_tx_power(alloc.bandwidths[0], alloc.snr_targets[0],
                             single_user.gain, alloc.antennas, qos.eps_h, cfg)
        assert alloc.mean_tx_powers[0] == pytest.approx(want, rel=1e-12)

    def test_deterministic(self, cfg, single_user):
        a = solve_allocation(cfg, [single_user])
        b = solve_allocation(cfg, [single_user])
        assert a.to_json() == b.to_json()

    def test_budget_constraints_hold(self, cfg):
        users = [UserProfile(LAM, path_loss_gain(d))
                 for d in (250.0, 230.0, 170.0, 110.0, 60.0)]
        alloc = solve_allocation(cfg, users)
        assert sum(alloc.bandwidths) <= cfg.total_bandwidth * (1 + 1e-9)
        assert sum(alloc.power_caps) <= cfg.max_bs_power * (1 + 1e-9)
        assert all(w > 0 for w in alloc.bandwidths)
        assert all(np.isfinite(alloc.mean_tx_powers))

    def test_more_bandwidth_never_hurts(self, single_user):
        users = [single_user] * 4
        powers = []
        for w_max in (8e6, 12e6, 16e6, 20e6):
            cfg = SystemConfig(total_bandwidth=w_max)
            powers.append(solve_allocation(cfg, users).mean_total_power)
        assert all(b <= a * (1 + 1e-12) for a, b in zip(powers, powers[1:]))

    def test_antenna_argmin_consistency(self, cfg):
        users = [UserProfile(LAM, path_loss_gain(d))
                 for d in (240.0, 150.0, 75.0)]
        alloc = solve_allocation(cfg, users)
        qos = validate_config(cfg, users)
        yfuncs = build_y_functions(cfg, qos, users)
        sol = allocate_bandwidth(yfuncs, cfg.total_bandwidth)
        feasible = []
        for n in range(2, 41):
            _, caps = power_thresholds(sol, n, cfg, yfuncs, qos.eps_h)
            if sum(caps) <= cfg.max_bs_power:
                feasible.append((mean_total_power(sol.objective, n, cfg,
                                                  qos.eps_h), n))
        assert min(feasible)[1] == alloc.antennas

    def test_fixed_antenna_mode(self, cfg, single_user):
        alloc = solve_allocation(cfg, [single_user], n_antennas=16)
        assert alloc.antennas == 16
        joint = solve_allocation(cfg, [single_user])
        assert joint.mean_total_power <= alloc.mean_total_power

    def test_fixed_antenna_power_infeasible(self, cfg, single_user):
        # two antennas cannot meet the 10 W budget at 250 m
        with pytest.raises(PowerInfeasibleError):
            solve_allocation(cfg, [single_user], n_antennas=2)

    def test_antenna_cap_reported(self, cfg, single_user):
        with pytest.raises(PowerInfeasibleError,
                           match="not reachable within 512 antennas"):
            solve_allocation(replace(cfg, max_bs_power=1e-6), [single_user])

    def test_fixed_count_within_the_cap(self, cfg, single_user):
        # the joint loop stops at the cap, so a fixed count past it would
        # beat the joint optimum with a count no joint solve may use
        assert solve_allocation(cfg, [single_user],
                                n_antennas=allocator.ANTENNA_CAP).antennas \
            == allocator.ANTENNA_CAP
        for n in (allocator.ANTENNA_CAP + 1, 600, 1, 0, -3):
            with pytest.raises(ConfigError, match=f"antenna count {n} "):
                solve_allocation(cfg, [single_user], n_antennas=n)

    def test_qos_infeasible_reported(self, single_user):
        cfg = SystemConfig(total_bandwidth=100.0)
        with pytest.raises(QosInfeasibleError):
            solve_allocation(cfg, [single_user])

    def test_eps_h_override_changes_threshold(self, cfg, single_user):
        base = solve_allocation(cfg, [single_user])
        relaxed = solve_allocation(cfg, [single_user], eps_h=1e-4)
        assert relaxed.gain_thresholds[0] > base.gain_thresholds[0] or \
            relaxed.antennas < base.antennas

    def test_ee_counts_delivered_bits(self, cfg, single_user):
        alloc = solve_allocation(cfg, [single_user])
        bits_per_s = (1 - cfg.loss_budget) * cfg.packet_bits * \
            single_user.arrival_rate / cfg.frame_duration
        assert alloc.energy_efficiency == pytest.approx(
            bits_per_s / alloc.mean_total_power, rel=1e-12)


class TestRecordedOutputs:
    """Exact outputs recorded before the root solves were folded onto the
    shared bracket and bisection helpers; any change to an iterate shows."""

    def test_bandwidth_minimizers(self):
        want = {1e-8: 7348641.704286353, 1e-7: 7424040.505865056,
                1e-6: 7534587.671981925, 1e-5: 7699456.631487256}
        assert sorted(want) == sorted(WTH_REFERENCE_MHZ)
        for eps, w_th in want.items():
            assert find_bandwidth_minimizer(unit_rate_yfunction(eps)) == w_th

    def test_gain_thresholds(self):
        want = [2.0000001333333514e-07, 0.0007747467070135735,
                0.01342463875181979, 0.05944177249040199,
                0.15165255626774268, 0.292564981459918, 0.4796816909746343]
        assert [solve_gain_threshold(n, 1e-7)
                for n in range(2, 9)] == want

    def test_busy_cell_allocation(self):
        cfg, users = parse_config_text(DEFAULT_CONFIG_TEXT.replace(
            "user_distances_m = 250",
            "user_distances_m = 100, 150, 200, 250\n"
            "user_arrival_rates_pps = 20000, 20000, 5000, 20000"))
        alloc = solve_allocation(cfg, users)
        assert alloc.case_tag == CASE_LIMITED
        assert alloc.bandwidths == [3041352.699748772, 4742034.817864614,
                                    3161618.071705646, 9054994.410681127]
        assert alloc.kkt_multiplier == 1971227153944.3794
        assert alloc.gain_thresholds == [0.05944177249040199] * 4


class TestSplitReuse:
    """The solves of one user set share its memoized bandwidth split: the
    EE-vs-K sweep's joint and fixed-antenna solves, and every antenna count
    of the antenna sweep."""

    K_VALUES = list(range(1, 13))
    FIXED_NTS = [2, 8, 64]

    def test_rows_equal_plain_solves(self, cfg):
        def ee(users, **kw):
            try:
                return solve_allocation(cfg, users, **kw).energy_efficiency
            except (QosInfeasibleError, PowerInfeasibleError):
                return None

        rows = user_sweep_rows(cfg, LAM, self.K_VALUES, self.FIXED_NTS)
        want = []
        for k in self.K_VALUES:
            users = place_users(k, LAM)
            want.append((k, ee(users), {nt: ee(users, n_antennas=nt)
                                        for nt in self.FIXED_NTS}))
        assert rows == want
        # the grid has power-infeasible fixed points (two antennas)
        assert any(fixed[2] is None for _, _, fixed in rows)
        cases = {solve_allocation(cfg, place_users(k, LAM)).case_tag
                 for k in self.K_VALUES}
        assert cases == {CASE_SUFFICIENT, CASE_LIMITED}

    def test_one_split_per_user_set(self, cfg, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return allocate_bandwidth(*args)

        allocator._prologue.cache_clear()
        monkeypatch.setattr(allocator, "allocate_bandwidth", counted)
        user_sweep_rows(cfg, LAM, self.K_VALUES, self.FIXED_NTS)
        assert calls == self.K_VALUES

    def test_one_snr_target_per_user_in_the_antenna_sweep(self, cfg,
                                                          monkeypatch):
        # the default sweep-antennas protocol: K = 5, 10, 20 and N_t 2..64
        calls = []
        plain = allocator._snr_target

        def counted(w, f):
            calls.append(w)
            return plain(w, f)

        allocator._prologue.cache_clear()
        monkeypatch.setattr(allocator, "_snr_target", counted)
        for k in (5, 10, 20):
            antenna_sweep_rows(cfg, place_users(k, LAM), list(range(2, 65)))
        assert len(calls) == 35

    def test_qos_infeasible_cell_gives_no_points(self):
        cfg = SystemConfig(total_bandwidth=100.0)
        rows = user_sweep_rows(cfg, LAM, [1, 2, 5], self.FIXED_NTS)
        assert rows == [(k, None, dict.fromkeys(self.FIXED_NTS))
                        for k in (1, 2, 5)]

    @pytest.mark.parametrize("cfg_kw, eps_h, kind", [
        ({"total_bandwidth": 100.0}, None, QosInfeasibleError),
        ({}, 1.5, ConfigError),
    ], ids=["qos-infeasible", "config-error"])
    def test_each_failing_solve_raises_its_own_error(self, cfg_kw, eps_h,
                                                     kind):
        # an error is never shared between solves: a caller's edit to one
        # does not reach the next
        cfg = SystemConfig(**cfg_kw)
        users = place_users(3, LAM)
        allocator._prologue.cache_clear()
        with pytest.raises(kind) as info:
            solve_allocation(cfg, users, eps_h=eps_h)
        first = info.value
        if kind is ConfigError:
            assert first.violations == [str(first)]
            first.violations.append("a note")
        with pytest.raises(kind) as info:
            solve_allocation(cfg, users, eps_h=eps_h)
        second = info.value
        assert second is not first
        assert type(second) is type(first)
        assert second.args == first.args
        if kind is ConfigError:
            assert second.violations == [str(second)]

    def test_warm_cache_solves_are_bit_identical(self, cfg):
        users = place_users(9, LAM, scheme="uniform", seed=7)
        for kw in ({}, {"n_antennas": 16}, {"n_antennas": 64}):
            allocator._prologue.cache_clear()
            cold = solve_allocation(cfg, users, **kw)
            warm = solve_allocation(cfg, users, **kw)
            want = cold.to_json()
            assert warm.to_json() == want
            # a caller's edits to a result never reach the cached split
            for alloc in (cold, warm):
                for name in ("bandwidths", "snr_targets", "power_caps"):
                    values = getattr(alloc, name)
                    values[0] *= 2.0
                    values.append(1.0)
            assert solve_allocation(cfg, users, **kw).to_json() == want

    SWEEP_K = list(range(1, 41))
    SWEEP_NTS = [8, 16, 32, 64]

    def sweep(self, cfg):
        """The benchmark's EE-vs-K sweep on placement seed 1."""
        return user_sweep_rows(cfg, LAM, self.SWEEP_K, self.SWEEP_NTS,
                               scheme="uniform", seed=1)

    @staticmethod
    def clear_memos():
        allocator._prologue.cache_clear()
        allocator._minimizer.cache_clear()
        experiments._uniform_draw.cache_clear()

    def test_sweep_rows_equal_with_cold_and_warm_memos(self, cfg):
        self.clear_memos()
        cold = self.sweep(cfg)
        # W_th and the placement draws warm, every split computed again
        allocator._prologue.cache_clear()
        assert self.sweep(cfg) == cold
        # every memo warm
        assert self.sweep(cfg) == cold

    def test_each_minimizer_and_draw_once_per_sweep(self, cfg, monkeypatch):
        calls = []
        plain_minimizer = allocator.find_bandwidth_minimizer

        def counted_minimizer(f):
            calls.append(f)
            return plain_minimizer(f)

        self.clear_memos()
        monkeypatch.setattr(allocator, "find_bandwidth_minimizer",
                            counted_minimizer)
        self.sweep(cfg)
        # a tracer that wraps the plain functions still sees every call
        assert len(calls) == sum(self.SWEEP_K)
        assert inspect.isfunction(plain_minimizer)
        assert inspect.isfunction(experiments.place_users)
        assert allocator._minimizer.cache_info().misses <= 40
        assert experiments._uniform_draw.cache_info().misses <= 40

    def test_gain_threshold_memo(self):
        first = [solve_gain_threshold(n, 1e-7) for n in (2, 8, 64)]
        again = [solve_gain_threshold(n, 1e-7) for n in (2, 8, 64)]
        assert again == first
        assert solve_gain_threshold(8, 1e-5) != first[1]
        # a tracer that wraps plain functions still sees every call
        assert inspect.isfunction(fading.solve_gain_threshold)
        with pytest.raises(ValueError):
            solve_gain_threshold(8, float("nan"))


def split_outcome(fn, users, w_max):
    try:
        sol = fn(users, w_max)
    except Exception as exc:  # the type must match the oracle's
        return type(exc)
    return (sol.bandwidths, sol.case_tag, sol.kkt_multiplier, sol.objective,
            sol.kkt_residual)


@st.composite
def split_inputs(draw):
    """Users of random distance, service rate and decoding-error target,
    every ``flat``-th one dispersion-free (v = 0, W_th = inf), and a budget
    from far too small for QoS to beyond the sum of the minimizers."""
    k = draw(st.integers(1, 60))
    flat = draw(st.sampled_from([0, 0, 1, 3, 10]))
    # W_th is about 3.3 l, and W_max / K below l / 700 overflows the QoS
    scale = 10.0 ** draw(st.floats(-3.5, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    users = []
    for i in range(k):
        dispersive = not (flat and i % flat == 0)
        # l does not depend on eps_c
        eps_c = 10.0 ** rng.uniform(-9, -0.4) if dispersive else 1e-7
        l, v = _coeffs_at_rate(rng.uniform(1e-3, 5.0), eps_c, DEFAULT_CFG)
        gain = path_loss_gain(rng.uniform(50.0, 250.0))
        users.append(YFunction(l, v if dispersive else 0.0, gain))
    return users, scale * sum(f.l for f in users)


@st.composite
def ladder_inputs(draw):
    """One user, at v = 0 in about a fifth of the draws, and a run of
    targets t < 0 from -1e-3 to -inf: those past about -1e304 lie where y'
    is clamped to -inf, and each run mixes lookups on the rungs made so far
    with ones that must grow the ladder."""
    dispersive = draw(st.sampled_from([False, True, True, True, True]))
    eps_c = 10.0 ** draw(st.floats(-9, -0.4)) if dispersive else 1e-7
    l, v = _coeffs_at_rate(draw(st.floats(1e-3, 5.0)), eps_c, DEFAULT_CFG)
    f = YFunction(l, v if dispersive else 0.0,
                  path_loss_gain(draw(st.floats(50.0, 250.0))))
    exponents = st.floats(-3.0, 308.0)
    targets = draw(st.lists(exponents.map(lambda e: -(10.0 ** e))
                            | st.just(-math.inf), min_size=1, max_size=30))
    return f, targets


class TestSplitAgainstOracle:
    """``allocate_bandwidth`` against the split that solves every user in
    full at every trial multiplier (``oracles.allocate_bandwidth``)."""

    @settings(max_examples=30, deadline=None, derandomize=True,
              database=None)
    @given(split_inputs())
    # one lookup here must grow its ladder by more than one rung
    @example(([YFunction(l=2993650.0648651524, v=485.23738419647475,
                         alpha=6.823986436948994e-11)], 94667.5272248469))
    def test_bit_identical_to_the_full_split(self, inputs):
        users, w_max = inputs
        assert (split_outcome(allocate_bandwidth, users, w_max)
                == split_outcome(oracles.allocate_bandwidth, users, w_max))

    def test_each_outcome_once(self):
        # one fixed instance per outcome that the property test draws
        f = unit_rate_yfunction(1e-7)
        flat = YFunction(l=f.l, v=0.0, alpha=3e-13)
        for users, case in (([f, f], CASE_SUFFICIENT),
                            ([f, f, f], CASE_LIMITED),
                            ([flat, f, flat], CASE_LIMITED)):
            got = split_outcome(allocate_bandwidth, users, 20e6)
            assert got[1] == case
            assert got == split_outcome(oracles.allocate_bandwidth, users,
                                        20e6)
        for fn in (allocate_bandwidth, oracles.allocate_bandwidth):
            assert split_outcome(fn, [f, f], 200.0) is QosInfeasibleError

    def test_minimizer_past_the_float_range(self):
        # doubling from l = 1e307 overflows, so W_th reads inf and each root
        # is bracketed by the largest float; the full split's midpoint of
        # two ends near it overflows too, and a split that does is refused
        users = [YFunction(1e307, 735.3, 1e-13),
                 YFunction(1e307 / 3, 735.3, 3e-12)]
        with pytest.raises(QosInfeasibleError, match="float range"):
            allocate_bandwidth(users, 1.7e308)
        w_ths = [find_bandwidth_minimizer(f) for f in users]
        assert w_ths == [math.inf, math.inf]
        split = allocator._NuSplit(users, w_ths, 1.7e308)
        for nu in (1e-300, 1.0, 1e10, 1e100):
            want = [oracles._root_of_y_prime(-nu * f.alpha, f, w_th)
                    for f, w_th in zip(users, w_ths)]
            assert split.solve(nu) == want

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(ladder_inputs())
    def test_ladder_matches_the_halving_scan(self, inputs):
        f, targets = inputs
        xs, negs = [], []
        for t in targets:
            hi = find_bandwidth_minimizer(f)
            if math.isinf(hi):
                hi = fading._grow(oracles._y_prime, f, t, f.l, 2.0)
            want = fading._grow(oracles._neg_y_prime, f, -t, hi * 0.5, 0.5)
            assert allocator._ladder_rung(xs, negs, f, hi, -t) == want

    def test_a_tenth_of_the_oracles_y_prime_calls(self, cfg, monkeypatch):
        users = place_users(40, LAM, scheme="uniform", seed=1)
        yfuncs = build_y_functions(cfg, validate_config(cfg, users), users)
        calls = []
        plain = allocator._y_prime_clamped

        def counted(w, f):
            calls.append(w)
            return plain(w, f)

        monkeypatch.setattr(allocator, "_y_prime_clamped", counted)
        fast = allocate_bandwidth(yfuncs, cfg.total_bandwidth)
        n_fast = len(calls)
        slow = oracles.allocate_bandwidth(yfuncs, cfg.total_bandwidth)
        n_slow = len(calls) - n_fast
        assert fast == slow and fast.case_tag == CASE_LIMITED
        assert 10 * n_fast <= n_slow
