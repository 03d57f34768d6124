import math

import numpy as np
import pytest
from scipy.integrate import quad

from urllc_ee import (SystemConfig, drop_bound_F, mean_tx_power,
                      solve_gain_threshold)
from urllc_ee.fading import _bisect, _gain_threshold, _grow

import oracles
from oracles import drop_prob_B, gain_cdf, gain_pdf

UPPER_BOUND_GRID_N = (2, 4, 8, 16, 32)
UPPER_BOUND_GRID_GAMMA = (0.1, 1.0, 10.0, 100.0)


def bound_by_quadrature(g_th: float, n: int) -> float:
    """Independent oracle: integrate (1 - g/g_th) f_{n-1}(g) over [0, g_th]."""
    val, _ = quad(lambda g: (1 - g / g_th) * gain_pdf(g, n - 1), 0, g_th,
                  epsabs=1e-14, epsrel=1e-12, limit=200)
    return val


class TestGainPdf:
    def test_single_antenna_is_exponential(self):
        for g in (0.0, 0.3, 2.0, 10.0):
            assert gain_pdf(g, 1) == pytest.approx(math.exp(-g), rel=1e-14)

    def test_normalization(self):
        for n in range(1, 65):
            total, _ = quad(lambda g: gain_pdf(g, n), 0, np.inf,
                            epsabs=1e-12, limit=300)
            assert total == pytest.approx(1.0, abs=1e-10), n

    def test_mode_at_n_minus_one(self):
        for n in (2, 5, 12):
            peak = n - 1
            assert gain_pdf(peak, n) > gain_pdf(peak * 0.9, n)
            assert gain_pdf(peak, n) > gain_pdf(peak * 1.1, n)

    def test_zero_boundary(self):
        assert gain_pdf(0.0, 1) == 1.0
        assert gain_pdf(0.0, 4) == 0.0

    def test_cdf_matches_quadrature(self):
        for n in (2, 7):
            for g in (0.1, 1.0, 5.0):
                want, _ = quad(lambda x: gain_pdf(x, n), 0, g, epsabs=1e-13)
                assert gain_cdf(g, n) == pytest.approx(want, abs=1e-11)


class TestDropBound:
    def test_reference_two_antennas(self):
        # closed form at N_t = 2 reduces to 1 - 1/G + exp(-G)/G
        got = drop_bound_F(0.1, 2)
        assert got == pytest.approx(1 - 1 / 0.1 + math.exp(-0.1) / 0.1,
                                    rel=1e-12)
        assert got == pytest.approx(0.04837, rel=1e-4)
        assert got == pytest.approx(bound_by_quadrature(0.1, 2), abs=1e-12)

    def test_tends_to_one(self):
        # convergence is O((n-1)/G): the weight 1 - g/G costs the mean/G
        assert drop_bound_F(1e6, 2) == pytest.approx(1.0, abs=2e-6)
        assert drop_bound_F(1e7, 32) == pytest.approx(1.0, abs=4e-6)
        assert drop_bound_F(4e2, 32) == pytest.approx(1.0 - 31.0 / 4e2,
                                                      rel=1e-3)
        for n in (2, 3, 512, 10**6):
            assert drop_bound_F(1e300, n) == 1.0

    def test_small_threshold_leading_order(self):
        # F ~ G/2 for two antennas
        assert drop_bound_F(2e-7, 2) == pytest.approx(1e-7, rel=1e-6, abs=0)
        # also where P(2, G) underflows, so that P(1, G) - P(2, G)/G would
        # read G; at 512 antennas F itself underflows
        assert oracles.drop_bound_error(
            drop_bound_F(1e-300, 2), 1e-300, 2) <= 1e-12
        assert drop_bound_F(1e-300, 512) == 0.0

    def test_matches_quadrature_on_grid(self):
        for n in UPPER_BOUND_GRID_N:
            for g_th in np.logspace(-6, 1, 25):
                closed = drop_bound_F(float(g_th), n)
                assert closed == pytest.approx(
                    bound_by_quadrature(float(g_th), n), abs=1e-10), (n, g_th)

    def test_strictly_increasing(self):
        for n in UPPER_BOUND_GRID_N:
            vals = [drop_bound_F(float(g), n) for g in np.logspace(-6, 1, 30)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_args(self):
        # NaN fails every comparison, so it must not reach a series loop
        for g_th in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                drop_bound_F(g_th, 2)
        with pytest.raises(ValueError):
            drop_bound_F(0.1, 1)
        assert drop_bound_F(math.inf, 2) == 1.0
        assert drop_bound_F(math.inf, 512) == 1.0


class TestDropBoundAgainstMpmath:
    """Two-sided bounds against the 40-digit references in ``oracles``."""

    NS = (2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128, 256, 512)

    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5, 1e-4, 1e-2, 5e-2,
                                     0.3])
    def test_bound_near_the_threshold(self, eps):
        for n in self.NS:
            g_th = _gain_threshold.__wrapped__(n, eps)
            for scale in (0.25, 0.5, 0.9, 1.0, 1.1, 2.0):
                g = scale * g_th
                assert oracles.drop_bound_error(
                    drop_bound_F(g, n), g, n) <= 1e-12, (n, scale)

    def test_bound_at_and_past_the_mode(self):
        # the branch switch at G = n - 1, and G far out where F -> 1
        for n in self.NS:
            for g in (n - 1.0, float(n), 1.5 * n, 10.0 * n, 1e6):
                assert oracles.drop_bound_error(
                    drop_bound_F(g, n), g, n) <= 1e-12, (n, g)

    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5, 1e-4, 1e-2, 0.3])
    def test_gain_threshold_near_the_root(self, eps):
        for n in (2, 3, 4, 8, 16, 64, 128, 512):
            x = _gain_threshold.__wrapped__(n, eps)
            assert oracles.gain_threshold_error(x, n, eps) <= 5e-14, n


class TestDropProb:
    def test_vanishing_range(self):
        assert drop_prob_B(1e-12, 1.0, 2) == pytest.approx(0.0, abs=1e-13)

    def test_integrand_zero_at_threshold(self):
        # at g = g_th the log ratio is exactly 1
        g_th, gamma = 0.3, 2.0
        val = 1 - math.log1p(g_th * gamma / g_th) / math.log1p(gamma)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_bounded_by_closed_form(self):
        assert drop_prob_B(0.1, 1.0, 2) < drop_bound_F(0.1, 2)

    def test_upper_bound_spot_grid(self):
        # the acceptance suite runs the full grid; keep a fast spot check
        for n in (2, 8):
            for gamma in (0.1, 10.0):
                for g_th in (1e-4, 0.05, 1.0):
                    assert drop_prob_B(g_th, gamma, n) <= \
                        drop_bound_F(g_th, n) + 1e-12

    def test_quadrature_matches_monte_carlo(self):
        # third, sampling-based route for the dropping approximation
        rng = np.random.default_rng(12)
        n, gamma, g_th = 3, 2.0, 0.6
        g = rng.standard_gamma(n, size=2_000_000)
        weight = np.where(g < g_th,
                          1.0 - np.log1p(g * gamma / g_th) / np.log1p(gamma),
                          0.0)
        mc = float(weight.mean())
        se = float(weight.std(ddof=1)) / math.sqrt(len(g))
        assert abs(drop_prob_B(g_th, gamma, n) - mc) < 4 * se

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            drop_prob_B(0.1, -1.0, 2)
        with pytest.raises(ValueError):
            drop_prob_B(-0.1, 1.0, 2)


class TestGainThreshold:
    def test_two_antenna_reference(self):
        th = solve_gain_threshold(2, 1e-7)
        assert th == pytest.approx(2e-7, rel=1e-5, abs=0)

    def test_roundtrip(self):
        for n in (2, 4, 16):
            for eps in (1e-7, 1e-4, 1e-2):
                th = solve_gain_threshold(n, eps)
                assert drop_bound_F(th, n) == pytest.approx(
                    eps, rel=1e-3, abs=0)

    def test_monotone_in_antennas(self):
        ths = [solve_gain_threshold(n, 1e-7) for n in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(ths, ths[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            solve_gain_threshold(1, 1e-7)
        with pytest.raises(ValueError):
            solve_gain_threshold(2, 0.0)


class TestRootHelpers:
    def test_stop_rules(self):
        calls = []

        def shifted(x, root):
            calls.append(x)
            return x - root

        # relative stop: from [0, 1], the width 2**-22 is the first one
        # within 1e-6 of the right end hi ~ 0.3
        x = _bisect(shifted, 0.3, 0.0, 0.0, 1.0, 1e-6)
        assert len(calls) == 22
        assert abs(x - 0.3) <= 1e-6 * 0.3
        # rtol = 0 never stops on width (adjacent floats keep a gap), so the
        # 200-halving cap ends the loop
        calls.clear()
        _bisect(shifted, 0.3, 0.0, 0.0, 1.0, 0.0)
        assert len(calls) == 200

    def test_midpoint_near_the_largest_float(self):
        # 1e308 + 1.7e308 overflows, so half the sum of the ends would be
        # inf; each end halved first keeps every midpoint finite
        x = _bisect(lambda x, _: x, None, 1.5e308, 1e308, 1.7e308, 1e-13)
        assert math.isfinite(x)
        assert abs(x - 1.5e308) <= 1e-13 * 1.5e308

    def test_bracket_growth(self):
        assert _grow(lambda x, k: x * k, 3.0, 100.0, 1.0, 2.0) == 64.0
        assert _grow(lambda x, k: -x, None, -1e-3, 1.0, 0.5) == 2.0 ** -10
        with pytest.raises(RuntimeError):
            _grow(lambda x, k: -1.0, None, 0.0, 1.0, 2.0)


class TestMeanTxPower:
    def test_small_eps_limit(self):
        cfg = SystemConfig()
        base = cfg.noise_psd * 7.42e6 * 0.7663 / (2.84e-13 * 15)
        got = mean_tx_power(7.42e6, 0.7663, 2.84e-13, 16, 1e-12, cfg)
        assert got == pytest.approx(base, rel=1e-9)

    def test_antenna_scaling(self):
        cfg = SystemConfig()
        p2 = mean_tx_power(7.42e6, 0.7663, 2.84e-13, 3, 1e-7, cfg)
        p4 = mean_tx_power(7.42e6, 0.7663, 2.84e-13, 5, 1e-7, cfg)
        assert p2 == pytest.approx(2 * p4, rel=1e-12)

    def test_reference_regression(self):
        # frozen after first evaluation at the 250 m operating point
        cfg = SystemConfig()
        got = mean_tx_power(7.42e6, 0.7663, 2.8427951601967117e-13, 16,
                            1e-7, cfg)
        want = (10 ** -20.3) * 7.42e6 * 0.7663 * (1 - 1e-7) / \
            (2.8427951601967117e-13 * 15)
        assert got == pytest.approx(want, rel=1e-12)

    def test_policy_quadrature_consistency(self):
        # integrating the two-branch power policy against the gain density
        # reproduces the closed form
        cfg = SystemConfig()
        w, alpha = 5e6, 3e-13
        for n, eps, gamma in ((2, 1e-4, 1.3), (4, 1e-7, 0.77), (16, 1e-2, 2.0)):
            g_th = solve_gain_threshold(n, eps)
            p_th = cfg.noise_psd * w * gamma / (alpha * g_th)
            capped, _ = quad(lambda g: p_th * gain_pdf(g, n), 0, g_th,
                             epsabs=1e-16, limit=300)
            inverted, _ = quad(
                lambda g: cfg.noise_psd * w * gamma / (alpha * g) * gain_pdf(g, n),
                g_th, np.inf, epsabs=1e-16, limit=300)
            want = capped + inverted
            got = mean_tx_power(w, gamma, alpha, n, eps, cfg)
            assert got == pytest.approx(want, rel=1e-8), (n, eps)

    def test_rejects_single_antenna(self):
        with pytest.raises(ValueError):
            mean_tx_power(5e6, 1.0, 1e-13, 1, 1e-7, SystemConfig())
