import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from urllc_ee import (SystemConfig, drop_bound_F, mean_tx_power,
                      solve_gain_threshold)
from urllc_ee.fading import (_bisect, _gain_threshold, _gammainc, _grow,
                             _igam, _lgam)

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

    def test_small_threshold_leading_order(self):
        # F ~ G/2 for two antennas
        assert drop_bound_F(2e-7, 2) == pytest.approx(1e-7, rel=1e-6)

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
        with pytest.raises(ValueError):
            drop_bound_F(0.0, 2)
        with pytest.raises(ValueError):
            drop_bound_F(0.1, 1)


class TestIncompleteGammaAgainstScipy:
    """Below x = 0.6 a the incomplete gamma is cephes's series, transcribed;
    it must give scipy's bits, so every comparison here is ``==``."""

    def test_lgam_equals_gammaln(self):
        for a in range(1, 4097):
            assert _lgam(a) == float(gammaln(a)), a
        # past 1e8 cephes keeps only the leading Stirling terms
        for a in (10**8, 10**8 + 1, 10**12, 10**300):
            assert _lgam(a) == float(gammaln(float(a))), a

    @settings(max_examples=1000, deadline=None, derandomize=True,
              database=None)
    @given(a=st.integers(1, 4096), u=st.floats(0.0, 1.0),
           log_uniform=st.booleans())
    def test_series_equals_scipy(self, a, u, log_uniform):
        # log-uniform x from 1e-300 mostly lands where the prefactor
        # underflows to 0; uniform x covers the rest of [0, 0.6 a)
        top = 0.6 * a
        if log_uniform:
            lo = math.log(1e-300)
            x = math.exp(lo + u * (math.log(top) - lo))
        else:
            x = u * top
        assume(0.0 < x < a and abs(a - x) > 0.4 * a)
        assert _igam(a, x) == float(gammainc(a, x))

    def test_branch_edge(self):
        # x = 0.6 a and x = a - 0.4 a, and their float neighbours, fall on
        # both sides of cephes's test |a - x| > 0.4 a
        for a in range(1, 4097):
            for edge in (0.6 * a, a - 0.4 * a):
                for x in (math.nextafter(edge, 0.0), edge,
                          math.nextafter(edge, math.inf)):
                    assert _gammainc(a, x) == float(gammainc(a, x)), (a, x)
        for n in range(2, 513):
            for edge in (0.6 * (n - 1), 0.6 * n):
                for x in (math.nextafter(edge, 0.0), edge,
                          math.nextafter(edge, math.inf)):
                    assert drop_bound_F(x, n) == oracles.drop_bound_F(x, n)

    @pytest.mark.parametrize("eps", [1e-9, 1e-7, 1e-5, 1e-4, 1e-2, 0.3])
    def test_gain_threshold_equals_scipy_oracle(self, eps):
        # loose budgets at few antennas, and large arrays, reach x >= 0.6 a
        for n in range(2, 513):
            assert (_gain_threshold.__wrapped__(n, eps)
                    == oracles.gain_threshold(n, eps)), n


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
        assert th == pytest.approx(2e-7, rel=1e-5)

    def test_roundtrip(self):
        for n in (2, 4, 16):
            for eps in (1e-7, 1e-4, 1e-2):
                th = solve_gain_threshold(n, eps)
                assert drop_bound_F(th, n) == pytest.approx(
                    eps, rel=1e-3)

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
