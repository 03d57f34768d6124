import dataclasses
import math

import numpy as np
import pytest

from urllc_ee import (YFunction, achievable_rate, channel_dispersion,
                      effective_bandwidth, find_bandwidth_minimizer,
                      inv_gaussian_q, snr_coeffs, validate_config)
from urllc_ee.rate import LN2

from oracles import achievable_rate_max_dispersion, required_snr


def q_of(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def bisect_q_inverse(p: float) -> float:
    """Independent oracle: bisection on the complementary error function."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_of(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInvGaussianQ:
    def test_median(self):
        assert inv_gaussian_q(0.5) == 0.0

    def test_reference_tail_value(self):
        # frozen from the bisection oracle
        assert inv_gaussian_q(1e-7) == pytest.approx(5.199337582, rel=1e-9)
        assert inv_gaussian_q(1e-7) == pytest.approx(bisect_q_inverse(1e-7),
                                                     rel=1e-12)

    def test_roundtrip(self):
        assert q_of(inv_gaussian_q(1e-3)) == pytest.approx(1e-3, rel=1e-9)

    def test_accuracy_lower_range(self):
        # oracle comparison across the full lower tail and center
        for p in np.logspace(-12, math.log10(0.5), 60):
            want = bisect_q_inverse(float(p))
            got = inv_gaussian_q(float(p))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12), p

    def test_upper_range_symmetry(self):
        for p in (0.6, 0.9, 0.999, 1 - 1e-9, 1 - 1e-12):
            assert inv_gaussian_q(p) == pytest.approx(
                -inv_gaussian_q(1.0 - p), rel=1e-9, abs=1e-12)

    def test_rejects_out_of_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                inv_gaussian_q(p)


class TestChannelDispersion:
    def test_zero_snr(self):
        assert channel_dispersion(0.0) == 0.0

    def test_unit_snr(self):
        assert channel_dispersion(1.0) == pytest.approx(0.75, rel=1e-15)

    def test_high_snr_limit(self):
        assert channel_dispersion(1e12) == pytest.approx(1.0, rel=1e-11)
        assert channel_dispersion(math.inf) == 1.0

    def test_monotone_and_bounded(self):
        vals = [channel_dispersion(s) for s in np.logspace(-6, 6, 50)]
        assert all(0 <= v < 1 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            channel_dispersion(-0.1)


class TestAchievableRate:
    def test_half_error_target_gives_shannon_form(self, cfg):
        p, w, alpha, g = 1.0, 5e6, 1e-12, 2.0
        snr = alpha * p * g / (cfg.noise_psd * w)
        shannon = (cfg.dl_fraction * w / (cfg.packet_bits * LN2)) * math.log1p(snr)
        got = achievable_rate(p, w, alpha, g, 0.5, cfg)
        assert got == pytest.approx(shannon, rel=1e-12)

    def test_dispersion_penalty_positive(self, cfg):
        p, w, alpha, g = 1.0, 5e6, 1e-12, 2.0
        snr = alpha * p * g / (cfg.noise_psd * w)
        shannon = (cfg.dl_fraction * w / (cfg.packet_bits * LN2)) * math.log1p(snr)
        for eps in (1e-7, 1e-4, 1e-2, 0.4):
            assert achievable_rate(p, w, alpha, g, eps, cfg) < shannon

    def test_strictly_increasing_in_power(self, cfg):
        # monotone throughout the operating region (positive rate); at deeply
        # negative rates the dispersion term can locally dominate
        rates = [achievable_rate(p, 5e6, 1e-12, 1.0, 1e-7, cfg)
                 for p in np.logspace(-1, 3, 40)]
        assert rates[0] > 0
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_can_be_negative_at_tiny_snr(self, cfg):
        assert achievable_rate(1e-12, 5e6, 1e-13, 1e-3, 1e-7, cfg) < 0

    def test_vanishing_snr_limit(self, cfg):
        # both the capacity and dispersion terms vanish with the SNR
        assert abs(achievable_rate(1e-30, 5e6, 1e-13, 1e-3, 1e-7, cfg)) < 1e-12

    def test_reference_point_with_max_dispersion(self, cfg, single_user):
        # closed loop: at the required SNR with the dispersion pinned at 1
        # the rate equals the nominal service rate exactly
        qos = validate_config(cfg, [single_user])
        coeffs = snr_coeffs(qos, single_user.arrival_rate, cfg)
        for w in (2e6, 5e6, 9e6):
            gamma = required_snr(w, *coeffs)
            alpha, g = 3e-13, 1.7
            p = gamma * cfg.noise_psd * w / (alpha * g)
            eb = effective_bandwidth(single_user.arrival_rate, qos.eps_q,
                                     qos.queue_delay_frames)
            got = achievable_rate_max_dispersion(p, w, alpha, g, qos.eps_c,
                                                 cfg)
            assert got == pytest.approx(eb, rel=1e-9)

    def test_exact_dispersion_exceeds_pinned(self, cfg):
        # true dispersion < 1, so the exact-dispersion rate is higher;
        # frozen value computed at the unit-service-rate operating point
        l = 160 * LN2 / 0.5e-4
        v = inv_gaussian_q(1e-7) / math.sqrt(0.5e-4)
        gamma = required_snr(7.42e6, l, v)
        alpha, g = 2.8e-13, 1.0
        p = gamma * cfg.noise_psd * 7.42e6 / (alpha * g)
        exact = achievable_rate(p, 7.42e6, alpha, g, 1e-7, cfg)
        pinned = achievable_rate_max_dispersion(p, 7.42e6, alpha, g, 1e-7,
                                                cfg)
        assert pinned == pytest.approx(1.0, rel=1e-9)
        assert exact == pytest.approx(1.1586657938, rel=1e-9)
        assert exact > pinned

    def test_rejects_bad_args(self, cfg):
        with pytest.raises(ValueError):
            achievable_rate(-1.0, 5e6, 1e-12, 1.0, 1e-7, cfg)
        with pytest.raises(ValueError):
            achievable_rate(1.0, 5e6, 1e-12, 1.0, 0.7, cfg)


class TestSnrCoeffs:
    def test_l_matches_effective_bandwidth(self, cfg, single_user):
        qos = validate_config(cfg, [single_user])
        l, _ = snr_coeffs(qos, single_user.arrival_rate, cfg)
        eb = effective_bandwidth(single_user.arrival_rate, qos.eps_q,
                                 qos.queue_delay_frames)
        assert l == pytest.approx(
            eb * cfg.packet_bits * LN2 / cfg.dl_fraction, rel=1e-12)

    def test_unit_rate_l(self):
        # one packet/frame, 160 bits, 0.05 ms of DL time
        assert 160 * LN2 / 0.5e-4 == pytest.approx(2.2181e6, rel=1e-4)

    def test_v_reference(self, cfg, single_user):
        qos = validate_config(cfg, [single_user])
        _, v = snr_coeffs(dataclasses.replace(qos, eps_c=1e-7),
                          single_user.arrival_rate, cfg)
        assert v == pytest.approx(735.30, rel=1e-4)

    def test_v_vanishes_at_half(self, cfg, single_user):
        qos = validate_config(cfg, [single_user])
        _, v = snr_coeffs(dataclasses.replace(qos, eps_c=0.5),
                          single_user.arrival_rate, cfg)
        assert v == 0.0

    def test_coeff_invariants(self):
        with pytest.raises(ValueError):
            find_bandwidth_minimizer(YFunction(l=-1.0, v=0.0, alpha=1.0))
        with pytest.raises(ValueError):
            find_bandwidth_minimizer(YFunction(l=1.0, v=-1.0, alpha=1.0))


class TestRequiredSnr:
    def test_vanishes_at_wide_bandwidth(self):
        c = (2.2181e6, 735.30)
        assert required_snr(1e20, *c) == pytest.approx(0.0, abs=1e-7)

    def test_reference_point(self):
        c = (160 * LN2 / 0.5e-4, inv_gaussian_q(1e-7) / math.sqrt(0.5e-4))
        assert required_snr(7.42e6, *c) == pytest.approx(0.7663, rel=1e-4)

    def test_unit_snr_when_exponent_is_ln2(self):
        c = (1e6, 0.0)
        assert required_snr(1e6 / LN2, *c) == pytest.approx(1.0, rel=1e-12)

    def test_strictly_decreasing_in_bandwidth(self):
        c = (2.2181e6, 735.30)
        vals = [required_snr(w, *c) for w in np.logspace(5.5, 8, 60)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive_bandwidth(self):
        c = (1.0, 0.0)
        with pytest.raises(ValueError):
            required_snr(0.0, *c)
