import numpy as np
import pytest

from urllc_ee import effective_bandwidth


class TestEffectiveBandwidth:
    def test_light_qos_recovers_mean_rate(self):
        # ln(1/eps) -> 0 collapses the formula to the arrival rate
        eb = effective_bandwidth(0.02, 1.0 - 1e-9, 8)
        assert eb == pytest.approx(0.02, rel=1e-6)

    def test_reference_operating_point(self):
        # 0.02 packets/frame, 1e-7 violation target, 8-frame bound
        eb = effective_bandwidth(0.02, 1e-7, 8)
        assert eb == pytest.approx(0.4359, rel=1e-4)
        assert eb == pytest.approx(0.43586906221519367, rel=1e-12)

    def test_heavy_aggregation_limit(self):
        # law of large numbers: huge aggregate rate needs almost no margin
        eb = effective_bandwidth(1e6, 1e-7, 8)
        assert eb == pytest.approx(1e6, rel=1e-4)

    def test_exceeds_mean_rate(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            lam = float(10 ** rng.uniform(-3, 5))
            eps = float(10 ** rng.uniform(-9, -0.05))
            d = int(rng.integers(1, 50))
            eb = effective_bandwidth(lam, eps, d)
            assert eb >= lam
            assert np.isfinite(eb)

    def test_decreasing_in_eps(self):
        vals = [effective_bandwidth(0.02, e, 8)
                for e in np.logspace(-9, -1, 30)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_delay(self):
        vals = [effective_bandwidth(0.02, 1e-7, d)
                for d in range(1, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_increasing_in_rate(self):
        vals = [effective_bandwidth(lam, 1e-7, 8)
                for lam in np.logspace(-3, 3, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_tail_exponent_identity(self):
        # the value is the service rate whose Chernoff/Lundberg exponent
        # theta satisfies exp(-theta * E * D) = eps_q for Poisson arrivals:
        # theta = ln(1 + L/(lam D)) must equal L/(E*D)
        rng = np.random.default_rng(3)
        for _ in range(100):
            lam = float(10 ** rng.uniform(-3, 3))
            eps = float(10 ** rng.uniform(-9, -0.5))
            d = int(rng.integers(1, 40))
            eb = effective_bandwidth(lam, eps, d)
            big_l = -np.log(eps)
            theta = np.log1p(big_l / (lam * d))
            assert theta * eb * d == pytest.approx(big_l, rel=1e-12)
            # Lundberg root: the per-frame arrival MGF balances the service
            assert lam * np.expm1(theta) / theta == pytest.approx(
                eb, rel=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            effective_bandwidth(0.0, 1e-7, 8)
        with pytest.raises(ValueError):
            effective_bandwidth(0.02, 0.0, 8)
        with pytest.raises(ValueError):
            effective_bandwidth(0.02, 1.0, 8)
        with pytest.raises(ValueError):
            effective_bandwidth(0.02, 1e-7, 0)

