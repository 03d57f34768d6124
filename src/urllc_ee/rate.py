"""Short-packet achievable rate and the coefficients of the QoS-required SNR.

The rate model is the normal approximation for finite-blocklength coding:
Shannon term minus a dispersion penalty scaled by the inverse Gaussian
Q-function of the decoding-error target, taken from the stdlib's normal
quantile (``statistics.NormalDist.inv_cdf``).  ``snr_coeffs`` folds the
queueing constraint (service rate >= effective bandwidth) into the pair
(l, v), l in Hz and v in Hz^1/2, so that downstream optimization only ever
sees gamma(W) = exp(l/W + v/sqrt(W)) - 1; eps_c lies in (0, 1/2), so v > 0.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from .model import ConfigError, QosBudget, SystemConfig
from .traffic import effective_bandwidth

LN2 = math.log(2.0)
_QUANTILE = NormalDist().inv_cdf


def inv_gaussian_q(p: float) -> float:
    """Inverse of the upper-tail standard normal probability Q.

    Returns x with Q(x) = p for any p in the open interval (0, 1),
    subnormal p included.  Q(x) = Phi(-x), so x is minus the standard
    normal quantile, which the stdlib's ``NormalDist.inv_cdf`` computes by
    Wichura's AS241 on both tails (relative error below 1e-15 against
    mpmath, see the tests).
    """
    if not (0.0 < p < 1.0):
        raise ValueError("probability must lie strictly in (0, 1)")
    return -_QUANTILE(p)


def channel_dispersion(snr: float) -> float:
    """Dispersion V = 1 - 1/(1+snr)^2 of the AWGN coding penalty."""
    if snr < 0:
        raise ValueError("snr must be non-negative")
    if math.isinf(snr):
        return 1.0
    return snr * (2.0 + snr) / ((1.0 + snr) * (1.0 + snr))


def achievable_rate(tx_power: float, bandwidth: float, alpha: float, g: float,
                    eps_c: float, cfg: SystemConfig) -> float:
    """Finite-blocklength achievable rate in packets/frame.

    May be negative for tiny SNR; callers decide whether that means "drop"
    (the simulator clamps at zero, this function does not).
    """
    if tx_power <= 0 or bandwidth <= 0 or alpha <= 0 or g <= 0:
        raise ValueError("tx_power, bandwidth, alpha and g must be positive")
    if not (0.0 < eps_c <= 0.5):
        raise ValueError("eps_c must be in (0, 1/2]")
    snr = alpha * tx_power * g / (cfg.noise_psd * bandwidth)
    blocklength = cfg.dl_fraction * bandwidth
    disp = channel_dispersion(snr)
    penalty = math.sqrt(disp / blocklength) * inv_gaussian_q(eps_c)
    return (blocklength / (cfg.packet_bits * LN2)) * (math.log1p(snr) - penalty)


def snr_coeffs(qos: QosBudget, lam: float,
               cfg: SystemConfig) -> tuple[float, float]:
    """Required-SNR coefficients (l, v) for one user.

    ``lam`` is the aggregate arrival rate in packets/frame.  l (Hz) equals
    (effective bandwidth) * u * ln2 / phi and v (Hz^1/2) equals
    Qinv(eps_c)/sqrt(phi), with eps_c in (0, 1/2) and eps_q from ``qos``.
    """
    eb = effective_bandwidth(lam, qos.eps_q, qos.queue_delay_frames)
    if not eb > 0.0:
        raise ConfigError(f"arrival rate {lam:.3g} packets/frame is too "
                          "small: its effective bandwidth underflows to 0")
    return _coeffs_at_rate(eb, qos.eps_c, cfg)


def _coeffs_at_rate(service_rate: float, eps_c: float,
                    cfg: SystemConfig) -> tuple[float, float]:
    """Coefficients (l, v) at a rate in packets/frame; eps_c in (0, 1/2)."""
    if not 0.0 < eps_c < 0.5:
        raise ConfigError(f"eps_c {eps_c} outside (0, 0.5)")
    l = service_rate * cfg.packet_bits * LN2 / cfg.dl_fraction
    return l, inv_gaussian_q(eps_c) / math.sqrt(cfg.dl_fraction)
