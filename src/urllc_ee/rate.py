"""Short-packet achievable rate and the coefficients of the QoS-required SNR.

The rate model is the normal approximation for finite-blocklength coding:
Shannon term minus a dispersion penalty scaled by the inverse Gaussian
Q-function of the decoding-error target.  ``snr_coeffs`` folds the
queueing constraint (service rate >= effective bandwidth) into the pair
(l, v), l in Hz and v in Hz^1/2, so that downstream optimization only ever
sees gamma(W) = exp(l/W + v/sqrt(W)) - 1.
"""

from __future__ import annotations

import math

from .model import ConfigError, QosBudget, SystemConfig
from .traffic import effective_bandwidth

LN2 = math.log(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Rational approximation for the standard normal quantile (relative error
# ~1.15e-9), then polished with one Halley step against math.erfc.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _norm_quantile_raw(p: float) -> float:
    # lower tail and central region only: inv_gaussian_q passes p < 0.5
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q
                  + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r
              + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r
                + _B[4]) * r + 1.0))


def _norm_quantile(p: float) -> float:
    x = _norm_quantile_raw(p)
    # Halley refinement: e is the CDF residual, phi the density.
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * _SQRT_2PI * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def inv_gaussian_q(p: float) -> float:
    """Inverse of the upper-tail standard normal probability Q.

    Returns x with Q(x) = p.  Accurate to better than 1e-10 relative over
    p in [1e-12, 1 - 1e-12].
    """
    if not (0.0 < p < 1.0):
        raise ValueError("probability must lie strictly in (0, 1)")
    if p == 0.5:
        return 0.0
    # Q(x) = Phi(-x); evaluating at the small tail avoids 1-p cancellation.
    if p <= 0.5:
        return -_norm_quantile(p)
    return _norm_quantile(1.0 - p)


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
    Qinv(eps_c)/sqrt(phi), with eps_c and eps_q from ``qos``.
    """
    if not (0.0 < qos.eps_c < 1.0 and 0.0 < qos.eps_q < 1.0):
        raise ValueError("probabilities must lie in (0, 1)")
    if lam <= 0:
        raise ValueError("arrival rate must be positive")
    eb = effective_bandwidth(lam, qos.eps_q, qos.queue_delay_frames)
    if not eb > 0.0:
        raise ConfigError(f"arrival rate {lam:.3g} packets/frame is too "
                          "small: its effective bandwidth underflows to 0")
    return _coeffs_at_rate(eb, qos.eps_c, cfg)


def _coeffs_at_rate(service_rate: float, eps_c: float,
                    cfg: SystemConfig) -> tuple[float, float]:
    """Required-SNR coefficients (l, v) at a constant rate in packets/frame."""
    l = service_rate * cfg.packet_bits * LN2 / cfg.dl_fraction
    v = inv_gaussian_q(eps_c) / math.sqrt(cfg.dl_fraction) if eps_c < 0.5 else 0.0
    return l, v
