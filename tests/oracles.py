"""Reference implementations that the package no longer carries.

Each function here is the plain, slow form of something ``urllc_ee``
computes faster, or a quantity that only the tests evaluate.  The
differential tests hold the fast form to ``==`` against it, so the two must
take the same float operations in the same order; only the amount of work
may differ.  Where a reference shares a formula with the runtime, it calls
the runtime's private kernel, so the tests still exercise that kernel.
"""

from __future__ import annotations

import math
from unittest import mock

from scipy.integrate import quad
from scipy.special import gammainc

from urllc_ee import allocator, rate
from urllc_ee.allocator import (CASE_LIMITED, CASE_SUFFICIENT, MAX_EXPONENT,
                                BandwidthSolution, YFunction,
                                _checked_exponent, _exponent,
                                find_bandwidth_minimizer)
from urllc_ee.fading import _bisect, _grow
from urllc_ee.model import QosInfeasibleError


def gain_pdf(g: float, n: int) -> float:
    """Gamma(n, 1) density of the beamformed channel gain."""
    if g < 0:
        raise ValueError("gain must be non-negative")
    if n < 1:
        raise ValueError("antenna count must be at least 1")
    if g == 0.0:
        return 1.0 if n == 1 else 0.0
    # log form keeps large n stable
    return math.exp((n - 1) * math.log(g) - g - math.lgamma(n))


def gain_cdf(g: float, n: int) -> float:
    """Gamma(n, 1) CDF, i.e. the probability of a deep fade below ``g``."""
    if g < 0:
        raise ValueError("gain must be non-negative")
    return float(gammainc(n, g))


def drop_bound_F(g_th: float, n: int) -> float:
    """``fading.drop_bound_F`` with every incomplete gamma from scipy."""
    m = n - 1
    return float(gammainc(m, g_th) - (m / g_th) * gammainc(m + 1, g_th))


def gain_threshold(n: int, eps_target: float) -> float:
    """g_th by ``fading._gain_threshold``'s bracket and bisection, run on the
    scipy form of the dropping bound."""
    hi = _grow(drop_bound_F, n, eps_target, 1e-9, 2.0)
    return _bisect(drop_bound_F, n, eps_target, 0.0, hi, 1e-14)


def drop_prob_B(g_th: float, gamma: float, n: int) -> float:
    """Dropping-probability approximation via adaptive quadrature.

    Integrates [1 - ln(1 + g*gamma/g_th)/ln(1 + gamma)] f_n(g) over
    [0, g_th]; absolute error <= 1e-12.  Bounded above by drop_bound_F.
    """
    if g_th <= 0:
        raise ValueError("g_th must be positive")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if n < 2:
        raise ValueError("antenna count must be at least 2")
    log_den = math.log1p(gamma)

    def integrand(g: float) -> float:
        return (1.0 - math.log1p(g * gamma / g_th) / log_den) * gain_pdf(g, n)

    val, _ = quad(integrand, 0.0, g_th, epsabs=1e-13, epsrel=1e-11, limit=200)
    return max(0.0, float(val))


def required_snr(bandwidth: float, l: float, v: float) -> float:
    """gamma = exp(l/W + v/sqrt(W)) - 1: the allocator's SNR target."""
    return allocator._snr_target(bandwidth, YFunction(l=l, v=v, alpha=1.0))


def achievable_rate_max_dispersion(tx_power: float, bandwidth: float,
                                   alpha: float, g: float, eps_c: float,
                                   cfg) -> float:
    """``rate.achievable_rate`` with the dispersion pinned at its upper limit
    1, the conservative form behind the allocator's SNR targets."""
    with mock.patch.object(rate, "channel_dispersion", lambda snr: 1.0):
        return rate.achievable_rate(tx_power, bandwidth, alpha, g, eps_c, cfg)


def y_value(w: float, f: YFunction) -> float:
    """y(W) = W * (exp(l/W + v/sqrt(W)) - 1)."""
    return w * allocator._snr_target(w, f)


def _curvature(w: float, f: YFunction) -> float:
    """The curvature polynomial x(W) of sign_structure_witness; sign(y'')."""
    sw = math.sqrt(w)
    return -f.v * w * sw + f.v * f.v * w + 4.0 * f.l * f.v * sw + 4.0 * f.l * f.l


def _neg_curvature(w: float, f: YFunction) -> float:
    return -_curvature(w, f)


def y_derivatives(w: float, f: YFunction) -> tuple[float, float]:
    """First and second derivatives of y at W; the first is the allocator's
    own y'."""
    e = _checked_exponent(w, f)
    y2 = _curvature(w, f) * math.exp(e) / (4.0 * w ** 3)
    return _y_prime(w, f), y2


def sign_structure_witness(f: YFunction) -> tuple[float, float]:
    """Return (W1, W0): the maximizer of the curvature polynomial
    x(W) = -v W^{3/2} + v^2 W + 4 l v sqrt(W) + 4 l^2 and its unique root
    above W1.  y'' is positive below W0 and negative above it.
    """
    if f.v <= 0:
        raise ValueError("witness undefined for v = 0 (y is globally convex)")
    # In t = sqrt(W), x' = 0 reduces to 3 t^2 - 2 v t - 4 l = 0.
    t_star = (f.v + math.sqrt(f.v * f.v + 12.0 * f.l)) / 3.0
    w1 = t_star * t_star
    # x falls past w1, so the bisection runs on -x.
    hi = _grow(_neg_curvature, f, 0.0, w1, 2.0)
    return w1, _bisect(_neg_curvature, f, 0.0, w1, hi, 1e-12)


def _y_prime(w: float, f: YFunction) -> float:
    # looked up on every call, so a test can count the calls by patching it
    return allocator._y_prime_clamped(w, f)


def _neg_y_prime(w: float, f: YFunction) -> float:
    return -_y_prime(w, f)


def _root_of_y_prime(target: float, f: YFunction, w_th: float) -> float:
    """Solve y'(W) = target (target <= 0) on (0, w_th], where y' is strictly
    increasing from -inf to 0."""
    if target >= 0.0:
        return w_th
    hi = w_th
    if math.isinf(hi):
        # v = 0: y' rises towards 0-, so a finite right bracket always exists.
        hi = _grow(_y_prime, f, target, f.l, 2.0)
    lo = _grow(_neg_y_prime, f, -target, hi * 0.5, 0.5)
    return _bisect(_y_prime, f, target, lo, hi, 1e-13)


def _targets(ws: list[float], users: list[YFunction]):
    """SNR targets expm1(l/W + v/sqrt(W)) and the objective
    sum W gamma / alpha."""
    gammas = [math.expm1(_checked_exponent(w, f)) for w, f in zip(ws, users)]
    return gammas, sum(w * g / f.alpha for w, g, f in zip(ws, gammas, users))


def _neg_total(nu: float, split) -> float:
    """-sum_k W_k(nu): the bandwidth total falls with nu, its negation rises."""
    return -sum(split(nu))


def allocate_bandwidth(users: list[YFunction],
                       w_max: float) -> BandwidthSolution:
    """The bandwidth split with every outer step solving every user in full:
    one ``_root_of_y_prime`` per user per trial multiplier."""
    if not users:
        raise ValueError("at least one user is required")
    if w_max <= 0:
        raise ValueError("w_max must be positive")
    k = len(users)
    for f in users:
        if _exponent(w_max / k, f) > MAX_EXPONENT:
            raise QosInfeasibleError(
                f"bandwidth budget {w_max:.4g} Hz cannot satisfy the QoS of "
                f"{k} users (required-SNR exponent overflows)")

    w_ths = [find_bandwidth_minimizer(f) for f in users]
    if sum(w_ths) <= w_max:
        gammas, obj = _targets(w_ths, users)
        return BandwidthSolution(bandwidths=w_ths, snr_targets=gammas,
                                 case_tag=CASE_SUFFICIENT, objective=obj,
                                 kkt_multiplier=0.0)

    def split(nu: float) -> list[float]:
        return [_root_of_y_prime(-nu * f.alpha, f, wt)
                for f, wt in zip(users, w_ths)]

    w_small = w_max / (10.0 * k)
    seed = max((-_y_prime(w_small, f) / f.alpha for f in users), default=1.0)
    nu_hi = seed if math.isfinite(seed) and seed > 0 else 1.0
    nu_hi = _grow(_neg_total, split, -w_max, nu_hi, 2.0)
    nu = _bisect(_neg_total, split, -w_max, 0.0, nu_hi, 1e-14)
    ws = split(nu)
    gammas, obj = _targets(ws, users)
    stat = max(abs(y_derivatives(w, f)[0] / f.alpha + nu) / nu
               for w, f in zip(ws, users))
    balance = abs(sum(ws) - w_max) / w_max
    return BandwidthSolution(bandwidths=ws, snr_targets=gammas,
                             case_tag=CASE_LIMITED, objective=obj,
                             kkt_multiplier=nu,
                             kkt_residual=max(stat, balance))
