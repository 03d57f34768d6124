"""Reference implementations that the package no longer carries.

Each function here is the plain, slow form of something ``urllc_ee``
computes faster.  The differential tests hold the fast form to ``==``
against it, so the two must take the same float operations in the same
order; only the amount of work may differ.
"""

from __future__ import annotations

import math

from urllc_ee import allocator
from urllc_ee.allocator import (CASE_LIMITED, CASE_SUFFICIENT, MAX_EXPONENT,
                                BandwidthSolution, YFunction,
                                _checked_exponent, _exponent,
                                find_bandwidth_minimizer, y_derivatives)
from urllc_ee.fading import _bisect, _grow
from urllc_ee.model import QosInfeasibleError


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
