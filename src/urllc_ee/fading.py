"""The proactive-dropping bound, its gain threshold, and mean power.

With maximum-ratio transmission over n antennas the effective channel gain
is Gamma(n, 1) distributed.  Packets are dropped proactively whenever the
gain falls below a threshold g_th chosen so that a closed-form upper bound
F on the dropping probability equals the dropping budget.  The same
threshold yields the average transmit power of the channel-inversion policy
in closed form.

Every monotone root in the package, here and in the allocator, is bracketed
by ``_grow`` and found by ``_bisect``, both defined below.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from scipy.special import gammainc

from .model import SystemConfig


def drop_bound_F(g_th: float, n: int) -> float:
    """Closed-form upper bound on the dropping probability at threshold g_th.

    Equals the integral of (1 - g/g_th) against the Gamma(n-1, 1) density
    over [0, g_th].  Written with regularized lower incomplete gamma terms,
    F = P(m, G) - (m/G) P(m+1, G) with m = n - 1, which avoids the
    catastrophic cancellation a literal truncated-series evaluation hits for
    small G and large n.
    """
    if g_th <= 0:
        raise ValueError("g_th must be positive")
    if n < 2:
        raise ValueError("antenna count must be at least 2")
    m = n - 1
    return float(gammainc(m, g_th) - (m / g_th) * gammainc(m + 1, g_th))


def _grow(fn, arg, target: float, x: float, factor: float) -> float:
    """Multiply x by ``factor`` while fn(x, arg) < target and return it, a
    bracket end for ``_bisect``; RuntimeError if 4000 steps never cross."""
    for _ in range(4000):
        if not fn(x, arg) < target:
            return x
        x *= factor
    raise RuntimeError("bracket search found no sign change")


def _bisect(fn, arg, target: float, lo: float, hi: float,
            rtol: float) -> float:
    """Midpoint of the bracket [lo, hi] after bisecting on fn(x, arg) < target.

    fn(., arg) must increase over the bracket: pass a decreasing function
    negated, with its target negated, which keeps each comparison exact.
    Stops once hi - lo <= rtol * hi, or after 200 halvings.  ``arg`` is
    positional rather than closed over: the per-user split makes millions
    of these calls, and a closure's extra call layer shows in a sweep.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid, arg) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * hi:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class GainThreshold:
    """Gain threshold solving drop_bound_F(g_th, antennas) = eps_target."""

    g_th: float
    antennas: int
    eps_target: float


def solve_gain_threshold(n: int, eps_target: float) -> GainThreshold:
    """Invert the dropping bound: find g_th with F(g_th, n) = eps_target.

    F is continuous, 0 at 0+ and increasing to 1, so bisection always
    terminates.  The bracket is tightened far beyond the 1e-3 relative
    tolerance the callers rely on.
    """
    if n < 2:
        raise ValueError("antenna count must be at least 2")
    if not (0.0 < eps_target < 1.0):
        raise ValueError("eps_target must lie strictly in (0, 1)")
    return _gain_threshold(n, eps_target)


# A sweep asks for the same few (n, eps) pairs hundreds of times.  The
# public solver stays a plain function that validates and then calls this.
@functools.lru_cache(maxsize=1024, typed=True)
def _gain_threshold(n: int, eps_target: float) -> GainThreshold:
    hi = _grow(drop_bound_F, n, eps_target, 1e-9, 2.0)
    g_th = _bisect(drop_bound_F, n, eps_target, 0.0, hi, 1e-14)
    return GainThreshold(g_th=g_th, antennas=n, eps_target=eps_target)


def mean_tx_power(bandwidth: float, gamma: float, alpha: float, n: int,
                  eps_target: float, cfg: SystemConfig) -> float:
    """Average transmit power of the channel-inversion policy, in watts.

    Closed form N0 * W * gamma * (1 - eps_target) / (alpha * (n - 1)), valid
    when the gain threshold is the root of F = eps_target.
    """
    if n < 2:
        raise ValueError("antenna count must be at least 2 (policy mean "
                         "diverges for a single antenna)")
    if bandwidth <= 0 or gamma <= 0 or alpha <= 0:
        raise ValueError("bandwidth, gamma and alpha must be positive")
    if not (0.0 < eps_target < 1.0):
        raise ValueError("eps_target must lie strictly in (0, 1)")
    return (cfg.noise_psd * bandwidth * gamma * (1.0 - eps_target)
            / (alpha * (n - 1)))
