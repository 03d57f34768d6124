"""The proactive-dropping bound, its gain threshold, and mean power.

With maximum-ratio transmission over n antennas the effective channel gain
is Gamma(n, 1) distributed.  Packets are dropped proactively whenever the
gain falls below a threshold g_th chosen so that a closed-form upper bound
F on the dropping probability equals the dropping budget.  The same
threshold yields the average transmit power of the channel-inversion policy
in closed form.

Every monotone root in the package, here and in the allocator, is bracketed
by ``_grow`` and found by ``_bisect``, both defined below.

F is summed from positive terms only, so nothing cancels: it lies within
1e-12 of a 40-digit reference for n <= 512, and g_th within 5e-14.
"""

from __future__ import annotations

import functools
import math

from .model import SystemConfig

# A series stops at a term this far below its running sum: its terms rise,
# then fall ever faster, so the rest is at the level of float rounding.
_TAIL = 2.0 ** -54


def drop_bound_F(g_th: float, n: int) -> float:
    """Closed-form upper bound on the dropping probability at threshold g_th.

    Equals the integral of (1 - g/g_th) against the Gamma(n-1, 1) density
    over [0, g_th], that is P(m, G) - (m/G) P(m+1, G) with m = n - 1 and
    G = g_th.  Expanding both incomplete gammas in the Poisson terms
    e^-G G^i / i! (DLMF 8.7.1) and subtracting term by term leaves
    positive terms only:

        G <= m:  F = sum over i >= m of e^-G G^i/i! (i+1-m)/(i+1),
        G > m:   F = (G-m)/G + (m/G) e^-G
                     + sum over i <= m-2 of e^-G G^i/i! (m-1-i)/(i+1).

    Each sum starts at its largest Poisson term, taken in log space, and
    runs away from the mode.  One upward sum for every G would underflow
    in its first term at large G: F(800, 2) would read 0, not 0.99875.
    """
    if not g_th > 0:
        raise ValueError("g_th must be positive")
    if n < 2:
        raise ValueError("antenna count must be at least 2")
    if g_th == math.inf:
        return 1.0
    m = n - 1
    if g_th <= m:
        first = m * math.log(g_th) - g_th - math.lgamma(m + 1)
        i, ratio, total = m, 1.0, 0.0
        while True:
            term = ratio * (i + 1 - m) / (i + 1)
            total += term
            if term <= _TAIL * total:
                return math.exp(first) * total
            i += 1
            ratio *= g_th / i
    head = (g_th - m) / g_th + m / g_th * math.exp(-g_th)
    if m < 2:
        return head
    first = (m - 2) * math.log(g_th) - g_th - math.lgamma(m - 1)
    ratio, total = 1.0, 0.0
    for i in range(m - 2, -1, -1):
        term = ratio * (m - 1 - i) / (i + 1)
        total += term
        if term <= _TAIL * total:
            break
        ratio *= i / g_th
    return head + math.exp(first) * total


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
    Stops once hi - lo <= rtol * hi, or after 200 halvings.  Each end is
    halved before the sum, so the midpoint of two ends near the largest
    float stays finite; where the halves are normal floats it is the float
    half the sum gives.  ``arg`` is positional rather than closed over, so
    that one ``fn(x, arg)`` signature serves ``_grow``, this bisection and
    the oracles in tests/oracles.py, which bracket and bisect with both.
    """
    for _ in range(200):
        mid = 0.5 * lo + 0.5 * hi
        if fn(mid, arg) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * hi:
            break
    return 0.5 * lo + 0.5 * hi


def solve_gain_threshold(n: int, eps_target: float) -> float:
    """Invert the dropping bound: the g_th with F(g_th, n) = eps_target.

    F is continuous, 0 at 0+ and increasing to 1, so bisection always
    terminates.  The bracket is tightened far beyond the 1e-3 relative
    tolerance the callers rely on.  ``drop_bound_F`` refuses an n below 2.
    """
    if not (0.0 < eps_target < 1.0):
        raise ValueError("eps_target must lie strictly in (0, 1)")
    return _gain_threshold(n, eps_target)


# A sweep asks for the same few (n, eps) pairs hundreds of times.  The
# public solver stays a plain function that validates and then calls this.
@functools.lru_cache(maxsize=1024, typed=True)
def _gain_threshold(n: int, eps_target: float) -> float:
    hi = _grow(drop_bound_F, n, eps_target, 1e-9, 2.0)
    return _bisect(drop_bound_F, n, eps_target, 0.0, hi, 1e-14)


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
