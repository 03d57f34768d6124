"""The proactive-dropping bound, its gain threshold, and mean power.

With maximum-ratio transmission over n antennas the effective channel gain
is Gamma(n, 1) distributed.  Packets are dropped proactively whenever the
gain falls below a threshold g_th chosen so that a closed-form upper bound
F on the dropping probability equals the dropping budget.  The same
threshold yields the average transmit power of the channel-inversion policy
in closed form.

Every monotone root in the package, here and in the allocator, is bracketed
by ``_grow`` and found by ``_bisect``, both defined below.

F needs the regularized incomplete gamma P(a, x) at integer a.  Where
cephes (Moshier, *Methods and Programs for Mathematical Functions*, 1989),
the library behind ``scipy.special.gammainc``, sums the power series, so
do ``_lgam`` and ``_igam`` here, in the same float operations; elsewhere
(x >= 0.6 a) the call goes to scipy, imported on first use.  The values
are the same bits either way.  The threshold search needs scipy only where
the threshold itself lies past 0.59 (n - 1) (see ``_threshold_bound``):
from n = 83 at a budget of 1e-7, n = 10 at 1e-2 and n = 2 at 0.3.  No
command on default inputs gets there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .model import SystemConfig

# cephes lgam's Stirling-series coefficients, in powers of 1/a^2, and
# log(sqrt(2 pi)); igam's underflow limit log(DBL_MAX) and epsilon 2^-53.
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)
_LS2PI = 0.91893853320467274178
_MAXLOG = 7.09782712893383996843E2
_MACHEP = 1.11022302462515654042E-16


def _lgam(a: int) -> float:
    """log Gamma(a) for an integer a >= 1, as cephes ``lgam`` computes it."""
    if a < 13:
        # the product (a-1)(a-2)...2 that cephes forms is exact below 13
        return math.log(math.factorial(a - 1))
    x = float(a)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    s = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        s = s * p + c
    return q + s / x


def _igam(a: int, x: float) -> float:
    """P(a, x) by cephes ``igam_series`` with ``igam_fac``'s log-space
    prefactor: scipy's own bits wherever cephes takes this branch, that is
    0 < x < a with |a - x| > 0.4 a."""
    ax = a * math.log(x) - x - _lgam(a)
    if ax < -_MAXLOG:
        return 0.0
    ax = math.exp(ax)
    r = a
    c = ans = 1.0
    for _ in range(2000):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


def _gammainc(a: int, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x), bit for bit
    ``scipy.special.gammainc``; scipy itself serves x >= 0.6 a."""
    if 0.0 < x < a and abs(a - x) > 0.4 * a:
        return _igam(a, x)
    from scipy.special import gammainc
    return float(gammainc(a, x))


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
    return _gammainc(m, g_th) - (m / g_th) * _gammainc(m + 1, g_th)


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
    key = (n, eps_target)
    hi = _grow(_threshold_bound, key, eps_target, 1e-9, 2.0)
    g_th = _bisect(_threshold_bound, key, eps_target, 0.0, hi, 1e-14)
    return GainThreshold(g_th=g_th, antennas=n, eps_target=eps_target)


def _threshold_bound(g_th: float, key: tuple[int, float]) -> float:
    """F(g_th, n) as far as the threshold search needs it, key = (n, eps).

    The search only asks whether F < eps.  F rises with g_th, so once
    F(e) >= 2 eps at e = 0.59 (n - 1), just inside the series region, F is
    at least eps for every g_th >= e, and F(e) answers for them: the gammas
    past x = 0.6 a, which scipy serves, are then only needed where the
    threshold itself lies past e.  The factor 2 covers the rounding of both
    values many times over: F(e) underflows to 0 from n of about 6000 on,
    long before either value loses accuracy.
    """
    n, eps = key
    edge = 0.59 * (n - 1)
    if g_th >= edge:
        floor = drop_bound_F(edge, n)
        if floor >= 2.0 * eps:
            return floor
    return drop_bound_F(g_th, n)


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
