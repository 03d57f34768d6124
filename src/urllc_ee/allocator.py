"""Global-optimal bandwidth, power-cap and antenna-count allocation.

The per-user objective kernel is y(W) = W * gamma(W) with
gamma(W) = exp(l/W + v/sqrt(W)) - 1: average transmit power is proportional
to sum_k y_k(W_k)/alpha_k.  y is not convex, but it falls then rises with a
unique minimizer W_th and is strictly convex left of W_th, which makes the
bandwidth problem solvable to global optimality by bisection:

* bandwidth-rich: every user simply gets its own minimizer W_th;
* bandwidth-limited: the equality-constrained convex program is solved by
  bisecting the shared multiplier nu, with an inner bisection per user on
  y'(W)/alpha = -nu over (0, W_th].

Every root here (W_th, nu and each W_k) is bracketed by ``fading._grow``
and bisected by ``fading._bisect``, as is the gain threshold; each call
site keeps its own relative tolerance.  The inner bisections of the
bandwidth-limited case run in ``_NuSplit``, which takes the same midpoints
and comparisons with far fewer y' evaluations, so it returns the same bits:

* path replay: each inner bisection is a fixed tree of midpoints for a
  given start bracket, so a user's last walk is stored and a new target
  re-evaluates y' only past the node where its branches differ;
* early decision: each outer step only asks whether sum W_k(nu) exceeds
  the budget, and each W_k lies inside its current bracket, so the
  brackets are refined only until their ends settle that question with a
  margin for the rounding of the sums; otherwise every inner bisection
  runs to its end and the sum itself decides;
* halving ladder: a user keeps y' at W_th/2, W_th/4, ..., so a binary
  search finds where a new target's start bracket begins.

Given the optimal bandwidths, the best antenna count balances the 1/(n-1)
transmit-power scaling against per-antenna circuit power in closed form
(held to the antenna cap), and per-user power caps follow from the
dropping threshold.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass

from .fading import _bisect, _grow, mean_tx_power, solve_gain_threshold
from .model import (Allocation, ConfigError, PowerInfeasibleError,
                    QosBudget, QosInfeasibleError, SystemConfig,
                    UserProfile, validate_config)
from .rate import snr_coeffs

# expm1/exp overflow near 709.8; stop a margin early and report infeasible.
MAX_EXPONENT = 700.0

CASE_SUFFICIENT = "SufficientBandwidth"
CASE_LIMITED = "BandwidthLimited"

# The most antennas a solve may use.
ANTENNA_CAP = 512


@dataclass(frozen=True)
class YFunction:
    """Objective kernel for one user: the required-SNR coefficients (l, v)
    of ``rate.snr_coeffs`` plus the large-scale gain alpha that weights the
    user in the power objective."""

    l: float
    v: float
    alpha: float


@dataclass
class BandwidthSolution:
    """Optimal per-user bandwidths, the SNR targets they need, and the KKT
    certificate."""

    bandwidths: list[float]
    snr_targets: list[float]
    case_tag: str
    objective: float
    kkt_multiplier: float
    kkt_residual: float = 0.0


def _exponent(w: float, f: YFunction) -> float:
    return f.l / w + f.v / math.sqrt(w)


def _checked_exponent(w: float, f: YFunction) -> float:
    """l/W + v/sqrt(W) for W > 0, with overflow reported as infeasible QoS."""
    if w <= 0:
        raise ValueError("bandwidth must be positive")
    e = _exponent(w, f)
    if e > MAX_EXPONENT:
        raise QosInfeasibleError(
            f"required-SNR exponent {e:.1f} overflows at W={w:.6g} Hz")
    return e


def _snr_target(w: float, f: YFunction) -> float:
    """gamma(W) = exp(l/W + v/sqrt(W)) - 1, overflow reported as infeasible
    QoS (a bare expm1 would raise OverflowError)."""
    return math.expm1(_checked_exponent(w, f))


def _y_prime_clamped(w: float, f: YFunction) -> float:
    """y'(W), returning -inf instead of overflowing for tiny W.

    Valid because once the exponent exceeds MAX_EXPONENT the prefactor
    1 - l/W - v/(2 sqrt(W)) is deeply negative, so the true y' is a huge
    negative number.
    """
    e = _exponent(w, f)
    if e > MAX_EXPONENT:
        return -math.inf
    sw = math.sqrt(w)
    return (1.0 - f.l / w - f.v / (2.0 * sw)) * math.exp(e) - 1.0


def find_bandwidth_minimizer(f: YFunction) -> float:
    """Unique minimizer W_th of y, by sign bisection on y'.

    Starts the bracket at W = l, where y' < 0 is guaranteed, and doubles
    while y' < 0.  With v = 0 the kernel decreases monotonically towards its
    asymptote and has no finite minimizer; +inf is returned as a sentinel,
    and also for a minimizer past the float range.
    W_th does not depend on alpha, and it is memoized on (l, v).
    """
    if not f.l > 0:
        raise ValueError("l must be positive")
    if not f.v >= 0:
        raise ValueError("v must be non-negative")
    if f.v == 0.0:
        return math.inf
    return _minimizer(f.l, f.v)


# The public function stays plain, so a tracer that wraps it sees every call.
@functools.lru_cache(maxsize=1024, typed=True)
def _minimizer(l: float, v: float) -> float:
    f = YFunction(l, v, 1.0)
    # y'(l) < 0, so hi >= 2 l and y' is still negative at hi / 2.
    hi = _grow(_y_prime_clamped, f, 0.0, l, 2.0)
    return _bisect(_y_prime_clamped, f, 0.0, 0.5 * hi, hi, 1e-11)


# Relative slack on a total of bracket ends.  Python's float sum of K
# positive terms is off by at most (K-1) u times their exact total, with
# u = 2**-53 (Rump 2012; the compensated sum of Python 3.12 does better).
# The slack covers that bound twice, once for the sum being predicted and
# once for the sum of the ends, plus the rounding of the comparison itself.
_SLACK_PER_USER = 4.0 * 2.0 ** -53


def _ladder_rung(xs: list[float], negs: list[float], f: YFunction,
                 hi: float, target: float) -> float:
    """``_grow(-y', f, target, hi / 2, 1 / 2)`` read off the rungs hi 2**-j
    in ``xs`` and the running max of -y' over them in ``negs``, which first
    reaches target where -y' does.  Rung 0, hi with max -inf, keys them."""
    if not xs or xs[0] != hi:
        xs[:], negs[:] = [hi], [-math.inf]
    x, neg = xs[-1], negs[-1]
    while neg < target:
        x *= 0.5
        neg = max(neg, -_y_prime_clamped(x, f))
        xs.append(x)
        negs.append(neg)
    return xs[bisect_left(negs, target)]


class _NuSplit:
    """W_k(nu), the root of y_k'(W)/alpha_k = -nu on (0, W_th,k], for every
    user: the bracket search and bisection of ``fading._grow`` and
    ``fading._bisect`` (relative stop 1e-13), with three exact shortcuts.

    Path replay: from a fixed start bracket the bisection is a fixed tree
    of midpoints, and a target takes the branch y'(mid) < target at each.
    Each user keeps its last walk: per node the bracket it halves and
    y'(mid), and per branch taken the running bounds max y' (branches up)
    and min y' (branches down) that a target must lie between to follow
    the walk that far.  Both bounds are monotone along the walk, so two
    binary searches find the node where a new target turns off, and y' is
    called only past it.  A new start bracket drops the walk.

    Halving ladder: each user keeps y' at W_th / 2, W_th / 4, ..., where its
    start brackets begin, and ``_ladder_rung`` reads a lower end off them.

    Early decision: the outer bisection needs only whether sum(W_k(nu))
    exceeds w_max, and each W_k lies inside its user's current bracket.
    So ``over`` refines the brackets in lock step only until the totals of
    their ends settle that comparison, with a slack that covers the
    rounding of both sums.  If they never do, every bisection runs to its
    end and the sum itself is compared, exactly as for a full split.
    """

    def __init__(self, users: list[YFunction], w_ths: list[float],
                 w_max: float):
        self.users = users
        self.w_ths = w_ths
        self.w_max = w_max
        self.slack = (len(users) + 1) * _SLACK_PER_USER
        # per user: its ladder's rungs and running max of -y'; per node of
        # the last walk its bracket ends and y'; per branch the running max
        # of y' over branches up and of -y' over branches down
        self.paths = [([], [], [], [], [], [], []) for _ in users]

    def over(self, nu: float) -> bool:
        """sum(self.solve(nu)) > w_max, mostly without finishing solve."""
        return self._walk(nu, True)

    def solve(self, nu: float) -> list[float]:
        """Every user's W_k(nu), bit for bit the plain bisection's."""
        return self._walk(nu, False)

    def _walk(self, nu: float, early: bool):
        los, his, targets, depths, active = [], [], [], [], []
        for i, (f, w_th, path) in enumerate(zip(self.users, self.w_ths,
                                                self.paths)):
            t = -nu * f.alpha
            lo = hi = w_th
            d = 0
            if not t >= 0.0:
                xs, negs, lows, highs, ys, up_max, down_max = path
                if math.isinf(hi):
                    # v = 0 or W_th past the float range: y' < 0 rises to
                    # 0-, and a root past the range ends at the largest float
                    hi = min(_grow(_y_prime_clamped, f, t, f.l, 2.0),
                             sys.float_info.max)
                lo = _ladder_rung(xs, negs, f, hi, -t)
                if not (lows and lows[0] == lo and highs[0] == hi):
                    for part in path[2:]:
                        part.clear()
                else:
                    # start at the first node where t leaves the stored
                    # branches, or at the last node
                    d = min(bisect_left(up_max, t),
                            bisect_right(down_max, -t))
                    lo = lows[d]
                    hi = highs[d]
                active.append(i)
            los.append(lo)
            his.append(hi)
            targets.append(t)
            depths.append(d)

        w_max = self.w_max
        while active:
            if early:
                if sum(los) * (1.0 - self.slack) > w_max:
                    return True
                if sum(his) * (1.0 + self.slack) <= w_max:
                    return False
            running = []
            for i in active:
                lo = los[i]
                hi = his[i]
                t = targets[i]
                d = depths[i]
                mid = 0.5 * lo + 0.5 * hi
                _, _, lows, highs, ys, up_max, down_max = self.paths[i]
                if d < len(ys) and lows[d] == lo and highs[d] == hi:
                    y = ys[d]
                else:
                    y = _y_prime_clamped(mid, self.users[i])
                    # stored nodes from d on lie off this walk
                    del lows[d:], highs[d:], ys[d:]
                    if d:
                        # the branch into this node, taken at node d - 1
                        del up_max[d - 1:], down_max[d - 1:]
                        a = up_max[-1] if up_max else -math.inf
                        b = down_max[-1] if down_max else -math.inf
                        y_prev = ys[-1]
                        if y_prev < t:
                            a = y_prev if y_prev > a else a
                        elif -y_prev > b:
                            b = -y_prev
                        up_max.append(a)
                        down_max.append(b)
                    lows.append(lo)
                    highs.append(hi)
                    ys.append(y)
                if y < t:
                    lo = mid
                else:
                    hi = mid
                d += 1
                if hi - lo <= 1e-13 * hi or d == 200:
                    lo = hi = 0.5 * lo + 0.5 * hi
                else:
                    running.append(i)
                los[i] = lo
                his[i] = hi
                depths[i] = d
            active = running
        return sum(los) > w_max if early else los


def _budget_sign(nu: float, split: _NuSplit) -> float:
    """-1 while the bandwidths at nu overrun the budget, +1 once they fit:
    a step that rises with nu, for the shared bracket and bisection."""
    return -1.0 if split.over(nu) else 1.0


def _targets(ws: list[float], users: list[YFunction]
             ) -> tuple[list[float], float]:
    """Each user's SNR target at ``ws`` and the objective
    sum_k W_k gamma_k / alpha_k, which is sum_k y_k(W_k) / alpha_k."""
    gammas = [_snr_target(w, f) for w, f in zip(ws, users)]
    return gammas, sum(w * g / f.alpha for w, g, f in zip(ws, gammas, users))


def allocate_bandwidth(users: list[YFunction], w_max: float) -> BandwidthSolution:
    """Globally optimal bandwidth split minimizing sum_k y_k(W_k)/alpha_k.

    Raises QosInfeasibleError when even an even split W_max/K overflows the
    required-SNR exponent for some user, or the split leaves the float range.
    """
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

    # Outer bisection on the equality multiplier: sum W_k(nu) falls
    # monotonically from sum W_th (> w_max at nu=0) towards 0.
    split = _NuSplit(users, w_ths, w_max)
    w_small = w_max / (10.0 * k)
    seed = max((-_y_prime_clamped(w_small, f) / f.alpha for f in users),
               default=1.0)
    nu_hi = seed if math.isfinite(seed) and seed > 0 else 1.0
    nu_hi = _grow(_budget_sign, split, 0.0, nu_hi, 2.0)
    nu = _bisect(_budget_sign, split, 0.0, 0.0, nu_hi, 1e-14)
    ws = split.solve(nu)
    gammas, obj = _targets(ws, users)
    if not math.isfinite(obj):  # also where a bandwidth is not finite
        raise QosInfeasibleError("the bandwidth split leaves the float range")
    stat = max(abs(_y_prime_clamped(w, f) / f.alpha + nu) / nu
               for w, f in zip(ws, users))
    balance = abs(sum(ws) - w_max) / w_max
    return BandwidthSolution(bandwidths=ws, snr_targets=gammas,
                             case_tag=CASE_LIMITED, objective=obj,
                             kkt_multiplier=nu,
                             kkt_residual=max(stat, balance))


def optimal_antennas(weighted_y: float, cfg: SystemConfig,
                     eps_h: float) -> int:
    """Antenna count minimizing mean total power for a given bandwidth split.

    Ceiling of the positive root of the circuit-vs-transmit tradeoff,
    clamped to the minimum of 2 the power model requires.  A root that is
    not finite or lies past ``ANTENNA_CAP`` (a tiny amplifier efficiency
    times circuit power) gives ``ANTENNA_CAP``: mean total power is convex
    in the count, so the cap is then the best count within it.
    """
    if weighted_y < 0:
        raise ValueError("weighted_y must be non-negative")
    load = 4.0 * cfg.noise_psd * (1.0 - eps_h) * weighted_y
    den = cfg.amplifier_efficiency * cfg.circuit_power_per_antenna
    root = 0.5 * (1.0 + math.sqrt(1.0 + load / den)) if den > 0 else math.inf
    if not root <= ANTENNA_CAP:
        return ANTENNA_CAP
    return max(2, math.ceil(root))


def power_thresholds(sol: BandwidthSolution, n: int, cfg: SystemConfig,
                     users: list[YFunction], eps_h: float
                     ) -> tuple[float, list[float]]:
    """Per-user transmit-power caps at antenna count ``n``.

    Returns (g_th, caps): the dropping threshold shared by every user and
    P_k = N0 W_k gamma_k / (alpha_k g_th), with gamma_k from
    ``sol.snr_targets``.
    """
    g_th = solve_gain_threshold(n, eps_h)
    caps = [cfg.noise_psd * w * gamma / (f.alpha * g_th)
            for w, gamma, f in zip(sol.bandwidths, sol.snr_targets, users)]
    return g_th, caps


def build_y_functions(cfg: SystemConfig, qos: QosBudget,
                      users: list[UserProfile]) -> list[YFunction]:
    """Objective kernels for a validated user list."""
    return [YFunction(*snr_coeffs(qos, usr.arrival_rate, cfg), alpha=usr.gain)
            for usr in users]


def mean_total_power(weighted_y: float, n: int, cfg: SystemConfig,
                     eps_h: float) -> float:
    """Mean total BS power at antenna count n for a fixed bandwidth split."""
    return (cfg.noise_psd * weighted_y * (1.0 - eps_h)
            / (cfg.amplifier_efficiency * (n - 1))
            + cfg.circuit_power_per_antenna * n + cfg.fixed_circuit_power)


# Solving one user set at several antenna counts, as the sweeps do, repeats
# this antenna-independent prologue; callers must not mutate what it returns.
@functools.lru_cache(maxsize=16, typed=True)
def _prologue(cfg: SystemConfig, users: tuple[UserProfile, ...],
              eps_h: float | None
              ) -> tuple[QosBudget, list[YFunction], BandwidthSolution]:
    """(qos, yfuncs, split): validation, objective kernels and the optimal
    bandwidth split of a solve, none of which depend on the antenna count."""
    qos = validate_config(cfg, users, eps_h=eps_h)
    yfuncs = build_y_functions(cfg, qos, users)
    return qos, yfuncs, allocate_bandwidth(yfuncs, cfg.total_bandwidth)


def solve_allocation(cfg: SystemConfig, users: list[UserProfile],
                     eps_h: float | None = None,
                     n_antennas: int | None = None) -> Allocation:
    """End-to-end solve: bandwidths, antenna count, power caps, mean power.

    The loss budget splits in equal thirds (``validate_config``); ``eps_h``
    replaces the dropping third, and the resolved budget is returned as
    ``extras["qos"]``.  With ``n_antennas`` set the antenna count is held
    fixed, in [2, ``ANTENNA_CAP``]; otherwise the count starts at its
    closed-form optimum and is incremented until the summed power caps fit
    the BS budget, up to ``ANTENNA_CAP``; a closed-form optimum past the cap
    starts the loop at the cap (see ``optimal_antennas``).  Deterministic:
    identical inputs give identical outputs bit for bit.  The validation,
    kernels and bandwidth split of a successful solve are memoized per
    (cfg, users, eps_h), so a user set solved at several antenna counts
    computes them once; a failing solve raises a new error each time.

    Raises:
        ConfigError: on invalid inputs, a fixed count out of range included.
        QosInfeasibleError: when the bandwidth budget cannot meet QoS.
        PowerInfeasibleError: when no allowed antenna count fits the power
            budget (fixed ``n_antennas``, or the cap is exceeded).
    """
    fixed = n_antennas is not None
    if fixed and not 2 <= n_antennas <= ANTENNA_CAP:
        raise ConfigError(f"antenna count {n_antennas} outside "
                          f"[2, {ANTENNA_CAP}]")
    qos, yfuncs, sol = _prologue(cfg, tuple(users), eps_h)
    n = n_antennas if fixed else optimal_antennas(sol.objective, cfg,
                                                  qos.eps_h)
    while True:
        g_th, caps = power_thresholds(sol, n, cfg, yfuncs, qos.eps_h)
        if sum(caps) <= cfg.max_bs_power:
            break
        if fixed:
            raise PowerInfeasibleError(
                f"fixed antenna count {n} needs {sum(caps):.3g} W of "
                f"power caps, budget is {cfg.max_bs_power:.3g} W")
        n += 1
        if n > ANTENNA_CAP:
            raise PowerInfeasibleError(
                f"transmit-power budget {cfg.max_bs_power:.3g} W not "
                f"reachable within {ANTENNA_CAP} antennas")

    mean_powers = [mean_tx_power(w, g, f.alpha, n, qos.eps_h, cfg)
                   for w, g, f in zip(sol.bandwidths, sol.snr_targets,
                                      yfuncs)]
    total = (sum(mean_powers) / cfg.amplifier_efficiency
             + cfg.circuit_power_per_antenna * n + cfg.fixed_circuit_power)
    delivered = (1.0 - cfg.loss_budget) * cfg.packet_bits * sum(
        u.arrival_rate for u in users) * cfg.frames_per_second()
    if not (math.isfinite(total) and math.isfinite(delivered)):
        raise ConfigError(f"mean total power ({total:.3g} W) or delivered "
                          f"bit rate ({delivered:.3g} bit/s) overflows")
    return Allocation(
        bandwidths=list(sol.bandwidths),
        snr_targets=list(sol.snr_targets),
        gain_thresholds=[g_th] * len(users),
        power_caps=caps,
        mean_tx_powers=mean_powers,
        antennas=n,
        mean_total_power=total,
        energy_efficiency=delivered / total,
        case_tag=sol.case_tag,
        kkt_multiplier=sol.kkt_multiplier,
        extras={"qos": asdict(qos)},
    )
