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

Every root here (W_th, nu, each W_k and the curvature witness) is bracketed
by ``fading._grow`` and bisected by ``fading._bisect``, as is the gain
threshold; each call site keeps its own relative tolerance.

Given the optimal bandwidths, the best antenna count balances the 1/(n-1)
transmit-power scaling against per-antenna circuit power in closed form, and
per-user power caps follow from the dropping threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fading import _bisect, _grow, mean_tx_power, solve_gain_threshold
from .model import (Allocation, ConfigError, PowerInfeasibleError,
                    QosBudget, QosInfeasibleError, SystemConfig,
                    UserProfile, validate_config)
from .rate import SnrRequirementCoeffs, required_snr, snr_coeffs

# expm1/exp overflow near 709.8; stop a margin early and report infeasible.
MAX_EXPONENT = 700.0

CASE_SUFFICIENT = "SufficientBandwidth"
CASE_LIMITED = "BandwidthLimited"


@dataclass(frozen=True)
class YFunction:
    """Objective kernel for one user: required-SNR coefficients plus the
    large-scale gain that weights the user in the power objective."""

    l: float
    v: float
    alpha: float

    @staticmethod
    def from_coeffs(coeffs: SnrRequirementCoeffs, alpha: float) -> "YFunction":
        return YFunction(l=coeffs.l, v=coeffs.v, alpha=alpha)


@dataclass
class BandwidthSolution:
    """Optimal per-user bandwidths with the KKT certificate."""

    bandwidths: list[float]
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


def _curvature(w: float, f: YFunction) -> float:
    """The curvature polynomial x(W) of sign_structure_witness; sign(y'')."""
    sw = math.sqrt(w)
    return -f.v * w * sw + f.v * f.v * w + 4.0 * f.l * f.v * sw + 4.0 * f.l * f.l


def _neg_curvature(w: float, f: YFunction) -> float:
    return -_curvature(w, f)


def y_value(w: float, f: YFunction) -> float:
    """y(W) = W * (exp(l/W + v/sqrt(W)) - 1)."""
    return w * math.expm1(_checked_exponent(w, f))


def y_derivatives(w: float, f: YFunction) -> tuple[float, float]:
    """First and second derivatives of y at W."""
    e = _checked_exponent(w, f)
    y2 = _curvature(w, f) * math.exp(e) / (4.0 * w ** 3)
    return _y_prime_clamped(w, f), y2


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


def _neg_y_prime(w: float, f: YFunction) -> float:
    return -_y_prime_clamped(w, f)


def _neg_total(nu: float, split) -> float:
    """-sum_k W_k(nu): the bandwidth total falls with nu, its negation rises."""
    return -sum(split(nu))


def find_bandwidth_minimizer(f: YFunction) -> float:
    """Unique minimizer W_th of y, by sign bisection on y'.

    Starts the bracket at W = l, where y' < 0 is guaranteed, and doubles
    while y' < 0.  With v = 0 the kernel decreases monotonically towards its
    asymptote and has no finite minimizer; +inf is returned as a sentinel.
    """
    if not f.l > 0:
        raise ValueError("l must be positive")
    if not f.v >= 0:
        raise ValueError("v must be non-negative")
    if f.v == 0.0:
        return math.inf
    # y'(l) < 0, so hi >= 2 l and y' is still negative at hi / 2.
    hi = _grow(_y_prime_clamped, f, 0.0, f.l, 2.0)
    return _bisect(_y_prime_clamped, f, 0.0, 0.5 * hi, hi, 1e-11)


def sign_structure_witness(f: YFunction) -> tuple[float, float]:
    """Return (W1, W0): the maximizer of the curvature polynomial
    x(W) = -v W^{3/2} + v^2 W + 4 l v sqrt(W) + 4 l^2 and its unique root
    above W1.  y'' is positive below W0 and negative above it; exposed for
    test instrumentation of that sign pattern.
    """
    if f.v <= 0:
        raise ValueError("witness undefined for v = 0 (y is globally convex)")
    # In t = sqrt(W), x' = 0 reduces to 3 t^2 - 2 v t - 4 l = 0.
    t_star = (f.v + math.sqrt(f.v * f.v + 12.0 * f.l)) / 3.0
    w1 = t_star * t_star
    # x falls past w1, so the bisection runs on -x.
    hi = _grow(_neg_curvature, f, 0.0, w1, 2.0)
    return w1, _bisect(_neg_curvature, f, 0.0, w1, hi, 1e-12)


def _root_of_y_prime(target: float, f: YFunction, w_th: float) -> float:
    """Solve y'(W) = target (target <= 0) on (0, w_th], where y' is strictly
    increasing from -inf to 0."""
    if target >= 0.0:
        return w_th
    hi = w_th
    if math.isinf(hi):
        # v = 0: y' rises towards 0-, so a finite right bracket always exists.
        hi = _grow(_y_prime_clamped, f, target, f.l, 2.0)
    lo = _grow(_neg_y_prime, f, -target, hi * 0.5, 0.5)
    return _bisect(_y_prime_clamped, f, target, lo, hi, 1e-13)


def allocate_bandwidth(users: list[YFunction], w_max: float) -> BandwidthSolution:
    """Globally optimal bandwidth split minimizing sum_k y_k(W_k)/alpha_k.

    Raises QosInfeasibleError when even an even split W_max/K overflows the
    required-SNR exponent for some user.
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
        obj = sum(y_value(w, f) / f.alpha for w, f in zip(w_ths, users))
        return BandwidthSolution(bandwidths=w_ths, case_tag=CASE_SUFFICIENT,
                                 objective=obj, kkt_multiplier=0.0)

    def split(nu: float) -> list[float]:
        return [_root_of_y_prime(-nu * f.alpha, f, wt)
                for f, wt in zip(users, w_ths)]

    # Outer bisection on the equality multiplier: sum W_k(nu) falls
    # monotonically from sum W_th (> w_max at nu=0) towards 0.
    w_small = w_max / (10.0 * k)
    seed = max((-_y_prime_clamped(w_small, f) / f.alpha for f in users),
               default=1.0)
    nu_hi = seed if math.isfinite(seed) and seed > 0 else 1.0
    nu_hi = _grow(_neg_total, split, -w_max, nu_hi, 2.0)
    nu = _bisect(_neg_total, split, -w_max, 0.0, nu_hi, 1e-14)
    ws = split(nu)
    obj = sum(y_value(w, f) / f.alpha for w, f in zip(ws, users))
    stat = max(abs(y_derivatives(w, f)[0] / f.alpha + nu) / nu
               for w, f in zip(ws, users))
    balance = abs(sum(ws) - w_max) / w_max
    return BandwidthSolution(bandwidths=ws, case_tag=CASE_LIMITED,
                             objective=obj, kkt_multiplier=nu,
                             kkt_residual=max(stat, balance))


def optimal_antennas(weighted_y: float, cfg: SystemConfig,
                     eps_h: float | None = None) -> int:
    """Antenna count minimizing mean total power for a given bandwidth split.

    Ceiling of the positive root of the circuit-vs-transmit tradeoff,
    clamped to the minimum of 2 the power model requires.
    """
    if weighted_y < 0:
        raise ValueError("weighted_y must be non-negative")
    eps = cfg.loss_budget / 3.0 if eps_h is None else eps_h
    arg = 1.0 + (4.0 * cfg.noise_psd * (1.0 - eps) * weighted_y
                 / (cfg.amplifier_efficiency * cfg.circuit_power_per_antenna))
    return max(2, math.ceil(0.5 * (1.0 + math.sqrt(arg))))


def power_thresholds(sol: BandwidthSolution, n: int, cfg: SystemConfig,
                     users: list[YFunction],
                     eps_h: float | None = None) -> tuple[float, list[float]]:
    """Per-user transmit-power caps at antenna count ``n``.

    Returns (g_th, caps): the dropping threshold shared by every user and
    P_k = N0 W_k gamma_k / (alpha_k g_th).
    """
    if n < 2:
        raise ValueError("antenna count must be at least 2")
    eps = cfg.loss_budget / 3.0 if eps_h is None else eps_h
    g_th = solve_gain_threshold(n, eps).g_th
    caps = []
    for w, f in zip(sol.bandwidths, users):
        gamma = required_snr(w, f)
        caps.append(cfg.noise_psd * w * gamma / (f.alpha * g_th))
    return g_th, caps


def build_y_functions(cfg: SystemConfig, qos: QosBudget,
                      users: list[UserProfile]) -> list[YFunction]:
    """Objective kernels for a validated user list."""
    out = []
    for usr in users:
        coeffs = snr_coeffs(qos.eps_c, qos.eps_q, usr.arrival_rate, cfg, qos)
        out.append(YFunction.from_coeffs(coeffs, usr.gain))
    return out


def mean_total_power(weighted_y: float, n: int, cfg: SystemConfig,
                     eps_h: float) -> float:
    """Mean total BS power at antenna count n for a fixed bandwidth split."""
    return (cfg.noise_psd * weighted_y * (1.0 - eps_h)
            / (cfg.amplifier_efficiency * (n - 1))
            + cfg.circuit_power_per_antenna * n + cfg.fixed_circuit_power)


def solve_allocation(cfg: SystemConfig, users: list[UserProfile],
                     eps_c: float | None = None, eps_q: float | None = None,
                     eps_h: float | None = None,
                     n_antennas: int | None = None,
                     antenna_cap: int = 512, *,
                     split: BandwidthSolution | None = None) -> Allocation:
    """End-to-end solve: bandwidths, antenna count, power caps, mean power.

    With ``n_antennas`` set the antenna count is held fixed (no feasibility
    loop); otherwise the count starts at its closed-form optimum and is
    incremented until the summed power caps fit the BS budget.  Deterministic:
    identical inputs give identical outputs bit for bit.

    The bandwidth split does not depend on the antenna count, so callers
    solving one user set at several counts may compute it once and pass it
    as ``split``; the solve then skips ``allocate_bandwidth`` and is
    otherwise unchanged.  The split must be
    ``allocate_bandwidth(build_y_functions(cfg, qos, users),
    cfg.total_bandwidth)`` for the same ``cfg``, ``users`` and eps values,
    with ``qos`` from ``validate_config``; nothing checks that it is.

    Raises:
        ConfigError: on invalid inputs.
        QosInfeasibleError: when the bandwidth budget cannot meet QoS.
        PowerInfeasibleError: when no allowed antenna count fits the power
            budget (fixed ``n_antennas``, or the cap is exceeded).
    """
    qos = validate_config(cfg, users, eps_c=eps_c, eps_q=eps_q, eps_h=eps_h)
    yfuncs = build_y_functions(cfg, qos, users)
    sol = (allocate_bandwidth(yfuncs, cfg.total_bandwidth) if split is None
           else split)
    weighted_y = sol.objective

    if n_antennas is None:
        n = optimal_antennas(weighted_y, cfg, qos.eps_h)
        while True:
            g_th, caps = power_thresholds(sol, n, cfg, yfuncs, qos.eps_h)
            if sum(caps) <= cfg.max_bs_power:
                break
            n += 1
            if n > antenna_cap:
                raise PowerInfeasibleError(
                    f"transmit-power budget {cfg.max_bs_power:.3g} W not "
                    f"reachable within {antenna_cap} antennas")
    else:
        if n_antennas < 2:
            raise ValueError("antenna count must be at least 2")
        n = n_antennas
        g_th, caps = power_thresholds(sol, n, cfg, yfuncs, qos.eps_h)
        if sum(caps) > cfg.max_bs_power:
            raise PowerInfeasibleError(
                f"fixed antenna count {n} needs {sum(caps):.3g} W of "
                f"power caps, budget is {cfg.max_bs_power:.3g} W")

    gammas = [required_snr(w, f) for w, f in zip(sol.bandwidths, yfuncs)]
    mean_powers = [mean_tx_power(w, g, f.alpha, n, qos.eps_h, cfg)
                   for w, g, f in zip(sol.bandwidths, gammas, yfuncs)]
    total = (sum(mean_powers) / cfg.amplifier_efficiency
             + cfg.circuit_power_per_antenna * n + cfg.fixed_circuit_power)
    delivered = (1.0 - cfg.loss_budget) * cfg.packet_bits * sum(
        u.arrival_rate for u in users) * cfg.frames_per_second()
    if not (math.isfinite(total) and math.isfinite(delivered)):
        raise ConfigError(f"mean total power ({total:.3g} W) or delivered "
                          f"bit rate ({delivered:.3g} bit/s) overflows")
    return Allocation(
        bandwidths=list(sol.bandwidths),
        snr_targets=gammas,
        gain_thresholds=[g_th] * len(users),
        power_caps=caps,
        mean_tx_powers=mean_powers,
        antennas=n,
        mean_total_power=total,
        energy_efficiency=delivered / total,
        case_tag=sol.case_tag,
        kkt_multiplier=sol.kkt_multiplier,
        extras={"weighted_y": weighted_y,
                "qos": {"queue_delay_frames": qos.queue_delay_frames,
                        "eps_c": qos.eps_c, "eps_q": qos.eps_q,
                        "eps_h": qos.eps_h}},
    )
