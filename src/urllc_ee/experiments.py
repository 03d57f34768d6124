"""Sweep and table protocols shared by the CLI and the acceptance suite.

Every function here is a pure, deterministic function of its arguments, so
re-running a sweep with identical inputs reproduces its output files byte
for byte (CSV provenance headers carry the config hash and seed, never a
timestamp).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from . import __version__
from .allocator import (ANTENNA_CAP, _prologue, find_bandwidth_minimizer,
                        mean_total_power, power_thresholds, solve_allocation,
                        YFunction)
from .config_io import load_config
from .model import (ConfigError, PowerInfeasibleError, QosInfeasibleError,
                    SystemConfig, UserProfile, path_loss_gain,
                    validate_config)
from .rate import _coeffs_at_rate
from .simulator import SimPolicy, run_simulation

PLACEMENT_NEAR_M = 50.0
PLACEMENT_FAR_M = 250.0
# Fewer drop events than this leave the dropping probability unresolved.
MIN_DROP_EVENTS = 30

EXPERIMENT_KINDS = ("solve", "simulate", "table_wth", "table_drop",
                    "sweep_antennas", "sweep_users")


def place_users(k: int, lam: float, scheme: str = "grid",
                seed: int = 1234) -> list[UserProfile]:
    """Deterministic placement of K users, each with arrival rate ``lam``
    (packets/frame), on the 50-250 m annulus.

    ``grid`` respreads K users evenly (midpoints of K equal sub-intervals);
    ``uniform`` draws user i's distance once per seed (memoized) from its own
    substream, so prefixes are stable: user i keeps its position as K grows.
    """
    if k < 1:
        raise ValueError("at least one user is required")
    span = PLACEMENT_FAR_M - PLACEMENT_NEAR_M
    if scheme == "grid":
        dists = [PLACEMENT_NEAR_M + span * (i + 0.5) / k for i in range(k)]
    elif scheme == "uniform":
        dists = [PLACEMENT_NEAR_M + span * _uniform_draw(seed, i)
                 for i in range(k)]
    else:
        raise ConfigError(f"unknown placement scheme {scheme!r}")
    return [UserProfile(lam, path_loss_gain(d)) for d in dists]


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _words(n: int) -> list[int]:
    """``n``'s little-endian uint32 words (0 gives ``[0]``), as numpy's
    SeedSequence splits an int; a float is a TypeError, a negative int a
    ValueError."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hasher(hc: int, mult: int):
    """SeedSequence's hash of a uint32, whose constant ``hc`` moves on by
    ``mult`` at every call."""
    def hashmix(v: int) -> int:
        nonlocal hc
        v ^= hc
        hc = hc * mult & _M32
        v = v * hc & _M32
        return v ^ v >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of a pool word ``x`` with a hashed word ``y``."""
    r = (0xca01f9dd * x - 0x4973f715 * y) & _M32
    return r ^ r >> 16


@functools.lru_cache(maxsize=1024, typed=True)
def _uniform_draw(seed: int, i: int) -> float:
    """``np.random.default_rng(np.random.SeedSequence(entropy=seed,
    spawn_key=(i,))).random()`` in integer arithmetic, without numpy: the
    SeedSequence pool of four words, PCG64 seeded from its state, and one
    XSL-RR output turned into a 53-bit double."""
    entropy = _words(seed)
    # a spawn key pads the entropy to the pool's four words
    entropy += [0] * (4 - len(entropy)) + _words(i)
    hashmix = _hasher(0x43b0d7e5, 0x931e8875)
    pool = [hashmix(v) for v in entropy[:4]]
    for s in range(4):
        for d in range(4):
            if s != d:
                pool[d] = _mix(pool[d], hashmix(pool[s]))
    for v in entropy[4:]:
        pool = [_mix(p, hashmix(v)) for p in pool]
    hashmix = _hasher(0x8b51f9dd, 0x58f38ded)
    w = [hashmix(p) for p in pool * 2]
    init = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
    inc = ((w[4] | w[5] << 32) << 65 | (w[6] | w[7] << 32) << 1 | 1) & _M128
    # srandom steps from 0 (to inc), adds init and steps; random() steps
    state = inc + init
    for _ in range(2):
        state = (state * 0x2360ED051FC65DA44385DF649FCCF645 + inc) & _M128
    x, rot = (state >> 64 ^ state) & _M64, state >> 122
    x = (x >> rot | x << 64 - rot) & _M64
    return (x >> 11) * 2.0 ** -53


# FIPS 180-4's initial hash value and round constants: 32 bits of the
# fractional parts of the first 8 primes' square roots and of the first 64
# primes' cube roots
_SHA_H = (0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
          0x9b05688c, 0x1f83d9ab, 0x5be0cd19)
_SHA_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2)


def _rotr(x: int, n: int) -> int:
    """The uint32 ``x`` rotated right by ``n`` bits."""
    return (x >> n | x << 32 - n) & _M32


def _sha256(data: bytes) -> str:
    """The hex SHA-256 digest of ``data`` (FIPS 180-4), computed without
    the OpenSSL binding, which a process that only solves need not load."""
    n = len(data)
    data = (data + b"\x80" + bytes(-(n + 9) % 64)
            + (8 * n).to_bytes(8, "big"))
    words = _SHA_H
    for i in range(0, len(data), 64):
        w = [int.from_bytes(data[j:j + 4], "big")
             for j in range(i, i + 64, 4)]
        for t in range(16, 64):
            u, v = w[t - 15], w[t - 2]
            w.append((w[t - 16] + w[t - 7]
                      + (_rotr(u, 7) ^ _rotr(u, 18) ^ u >> 3)
                      + (_rotr(v, 17) ^ _rotr(v, 19) ^ v >> 10)) & _M32)
        a, b, c, d, e, f, g, h = words
        for kt, wt in zip(_SHA_K, w):
            t1 = (h + kt + wt + (_rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25))
                  + (e & f ^ ~e & g))
            t2 = ((_rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22))
                  + (a & b ^ a & c ^ b & c))
            e, f, g, h = (d + t1) & _M32, e, f, g
            a, b, c, d = (t1 + t2) & _M32, a, b, c
        words = [(x + y) & _M32
                 for x, y in zip(words, (a, b, c, d, e, f, g, h))]
    return "".join(f"{x:08x}" for x in words)


def table_wth_rows(cfg: SystemConfig, eps_list: list[float],
                   service_rate: float = 1.0) -> list[tuple[float, float]]:
    """(eps_c, W_th in Hz) rows: the minimizer of the bandwidth-SNR kernel
    at a fixed nominal service rate (packets/frame), independent of any
    user's channel gain.  W_th grows like the rate to the 4/3, so a huge
    but finite rate overflows it: that is a ``ConfigError``."""
    rows = [(eps, find_bandwidth_minimizer(
                YFunction(*_coeffs_at_rate(service_rate, eps, cfg), 1.0)))
            for eps in eps_list]
    if not all(math.isfinite(w_th) for _, w_th in rows):
        raise ConfigError(f"W_th at service_rate {service_rate:g} "
                          "packets/frame is not finite")
    return rows


def antenna_sweep_rows(cfg: SystemConfig, users: list[UserProfile],
                       nt_values: list[int]):
    """Mean total power across antenna counts with the bandwidth split fixed.

    Returns (rows, locus): rows are (n_t, power_w, feasible) where
    feasibility means the per-user power caps fit the BS budget; the locus
    is (n_t*, power*) over the feasible rows.
    """
    qos, yfuncs, sol = _prologue(cfg, tuple(users), None)
    rows = []
    best = None
    for nt in nt_values:
        power = mean_total_power(sol.objective, nt, cfg, qos.eps_h)
        _, caps = power_thresholds(sol, nt, cfg, yfuncs, qos.eps_h)
        feasible = sum(caps) <= cfg.max_bs_power
        rows.append((nt, power, feasible))
        if feasible and (best is None or power < best[1]):
            best = (nt, power)
    return rows, best


def user_sweep_rows(cfg: SystemConfig, lam: float, k_values: list[int],
                    fixed_nts: list[int], scheme: str = "grid",
                    seed: int = 1234):
    """Joint-optimal EE and fixed-antenna EE per user count, each user
    placed with arrival rate ``lam``.

    Returns rows ``(k, ee_joint, {nt: ee or None})`` where None marks a
    fixed-antenna point whose power caps do not fit the BS budget.  The
    solves of one user set share its memoized bandwidth split.
    """
    rows = []
    for k in k_values:
        users = place_users(k, lam, scheme=scheme, seed=seed)
        try:
            joint = solve_allocation(cfg, users)
            ee_joint = joint.energy_efficiency
        except (QosInfeasibleError, PowerInfeasibleError):
            ee_joint = None
        fixed = {}
        for nt in fixed_nts:
            try:
                alloc = solve_allocation(cfg, users, n_antennas=nt)
                fixed[nt] = alloc.energy_efficiency
            except (QosInfeasibleError, PowerInfeasibleError):
                fixed[nt] = None
        rows.append((k, ee_joint, fixed))
    return rows


def drop_table_rows(cfg: SystemConfig, lam: float, eps_h_list: list[float],
                    frames: int, seed: int, streams: int = 8,
                    workers: int = 1, distance: float = 250.0):
    """Required-vs-achieved dropping probability, one simulation per target,
    of one user ``distance`` meters away with arrival rate ``lam``.

    Each row is a dict with the solved policy summary, the empirical
    dropping probability, the observed drop-event count and a
    ``resolvable`` flag (enough events for the comparison to mean
    anything, threshold ``MIN_DROP_EVENTS``).
    """
    user = UserProfile(lam, path_loss_gain(distance))
    rows = []
    for eps_h in eps_h_list:
        alloc = solve_allocation(cfg, [user], eps_h=eps_h)
        policy = SimPolicy.from_allocation(alloc, cfg, [user])
        report = run_simulation(policy, cfg, [user], frames=frames,
                                seed=seed, streams=streams, workers=workers)
        rows.append({
            "required_eps_h": eps_h,
            "achieved_eps_h": report.achieved_eps_h,
            "drop_events": report.drop_events,
            "deep_fades": report.deep_fade_count,
            "antennas": alloc.antennas,
            "gain_threshold": alloc.gain_thresholds[0],
            "resolvable": report.drop_events >= MIN_DROP_EVENTS,
        })
    return rows


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete description of one reproducible experiment run.

    ``kind`` picks the protocol; the remaining fields parameterize it (only
    the ones the protocol reads matter).  ``run_experiment`` validates,
    executes and writes the output file.
    """

    kind: str
    config_path: str
    output_path: str | None = None
    eps_list: tuple[float, ...] = ()
    k_values: tuple[int, ...] = ()
    nt_values: tuple[int, ...] = ()
    fixed_nts: tuple[int, ...] = (8, 16, 32, 64)
    placement: str = "grid"
    seed: int = 1
    frames: int = 1_000_000
    streams: int = 8
    workers: int = 1
    service_rate: float = 1.0
    distance: float = 250.0
    eps_h: float | None = None
    trace_path: str | None = None

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.kind in ("table_wth", "table_drop") and not self.eps_list:
            raise ConfigError("eps_list must be non-empty")
        if self.kind in ("sweep_antennas", "sweep_users") and not self.k_values:
            raise ConfigError("k_values must be non-empty")
        if self.kind == "sweep_antennas" and not self.nt_values:
            raise ConfigError("nt_values must be non-empty")
        if self.frames < 1:
            raise ConfigError("frames must be at least 1")
        if self.streams < 1:
            raise ConfigError("streams must be at least 1")
        if self.trace_path and self.streams > 1:
            raise ConfigError("per-frame tracing supports a single stream "
                              "only (--streams 1)")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        for name in ("service_rate", "distance"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if min(self.k_values, default=1) < 1:
            raise ConfigError("user counts must be at least 1")
        nts = (*self.fixed_nts, *self.nt_values)
        if not 2 <= min(nts, default=2) <= max(nts, default=2) <= ANTENNA_CAP:
            raise ConfigError("antenna counts must be at least 2 and at "
                              f"most {ANTENNA_CAP}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        # a repeated entry would redo its work and repeat its row or column
        for name in ("eps_list", "k_values", "nt_values", "fixed_nts"):
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ConfigError(f"{name} repeats an entry")


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute an experiment and write its output file; returns a summary.

    The returned dict always has ``kind`` plus protocol-specific entries.
    The output file is written only when the spec carries an output path,
    and only once the protocol has run: a protocol that raises writes
    nothing.
    """
    spec.validate()
    cfg, users = load_config(spec.config_path)
    summary = {"kind": spec.kind}
    if spec.kind == "solve":
        alloc = solve_allocation(cfg, users)
        summary["allocation"] = alloc
        text = alloc.to_json() + "\n"
    elif spec.kind == "simulate":
        alloc = solve_allocation(cfg, users, eps_h=spec.eps_h)
        policy = SimPolicy.from_allocation(alloc, cfg, users)
        report = run_simulation(policy, cfg, users, frames=spec.frames,
                                seed=spec.seed, streams=spec.streams,
                                workers=spec.workers,
                                trace_path=spec.trace_path)
        summary.update(allocation=alloc, report=report)
        text = report.to_json() + "\n"
    elif spec.kind == "table_wth":
        validate_config(cfg, users)
        rows = summary["rows"] = table_wth_rows(
            cfg, list(spec.eps_list), service_rate=spec.service_rate)
        text = csv_text(["eps_c", "w_th_hz"], rows,
                        {"config": config_digest(cfg),
                         "service_rate": spec.service_rate})
    else:
        # the protocol places its own users, at the rate the config's share
        lam = users[0].arrival_rate
        if any(usr.arrival_rate != lam for usr in users):
            # NaN differs even from itself, so a fault of the config that
            # makes its rates differ is named before the difference
            validate_config(cfg, users)
            raise ConfigError(f"{spec.kind} places users that share one "
                              "arrival rate; the config's users' rates "
                              "differ")
        provenance = {"config": config_digest(cfg), "seed": spec.seed}
        if spec.kind == "table_drop":
            rows = summary["rows"] = drop_table_rows(
                cfg, lam, list(spec.eps_list), frames=spec.frames,
                seed=spec.seed, streams=spec.streams, workers=spec.workers,
                distance=spec.distance)
            columns = ["required_eps_h", "achieved_eps_h", "drop_events",
                       "deep_fades", "antennas", "resolvable"]
            text = csv_text(columns, [[r[c] for c in columns] for r in rows],
                            {**provenance, "frames": spec.frames,
                             "streams": spec.streams,
                             "distance_m": spec.distance})
        elif spec.kind == "sweep_antennas":
            out_rows = summary["rows"] = []
            loci = summary["loci"] = {}
            for k in spec.k_values:
                swept = place_users(k, lam, scheme=spec.placement,
                                    seed=spec.seed)
                rows, loci[k] = antenna_sweep_rows(cfg, swept,
                                                   list(spec.nt_values))
                out_rows += [(k, *row, 0) for row in rows]
                if loci[k] is not None:
                    out_rows.append((k, *loci[k], True, 1))
            text = csv_text(["k", "n_t", "mean_total_power_w", "feasible",
                             "is_locus"], out_rows,
                            {**provenance, "placement": spec.placement,
                             "nt_min": min(spec.nt_values),
                             "nt_max": max(spec.nt_values)})
        else:
            rows = summary["rows"] = user_sweep_rows(
                cfg, lam, list(spec.k_values), list(spec.fixed_nts),
                scheme=spec.placement, seed=spec.seed)
            text = csv_text(
                ["k", "ee_joint"] + [f"ee_nt{nt}" for nt in spec.fixed_nts],
                [(k, ee_joint, *(fixed[nt] for nt in spec.fixed_nts))
                 for k, ee_joint, fixed in rows],
                {**provenance, "placement": spec.placement})
    if spec.output_path:
        with open(spec.output_path, "w") as fh:
            fh.write(text)
    return summary


def config_digest(cfg: SystemConfig) -> str:
    """Short stable hash identifying a configuration (for CSV provenance)."""
    return _sha256(repr(cfg).encode())[:16]


def csv_text(header: list[str], rows: list, provenance: dict) -> str:
    """A CSV with provenance comment lines; byte-stable across reruns."""
    lines = [f"# {key}={provenance[key]}" for key in sorted(provenance)]
    lines.append(f"# version={__version__}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    if x is None:  # an infeasible point
        return "nan"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)
