"""Sweep and table protocols shared by the CLI and the acceptance suite.

Every function here is a pure, deterministic function of its arguments, so
re-running a sweep with identical inputs reproduces its output files byte
for byte (CSV provenance headers carry the config hash and seed, never a
timestamp).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .allocator import (_prologue, find_bandwidth_minimizer,
                        mean_total_power, power_thresholds, solve_allocation,
                        YFunction)
from .config_io import load_config
from .model import (ConfigError, PowerInfeasibleError, QosBudget,
                    QosInfeasibleError, SystemConfig, UserProfile)
from .rate import _coeffs_at_rate
from .simulator import SimPolicy, run_simulation

PLACEMENT_NEAR_M = 50.0
PLACEMENT_FAR_M = 250.0
# Users placed by the sweeps and the dropping table each aggregate this
# many nodes at this rate; they reject a config whose users' traffic differs.
NODES_PER_USER = 20
NODE_PACKET_RATE_HZ = 10.0
# Fewer drop events than this leave the dropping probability unresolved.
MIN_DROP_EVENTS = 30

EXPERIMENT_KINDS = ("solve", "simulate", "table_wth", "table_drop",
                    "sweep_antennas", "sweep_users")


def place_users(k: int, cfg: SystemConfig, scheme: str = "grid",
                seed: int = 1234) -> list[UserProfile]:
    """Deterministic user placement on the 50-250 m annulus.

    ``grid`` respreads K users evenly (midpoints of K equal sub-intervals);
    ``uniform`` draws each user's distance from its own seeded substream, so
    prefixes are stable: user i keeps its position as K grows.
    """
    if k < 1:
        raise ValueError("at least one user is required")
    span = PLACEMENT_FAR_M - PLACEMENT_NEAR_M
    if scheme == "grid":
        dists = [PLACEMENT_NEAR_M + span * (i + 0.5) / k for i in range(k)]
    elif scheme == "uniform":
        dists = []
        for i in range(k):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            dists.append(PLACEMENT_NEAR_M + span * float(rng.random()))
    else:
        raise ValueError(f"unknown placement scheme {scheme!r}")
    return [UserProfile.from_nodes(d, NODES_PER_USER, NODE_PACKET_RATE_HZ, cfg)
            for d in dists]


def table_wth_rows(cfg: SystemConfig, eps_list: list[float],
                   service_rate: float = 1.0) -> list[tuple[float, float]]:
    """(eps_c, W_th in Hz) rows: the minimizer of the bandwidth-SNR kernel
    at a fixed nominal service rate (packets/frame), independent of any
    user's channel gain."""
    return [(eps, find_bandwidth_minimizer(
                YFunction(*_coeffs_at_rate(service_rate, eps, cfg), 1.0)))
            for eps in eps_list]


def antenna_sweep_rows(cfg: SystemConfig, users: list[UserProfile],
                       nt_values: list[int]):
    """Mean total power across antenna counts with the bandwidth split fixed.

    Returns (rows, locus): rows are (n_t, power_w, feasible) where
    feasibility means the per-user power caps fit the BS budget; the locus
    is (n_t*, power*) over the feasible rows.
    """
    qos, yfuncs, sol = _prologue(cfg, tuple(users), None, None, None)
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


def user_sweep_rows(cfg: SystemConfig, k_values: list[int],
                    fixed_nts: list[int], scheme: str = "grid",
                    seed: int = 1234):
    """Joint-optimal EE and fixed-antenna EE per user count.

    Returns rows ``(k, ee_joint, {nt: ee or None})`` where None marks a
    fixed-antenna point whose power caps do not fit the BS budget.  The
    solves of one user set share its memoized bandwidth split.
    """
    rows = []
    for k in k_values:
        users = place_users(k, cfg, scheme=scheme, seed=seed)
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


def drop_table_rows(cfg: SystemConfig, eps_h_list: list[float],
                    frames: int, seed: int, streams: int = 8,
                    workers: int = 1, distance: float = 250.0):
    """Required-vs-achieved dropping probability, one simulation per target.

    Each row is a dict with the solved policy summary, the empirical
    dropping probability, the observed drop-event count and a
    ``resolvable`` flag (enough events for the comparison to mean
    anything, threshold ``MIN_DROP_EVENTS``).
    """
    user = UserProfile.from_nodes(distance, NODES_PER_USER,
                                  NODE_PACKET_RATE_HZ, cfg)
    rows = []
    for eps_h in eps_h_list:
        alloc = solve_allocation(cfg, [user], eps_h=eps_h)
        policy = SimPolicy.from_allocation(alloc, cfg, [user],
                                           QosBudget(**alloc.extras["qos"]))
        report = run_simulation(policy, cfg, [user], frames=frames,
                                seed=seed, streams=streams, workers=workers)
        rows.append({
            "required_eps_h": eps_h,
            "achieved_eps_h": report.achieved_eps_h,
            "drop_events": report.drop_events,
            "deep_fades": report.deep_fade_count,
            "frames": frames,
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
        if min((*self.fixed_nts, *self.nt_values), default=2) < 2:
            raise ConfigError("antenna counts must be at least 2")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute an experiment and write its output file; returns a summary.

    The returned dict always has ``kind`` plus protocol-specific entries;
    writing happens only when the spec carries an output path.
    """
    spec.validate()
    cfg, users = load_config(spec.config_path)
    if spec.kind in ("table_drop", "sweep_antennas", "sweep_users"):
        lam = cfg.packets_per_frame(NODES_PER_USER * NODE_PACKET_RATE_HZ)
        if any(usr.arrival_rate != lam for usr in users):
            raise ConfigError(
                f"{spec.kind} places its own users, each {NODES_PER_USER} "
                f"nodes at {NODE_PACKET_RATE_HZ:g} Hz; the config's traffic "
                "differs")
    if spec.kind == "solve":
        alloc = solve_allocation(cfg, users)
        if spec.output_path:
            with open(spec.output_path, "w") as fh:
                fh.write(alloc.to_json() + "\n")
        return {"kind": spec.kind, "allocation": alloc}

    if spec.kind == "simulate":
        alloc = solve_allocation(cfg, users, eps_h=spec.eps_h)
        policy = SimPolicy.from_allocation(alloc, cfg, users,
                                           QosBudget(**alloc.extras["qos"]))
        report = run_simulation(policy, cfg, users, frames=spec.frames,
                                seed=spec.seed, streams=spec.streams,
                                workers=spec.workers,
                                trace_path=spec.trace_path)
        if spec.output_path:
            with open(spec.output_path, "w") as fh:
                fh.write(report.to_json() + "\n")
        return {"kind": spec.kind, "allocation": alloc, "report": report}

    if spec.kind == "table_wth":
        for eps in spec.eps_list:
            if not (0.0 < eps < 0.5):
                raise ConfigError(f"eps_c {eps} outside (0, 0.5)")
        rows = table_wth_rows(cfg, list(spec.eps_list),
                              service_rate=spec.service_rate)
        if spec.output_path:
            write_csv(spec.output_path, ["eps_c", "w_th_hz"], rows,
                      {"config": config_digest(cfg),
                       "service_rate": spec.service_rate})
        return {"kind": spec.kind, "rows": rows}

    if spec.kind == "table_drop":
        rows = drop_table_rows(cfg, list(spec.eps_list), frames=spec.frames,
                               seed=spec.seed, streams=spec.streams,
                               workers=spec.workers, distance=spec.distance)
        if spec.output_path:
            csv_rows = [(r["required_eps_h"], r["achieved_eps_h"],
                         r["drop_events"], r["deep_fades"], r["antennas"],
                         r["resolvable"]) for r in rows]
            write_csv(spec.output_path,
                      ["required_eps_h", "achieved_eps_h", "drop_events",
                       "deep_fades", "antennas", "resolvable"],
                      csv_rows,
                      {"config": config_digest(cfg), "seed": spec.seed,
                       "frames": spec.frames, "streams": spec.streams,
                       "distance_m": spec.distance})
        return {"kind": spec.kind, "rows": rows}

    if spec.kind == "sweep_antennas":
        out_rows = []
        loci = {}
        for k in spec.k_values:
            swept = place_users(k, cfg, scheme=spec.placement, seed=spec.seed)
            rows, locus = antenna_sweep_rows(cfg, swept, list(spec.nt_values))
            for nt, power, feasible in rows:
                out_rows.append((k, nt, power, feasible, 0))
            if locus is not None:
                out_rows.append((k, locus[0], locus[1], True, 1))
            loci[k] = locus
        if spec.output_path:
            write_csv(spec.output_path,
                      ["k", "n_t", "mean_total_power_w", "feasible",
                       "is_locus"],
                      out_rows,
                      {"config": config_digest(cfg),
                       "placement": spec.placement, "seed": spec.seed,
                       "nt_min": min(spec.nt_values),
                       "nt_max": max(spec.nt_values)})
        return {"kind": spec.kind, "rows": out_rows, "loci": loci}

    rows = user_sweep_rows(cfg, list(spec.k_values), list(spec.fixed_nts),
                           scheme=spec.placement, seed=spec.seed)
    if spec.output_path:
        header = ["k", "ee_joint"] + [f"ee_nt{nt}" for nt in spec.fixed_nts]
        csv_rows = []
        for k, ee_joint, fixed in rows:
            row = [k, float("nan") if ee_joint is None else ee_joint]
            row += [float("nan") if fixed[nt] is None else fixed[nt]
                    for nt in spec.fixed_nts]
            csv_rows.append(tuple(row))
        write_csv(spec.output_path, header, csv_rows,
                  {"config": config_digest(cfg), "placement": spec.placement,
                   "seed": spec.seed})
    return {"kind": spec.kind, "rows": rows}


def config_digest(cfg: SystemConfig) -> str:
    """Short stable hash identifying a configuration (for CSV provenance)."""
    return hashlib.sha256(repr(cfg).encode()).hexdigest()[:16]


def write_csv(path: str, header: list[str], rows: list[tuple],
              provenance: dict) -> None:
    """Write a CSV with provenance comment lines; byte-stable across reruns."""
    lines = [f"# {key}={provenance[key]}" for key in sorted(provenance)]
    lines.append(f"# version={__version__}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)
