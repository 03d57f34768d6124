"""Core configuration and result types shared by every other module.

Unit conventions (fixed here, relied on everywhere else):

* Internal time unit is the FRAME.  Arrival rates and service rates are
  packets/frame, queueing delay budgets are integer frames, and the frame
  duration itself equals 1 in frame units.  Seconds appear only in the
  SystemConfig fields and at the I/O boundary.
* All powers, bandwidths and spectral densities are linear SI (W, Hz,
  W/Hz).  dB/dBm values are converted once, at config ingestion.
* Large-scale channel gains are attenuations (linear value < 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Invalid system configuration; ``violations`` lists each bad field."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class QosInfeasibleError(RuntimeError):
    """QoS targets cannot be met with the available bandwidth."""


class PowerInfeasibleError(RuntimeError):
    """Transmit-power budget cannot be met within the antenna cap."""


def dbm_to_watts(x_dbm: float) -> float:
    """Convert dBm to watts."""
    return 10.0 ** (x_dbm / 10.0) * 1e-3


def path_loss_gain(distance: float) -> float:
    """Large-scale channel gain (linear attenuation) at ``distance`` meters.

    Urban-macro log-distance model: 35.3 + 37.6 log10(d) dB of loss, so the
    returned value is 10**(-(35.3 + 37.6 log10(d))/10) < 1 for d >= 1 m.
    """
    if distance <= 0:
        raise ValueError("distance must be positive")
    return 10.0 ** (-(35.3 + 37.6 * math.log10(distance)) / 10.0)


@dataclass(frozen=True)
class SystemConfig:
    """Base-station and QoS parameters, all in linear SI units.

    Attributes:
        frame_duration: frame length in seconds.
        dl_fraction: time per frame usable for downlink transmission (s).
        e2e_delay: end-to-end delay budget (s).
        backhaul_delay: reserved backhaul latency (s), at most one frame.
        noise_psd: single-sided noise spectral density (W/Hz).
        total_bandwidth: shareable downlink bandwidth (Hz).
        max_bs_power: maximal total transmit power of the BS (W).
        circuit_power_per_antenna: circuit power per active antenna (W).
        fixed_circuit_power: antenna-independent circuit power (W).
        amplifier_efficiency: PA efficiency, in (0, 1].
        packet_bits: payload bits per packet.
        loss_budget: overall packet-loss probability budget.
    """

    frame_duration: float = 1e-4
    dl_fraction: float = 0.5e-4
    e2e_delay: float = 1e-3
    backhaul_delay: float = 1e-4
    noise_psd: float = dbm_to_watts(-173.0)
    total_bandwidth: float = 20e6
    max_bs_power: float = dbm_to_watts(40.0)
    circuit_power_per_antenna: float = 0.05
    fixed_circuit_power: float = 0.05
    amplifier_efficiency: float = 0.5
    packet_bits: int = 160
    loss_budget: float = 3e-7

    def frames_per_second(self) -> float:
        return 1.0 / self.frame_duration

    def packets_per_frame(self, rate_hz: float) -> float:
        """A packet rate in Hz (packets/s) in packets/frame."""
        return rate_hz * self.frame_duration


@dataclass(frozen=True)
class UserProfile:
    """One downlink user: channel statistics plus aggregate traffic.

    ``arrival_rate`` is the aggregate packet rate over the user's concerned
    node set, in packets/frame.  Either ``distance`` (m) or
    ``large_scale_gain`` (linear) must be given; the gain wins if both are.
    """

    arrival_rate: float
    distance: float | None = None
    large_scale_gain: float | None = None

    @property
    def gain(self) -> float:
        if self.large_scale_gain is not None:
            return self.large_scale_gain
        if self.distance is None:
            raise ConfigError("user needs distance or large_scale_gain")
        return path_loss_gain(self.distance)

    @staticmethod
    def from_nodes(distance: float, node_count: int,
                   node_packet_rate_hz: float, cfg: SystemConfig) -> "UserProfile":
        """Build a user whose traffic aggregates ``node_count`` nodes."""
        lam = cfg.packets_per_frame(node_count * node_packet_rate_hz)
        return UserProfile(arrival_rate=lam, distance=distance)


@dataclass(frozen=True)
class QosBudget:
    """Resolved QoS budget: queueing delay in frames and the loss split."""

    queue_delay_frames: int
    eps_c: float
    eps_q: float
    eps_h: float


def validate_config(cfg: SystemConfig, users: list[UserProfile],
                    eps_c: float | None = None, eps_q: float | None = None,
                    eps_h: float | None = None) -> QosBudget:
    """Check every shared invariant and resolve the QoS budget.

    The queueing budget is the end-to-end budget minus one uplink and one
    downlink frame (the reserved backhaul frame is absorbed into that
    allowance), floored to whole frames.  The loss budget splits equally
    across the transmission-error, delay-violation and dropping components
    unless individual overrides are given.

    Raises:
        ConfigError: with one entry per violated invariant.
    """
    # Each check fails on NaN and math.inf bounds the open ones above.
    v: list[str] = []
    if not (0 < cfg.frame_duration < math.inf):
        v.append("frame_duration must be positive and finite")
    if not (0 < cfg.dl_fraction < cfg.frame_duration):
        v.append("dl_fraction must be in (0, frame_duration)")
    if not (0 <= cfg.backhaul_delay < math.inf):
        v.append("backhaul_delay must be non-negative and finite")
    if not (2 * cfg.frame_duration + cfg.backhaul_delay
            <= cfg.e2e_delay < math.inf):
        v.append("e2e_delay must be finite and leave a queueing budget")
    for name in ("noise_psd", "total_bandwidth", "max_bs_power",
                 "circuit_power_per_antenna", "fixed_circuit_power"):
        if not (0 < getattr(cfg, name) < math.inf):
            v.append(f"{name} must be positive and finite")
    if not (0 < cfg.amplifier_efficiency <= 1):
        v.append("amplifier_efficiency must be in (0, 1]")
    if not (0 < cfg.packet_bits < math.inf):
        v.append("packet_bits must be positive and finite")
    if not (0 < cfg.loss_budget < 1):
        v.append("loss_budget must be in (0, 1)")

    if not users:
        v.append("at least one user is required")
    for i, usr in enumerate(users):
        if not (0 < usr.arrival_rate < math.inf):
            v.append(f"user {i}: arrival_rate must be positive and finite")
        try:
            g = usr.gain
            if not (0 < g < 1):
                v.append(f"user {i}: large-scale gain must be in (0, 1)")
        except ConfigError:
            v.append(f"user {i}: needs distance or large_scale_gain")

    overridden = any(e is not None for e in (eps_c, eps_q, eps_h))
    third = cfg.loss_budget / 3.0
    eps_c = third if eps_c is None else eps_c
    eps_q = third if eps_q is None else eps_q
    eps_h = third if eps_h is None else eps_h
    for name, e in (("eps_c", eps_c), ("eps_q", eps_q), ("eps_h", eps_h)):
        if not (0 < e < 1):
            v.append(f"{name} must be in (0, 1)")
    # Explicit overrides may deliberately relax one component past the
    # equal-split budget (e.g. a dropping-probability sweep); the sum
    # constraint binds only the default split.
    if not overridden and eps_c + eps_q + eps_h > cfg.loss_budget * (1 + 1e-12):
        v.append("eps_c + eps_q + eps_h exceeds loss_budget")

    dq = 0
    if cfg.frame_duration > 0:
        slots = (cfg.e2e_delay - 2 * cfg.frame_duration) / cfg.frame_duration
        if math.isfinite(slots):
            dq = math.floor(slots + 1e-9)
        if dq < 1:
            v.append("queueing delay budget is below one frame")

    if v:
        raise ConfigError(v)
    return QosBudget(queue_delay_frames=dq, eps_c=eps_c, eps_q=eps_q,
                     eps_h=eps_h)


@dataclass
class Allocation:
    """Solved resource allocation for one cell.

    Per-user lists are aligned with the input user order.  ``gain_threshold``
    repeats the common threshold for convenience; it depends only on the
    antenna count and the dropping budget.
    """

    bandwidths: list[float]
    snr_targets: list[float]
    gain_thresholds: list[float]
    power_caps: list[float]
    mean_tx_powers: list[float]
    antennas: int
    mean_total_power: float
    energy_efficiency: float
    case_tag: str = ""
    kkt_multiplier: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "bandwidths_hz": self.bandwidths,
            "snr_targets": self.snr_targets,
            "gain_thresholds": self.gain_thresholds,
            "power_caps_w": self.power_caps,
            "mean_tx_powers_w": self.mean_tx_powers,
            "antennas": self.antennas,
            "mean_total_power_w": self.mean_total_power,
            "energy_efficiency_bits_per_joule": self.energy_efficiency,
            "case_tag": self.case_tag,
            "kkt_multiplier": self.kkt_multiplier,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
