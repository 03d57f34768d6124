"""Core configuration and result types shared by every other module.

Unit conventions (fixed here, relied on everywhere else):

* Internal time unit is the FRAME.  Arrival rates and service rates are
  packets/frame, queueing delay budgets are integer frames, and the frame
  duration itself equals 1 in frame units.  Seconds appear only in the
  SystemConfig fields and at the I/O boundary.
* All powers, bandwidths and spectral densities are linear SI (W, Hz,
  W/Hz).  dB/dBm values are converted once, at config ingestion.
* A user is its arrival rate and its large-scale gain, an attenuation
  (linear value < 1); a distance becomes that gain where it enters.
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
    The one check of a distance: ConfigError unless it is positive (not
    NaN) and its gain finite.
    """
    if not distance > 0:
        raise ConfigError(f"distance {distance} m must be positive")
    try:
        return 10.0 ** (-(35.3 + 37.6 * math.log10(distance)) / 10.0)
    except OverflowError:  # a distance far below 1 m
        raise ConfigError(f"distance {distance} m: gain overflows") from None


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
    """One downlink user, as the allocation sees it: its traffic and its gain.

    ``arrival_rate`` is the aggregate packet rate over the user's concerned
    node set, in packets/frame; ``gain`` is its linear large-scale channel
    gain (alpha_k).  A distance becomes a gain once, where it enters:
    through ``path_loss_gain``.
    """

    arrival_rate: float
    gain: float


@dataclass(frozen=True)
class QosBudget:
    """Resolved QoS budget: queueing delay in frames and the loss split."""

    queue_delay_frames: int
    eps_c: float
    eps_q: float
    eps_h: float


def validate_config(cfg: SystemConfig, users: list[UserProfile],
                    eps_h: float | None = None) -> QosBudget:
    """Check every shared invariant and resolve the QoS budget.

    The queueing budget is the end-to-end budget minus one uplink and one
    downlink frame (the backhaul, at most one frame, is absorbed into that
    allowance), floored to whole frames.  The loss budget splits equally
    across the transmission-error, delay-violation and dropping components;
    ``eps_h`` replaces the dropping third (a dropping-probability sweep may
    relax it past the split).

    Raises:
        ConfigError: with one entry per violated invariant.
    """
    # Each check fails on NaN and math.inf bounds the open ones above.
    v: list[str] = []
    frame = cfg.frame_duration
    frame_ok = 0 < frame < math.inf
    dq = 0
    if not frame_ok:
        # the checks that compare with a frame, or count in frames, would
        # only repeat this one
        v.append("frame_duration must be positive and finite")
    else:
        if not (0 < cfg.dl_fraction < frame):
            v.append("dl_fraction must be in (0, frame_duration)")
        if not (0 <= cfg.backhaul_delay <= frame):
            v.append("backhaul_delay must be non-negative and at most one "
                     "frame")
        slots = (cfg.e2e_delay - 2 * frame) / frame
        if math.isfinite(slots):
            dq = math.floor(slots + 1e-9)
        if dq < 1:
            v.append("e2e_delay must be finite and leave a queueing budget "
                     "of at least one frame")
    for name in ("noise_psd", "total_bandwidth", "max_bs_power",
                 "circuit_power_per_antenna", "fixed_circuit_power"):
        if not (0 < getattr(cfg, name) < math.inf):
            v.append(f"{name} must be positive and finite")
    if not (0 < cfg.amplifier_efficiency <= 1):
        v.append("amplifier_efficiency must be in (0, 1]")
    if not (0 < cfg.packet_bits < math.inf):
        v.append("packet_bits must be positive and finite")
    # the budget splits in thirds, so a third that underflows is no budget
    third = cfg.loss_budget / 3.0
    if not (0 < third and cfg.loss_budget < 1):
        v.append("loss_budget must be in (0, 1) with a positive third")

    if not users:
        v.append("at least one user is required")
    for i, usr in enumerate(users):
        # config_io derives a rate from frame_duration, checked above
        if frame_ok and not (0 < usr.arrival_rate < math.inf):
            v.append(f"user {i}: arrival_rate must be positive and finite")
        if not (0 < usr.gain < 1):
            v.append(f"user {i}: large-scale gain must be in (0, 1)")

    if eps_h is None:
        eps_h = third
    elif not (0 < eps_h < 1):
        v.append("eps_h must be in (0, 1)")

    if v:
        raise ConfigError(v)
    return QosBudget(queue_delay_frames=dq, eps_c=third, eps_q=third,
                     eps_h=eps_h)


@dataclass
class Allocation:
    """Solved resource allocation for one cell.

    Per-user lists are aligned with the input user order.  ``gain_threshold``
    repeats the common threshold for convenience; it depends only on the
    antenna count and the dropping budget.  ``extras["qos"]`` is the
    solve's ``QosBudget`` as a dict, which ``SimPolicy.from_allocation``
    reads.
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
