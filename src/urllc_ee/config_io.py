"""Flat key = value config files.

One ``key = value`` pair per line, ``#`` starts a comment, values are SI
units.  dB/dBm keys are converted to linear here so the rest of the library
never sees decibels.  The full key list lives in the README.
"""

from __future__ import annotations

from dataclasses import fields

from .model import ConfigError, SystemConfig, UserProfile, dbm_to_watts

_FIELDS = tuple(f.name for f in fields(SystemConfig))
# besides the fields: the dBm forms of two of them and the users' node traffic
_SCALAR_KEYS = {*_FIELDS, "noise_psd_dbm_hz", "max_bs_power_dbm",
                "nodes_per_user", "node_packet_rate_hz"}
_LIST_KEYS = {"user_distances_m", "user_gains", "user_arrival_rates_pps"}
_INT_KEYS = {"packet_bits", "nodes_per_user"}
# keys that give one quantity in two forms; a file may set only one of each
_SAME_QUANTITY = {"noise_psd": "noise_psd_dbm_hz",
                  "max_bs_power": "max_bs_power_dbm",
                  "user_gains": "user_distances_m"}
_SAME_QUANTITY.update({v: k for k, v in _SAME_QUANTITY.items()})

DEFAULT_CONFIG_TEXT = """\
# Cell and QoS parameters (SI units; dB keys are converted at ingestion)
frame_duration = 1e-4
dl_fraction = 0.5e-4
e2e_delay = 1e-3
backhaul_delay = 1e-4
noise_psd_dbm_hz = -173
total_bandwidth = 20e6
max_bs_power_dbm = 40
circuit_power_per_antenna = 0.05
fixed_circuit_power = 0.05
amplifier_efficiency = 0.5
packet_bits = 160
loss_budget = 3e-7

# Users: one entry per user; traffic aggregates nodes_per_user nodes
user_distances_m = 250
nodes_per_user = 20
node_packet_rate_hz = 10
"""


def parse_config_text(text: str) -> tuple[SystemConfig, list[UserProfile]]:
    """Parse config text into a SystemConfig and its user list."""
    scalars: dict[str, float] = {}
    lists: dict[str, list[float]] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} already set on "
                              f"line {seen[key]}")
        other = _SAME_QUANTITY.get(key)
        if other in seen:
            raise ConfigError(f"line {lineno}: key {key!r} sets the same "
                              f"quantity as {other!r} on line {seen[other]}")
        seen[key] = lineno
        if key in _SCALAR_KEYS:
            try:
                scalars[key] = float(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: bad number {val!r}") from None
            if key in _INT_KEYS and not scalars[key].is_integer():
                raise ConfigError(
                    f"line {lineno}: {key} must be an integer, got {val!r}")
        elif key in _LIST_KEYS:
            try:
                lists[key] = [float(x) for x in val.split(",") if x.strip()]
            except ValueError:
                raise ConfigError(f"line {lineno}: bad number list {val!r}") from None
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    kwargs = {name: int(scalars[name]) if name in _INT_KEYS else scalars[name]
              for name in _FIELDS if name in scalars}
    for name in ("noise_psd", "max_bs_power"):
        key = _SAME_QUANTITY[name]  # the dBm form
        if key in scalars:
            try:
                kwargs[name] = dbm_to_watts(scalars[key])
            except OverflowError:
                raise ConfigError(f"line {seen[key]}: {key} is too large "
                                  "to express in watts") from None
    cfg = SystemConfig(**kwargs)

    distances = lists.get("user_distances_m")
    gains = lists.get("user_gains")
    if distances is None and gains is None:
        raise ConfigError("config must provide user_distances_m or user_gains")
    count = len(distances if distances is not None else gains)
    if count == 0:
        raise ConfigError("user list is empty")

    rates_pps = lists.get("user_arrival_rates_pps")
    if rates_pps is None:
        node_rate = scalars.get("node_packet_rate_hz", 0.0)
        if node_rate <= 0:
            raise ConfigError("need node_packet_rate_hz (with nodes_per_user) "
                              "or user_arrival_rates_pps")
        rates_pps = [int(scalars.get("nodes_per_user", 1)) * node_rate] * count
    elif len(rates_pps) != count:
        raise ConfigError("user_arrival_rates_pps length does not match users")
    users = [UserProfile(
        arrival_rate=cfg.packets_per_frame(rate),
        distance=distances[i] if distances is not None else None,
        large_scale_gain=gains[i] if gains is not None else None,
    ) for i, rate in enumerate(rates_pps)]
    return cfg, users


def load_config(path: str) -> tuple[SystemConfig, list[UserProfile]]:
    """Load a config file; raises ConfigError naming the offending line."""
    with open(path) as fh:
        return parse_config_text(fh.read())
