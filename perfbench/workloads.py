"""The benchmark's workloads: config text and experiment fields per seed.

Each workload is one protocol of the program, run through
``urllc_ee.experiments.run_experiment`` exactly as the CLI would run it.
The inputs depend only on the workload name and the seed.  Why each
workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

DEFAULT_SEED = 1

# K = 1..40 with a joint solve plus four fixed antenna counts per K gives
# 200 solves, so that 10 samples lie beyond the p95 of one repetition.
SWEEP_K_MAX = 40
FIXED_NTS = (8, 16, 32, 64)
SIM_STREAMS = 8
IDLE_FRAMES = 4_000_000
BUSY_FRAMES = 250_000

# The reference cell of the README (the program's DEFAULT_CONFIG_TEXT),
# pinned here so that the benchmark's inputs never move with the program.
_CELL = """\
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
nodes_per_user = 20
node_packet_rate_hz = 10
"""

# One cell-edge user at 250 m: 20 nodes x 10 packets/s = 0.02 packets/frame.
DEFAULT_CELL = _CELL + "user_distances_m = 250\n"

# Four users; lambda = 2, 2, 0.5, 2 packets/frame at 0.1 ms frames.  The
# cell is bandwidth-limited and every queue is busy nearly every frame.
BUSY_CELL = _CELL + ("user_distances_m = 100, 150, 200, 250\n"
                     "user_arrival_rates_pps = 20000, 20000, 5000, 20000\n")

WORKLOADS = ("sweep-users", "sim-idle", "sim-busy")


def config_text(workload: str) -> str:
    """Config file contents the workload loads at set-up."""
    return BUSY_CELL if workload == "sim-busy" else DEFAULT_CELL


def output_suffix(workload: str) -> str:
    """File suffix of the protocol's output file."""
    return ".json" if workload == "sim-busy" else ".csv"


def spec_fields(workload: str, seed: int) -> dict:
    """ExperimentSpec fields (apart from the two paths) for one run."""
    if workload == "sweep-users":
        return {"kind": "sweep_users",
                "k_values": tuple(range(1, SWEEP_K_MAX + 1)),
                "fixed_nts": FIXED_NTS, "placement": "uniform", "seed": seed}
    if workload == "sim-idle":
        return {"kind": "table_drop", "eps_list": (1e-4, 1e-5),
                "frames": IDLE_FRAMES, "seed": seed, "streams": SIM_STREAMS,
                "workers": 1, "distance": 250.0}
    if workload == "sim-busy":
        return {"kind": "simulate", "frames": BUSY_FRAMES, "seed": seed,
                "streams": SIM_STREAMS, "workers": 1}
    raise ValueError(f"unknown workload {workload!r}")
