"""Energy-optimal radio resource allocation for URLLC downlinks.

Solves for the transmit-power caps, per-user bandwidths and active-antenna
count that minimize a base station's average total power under end-to-end
delay and reliability constraints, and validates the solved policy with a
frame-level fading/queueing Monte-Carlo simulator.
"""

__version__ = "0.1.0"

from .model import (Allocation, ConfigError, PowerInfeasibleError, QosBudget,
                    QosInfeasibleError, SystemConfig, UserProfile,
                    path_loss_gain, validate_config)
from .rate import (achievable_rate, channel_dispersion, inv_gaussian_q,
                   snr_coeffs)
from .traffic import effective_bandwidth
from .fading import drop_bound_F, mean_tx_power, solve_gain_threshold
from .allocator import (BandwidthSolution, YFunction, allocate_bandwidth,
                        build_y_functions, find_bandwidth_minimizer,
                        optimal_antennas, power_thresholds, solve_allocation)
from .simulator import SimPolicy, SimReport, run_simulation
from .config_io import DEFAULT_CONFIG_TEXT, load_config, parse_config_text
from .experiments import ExperimentSpec, place_users, run_experiment

__all__ = [
    "Allocation", "BandwidthSolution", "ConfigError", "DEFAULT_CONFIG_TEXT",
    "ExperimentSpec", "PowerInfeasibleError", "QosBudget",
    "QosInfeasibleError", "SimPolicy", "SimReport", "SystemConfig",
    "UserProfile", "YFunction", "achievable_rate", "allocate_bandwidth",
    "build_y_functions", "channel_dispersion", "drop_bound_F",
    "effective_bandwidth", "find_bandwidth_minimizer", "inv_gaussian_q",
    "load_config", "mean_tx_power", "optimal_antennas", "parse_config_text",
    "path_loss_gain", "place_users", "power_thresholds", "run_experiment",
    "run_simulation", "snr_coeffs", "solve_allocation", "validate_config",
]
