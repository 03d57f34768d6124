import contextlib
import io
from types import SimpleNamespace

import pytest

from urllc_ee import SystemConfig, UserProfile, YFunction, path_loss_gain
from urllc_ee.cli import main
from urllc_ee.rate import _coeffs_at_rate

# Reference cell parameters used throughout: 0.1 ms frames, 0.05 ms DL
# transmission, 1 ms end-to-end budget, -173 dBm/Hz noise, 20 MHz, 10 W,
# 50 mW circuit power per antenna and fixed, PA efficiency 0.5, 160-bit
# packets, 3e-7 overall loss budget.
DEFAULT_CFG = SystemConfig()
# A user of 20 nodes at 10 packets/s each: 0.02 packets/frame.
LAM = DEFAULT_CFG.packets_per_frame(20 * 10.0)


@pytest.fixture
def cfg() -> SystemConfig:
    return DEFAULT_CFG


@pytest.fixture
def single_user(cfg) -> UserProfile:
    # LAM at the 250 m cell edge
    return UserProfile(LAM, path_loss_gain(250.0))


def unit_rate_yfunction(eps_c: float, cfg: SystemConfig = DEFAULT_CFG,
                        alpha: float = 1.0) -> YFunction:
    """Objective kernel at a nominal service rate of one packet/frame."""
    return YFunction(*_coeffs_at_rate(1.0, eps_c, cfg), alpha=alpha)


# Bandwidth minimizers of the unit-rate kernel, MHz, per decoding-error
# target; reference values for regression checks at +/-1%.
WTH_REFERENCE_MHZ = {1e-8: 7.35, 1e-7: 7.42, 1e-6: 7.53, 1e-5: 7.70}


def run_cli(args: list) -> SimpleNamespace:
    """Run the command line on ``args`` in this process.  The result has its
    ``exit_code``, its ``stdout`` and ``stderr``, both as ``output``, and
    the ``SystemExit`` of a run that exited non-zero as ``exception``."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            exception = exc if exc.code else None
    return SimpleNamespace(exit_code=exception.code if exception else 0,
                           stdout=out.getvalue(), stderr=err.getvalue(),
                           output=out.getvalue() + err.getvalue(),
                           exception=exception)
