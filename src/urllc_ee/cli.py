"""Command-line experiment runner.

Subcommands: ``solve``, ``simulate``, ``table-wth``, ``table-drop``,
``sweep-antennas``, ``sweep-users``.  Exit codes: 0 success, 2 infeasible
allocation, 3 config/usage error.  An option's ``dest`` is the
ExperimentSpec field it fills; each command converts the comma lists and
ranges, builds the spec and hands it to ``run_experiment``, so outputs are
deterministic functions of the inputs (plus --seed) and re-running a
command reproduces its output files byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import MIN_DROP_EVENTS, ExperimentSpec, run_experiment
from .model import ConfigError, PowerInfeasibleError, QosInfeasibleError

EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3


def _echo(text: str, err: bool = False) -> None:
    """One line on stdout, or stderr; flushed, so the two keep their order."""
    print(text, file=sys.stderr if err else sys.stdout, flush=True)


def _parse_list(text: str, kind) -> tuple:
    """The items of a comma list as ``kind``; a bad item is a config error."""
    try:
        return tuple(kind(x) for x in text.split(",") if x.strip())
    except ValueError as exc:  # its message quotes the bad item
        raise ConfigError(f"{text!r}: {exc}") from None


def solve(**spec):
    """Solve the allocation for the configured users."""
    alloc = run_experiment(ExperimentSpec(**spec))["allocation"]
    _echo(f"feasible: {alloc.case_tag}, antennas={alloc.antennas}, "
          f"mean_total_power={alloc.mean_total_power:.6g} W, "
          f"EE={alloc.energy_efficiency:.6g} bits/J")
    if not spec["output_path"]:
        _echo(alloc.to_json())


def simulate(**spec):
    """Solve, then validate the policy with the Monte-Carlo simulator."""
    report = run_experiment(ExperimentSpec(**spec))["report"]
    if not spec["output_path"]:
        _echo(report.to_json())
    else:
        _echo(f"achieved_eps_h={report.achieved_eps_h:.3e}  "
              f"mean_tx_power={report.empirical_mean_tx_power:.6g} W  "
              f"drop_events={report.drop_events}")
    if report.drop_events < MIN_DROP_EVENTS:
        _echo(f"warning: only {report.drop_events} drop events observed; "
              "the dropping probability is statistically unresolved at "
              "this frame count", err=True)


def table_wth(eps, **spec):
    """Bandwidth minimizer of the power kernel per error target."""
    spec = ExperimentSpec(**spec, eps_list=_parse_list(eps, float))
    for eps_c, wth in run_experiment(spec)["rows"]:
        _echo(f"eps_c={eps_c!r}  W_th={wth/1e6:.4f} MHz")


def table_drop(eps, **spec):
    """Required vs achieved dropping probability (single-user protocol)."""
    spec = ExperimentSpec(**spec, eps_list=_parse_list(eps, float))
    for r in run_experiment(spec)["rows"]:
        note = "" if r["resolvable"] else "  [unresolvable: too few events]"
        _echo(f"required={r['required_eps_h']!r}  "
              f"achieved={r['achieved_eps_h']:.3e}  "
              f"events={r['drop_events']}{note}")
        if not r["resolvable"]:
            _echo(f"warning: {r['drop_events']} drop events < "
                  f"{MIN_DROP_EVENTS} at required "
                  f"eps_h={r['required_eps_h']!r}", err=True)


def sweep_antennas(k_values, nt_min, nt_max, **spec):
    """Mean total power vs antenna count, per user count."""
    spec = ExperimentSpec(**spec, k_values=_parse_list(k_values, int),
                          nt_values=tuple(range(nt_min, nt_max + 1)))
    for k, locus in run_experiment(spec)["loci"].items():
        if locus is None:
            _echo(f"K={k}: no feasible antenna count in range")
        else:
            _echo(f"K={k}: N_t*={locus[0]}  min power={locus[1]:.4f} W")


def sweep_users(k_min, k_max, fixed_nt, **spec):
    """Energy efficiency vs user count: joint-optimal and fixed antennas."""
    def show(x):
        return "infeasible" if x is None else f"{x:.5g}"
    spec = ExperimentSpec(**spec, k_values=tuple(range(k_min, k_max + 1)),
                          fixed_nts=_parse_list(fixed_nt, int))
    for k, ee_joint, fixed in run_experiment(spec)["rows"]:
        _echo(f"K={k}: EE_joint={show(ee_joint)}  " + "  ".join(
            f"EE[{nt}]={show(fixed[nt])}" for nt in sorted(fixed)))


def _parser() -> argparse.ArgumentParser:
    """One subparser per command; an option's prefix is a usage error."""
    show_help = {"action": "help", "help": "Show this message and exit."}
    top = argparse.ArgumentParser(prog="urllc-ee", description=main.__doc__,
                                  add_help=False, allow_abbrev=False)
    top.add_argument("--help", **show_help)
    commands = top.add_subparsers(metavar="command", required=True)

    def command(run, **out):
        """The option adder of ``run``'s subparser, with --config and --out."""
        sub = commands.add_parser(run.__name__.replace("_", "-"),
                                  help=run.__doc__, description=run.__doc__,
                                  add_help=False, allow_abbrev=False)
        sub.set_defaults(run=run, kind=run.__name__)

        def add(flag, default=None, help=None, **kw):
            if default is not None:  # every default is shown
                help = f"{help or ''} [default: {default}]".lstrip()
            sub.add_argument(flag, default=default, help=help, **kw)
        add("--config", required=True, help="Config file.",
            dest="config_path", metavar="CONFIG")
        add("--out", dest="output_path", metavar="OUT", **out)
        sub.add_argument("--help", **show_help)
        return add

    add = command(solve, help="Write JSON here.")
    add = command(simulate, help="Write report JSON here.")
    add("--seed", 1, type=int)
    add("--frames", 1_000_000, type=int)
    add("--streams", 8, type=int)
    add("--workers", 1, type=int)
    add("--eps-h", type=float,
        help="Override the dropping budget before solving.")
    add("--trace", dest="trace_path", metavar="TRACE",
        help="Per-frame CSV trace (debugging; single stream only).")
    add = command(table_wth, required=True)
    add("--eps", "1e-8,1e-7,1e-6,1e-5",
        help="Comma list of decoding-error targets.")
    add("--service-rate", 1.0, type=float,
        help="Nominal service rate in packets/frame.")
    add = command(table_drop, required=True)
    add("--eps", "1e-4,1e-5",
        help="Comma list of required dropping probabilities.")
    add("--frames", 10_000_000, type=int)
    add("--seed", 1, type=int)
    add("--streams", 8, type=int)
    add("--workers", 1, type=int)
    add("--distance", 250.0, type=float)
    add = command(sweep_antennas, required=True)
    add("--k-values", "5,10,20")
    add("--nt-min", 2, type=int)
    add("--nt-max", 64, type=int)
    add("--placement", "grid", choices=["grid", "uniform"])
    add("--seed", 1234, type=int)
    add = command(sweep_users, required=True)
    add("--k-min", 1, type=int)
    add("--k-max", 30, type=int)
    add("--fixed-nt", "8,16,32,64")
    add("--placement", "grid", choices=["grid", "uniform"])
    add("--seed", 1234, type=int)
    return top


def main(argv: list[str] | None = None) -> None:
    """Energy-optimal URLLC resource allocation and validation."""
    try:
        try:
            args = vars(_parser().parse_args(argv))
        except SystemExit as exc:  # argparse's usage errors exit 2
            sys.stdout.flush()  # --help's text, to a reader that may be gone
            sys.exit(EXIT_CONFIG if exc.code else 0)
        return args.pop("run")(**args)
    except BrokenPipeError:  # the reader stopped reading, as `head` does
        for stream in sys.stdout, sys.stderr:  # so the flush at exit succeeds
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        sys.exit(1)
    except (ConfigError, OSError) as exc:
        message, code = f"config error: {exc}", EXIT_CONFIG
    except QosInfeasibleError as exc:
        message, code = f"infeasible (bandwidth/QoS): {exc}", EXIT_INFEASIBLE
    except PowerInfeasibleError as exc:
        message, code = f"infeasible (transmit power): {exc}", EXIT_INFEASIBLE
    except KeyboardInterrupt:  # the interrupted line ends first
        message, code = "\nAborted!", 1
    _echo(message, err=True)
    try:  # stdout may still hold what it failed to write (a full disk)
        sys.stdout.flush()
    except OSError:  # those bytes go, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
