"""Command-line experiment runner.

Subcommands: ``solve``, ``simulate``, ``table-wth``, ``table-drop``,
``sweep-antennas``, ``sweep-users``.  Exit codes: 0 success, 2 infeasible
allocation, 3 config/usage error.  Each command builds an ExperimentSpec
and hands it to ``run_experiment``, so outputs are deterministic functions
of the inputs (plus --seed) and re-running a command reproduces its output
files byte for byte.
"""

from __future__ import annotations

import sys

import click

from .experiments import MIN_DROP_EVENTS, ExperimentSpec, run_experiment
from .model import ConfigError, PowerInfeasibleError, QosInfeasibleError

EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3


class _Cli(click.Group):
    """The command group; its ``main`` maps every failure to an exit code."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.ClickException as exc:  # click's own usage errors exit 2
            exc.show()
            sys.exit(EXIT_CONFIG)
        except (ConfigError, OSError) as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except QosInfeasibleError as exc:
            click.echo(f"infeasible (bandwidth/QoS): {exc}", err=True)
            sys.exit(EXIT_INFEASIBLE)
        except PowerInfeasibleError as exc:
            click.echo(f"infeasible (transmit power): {exc}", err=True)
            sys.exit(EXIT_INFEASIBLE)
        except click.Abort:  # an interrupt
            click.echo("Aborted!", err=True)
            sys.exit(1)


def _parse_list(text: str, kind) -> tuple:
    """The items of a comma list as ``kind``; a bad item is a config error."""
    try:
        return tuple(kind(x) for x in text.split(",") if x.strip())
    except ValueError as exc:  # its message quotes the bad item
        raise ConfigError(f"{text!r}: {exc}") from None


@click.group(cls=_Cli)
def main():
    """Energy-optimal URLLC resource allocation and validation."""


@main.command()
@click.option("--config", "config_path", required=True, help="Config file.")
@click.option("--out", "out_path", default=None, help="Write JSON here.")
def solve(config_path, out_path):
    """Solve the allocation for the configured users."""
    spec = ExperimentSpec(kind="solve", config_path=config_path,
                          output_path=out_path)
    alloc = run_experiment(spec)["allocation"]
    click.echo(f"feasible: {alloc.case_tag}, antennas={alloc.antennas}, "
               f"mean_total_power={alloc.mean_total_power:.6g} W, "
               f"EE={alloc.energy_efficiency:.6g} bits/J")
    if not out_path:
        click.echo(alloc.to_json())


@main.command()
@click.option("--config", "config_path", required=True)
@click.option("--out", "out_path", default=None, help="Write report JSON here.")
@click.option("--seed", default=1, show_default=True, type=int)
@click.option("--frames", default=1_000_000, show_default=True, type=int)
@click.option("--streams", default=8, show_default=True, type=int)
@click.option("--workers", default=1, show_default=True, type=int)
@click.option("--eps-h", default=None, type=float,
              help="Override the dropping budget before solving.")
@click.option("--trace", "trace_path", default=None,
              help="Per-frame CSV trace (debugging; single stream only).")
def simulate(config_path, out_path, seed, frames, streams, workers, eps_h,
             trace_path):
    """Solve, then validate the policy with the Monte-Carlo simulator."""
    spec = ExperimentSpec(kind="simulate", config_path=config_path,
                          output_path=out_path, seed=seed, frames=frames,
                          streams=streams, workers=workers, eps_h=eps_h,
                          trace_path=trace_path)
    report = run_experiment(spec)["report"]
    if not out_path:
        click.echo(report.to_json())
    else:
        click.echo(f"achieved_eps_h={report.achieved_eps_h:.3e}  "
                   f"mean_tx_power={report.empirical_mean_tx_power:.6g} W  "
                   f"drop_events={report.drop_events}")
    if report.drop_events < MIN_DROP_EVENTS:
        click.echo(f"warning: only {report.drop_events} drop events observed; "
                   "the dropping probability is statistically unresolved at "
                   "this frame count", err=True)


@main.command("table-wth")
@click.option("--config", "config_path", required=True)
@click.option("--out", "out_path", required=True)
@click.option("--eps", "eps_text", default="1e-8,1e-7,1e-6,1e-5",
              show_default=True, help="Comma list of decoding-error targets.")
@click.option("--service-rate", default=1.0, show_default=True, type=float,
              help="Nominal service rate in packets/frame.")
def table_wth(config_path, out_path, eps_text, service_rate):
    """Bandwidth minimizer of the power kernel per error target."""
    spec = ExperimentSpec(kind="table_wth", config_path=config_path,
                          output_path=out_path,
                          eps_list=_parse_list(eps_text, float),
                          service_rate=service_rate)
    for eps, wth in run_experiment(spec)["rows"]:
        click.echo(f"eps_c={eps!r}  W_th={wth/1e6:.4f} MHz")


@main.command("table-drop")
@click.option("--config", "config_path", required=True)
@click.option("--out", "out_path", required=True)
@click.option("--eps", "eps_text", default="1e-4,1e-5", show_default=True,
              help="Comma list of required dropping probabilities.")
@click.option("--frames", default=10_000_000, show_default=True, type=int)
@click.option("--seed", default=1, show_default=True, type=int)
@click.option("--streams", default=8, show_default=True, type=int)
@click.option("--workers", default=1, show_default=True, type=int)
@click.option("--distance", default=250.0, show_default=True, type=float)
def table_drop(config_path, out_path, eps_text, frames, seed, streams,
               workers, distance):
    """Required vs achieved dropping probability (single-user protocol)."""
    spec = ExperimentSpec(kind="table_drop", config_path=config_path,
                          output_path=out_path,
                          eps_list=_parse_list(eps_text, float),
                          frames=frames, seed=seed, streams=streams,
                          workers=workers, distance=distance)
    for r in run_experiment(spec)["rows"]:
        note = "" if r["resolvable"] else "  [unresolvable: too few events]"
        click.echo(f"required={r['required_eps_h']!r}  "
                   f"achieved={r['achieved_eps_h']:.3e}  "
                   f"events={r['drop_events']}{note}")
        if not r["resolvable"]:
            click.echo(f"warning: {r['drop_events']} drop events < "
                       f"{MIN_DROP_EVENTS} at required "
                       f"eps_h={r['required_eps_h']!r}", err=True)


@main.command("sweep-antennas")
@click.option("--config", "config_path", required=True)
@click.option("--out", "out_path", required=True)
@click.option("--k-values", "k_text", default="5,10,20", show_default=True)
@click.option("--nt-min", default=2, show_default=True, type=int)
@click.option("--nt-max", default=64, show_default=True, type=int)
@click.option("--placement", default="grid", show_default=True,
              type=click.Choice(["grid", "uniform"]))
@click.option("--seed", default=1234, show_default=True, type=int)
def sweep_antennas(config_path, out_path, k_text, nt_min, nt_max, placement,
                   seed):
    """Mean total power vs antenna count, per user count."""
    spec = ExperimentSpec(kind="sweep_antennas", config_path=config_path,
                          output_path=out_path,
                          k_values=_parse_list(k_text, int),
                          nt_values=tuple(range(nt_min, nt_max + 1)),
                          placement=placement, seed=seed)
    loci = run_experiment(spec)["loci"]
    for k, locus in loci.items():
        if locus is None:
            click.echo(f"K={k}: no feasible antenna count in range")
        else:
            click.echo(f"K={k}: N_t*={locus[0]}  min power={locus[1]:.4f} W")


@main.command("sweep-users")
@click.option("--config", "config_path", required=True)
@click.option("--out", "out_path", required=True)
@click.option("--k-min", default=1, show_default=True, type=int)
@click.option("--k-max", default=30, show_default=True, type=int)
@click.option("--fixed-nt", "fixed_nt_text", default="8,16,32,64",
              show_default=True)
@click.option("--placement", default="grid", show_default=True,
              type=click.Choice(["grid", "uniform"]))
@click.option("--seed", default=1234, show_default=True, type=int)
def sweep_users(config_path, out_path, k_min, k_max, fixed_nt_text,
                placement, seed):
    """Energy efficiency vs user count: joint-optimal and fixed antennas."""
    spec = ExperimentSpec(kind="sweep_users", config_path=config_path,
                          output_path=out_path,
                          k_values=tuple(range(k_min, k_max + 1)),
                          fixed_nts=_parse_list(fixed_nt_text, int),
                          placement=placement, seed=seed)
    for k, ee_joint, fixed in run_experiment(spec)["rows"]:
        click.echo(f"K={k}: EE_joint={_show(ee_joint)}  " + "  ".join(
            f"EE[{nt}]={_show(fixed[nt])}" for nt in sorted(fixed)))


def _show(x):
    return "infeasible" if x is None else f"{x:.5g}"


if __name__ == "__main__":
    main()
