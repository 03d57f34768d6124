"""Output checks that hold on any seed.

The protocol's calls to ``solve_allocation`` and ``run_simulation`` are the
benchmark's operations.  ``record`` logs each one as an ``Op``; the checks
below mark an op failed when it raised unexpectedly or its output is wrong.
A ``QosInfeasibleError``/``PowerInfeasibleError`` is a legitimate outcome
when an independent recomputation agrees that the point is infeasible.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field

from urllc_ee.allocator import (CASE_LIMITED, allocate_bandwidth,
                                build_y_functions, power_thresholds)
from urllc_ee.model import (PowerInfeasibleError, QosInfeasibleError,
                            validate_config)

KKT_TOL = 1e-9
EE_REL_TOL = 1e-12
# Two-sided bounds at six standard errors: a correct program fails one of
# them with probability ~2e-9 per check.
Z = 6.0
LEGIT = (QosInfeasibleError, PowerInfeasibleError)


@dataclass
class Op:
    """One call into the program and its outcome."""

    kind: str
    args: tuple
    kwargs: dict
    seconds: float = 0.0
    result: object = None
    error: BaseException | None = None
    notes: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.notes)

    def fail(self, why: str) -> None:
        self.notes.append(why)


def record(ops: list, kind: str, fn):
    """Wrap ``fn`` so that each call appends a timed ``Op`` to ``ops``."""
    clock = time.perf_counter

    def recorded(*args, **kwargs):
        op = Op(kind, args, kwargs)
        ops.append(op)
        t0 = clock()
        try:
            op.result = fn(*args, **kwargs)
            return op.result
        except Exception as exc:
            op.error = exc
            raise
        finally:
            op.seconds = clock() - t0
    return recorded


def check_unexpected(ops: list) -> None:
    """Fail every op that raised something other than a named infeasibility."""
    for op in ops:
        if op.error is not None and not isinstance(op.error, LEGIT):
            op.fail(f"raised {type(op.error).__name__}: {op.error}")


def _csv_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))[1:]


def _ee_field(op: Op) -> str:
    return "nan" if op.error is not None else repr(op.result.energy_efficiency)


def check_sweep(cfg, ops: list, output: str, fixed_nts) -> None:
    """EE-vs-K sweep: KKT certificate, feasibility, dominance, CSV rows."""
    by_k: dict[int, dict] = {}
    for op in ops:
        users = op.args[1]
        by_k.setdefault(len(users), {})[op.kwargs.get("n_antennas")] = op
    rows = {int(r[0]): r[1:] for r in _csv_rows(output)}
    for k, group in by_k.items():
        joint = group.get(None)
        if joint is None or set(group) != {None, *fixed_nts}:
            for op in group.values():
                op.fail(f"K={k}: solves missing from the sweep")
            continue
        _check_k(cfg, joint, group, fixed_nts)
        want = [_ee_field(joint)] + [_ee_field(group[nt]) for nt in fixed_nts]
        if rows.get(k) != want:
            joint.fail(f"K={k}: CSV row {rows.get(k)} != solves {want}")
    extra = sorted(set(rows) - set(by_k))
    if extra and ops:
        ops[-1].fail(f"CSV rows for K={extra} have no solves")


def _check_k(cfg, joint: Op, group: dict, fixed_nts) -> None:
    users = joint.args[1]
    k = len(users)
    qos = validate_config(cfg, users)
    yfuncs = build_y_functions(cfg, qos, users)
    try:
        sol = allocate_bandwidth(yfuncs, cfg.total_bandwidth)
    except QosInfeasibleError:
        for op in group.values():
            if not isinstance(op.error, QosInfeasibleError):
                op.fail(f"K={k}: split is QoS-infeasible but the solve was not")
        return
    if sol.case_tag == CASE_LIMITED and not sol.kkt_residual <= KKT_TOL:
        joint.fail(f"K={k}: KKT residual {sol.kkt_residual:.3g} > {KKT_TOL}")
    for nt in fixed_nts:
        op = group[nt]
        caps = power_thresholds(sol, nt, cfg, yfuncs, qos.eps_h)[1]
        feasible = sum(caps) <= cfg.max_bs_power
        if feasible != (op.error is None) or isinstance(op.error,
                                                         QosInfeasibleError):
            op.fail(f"K={k}, N_t={nt}: feasible={feasible} but solve "
                    f"gave {type(op.error).__name__ if op.error else 'EE'}")
    if joint.error is not None:
        # 512 is solve_allocation's default antenna cap
        caps = power_thresholds(sol, 512, cfg, yfuncs, qos.eps_h)[1]
        if not (isinstance(joint.error, PowerInfeasibleError)
                and sum(caps) > cfg.max_bs_power):
            joint.fail(f"K={k}: joint solve raised {joint.error!r}")
        return
    alloc = joint.result
    if alloc.case_tag != sol.case_tag:
        joint.fail(f"K={k}: case {alloc.case_tag} != split {sol.case_tag}")
    if sum(alloc.power_caps) > cfg.max_bs_power:
        joint.fail(f"K={k}: joint power caps exceed the BS budget")
    ee = alloc.energy_efficiency
    for nt in fixed_nts:
        op = group[nt]
        if op.error is None and op.result.energy_efficiency > ee * (
                1 + EE_REL_TOL):
            op.fail(f"K={k}: EE at N_t={nt} beats the joint optimum")


def sim_pairs(ops: list) -> list[tuple[Op, Op]]:
    """(solve, simulate) pairs: each simulation with the solve before it."""
    pairs = []
    solve = None
    for op in ops:
        if op.kind == "solve":
            solve = op
        elif solve is not None:
            pairs.append((solve, op))
    return pairs


def check_simulation(solve: Op, sim: Op) -> None:
    """Mean power, arrivals and the dropping budget of one simulation."""
    if solve.error is not None or sim.error is not None:
        return  # already failed by check_unexpected
    alloc = solve.result
    report = sim.result
    users = sim.args[2]
    frames = sim.kwargs["frames"]
    n = alloc.antennas
    want = sum(alloc.mean_tx_powers)
    # Per frame the power is c/g with g ~ Gamma(n, 1), whose coefficient of
    # variation is 1/sqrt(n - 2); summing users only lowers it.  (n = 2 has
    # no finite variance without the power cap; no workload solves to it.)
    tol = Z / math.sqrt(max(n - 2, 1) * frames)
    gap = abs(report.empirical_mean_tx_power - want) / want
    if not gap <= tol:
        sim.fail(f"mean tx power off by {gap:.3g} relative (tol {tol:.3g})")
    for i, (usr, pu) in enumerate(zip(users, report.per_user)):
        mean = usr.arrival_rate * frames
        if not abs(pu["arrivals"] - mean) <= Z * math.sqrt(mean):
            sim.fail(f"user {i}: {pu['arrivals']} arrivals, expected "
                     f"{mean:.6g} +/- {Z * math.sqrt(mean):.3g}")
    if sum(pu["arrivals"] for pu in report.per_user) != report.arrival_count:
        sim.fail("per-user arrivals do not add up to the total")
    required = alloc.extras["qos"]["eps_h"]
    if not report.achieved_eps_h <= required:
        sim.fail(f"achieved eps_h {report.achieved_eps_h:.3g} > {required:g}")


def check_simulate_output(pairs, output: str) -> None:
    """The ``simulate`` protocol writes the report as JSON."""
    for _, sim in pairs:
        if sim.result is not None and output != sim.result.to_json() + "\n":
            sim.fail("report file differs from the returned report")


def check_drop_table_output(pairs, output: str) -> None:
    """The ``table_drop`` protocol writes one CSV row per simulation."""
    rows = _csv_rows(output)
    if len(rows) != len(pairs):
        for _, sim in pairs:
            sim.fail(f"{len(rows)} CSV rows for {len(pairs)} simulations")
        return
    for row, (solve, sim) in zip(rows, pairs):
        if sim.result is None or solve.result is None:
            continue
        rep = sim.result
        want = [repr(solve.result.extras["qos"]["eps_h"]),
                repr(rep.achieved_eps_h), str(rep.drop_events),
                str(rep.deep_fade_count), str(solve.result.antennas)]
        if row[:5] != want:
            sim.fail(f"CSV row {row} != simulation {want}")


def check_ops(workload: str, cfg, ops: list, output: str, fixed_nts=()) -> None:
    """Run every check of ``workload`` on the recorded ops."""
    check_unexpected(ops)
    solves = [op for op in ops if op.kind == "solve"]
    if workload == "sweep-users":
        check_sweep(cfg, solves, output, fixed_nts)
        return
    pairs = sim_pairs(ops)
    if not pairs:
        for op in ops:
            op.fail("no simulation ran")
    for solve, sim in pairs:
        check_simulation(solve, sim)
    if workload == "sim-busy":
        check_simulate_output(pairs, output)
    else:
        check_drop_table_output(pairs, output)
