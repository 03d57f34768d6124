"""Frame-level Monte-Carlo validation of a solved allocation policy.

Per frame and user: draw a Gamma(n_antennas, 1) beamformed channel gain
(block fading, one independent draw per frame -- the ensemble
interpretation), draw Poisson arrivals, apply the channel-inversion power
policy with its cap, serve the queue at the nominal rate (or the reduced
finite-blocklength rate in deep fades, dropping the shortfall), and tally
dropping, delay violations and transmit power.

Streams are counter-based (Philox) and keyed by (seed, stream, user), so
results are a deterministic function of (policy, frames, seed, streams)
independent of execution order or parallelism degree.

The hot path skips frames that provably do nothing: a frame with an empty
queue, no arrivals and no deep fade leaves every counter unchanged, so only
event frames (and busy spells after them) run through the Python queue
update; channel draws and power statistics stay vectorized.  They run one
chunk ahead on a helper thread: while the walk runs a chunk, the helper
draws the next chunk of the run (numpy's samplers release the GIL).  The
chunk size ``_CHUNK`` and the draw order (per (stream, user) pair, each
chunk's gains, then its arrivals) are part of the output bytes; another
chunking draws other numbers.  One loop, ``_walk``, keeps the queue state
in local variables and visits arrival, backlog and deep-fade frames in
order; a deep fade (about one frame in a million) runs ``_step``, the
one-frame recursion with its drop, and every other frame the nominal-rate
service written inline.  ``simulate --trace`` takes its rows from
``_step`` and its tallies from the same walk.
Pending packets are kept as one entry per arrival frame, since packets of
one frame share their queueing delay; the walk looks at an entry once, on
its deadline frame, and most busy spells end before it.  A cumulative-sum
(Lindley) form of the queue would round in a different order and so
cannot reproduce these bytes.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import Allocation, QosBudget, SystemConfig, UserProfile
from .rate import achievable_rate
from .traffic import effective_bandwidth

_CHUNK = 1 << 20
# The walk turns a window's arrival frames into Python lists; walking a
# chunk window by window bounds that memory on busy queues.
_WINDOW = 1 << 16


@dataclass(frozen=True)
class UserPolicy:
    """Per-user slice of a simulation policy."""

    bandwidth: float
    gain_threshold: float
    power_cap: float
    service_rate_nominal: float  # effective bandwidth, packets/frame
    alpha: float
    arrival_rate: float  # packets/frame
    eps_c: float
    inversion_coeff: float  # N0 * W * gamma / alpha; tx power is this / g


@dataclass(frozen=True)
class SimPolicy:
    """Everything the simulator needs, lifted from an Allocation."""

    users: tuple[UserPolicy, ...]
    antennas: int
    queue_delay_frames: int

    @staticmethod
    def from_allocation(alloc: Allocation, cfg: SystemConfig,
                        users: list[UserProfile]) -> "SimPolicy":
        """The policy of a solve, with the QoS budget the solve resolved."""
        if len(users) != len(alloc.bandwidths):
            raise ValueError("allocation and user list disagree on K")
        qos = QosBudget(**alloc.extras["qos"])
        ups = []
        for k, usr in enumerate(users):
            ups.append(UserPolicy(
                bandwidth=alloc.bandwidths[k],
                gain_threshold=alloc.gain_thresholds[k],
                power_cap=alloc.power_caps[k],
                service_rate_nominal=effective_bandwidth(
                    usr.arrival_rate, qos.eps_q, qos.queue_delay_frames),
                alpha=usr.gain,
                arrival_rate=usr.arrival_rate,
                eps_c=qos.eps_c,
                inversion_coeff=(cfg.noise_psd * alloc.bandwidths[k]
                                 * alloc.snr_targets[k] / usr.gain),
            ))
        return SimPolicy(users=tuple(ups), antennas=alloc.antennas,
                         queue_delay_frames=qos.queue_delay_frames)


@dataclass
class QueueState:
    """Mutable per-user queue state and tallies for one stream.

    Packets are numbered from 0 in arrival order since the queue was last
    empty; ``inflow`` is the number the next arrival gets.  ``pending``
    holds one ``(deadline, start, end)`` entry per arrival frame of the
    busy spell, in FIFO order, whose deadline frame (arrival frame plus the
    queueing budget) the walk has not reached yet; packets ``start`` to
    ``end - 1`` arrived on that frame.
    """

    queue: float = 0.0
    arrivals: int = 0
    served: float = 0.0
    _served_c: float = 0.0  # Kahan compensation
    dropped: float = 0.0
    _dropped_c: float = 0.0
    drop_events: int = 0
    deep_fades: int = 0
    busy_frames: int = 0
    departed: int = 0
    delay_violations: int = 0
    inflow: int = 0
    outflow: float = 0.0
    pending: deque = field(default_factory=deque)


def _kahan(total: float, comp: float, x: float) -> tuple[float, float]:
    """Compensated ``total + x``; returns the new (total, compensation)."""
    y = x - comp
    t = total + y
    return t, (t - total) - y


def _deep_fade_rate(g: float, up: UserPolicy, cfg: SystemConfig) -> float:
    """Finite-blocklength service rate at the power cap, clamped at zero."""
    if g <= 0.0:  # measure-zero draw; nothing is deliverable
        return 0.0
    s = achievable_rate(up.power_cap, up.bandwidth, up.alpha, g,
                        up.eps_c, cfg)
    return s if s > 0.0 else 0.0


def _step(q: float, g: float, a: int, up: UserPolicy,
          cfg: SystemConfig) -> tuple[float, float, float]:
    """One frame of the queue recursion from backlog ``q`` at gain ``g``
    with ``a`` arrivals; returns (served, dropped, backlog after).

    In a deep fade (``g < up.gain_threshold``) the queue is served at the
    finite-blocklength rate at the power cap, and the shortfall versus the
    nominal rate is dropped, at most the backlog.  The cap rate can exceed
    the nominal one just below the threshold, in which case nothing is
    dropped.  With 0 <= dropped <= q and a non-negative rate, the backlog
    after is non-negative exactly in floats.
    """
    eb = up.service_rate_nominal
    d = 0.0
    if g < up.gain_threshold:
        capacity = _deep_fade_rate(g, up, cfg)
        if q > 0.0:
            d = eb - capacity
            if d > q:
                d = q
            if d < 0.0:
                d = 0.0
    else:
        capacity = eb
    avail = q + a - d
    served = capacity if capacity < avail else avail
    return served, d, avail - served


def _covered(outflow: float, end: int) -> int:
    """How many of packets ``0 .. end - 1`` have departed: packet i has
    departed once ``outflow > i - 1e-9``, which holds on a prefix."""
    i = int(outflow)  # outflow >= 0, so packet i - 1 has departed
    while outflow > i - 1e-9:
        i += 1
    return i if i < end else end


def _late_waiting(pend: deque, inflow: int, outflow: float) -> int:
    """The packets past their deadline that have not departed yet: those
    ahead of the first pending entry that ``outflow`` does not cover."""
    ahead = pend[0][1] if pend else inflow
    return ahead - _covered(outflow, ahead)


def _walk(state: QueueState, a: np.ndarray, fades: list, gains: list,
          up: UserPolicy, dq: int, base_frame: int,
          cfg: SystemConfig) -> None:
    """``_step`` over a chunk of frames with arrivals ``a`` and deep fades
    at the chunk frames ``fades`` (gains ``gains``), ``_WINDOW`` frames at
    a time, skipping the frames that leave the state untouched: an empty
    queue, no arrival and no deep fade.  The state lives in local
    variables for the whole chunk.  A frame at the nominal rate runs
    ``_step``'s float operations without the fade's ``- d`` and ``+ d``,
    exact no-ops there; a deep fade runs ``_step``.

    Queueing delay is the waiting time until a packet's transmission
    starts (its own transmission frame is budgeted separately), so a
    packet departs once the cumulative outflow, dropped work included,
    covers the work queued ahead of it, or when the queue empties.  The
    outflow never decreases within a busy spell, so a packet of arrival
    frame t is late exactly when it has not departed by frame t + dq; a
    pending entry means a backlog, so the walk visits that frame.  A late
    packet counts once it departs: the late packets still queued are left
    out of ``delay_violations`` between calls.
    """
    n = len(a)
    fades = [*fades, n]  # sentinel: the next deep fade is past the chunk
    eb = up.service_rate_nominal
    pend = state.pending
    q = state.queue
    arrivals = state.arrivals
    served_sum = state.served
    served_c = state._served_c
    dropped = state.dropped
    dropped_c = state._dropped_c
    drop_events = state.drop_events
    deep_fades = state.deep_fades
    busy = state.busy_frames
    inflow = state.inflow
    outflow = state.outflow
    violations = state.delay_violations + _late_waiting(pend, inflow, outflow)
    # chunk frame of the head's deadline (the next arrival sets it if none)
    due = pend[0][0] - base_frame if pend else -1
    fi = 0
    next_fade = fades[0]
    for w in range(0, n, _WINDOW):
        stop = min(w + _WINDOW, n)
        arr_frames = np.flatnonzero(a[w:stop])
        arr_frames += w
        counts = a[arr_frames].tolist()
        arr_frames = arr_frames.tolist()
        arr_frames.append(n)  # sentinel: the next arrival is past the chunk
        ai = 0
        next_arr = arr_frames[0]
        f = w - 1
        while True:
            if q > 0.0:
                f += 1
                if f >= stop:
                    break
                busy += 1
            else:
                f = next_arr if next_arr < next_fade else next_fade
                if f >= stop:
                    break
            if f == next_arr:
                k = counts[ai]
                ai += 1
                next_arr = arr_frames[ai]
            else:
                k = 0

            if f == next_fade:
                served, d, q = _step(q, gains[fi], k, up, cfg)
                fi += 1
                next_fade = fades[fi]
                deep_fades += 1
                if d > 0.0:
                    drop_events += 1
                    dropped, dropped_c = _kahan(dropped, dropped_c, d)
                if served > 0.0:
                    served_sum, served_c = _kahan(served_sum, served_c,
                                                  served)
                outflow += served + d
            else:
                avail = q + k
                served = eb if eb < avail else avail
                if served > 0.0:
                    # _kahan written out: a call per visited frame would
                    # cost more than the sum itself
                    y = served - served_c
                    t = served_sum + y
                    served_c = (t - served_sum) - y
                    served_sum = t
                q = avail - served
                outflow += served
            if k:
                arrivals += k
                if not pend:
                    due = f + dq
                pend.append((base_frame + f + dq, inflow, inflow + k))
                inflow += k
            if q == 0.0:
                # every pending packet departs; reset the flow baselines
                # so the float counters never accumulate drift
                pend.clear()
                inflow = 0
                outflow = 0.0
                continue
            if f == due:
                _, start, end = pend.popleft()
                c = _covered(outflow, end)
                violations += end - (start if start > c else c)
                due = pend[0][0] - base_frame if pend else -1

    state.queue, state.arrivals, state.busy_frames = q, arrivals, busy
    state.served, state._served_c = served_sum, served_c
    state.dropped, state._dropped_c = dropped, dropped_c
    state.drop_events, state.deep_fades = drop_events, deep_fades
    state.inflow, state.outflow = inflow, outflow
    state.departed = arrivals - inflow + _covered(outflow, inflow)
    state.delay_violations = violations - _late_waiting(pend, inflow, outflow)


def _draw(rng: np.random.Generator, antennas: int, up: UserPolicy, n: int,
          trace: bool) -> tuple:
    """One chunk of a (stream, user) pair's draws: ``n`` channel gains,
    then ``n`` arrival counts.

    Returns the arrival counts, the deep-fade frames, their gains, the
    transmit powers (None unless tracing) and the sum of the powers.  A
    traced chunk hands every frame's gain.  The powers overwrite the gains
    in place; they are the values ``np.where(deep, cap, coeff / g)`` gives,
    in a contiguous array of the same length, so their pairwise sum is the
    same too.
    """
    g = rng.standard_gamma(antennas, size=n)
    deep = g < up.gain_threshold
    fades = np.flatnonzero(deep)
    gains = g.tolist() if trace else g[fades].tolist()
    np.divide(up.inversion_coeff, g, out=g)
    np.copyto(g, up.power_cap, where=deep)
    power = g if trace else None
    power_sum = float(np.sum(g))
    # the gains go before the arrivals are drawn, so the chunk's two large
    # arrays are never live together
    del g, deep
    a = rng.poisson(up.arrival_rate, size=n)
    return a, fades.tolist(), gains, power, power_sum


def _run_streams(policy: SimPolicy, cfg: SystemConfig, jobs: list,
                 seed: int, trace=None) -> list:
    """Simulate every user of each ``(stream, frames)`` job; returns, per
    job, the per-user tallies.

    One loop walks every (stream, user, chunk) of the jobs in order while
    a helper thread makes the draws of the next one.  ``trace``, a
    ``csv.writer``, gets one row per frame as the walk makes it.
    """
    dq = policy.queue_delay_frames
    chunks = []
    for s, nf in jobs:
        for u, up in enumerate(policy.users):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(s, u))))
            chunks += [(u, up, rng, done, min(_CHUNK, nf - done))
                       for done in range(0, nf, _CHUNK)]
    chunks.append(None)  # sentinel: nothing left to draw

    out = []
    with ThreadPoolExecutor(max_workers=1) as helper:
        def draw(chunk):
            u, up, rng, done, n = chunk
            return helper.submit(_draw, rng, policy.antennas, up, n,
                                 trace is not None)

        ahead = draw(chunks[0])
        for chunk, nxt in zip(chunks, chunks[1:]):
            # unpacking frees the last chunk's arrays before the next draw
            # starts, so at most two chunks are live
            a, fades, gains, power, power_chunk = ahead.result()
            if nxt is not None:
                ahead = draw(nxt)
            u, up, _, done, n = chunk
            if done == 0:
                if u == 0:
                    out.append([])
                state = QueueState()
                power_sum = power_c = 0.0
            power_sum, power_c = _kahan(power_sum, power_c, power_chunk)
            if trace is not None:
                q = state.queue
                for i in range(n):
                    srv, drp, q = _step(q, gains[i], int(a[i]), up, cfg)
                    trace.writerow((done + i, u, gains[i], float(power[i]),
                                    int(a[i]), srv, drp, q))
                gains = [gains[f] for f in fades]
            _walk(state, a, fades, gains, up, dq, done, cfg)
            if nxt is None or nxt[3] == 0:  # the pair's last chunk
                out[-1].append({
                    "arrivals": state.arrivals,
                    "served": state.served,
                    "dropped": state.dropped,
                    "drop_events": state.drop_events,
                    "deep_fades": state.deep_fades,
                    "busy_frames": state.busy_frames,
                    "departed": state.departed,
                    "delay_violations": state.delay_violations,
                    "final_queue": state.queue,
                    "power_sum": power_sum,
                })
    return out


@dataclass
class SimReport:
    """Aggregated empirical estimates from one simulation run."""

    frames_run: int
    achieved_eps_h: float
    empirical_mean_tx_power: float
    empirical_delay_violation: float
    arrival_count: float
    drop_count: float
    rng_seed: int
    stream_count: int
    drop_events: int = 0
    deep_fade_count: int = 0
    busy_frames: int = 0
    served_count: float = 0.0
    departed_count: int = 0
    delay_violation_count: int = 0
    final_queue: float = 0.0
    per_user: list = field(default_factory=list)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["empirical_mean_tx_power_w"] = out.pop("empirical_mean_tx_power")
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def run_simulation(policy: SimPolicy, cfg: SystemConfig,
                   users: list[UserProfile], frames: int, seed: int,
                   streams: int = 1, workers: int = 1,
                   trace_path: str | None = None) -> SimReport:
    """Run the fading/queueing simulation and aggregate the tallies.

    ``frames`` are split as evenly as possible across ``streams``
    independent substreams (each restarts from an empty queue); ``workers``
    caps the worker processes, at most one per stream, and never changes
    the result.  Each process draws on one helper thread that ends with
    the call.  ``trace_path`` (one stream only) gets a CSV row per frame as
    the walk makes it; a run that raises leaves the rows written so far.
    """
    if frames < 1:
        raise ValueError("frames must be at least 1")
    if streams < 1:
        raise ValueError("streams must be at least 1")
    if len(users) != len(policy.users):
        raise ValueError("policy and user list disagree on K")

    if trace_path and (streams > 1):
        raise ValueError("per-frame tracing supports a single stream only")

    # streams past the frame count get no frame, so they make no job
    base, extra = divmod(frames, streams)
    jobs = [(s, base + (1 if s < extra else 0))
            for s in range(min(streams, frames))]
    if trace_path:
        with open(trace_path, "w", newline="") as fh:
            trace = csv.writer(fh)
            trace.writerow(["frame", "user", "gain", "tx_power_w", "arrivals",
                            "served", "dropped", "queue_after"])
            results = _run_streams(policy, cfg, jobs, seed, trace)
    elif workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # off start-up
        # a forked pool starts every worker at its first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            futures = [pool.submit(_run_streams, policy, cfg, [job], seed)
                       for job in jobs]
            results = [f.result()[0] for f in futures]
    else:
        results = _run_streams(policy, cfg, jobs, seed)

    per_user = results[0]
    for u, agg in enumerate(per_user):
        for res in results[1:]:
            for key in agg:
                agg[key] += res[u][key]
        agg["achieved_eps_h"] = (agg["dropped"] / agg["arrivals"]
                                 if agg["arrivals"] else 0.0)
        agg["mean_tx_power"] = agg["power_sum"] / frames

    arrivals = sum(pu["arrivals"] for pu in per_user)
    dropped = sum(pu["dropped"] for pu in per_user)
    violations = sum(pu["delay_violations"] for pu in per_user)
    return SimReport(
        frames_run=frames,
        achieved_eps_h=dropped / arrivals if arrivals else 0.0,
        empirical_mean_tx_power=sum(pu["power_sum"] for pu in per_user) / frames,
        empirical_delay_violation=violations / arrivals if arrivals else 0.0,
        arrival_count=float(arrivals),
        drop_count=dropped,
        rng_seed=seed,
        stream_count=streams,
        drop_events=sum(pu["drop_events"] for pu in per_user),
        deep_fade_count=sum(pu["deep_fades"] for pu in per_user),
        busy_frames=sum(pu["busy_frames"] for pu in per_user),
        served_count=sum(pu["served"] for pu in per_user),
        departed_count=sum(pu["departed"] for pu in per_user),
        delay_violation_count=violations,
        final_queue=sum(pu["final_queue"] for pu in per_user),
        per_user=per_user,
    )
