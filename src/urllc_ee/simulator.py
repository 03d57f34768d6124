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
update; channel draws and power statistics stay vectorized.  They run two
chunks ahead on two one-thread helpers, which take the (stream, user)
pairs in turn: while the walk runs a chunk, the helpers draw the next two
chunks of the run (numpy's samplers release the GIL), each pair's in
order on its helper, and hand over the arrivals as their frames and
counts.  The chunk
size ``_CHUNK`` and the draw order (per (stream, user) pair, each chunk's
gains, then its arrivals) are part of the output bytes; another chunking
draws other numbers.  One call of one loop, ``_walk``, walks a
pair's chunks with the queue state in local variables and visits arrival,
backlog and deep-fade frames in order; a deep fade (about one frame in a
million) runs ``_step``, the one-frame recursion with its drop, and every
other frame the nominal-rate service written inline.  Under ``simulate
--trace`` a chunk lists every frame where it lists the deep fades, so the
walk runs each frame through ``_step`` and writes its row from the backlog
that makes the tallies.  Packets of one arrival frame share their
queueing delay, so the walk looks at the frame once, on its deadline,
through a lag index into the window's arrival lists, which carry the
frames not yet due into the next window.  A cumulative-sum (Lindley) form
of the queue would round in a different order and so cannot reproduce
these bytes.

numpy, the helper threads' executor and ``csv`` are imported by the
functions that run on them, so a process that only solves never loads
them; a run with worker processes imports numpy before the pool forks, and
the workers inherit it.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass
from itertools import cycle, islice

from .model import (Allocation, ConfigError, QosBudget, SystemConfig,
                    UserProfile)
from .rate import achievable_rate
from .traffic import effective_bandwidth

_CHUNK = 1 << 20
# numpy's largest Poisson rate, which it computes in the same float steps
_POISSON_MAX = (2**63 - 1) - (2**63 - 1) ** 0.5 * 10
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


def _walk(chunks, up: UserPolicy, dq: int, cfg: SystemConfig, trace=None,
          u: int = 0) -> dict:
    """``_step`` over every frame of user ``u``'s pair in one stream,
    whose chunks ``chunks`` yields in order as ``_draw`` returns them;
    returns its tallies.  The walk takes a chunk ``_WINDOW`` frames at a
    time, skipping the frames that leave the state untouched: an empty
    queue, no arrival and no listed fade.  A frame at the nominal rate runs
    ``_step``'s float operations without the fade's ``- d`` and ``+ d``,
    exact no-ops there.  A frame the chunk lists with its gain runs
    ``_step``: every deep fade, and in a traced run every frame, whose row
    goes to ``trace``, a ``csv.writer``.

    Queueing delay is the waiting time until a packet's transmission
    starts (its own transmission frame is budgeted separately), so a
    packet departs once the cumulative outflow, dropped work included,
    covers the work queued ahead of it, or when the queue empties.  The
    outflow never decreases within a busy spell, so a packet of arrival
    frame t is late exactly when it has not departed by frame t + dq; the
    queue is backlogged until then, so the walk visits that frame.  ``arr``
    holds the spell's frames not yet due from earlier windows, then the
    window's arrival frames, all counted in the pair; the lag index ``li``
    marks its first one not yet due, ``lag_in`` packets into the spell.  A
    late packet counts once it departs, so not while queued at the end.
    """
    import numpy as np
    eb = up.service_rate_nominal
    q = served_sum = served_c = dropped = dropped_c = outflow = 0.0
    power_sum = power_c = 0.0
    arrivals = drop_events = deep_fades = busy = violations = lag_in = 0
    arr, counts = [], []  # the spell's arrival frames not yet due
    base = 0  # the pair's frame of the chunk's first frame
    for n, frames, ks, fades, gains, power_chunk in chunks:
        power_sum, power_c = _kahan(power_sum, power_c, power_chunk)
        arrivals += int(ks.sum())
        fi, next_fade = 0, base + fades[0]
        i = 0  # the chunk's first arrival frame not yet in a window
        for w in range(0, n, _WINDOW):
            j = int(np.searchsorted(frames, w + _WINDOW))
            li, ai = 0, len(arr)
            # each list made once, with the spell's frames not yet due in front
            new_counts = ks[i:j].tolist()
            new = (frames[i:j] + base).tolist()
            i = j
            new_counts[:0], counts = counts, new_counts
            new[:0], arr = arr, new
            arr.append(base + n)  # sentinel: no later arrival in the chunk
            next_arr = arr[ai]
            due = arr[0] + dq  # the deadline of arrival frame li
            f = base + w - 1
            stop = base + min(w + _WINDOW, n)
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
                    next_arr = arr[ai]
                else:
                    k = 0

                if f == next_fade:
                    g = gains[fi]
                    served, d, q = _step(q, g, k, up, cfg)
                    fi += 1
                    next_fade = base + fades[fi]
                    if g < up.gain_threshold:
                        deep_fades += 1
                        power = up.power_cap
                    else:  # a traced run lists every frame
                        power = up.inversion_coeff / g
                    if trace is not None:
                        trace.writerow((f, u, g, power, k, served, d, q))
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
                if q == 0.0:
                    # every packet of the spell departs; reset the flow
                    # baselines so the float counters never accumulate drift
                    li = ai
                    lag_in = 0
                    outflow = 0.0
                    due = next_arr + dq
                    continue
                if f == due:
                    upto = lag_in + counts[li]
                    c = _covered(outflow, upto)
                    violations += upto - (lag_in if lag_in > c else c)
                    lag_in = upto
                    li += 1
                    due = arr[li] + dq
            arr, counts = arr[li:ai], counts[li:ai]
        base += n
        # the chunk goes before the next one is taken
        del frames, ks

    inflow = lag_in + sum(counts)  # lag_in packets are past their deadline
    return {"arrivals": arrivals, "served": served_sum, "dropped": dropped,
            "drop_events": drop_events, "deep_fades": deep_fades,
            "busy_frames": busy,
            "departed": arrivals - inflow + _covered(outflow, inflow),
            "delay_violations": violations - lag_in
            + _covered(outflow, lag_in),
            "final_queue": q, "power_sum": power_sum}


def _draw(rng: np.random.Generator, antennas: int, up: UserPolicy, n: int,
          trace: bool) -> tuple:
    """One chunk of a (stream, user) pair's draws: ``n`` channel gains,
    then ``n`` arrival counts.  Returns ``n``, the arrival frames and their
    counts, the frames the walk runs through ``_step`` (the deep fades, or
    every frame if ``trace``) followed by the sentinel ``n``, their gains,
    and the sum of the transmit powers.  A traced chunk's gains are a
    memoryview of a float64 copy, 8 bytes a frame, whose items are Python
    floats as a list's are.  The powers overwrite the gains in place; they
    are the values ``np.where(deep, cap, coeff / g)`` gives, in a
    contiguous array of the same length, so their pairwise sum is the same
    too.
    """
    import numpy as np
    g = rng.standard_gamma(antennas, size=n)
    deep = g < up.gain_threshold
    if trace:
        fades, gains = range(n + 1), memoryview(g.copy())
    else:
        fades, gains = [*np.flatnonzero(deep).tolist(), n], g[deep].tolist()
    np.divide(up.inversion_coeff, g, out=g)
    np.copyto(g, up.power_cap, where=deep)
    power_sum = float(np.sum(g))
    # the gains go before the arrivals are drawn, and the arrivals leave as
    # their frames and counts, so no chunk's large arrays outlive its draw
    del g, deep
    a = rng.poisson(up.arrival_rate, size=n)
    frames = np.flatnonzero(a)
    return n, frames, a[frames], fades, gains, power_sum


def _ahead(futures):
    """The results of ``futures`` in order; a future is taken once the
    caller asks for the result two before it, so a generator that submits
    each as it is taken keeps two draws in flight while the caller walks."""
    ahead = deque()
    for future in futures:
        ahead.append(future)
        if len(ahead) == 3:
            yield ahead.popleft().result()
    while ahead:
        yield ahead.popleft().result()


def _run_streams(policy: SimPolicy, cfg: SystemConfig, jobs: list,
                 seed: int, trace=None) -> list:
    """Simulate every user of each ``(stream, frames)`` job; returns, per
    job, the per-user tallies.

    ``_walk`` walks each (stream, user) pair in one call while two
    one-thread helpers draw the next two chunks, of the same pair or the
    next ones.  A pair's chunks share its generator, so they go to one
    helper, which draws them in turn; the next pair goes to the other
    helper, so two pairs' draws run side by side.
    ``trace``, a ``csv.writer``, gets one row per frame as the walk makes
    it.
    """
    from concurrent.futures import ThreadPoolExecutor
    import numpy as np
    pairs = [(s, nf, u, up) for s, nf in jobs
             for u, up in enumerate(policy.users)]

    def draws(helpers):
        for (s, nf, u, up), helper in zip(pairs, cycle(helpers)):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(s, u))))
            for done in range(0, nf, _CHUNK):
                yield helper.submit(_draw, rng, policy.antennas, up,
                                    min(_CHUNK, nf - done), trace is not None)

    out = []
    with ThreadPoolExecutor(1) as one, ThreadPoolExecutor(1) as other:
        chunks = _ahead(draws((one, other)))
        for _, nf, u, up in pairs:
            if u == 0:
                out.append([])
            out[-1].append(_walk(islice(chunks, -(-nf // _CHUNK)), up,
                                 policy.queue_delay_frames, cfg, trace, u))
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
    drop_events: int
    deep_fade_count: int
    busy_frames: int
    served_count: float
    departed_count: int
    delay_violation_count: int
    final_queue: float
    per_user: list

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
    the result.  Each process draws on two helper threads that end with
    the call.  ``trace_path`` (one stream only) gets a CSV row per frame as
    the walk makes it; a run that raises leaves the rows written.
    """
    if frames < 1:
        raise ValueError("frames must be at least 1")
    if streams < 1:
        raise ValueError("streams must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if len(users) != len(policy.users):
        raise ValueError("policy and user list disagree on K")
    for u, up in enumerate(policy.users):
        if up.arrival_rate > _POISSON_MAX:
            raise ConfigError(
                f"user {u}: arrival rate {up.arrival_rate:.6g} packets/frame "
                f"is past the Poisson sampler's limit of {_POISSON_MAX:.6g}")

    if trace_path is not None and streams > 1:
        raise ValueError("per-frame tracing supports a single stream only")

    # streams past the frame count get no frame, so they make no job
    base, extra = divmod(frames, streams)
    jobs = [(s, base + (1 if s < extra else 0))
            for s in range(min(streams, frames))]
    if trace_path is not None:
        import csv  # off start-up
        with open(trace_path, "w", newline="") as fh:
            trace = csv.writer(fh)
            trace.writerow(["frame", "user", "gain", "tx_power_w", "arrivals",
                            "served", "dropped", "queue_after"])
            results = _run_streams(policy, cfg, jobs, seed, trace)
    elif workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # off start-up
        import numpy  # loaded before the fork, so no worker imports it
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
