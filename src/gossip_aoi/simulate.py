"""Event-driven simulation of the gossip process.

All edge clocks are superposed into one global exponential clock of rate
Lambda = sum of edge rates; each event picks edge e with probability
lambda_e / Lambda and delivers the sender's timestamp to the receiver, which
keeps the newer of the two (the source always sends the current time).  The
age of node u at time t is t - N_u(t) where N_u is its held timestamp.

Two estimators are provided for the steady-state age moments of a subset:
``replication_results`` (one observation per independent replica at a fixed
horizon, for several subsets sharing one replica set) and
``estimate_moments_timeavg`` (exact per-segment time integrals along a
single long trajectory, batch-means standard errors).
``replication_job`` makes the job that ``montecarlo.sample_moments`` runs;
a replica block is one draw: it returns each subset's ages at the horizon,
and the pipeline reduces them in block order; replicas the draw left out
are the subset's ``pending`` count.

The RNG streams fix the report bytes.  Each event takes one exponential
gap of mean 1 / Lambda and one uniform u, and picks the edge whose
cumulative-rate interval holds u * Lambda: the first threshold above it, as
``np.searchsorted(side="right")`` gives, and the last edge when u * Lambda
reaches Lambda.  The time average draws its gaps from cell
(seed, STREAM_TIMEAVG, 0) and its uniforms from cell (seed, STREAM_TIMEAVG, 1),
``EVENT_BLOCK`` of each per numpy call, and sums its event times left to
right, ``np.add.accumulate`` giving the same floats as ``now + gap``.
Consecutive draws from one stream continue it, so no report depends on
``EVENT_BLOCK``.  The pilot draws one (gap, uniform) pair per event, in that
order, from its replica's one Generator, and so draws nothing past t_0; the
replication kernel draws the pair as arrays, one entry per live replica.  A
change to the streams, to the order or the number of draws, to the pick rule
or to the order of the sums changes the reports.

The pilot and the time average feed their (time, sender, receiver) events to
one loop, ``_trajectory``, one call per trajectory.  The pilot's come from a
generator, one pair of draws per event; the time average's come from
``chain.from_iterable`` over one ``zip`` of three lists per block, so no
Python frame runs per event, and a block is drawn only once the one before
it is used up.  ``_trajectory`` holds its state in plain lists, floats and
one int mask and writes the delivery rule inline, so an event costs little
more than its draws.  The mask holds the subset members not yet
source-informed: a member is informed by the first delivery from the source
or of a positive timestamp, and the event that informs the last one gives
the trajectory's t_0.  The pilot stops there; the time average runs to its
horizon and gets the subset's newest timestamp one segment at a time, and a
``trace`` callable gets each applied event as it happens, one CSV row.

The replication kernel and the time average pick by the same rule without
a per-key binary search (``_edge_picker``).  It splits [0, Lambda) into
B = 4 x edges equal buckets, bucket(x) = min(int(x * scale), B - 1) with
scale = B / Lambda, and applies that one float expression to the keys and to
the thresholds ``rate_cumsum[:-1]``.  Rounding is monotone, so a threshold in
a lower bucket than x's lies below x and one in a higher bucket lies above
it: guide[b], the number of thresholds in buckets below b, never overshoots
the answer, and at most max-per-bucket steps ``idx += thresholds[idx] <= x``
(an ``inf`` pad ends the walk) reach it exactly.  No ulp guard is needed.
The replica block's timestamps sit in one flat array, replica r's node v at
``r * (nodes + 1) + v``, so each step's gather and max-scatter use 1-D
indices on the live rows' offsets.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import montecarlo
from .montecarlo import MomentEstimate
from .network import GossipNetwork, NodeSubset

PILOT_REPLICAS = 32
EVENT_BLOCK = 4096   # time-average events per numpy draw; no report depends on it
TIMEAVG_BATCHES = 30
TRACE_HEADER = ("time", "from", "to", "new_timestamp")   # a time-average trace row
PENDING_TOLERANCE = 0.01
EVENT_BUDGET = 10**9   # expected events above which a simulation is refused before it starts


class PendingReplicasError(RuntimeError):
    """Raised when too many replicas never become source-informed."""


def _event_rate(net: GossipNetwork) -> float:
    """Lambda, the rate of the superposed event clock; an error when it never rings or overflows."""
    total = net.total_rate
    if not total > 0.0:
        raise ValueError("network has no edges; the event clock never rings")
    if total == math.inf:
        raise OverflowError("the total edge rate Lambda overflows a float; rescale the rates")
    return total


def _check_budget(net: GossipNetwork, what: str, runs: int, horizon: float, lower: str) -> None:
    """Refuse ``runs`` simulations to ``horizon`` whose expected event count,
    runs x horizon x Lambda, exceeds ``EVENT_BUDGET``."""
    total = _event_rate(net)   # also caches the rate tables every block reads
    events = runs * horizon * total
    if events > EVENT_BUDGET:
        raise ValueError(
            f"{what} would take about {events:.3g} events (Lambda = {total:g}, horizon = "
            f"{horizon:g}), above the budget of {EVENT_BUDGET:.0e}; lower {lower}"
        )


def _check_horizon(horizon: float) -> None:
    """The one horizon rule of both estimators: positive, then finite."""
    if not horizon > 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if horizon == math.inf:
        raise ValueError(f"horizon must be finite, got {horizon}")


def _trajectory(
    net: GossipNetwork,
    s: NodeSubset,
    events: Iterable[tuple[float, int, int]],
    horizon: float = math.inf,
    until_t0: bool = False,
    segment: Callable[[float, float, float], Any] | None = None,
    trace: Callable[[tuple[float, int, int, float]], Any] | None = None,
) -> float | None:
    """Run one trajectory from all-zero timestamps; return its t_0, or None
    when some member of ``s`` was never source-informed.

    Each ``(time, sender, receiver)`` event is applied, until one reaches
    ``horizon``, the events run out or, with ``until_t0``, the event that
    informs the last member was.  ``segment(a, b, held)`` gets each stretch
    [a, b) over which the newest timestamp in ``s`` was ``held``, the last
    one ending at the horizon; ``trace`` gets each applied event.
    """
    member = [segment is not None and v in s for v in range(net.node_count + 1)]
    ts = [0.0] * (net.node_count + 1)
    remaining = s.mask    # members not yet source-informed
    t0 = None
    held = seg_start = 0.0
    for now, u, v in events:
        if now >= horizon:
            break
        # The source sends the current time, any other node its held
        # timestamp; v keeps the newer of the two.
        sent = now if u == 0 else ts[u]
        new = ts[v]
        if sent > new:
            new = ts[v] = sent
            # Only a member whose timestamp rose can raise the subset's newest.
            if member[v] and new > held:
                segment(seg_start, now, held)
                held = new
                seg_start = now
        if trace is not None:
            trace((now, u, v, new))
        # The first source-originated delivery to a member informs it.
        if remaining and remaining >> v & 1 and (u == 0 or sent > 0.0):
            remaining ^= 1 << v
            if not remaining:
                t0 = now
                if until_t0:
                    break
    if segment is not None:
        segment(seg_start, horizon, held)
    return t0


def _scalar_events(net: GossipNetwork, rng: np.random.Generator) -> Iterator[tuple[float, int, int]]:
    """The pilot's events: one (gap, uniform) pair per event from ``rng``,
    drawn only when the event is asked for, and one ``bisect_right`` pick."""
    total = net.total_rate
    mean_gap = 1.0 / total
    cumulative = net.cumulative_rates
    senders = [e.from_node for e in net.edges]
    receivers = [e.to_node for e in net.edges]
    # u * Lambda == Lambda bisects past the last threshold: pick the last edge.
    senders.append(senders[-1])
    receivers.append(receivers[-1])
    exponential, random = rng.exponential, rng.random
    now = 0.0
    while True:
        now += exponential(mean_gap)
        idx = bisect_right(cumulative, random() * total)
        yield now, senders[idx], receivers[idx]


# ---- pilot runs -----------------------------------------------------------


def pilot_t0(
    net: GossipNetwork,
    subset: NodeSubset | Iterable[int],
    replicas: int = PILOT_REPLICAS,
    seed: int = 0,
    event_cap: int = 1_000_000,
    check: Callable[[float], Any] | None = None,
) -> list[float]:
    """Per-replica t_0 from short pilot runs (run each replica until informed).

    A subset with a member that has no path from the source is never fully
    informed, and fails at once.  A replica still uninformed after
    ``event_cap`` events fails the pilot.  ``check`` gets each t_0 as it is
    found, and stops the pilot by raising.
    """
    s = net.check_subset(subset)
    montecarlo.check_seed(seed)
    if replicas < 1:
        raise ValueError(f"need at least 1 pilot replica, got {replicas}")
    total = _event_rate(net)
    cut_off = s.mask & ~net.reachable
    if cut_off:
        raise PendingReplicasError(
            f"pilot: subset {s} is never fully informed; nodes {NodeSubset(cut_off)} have no "
            "path from the source"
        )
    times = []
    for i in range(replicas):
        rng = montecarlo.block_rng(seed, montecarlo.STREAM_PILOT, i)
        t0 = _trajectory(net, s, islice(_scalar_events(net, rng), event_cap), until_t0=True)
        if t0 is None:
            raise PendingReplicasError(
                f"pilot replica {i}: subset {s} still uninformed after {event_cap} events; "
                f"the source reaches every member, but the pilot simulated only about "
                f"{event_cap / total:.3g} time units at Lambda = {total:g}; give the horizon "
                "(or the burn-in) to skip the pilot"
            )
        if check is not None:
            check(t0)
        times.append(t0)
    return times


def default_burn_in(
    net: GossipNetwork, subset: NodeSubset | Iterable[int], k_max: int, horizon: float, seed: int = 0
) -> float:
    """Twice the worst pilot t_0 — a conservative start for time averaging.
    The arguments are checked first, and the pilot stops at the first t_0
    whose burn-in :func:`check_timeavg` refuses."""
    check_timeavg(net, k_max, horizon, None)
    return 2.0 * max(pilot_t0(net, subset, seed=seed,
                              check=lambda t0: check_timeavg(net, k_max, horizon, 2.0 * t0)))


def default_horizon(
    net: GossipNetwork, subset: NodeSubset | Iterable[int], k_max: int, replicas: int, seed: int = 0
) -> float:
    """Three times the worst pilot t_0 — the default replication horizon.
    The arguments are checked first, and the pilot stops at the first t_0
    whose horizon :func:`check_replication` refuses."""
    check_replication(net, k_max, replicas, None)
    return 3.0 * max(pilot_t0(net, subset, seed=seed,
                              check=lambda t0: check_replication(net, k_max, replicas, 3.0 * t0)))


# ---- replication estimator ------------------------------------------------


@dataclass(frozen=True)
class ReplicationResult:
    """Per-subset replication outcome; pending replicas are excluded from the
    estimates and reported in ``pending``."""

    estimates: tuple[MomentEstimate, ...]
    replicas: int
    pending: int

    @classmethod
    def from_group(cls, replicas: int, group: tuple[int, list[MomentEstimate]]) -> ReplicationResult:
        """The result of one subset's (kept count, estimates) group of a
        ``replicas``-replica job."""
        kept, estimates = group
        return cls(estimates=tuple(estimates), replicas=replicas, pending=replicas - kept)


def _edge_picker(cum: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The pilot's edge pick for arrays: map keys x = u * Lambda to edge indices.

    Returns ``min(searchsorted(cum, x, side="right"), last)`` exactly, via a
    guide table over ``4 * edges`` equal buckets of [0, Lambda) and a few
    bounded forward steps; the module docstring says why it is exact.
    """
    thresholds = cum[:-1]
    buckets = 4 * len(cum)
    # Any positive finite scale keeps the pick exact; the cap only matters
    # when Lambda is so small that buckets / Lambda overflows.
    scale = min(buckets / float(cum[-1]), np.finfo(np.float64).max)

    def bucket(x: np.ndarray) -> np.ndarray:
        return np.minimum((x * scale).astype(np.intp), buckets - 1)

    held = bucket(thresholds)
    guide = np.searchsorted(held, np.arange(buckets), side="left")
    passes = int(np.bincount(held, minlength=1).max())
    padded = np.append(thresholds, np.inf)

    def pick(x: np.ndarray) -> np.ndarray:
        idx = guide[bucket(x)]
        for _ in range(passes):
            idx += padded[idx] <= x
        return idx

    return pick


def _edge_ends(net: GossipNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Each edge's sender and receiver, as index arrays."""
    return (np.array([e.from_node for e in net.edges], dtype=np.intp),
            np.array([e.to_node for e in net.edges], dtype=np.intp))


def _replication_draw(
    net: GossipNetwork,
    subset_ids: tuple[tuple[int, ...], ...],
    horizon: float,
    rng: np.random.Generator,
    size: int,
) -> list[np.ndarray]:
    """Simulate one replica block; per subset return the ages at the horizon
    of the replicas whose t_0 arrived before it."""
    cum = net.rate_cumsum
    total = float(cum[-1])
    pick = _edge_picker(cum)
    edge_from, edge_to = _edge_ends(net)
    from_source = edge_from == 0
    width = net.node_count + 1

    ts = np.zeros(size * width)     # replica r's node v at ts[r * width + v]
    base = np.arange(0, size * width, width)    # row offsets of the live replicas
    t = np.zeros(size)                          # and their clocks
    while base.size:
        t = t + rng.exponential(1.0 / total, base.size)
        eidx = pick(rng.random(base.size) * total)
        live = t < horizon
        if not live.all():
            base, t, eidx = base[live], t[live], eidx[live]
        sent = np.where(from_source[eidx], t, ts.take(base + edge_from[eidx]))
        dst = base + edge_to[eidx]
        ts[dst] = np.maximum(ts.take(dst), sent)

    ts = ts.reshape(size, width)
    out = []
    for ids in subset_ids:
        cols = ts[:, list(ids)]
        informed = (cols > 0.0).all(axis=1)
        out.append(horizon - cols.max(axis=1)[informed])
    return out


def check_replication(net: GossipNetwork, k_max: int, replicas: int, horizon: float | None) -> None:
    """Check the replication arguments before any work; a horizon of None,
    one still to be resolved by the pilot, checks the order and the replica
    count.  A replication over the event budget is refused."""
    montecarlo.check_order(k_max)
    if replicas < 2:
        raise ValueError(f"need at least 2 replicas, got {replicas}")
    if horizon is None:
        return
    _check_horizon(horizon)
    _check_budget(net, f"replication of {replicas} replicas", replicas, horizon,
                  "the horizon or the replicas")


def replication_job(
    net: GossipNetwork, subsets: Sequence[NodeSubset], k_max: int, replicas: int, horizon: float
) -> montecarlo.Job:
    """The pipeline job that simulates ``replicas`` replicas to ``horizon``,
    one group per subset (checked and distinct) holding its ages there."""
    check_replication(net, k_max, replicas, horizon)
    draw = partial(_replication_draw, net, tuple(s.ids() for s in subsets), horizon)
    return draw, k_max, replicas, montecarlo.REPLICATION_BLOCK, montecarlo.STREAM_REPLICATION


def replication_results(
    net: GossipNetwork,
    subsets: Iterable[NodeSubset | Iterable[int]],
    k_max: int,
    replicas: int,
    horizon: float,
    seed: int = 0,
    workers: int = 1,
) -> dict[NodeSubset, ReplicationResult]:
    """Raw age moments at the horizon for several subsets sharing one set of
    replicas, keyed by checked subset, duplicates dropped.

    The horizon should sit well past t_0 (see :func:`pilot_t0`).  Replicas
    that have not informed a subset by then are left out of its estimates
    and counted in its ``pending``, which :func:`check_pending` gates.
    """
    checked = list(dict.fromkeys(map(net.check_subset, subsets)))
    job = replication_job(net, checked, k_max, replicas, horizon)
    [groups] = montecarlo.sample_moments([job], seed, workers)
    return {s: ReplicationResult.from_group(replicas, group) for s, group in zip(checked, groups)}


def check_pending(result: ReplicationResult, subset: NodeSubset, horizon: float) -> None:
    """Raise when more than ``PENDING_TOLERANCE`` of the replicas never fully
    informed the subset by the horizon."""
    if result.pending > PENDING_TOLERANCE * result.replicas:
        raise PendingReplicasError(
            f"{result.pending} of {result.replicas} replicas never fully informed subset "
            f"{subset} by horizon {horizon}; raise the horizon"
        )


# ---- time-average estimator ------------------------------------------------


def check_timeavg(net: GossipNetwork, k_max: int, horizon: float, burn_in: float | None,
                  batches: int = TIMEAVG_BATCHES) -> None:
    """Check the time-average arguments before any work.

    A burn-in of None, one still to be resolved by the pilot, checks only
    the horizon.  A run over the event budget is refused.
    """
    montecarlo.check_order(k_max)
    if batches < 2:
        raise ValueError(f"need at least 2 batches, got {batches}")
    _check_horizon(horizon)
    if burn_in is not None and not 0 <= burn_in < horizon:
        raise ValueError(f"need 0 <= burn_in < horizon, got burn_in={burn_in}, horizon={horizon}")
    _check_budget(net, "the time average", 1, horizon, "the horizon")


def _block_events(net: GossipNetwork, seed: int) -> Iterator[Iterator[tuple[float, int, int]]]:
    """The time average's events, one block of ``EVENT_BLOCK`` at a time:
    gaps from cell (seed, STREAM_TIMEAVG, 0) and edge-pick uniforms from
    cell (seed, STREAM_TIMEAVG, 1).  A block is drawn when the one before
    it has been used up."""
    gaps = montecarlo.block_rng(seed, montecarlo.STREAM_TIMEAVG, 0)
    picks = montecarlo.block_rng(seed, montecarlo.STREAM_TIMEAVG, 1)
    cum = net.rate_cumsum
    total = float(cum[-1])
    pick = _edge_picker(cum)
    senders, receivers = _edge_ends(net)
    now = 0.0
    while True:
        times = gaps.exponential(1.0 / total, EVENT_BLOCK)
        times[0] += now
        np.add.accumulate(times, out=times)
        idx = pick(picks.random(EVENT_BLOCK) * total)
        yield zip(times.tolist(), senders.take(idx).tolist(), receivers.take(idx).tolist())
        now = float(times[-1])


def estimate_moments_timeavg(
    net: GossipNetwork,
    subset: NodeSubset | Iterable[int],
    k_max: int,
    horizon: float,
    burn_in: float,
    seed: int = 0,
    batches: int = TIMEAVG_BATCHES,
    trace: Callable[[tuple[float, int, int, float]], Any] | None = None,
) -> list[MomentEstimate]:
    """Time-averaged raw age moments over [burn_in, horizon] of one trajectory.

    Between events the age grows linearly, so each segment contributes its
    exact integral; standard errors come from batch means over ``batches``
    equal windows.  A burn-in shorter than the trajectory's t_0 is flagged
    with a warning.  A ``trace`` callable gets one ``TRACE_HEADER`` row,
    ``(time, from, to, new_timestamp)``, per applied event, as it happens.
    """
    check_timeavg(net, k_max, horizon, burn_in, batches)
    montecarlo.check_seed(seed)
    s = net.check_subset(subset)

    width = (horizon - burn_in) / batches
    ends = [burn_in + (j + 1) * width for j in range(batches)]   # each batch window's end
    last = batches - 1
    sums = [[0.0] * k_max for _ in range(batches)]   # Python floats: the same adds as float64
    powers = tuple(enumerate(range(2, k_max + 2)))

    def accumulate(a: float, b: float, held: float) -> None:
        # The age runs from start to end over [lo, cut): add the integral
        # of age^k, (end^(k+1) - start^(k+1)) / (k+1), for each order k.
        # The conditionals are max(a, burn_in), min(b, horizon) and
        # min(j, last), and pick the same operand on a tie (so -0.0 stays).
        lo = burn_in if burn_in > a else a
        hi = horizon if horizon < b else b
        while lo < hi:
            j = int((lo - burn_in) / width)
            if j > last:
                j = last
            cut = ends[j]
            if not lo < cut < hi:   # min(hi, cut), and hi when that is not past lo
                cut = hi
            row = sums[j]
            start = lo - held
            end = start + (cut - lo)
            try:
                for i, p in powers:
                    row[i] += (end ** p - start ** p) / p
            except OverflowError:   # a float power out of range: an infinite mean, refused below
                row[i] = math.inf
            lo = cut

    events = chain.from_iterable(_block_events(net, seed))   # no Python frame per event
    t0 = _trajectory(net, s, events, horizon, segment=accumulate, trace=trace)
    if t0 is None:
        warnings.warn(
            f"subset {s} never became source-informed within the horizon {horizon}",
            RuntimeWarning,
            stacklevel=2,
        )
    elif t0 > burn_in:
        warnings.warn(
            f"burn-in {burn_in} ends before t_0 = {t0:.6g}; early-window bias likely",
            RuntimeWarning,
            stacklevel=2,
        )

    batch_means = (np.array(sums) / width).T
    # An overflow is refused when it reaches a mean; squares of finite batch
    # means that overflow give an infinite SE, which a compare row fails.
    with np.errstate(over="ignore"):
        means = [float(col.mean()) for col in batch_means]
        if math.inf in means:   # every age is finite: a float overflow
            k = means.index(math.inf) + 1
            raise OverflowError(f"time average v^{k} of subset {s} overflows a float; "
                                "rescale the rates")
        ses = [float(col.std(ddof=1) / math.sqrt(batches)) for col in batch_means]
    return [MomentEstimate(k=k, mean=mean, std_error=se, sample_count=batches)
            for k, (mean, se) in enumerate(zip(means, ses), start=1)]
