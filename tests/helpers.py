"""Shared builders and brute-force oracles for the test suite."""

from __future__ import annotations

import heapq
import io
import json
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from gossip_aoi import Edge, GossipNetwork, LatticeBox, NodeSubset, as_subset, montecarlo
from gossip_aoi.lattice import RECURSION_CAP, Vertex
from gossip_aoi.moments import DEFAULT_MEMO_LIMIT, MomentTable, _memo_limit_error
from gossip_aoi.montecarlo import MomentEstimate, check_order
from gossip_aoi.reporting import csv_writer, json_ready
from gossip_aoi.simulate import (
    PILOT_REPLICAS,
    TIMEAVG_BATCHES,
    PendingReplicasError,
    estimate_moments_timeavg,
)

RATE_LOW = 0.2
RATE_HIGH = 5.0


def line_network(*rates: float) -> GossipNetwork:
    """Chain 0 -> 1 -> ... -> n with the given per-hop rates."""
    edges = tuple(Edge(i, i + 1, rate) for i, rate in enumerate(rates))
    return GossipNetwork(node_count=len(rates), edges=edges)


def star_network(*rates: float) -> GossipNetwork:
    """Source connected directly to nodes 1..n with the given rates."""
    edges = tuple(Edge(0, i + 1, rate) for i, rate in enumerate(rates))
    return GossipNetwork(node_count=len(rates), edges=edges)


def random_network(
    rng: np.random.Generator, n: int, p: float = 0.4, reachable: bool = False
) -> GossipNetwork:
    """Random directed network on nodes 0..n with rates uniform in [0.2, 5].

    With ``reachable`` a random arborescence from the source is laid down
    first, so every node (hence every subset) has a finite passage time.
    """
    edges: list[Edge] = []
    if reachable:
        informed = [0]
        for v in rng.permutation(np.arange(1, n + 1)):
            u = informed[int(rng.integers(len(informed)))]
            edges.append(Edge(u, int(v), float(rng.uniform(RATE_LOW, RATE_HIGH))))
            informed.append(int(v))
    present = {(e.from_node, e.to_node) for e in edges}
    for u in range(n + 1):
        for v in range(1, n + 1):
            if u != v and (u, v) not in present and rng.random() < p:
                edges.append(Edge(u, v, float(rng.uniform(RATE_LOW, RATE_HIGH))))
    return GossipNetwork(node_count=n, edges=tuple(edges))


def all_subsets(n: int) -> list[tuple[int, ...]]:
    """Every non-empty subset of {1..n} as sorted id tuples."""
    return [
        tuple(i + 1 for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)
    ]


def full_subset(net: GossipNetwork) -> NodeSubset:
    """Every non-source node of ``net``."""
    return NodeSubset.of(range(1, net.node_count + 1))


def simple_paths_to(net: GossipNetwork, subset: Iterable[int]) -> list[tuple[int, ...]]:
    """All simple source paths stopping at their first subset member, as
    edge-index tuples.  With positive weights the minimum passage time is
    attained on one of these."""
    s = net.check_subset(subset)
    paths: list[tuple[int, ...]] = []

    def walk(u: int, visited: frozenset[int], acc: list[int]) -> None:
        for v, edge_index, _ in net.out_edges[u]:
            if v in visited:
                continue
            if v in s:
                paths.append(tuple(acc + [edge_index]))
            else:
                walk(v, visited | {v}, acc + [edge_index])

    walk(0, frozenset({0}), [])
    return paths


def path_time(weights: np.ndarray, path: Iterable[int]) -> float:
    """Left-to-right weight sum of one path (same association as Dijkstra)."""
    total = 0.0
    for edge_index in path:
        total += float(weights[edge_index])
    return total


def brute_force_passage(
    net: GossipNetwork, weights: np.ndarray, subset: Iterable[int]
) -> float:
    """Minimum left-to-right path sum over all simple paths into the subset."""
    paths = simple_paths_to(net, subset)
    if not paths:
        return math.inf
    return min(path_time(weights, path) for path in paths)


@dataclass
class WeightSample:
    """One frozen draw of per-edge passage weights, aligned with net.edges."""

    weights: np.ndarray


def sample_weights(net: GossipNetwork, rng: np.random.Generator) -> WeightSample:
    """Draw independent Exp(lambda_e) weights for every edge."""
    u = rng.random(len(net.edges))
    return WeightSample(weights=-np.log1p(-u) / net.rates)


def first_passage_time(
    net: GossipNetwork, sample: WeightSample, subset: NodeSubset | Iterable[int]
) -> float:
    """Shortest weighted path time from the source to any subset member.

    Dijkstra with a binary heap; equal keys pop in node-id order.  Stops as
    soon as a subset member settles (the first one settled is the minimum).
    Returns +inf when no member is reachable.
    """
    s = net.check_subset(subset)
    if not s:
        raise ValueError("subset must be non-empty")
    weights = sample.weights
    if len(weights) != len(net.edges):
        raise ValueError(f"sample has {len(weights)} weights for {len(net.edges)} edges")
    n = net.node_count
    dist = [math.inf] * (n + 1)
    dist[0] = 0.0
    settled = [False] * (n + 1)
    heap: list[tuple[float, int]] = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if u in s:
            return d
        for v, edge_index, _ in net.out_edges[u]:
            nd = d + weights[edge_index]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return math.inf


def network_arcs(net: GossipNetwork) -> list[tuple[int, int, int]]:
    """(from, to, edge index) arcs of the network's edges."""
    return [(u, v, e) for e, (u, v, _) in enumerate(net.edges)]


def box_arcs(box: LatticeBox) -> list[tuple[int, int, int]]:
    """(from, to, edge index) arcs of the box: both directions of every
    edge, sharing its edge index."""
    return [arc for e, (i, j) in enumerate(box.edges) for arc in ((j, i, e), (i, j, e))]


def sample_major_distances(
    arcs: Iterable[tuple[int, int, int]], nodes: int, weights: np.ndarray, origin: int
) -> np.ndarray:
    """Reference relaxation of the (from, to, edge index) ``arcs`` on a
    (samples, edges) weight matrix, giving (samples, nodes) distances:
    Gauss-Seidel sweeps in node order, each node update gathering the
    columns of its in-arcs, grouped per node in arc order."""
    ins: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
    for u, v, e in arcs:
        ins[v].append((u, e))
    in_arcs = [(np.array([u for u, _ in lst], dtype=np.int64),
                np.array([e for _, e in lst], dtype=np.int64)) for lst in ins]
    samples = weights.shape[0]
    dist = np.full((samples, nodes), np.inf)
    dist[:, origin] = 0.0
    changed = True
    while changed:
        changed = False
        for v, (frm, eidx) in enumerate(in_arcs):
            if frm.size == 0:
                continue
            best = (dist[:, frm] + weights[:, eidx]).min(axis=1)
            upd = best < dist[:, v]
            if upd.any():
                dist[upd, v] = best[upd]
                changed = True
    return dist


def reference_power_sums(values: np.ndarray, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum of x^k, sum of x^(2k)) for k = 1..k_max, each power made by
    repeated multiplication from ones and kept in its own array."""
    powers = []
    p = np.ones_like(values)
    for _ in range(2 * k_max):
        p = p * values
        powers.append(p)
    return (np.array([powers[k - 1].sum() for k in range(1, k_max + 1)]),
            np.array([powers[2 * k - 1].sum() for k in range(1, k_max + 1)]))


def rate_into(net: GossipNetwork, node: int, subset: NodeSubset | Iterable[int]) -> float:
    """Total rate at which ``node`` updates the subset: sum of lambda_{node,v}
    over members v, and 0 by convention when ``node`` itself is a member."""
    s = net.check_subset(subset)
    if node in s:
        return 0.0
    return sum(rate for v, _, rate in net.out_edges[node] if v in s)


def boundary_edges(net: GossipNetwork, subset: NodeSubset | Iterable[int]) -> list[Edge]:
    """Edges that carry fresh information into the subset from non-source
    outside nodes: (u, v) with v a member, u neither a member nor the source.
    Returned in the canonical (from, to) order."""
    s = net.check_subset(subset)
    return [e for e in net.edges if e.to_node in s and e.from_node != 0 and e.from_node not in s]


def source_rate(net: GossipNetwork, subset: NodeSubset | Iterable[int]) -> float:
    """Total rate of direct source edges into the subset."""
    return rate_into(net, 0, subset)


def first_moment(
    net: GossipNetwork,
    subset: NodeSubset | Iterable[int],
    memo: dict[int, float] | None = None,
) -> float:
    """First moment by the dedicated first-moment recursion.

    Implements v_S = (1 + sum_e lambda_e * v_(S+e)) / (lambda_0(S) + sum_e lambda_e)
    directly, independent of the general solver; kept as a cross-check for
    its k = 1 row.  Pass a shared ``memo`` dict to amortize repeated queries
    against one network.
    """
    s = net.check_subset(subset)
    if not s:
        raise ValueError("subset must be non-empty")
    if memo is None:
        memo = {}
    source_edges = [(1 << v, rate) for u, v, rate in net.edges if u == 0]
    inner_edges = [(1 << u, 1 << v, rate) for u, v, rate in net.edges if u != 0]

    def value(mask: int) -> float:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        lam0 = 0.0
        for v_bit, rate in source_edges:
            if mask & v_bit:
                lam0 += rate
        boundary = [
            (rate, mask | u_bit)
            for u_bit, v_bit, rate in inner_edges
            if mask & v_bit and not mask & u_bit
        ]
        if not boundary:
            result = 1.0 / lam0 if lam0 > 0.0 else math.inf
        else:
            pushed = sum(rate * value(sup_mask) for rate, sup_mask in boundary)
            denom = lam0 + sum(rate for rate, _ in boundary)
            result = (1.0 + pushed) / denom
        memo[mask] = result
        return result

    return value(s.mask)


class MemoMomentSolver:
    """The subset moment recursion as a memoized recursion over bitmasks.

    Visits exactly the closure of each query and keeps its memo across
    queries.  Performs the same floating-point operations in the same order
    as ``MomentSolver`` (boundary edges in canonical edge order, accumulated
    left to right from 0.0), so the two agree bit for bit; kept as the
    reference for both of its queries.
    """

    def __init__(self, net: GossipNetwork, k_max: int, memo_limit: int = DEFAULT_MEMO_LIMIT):
        self.net = net
        self.k_max = check_order(k_max)
        self.memo_limit = memo_limit
        self._memo: dict[int, tuple[float, ...]] = {}
        self._zero_rate: set[int] = set()
        self._source_edges = [(1 << v, rate) for u, v, rate in net.edges if u == 0]
        self._inner_edges = [(1 << u, 1 << v, rate) for u, v, rate in net.edges if u != 0]

    @property
    def zero_rate_subsets(self) -> tuple[NodeSubset, ...]:
        return tuple(NodeSubset(m) for m in sorted(self._zero_rate))

    def solve(self, subset: NodeSubset | Iterable[int]) -> tuple[float, ...]:
        s = self.net.check_subset(subset)
        if not s:
            raise ValueError("subset must be non-empty")
        return self._vector(s.mask)

    def _vector(self, mask: int) -> tuple[float, ...]:
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        if len(self._memo) >= self.memo_limit:
            raise _memo_limit_error(self.memo_limit)
        lam0 = 0.0
        for v_bit, rate in self._source_edges:
            if mask & v_bit:
                lam0 += rate
        boundary = [
            (rate, mask | u_bit)
            for u_bit, v_bit, rate in self._inner_edges
            if mask & v_bit and not mask & u_bit
        ]
        vec = [1.0] * (self.k_max + 1)
        if not boundary:
            if lam0 > 0.0:
                for k in range(1, self.k_max + 1):
                    vec[k] = vec[k - 1] * k / lam0
            else:
                self._zero_rate.add(mask)
                for k in range(1, self.k_max + 1):
                    vec[k] = math.inf
        else:
            supersets = [self._vector(sup_mask) for _, sup_mask in boundary]
            # Plain left-to-right sums, not sum(): from Python 3.12 sum() of
            # floats is compensated, and MomentSolver must match bit for bit.
            brate = 0.0
            for rate, _ in boundary:
                brate += rate
            denom = lam0 + brate
            for k in range(1, self.k_max + 1):
                pushed = 0.0
                for (rate, _), sup in zip(boundary, supersets):
                    pushed += rate * sup[k]
                vec[k] = (k * vec[k - 1] + pushed) / denom
        result = tuple(vec)
        if len(self._memo) >= self.memo_limit:
            raise _memo_limit_error(self.memo_limit)
        self._memo[mask] = result
        return result


def cluster_arcs(box: LatticeBox) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per interior position: (interior positions of its interior
    neighbours, count of its boundary neighbours)."""
    pos = {v: p for p, v in enumerate(box.interior)}
    neighbours: list[list[int]] = [[] for _ in box.vertices]
    for u, v, _ in box_arcs(box):
        neighbours[v].append(u)
    out = []
    for i in box.interior:
        interior_nbs = []
        boundary_deg = 0
        for j in neighbours[i]:
            if box.boundary[j]:
                boundary_deg += 1
            else:
                interior_nbs.append(pos[j])
        out.append((tuple(interior_nbs), boundary_deg))
    return tuple(out)


def reference_box_recursion(box: LatticeBox, cluster: Iterable[Vertex]) -> float:
    """Expected Exp(1) passage time from the cluster to the box boundary.

    Memoized over clusters of interior vertices; returns 0 when the cluster
    already touches the boundary.  The direct lattice recursion, kept as the
    reference for ``box_recursion``.
    """
    seed_positions = []
    pos = {v: p for p, v in enumerate(box.interior)}
    members = list(cluster)
    if not members:
        raise ValueError("cluster must be non-empty")
    for v in members:
        v = tuple(int(c) for c in v)
        idx = box.index.get(v)
        if idx is None:
            raise ValueError(f"vertex {v} lies outside the box (d={box.d}, ell={box.ell})")
        if box.boundary[idx]:
            return 0.0
        seed_positions.append(pos[idx])
    if len(box.interior) > RECURSION_CAP:
        raise ValueError(
            f"interior has {len(box.interior)} vertices, above the recursion cap of "
            f"{RECURSION_CAP}; use mc_boundary_passage instead"
        )

    arcs = cluster_arcs(box)
    memo: dict[int, float] = {}

    def value(mask: int) -> float:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        edge_count = 0
        grown: list[int] = []
        p = 0
        m = mask
        while m:
            if m & 1:
                interior_nbs, boundary_deg = arcs[p]
                edge_count += boundary_deg
                for q in interior_nbs:
                    if not mask >> q & 1:
                        edge_count += 1
                        grown.append(mask | (1 << q))
            m >>= 1
            p += 1
        total = 1.0
        for sup_mask in grown:
            total += value(sup_mask)
        result = total / edge_count
        memo[mask] = result
        return result

    start = 0
    for p in seed_positions:
        start |= 1 << p
    return value(start)


# ---- event-driven simulation: the per-event reference ----------------------
#
# The trajectory state, the draw, the delivery, the pilot and the
# time-average loop as they stood before the simulator's list-based loops;
# the package must consume the RNG stream and add up the same floats exactly
# as these do.


class SimEvent(NamedTuple):
    """One applied event of a trajectory, as ``trace`` records it."""

    time: float
    edge: Edge
    old_timestamp: float
    new_timestamp: float


@dataclass
class SimState:
    """Mutable state of one trajectory: clock, per-node timestamps, and the
    time each node first held source-originated information (nan = not yet)."""

    now: float
    timestamps: list[float]
    informed_at: list[float]

    @property
    def received_from_source(self) -> list[bool]:
        return [not math.isnan(t) for t in self.informed_at]


def new_state(net: GossipNetwork) -> SimState:
    n = net.node_count + 1
    return SimState(now=0.0, timestamps=[0.0] * n, informed_at=[math.nan] * n)


def detect_t0(state: SimState, subset: NodeSubset | Iterable[int]) -> float | None:
    """Time the last subset member first became source-informed, None if pending."""
    s = as_subset(subset)
    if not s:
        raise ValueError("subset must be non-empty")
    times = [state.informed_at[u] for u in s]
    if any(math.isnan(t) for t in times):
        return None
    return max(times)


def _draw(state: SimState, net: GossipNetwork, rng: np.random.Generator,
          picks: np.random.Generator | None = None) -> tuple[float, int]:
    """Next event: (absolute time, edge index), its gap from ``rng`` and its
    uniform from ``picks`` (``rng`` again when None)."""
    total = net.total_rate
    if not total > 0.0:
        raise ValueError("network has no edges; the event clock never rings")
    t_next = state.now + rng.exponential(1.0 / total)
    u = (rng if picks is None else picks).random()
    return t_next, min(bisect_right(net.cumulative_rates, u * total), len(net.edges) - 1)


def _apply(state: SimState, net: GossipNetwork, edge_index: int, time: float) -> SimEvent:
    edge = net.edges[edge_index]
    u, v = edge.from_node, edge.to_node
    sent = time if u == 0 else state.timestamps[u]
    old = state.timestamps[v]
    new = max(old, sent)
    state.timestamps[v] = new
    if (u == 0 or sent > 0.0) and math.isnan(state.informed_at[v]):
        state.informed_at[v] = time
    state.now = time
    return SimEvent(time=time, edge=edge, old_timestamp=old, new_timestamp=new)


def reference_step(state: SimState, net: GossipNetwork, rng: np.random.Generator) -> SimEvent:
    """Advance by one event and apply it."""
    t_next, idx = _draw(state, net, rng)
    return _apply(state, net, idx, t_next)


def reference_pilot_t0(
    net: GossipNetwork,
    subset: NodeSubset | Iterable[int],
    replicas: int = PILOT_REPLICAS,
    seed: int = 0,
    event_cap: int = 1_000_000,
) -> list[float]:
    """Per-replica t_0 from pilot runs of one ``reference_step`` per event;
    the reference for ``pilot_t0`` on reachable subsets."""
    s = net.check_subset(subset)
    montecarlo.check_seed(seed)
    times = []
    for i in range(replicas):
        rng = montecarlo.block_rng(seed, montecarlo.STREAM_PILOT, i)
        state = new_state(net)
        for _ in range(event_cap):
            reference_step(state, net, rng)
            if detect_t0(state, s) is not None:
                break
        else:
            raise PendingReplicasError(
                f"pilot replica {i}: subset {s} still uninformed after {event_cap} events; "
                f"the source reaches every member, but the pilot simulated only about "
                f"{event_cap / net.total_rate:.3g} time units at Lambda = {net.total_rate:g}; "
                "give the horizon (or the burn-in) to skip the pilot"
            )
        times.append(detect_t0(state, s))
    return times


def run_until(
    state: SimState, net: GossipNetwork, horizon: float, rng: np.random.Generator
) -> SimState:
    """Advance the trajectory to exactly ``horizon``.

    Events strictly before the horizon are applied; the first draw at or past
    it is discarded (exact in law, by memorylessness of the clocks) and the
    clock is left at the horizon, so ages read off the returned state are
    ages at exactly the horizon.
    """
    if horizon < state.now:
        raise ValueError(f"horizon {horizon} lies before the current time {state.now}")
    while state.now < horizon:
        t_next, idx = _draw(state, net, rng)
        if t_next >= horizon:
            state.now = horizon
            break
        _apply(state, net, idx, t_next)
    return state


def age_of(state: SimState, subset: NodeSubset | Iterable[int]) -> float:
    """Minimum age over the subset at the state's current time."""
    s = as_subset(subset)
    if not s:
        raise ValueError("subset must be non-empty")
    return state.now - max(state.timestamps[u] for u in s)


def age_power_integral(start_age: float, duration: float, k: int) -> float:
    """Integral of (start_age + s)^k for s in [0, duration]."""
    return ((start_age + duration) ** (k + 1) - start_age ** (k + 1)) / (k + 1)


def reference_timeavg(
    net: GossipNetwork,
    subset: NodeSubset | Iterable[int],
    k_max: int,
    horizon: float,
    burn_in: float,
    seed: int = 0,
    batches: int = TIMEAVG_BATCHES,
    trace: Callable[[tuple[float, int, int, float]], Any] | None = None,
) -> list[MomentEstimate]:
    """Time-averaged raw age moments over [burn_in, horizon] of one trajectory,
    one ``_draw``/``_apply`` pair and numpy scalar sums per event; the
    reference for ``estimate_moments_timeavg``, whose trace rows it reports
    the same way.  Each event draws one scalar gap from cell
    (seed, STREAM_TIMEAVG, 0) and one scalar uniform from cell
    (seed, STREAM_TIMEAVG, 1)."""
    montecarlo.check_order(k_max)
    montecarlo.check_seed(seed)
    s = net.check_subset(subset)
    if not s:
        raise ValueError("subset must be non-empty")
    if batches < 2:
        raise ValueError(f"need at least 2 batches, got {batches}")
    if burn_in < 0 or not horizon > burn_in:
        raise ValueError(f"need 0 <= burn_in < horizon, got burn_in={burn_in}, horizon={horizon}")

    width = (horizon - burn_in) / batches
    sums = np.zeros((batches, k_max))

    def accumulate(a: float, b: float, held: float) -> None:
        lo = max(a, burn_in)
        hi = min(b, horizon)
        while lo < hi:
            j = min(int((lo - burn_in) / width), batches - 1)
            cut = min(hi, burn_in + (j + 1) * width)
            if cut <= lo:
                cut = hi
            for k in range(1, k_max + 1):
                sums[j, k - 1] += age_power_integral(lo - held, cut - lo, k)
            lo = cut

    gaps = montecarlo.block_rng(seed, montecarlo.STREAM_TIMEAVG, 0)
    picks = montecarlo.block_rng(seed, montecarlo.STREAM_TIMEAVG, 1)
    state = new_state(net)
    held = 0.0        # max timestamp over the subset, constant between events
    seg_start = 0.0
    while True:
        t_next, idx = _draw(state, net, gaps, picks)
        if t_next >= horizon:
            accumulate(seg_start, horizon, held)
            state.now = horizon
            break
        event = _apply(state, net, idx, t_next)
        if trace is not None:
            trace((event.time, event.edge.from_node, event.edge.to_node, event.new_timestamp))
        if event.edge.to_node in s and event.new_timestamp > held:
            accumulate(seg_start, t_next, held)
            held = event.new_timestamp
            seg_start = t_next

    t0 = detect_t0(state, s)
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

    batch_means = sums / width
    estimates = []
    for k in range(1, k_max + 1):
        col = batch_means[:, k - 1]
        mean = float(col.mean())
        se = float(col.std(ddof=1) / math.sqrt(batches))
        estimates.append(MomentEstimate(k=k, mean=mean, std_error=se, sample_count=batches))
    return estimates


def timeavg_trace(
    net: GossipNetwork, events: int, seed: int
) -> list[tuple[float, int, int, float]]:
    """The ``(time, from, to, new_timestamp)`` trace rows of the first
    ``events`` events that ``estimate_moments_timeavg`` applies on a
    trajectory at ``seed``; its horizon holds ten standard deviations more
    events on average, and the burn-in, half of it, lies past t_0."""
    trace: list[tuple[float, int, int, float]] = []
    horizon = (events + 10.0 * math.sqrt(events)) / net.total_rate
    estimate_moments_timeavg(net, full_subset(net), 1, horizon, horizon / 2, seed=seed,
                             trace=trace.append)
    if len(trace) < events:
        raise ValueError(f"trace holds {len(trace)} events, wanted {events}")
    return trace[:events]


# ---- replication: the array-kernel reference --------------------------------
#
# The replica-block kernel as it stood before the bucketed edge pick and the
# flat timestamp layout: one searchsorted per step and a 2-D timestamp
# array.  ``simulate._replication_draw`` must return the same arrays.


def reference_replication_draw(
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
    edge_from = np.array([e.from_node for e in net.edges], dtype=np.int64)
    edge_to = np.array([e.to_node for e in net.edges], dtype=np.int64)
    last = len(net.edges) - 1

    ts = np.zeros((size, net.node_count + 1))
    rows = np.arange(size)    # live replicas, ascending; t holds their clocks
    t = np.zeros(size)
    while rows.size:
        t = t + rng.exponential(1.0 / total, rows.size)
        eidx = np.minimum(np.searchsorted(cum, rng.random(rows.size) * total, side="right"), last)
        live = t < horizon
        if not live.all():
            rows, t, eidx = rows[live], t[live], eidx[live]
        u = edge_from[eidx]
        v = edge_to[eidx]
        sent = np.where(u == 0, t, ts[rows, u])
        ts[rows, v] = np.maximum(ts[rows, v], sent)

    out = []
    for ids in subset_ids:
        cols = ts[:, list(ids)]
        informed = (cols > 0.0).all(axis=1)
        out.append(horizon - cols.max(axis=1)[informed])
    return out


def reference_render_csv(header: Sequence[str], rows: Iterable[Sequence[Any]],
                         preamble: str = "") -> str:
    """CSV text of ``header`` and ``rows`` through ``reporting.csv_writer``,
    row by row: the bitwise reference for the column-wise ``render_csv``."""
    buf = io.StringIO()
    buf.write(preamble)
    writer = csv_writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def table_row(table: MomentTable, subset: NodeSubset | Iterable[int]) -> tuple[float, ...]:
    """v^0..v^K of ``subset`` from an exhaustive table, v^0 = 1."""
    return (1.0, *table.entries[as_subset(subset).mask // 2 - 1].tolist())


def table_map(table: MomentTable) -> dict[str, list[float]]:
    """The JSON ``table`` object built whole, label -> v^1..v^K for every
    row in row order: the reference for the row blocks that
    ``MomentTable.csv_rows`` gives both formats."""
    masks = range(2, 2 * len(table.entries) + 2, 2)   # row mask // 2 - 1 holds the subset mask
    labels = [",".join(map(str, NodeSubset(mask).ids())) for mask in masks]
    return dict(zip(labels, table.entries.tolist()))


def reference_render_json(document: dict[str, Any]) -> str:
    """``document`` whole through ``json_ready`` and ``json.dumps(indent=2)``,
    with the keys of every object sorted but those of a ``table``, which
    keep their row order: the bitwise reference for the JSON reports, whose
    table object is written block by block."""
    def ordered(value: Any, key: str | None = None) -> Any:
        if not isinstance(value, dict):
            return value
        items = value.items() if key == "table" else sorted(value.items())
        return {k: ordered(v, k) for k, v in items}

    return json.dumps(ordered(json_ready(document)), indent=2) + "\n"
