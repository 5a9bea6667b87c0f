"""Static first-passage view of the gossip process.

Freezing one exponential draw w_e ~ Exp(lambda_e) per edge turns the network
into a weighted digraph whose shortest-path time from the source to a subset
(minimum over members) has exactly the steady-state age distribution of that
subset.  Sampling passage times over many independent weight draws therefore
estimates the same moments the exact solver computes — by a completely
different route, which is what makes the two useful as checks on each other.

Weights are drawn by inverse transform, w = -ln(1 - U)/lambda_e with U
uniform on [0, 1), so a weight is finite and non-negative.

A block of samples is drawn and relaxed one tile of samples at a time,
node-major: a tile's weights are an (edges, tile) array and its distances a
(nodes, tile) array, so every arc update in ``relax`` is a whole-row add and
minimum over contiguous memory, with no gather, and the working set of a
block does not grow with the block.  ``tile_samples`` sizes the tile from
the graph: as many samples as fill ``TILE_BYTES`` with weights and
distances, but never fewer than ``TILE``.  On a small graph the tiles are
long, so each numpy call does enough work to run while another thread holds
the GIL; a graph of 256 rows or more (the d = 8, l = 2 lattice box has 401)
gets tiles of ``TILE`` samples.  Each tile's group minima go straight into
the block's output arrays.  The uniforms are drawn in (samples, edges)
row-major order, because that order fixes which RNG output lands on which
(sample, edge) cell; ``exp_weights`` transposes them into the node-major
buffer as it draws.  Consecutive draws continue one stream and relaxation is
per sample, so the tile size changes no bit of the result.  The lattice
sampler runs the same draw with unit rates.

Once per job, ``relax_plan`` turns the graph's (tail, head, edge index)
arcs, an origin and the job's groups into the plan that every block reads:
the arcs that can move a group minimum, ordered breadth first from the
origin, with the groups themselves; its docstring gives the rules.
``relax`` makes one pass in that order over the forward arcs; when no kept
arc points backward, that pass is exact and the only one.  Otherwise a
worklist follows: a node is read again only over the in-arcs whose tail row
dropped since it last read them.  The group minimum is a running
``np.minimum`` over the member rows.

``passage_job`` makes the job that ``montecarlo.sample_moments`` runs; each
block is one draw: it returns every subset's passage times, and the pipeline
turns them into power sums and adds those in block order.
``estimate_moments``, the route's one entry point, runs that job for a list
of subsets and returns their estimates by subset.  Reachability is a
property of the graph, since every weight is finite: a subset with no member
reachable from the source raises ``UnreachableTargetError`` when the job is
made, before any block is drawn, and every other subset's passage times are
finite.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import montecarlo
from .montecarlo import MomentEstimate
from .network import GossipNetwork, NodeSubset


# Samples drawn per rng.random call in exp_weights; any value gives the same
# weights, since consecutive calls continue one stream.
DRAW_ROWS = 256
# Samples drawn and relaxed at once by passage_draw: as many as fill
# TILE_BYTES with a tile's weights and distances, (edges + nodes) * 8 bytes
# per sample whatever the block size, but at least TILE.  Any values give
# the same bytes.
TILE = 2048
TILE_BYTES = 4 << 20


class UnreachableTargetError(RuntimeError):
    """Raised when no subset member has a path from the source, so every
    passage time is infinite."""


def tile_samples(edges: int, nodes: int) -> int:
    """Samples per tile on a graph of ``edges`` weight rows and ``nodes``
    distance rows."""
    return max(TILE, TILE_BYTES // (8 * (edges + nodes)))


def exp_weights(rng: np.random.Generator, samples: int, rates: np.ndarray) -> np.ndarray:
    """Exp(rate) weights as a C-contiguous (edges, samples) array.

    The uniforms come out of ``rng`` exactly as one (samples, edges)
    row-major draw would, but DRAW_ROWS samples at a time, each chunk
    transposed into its columns of the result; so no full-size draw is ever
    alive beside the weights, and the transpose stays in cache.
    """
    edges = len(rates)
    weights = np.empty((edges, samples))
    for start in range(0, samples, DRAW_ROWS):
        u = rng.random((min(DRAW_ROWS, samples - start), edges))
        np.negative(u.T, out=weights[:, start : start + len(u)])
    np.log1p(weights, out=weights)
    with np.errstate(over="ignore"):   # an overflowed weight is +inf; its moment is refused
        weights /= -rates[:, None]   # -a / r, as (-a) / r == a / (-r) bit for bit
    return weights


class RelaxPlan(NamedTuple):
    """What ``relax`` and ``passage_draw`` need of a graph, an origin and
    groups of nodes, built once per job by ``relax_plan``, whose docstring
    gives the fields."""

    nodes: int
    order: tuple[int, ...]
    ahead: tuple[tuple[tuple[int, int], ...], ...]
    behind: dict[int, tuple[tuple[int, int], ...]]
    out: tuple[tuple[tuple[int, int], ...], ...]
    groups: tuple[tuple[int, ...], ...]


def relax_plan(
    arcs: Iterable[tuple[int, int, int]], nodes: int, origin: int, groups: Sequence[Sequence[int]]
) -> RelaxPlan:
    """The plan that relaxes the (tail, head, edge index) ``arcs`` between
    nodes 0..nodes-1 from ``origin``, for the minima over ``groups``.

    Only the arcs that can move a group minimum are kept: every arc out of a
    node that lies in every group drops.  A path that reaches a member
    through such a node reaches that node first, at a time no later, since
    fl(a + w) >= a for w >= 0; so a best path to a group can be cut at its
    first member, and every group minimum keeps its bits.  With no groups
    there is no minimum to keep, and every arc drops.

    A node's position is its place in ``order``, the nodes the origin
    reaches over the kept arcs, breadth first, the origin at 0.  For the
    node at position p, ``ahead[p]`` holds the (tail position, edge index)
    in-arcs from earlier positions, never empty for p >= 1, since it holds
    the node's breadth-first parent; ``behind`` maps p to its other in-arcs,
    when it has any, and ``out[p]`` holds the (head position, edge index)
    arcs out of it.  Arcs into the origin and from nodes it cannot reach are
    left out.  A node's in-arcs keep the order of ``arcs``, and ``groups``
    the order given.
    """
    common = set(range(nodes)).intersection(*groups)
    ins: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
    for u, v, e in arcs:
        if u not in common:
            ins[v].append((u, e))
    succ: list[list[int]] = [[] for _ in range(nodes)]
    for v, tails in enumerate(ins):
        for u, _ in tails:
            succ[u].append(v)
    rank = {origin: 0}
    order = [origin]
    for u in order:   # breadth first: the loop reaches what it appends
        for v in succ[u]:
            if v not in rank:
                rank[v] = len(order)
                order.append(v)
    ahead: list[tuple[tuple[int, int], ...]] = [()]
    behind = {}
    out: list[list[tuple[int, int]]] = [[] for _ in order]
    for p, v in enumerate(order[1:], start=1):
        kept = [(rank[u], e) for u, e in ins[v] if u in rank]
        ahead.append(tuple(arc for arc in kept if arc[0] < p))
        if len(ahead[p]) < len(kept):
            behind[p] = tuple(arc for arc in kept if arc[0] >= p)
        for q, e in kept:
            out[q].append((p, e))
    return RelaxPlan(nodes, tuple(order), tuple(ahead), behind, tuple(map(tuple, out)),
                     tuple(map(tuple, groups)))


def relax(plan: RelaxPlan, weights: np.ndarray) -> np.ndarray:
    """Shortest-path distances from the plan's origin for every sample of a
    tile.

    ``weights`` is (edges, samples) and the result is (nodes, samples), +inf
    where a node is unreachable.  The origin's row is 0, since fl(a + w) >= 0.

    One pass visits the nodes in breadth-first order and sets each row to
    the minimum over its forward in-arcs, whose tails it has already set.
    When no kept arc points backward (on a tree, say, or when every arc runs
    from one breadth-first layer to the next), the graph is acyclic, every
    node's in-neighbours are final before it is visited, and that pass is
    exact and the only one.  Otherwise each node with backward in-arcs is
    pending over them, and the pending nodes are read in sweeps in that
    order, each over its pending arcs alone.  When a read lowers a row in
    any sample, each arc out of it becomes pending at its head, in this
    sweep if the head lies further on and in the next one if not.  Rows
    only fall, so this stops, and when it stops no arc can lower any row.
    Against full sweeps over every kept arc, this reads far fewer arcs on
    deep graphs, where most reads would change nothing.  The result is
    bit-identical to per-sample Dijkstra, since both return the minimum over
    paths of the same left-to-right floating prefix sums.
    """
    samples = weights.shape[1]
    dist = np.full((plan.nodes, samples), np.inf)
    rows = [dist[v] for v in plan.order]
    rows[0].fill(0.0)
    wrows = list(weights)
    cand = np.empty(samples)
    for row, ((u, e), *rest) in zip(rows[1:], plan.ahead[1:]):
        np.add(rows[u], wrows[e], out=row)
        for u, e in rest:
            np.add(rows[u], wrows[e], out=cand)
            np.minimum(row, cand, out=row)
    pending = {p: dict.fromkeys(arcs) for p, arcs in plan.behind.items()}
    heap = [(0, p) for p in sorted(pending)]   # (sweep, position); sorted, so a heap
    best = np.empty(samples)
    improved = np.empty(samples, dtype=bool)
    while heap:
        sweep, p = heapq.heappop(heap)
        (u, e), *rest = pending.pop(p)
        np.add(rows[u], wrows[e], out=best)
        for u, e in rest:
            np.add(rows[u], wrows[e], out=cand)
            np.minimum(best, cand, out=best)
        np.less(best, rows[p], out=improved)
        if improved.any():
            np.minimum(rows[p], best, out=rows[p])
            for q, e in plan.out[p]:
                if q not in pending:
                    pending[q] = {}
                    heapq.heappush(heap, (sweep + (q <= p), q))
                pending[q][p, e] = None
    return dist


def passage_draw(
    plan: RelaxPlan, rates: np.ndarray, rng: np.random.Generator, size: int
) -> list[np.ndarray]:
    """Draw and relax one block of ``size`` weight samples, one tile of
    ``tile_samples`` at a time; per group of the plan, in plan order, return
    its passage times, the minimum over its members, taken row by row."""
    # One array holds every group's times: with one array per group, a job
    # of many groups on a small graph ran twice as slow, as the freed
    # arrays went back to the system each block and were faulted in again.
    mins = np.empty((len(plan.groups), size))
    tile = tile_samples(len(rates), plan.nodes)
    for start in range(0, size, tile):
        dist = relax(plan, exp_weights(rng, min(tile, size - start), rates))
        for low, (first, *rest) in zip(mins, plan.groups):
            low = low[start : start + dist.shape[1]]
            np.copyto(low, dist[first])
            for v in rest:
                np.minimum(low, dist[v], out=low)
        del dist   # freed before the next tile's weights are drawn
    return list(mins)


def passage_job(
    net: GossipNetwork, subsets: Sequence[NodeSubset], k_max: int, samples: int
) -> montecarlo.Job:
    """The pipeline job that samples the passage times of ``subsets``
    (checked and distinct), one group per subset.

    Bad arguments, then an unreachable subset, are reported here, before
    any block is drawn.
    """
    montecarlo.check_order(k_max)
    montecarlo.block_sizes(samples, montecarlo.FPP_BLOCK)
    for s in subsets:
        if not s.mask & net.reachable:
            raise UnreachableTargetError(
                f"subset {s}: {samples} of {samples} samples have infinite passage time; "
                "no member is reachable from the source"
            )
    arcs = ((u, v, e) for e, (u, v, _) in enumerate(net.edges))
    plan = relax_plan(arcs, net.node_count + 1, 0, [s.ids() for s in subsets])
    draw = partial(passage_draw, plan, net.rates)
    return draw, k_max, samples, montecarlo.FPP_BLOCK, montecarlo.STREAM_FPP


def estimate_moments(
    net: GossipNetwork,
    subsets: Iterable[NodeSubset | Iterable[int]],
    k_max: int,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> dict[NodeSubset, list[MomentEstimate]]:
    """Empirical passage-time moments for each subset, all from one set of
    fresh samples; keyed by checked subset, duplicates dropped."""
    checked = list(dict.fromkeys(map(net.check_subset, subsets)))
    montecarlo.check_seed(seed)
    job = passage_job(net, checked, k_max, samples)
    [groups] = montecarlo.sample_moments([job], seed, workers)
    return {s: estimates for s, (_, estimates) in zip(checked, groups)}
