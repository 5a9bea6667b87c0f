"""Static first-passage view of the gossip process.

Freezing one exponential draw w_e ~ Exp(lambda_e) per edge turns the network
into a weighted digraph whose shortest-path time from the source to a subset
(minimum over members) has exactly the steady-state age distribution of that
subset.  Sampling passage times over many independent weight draws therefore
estimates the same moments the exact solver computes — by a completely
different route, which is what makes the two useful as checks on each other.

Weights are drawn by inverse transform, w = -ln(1 - U)/lambda_e with U
uniform on [0, 1), so a weight is finite and non-negative.

A block of samples is drawn and relaxed one tile of ``TILE`` samples at a
time, node-major: a tile's weights are an (edges, tile) array and its
distances a (nodes, tile) array, so every arc update in ``relax`` is a
whole-row add and minimum over contiguous memory, with no gather, and the
working set of a block does not grow with the block.  Each tile's group
minima go straight into the block's output arrays.  The uniforms are drawn
in (samples, edges) row-major order, because that order fixes which RNG
output lands on which (sample, edge) cell; ``exp_weights`` transposes them
into the node-major buffer as it draws.  Consecutive draws continue one
stream and relaxation is per sample, so the tile size changes no bit of the
result.  The lattice sampler runs the same draw with unit rates.

Only the arcs that can move a group's minimum are relaxed.  Since
fl(a + w) >= a for w >= 0, a best path to a group can be cut at its first
member; so ``prune_arcs`` drops the arcs out of every node that lies in all
the groups of a draw.  ``relax_plan`` then orders the nodes breadth first
from the origin, without the origin's in-arcs and the nodes it cannot reach,
and splits each node's kept in-arcs into those from earlier nodes and the
rest.  Both run once per job.  ``relax`` makes one pass in that order over
the forward arcs; when no kept arc points backward, that pass is exact and
the only one.  Otherwise a worklist follows: a node is read again only over
the in-arcs whose tail row dropped since it last read them.  The group
minimum is a running ``np.minimum`` over the member rows.

``passage_job`` makes the job that ``montecarlo.sample_moments`` runs; each
block is one draw: it returns every subset's passage times, and the pipeline
turns them into power sums and adds those in block order.  Reachability is a
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
# Samples drawn and relaxed at once by passage_draw; any value gives the same
# bytes.  A tile's weights and distances take (edges + nodes) * TILE * 8
# bytes, whatever the block size.
TILE = 2048


class UnreachableTargetError(RuntimeError):
    """Raised when no subset member has a path from the source, so every
    passage time is infinite."""


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
    np.negative(weights, out=weights)
    weights /= rates[:, None]
    return weights


def prune_arcs(
    in_arcs: Sequence[tuple[np.ndarray, np.ndarray]], groups: Sequence[Sequence[int]]
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """``in_arcs`` without the arcs out of the nodes that lie in every group.

    Every group's minimum stays exact: a path that reaches a member through
    such a node reaches that node first, at a time no later, since
    fl(a + w) >= a for w >= 0.  With no groups there is no minimum to keep,
    and every arc drops.
    """
    common = set(range(len(in_arcs)))
    for ids in groups:
        common.intersection_update(ids)
    kept = np.ones(len(in_arcs), dtype=bool)
    kept[list(common)] = False
    return tuple((frm[kept[frm]], eidx[kept[frm]]) for frm, eidx in in_arcs)


class RelaxPlan(NamedTuple):
    """What ``relax`` needs of a graph and an origin, worked out once per job.

    A node's position is its place in ``order``, the nodes the origin
    reaches, breadth first, the origin at 0.  For the node at position p,
    ``ahead[p]`` holds the (tail position, edge index) in-arcs from earlier
    positions, never empty for p >= 1, since it holds the node's
    breadth-first parent; ``behind`` maps p to its other in-arcs, when it has
    any, and ``out[p]`` holds the (head position, edge index) arcs out of it.
    Arcs into the origin and from nodes it cannot reach are left out.
    """

    nodes: int
    order: tuple[int, ...]
    ahead: tuple[tuple[tuple[int, int], ...], ...]
    behind: dict[int, tuple[tuple[int, int], ...]]
    out: tuple[tuple[tuple[int, int], ...], ...]


def relax_plan(in_arcs: Sequence[tuple[np.ndarray, np.ndarray]], origin: int) -> RelaxPlan:
    """The plan that relaxes ``in_arcs`` from ``origin``: ``in_arcs[v]`` holds
    (from-nodes, edge indices) of the arcs into v."""
    succ: list[list[int]] = [[] for _ in in_arcs]
    for v, (frm, _) in enumerate(in_arcs):
        for u in frm.tolist():
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
        frm, eidx = in_arcs[v]
        arcs = [(rank[u], e) for u, e in zip(frm.tolist(), eidx.tolist()) if u in rank]
        ahead.append(tuple(arc for arc in arcs if arc[0] < p))
        if len(ahead[p]) < len(arcs):
            behind[p] = tuple(arc for arc in arcs if arc[0] >= p)
        for q, e in arcs:
            out[q].append((p, e))
    return RelaxPlan(len(in_arcs), tuple(order), tuple(ahead), behind, tuple(map(tuple, out)))


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
    plan: RelaxPlan,
    rates: np.ndarray,
    groups: tuple[tuple[int, ...], ...],
    rng: np.random.Generator,
    size: int,
) -> list[np.ndarray]:
    """Draw and relax one block of ``size`` weight samples, ``TILE`` at a
    time; per group of nodes return its passage times, the minimum over its
    members, taken row by row."""
    # One array holds every group's times: with one array per group, a job
    # of many groups on a small graph ran twice as slow, as the freed
    # arrays went back to the system each block and were faulted in again.
    mins = np.empty((len(groups), size))
    for start in range(0, size, TILE):
        dist = relax(plan, exp_weights(rng, min(TILE, size - start), rates))
        for low, (first, *rest) in zip(mins, groups):
            low = low[start : start + dist.shape[1]]
            np.copyto(low, dist[first])
            for v in rest:
                np.minimum(low, dist[v], out=low)
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
    groups = tuple(s.ids() for s in subsets)
    plan = relax_plan(prune_arcs(net.in_arcs, groups), 0)
    draw = partial(passage_draw, plan, net.rates, groups)
    return draw, k_max, samples, montecarlo.FPP_BLOCK, montecarlo.STREAM_FPP


def estimate_moments_subsets(
    net: GossipNetwork,
    subsets: Iterable[NodeSubset | Iterable[int]],
    k_max: int,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> dict[NodeSubset, list[MomentEstimate]]:
    """Empirical passage-time moments for several subsets sharing one sample set."""
    checked = list(dict.fromkeys(map(net.check_subset, subsets)))
    montecarlo.check_seed(seed)
    job = passage_job(net, checked, k_max, samples)
    [groups] = montecarlo.sample_moments([job], seed, workers)
    return {s: estimates for s, (_, estimates) in zip(checked, groups)}


def estimate_moments(
    net: GossipNetwork,
    subset: NodeSubset | Iterable[int],
    k_max: int,
    samples: int,
    seed: int = 0,
    workers: int = 1,
) -> list[MomentEstimate]:
    """Empirical raw moments of the subset's passage time over fresh samples."""
    s = net.check_subset(subset)
    return estimate_moments_subsets(net, [s], k_max, samples, seed, workers)[s]
