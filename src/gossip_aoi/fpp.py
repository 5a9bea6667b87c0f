"""Static first-passage view of the gossip process.

Freezing one exponential draw w_e ~ Exp(lambda_e) per edge turns the network
into a weighted digraph whose shortest-path time from the source to a subset
(minimum over members) has exactly the steady-state age distribution of that
subset.  Sampling passage times over many independent weight draws therefore
estimates the same moments the exact solver computes — by a completely
different route, which is what makes the two useful as checks on each other.

Weights are drawn by inverse transform, w = -ln(1 - U)/lambda_e with U
uniform on [0, 1), so a weight is finite and non-negative.

A block of samples is relaxed node-major: weights are an (edges, samples)
array and distances a (nodes, samples) array, so every arc update in
``relax`` is a whole-row add and minimum over contiguous memory, with no
gather.  The uniforms are still drawn in (samples, edges) row-major order,
because that order fixes which RNG output lands on which (sample, edge)
cell; ``exp_weights`` transposes them into the node-major buffer as it
draws.  The lattice sampler uses the same two functions with unit rates.

``passage_job`` makes the job that ``montecarlo.sample_moments`` runs; each
block is one draw: it returns every subset's passage times, and the pipeline
turns them into power sums and adds those in block order.  Reachability is a
property of the graph, since every weight is finite: a subset with no member
reachable from the source raises ``UnreachableTargetError`` when the job is
made, before any block is drawn, and every other subset's passage times are
finite.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Sequence

import numpy as np

from . import montecarlo
from .montecarlo import MomentEstimate
from .network import GossipNetwork, NodeSubset


# Samples drawn per rng.random call in exp_weights; any value gives the same
# weights, since consecutive calls continue one stream.
DRAW_ROWS = 256


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


def relax(
    in_arcs: Sequence[tuple[np.ndarray, np.ndarray]], weights: np.ndarray, origin: int
) -> np.ndarray:
    """Shortest-path distances from ``origin`` for every sample of a block.

    ``in_arcs[v]`` holds (from-nodes, edge indices) of the arcs into v;
    ``weights`` is (edges, samples) and the result is (nodes, samples), +inf
    where a node is unreachable.  Gauss-Seidel sweeps in node order until no
    sample improves; the result is bit-identical to per-sample Dijkstra,
    since both return the minimum over paths of the same left-to-right
    floating prefix sums.
    """
    samples = weights.shape[1]
    dist = np.full((len(in_arcs), samples), np.inf)
    dist[origin] = 0.0
    rows = list(dist)
    wrows = list(weights)
    arcs = []
    for v, (frm, eidx) in enumerate(in_arcs):
        pairs = [(rows[u], wrows[e]) for u, e in zip(frm.tolist(), eidx.tolist())]
        if pairs:
            arcs.append((rows[v], pairs[0], pairs[1:]))
    best = np.empty(samples)
    cand = np.empty(samples)
    improved = np.empty(samples, dtype=bool)
    changed = True
    while changed:
        changed = False
        for row, (du, w), rest in arcs:
            np.add(du, w, out=best)
            for du, w in rest:
                np.add(du, w, out=cand)
                np.minimum(best, cand, out=best)
            np.less(best, row, out=improved)
            if improved.any():
                np.minimum(row, best, out=row)
                changed = True
    return dist


def _fpp_draw(
    net: GossipNetwork, subset_ids: tuple[tuple[int, ...], ...], rng: np.random.Generator, size: int
) -> list[np.ndarray]:
    """Relax one weight block; per subset return its passage times."""
    dist = relax(net.in_arcs, exp_weights(rng, size, net.rates), 0)
    return [dist[list(ids)].min(axis=0) for ids in subset_ids]


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
    draw = partial(_fpp_draw, net, tuple(s.ids() for s in subsets))
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
