"""First-passage sampler: worked values, oracles, and determinism."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from gossip_aoi import (
    Edge,
    GossipNetwork,
    UnreachableTargetError,
    build_box,
    estimate_moments,
    montecarlo,
    solve_moments,
)
from gossip_aoi.fpp import exp_weights, passage_draw, relax, relax_plan, tile_samples
from helpers import (
    WeightSample,
    all_subsets,
    box_arcs,
    brute_force_passage,
    first_passage_time,
    line_network,
    network_arcs,
    random_network,
    sample_major_distances,
    sample_weights,
    star_network,
)


def test_exp_weights_follow_the_edge_rate():
    net = star_network(2.0, 0.5)
    weights = exp_weights(np.random.default_rng(31), 1_000_000, net.rates)
    assert np.all(weights > 0)
    for draws, rate in zip(weights, net.rates):
        mean = 1.0 / rate
        assert abs(draws.mean() - mean) <= 4 * (mean / 1e3)


def test_sample_weights_deterministic_for_fixed_seed():
    net = line_network(1.0, 2.0)
    first = sample_weights(net, np.random.default_rng(7)).weights
    second = sample_weights(net, np.random.default_rng(7)).weights
    assert np.array_equal(first, second)


def test_first_passage_time_examples():
    line = line_network(1.0, 2.0)
    sample = WeightSample(weights=np.array([0.3, 0.9]))
    assert first_passage_time(line, sample, [2]) == pytest.approx(1.2, abs=1e-15)
    assert first_passage_time(line, sample, [1]) == pytest.approx(0.3, abs=1e-15)

    star = star_network(1.0, 1.0)
    assert first_passage_time(star, WeightSample(np.array([0.7, 0.2])), [1, 2]) == 0.2

    lonely = GossipNetwork(node_count=2, edges=(Edge(0, 1, 1.0),))
    assert first_passage_time(lonely, WeightSample(np.array([0.4])), [2]) == math.inf


def test_first_passage_time_validates_input():
    net = line_network(1.0, 2.0)
    with pytest.raises(ValueError, match="weights"):
        first_passage_time(net, WeightSample(np.array([0.3])), [2])


def test_estimate_moments_star_and_line():
    star = star_network(1.0)
    [estimates] = estimate_moments(star, [[1]], 2, 1_000_000, seed=3).values()
    assert abs(estimates[0].mean - 1.0) <= 4 * estimates[0].std_error
    assert abs(estimates[1].mean - 2.0) <= 4 * estimates[1].std_error
    assert estimates[0].sample_count == 1_000_000

    line = line_network(1.0, 2.0)
    [(est,)] = estimate_moments(line, [[2]], 1, 1_000_000, seed=4).values()
    assert abs(est.mean - 1.5) <= 4 * est.std_error


def test_estimates_bit_identical_across_runs_and_workers():
    net = line_network(1.0, 2.0)
    base = estimate_moments(net, [[2]], 3, 70_000, seed=42)
    again = estimate_moments(net, [[2]], 3, 70_000, seed=42)
    spread = estimate_moments(net, [[2]], 3, 70_000, seed=42, workers=3)
    assert base == again == spread


def test_subsets_share_one_sample_set_and_dedupe():
    net = line_network(1.0, 2.0)
    a, b = net.check_subset([2]), net.check_subset([1, 2])
    shared = estimate_moments(net, [a, [1, 2], [2]], 2, 40_000, seed=43)
    assert list(shared) == [a, b]
    assert shared[a] == estimate_moments(net, [a], 2, 40_000, seed=43)[a]
    assert shared[b] == estimate_moments(net, [b], 2, 40_000, seed=43)[b]


def test_unreachable_subset_is_reported(monkeypatch):
    net = GossipNetwork(node_count=2, edges=(Edge(0, 1, 1.0),))
    [(est,)] = estimate_moments(net, [[1, 2]], 1, 1000, seed=0).values()
    assert est.sample_count == 1000

    def refuse(*cell):
        raise AssertionError("a sample block was drawn")

    monkeypatch.setattr(montecarlo, "block_rng", refuse)
    with pytest.raises(UnreachableTargetError, match=r"subset \{2\}: 1000 of 1000 samples"):
        estimate_moments(net, [[2]], 1, 1000, seed=0)
    with pytest.raises(UnreachableTargetError, match=r"\{2\}"):
        estimate_moments(net, [[1], [2]], 1, 1000, seed=0)
    with pytest.raises(ValueError, match="sample count must be positive"):
        estimate_moments(net, [[2]], 1, 0, seed=0)


def test_passage_time_is_pointwise_monotone_in_the_subset():
    rng = np.random.default_rng(33)
    net = random_network(rng, 5, p=0.5, reachable=True)
    for _ in range(100):
        sample = sample_weights(net, rng)
        times = {ids: first_passage_time(net, sample, ids) for ids in all_subsets(5)}
        for small in all_subsets(5):
            for big in all_subsets(5):
                if set(small) < set(big):
                    assert times[big] <= times[small]


def test_dijkstra_matches_exhaustive_path_minimum():
    rng = np.random.default_rng(34)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        net = random_network(rng, n, p=0.35)
        subsets = [(v,) for v in range(1, n + 1)]
        subsets += [all_subsets(n)[int(rng.integers(len(all_subsets(n))))] for _ in range(3)]
        for _ in range(25):
            sample = sample_weights(net, rng)
            for ids in subsets:
                expected = brute_force_passage(net, sample.weights, ids)
                assert first_passage_time(net, sample, ids) == expected


def test_no_two_paths_tie_in_float():
    # Distinct paths carry continuous weights; exact float ties should not occur.
    net = GossipNetwork(
        node_count=3,
        edges=(
            Edge(0, 1, 1.0),
            Edge(0, 2, 2.0),
            Edge(1, 2, 1.5),
            Edge(1, 3, 0.8),
            Edge(2, 3, 1.2),
        ),
    )
    paths = [(0, 3), (1, 4), (0, 2, 4)]  # edge indices of the three 0->3 routes
    rng = np.random.default_rng(35)
    weights = np.array([sample_weights(net, rng).weights for _ in range(100_000)])
    sums = np.zeros((len(weights), len(paths)))
    for j, path in enumerate(paths):
        acc = np.zeros(len(weights))
        for edge_index in path:
            acc = acc + weights[:, edge_index]
        sums[:, j] = acc
    hits = (sums == sums.min(axis=1, keepdims=True)).sum(axis=1)
    assert np.all(hits == 1)


def test_batch_distances_equal_scalar_shortest_paths():
    rng = np.random.default_rng(36)
    for _ in range(4):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n, p=0.4)
        weights = np.array([sample_weights(net, rng).weights for _ in range(50)])
        dist = relax(_full_plan(network_arcs(net), n + 1, 0), weights.T.copy()).T
        for i in range(len(weights)):
            sample = WeightSample(weights[i])
            for v in range(1, n + 1):
                assert dist[i, v] == first_passage_time(net, sample, [v])


def test_sampler_agrees_with_the_solver_on_a_random_network():
    rng = np.random.default_rng(37)
    net = random_network(rng, 5, p=0.5, reachable=True)
    for ids in all_subsets(5):
        exact = solve_moments(net, ids, 3)
        [estimates] = estimate_moments(net, [ids], 3, 200_000, seed=38).values()
        for k in (1, 2, 3):
            est = estimates[k - 1]
            assert abs(est.mean - exact[k]) <= 4 * est.std_error


def _row_major_weights(rng, samples, rates):
    return -np.log1p(-rng.random((samples, len(rates)))) / rates


def _full_plan(arcs, nodes, origin):
    """A plan that keeps every arc: each node is a group of its own, so no
    node lies in every group."""
    return relax_plan(arcs, nodes, origin, [(v,) for v in range(nodes)])


def _assert_relax_matches_reference(arcs, nodes, weights, origin):
    expected = sample_major_distances(arcs, nodes, weights, origin)
    dist = relax(_full_plan(arcs, nodes, origin), np.ascontiguousarray(weights.T))
    assert dist.shape == (nodes, len(weights))
    assert dist.flags.c_contiguous
    assert np.array_equal(dist, expected.T)
    return dist


def test_relax_equals_the_sample_major_reference_on_random_networks():
    rng = np.random.default_rng(39)
    unreachable_rows = 0
    for _ in range(12):
        net = random_network(rng, int(rng.integers(2, 10)), p=0.25)
        for samples in (1, 257):
            weights = _row_major_weights(rng, samples, net.rates)
            dist = _assert_relax_matches_reference(network_arcs(net), net.node_count + 1, weights, 0)
            unreachable_rows += int(np.isinf(dist).all(axis=1).sum())
    assert unreachable_rows > 0


def test_relax_equals_the_sample_major_reference_on_dense_networks():
    # Dense networks leave many arcs pointing backward in breadth-first order.
    rng = np.random.default_rng(48)
    backward = 0
    for _ in range(6):
        net = random_network(rng, int(rng.integers(8, 13)), p=0.8, reachable=True)
        arcs, nodes = network_arcs(net), net.node_count + 1
        backward += sum(map(len, _full_plan(arcs, nodes, 0).behind.values()))
        for samples in (1, 257):
            weights = _row_major_weights(rng, samples, net.rates)
            _assert_relax_matches_reference(arcs, nodes, weights, 0)
    assert backward > 100


def test_relax_equals_the_sample_major_reference_on_lattice_boxes():
    # Every interior vertex but the origin has in-arcs from the next
    # breadth-first layer, so the worklist runs, and longest on deep boxes.
    rng = np.random.default_rng(40)
    for d, ell in ((1, 3), (2, 2), (3, 2), (4, 2), (2, 8), (3, 4)):
        box = build_box(d, ell)
        arcs, nodes = box_arcs(box), len(box.vertices)
        assert len(_full_plan(arcs, nodes, box.origin).behind) == len(box.interior) - 1
        for samples in (1, 257):
            weights = _row_major_weights(rng, samples, np.ones(len(box.edges)))
            _assert_relax_matches_reference(arcs, nodes, weights, box.origin)


# Breadth first from 0 the order is 0, 1, 2, 3, 5, 4, and the forward pass
# sets 1 and 2 to 10 and 5 to 11.  The path 0 -> 3 -> 4 -> 2 lowers 2 to 3
# in the first sweep of the worklist; only then can 2 -> 1 lower 1 to 4, in
# the second sweep, after its successor 5 was visited, and 5 falls to 5.
LATE_ARCS = [(0, 1), (0, 2), (0, 3), (3, 4), (4, 2), (2, 1), (1, 5)]
LATE_WEIGHTS = [10.0, 10.0, 1.0, 1.0, 1.0, 1.0, 1.0]


def test_a_node_that_improves_after_its_successors_moves_them():
    plan = _full_plan(_arcs(LATE_ARCS), 6, 0)
    assert plan.order == (0, 1, 2, 3, 5, 4)
    dist = relax(plan, np.array(LATE_WEIGHTS)[:, None])
    assert dist[:, 0].tolist() == [0.0, 4.0, 3.0, 1.0, 2.0, 5.0]


def test_tiles_fill_tile_bytes_but_never_drop_below_tile():
    box = build_box(8, 2)
    assert tile_samples(len(box.edges), len(box.vertices)) == 2048
    assert tile_samples(50, 13) == (4 << 20) // (8 * 63)   # a 12-node network, 50 edges


def test_one_block_is_relaxed_in_bounded_memory():
    box = build_box(8, 2)
    groups = (tuple(i for i, b in enumerate(box.boundary) if b),)
    plan = relax_plan(box_arcs(box), len(box.vertices), box.origin, groups)
    rates = np.ones(len(box.edges))
    tracemalloc.start()
    try:
        passage_draw(plan, rates, np.random.default_rng(49), montecarlo.FPP_BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A quarter of the block's (edges, samples) weights, 64 MB: only a tile
    # of weights and distances is alive at a time.
    assert peak < len(box.edges) * montecarlo.FPP_BLOCK * 8 / 4


def test_exp_weights_is_the_transposed_row_major_draw():
    net = random_network(np.random.default_rng(42), 5, p=0.5)
    for samples in (1, 7, 1000):
        weights = exp_weights(np.random.default_rng([43, samples]), samples, net.rates)
        expected = _row_major_weights(np.random.default_rng([43, samples]), samples, net.rates)
        assert weights.flags.c_contiguous
        assert np.array_equal(weights, expected.T)


def _group_minima(dist, groups):
    return [dist[:, list(ids)].min(axis=1) for ids in groups]


def _assert_pruned_minima_equal_the_full_graphs(arcs, nodes, rates, origin, groups, rng, samples):
    weights = _row_major_weights(rng, samples, rates)
    plan = relax_plan(arcs, nodes, origin, groups)
    pruned = relax(plan, np.ascontiguousarray(weights.T))
    full = sample_major_distances(arcs, nodes, weights, origin)
    for got, expected in zip(_group_minima(pruned.T, groups), _group_minima(full, groups)):
        assert np.array_equal(got, expected)


def test_pruned_group_minima_equal_the_full_graphs_on_random_networks():
    rng = np.random.default_rng(44)
    several = with_lost = 0
    for _ in range(12):
        n = int(rng.integers(4, 9))
        net = random_network(rng, n, p=0.3)
        lost = [v for v in range(1, n + 1) if not net.reachable >> v & 1]
        shared = int(rng.integers(1, n + 1))   # in every group
        groups = []
        for _ in range(int(rng.integers(1, 4))):
            some = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n)), replace=False)
            groups.append(tuple(sorted({shared, *some.tolist()})))
        if lost:
            groups[-1] = tuple(sorted({*groups[-1], lost[0]}))
        _assert_pruned_minima_equal_the_full_graphs(
            network_arcs(net), n + 1, net.rates, 0, groups, rng, 257
        )
        several += len(groups) > 1
        with_lost += bool(lost)
    assert several > 0 and with_lost > 0


def test_pruning_keeps_nodes_outside_some_group():
    # 1 lies in both groups and 2 in one: only the arc out of 1 drops.  From
    # 0 the plan reaches 1 and 3 but not 2; from 2 it keeps 2 -> 3, and from
    # 1 it has no arc.
    edges = (Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(2, 3, 1.0), Edge(0, 3, 1.0))
    net = GossipNetwork(node_count=3, edges=edges)
    arcs = network_arcs(net)
    plan = relax_plan(arcs, 4, 0, [(1, 2), (1, 3)])
    # Edge indices follow the sorted edges: 0 -> 1, 0 -> 3, 1 -> 2, 2 -> 3.
    assert (plan.order, plan.ahead, plan.behind) == ((0, 1, 3), ((), ((0, 0),), ((0, 1),)), {})
    assert relax_plan(arcs, 4, 2, [(1, 2), (1, 3)]).ahead == ((), ((0, 3),))
    assert relax_plan(arcs, 4, 1, [(1, 2), (1, 3)]).order == (1,)
    # With no groups every arc drops.
    empty = relax_plan(arcs, 4, 0, [])
    assert (empty.order, empty.groups) == ((0,), ())
    rng = np.random.default_rng(45)
    assert passage_draw(empty, net.rates, rng, 5) == []


def test_a_draw_returns_one_array_per_plan_group_in_plan_order():
    net = line_network(1.0, 2.0, 0.5)
    arcs, groups = network_arcs(net), [(3,), (1,), (2, 3)]
    plan = relax_plan(arcs, 4, 0, groups)
    assert plan.groups == ((3,), (1,), (2, 3))
    times = passage_draw(plan, net.rates, np.random.default_rng(50), 300)
    weights = _row_major_weights(np.random.default_rng(50), 300, net.rates)
    expected = _group_minima(sample_major_distances(arcs, 4, weights, 0), groups)
    assert len(times) == len(groups)
    for got, want in zip(times, expected):
        assert np.array_equal(got, want)


def test_pruned_group_minima_equal_the_full_graphs_on_lattice_boxes():
    rng = np.random.default_rng(46)
    boxes = [(d, ell) for d in range(1, 5) for ell in range(1, 5)] + [(8, 2)]
    for d, ell in boxes:
        box = build_box(d, ell)
        groups = (tuple(i for i, b in enumerate(box.boundary) if b),)
        _assert_pruned_minima_equal_the_full_graphs(
            box_arcs(box), len(box.vertices), np.ones(len(box.edges)), box.origin, groups, rng, 65
        )


def _arcs(pairs):
    return [(u, v, e) for e, (u, v) in enumerate(pairs)]


# Per case: (arcs, nodes, origin).
NUMBERED_AGAINST_THE_ARCS = {
    "backward-line": (_arcs([(4, 3), (3, 2), (2, 1), (1, 0)]), 5, 4),
    # a DAG whose arc 2 -> 1 points backward in breadth-first order
    "dag": (_arcs([(5, 1), (5, 2), (2, 1), (1, 0), (2, 0), (0, 3), (1, 3)]), 6, 5),
    # the cycle 1 -> 0 -> 2 -> 1, entered at 1 and at 2
    "cycle": (_arcs([(3, 2), (3, 1), (1, 0), (0, 2), (2, 1)]), 4, 3),
    "origin-with-in-arcs": (_arcs([(2, 0), (0, 2), (1, 2), (2, 1), (0, 1), (1, 0)]), 3, 2),
    # 4 and 3 are unreachable, and 3 has an arc into a reachable node
    "unreachable": (_arcs([(4, 3), (3, 1), (2, 1), (1, 0), (0, 2)]), 5, 2),
}


@pytest.mark.parametrize("case", NUMBERED_AGAINST_THE_ARCS)
def test_relax_is_exact_whatever_the_node_numbering(case):
    arcs, nodes, origin = NUMBERED_AGAINST_THE_ARCS[case]
    rng = np.random.default_rng(47)
    rates = rng.uniform(0.2, 5.0, size=len(arcs))
    for samples in (1, 257):
        _assert_relax_matches_reference(arcs, nodes, _row_major_weights(rng, samples, rates), origin)
