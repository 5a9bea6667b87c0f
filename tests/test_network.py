"""Network validation, canonical form, and boundary-structure tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gossip_aoi import (
    Edge,
    GossipNetwork,
    NetworkConfigError,
    NodeSubset,
    estimate_moments,
    estimate_moments_timeavg,
    load_network,
    pilot_t0,
    replication_results,
    solve_moments,
)
from helpers import (
    all_subsets,
    boundary_edges,
    line_network,
    random_network,
    rate_into,
    simple_paths_to,
    source_rate,
)


def test_load_network_line():
    net = load_network(
        '{"nodes": 2, "edges": ['
        '{"from": 0, "to": 1, "rate": 1.0}, {"from": 1, "to": 2, "rate": 2.0}]}'
    )
    assert net.node_count == 2
    assert net.edges == (Edge(0, 1, 1.0), Edge(1, 2, 2.0))
    assert net.total_rate == 3.0


def test_parallel_edges_merge_by_rate_sum():
    net = GossipNetwork(
        node_count=1, edges=(Edge(0, 1, 1.0), Edge(0, 1, 0.5))
    )
    assert net.edges == (Edge(0, 1, 1.5),)


def test_edges_sorted_canonically():
    net = GossipNetwork(
        node_count=2, edges=(Edge(1, 2, 1.0), Edge(0, 2, 2.0), Edge(0, 1, 3.0))
    )
    assert [(e.from_node, e.to_node) for e in net.edges] == [(0, 1), (0, 2), (1, 2)]


def test_rejects_edge_into_source():
    with pytest.raises(NetworkConfigError, match=r"\(1, 0\)"):
        GossipNetwork(node_count=1, edges=(Edge(1, 0, 1.0),))


def test_rejects_self_loop():
    with pytest.raises(NetworkConfigError, match="self-loop"):
        GossipNetwork(node_count=2, edges=(Edge(1, 1, 1.0),))


def test_rejects_unknown_node_id():
    with pytest.raises(NetworkConfigError, match="unknown node id 5"):
        GossipNetwork(node_count=2, edges=(Edge(0, 5, 1.0),))


def test_rejects_bad_rates():
    for rate in (0.0, -1.0, math.inf, math.nan, 10**400):
        with pytest.raises(NetworkConfigError, match="rate"):
            GossipNetwork(node_count=1, edges=(Edge(0, 1, rate),))
    huge = '{"nodes": 1, "edges": [{"from": 0, "to": 1, "rate": 1%s}]}' % ("0" * 400)
    with pytest.raises(NetworkConfigError, match=r"edge \(0, 1\): rate is too large for a float"):
        load_network(huge)


def test_rejects_oversized_network():
    with pytest.raises(NetworkConfigError, match="62"):
        GossipNetwork(node_count=63, edges=(Edge(0, 1, 1.0),))


def test_load_network_rejects_malformed_documents():
    bad = [
        "not json",
        "[1, 2]",
        '{"edges": []}',
        '{"nodes": 2}',
        '{"nodes": true, "edges": []}',
        '{"nodes": 2, "edges": [{"from": 0, "to": 1}]}',
        '{"nodes": 2, "edges": [{"from": 0.5, "to": 1, "rate": 1}]}',
        '{"nodes": 2, "edges": [{"from": 0, "to": 1, "rate": "fast"}]}',
        '{"nodes": 2, "edges": [42]}',
    ]
    for document in bad:
        with pytest.raises(NetworkConfigError):
            load_network(document)


def test_subset_basics():
    s = NodeSubset.of([2, 1, 2])
    assert s.ids() == (1, 2)
    assert str(s) == "{1,2}"
    assert len(s) == 2
    assert 1 in s and 2 in s and 3 not in s
    assert list(s) == [1, 2]


def test_subset_rejects_source_and_negative_ids():
    with pytest.raises(ValueError, match="source"):
        NodeSubset.of([0, 1])
    with pytest.raises(ValueError, match="-3"):
        NodeSubset.of([-3])
    with pytest.raises(ValueError, match="node id 63 exceeds the supported maximum of 62"):
        NodeSubset.of([1, 63])


def test_check_subset_rejects_ids_outside_network():
    net = line_network(1.0, 2.0)
    with pytest.raises(NetworkConfigError, match="node id 3"):
        net.check_subset([3])
    with pytest.raises(ValueError, match="source"):
        net.check_subset([0])


SUBSET_TAKERS = {
    "check_subset": lambda net, s: net.check_subset(s),
    "solve_moments": lambda net, s: solve_moments(net, s, 1),
    "estimate_moments": lambda net, s: estimate_moments(net, [[1], s], 1, 100),
    "pilot_t0": lambda net, s: pilot_t0(net, s),
    "replication_results": lambda net, s: replication_results(net, [[1], s], 1, 100, 1.0),
    "estimate_moments_timeavg": lambda net, s: estimate_moments_timeavg(net, s, 1, 10.0, 1.0),
}


@pytest.mark.parametrize("empty", [[], NodeSubset(0)], ids=["ids", "mask"])
@pytest.mark.parametrize("take", SUBSET_TAKERS.values(), ids=SUBSET_TAKERS.keys())
def test_every_subset_taker_rejects_the_empty_subset(take, empty):
    with pytest.raises(ValueError, match="subset must be non-empty"):
        take(line_network(1.0, 2.0), empty)


def test_rate_into_examples():
    net = line_network(1.0, 2.0)
    assert rate_into(net, 1, [2]) == 2.0
    assert rate_into(net, 1, [1, 2]) == 0.0  # members update nothing
    assert rate_into(net, 2, [1]) == 0.0  # no edge 2 -> 1
    two_out = GossipNetwork(
        node_count=3,
        edges=(Edge(0, 1, 1.0), Edge(1, 2, 0.5), Edge(1, 3, 0.25)),
    )
    assert rate_into(two_out, 1, [2, 3]) == 0.75


def test_boundary_edges_examples():
    ring = GossipNetwork(
        node_count=3,
        edges=(Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(2, 3, 1.0), Edge(3, 1, 1.0)),
    )
    assert boundary_edges(ring, [1]) == [Edge(3, 1, 1.0)]
    assert boundary_edges(ring, [3]) == [Edge(2, 3, 1.0)]
    assert boundary_edges(ring, [1, 2, 3]) == []
    line = line_network(1.0, 2.0)
    assert boundary_edges(line, [2]) == [Edge(1, 2, 2.0)]
    assert boundary_edges(line, [1, 2]) == []  # source edges excluded


def test_source_rate_examples():
    line = line_network(1.0, 2.0)
    assert source_rate(line, [1]) == 1.0
    assert source_rate(line, [2]) == 0.0
    assert source_rate(line, [1, 2]) == 1.0


def test_boundary_empty_iff_in_neighbors_absorbed():
    rng = np.random.default_rng(11)
    for _ in range(10):
        net = random_network(rng, 5, p=0.5)
        for ids in all_subsets(5):
            s = set(ids)
            expected = [
                e
                for e in net.edges
                if e.to_node in s and e.from_node != 0 and e.from_node not in s
            ]
            assert boundary_edges(net, ids) == expected
            assert (not expected) == (boundary_edges(net, ids) == [])


def test_rate_into_is_zero_for_members():
    rng = np.random.default_rng(12)
    net = random_network(rng, 5, p=0.6)
    for ids in all_subsets(5):
        for u in ids:
            assert rate_into(net, u, ids) == 0.0


def test_reindexing_identity_with_random_f_tables():
    # Grouping boundary edges by their outside endpoint leaves weighted sums
    # over grown subsets unchanged: sum_e rate_e f(S+e) = sum_i rate_i(S) f(S+i).
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        net = random_network(rng, n, p=0.45)
        f_table = {mask: float(rng.uniform(-1, 1)) for mask in range(1 << (n + 1))}
        for ids in all_subsets(n):
            s = NodeSubset.of(ids)
            by_edge = sum(
                e.rate * f_table[s.mask | 1 << e.from_node]
                for e in boundary_edges(net, s)
            )
            neighbors = {e.from_node for e in boundary_edges(net, s)}
            by_node = sum(
                rate_into(net, i, s) * f_table[s.mask | 1 << i] for i in neighbors
            )
            assert by_edge == pytest.approx(by_node, rel=1e-10, abs=1e-10)


def test_out_edges_agree_with_edge_list():
    rng = np.random.default_rng(14)
    net = random_network(rng, 6, p=0.5)
    from_out = sorted(
        (u, v, rate)
        for u, targets in enumerate(net.out_edges)
        for v, _, rate in targets
    )
    assert from_out == [(e.from_node, e.to_node, e.rate) for e in net.edges]


def test_total_rate_matches_cumsum():
    net = line_network(0.5, 1.5, 2.5)
    assert net.total_rate == pytest.approx(4.5)
    assert net.rate_cumsum[-1] == pytest.approx(net.total_rate)
    assert np.all(np.diff(net.rate_cumsum) > 0)


def test_reachable_marks_the_nodes_with_a_source_path():
    net = GossipNetwork(node_count=4, edges=(Edge(0, 1, 1.0), Edge(1, 3, 1.0), Edge(2, 1, 1.0)))
    assert net.reachable == 0b1011
    rng = np.random.default_rng(15)
    for _ in range(12):
        net = random_network(rng, int(rng.integers(1, 8)), p=0.2)
        expected = 1 | sum(1 << v for v in range(1, net.node_count + 1) if simple_paths_to(net, [v]))
        assert net.reachable == expected
