"""Boxed-lattice passage values: geometry, exact recursion, MC oracle."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from gossip_aoi import (
    box_recursion,
    build_box,
    mc_boundary_passage,
)
from gossip_aoi.lattice import RECURSION_CAP, _interior_size, time_constant_estimate
from helpers import reference_box_recursion


def test_build_box_small_cases():
    seg = build_box(1, 1)
    assert seg.vertices == ((-1,), (0,), (1,))
    assert [v for v, b in zip(seg.vertices, seg.boundary) if b] == [(-1,), (1,)]

    diamond = build_box(2, 1)
    assert len(diamond.vertices) == 5
    assert len(diamond.edges) == 4
    assert all(diamond.origin in pair for pair in diamond.edges)

    wide = build_box(2, 2)
    assert len(wide.vertices) == 13
    assert len(wide.interior) == 5


def test_build_box_vertices_equal_the_filtered_cube():
    for d in range(1, 6):
        for ell in range(1, 4):
            cube = itertools.product(range(-ell, ell + 1), repeat=d)
            expected = tuple(sorted(v for v in cube if sum(abs(c) for c in v) <= ell))
            assert build_box(d, ell).vertices == expected


def test_interior_vertices_have_full_degree():
    for d, ell in ((1, 3), (2, 2), (3, 2)):
        box = build_box(d, ell)
        degree = [0] * len(box.vertices)
        for a, b in box.edges:
            degree[a] += 1
            degree[b] += 1
        for i in box.interior:
            assert degree[i] == 2 * d


def test_interior_size_counts_the_box_interior():
    for d in range(1, 6):
        for ell in range(1, 6):
            assert _interior_size(d, ell) == len(build_box(d, ell).interior), (d, ell)
    assert _interior_size(3, 50) == 161_799


def test_interior_size_equals_the_binomial_sum():
    def binomial_sum(d, ell):
        return sum(2**k * math.comb(d, k) * math.comb(ell - 1, k) for k in range(min(d, ell - 1) + 1))

    for d in range(1, 41):
        for ell in range(1, 41):
            assert _interior_size(d, ell) == binomial_sum(d, ell), (d, ell)
    assert _interior_size(3000, 3000) == binomial_sum(3000, 3000)


def test_build_box_validates_arguments():
    with pytest.raises(ValueError):
        build_box(0, 1)
    with pytest.raises(ValueError):
        build_box(1, 0)


def test_recursion_known_values():
    assert box_recursion(build_box(1, 1), [(0,)]) == 0.5
    assert box_recursion(build_box(2, 1), [(0, 0)]) == 0.25
    assert box_recursion(build_box(1, 2), [(0,)]) == 1.25


def test_one_dimensional_value_matches_the_survival_integral():
    # Passage from the center of a radius-2 segment is the min of two
    # independent two-hop Exp(1) sums; its mean is the survival integral.
    value, error = integrate.quad(lambda t: (1 + t) ** 2 * math.exp(-2 * t), 0, np.inf)
    assert error < 1e-9
    assert box_recursion(build_box(1, 2), [(0,)]) == pytest.approx(value, abs=1e-9)


def test_radius_two_box_matches_its_closed_form():
    # A cluster grown from the origin of the radius-2 box is the origin and
    # m of its 2d neighbours.  It has 2d - m edges to free neighbours and
    # 2d - 1 boundary edges per neighbour, so by symmetry its value v(m)
    # depends on m alone, and the recursion runs down from the full cluster.
    for d in range(1, 9):
        v = 1 / (2 * d * (2 * d - 1))
        for m in range(2 * d - 1, -1, -1):
            v = (1 + (2 * d - m) * v) / (2 * d + m * (2 * d - 2))
        assert box_recursion(build_box(d, 2), [(0,) * d]) == pytest.approx(v, rel=1e-15, abs=0), d
    assert v == pytest.approx(0.11051259394984314, rel=1e-15, abs=0)


def test_recursion_boundary_cluster_is_zero():
    box = build_box(2, 2)
    assert box_recursion(box, [(2, 0)]) == 0.0
    assert box_recursion(box, [(0, 0), (1, 1)]) == 0.0


def test_recursion_rejects_foreign_vertices():
    box = build_box(2, 1)
    with pytest.raises(ValueError, match="outside"):
        box_recursion(box, [(3, 3)])


def test_recursion_respects_lattice_symmetries():
    box = build_box(2, 2)
    base = box_recursion(box, [(0, 0), (1, 0)])
    assert box_recursion(box, [(0, 0), (-1, 0)]) == pytest.approx(base, abs=1e-12)
    assert box_recursion(box, [(0, 0), (0, 1)]) == pytest.approx(base, abs=1e-12)
    assert box_recursion(box, [(0, 0), (0, -1)]) == pytest.approx(base, abs=1e-12)


def test_recursion_cap_is_enforced():
    with pytest.raises(ValueError, match="cap"):
        box_recursion(build_box(2, 4), [(0, 0)])


def test_box_network_maps_boundary_edges_to_source_rates():
    # The radius-2 diamond: the origin and its four neighbours are interior,
    # and each neighbour has three boundary neighbours.
    box = build_box(2, 2)
    net = box.network
    node = {box.vertices[i]: p + 1 for p, i in enumerate(box.interior)}
    hub = node.pop((0, 0))
    spokes = set(node.values())
    assert net.node_count == 5
    assert {(u, v): rate for u, v, rate in net.edges} == {
        **{(0, v): 3.0 for v in spokes},
        **{(hub, v): 1.0 for v in spokes},
        **{(v, hub): 1.0 for v in spokes},
    }


def _equivalence_clusters(box):
    d, ell = box.d, box.ell
    origin = (0,) * d
    units = [tuple(s * (a == axis) for a in range(d)) for axis in range(d) for s in (1, -1)]
    half = [box.vertices[i] for i in box.interior if box.vertices[i][0] >= 0]
    yield [origin]
    for unit in units:
        yield [origin, unit]
    yield half
    yield [units[0], units[1]]
    yield [origin, (ell,) + (0,) * (d - 1)]


def test_box_recursion_equals_the_reference_recursion():
    for d in range(1, 5):
        for ell in range(1, 4):
            box = build_box(d, ell)
            if len(box.interior) > RECURSION_CAP:
                continue
            for cluster in _equivalence_clusters(box):
                expected = reference_box_recursion(box, cluster)
                assert box_recursion(box, cluster) == pytest.approx(expected, rel=1e-13), (
                    d, ell, cluster)
    largest = build_box(1, 11)
    assert len(largest.interior) == 21
    assert box_recursion(largest, [(0,)]) == pytest.approx(
        reference_box_recursion(largest, [(0,)]), rel=1e-13)


def test_one_dimensional_box_solves_only_the_intervals():
    # From the origin of a 1-D box the clusters are the 121 intervals around
    # it; a pass over all 2^21 interior clusters would trace over 100 MB.
    box = build_box(1, 11)
    tracemalloc.start()
    try:
        value = box_recursion(box, [(0,)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert value == pytest.approx(reference_box_recursion(box, [(0,)]), rel=1e-13)


def test_box_closure_links_stay_small():
    # From the origin of the d = 8, ell = 2 box the closure holds all 2^16
    # clusters and 524 288 boundary pairs; kept as int64 until the way back,
    # their links alone traced a peak above 17 MB.
    box = build_box(8, 2)
    origin = [(0,) * 8]
    tracemalloc.start()
    try:
        value = box_recursion(box, origin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20
    assert value == pytest.approx(reference_box_recursion(box, origin), rel=1e-13)


def test_raw_values_grow_with_the_radius():
    raws = [time_constant_estimate(2, ell) for ell in (1, 2, 3)]
    assert raws[0] < raws[1] < raws[2]


def test_time_constant_estimates():
    assert time_constant_estimate(1, 1) == 0.5
    assert time_constant_estimate(1, 2) == pytest.approx(1.25, abs=1e-12)


def test_mc_boundary_passage_matches_known_values():
    est = mc_boundary_passage(1, 1, 100_000, seed=71)
    assert abs(est.mean - 0.5) <= 4 * est.std_error
    est = mc_boundary_passage(1, 2, 100_000, seed=72)
    assert abs(est.mean - 1.25) <= 4 * est.std_error
    est = mc_boundary_passage(2, 1, 100_000, seed=73)
    assert abs(est.mean - 0.25) <= 4 * est.std_error


def test_mc_matches_the_recursion_in_two_dimensions():
    exact = time_constant_estimate(2, 2)
    est = mc_boundary_passage(2, 2, 200_000, seed=74)
    assert abs(est.mean - exact) <= 4 * est.std_error


def test_mc_deterministic_across_workers():
    one = mc_boundary_passage(2, 2, 70_000, seed=75, workers=1)
    three = mc_boundary_passage(2, 2, 70_000, seed=75, workers=3)
    assert one == three
    assert one.sample_count == 70_000


def test_the_d8_box_value_keeps_its_bits():
    # The exact solve's operations and their order fix this value to the bit.
    assert repr(time_constant_estimate(8, 2)) == "0.11051259394984314"
