"""Exact moment recursion: worked values, cross-checks, and structure."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from gossip_aoi import (
    Edge,
    GossipNetwork,
    MemoLimitError,
    MomentSolver,
    moments,
    solve_moments,
)
from gossip_aoi.reporting import emit
from helpers import (
    MemoMomentSolver,
    all_subsets,
    first_moment,
    line_network,
    random_network,
    star_network,
)


def test_line_network_first_two_moments():
    net = line_network(1.0, 2.0)
    v = solve_moments(net, [2], 2)
    assert v[0] == 1.0
    assert v[1] == pytest.approx(1.5, abs=1e-12)
    assert v[2] == pytest.approx(3.5, abs=1e-12)


def test_star_moments_are_scaled_factorials():
    for a in (3.0, 0.7):
        v = solve_moments(star_network(a), [1], 5)
        for k in range(6):
            assert v[k] == pytest.approx(math.factorial(k) / a**k, abs=1e-12)


def test_parallel_star_joint_first_moment():
    # Minimum age over both leaves renews at the combined source rate.
    net = star_network(0.7, 0.2)
    assert solve_moments(net, [1, 2], 1)[1] == pytest.approx(1 / 0.9, abs=1e-12)


def test_unreachable_subset_is_infinite_and_diagnosed():
    net = GossipNetwork(node_count=2, edges=(Edge(0, 1, 1.0),))
    solver = MomentSolver(net, 2)
    v = solver.solve([2])
    assert v[1] == math.inf and v[2] == math.inf
    assert [str(s) for s in solver.zero_rate_subsets] == ["{2}"]
    # the minimum age over {1, 2} is node 1's age, which stays finite
    assert solver.solve([1])[1] == 1.0
    assert solver.solve([1, 2])[1] == pytest.approx(1.0, abs=1e-12)


def test_solve_all_line_table():
    table = MomentSolver(line_network(1.0, 2.0), 1).solve_all()
    assert len(table.entries) == 3
    assert table.get([1])[1] == pytest.approx(1.0, abs=1e-12)
    assert table.get([2])[1] == pytest.approx(1.5, abs=1e-12)
    assert table.get([1, 2])[1] == pytest.approx(1.0, abs=1e-12)


def test_solve_all_enumerates_every_subset():
    rng = np.random.default_rng(21)
    table = MomentSolver(random_network(rng, 10, p=0.3), 1).solve_all()
    assert len(table.entries) == 1023


def test_solve_all_matches_memo_recursion_bitwise():
    # The layered DP does the memo recursion's operations in the same order,
    # so both of its queries must equal the reference exactly, inf entries
    # and zero-rate diagnostics included (p = 0.12 leaves nodes unreachable).
    rng = np.random.default_rng(26)
    saw_inf = False
    for trial in range(24):
        n = 2 + trial % 9
        k = 1 + trial % 5
        net = random_network(rng, n, p=0.12 if trial % 3 == 0 else 0.45,
                             reachable=trial % 3 == 2)
        exhaustive = MomentSolver(net, k)
        table = exhaustive.solve_all()
        single = MomentSolver(net, k)
        memo = MemoMomentSolver(net, k)
        for ids in all_subsets(n):
            expected = memo.solve(ids)
            assert table.get(ids) == expected, (trial, ids)
            assert single.solve(ids) == expected, (trial, ids)
        assert exhaustive.zero_rate_subsets == memo.zero_rate_subsets
        assert single.zero_rate_subsets == memo.zero_rate_subsets
        saw_inf = saw_inf or bool(memo.zero_rate_subsets)
    assert saw_inf


def test_solve_all_is_independent_of_the_chunking(monkeypatch):
    rng = np.random.default_rng(27)
    nets = [random_network(rng, n, p=0.4, reachable=n % 2 == 0) for n in (5, 8, 9)]
    whole = [MomentSolver(net, 3).solve_all().entries.tolist() for net in nets]
    monkeypatch.setattr(moments, "TABLE_CHUNK", 7)
    assert [MomentSolver(net, 3).solve_all().entries.tolist() for net in nets] == whole


def test_first_moment_recursion_matches_k1_row():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n, p=0.45)
        solver = MomentSolver(net, 1)
        memo: dict[int, float] = {}
        for ids in all_subsets(n):
            direct = first_moment(net, ids, memo)
            via_solver = solver.solve(ids)[1]
            if math.isinf(direct) or math.isinf(via_solver):
                assert direct == via_solver
            else:
                assert direct == pytest.approx(via_solver, abs=1e-12)


def test_moments_shrink_on_supersets():
    rng = np.random.default_rng(23)
    net = random_network(rng, 5, p=0.5, reachable=True)
    solver = MomentSolver(net, 3)
    vectors = {ids: solver.solve(ids) for ids in all_subsets(5)}
    for small in all_subsets(5):
        for big in all_subsets(5):
            if set(small) < set(big):
                for k in (1, 2, 3):
                    assert vectors[big][k] <= vectors[small][k] + 1e-12


def test_rate_scaling_rescales_each_moment():
    rng = np.random.default_rng(24)
    net = random_network(rng, 5, p=0.5, reachable=True)
    for c in (0.25, 3.7):
        scaled = GossipNetwork(
            node_count=net.node_count,
            edges=tuple(Edge(u, v, c * rate) for u, v, rate in net.edges),
        )
        for ids in all_subsets(5):
            base = solve_moments(net, ids, 3)
            moved = solve_moments(scaled, ids, 3)
            for k in (1, 2, 3):
                assert moved[k] == pytest.approx(base[k] / c**k, rel=1e-10)


def test_moment_sequence_is_log_convex():
    rng = np.random.default_rng(25)
    for _ in range(5):
        net = random_network(rng, 5, p=0.5, reachable=True)
        for ids in all_subsets(5):
            v = solve_moments(net, ids, 4)
            for k in range(2, 5):
                assert v[k] * v[k - 2] >= v[k - 1] ** 2 * (1 - 1e-12)


def test_moment_order_limits():
    net = line_network(1.0)
    with pytest.raises(ValueError, match="order"):
        solve_moments(net, [1], 0)
    with pytest.raises(ValueError, match="21"):
        solve_moments(net, [1], 21)


def test_solve_all_node_cap():
    edges = tuple(Edge(0, v, 1.0) for v in range(1, 22))
    net = GossipNetwork(node_count=21, edges=edges)
    with pytest.raises(ValueError, match="capped"):
        MomentSolver(net, 1).solve_all()


def test_memo_limit_is_enforced():
    net = line_network(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(MemoLimitError, match="memo"):
        MomentSolver(net, 1, memo_limit=2).solve([4])
    # the closure of {4} is {4}, {3,4}, {2,3,4}, {1,2,3,4}
    with pytest.raises(MemoLimitError, match="exceeded 3 subsets"):
        MomentSolver(net, 1, memo_limit=3).solve([4])
    assert MomentSolver(net, 1, memo_limit=4).solve([4])[1] == pytest.approx(4.0, abs=1e-12)
    # the exhaustive table holds 2^4 - 1 = 15 subsets and checks before any work
    with pytest.raises(MemoLimitError, match="exceeded 14 subsets"):
        MomentSolver(net, 1, memo_limit=14).solve_all()
    assert len(MomentSolver(net, 1, memo_limit=15).solve_all().entries) == 15


@pytest.mark.parametrize("limit", [0, -1, 1 << 31, 4.0])
def test_memo_limit_must_fit_the_int32_links(limit):
    net = line_network(1.0, 1.0)
    with pytest.raises(ValueError, match=r"memo_limit must be an integer in \[1, 2\^31 - 1\]"):
        MomentSolver(net, 1, memo_limit=limit)


def test_largest_memo_limit_is_accepted():
    net = line_network(1.0, 1.0)
    assert MomentSolver(net, 1, memo_limit=(1 << 31) - 1).solve([2])[1] == pytest.approx(2.0)


def test_table_renders_infinities(capsys):
    net = GossipNetwork(node_count=2, edges=(Edge(0, 1, 1.0),))
    table = MomentSolver(net, 2).solve_all()
    # The table hands over floats; the reports write +inf as "inf".
    emit({"command": "solve", "seed": 0}, {}, table.csv_header(), table.csv_rows(), "csv", None)
    assert capsys.readouterr().out.partition("\n")[2] == (
        'subset,v1,v2\n1,1.0,2.0\n2,inf,inf\n"1,2",1.0,2.0\n'
    )
    emit({"command": "solve", "seed": 0}, {"table": table.json_map()}, [], [], "json", None)
    assert json.loads(capsys.readouterr().out)["results"]["table"] == {
        "1": [1.0, 2.0], "2": ["inf", "inf"], "1,2": [1.0, 2.0]
    }
