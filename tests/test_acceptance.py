"""End-to-end acceptance gate.

Seven criteria, each printing a single pass/fail line (run with ``pytest -s``
to see them) and enforcing its stated tolerance and runtime budget.
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np
from scipy import integrate, stats

from gossip_aoi import (
    Edge,
    GossipNetwork,
    MomentSolver,
    box_recursion,
    build_box,
    cli,
    estimate_moments,
    mc_boundary_passage,
    pilot_t0,
    replication_results,
    solve_moments,
)
from helpers import (
    all_subsets,
    first_moment,
    full_subset,
    line_network,
    random_network,
    star_network,
    timeavg_trace,
)


def verdict(number: int, label: str, failures: list[str], started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < limit
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.1f}s of {limit:.0f}s allowed]")
    assert not failures, f"criterion {number}: {failures[:5]}"
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s, limit {limit:.0f}s"


def close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_1_analytic_exactness():
    started = time.perf_counter()
    failures = []

    v = solve_moments(line_network(1.0, 2.0), [2], 2)
    if abs(v[1] - 1.5) > 1e-12 or abs(v[2] - 3.5) > 1e-12:
        failures.append(f"line moments {v[1:]}")

    for a in (0.5, 1.0, 2.5, 3.0):
        v = solve_moments(star_network(a), [1], 5)
        for k in range(1, 6):
            if abs(v[k] - math.factorial(k) / a**k) > 1e-12:
                failures.append(f"star a={a} k={k}: {v[k]}")

    for a, b in ((0.7, 0.2), (1.0, 1.0), (3.3, 0.4)):
        v = solve_moments(star_network(a, b), [1, 2], 1)
        if abs(v[1] - 1.0 / (a + b)) > 1e-12:
            failures.append(f"parallel star ({a},{b}): {v[1]}")

    verdict(1, "analytic exactness", failures, started, limit=1.0)


def test_criterion_2_first_moment_consistency():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(101)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        net = random_network(rng, n, p=0.45)
        solver = MomentSolver(net, 1)
        memo: dict[int, float] = {}
        for ids in all_subsets(n):
            direct = first_moment(net, ids, memo)
            row = solver.solve(ids)[1]
            if math.isinf(direct) or math.isinf(row):
                if direct != row:
                    failures.append(f"trial {trial} subset {ids}: {direct} vs {row}")
            elif abs(direct - row) > 1e-10:
                failures.append(f"trial {trial} subset {ids}: {direct} vs {row}")
    verdict(2, "first-moment recursion equals k=1 row", failures, started, limit=30.0)


def test_criterion_3_triple_oracle_agreement():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(103)
    total = passed = 0
    for trial in range(20):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n, p=0.4, reachable=True)
        subsets = all_subsets(n)
        solver = MomentSolver(net, 3)
        seed = 1000 + trial
        sampled = estimate_moments(net, subsets, 3, 1_000_000, seed=seed)
        horizon = 3.0 * max(pilot_t0(net, full_subset(net), seed=seed))
        replicated = replication_results(net, subsets, 3, 100_000, horizon, seed=seed)
        for ids in subsets:
            s = net.check_subset(ids)
            exact = solver.solve(s)
            rep = replicated[s]
            if rep.pending > 0.01 * rep.replicas:
                failures.append(f"trial {trial} subset {ids}: {rep.pending} pending")
                continue
            for k in (1, 2, 3):
                total += 1
                fpp_est = sampled[s][k - 1]
                sim_est = rep.estimates[k - 1]
                fpp_ok = abs(fpp_est.mean - exact[k]) <= 4 * fpp_est.std_error
                sim_ok = abs(sim_est.mean - exact[k]) <= 4 * sim_est.std_error
                passed += fpp_ok and sim_ok
    if passed < math.ceil(0.99 * total):
        failures.append(f"only {passed} of {total} rows within 4 SE")
    verdict(3, f"triple oracle agreement ({passed}/{total} rows)", failures, started,
            limit=1200.0)


def test_criterion_4_structural_properties():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(104)

    for trial in range(8):
        n = int(rng.integers(2, 7))
        net = random_network(rng, n, p=0.45)
        solver = MomentSolver(net, 4)
        vectors = {ids: solver.solve(ids) for ids in all_subsets(n)}

        for small in all_subsets(n):
            for big in all_subsets(n):
                if set(small) < set(big):
                    for k in (1, 2, 3):
                        if vectors[big][k] > vectors[small][k] * (1 + 1e-12) + 1e-12:
                            failures.append(f"trial {trial}: not monotone {small}<{big} k={k}")

        c = 3.7
        scaled = GossipNetwork(
            node_count=net.node_count,
            edges=tuple(Edge(u, v, c * rate) for u, v, rate in net.edges),
        )
        scaled_solver = MomentSolver(scaled, 3)
        for ids in all_subsets(n):
            moved = scaled_solver.solve(ids)
            for k in (1, 2, 3):
                if not close(moved[k], vectors[ids][k] / c**k, 1e-10):
                    failures.append(f"trial {trial}: scaling broken at {ids} k={k}")

        for ids in all_subsets(n):
            v = vectors[ids]
            for k in (2, 3, 4):
                if not math.isinf(v[k - 1]) and v[k] * v[k - 2] < v[k - 1] ** 2 * (1 - 1e-12):
                    failures.append(f"trial {trial}: Jensen chain broken at {ids} k={k}")

    from gossip_aoi import NodeSubset
    from helpers import boundary_edges, rate_into

    for trial in range(12):
        n = int(rng.integers(2, 9))
        net = random_network(rng, n, p=0.45)
        f_table = {mask: float(rng.uniform(-1, 1)) for mask in range(1 << (n + 1))}
        for ids in all_subsets(n):
            s = NodeSubset.of(ids)
            edges = boundary_edges(net, s)
            by_edge = sum(e.rate * f_table[s.mask | 1 << e.from_node] for e in edges)
            by_node = sum(
                rate_into(net, i, s) * f_table[s.mask | 1 << i]
                for i in {e.from_node for e in edges}
            )
            if not close(by_edge, by_node, 1e-10):
                failures.append(f"trial {trial}: re-indexing broken at {ids}")

    verdict(4, "structural properties", failures, started, limit=60.0)


def test_criterion_5_next_event_law():
    started = time.perf_counter()
    failures = []
    net = GossipNetwork(
        node_count=3,
        edges=(Edge(0, 1, 0.4), Edge(0, 2, 1.1), Edge(1, 2, 2.0), Edge(2, 3, 1.5)),
    )
    n = 1_000_000
    counts: Counter[tuple[int, int]] = Counter()
    times = [0.0]
    for at, u, v, _ in timeavg_trace(net, n, seed=105):
        counts[u, v] += 1
        times.append(at)

    for edge in net.edges:
        p = edge.rate / net.total_rate
        freq = counts[edge.from_node, edge.to_node] / n
        se = math.sqrt(p * (1 - p) / n)
        if abs(freq - p) > 4 * se:
            failures.append(f"edge ({edge.from_node},{edge.to_node}): {freq} vs {p}")

    gaps = np.diff(times)
    ks = stats.kstest(gaps, "expon", args=(0, 1 / net.total_rate))
    if ks.pvalue < 0.001:
        failures.append(f"inter-event KS rejected: p={ks.pvalue}")

    verdict(5, "next-event law", failures, started, limit=60.0)


def test_criterion_6_lattice_recursion():
    started = time.perf_counter()
    failures = []

    if box_recursion(build_box(1, 1), [(0,)]) != 0.5:
        failures.append("d=1 ell=1 value")
    if box_recursion(build_box(2, 1), [(0, 0)]) != 0.25:
        failures.append("d=2 ell=1 value")
    center = box_recursion(build_box(1, 2), [(0,)])
    if center != 1.25:
        failures.append("d=1 ell=2 value")
    integral, err = integrate.quad(lambda t: (1 + t) ** 2 * math.exp(-2 * t), 0, np.inf)
    if err > 1e-9 or abs(center - integral) > 1e-9:
        failures.append(f"survival integral {integral} vs {center}")

    for ell in (1, 2, 3):
        exact = box_recursion(build_box(2, ell), [(0, 0)])
        estimate = mc_boundary_passage(2, ell, 1_000_000, seed=300 + ell)
        if abs(estimate.mean - exact) > 4 * estimate.std_error:
            failures.append(f"d=2 ell={ell}: {estimate.mean} vs {exact}")

    verdict(6, "lattice recursion vs MC", failures, started, limit=300.0)


def test_criterion_7_reports_deterministic_across_workers(tmp_path):
    started = time.perf_counter()
    failures = []
    network = tmp_path / "line.json"
    network.write_text(
        '{"nodes": 2, "edges": ['
        '{"from": 0, "to": 1, "rate": 1.0}, {"from": 1, "to": 2, "rate": 2.0}]}'
    )
    commands = {
        "solve": ["solve", "--network", str(network), "--subset", "1,2", "--k", "3"],
        "fpp": ["fpp", "--network", str(network), "--subset", "2", "--k", "2",
                "--samples", "50000"],
        "simulate": ["simulate", "--network", str(network), "--subset", "2",
                     "--replicas", "20000", "--horizon", "30"],
        "lattice": ["lattice", "--d", "2", "--ell", "2", "--samples", "50000"],
        "compare": ["compare", "--network", str(network), "--subset", "2", "--k", "2",
                    "--samples", "50000", "--replicas", "20000"],
        "solve-csv": ["solve", "--network", str(network), "--subset", "1,2", "--k", "3",
                      "--format", "csv"],
    }
    for name, argv in commands.items():
        outputs = []
        for tag, workers in (("w1", "1"), ("w3", "3"), ("again", "1")):
            out = tmp_path / f"{name}-{tag}.out"
            code = cli.main(argv + ["--seed", "9", "--workers", workers, "--out", str(out)])
            if code != 0:
                failures.append(f"{name} exited {code}")
            outputs.append(out.read_bytes())
        if not (outputs[0] == outputs[1] == outputs[2]):
            failures.append(f"{name} reports differ across workers")
    verdict(7, "byte-identical reports across workers", failures, started, limit=120.0)
