"""Seeded inputs, CLI calls and output checks for the benchmark workloads.

Each workload turns a seed into a list of CLI calls.  Every call writes its
report to its own ``--out`` file, and each call carries the check that reads
that report back.  Inputs come from the benchmark's own generator; nothing
here imports from the test suite.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gossip_aoi.moments import solve_moments
from gossip_aoi.network import GossipNetwork, load_network

RATE_LOW = 0.2
RATE_HIGH = 5.0
K = 3                  # highest moment order in every networked workload
SUBSET_SIZE = 2
Z_LIMIT = 4.0          # the CLI's own default --se-threshold
TABLE_REL_TOL = 1e-12


class CheckFailed(Exception):
    """A report that exists but does not hold the expected values."""


@dataclass(frozen=True)
class Call:
    """One closed-loop operation: a ``cli.main`` argv and the check of its report."""

    argv: tuple[str, ...]
    out: Path
    verify: Callable[[Path], None]


def random_network(rng: np.random.Generator, nodes: int, edges: int) -> dict:
    """Network JSON document on nodes 0..nodes with every node reachable.

    A random arborescence from the source comes first (``nodes`` edges), then
    distinct extra edges are drawn uniformly from the rest until there are
    ``edges`` in all.  Rates are uniform in [RATE_LOW, RATE_HIGH].
    """
    candidates = [(u, v) for u in range(nodes + 1) for v in range(1, nodes + 1) if u != v]
    if not nodes <= edges <= len(candidates):
        raise ValueError(f"need {nodes} <= edges <= {len(candidates)}, got {edges}")
    chosen: dict[tuple[int, int], float] = {}
    informed = [0]
    for v in rng.permutation(nodes) + 1:
        u = informed[int(rng.integers(len(informed)))]
        chosen[u, int(v)] = float(rng.uniform(RATE_LOW, RATE_HIGH))
        informed.append(int(v))
    rest = [pair for pair in candidates if pair not in chosen]
    for i in sorted(rng.choice(len(rest), size=edges - nodes, replace=False).tolist()):
        chosen[rest[i]] = float(rng.uniform(RATE_LOW, RATE_HIGH))
    return {
        "nodes": nodes,
        "edges": [{"from": u, "to": v, "rate": r} for (u, v), r in sorted(chosen.items())],
    }


def random_subset(rng: np.random.Generator, nodes: int) -> tuple[int, ...]:
    return tuple(sorted(int(v) for v in rng.choice(nodes, size=SUBSET_SIZE, replace=False) + 1))


def _write_network(doc: dict, path: Path) -> GossipNetwork:
    text = json.dumps(doc, indent=1)
    path.write_text(text, encoding="utf-8")
    return load_network(text)


def _results(out: Path) -> dict:
    return json.loads(out.read_text(encoding="utf-8"))["results"]


def _value(cell) -> float:
    return math.inf if cell == "inf" else float(cell)


def _check_z(label: str, z: float) -> None:
    if not abs(z) <= Z_LIMIT:
        raise CheckFailed(f"{label}: |z| = {abs(z):.3g} exceeds {Z_LIMIT}")


# ---- checks ----------------------------------------------------------------


def check_compare(out: Path) -> None:
    results = _results(out)
    for row in results["rows"]:
        _check_z(f"fpp k={row['k']}", _value(row["fpp_z"]))
        _check_z(f"sim k={row['k']}", _value(row["sim_z"]))
    if results["pass"] is not True:
        raise CheckFailed("compare reported pass = false")


def check_table(net: GossipNetwork, picks: int, seed: int, out: Path) -> None:
    """Row count is 2^n - 1; a seeded sample of rows matches single-subset solves."""
    lines = out.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#"):
        raise CheckFailed("CSV report lacks its '#' preamble line")
    rows = list(csv.reader(lines[2:]))
    expected = (1 << net.node_count) - 1
    if len(rows) != expected:
        raise CheckFailed(f"table has {len(rows)} rows, expected {expected}")
    rng = np.random.default_rng([seed, 0x7AB1E])
    for i in sorted(rng.choice(len(rows), size=min(picks, len(rows)), replace=False).tolist()):
        ids = tuple(int(part) for part in rows[i][0].split(","))
        exact = solve_moments(net, ids, K)
        for order, cell in enumerate(rows[i][1:], start=1):
            got = _value(cell)
            if not math.isclose(got, exact[order], rel_tol=TABLE_REL_TOL, abs_tol=0.0):
                raise CheckFailed(f"subset {ids} v{order}: table {got!r}, solve_moments {exact[order]!r}")


def check_timeavg(net: GossipNetwork, subset: tuple[int, ...], out: Path) -> None:
    exact = solve_moments(net, subset, K)
    for est in _results(out)["estimates"]:
        se = _value(est["std_error"])
        if not se > 0:
            raise CheckFailed(f"k={est['k']}: standard error {se!r} is not positive")
        _check_z(f"timeavg k={est['k']}", (_value(est["mean"]) - exact[est["k"]]) / se)


def check_lattice(out: Path) -> None:
    results = _results(out)
    raw, mean, se = (_value(results[key]) for key in ("raw", "mc_mean", "mc_se"))
    if not abs(mean - raw) <= Z_LIMIT * se:
        raise CheckFailed(f"recursion {raw!r} is not within {Z_LIMIT} SE ({se!r}) of mc_mean {mean!r}")


# ---- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Crosscheck:
    """compare: solver vs FPP vs replication on a pool of 12-node networks.

    The default horizon (3x the worst of 32 pilot runs) varies a lot from
    network to network, so each run cycles through a pool of networks and
    the harness reports the median call; one network per run would make the
    figure depend mostly on which network the seed drew.  The harness runs
    whole rounds over the pool, and a round (about 16 s at the seed) must
    fit in the run length.
    """

    name: str = "crosscheck"
    nodes: int = 12
    edges: int = 50
    networks: int = 8
    samples: int = 393_216
    replicas: int = 16_384
    workers: int = 2

    def calls(self, seed: int, workdir: Path) -> list[Call]:
        calls = []
        for j in range(self.networks):
            rng = np.random.default_rng([seed, 1, j])
            net_path = workdir / f"crosscheck-net{j}.json"
            _write_network(random_network(rng, self.nodes, self.edges), net_path)
            subset = random_subset(rng, self.nodes)
            out = workdir / f"crosscheck-out{j}.json"
            argv = ("compare", "--network", str(net_path), "--subset", ",".join(map(str, subset)),
                    "--k", str(K), "--samples", str(self.samples),
                    "--replicas", str(self.replicas), "--workers", str(self.workers),
                    "--seed", str(seed), "--out", str(out))
            calls.append(Call(argv, out, check_compare))
        return calls


@dataclass(frozen=True)
class Table:
    """solve without a subset: every one of the 2^16 - 1 subsets, as CSV."""

    name: str = "table"
    nodes: int = 16
    edges: int = 87
    picks: int = 16

    def calls(self, seed: int, workdir: Path) -> list[Call]:
        rng = np.random.default_rng([seed, 2])
        net_path = workdir / "table-net.json"
        net = _write_network(random_network(rng, self.nodes, self.edges), net_path)
        out = workdir / "table-out.csv"
        argv = ("solve", "--network", str(net_path), "--k", str(K), "--format", "csv",
                "--workers", "1", "--seed", str(seed), "--out", str(out))
        return [Call(argv, out, lambda path: check_table(net, self.picks, seed, path))]


@dataclass(frozen=True)
class Trajectory:
    """simulate --mode timeavg: the sequential per-event loop on one 8-node network.

    The horizon is a fixed event count divided by the network's total rate,
    so run length does not depend on the seed.
    """

    name: str = "trajectory"
    nodes: int = 8
    edges: int = 22
    events: int = 400_000

    def calls(self, seed: int, workdir: Path) -> list[Call]:
        rng = np.random.default_rng([seed, 3])
        net_path = workdir / "trajectory-net.json"
        net = _write_network(random_network(rng, self.nodes, self.edges), net_path)
        subset = random_subset(rng, self.nodes)
        horizon = self.events / net.total_rate
        out = workdir / "trajectory-out.json"
        argv = ("simulate", "--network", str(net_path), "--subset", ",".join(map(str, subset)),
                "--mode", "timeavg", "--k", str(K), "--horizon", repr(horizon),
                "--workers", "1", "--seed", str(seed), "--out", str(out))
        return [Call(argv, out, lambda path: check_timeavg(net, subset, path))]


@dataclass(frozen=True)
class Lattice:
    """lattice --d 8 --ell 2: 2^16 clusters and one 16384-sample MC block.

    At d = 9 the pure-Python box enumeration and recursion made a call take
    about 7 s, so only three fitted in a run, and the run medians spread by
    0.27 over ten seeds; at d = 8 a call takes about 3 s.
    """

    name: str = "lattice"
    d: int = 8
    ell: int = 2
    samples: int = 16_384

    def calls(self, seed: int, workdir: Path) -> list[Call]:
        out = workdir / "lattice-out.json"
        argv = ("lattice", "--d", str(self.d), "--ell", str(self.ell),
                "--samples", str(self.samples), "--workers", "1",
                "--seed", str(seed), "--out", str(out))
        return [Call(argv, out, check_lattice)]


WORKLOADS = {w.name: w for w in (Crosscheck(), Table(), Trajectory(), Lattice())}
