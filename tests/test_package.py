"""The package's public surface."""

from __future__ import annotations

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import gossip_aoi
from helpers import line_network

PUBLIC_NAMES = [
    "Edge",
    "GossipNetwork",
    "LatticeBox",
    "MemoLimitError",
    "MomentEstimate",
    "MomentSolver",
    "MomentTable",
    "NetworkConfigError",
    "NodeSubset",
    "PendingReplicasError",
    "ReplicationResult",
    "UnreachableTargetError",
    "as_subset",
    "box_recursion",
    "build_box",
    "estimate_moments",
    "estimate_moments_timeavg",
    "load_network",
    "mc_boundary_passage",
    "pilot_t0",
    "replication_results",
    "solve_moments",
]


def test_all_is_exactly_the_public_names_and_each_resolves():
    assert sorted(gossip_aoi.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(gossip_aoi, name) is not None, name


def test_moment_table_entries_are_read_only():
    table = gossip_aoi.MomentSolver(line_network(1.0, 2.0), 2).solve_all()
    assert table.entries.shape == (3, 2)
    assert not table.entries.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table.entries[0, 0] = 0.0


def test_every_entry_point_the_bench_traces_resolves(monkeypatch):
    # bench/tracing.py wraps these names for its per-layer metrics and counts
    # one it cannot find as absent; a rename here would leave it untraced.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)   # its dataclasses look it up
    spec.loader.exec_module(tracing)
    absent = []
    for name, module_name, attr_path, _ in tracing.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            absent.append(name)
    assert tracing.ENTRY_POINTS
    assert absent == []


def test_the_readme_library_example_runs_and_agrees_with_its_comment():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [code] = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace: dict = {}
    exec(code, namespace)
    commented = ast.literal_eval(re.search(r"^exact = .*# (\(.*\))$", code, re.M).group(1))
    assert commented == (1.0, 1.5, 3.5)
    assert tuple(namespace["exact"]) == pytest.approx(commented, abs=1e-12)
    estimates = [*namespace["fpp"], *namespace["sim"].estimates]
    assert [e.k for e in estimates] == [1, 2, 1, 2]
    for e in estimates:
        assert abs(e.mean - commented[e.k]) <= 4 * e.std_error, e
