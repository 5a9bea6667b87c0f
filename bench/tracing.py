"""Span recording around the public entry points of each gossip_aoi module.

A ``Recorder`` replaces each entry point with a wrapper for the length of one
traced call and restores it afterwards; nothing in ``src/`` changes.  A span
holds its name, start, end, the index of the span that was open when it
started, and the work counts read from the call's arguments, its result
or its child spans.
``layer_metrics`` turns the spans of one call into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

Counter = Callable[[dict[str, Any], Any, list["Span"]], dict[str, float]]


# Counters read work counts at the entry point from its arguments, its result
# and its child spans; "work" is the divisor of the layer's computed metric.


def _solve_all_counts(args: dict[str, Any], result: Any, children: list[Span]) -> dict[str, float]:
    subsets, edges = len(result.entries), len(args["self"].net.edges)
    return {"subsets": subsets, "edges": edges, "work": subsets * edges}


def _fpp_counts(args: dict[str, Any], result: Any, children: list[Span]) -> dict[str, float]:
    samples, edges = args["samples"], len(args["net"].edges)
    return {"samples": samples, "edges": edges, "work": samples * edges}


def _replication_counts(args: dict[str, Any], result: Any, children: list[Span]) -> dict[str, float]:
    replicas, horizon, rate = args["replicas"], args["horizon"], args["net"].total_rate
    return {"replicas": replicas, "horizon": horizon, "total_rate": rate,
            "work": replicas * horizon * rate}


def _timeavg_counts(args: dict[str, Any], result: Any, children: list[Span]) -> dict[str, float]:
    horizon, rate = args["horizon"], args["net"].total_rate
    return {"horizon": horizon, "total_rate": rate, "work": horizon * rate}


def _lattice_mc_counts(args: dict[str, Any], result: Any, children: list[Span]) -> dict[str, float]:
    # mc_boundary_passage builds its own box; the edge count comes from that child.
    samples = args["samples"]
    edges = sum(c.counts.get("edges", 0.0) for c in children if c.name == "lattice.build_box")
    return {"samples": samples, "edges": edges, "work": samples * edges}


# (span name, module, attribute path, counter or None)
ENTRY_POINTS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("cli.main", "gossip_aoi.cli", "main", None),
    ("network.load_network", "gossip_aoi.network", "load_network", None),
    ("moments.MomentSolver.solve", "gossip_aoi.moments", "MomentSolver.solve", None),
    ("moments.MomentSolver.solve_all", "gossip_aoi.moments", "MomentSolver.solve_all", _solve_all_counts),
    ("moments.MomentTable.csv_rows", "gossip_aoi.moments", "MomentTable.csv_rows", None),
    ("moments.MomentTable.json_map", "gossip_aoi.moments", "MomentTable.json_map", None),
    ("fpp.estimate_moments", "gossip_aoi.fpp", "estimate_moments", _fpp_counts),
    ("simulate.pilot_t0", "gossip_aoi.simulate", "pilot_t0", None),
    ("simulate.replication_results", "gossip_aoi.simulate", "replication_results", _replication_counts),
    ("simulate.estimate_moments_timeavg", "gossip_aoi.simulate", "estimate_moments_timeavg", _timeavg_counts),
    ("lattice.build_box", "gossip_aoi.lattice", "build_box",
     lambda args, result, children: {"edges": len(result.edges)}),
    ("lattice.time_constant_estimate", "gossip_aoi.lattice", "time_constant_estimate", None),
    ("lattice.mc_boundary_passage", "gossip_aoi.lattice", "mc_boundary_passage", _lattice_mc_counts),
    ("montecarlo.map_blocks", "gossip_aoi.montecarlo", "map_blocks",
     lambda args, result, children: {"blocks": args["n_blocks"]}),
    ("reporting.render_json", "gossip_aoi.reporting", "render_json", None),
    ("reporting.render_csv", "gossip_aoi.reporting", "render_csv", None),
    ("reporting.write_text", "gossip_aoi.reporting", "write_text", None),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory while installed around one call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        self.spans = []
        self.absent = []
        for name, module_name, path, counter in ENTRY_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, counter)
            if outer:
                self._patch(owner, attr, original, wrapper)
                continue
            # Functions are also reached through names other modules imported.
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "gossip_aoi" or mod_name.startswith("gossip_aoi."):
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []
        self._stack = []

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    children = [s for s in self.spans[index + 1:] if s.parent == index]
                    span.counts = counter(dict(bound.arguments), result, children)
                except (TypeError, KeyError, AttributeError):
                    span.counts = {}
            return result

        return wrapper


# ---- per-layer metrics ----------------------------------------------------

SPAN_NAMES = tuple(entry[0] for entry in ENTRY_POINTS)


@dataclass(frozen=True)
class LayerMetric:
    """How one per-layer metric is read from the spans of one call.

    From each span named in ``sources`` it takes ``read``: "time" (the
    span's duration minus that of its child spans named in ``minus``),
    "calls" (1 per span) or the name of a work count.  A computed metric
    divides the sum by the spans' "work" count, described by ``per``, and
    multiplies by ``scale``.
    """

    unit: str
    sources: tuple[str, ...]
    read: str = "time"
    minus: tuple[str, ...] = ()
    per: str | None = None
    scale: float = 1.0


TABLE_FORMAT = ("moments.MomentTable.csv_rows", "moments.MomentTable.json_map")
# Estimators whose time outside map_blocks (and the box they build) is the reduction step.
ESTIMATORS = ("fpp.estimate_moments", "simulate.replication_results", "lattice.mc_boundary_passage")

LAYER_METRICS: dict[str, LayerMetric] = {
    "cli.main_s": LayerMetric("s", ("cli.main",)),
    "cli.self_s": LayerMetric("s", ("cli.main",), minus=SPAN_NAMES),
    "network.load_s": LayerMetric("s", ("network.load_network",)),
    "moments.solve_all_s": LayerMetric("s", ("moments.MomentSolver.solve_all",)),
    "moments.ns_per_subset_edge": LayerMetric(
        "ns", ("moments.MomentSolver.solve_all",),
        per="subsets x edges of each solve_all", scale=1e9),
    "moments.solve_s": LayerMetric("s", ("moments.MomentSolver.solve",)),
    "moments.table_format_s": LayerMetric("s", TABLE_FORMAT),
    "moments.table_format_calls": LayerMetric("count", TABLE_FORMAT, read="calls"),
    "reporting.render_s": LayerMetric(
        "s", ("reporting.render_json", "reporting.render_csv", "reporting.write_text")),
    "fpp.estimate_s": LayerMetric("s", ("fpp.estimate_moments",)),
    "fpp.ns_per_sample_edge": LayerMetric(
        "ns", ("fpp.estimate_moments",),
        per="samples x edges of each estimate_moments", scale=1e9),
    "simulate.pilot_s": LayerMetric("s", ("simulate.pilot_t0",)),
    "simulate.replication_s": LayerMetric("s", ("simulate.replication_results",)),
    "simulate.ns_per_replica_event": LayerMetric(
        "ns", ("simulate.replication_results",),
        per="replicas x horizon x total rate of each replication_results", scale=1e9),
    "simulate.timeavg_s": LayerMetric("s", ("simulate.estimate_moments_timeavg",)),
    "simulate.us_per_event": LayerMetric(
        "us", ("simulate.estimate_moments_timeavg",),
        per="horizon x total rate of each estimate_moments_timeavg", scale=1e6),
    "montecarlo.map_blocks_s": LayerMetric("s", ("montecarlo.map_blocks",)),
    "montecarlo.blocks": LayerMetric("count", ("montecarlo.map_blocks",), read="blocks"),
    "montecarlo.reduce_s": LayerMetric(
        "s", ESTIMATORS, minus=("montecarlo.map_blocks", "lattice.build_box")),
    "lattice.build_box_s": LayerMetric("s", ("lattice.build_box",)),
    "lattice.build_box_calls": LayerMetric("count", ("lattice.build_box",), read="calls"),
    "lattice.recursion_s": LayerMetric(
        "s", ("lattice.time_constant_estimate",), minus=("lattice.build_box",)),
    "lattice.mc_s": LayerMetric(
        "s", ("lattice.mc_boundary_passage",), minus=("lattice.build_box",)),
    "lattice.ns_per_sample_edge": LayerMetric(
        "ns", ("lattice.mc_boundary_passage",), minus=("lattice.build_box",),
        per="samples x box edges of each mc_boundary_passage", scale=1e9),
}

# Computed metric -> the counts it divides by, for the trace report.
COMPUTED = {name: m.per for name, m in LAYER_METRICS.items() if m.per is not None}


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one call's spans, and the work counts behind the
    computed ones.  Entry points that were not called contribute 0."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    metrics, bases = {}, {}
    for name, m in LAYER_METRICS.items():
        picked = [(span, children[i]) for i, span in enumerate(spans) if span.name in m.sources]
        if m.read == "time":
            value = sum(span.duration - sum(c.duration for c in kids if c.name in m.minus)
                        for span, kids in picked)
        elif m.read == "calls":
            value = float(len(picked))
        else:
            value = sum(span.counts.get(m.read, 0.0) for span, _ in picked)
        if m.per is not None:
            bases[name] = sum(span.counts.get("work", 0.0) for span, _ in picked)
            value = value * m.scale / bases[name] if bases[name] > 0 else 0.0
        metrics[name] = value
    return metrics, bases


def absent_metrics(absent: list[str]) -> list[str]:
    """Per-layer metrics that read or subtract an entry point that no longer exists."""
    return [name for name, m in LAYER_METRICS.items() if set(m.sources + m.minus) & set(absent)]
