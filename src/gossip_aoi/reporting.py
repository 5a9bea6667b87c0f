"""Report rendering for the CLI: versioned JSON documents and fixed-header CSV.

Rendering is deterministic — same payload, same bytes — so repeated runs with
one seed can be compared byte for byte.  Infinite values are serialized as
the string "inf" in both formats so documents survive strict JSON parsers.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Any, Iterator, Sequence, TextIO

from .montecarlo import MomentEstimate

SCHEMA_VERSION = 1
TOOL_NAME = "gossip-aoi"


def json_ready(value: Any) -> Any:
    """Recursively replace non-finite floats so strict JSON can carry them."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {k: json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    return value


def render_json(document: dict[str, Any]) -> str:
    return json.dumps(json_ready(document), indent=2, sort_keys=True) + "\n"


def csv_writer(fh: TextIO) -> Any:
    """A ``csv.writer`` in the CSV dialect of the reports, for row-by-row
    output such as the ``--trace`` stream: floats as ``repr`` (so ``inf``,
    ``-inf`` and ``nan`` as such), other cells as ``str``, each row ended by
    a bare newline.  :func:`render_csv` writes the same dialect, and the
    tests pin it to this writer byte for byte."""
    return csv.writer(fh, lineterminator="\n")


def _field(cell: Any) -> str:
    """One cell as :func:`csv_writer` writes it: quoted, with its quotes
    doubled, when it holds a comma, a quote or a newline."""
    if type(cell) is str:
        text = cell
    elif cell is None:
        text = ""
    else:
        text = repr(cell) if isinstance(cell, float) else str(cell)
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text:
        return '"' + text + '"'
    return text


def _lines(columns: Sequence[Sequence[Any]]) -> Iterator[str]:
    """The lines of ``columns``, lazily.  The formatter is picked once per
    column: a column of plain floats is one ``map(repr)``, which never needs
    quotes, and any other column goes cell by cell through :func:`_field`."""
    if len({len(column) for column in columns}) > 1:
        raise ValueError("CSV columns differ in length")
    texts = [map(repr, column) if {*map(type, column)} <= {float} else map(_field, column)
             for column in columns]
    if len(texts) == 1:
        # A row whose only field is empty is written as "", not as a blank line.
        return (text or '""' for text in texts[0])
    return map(",".join, zip(*texts))


def render_csv(header: Sequence[str], columns: Sequence[Sequence[Any]], preamble: str = "") -> str:
    """CSV text of ``header`` over ``columns``, one sequence of cells per
    header field, in the :func:`csv_writer` dialect."""
    lines = chain(_lines([[name] for name in header]), _lines(columns))
    return preamble + "\n".join(lines) + "\n"


def write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def estimate_columns(estimates: Sequence[MomentEstimate]) -> list[list[Any]]:
    return [[e.k for e in estimates], [e.mean for e in estimates],
            [e.std_error for e in estimates], [e.sample_count for e in estimates]]


def estimate_payload(estimates: Sequence[MomentEstimate]) -> list[dict[str, Any]]:
    return [
        {"k": e.k, "mean": e.mean, "std_error": e.std_error, "samples": e.sample_count}
        for e in estimates
    ]


@dataclass(frozen=True)
class CompareRow:
    """One moment order checked against both stochastic oracles."""

    k: int
    solver: float
    fpp_mean: float
    fpp_se: float
    fpp_z: float
    sim_mean: float
    sim_se: float
    sim_z: float
    passed: bool


def z_score(reference: float, estimate: MomentEstimate) -> float:
    if estimate.std_error > 0:
        return (estimate.mean - reference) / estimate.std_error
    return 0.0 if estimate.mean == reference else math.inf


def build_compare_rows(
    solver_vector: Sequence[float],
    fpp_estimates: Sequence[MomentEstimate],
    sim_estimates: Sequence[MomentEstimate],
    threshold: float,
) -> list[CompareRow]:
    rows = []
    for fpp_est, sim_est in zip(fpp_estimates, sim_estimates):
        k = fpp_est.k
        exact = solver_vector[k]
        fz = z_score(exact, fpp_est)
        sz = z_score(exact, sim_est)
        rows.append(
            CompareRow(
                k=k,
                solver=exact,
                fpp_mean=fpp_est.mean,
                fpp_se=fpp_est.std_error,
                fpp_z=fz,
                sim_mean=sim_est.mean,
                sim_se=sim_est.std_error,
                sim_z=sz,
                passed=abs(fz) <= threshold and abs(sz) <= threshold,
            )
        )
    return rows
