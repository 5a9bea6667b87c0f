"""Report format for the CLI: versioned JSON documents and fixed-header CSV.

A command hands over its config, its results and the CSV view of them;
this module alone knows the JSON envelope, the CSV preamble and which of
the two a report is.  A command's CSV rows are the records its JSON
results already carry, read off by key (:func:`record_columns`).

Rendering is deterministic — same payload, same bytes — so repeated runs with
one seed can be compared byte for byte.  Infinite values are serialized as
the string "inf" in both formats so documents survive strict JSON parsers.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from itertools import chain
from typing import Any, Iterator, Mapping, Sequence, TextIO

from . import __version__

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


def record_columns(rows: Sequence[Mapping[str, Any]], keys: Sequence[str]) -> list[list[Any]]:
    """The CSV columns of ``rows``, the records a JSON report carries: one
    column per key, its cells the records' own values."""
    return [[row[key] for row in rows] for key in keys]


def emit(config: dict[str, Any], results: dict[str, Any], header: Sequence[str],
         columns: Sequence[Sequence[Any]], fmt: str, out: str | None) -> None:
    """Write one report to ``out`` (stdout when None): ``results`` in the
    versioned JSON document, or ``columns`` under ``header`` as CSV after a
    comment line that echoes ``config``."""
    if fmt == "json":
        text = render_json({
            "schema": SCHEMA_VERSION,
            "tool": TOOL_NAME,
            "version": __version__,
            "command": config["command"],
            "seed": config["seed"],
            "config": config,
            "results": results,
        })
    else:
        echo = json.dumps(json_ready(config), sort_keys=True, separators=(",", ":"))
        preamble = f"# {TOOL_NAME} {__version__} schema={SCHEMA_VERSION} config={echo}\n"
        text = render_csv(header, columns, preamble=preamble)
    write_text(text, out)
