"""Report format for the CLI: versioned JSON documents and fixed-header CSV.

A command hands over its config, its results and the CSV view of them;
this module alone knows the JSON envelope, the CSV preamble and which of
the two a report is.  A command's CSV rows are the records its JSON
results already carry, read off by key (:func:`record_columns`).

A table too large to hold as text is handed over lazily, in blocks of rows,
and written block by block as it is formatted.  Rendering is deterministic —
same payload, same bytes — so repeated runs with one seed can be compared
byte for byte.  Infinite values are serialized as the string "inf" in both
formats so documents survive strict JSON parsers.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from itertools import chain, islice, tee
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, Mapping, Sequence, TextIO

from . import __version__

SCHEMA_VERSION = 1
TOOL_NAME = "gossip-aoi"

_Block = Sequence[Sequence[Any]]   # columns of cells, one sequence per field
_GROUP = 256   # lines or members per write: few writes, and little text held at once


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


def _lines(columns: _Block) -> Iterator[str]:
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


def render_csv(header: Sequence[str], columns: _Block, preamble: str = "") -> str:
    """CSV text of ``header`` over ``columns``, one sequence of cells per
    header field, in the :func:`csv_writer` dialect."""
    lines = chain(_lines([[name] for name in header]), _lines(columns))
    return preamble + "\n".join(lines) + "\n"


def write_text(pieces: Iterable[str], out: str | None) -> None:
    """Write the text ``pieces``, as they are made, to ``out`` (stdout when None)."""
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)


def record_columns(rows: Sequence[Mapping[str, Any]], keys: Sequence[str]) -> list[list[Any]]:
    """The CSV columns of ``rows``, the records a JSON report carries: one
    column per key, its cells the records' own values."""
    return [[row[key] for row in rows] for key in keys]


def emit(config: dict[str, Any], results: dict[str, Any], header: Sequence[str],
         blocks: Iterable[_Block], fmt: str, out: str | None) -> None:
    """Write one report to ``out`` (stdout when None): ``results`` in the
    versioned JSON document, or ``blocks`` of rows, each a sequence of
    columns, under ``header`` as CSV after a comment line that echoes
    ``config``.

    A table too large to hold as text comes lazily, as an iterator of blocks:
    as ``blocks``, or as a value of ``results``, keys first and in key order,
    which becomes a JSON object of lists.  The JSON envelope, the CSV
    preamble and header and the first ``_GROUP`` CSV rows are formatted
    before ``out`` is opened, so a report of no more rows is formatted whole
    first.  A lazy table's rows are formatted as they are written,
    ``_GROUP`` lines or members at a time, so a failure partway through them
    leaves the part written so far in ``out``.
    """
    if fmt == "json":
        streamed = [key for key, value in results.items() if isinstance(value, Iterator)]
        text = render_json({
            "schema": SCHEMA_VERSION,
            "tool": TOOL_NAME,
            "version": __version__,
            "command": config["command"],
            "seed": config["seed"],
            "config": config,
            "results": {**results, **{key: f"\0{i}" for i, key in enumerate(streamed)}},
        })
        # The marks hold a NUL, which no other string of a report can, so
        # the text splits at the marks alone.
        parts = re.split(r'"\\u0000(\d+)"', text) if streamed else [text]
        pieces = chain.from_iterable(_json_object(results[streamed[int(part)]]) if i % 2 else [part]
                                     for i, part in enumerate(parts))
    else:
        echo = json.dumps(json_ready(config), sort_keys=True, separators=(",", ":"))
        preamble = f"# {TOOL_NAME} {__version__} schema={SCHEMA_VERSION} config={echo}\n"
        rows = _joined(chain.from_iterable(map(_lines, blocks)), "\n")
        pieces = chain([render_csv(header, [], preamble), next(rows, "")], rows)
    write_text(pieces, out)


def _json_object(blocks: Iterator[_Block]) -> Iterator[str]:
    """Row blocks (keys, then one column per list item) as the JSON object of
    lists that :func:`render_json` writes for a value of ``results``."""
    members = chain.from_iterable(map(_json_members, blocks))
    first = next(members, None)
    if first is None:
        yield "{}"
        return
    yield "{\n" + first[2:]   # the first member follows the brace, not a comma
    yield from _joined(members, "")
    yield "\n    }"


def _json_members(block: _Block) -> Iterator[str]:
    """The members of one block, lazily, each after a comma: 6 spaces in,
    list items 8, floats as ``repr`` and the non-finite ones as strings."""
    keys, *columns = block
    items = ",".join(["\n        %s"] * len(columns))
    member = f",\n      %s: [{items}\n      ]"
    return map(member.__mod__, zip(map(encode_basestring_ascii, keys), *map(_json_items, columns)))


# A float's JSON text is its repr, but for the non-finite floats, which
# json_ready turns into strings: repr -> JSON text for those.
_NON_FINITE = {repr(x): json.dumps(json_ready(x)) for x in (math.inf, -math.inf, math.nan)}


def _json_items(column: Sequence[Any]) -> Iterator[str]:
    """A column's cells as ``json.dumps`` writes them after :func:`json_ready`:
    a column of floats is one ``map(repr)``, whose texts are looked up in
    ``_NON_FINITE`` when it holds a non-finite one; any other column goes
    cell by cell."""
    if {*map(type, column)} <= {float}:
        if math.isfinite(sum(column)):
            return map(repr, column)
        keys, texts = tee(map(repr, column))
        return map(_NON_FINITE.get, keys, texts)
    return (json.dumps(json_ready(cell)) for cell in column)


def _joined(items: Iterator[str], sep: str) -> Iterator[str]:
    """``items`` as text, ``_GROUP`` of them a piece, each followed by ``sep``."""
    while group := list(islice(items, _GROUP)):
        yield sep.join(group) + sep
