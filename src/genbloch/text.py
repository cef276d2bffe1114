"""The CLI's table, matrix, coords and SVG writers.

The library gives a table as (column names, one array per column), or, for
sample_domain, as its names and blocks of such columns, and one cell-grid
writer (_table_text) spells every CSV and JSON table from its blocks with
that format's separators, each distinct float magnitude of a block once and
at full double precision, so repeated runs are byte-identical; a negative
float's "-" ends the lead, the separator text before its cell.  A float that
is not finite is refused in every format.  An SVG pixel coordinate is two
cells, spelled from its integer count of hundredths.  CSV and SVG text is
joined in blocks of _BLOCK_ROWS rows.  A figure's table is one block, spelled
as a whole; a sample's blocks hold the cells of _BLOCK_ROWS rows of ten
columns each (fewer rows when wider), and its text, the CSV header or the JSON
document's head spelled once, comes block by block as run() writes it
(_csv_blocks, _json_items, _json_parts), so the bytes do not depend on the
block size.  Any other JSON document is one str.  Matrix JSON
(_matrix_text) and coords JSON (_coords_text) go through the same writer.
Only the CLI answers that print one of these import this module, and
sample_domain, which reads _BLOCK_ROWS.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import NonFiniteResult, _json_text


def _spell_floats(values: np.ndarray) -> tuple:
    """(text, negative) of the float64 values: text[i] is the repr of the
    magnitude of values[i], and negative[i] whether its sign bit is set (-0.0
    too) and it is not NaN, so that repr(values[i]) is "-" + text[i] where
    negative[i] holds and text[i] elsewhere.  Each distinct magnitude is
    spelled once.
    """
    bits = values.view(np.int64)
    magnitude, where = np.unique(bits & np.int64(2 ** 63 - 1), return_inverse=True)
    # float's own repr: numpy 2 spells a numpy float as np.float64(...)
    text = np.array(list(map(float.__repr__, magnitude.view(np.float64).tolist())), dtype=object)
    return text[where], (bits < 0) & ~np.isnan(values)


# a table's booleans (false, true) and the spelling of its strings, per format
_CSV = (np.array(["0", "1"], dtype=object), str)
_JSON = (np.array(["false", "true"], dtype=object), json.dumps)

# rows per block of CSV and SVG text: run() writes a table block by block
_BLOCK_ROWS = 8192


def _row_blocks(cells: np.ndarray) -> list:
    """The text of each block of _BLOCK_ROWS rows of a grid of cells."""
    return ["".join(cells[i:i + _BLOCK_ROWS].ravel().tolist())
            for i in range(0, len(cells), _BLOCK_ROWS)]


def _table_text(blocks, leads, tail, words, head):
    """Per row of each block of equal-length columns: leads[0], its cell of the
    first column, leads[1], ..., its cell of the last column, tail; head stands
    in for the table's first leads[0] and is the whole text of a table without
    rows.  The text comes lazily, one str per _BLOCK_ROWS rows of each block,
    and a block's grid of cells is gone before the next block is read.

    Cells: booleans are words[0][1]/[0], floats at full round-trip precision,
    ints through str, anything else (strings) through words[1], each distinct
    value of a block once.  A negative float's "-" ends the lead before it.  A
    float that is not finite is refused with NonFiniteResult before any text of
    its block is built.
    """
    empty = True
    for columns in blocks:
        columns = [np.asarray(col) for col in columns]
        if columns and len(columns[0]):
            yield from _row_blocks(_cells(columns, leads, tail, words, head))
            # a later block's first row opens as every other row does
            head, empty = leads[0], False
    if empty:
        yield head


def _cells(columns, leads, tail, words, head) -> np.ndarray:
    """The grid of one block of _table_text, its rows' leads and cells alternating."""
    rows = len(columns[0])
    cells = np.empty((rows, 2 * len(columns) + 1), dtype=object)
    cells[:, :-1:2] = leads
    cells[:, -1] = tail
    cells[0, 0] = head
    floats = [j for j, col in enumerate(columns) if col.dtype == np.float64]
    if floats:
        values = np.concatenate([columns[j] for j in floats])
        if not np.isfinite(values).all():
            raise NonFiniteResult()
        text, negative = _spell_floats(values)
        cells[:, [2 * j + 1 for j in floats]] = text.reshape(len(floats), rows).T
        for j, minus in zip(floats, negative.reshape(len(floats), rows)):
            cells[minus, 2 * j] = leads[j] + "-"
        # the first row's first lead is head, which takes its "-" the same way
        if floats[0] == 0 and negative[0]:
            cells[0, 0] = head + "-"
    bits, spell = words
    for j, col in enumerate(columns):
        if col.dtype == bool:
            cells[:, 2 * j + 1] = bits[col.astype(np.uint8)]
        elif col.dtype.kind in "iu":
            cells[:, 2 * j + 1] = list(map(str, col.tolist()))
        elif col.dtype != np.float64:
            spelled = {v: spell(v) for v in set(col.tolist())}
            cells[:, 2 * j + 1] = [spelled[v] for v in col.tolist()]
    return cells


def _csv_blocks(header, blocks):
    """CSV of the header line and one line per row of each block of columns, lazily."""
    return _table_text(blocks, ["", *[","] * (len(header) - 1)], "\n", _CSV,
                       ",".join(header) + "\n")


def _csv_text(header, columns) -> list:
    """CSV of the header line and one line per row of the columns, in row blocks."""
    return list(_csv_blocks(header, [columns]))


def _json_items(blocks, leads, tail):
    """json.dumps(indent=2) of a list, one item per row of each block of columns
    (which must hold a row), as the value of a document's key, lazily: leads[0]
    opens an item after a comma and tail closes it."""
    yield from _table_text(blocks, leads, tail, _JSON, "[" + leads[0][1:])
    yield "\n  ]"


def _json_list(columns, leads=None, tail="\n    ]") -> str:
    """json.dumps(indent=2) of a list, one item per row of the columns, as the
    value of a document's key: the row as a list, or else as leads and tail
    spell it (_json_items)."""
    leads = leads or [",\n    [\n      ", *[",\n      "] * (len(columns) - 1)]
    return "".join(_json_items([columns], leads, tail)) if len(columns[0]) else "[]"


def _json_document(fields: dict, tables: dict) -> str:
    """json.dumps({**fields, **tables}, indent=2, sort_keys=True), each table
    already spelled as the value of its key (_json_list, or a _json_document
    indented by two spaces)."""
    return "".join(_json_parts(fields, tables))


def _json_parts(fields: dict, tables: dict):
    """_json_document lazily, piece by piece: a table may be spelled as an
    iterable of pieces (_json_items), each taking its place in turn."""
    values = {**{key: _json_text(v).replace("\n", "\n  ") for key, v in fields.items()}, **tables}
    if not values:
        yield "{}"
        return
    opening = "{"
    for key in sorted(values):
        yield f"{opening}\n  {json.dumps(key)}: "
        opening = ","
        yield from [values[key]] if isinstance(values[key], str) else values[key]
    yield "\n}"


def _matrix_text(a) -> str:
    """json.dumps(linalg.matrix_to_json(a), indent=2, sort_keys=True)."""
    from .linalg import as_matrix

    a = as_matrix(a)
    flat = a.ravel()
    return _json_document({"dim": a.shape[0]}, {"entries": _json_list([flat.real, flat.imag])})


def _coords_text(coords) -> str:
    """json.dumps(coords.coords_to_json(coords), indent=2, sort_keys=True)."""
    grades = {}
    for k in coords.grades:
        idx, val = coords.wire_entries(k)
        leads = [',\n    {\n      "idx": [\n        ', *[",\n        "] * (k - 1),
                 '\n      ],\n      "val": ']
        grades[str(k)] = _json_list([*idx.T, val], leads, "\n    }")
    return _json_document({"m": coords.m, "mode": coords.mode, "scalar": coords.scalar},
                          {"grades": _json_document({}, grades).replace("\n", "\n  ")})


_CENTS = np.array([f"{c:02d}" for c in range(100)], dtype=object)
_SVG_SIZE = 640  # the width and height of every SVG figure, in pixels


def _spell_hundredths(values: np.ndarray, top: int) -> tuple:
    """"{:.2f}".format(v) for each float64 v of values, as two cells whose
    concatenation is that spelling.

    A v in (0, top] is spelled from its nearest count of hundredths k as
    f"{k // 100}." and f"{k % 100:02d}", both from small string tables.  That
    is format's rounding unless 100 v lies within 1e-6 of a tie k + 1/2,
    which format settles half-even on the exact binary value; such values,
    and any outside (0, top], are "{:.2f}".format(v) and "".
    """
    hundredths = values * 100.0
    k = np.rint(hundredths)
    table = (values > 0) & (k <= 100 * top) & (np.abs(hundredths - k) < 0.5 - 1e-6)
    whole = np.array([f"{i}." for i in range(top + 1)], dtype=object)
    k = k[table].astype(np.intp)
    first = np.empty(len(values), dtype=object)
    second = np.full(len(values), "", dtype=object)
    first[table] = whole[k // 100]
    second[table] = _CENTS[k % 100]
    first[~table] = list(map("{:.2f}".format, values[~table].tolist()))
    return first, second


def _svg_text(xs, ys, labels) -> list:
    """Flat scatter of the (x, y) points colored by label, in row blocks."""
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    x0, x1 = (float(xs.min()), float(xs.max())) if xs.size else (0.0, 0.0)
    y0, y1 = (float(ys.min()), float(ys.max())) if ys.size else (0.0, 0.0)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    margin = 20
    scale = _SVG_SIZE - 2 * margin
    # the per-point formula's order of operations, kept over the arrays so
    # that every pixel coordinate is the same double as one point at a time
    px = margin + (xs - x0) / span_x * scale
    py = _SVG_SIZE - margin - (ys - y0) / span_y * scale
    # seven cells per point: each pixel coordinate is two
    points = np.empty((len(px), 7), dtype=object)
    points[:, 0] = '\n<circle cx="'
    points[:, 1], points[:, 2] = _spell_hundredths(px, _SVG_SIZE)
    points[:, 3] = '" cy="'
    points[:, 4], points[:, 5] = _spell_hundredths(py, _SVG_SIZE)
    labels = np.asarray(labels)
    for i, lab in enumerate(sorted(set(labels.tolist()))):
        points[labels == lab, 6] = f'" r="1.5" fill="{palette[i % len(palette)]}"/>'
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
            f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">', *_row_blocks(points), "\n</svg>"]
