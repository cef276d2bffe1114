"""The CLI's writers that load no numpy.

A JSON document is spelled piece by piece (_json_parts), a nested one
indented piece by piece (_nested); the text module's writers hand their
pieces to these, and each check that can refuse a writer's text runs at its
call (_at_call).  A figure of at most figures.PLAIN_ROWS candidate rows,
given as Python list columns (figures._plain_columns), is spelled here byte
for byte as the text module spells array columns: CSV and JSON tables
(_csv_blocks, _json_items) with each float's repr, and the SVG scatter
(_svg_text) with "{:.2f}".format of each pixel coordinate.  Such a table is
small, so its text is made at the call, one str per table.  No figure holds
a float that is not finite, so these writers check none.
"""

from __future__ import annotations

import itertools

from .errors import _json_text


def _at_call(writer):
    """The generator function writer, run to its first piece when called, so
    each check it makes before that piece refuses at the call."""
    def call(*args):
        pieces = writer(*args)
        # an iterator, not a list: the first piece goes once taken, not with the chain
        return itertools.chain(iter([next(pieces)]), pieces)
    return call


@_at_call
def _json_parts(fields: dict, tables: dict):
    """json.dumps({**fields, **tables}, indent=2, sort_keys=True) piece by
    piece, each table given as the pieces of its value (_json_items, _nested)."""
    values = {**{key: [_json_text(v).replace("\n", "\n  ")] for key, v in fields.items()},
              **tables}
    opening = "{"
    for key in sorted(values):
        yield f"{opening}\n  {_json_text(key)}: "
        opening = ","
        yield from values[key]
    yield "\n}" if values else "{}"


def _nested(writer, *args):
    """writer(*args)'s pieces, made when the first is asked for, one level down:
    each "\n" takes two more spaces, as re-indenting their join would give."""
    for piece in writer(*args):
        yield piece.replace("\n", "\n  ")


# a table's booleans (false, true) and the spelling of its strings, per format
_CSV = (("0", "1"), str)
_JSON = (("false", "true"), _json_text)


def _spelled(column, spell):
    """spell of each value of the list column, each distinct value spelled
    once where values repeat.  0.0 and -0.0 are one key, so a column whose
    zeros are spelled two ways is spelled value by value."""
    distinct = set(column)
    if (2 * len(distinct) > len(column)
            or 0.0 in distinct and len({spell(v) for v in column if v == 0}) > 1):
        return map(spell, column)
    return map(dict(zip(distinct, map(spell, distinct))).__getitem__, column)


def _rows_text(blocks, leads, tail, words) -> str:
    """Per row of each block of equal-length list columns: leads[0], its cell
    of the first column, leads[1], ..., its cell of the last column, tail.
    A float cell is its repr, a bool words[0]'s false or true, anything else
    (a str) words[1] of it."""
    row = "".join(lead + "{}" for lead in leads) + tail
    bits, spell = words
    text = []
    for columns in blocks:
        cells = []
        for column in columns:
            kind = type(column[0]) if column else str
            cells.append(map(bits.__getitem__, column) if kind is bool
                         else _spelled(column, float.__repr__ if kind is float else spell))
        text.append("".join(map(row.format, *cells)))
    return "".join(text)


def _csv_blocks(header, blocks) -> list:
    """text._csv_blocks of list columns: the header line and one line per row."""
    return [",".join(header) + "\n"
            + _rows_text(blocks, ["", *[","] * (len(header) - 1)], "\n", _CSV)]


def _json_items(blocks, width: int) -> list:
    """text._json_items(blocks, width) of list columns: a list of one list of
    width items per row, as the value of a document's key; [] without rows."""
    leads = [",\n    [\n      ", *[",\n      "] * (width - 1)]
    text = _rows_text(blocks, leads, "\n    ]", _JSON)
    return ["[" + text[1:] + "\n  ]" if text else "[]"]


# every SVG figure: its width and height and the margin inside them, in
# pixels, and the colors of its labels by their sorted rank
_SVG_SIZE = 640
_SVG_MARGIN = 20
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_SVG_OPEN = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
             f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">')


def _svg_text(xs, ys, labels) -> list:
    """text._svg_text of list columns: the scatter's open tag, one circle per
    point colored by its label, its close tag."""
    x0, x1 = (min(xs), max(xs)) if xs else (0.0, 0.0)
    y0, y1 = (min(ys), max(ys)) if ys else (0.0, 0.0)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    scale = _SVG_SIZE - 2 * _SVG_MARGIN
    fill = {lab: _PALETTE[i % len(_PALETTE)] for i, lab in enumerate(sorted(set(labels)))}
    # text._svg_text's pixel formula, each distinct pixel coordinate spelled once
    cx = _spelled([_SVG_MARGIN + (x - x0) / span_x * scale for x in xs], "{:.2f}".format)
    cy = _spelled([_SVG_SIZE - _SVG_MARGIN - (y - y0) / span_y * scale for y in ys],
                  "{:.2f}".format)
    circle = '\n<circle cx="{}" cy="{}" r="1.5" fill="{}"/>'.format
    return [_SVG_OPEN, "".join(map(circle, cx, cy, map(fill.__getitem__, labels))), "\n</svg>"]
