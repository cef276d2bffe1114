"""The CLI's writers: every document and table that an answer prints.

Every writer yields its text as UTF-8 bytes, the pieces that cli.run()
writes as they come to stdout's binary buffer or to a file opened "wb": a
lead, a tail or a JSON field is spelled as str and encoded where it is
joined into a piece.  A JSON document is spelled piece by piece
(_json_parts), a nested one indented piece by piece (_nested), and each
check that can refuse a writer's text runs at its call (_at_call).  Every CSV and JSON table goes through one
streaming writer (_table_text, behind _csv_blocks and _json_items), and only
the rows of a block have two kernels: Python list columns, as
figures._plain_columns gives a figure of at most figures.PLAIN_ROWS
candidate rows and ball.atlas a small sample atlas, are spelled here
with each float's and int's repr and encoded once per block (_list_rows);
any other block goes as arrays to the text module's byte grids
(text._array_rows).  The SVG scatter (_svg_text) has the same two forms,
"{:.2f}".format of each pixel coordinate here.  Both kernels write the same
bytes, and numpy and the text module load only for an array block.

The list kernel spells each distinct nonzero value of a column once and each
zero every time, since 0.0 and -0.0 are one dict key (_spelled); the SVG runs
its pixel formula once per distinct x and once per distinct y.  Its rows are
written in one join of each lead, cell and tail as given, then encoded
(_joined), so a lead or tail may hold any text, braces included.
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
    values = {**{key: [_json_text(v).replace("\n", "\n  ").encode()]
                 for key, v in fields.items()}, **tables}
    opening = "{"
    for key in sorted(values):
        yield f"{opening}\n  {_json_text(key)}: ".encode()
        opening = ","
        yield from values[key]
    yield b"\n}" if values else b"{}"


def _nested(writer, *args):
    """writer(*args)'s pieces, made when the first is asked for, one level down:
    each "\n" takes two more spaces, as re-indenting their join would give."""
    for piece in writer(*args):
        yield piece.replace(b"\n", b"\n  ")


# a table's booleans (false, true) and the spelling of its strings, per format
_CSV = (("0", "1"), str)
_JSON = (("false", "true"), _json_text)


def _spelled(column, spell):
    """spell of each value of the list column, each distinct nonzero value
    spelled once.  0.0 and -0.0 are one dict key, so a zero is spelled every
    time."""
    memo = {v: spell(v) for v in set(column) if v}
    return [memo[v] if v else spell(v) for v in column]


def _joined(leads, cells, tail) -> bytes:
    """Per row: leads[0], its cell of cells[0], leads[1], ..., its cell of the
    last of cells, tail; every row in one join, each lead and the tail as
    given, encoded once."""
    fields = []
    for lead, column in zip(leads, cells):
        fields += (itertools.repeat(lead), column)
    return "".join(itertools.chain.from_iterable(zip(*fields, itertools.repeat(tail)))).encode()


def _list_rows(columns, leads, tail, words) -> bytes:
    """Per row of the equal-length list columns: leads[0], its cell of the
    first column, leads[1], ..., its cell of the last column, tail.  A float
    or int cell is its repr, as text spells them, a bool words[0]'s false or
    true, a str words[1] of it."""
    bits, spell = words
    cells = []
    for column in columns:
        kind = type(column[0])
        cells.append(map(bits.__getitem__, column) if kind is bool
                     else _spelled(column, kind.__repr__ if kind in (float, int) else spell))
    return _joined(leads, cells, tail)


@_at_call
def _table_text(blocks, leads, tail, words, ends):
    """Per row of each block of equal-length columns: leads[0], its cell of the
    first column, leads[1], ..., its cell of the last column, tail; of ends,
    the head stands in for the table's first leads[0], the foot follows its
    last row and the bare text is a table without rows.

    A block of Python list columns is one piece (_list_rows); any other block
    is spelled as arrays, its values at once and its text one piece per
    CHUNK_BYTES of rows, a float that is not finite refused before its text
    is built (text._array_rows).  The first block is spelled at the call."""
    head, foot, bare = (end.encode() for end in ends)
    cut = len(leads[0].encode())
    empty = True
    for columns in blocks:
        if not columns or not len(columns[0]):
            continue
        if all(type(column) is list for column in columns):
            pieces = [_list_rows(columns, leads, tail, words)]
        else:
            from .text import _array_rows

            pieces = _array_rows(columns, leads, tail, words)
        for piece in pieces:
            # a later block's first row opens as every other row does
            yield head + piece[cut:] if empty else piece
            empty = False
    last = bare if empty else foot
    if last:
        yield last


def _csv_blocks(header, blocks):
    """CSV of the header line and one line per row of each block of columns."""
    head = ",".join(header) + "\n"
    return _table_text(blocks, ["", *[","] * (len(header) - 1)], "\n", _CSV, (head, "", head))


def _json_items(blocks, leads, tail="\n    ]"):
    """json.dumps(indent=2) of a list, one item per row of each block of
    columns, as the value of a document's key: leads[0] opens an item after a
    comma and tail closes it, or leads is the width of rows spelled as lists;
    a list without items is "[]"."""
    if isinstance(leads, int):
        leads = [",\n    [\n      ", *[",\n      "] * (leads - 1)]
    return _table_text(blocks, leads, tail, _JSON, ("[" + leads[0][1:], "\n  ]", "[]"))


# every SVG figure: its width and height and the margin inside them, in
# pixels, and the colors of its labels by their sorted rank
_SVG_SIZE = 640
_SVG_MARGIN = 20
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")
_SVG_OPEN = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
             f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">').encode()


def _svg_text(xs, ys, labels):
    """Flat scatter of the (x, y) points colored by label: its open tag, one
    circle per point, its close tag; arrays are spelled by text._svg_text."""
    if not all(type(column) is list for column in (xs, ys, labels)):
        from . import text

        return text._svg_text(xs, ys, labels)
    x0, x1 = (min(xs), max(xs)) if xs else (0.0, 0.0)
    y0, y1 = (min(ys), max(ys)) if ys else (0.0, 0.0)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    scale = _SVG_SIZE - 2 * _SVG_MARGIN
    fill = {lab: _PALETTE[i % len(_PALETTE)] for i, lab in enumerate(sorted(set(labels)))}
    # text._svg_text's pixel formula once per distinct coordinate: 0.0 and
    # -0.0 give one pixel, so one key serves both
    cx = {x: f"{_SVG_MARGIN + (x - x0) / span_x * scale:.2f}" for x in set(xs)}
    cy = {y: f"{_SVG_SIZE - _SVG_MARGIN - (y - y0) / span_y * scale:.2f}" for y in set(ys)}
    cells = [map(cx.__getitem__, xs), map(cy.__getitem__, ys), map(fill.__getitem__, labels)]
    rows = _joined(['\n<circle cx="', '" cy="', '" r="1.5" fill="'], cells, '"/>')
    return [_SVG_OPEN, rows, b"\n</svg>"]
