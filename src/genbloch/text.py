"""The array kernels of the CLI's writers: the rows of array columns, the
SVG scatter of arrays, and the matrix and coords documents.

Every document and table is spelled through the plain module's one protocol
(plain._table_text, plain._json_parts); this module spells only the rows of
a block of array columns for it (_array_rows), as sample_domain and
figures.figure_columns give them.  A block is spelled in one pass: each
distinct float magnitude once, at full double precision, so repeated runs
are byte-identical, and each distinct int, boolean or string once, into a
byte table (_table) with an integer code per cell; a negative float's "-"
ends the lead, the separator text before its cell.  A float that is not
finite is refused in every format.  An SVG pixel coordinate is two cells,
spelled from its integer count of hundredths.  The spellings of a block of
columns, a figure's whole table included, are made at once; its text is then
made as many rows at a time as fill the package's CHUNK_BYTES, so narrow rows
take fewer, larger blocks, each one uint8 grid of fixed-width fields padded
with _PAD, which one pass turns into the block's UTF-8 bytes, the piece that
cli.run() writes as it is (_row_blocks): no str per cell and no grid of a
whole table is built, and the bytes do not depend on the block size.  The
matrix and coords documents (_matrix_text, _coords_text) hand their array
columns to plain._json_items.  This module loads with numpy, when an array
block, an array scatter, a matrix or coords is spelled.  json loads only
where a JSON string or key is spelled.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import CHUNK_BYTES
from .errors import NonFiniteResult
from .plain import _PALETTE, _SVG_MARGIN, _SVG_OPEN, _SVG_SIZE, _json_items, _json_parts, _nested


# no byte of UTF-8 text: it fills each field of a block's grid past its cell
_PAD = b"\xff"


def _spell_floats(values: np.ndarray) -> tuple:
    """(spellings, codes, negative) of the float64 values: spellings a _table
    holding the repr of each distinct magnitude, codes[i] the row of
    values[i]'s magnitude in it, and negative[i] whether its sign bit is set
    (-0.0 too) and it is not NaN, so that repr(values[i]) is "-" + that row
    where negative[i] holds and the row alone elsewhere.  Each distinct
    magnitude is spelled once.
    """
    bits = values.view(np.int64)
    magnitude, codes = np.unique(bits & np.int64(2 ** 63 - 1), return_inverse=True)
    # float's own repr: numpy 2 spells a numpy float as np.float64(...)
    return _listed(magnitude.view(np.float64).tolist()), codes, (bits < 0) & ~np.isnan(values)


# the widest repr of a float magnitude (17 digits, a point and a 5-character
# exponent) or of an int64, and the spaces that pad a repr to it
_REPR_WIDTH = 23
_SPACE_TO_PAD = bytes.maketrans(b" ", _PAD)


def _listed(items: list) -> np.ndarray:
    """The _table of the repr of each float or int of items, all spelled by
    one %-format into fields of _REPR_WIDTH whose padding spaces become _PAD,
    then cut to the widest."""
    text = (f"%-{_REPR_WIDTH}r" * len(items) % tuple(items)).encode().translate(_SPACE_TO_PAD)
    table = np.frombuffer(text, np.uint8).reshape(len(items), _REPR_WIDTH)
    used = np.flatnonzero((table != _PAD[0]).any(axis=0))
    return table[:, :used[-1] + 1 if len(used) else 0]


def _table(words) -> np.ndarray:
    """The str words, UTF-8, as the rows of one uint8 grid, each padded with
    _PAD to the longest; a NUL that a word holds is kept."""
    data = [word.encode() for word in words]
    lengths = np.fromiter(map(len, data), np.intp, len(data))
    table = np.full((len(data), lengths.max(initial=0)), _PAD[0], np.uint8)
    table[np.arange(table.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(data), np.uint8)
    return table


def _codes(column) -> tuple:
    """(the distinct values of the array column in first-seen order, each
    cell's index among them), a run of equal adjacent cells looked up once."""
    starts = np.flatnonzero(np.concatenate([[True], column[1:] != column[:-1]]))[:len(column)]
    runs = column[starts].tolist()
    index = {v: i for i, v in enumerate(dict.fromkeys(runs))}
    return list(index), np.repeat(np.array([index[v] for v in runs], dtype=np.intp),
                                  np.diff(np.append(starts, len(column))))


# the byte before a float's magnitude: nothing, or its "-"
_SIGN = _table(["", "-"])


def _row_blocks(fields: list, rows: int):
    """The bytes of each block of the rows whose grid fills CHUNK_BYTES (one
    row at least), each row its fields in turn.  A field is a str, the same
    text in every row, or (table, codes): the uint8 grid of its spellings
    padded with _PAD (_table), and each row's index into it."""
    pieces, cells, at = [], [], 0
    for field in fields:
        if isinstance(field, str):
            pieces.append(field.encode())
        else:
            table, codes = field
            pieces.append(bytes(table.shape[1]))  # written over in every row
            if table.shape[1]:
                # each spelling one item, so a row's cell is copied whole
                cells.append((at, table.view(f"V{table.shape[1]}")[:, 0], codes))
        at += len(pieces[-1])
    template = np.frombuffer(b"".join(pieces), np.uint8)
    # a row as one record of its cells, each at its offset in the row
    record = np.dtype({"names": [f"c{i}" for i in range(len(cells))], "itemsize": at,
                       "formats": [spellings.dtype for _, spellings, _ in cells],
                       "offsets": [offset for offset, _, _ in cells]})
    step = max(1, CHUNK_BYTES // at)
    for lo in range(0, rows, step):
        yield _block_text(template, record, [(spellings, codes[lo:lo + step])
                                             for _, spellings, codes in cells],
                          min(step, rows - lo))


def _block_text(template: np.ndarray, record: np.dtype, cells: list, rows: int) -> bytearray:
    """One block of _row_blocks: rows copies of template, each cell's
    spellings written over them, made into the block's bytes in one pass that
    drops the padding; the grid is gone when they are returned."""
    grid = bytearray(rows * len(template))
    np.frombuffer(grid, np.uint8).reshape(rows, len(template))[:] = template
    records = np.frombuffer(grid, record)
    for name, (spellings, codes) in zip(record.names, cells):
        records[name] = spellings.take(codes)
    return grid.translate(None, _PAD)


def _array_rows(columns, leads, tail, words):
    """plain._table_text of one block of columns with rows, as arrays: each
    distinct value of the block spelled at once, then its text one piece per
    _row_blocks block.  A float that is not finite is refused with
    NonFiniteResult here, at the call, before any text is built."""
    columns = [np.asarray(col) for col in columns]
    return _row_blocks(_fields(columns, leads, tail, words), len(columns[0]))


def _fields(columns, leads, tail, words) -> list:
    """_row_blocks' fields of one block of array columns: each column's lead,
    a float's sign, and its cells; then the tail.  Booleans are words[0]'s
    false and true, floats at full round-trip precision, ints through str,
    anything else (strings) through words[1], each distinct value once: the
    floats, and the ints of each dtype, in one pass over all their columns."""
    rows = len(columns[0])
    spelled = {}
    numeric = {col.dtype for col in columns if col.dtype.kind in "iu" or col.dtype == np.float64}
    for dtype in numeric:
        group = [j for j, col in enumerate(columns) if col.dtype == dtype]
        values = np.concatenate([columns[j] for j in group])
        if dtype == np.float64:
            if not np.isfinite(values).all():
                raise NonFiniteResult()
            table, codes, negative = _spell_floats(values)
            signs = negative.view(np.uint8).reshape(len(group), rows)
        else:
            distinct, codes = np.unique(values, return_inverse=True)
            table, signs = _listed(distinct.tolist()), None
        for i, (j, where) in enumerate(zip(group, codes.reshape(len(group), rows))):
            spelled[j] = [(table, where)] if signs is None else [(_SIGN, signs[i]), (table, where)]
    bits, spell = words
    fields = []
    for j, (lead, col) in enumerate(zip(leads, columns)):
        fields.append(lead)
        if j in spelled:
            fields += spelled[j]
        elif col.dtype == bool:
            fields.append((_table(bits), col.view(np.uint8)))
        else:
            distinct, where = _codes(col)
            fields.append((_table(map(spell, distinct)), where))
    fields.append(tail)
    return fields


def _matrix_text(a):
    """json.dumps(linalg.matrix_to_json(a), indent=2, sort_keys=True) in
    pieces, an entry that is not finite refused at the call."""
    from .linalg import as_matrix

    a = as_matrix(a)
    flat = a.ravel()
    return _json_parts({"dim": a.shape[0]}, {"entries": _json_items([[flat.real, flat.imag]], 2)})


def _coords_text(coords):
    """json.dumps(coords.coords_to_json(coords), indent=2, sort_keys=True) in
    pieces, a coordinate that is not finite refused at the call."""
    grades = {}
    for k in coords.grades:
        idx, val = coords.wire_entries(k)
        leads = [',\n    {\n      "idx": [\n        ', *[",\n        "] * (k - 1),
                 '\n      ],\n      "val": ']
        grades[str(k)] = _json_items([[*idx.T, val]], leads, "\n    }")
    return _json_parts({"m": coords.m, "mode": coords.mode, "scalar": coords.scalar},
                       {"grades": _nested(_json_parts, {}, grades)})


def _spell_hundredths(values: np.ndarray, top: int) -> list:
    """"{:.2f}".format(v) for each float64 v of values, as two _row_blocks
    fields whose cells joined are that spelling.

    A v in (0, top] is spelled from its nearest count of hundredths k as
    f"{k // 100}." and f"{k % 100:02d}", both from small string tables.  That
    is format's rounding unless 100 v lies within 1e-6 of a tie k + 1/2,
    which format settles half-even on the exact binary value; such values,
    and any outside (0, top], are "{:.2f}".format(v) and "".
    """
    hundredths = values * 100.0
    k = np.rint(hundredths)
    table = (values > 0) & (k <= 100 * top) & (np.abs(hundredths - k) < 0.5 - 1e-6)
    others = values[~table].tolist()
    k = k[table].astype(np.intp)
    # the wholes "0." to f"{top}." then the others; the cents "00" to "99" then ""
    first = np.empty(len(values), dtype=np.intp)
    second = np.full(len(values), 100, dtype=np.intp)
    first[table], second[table] = k // 100, k % 100
    first[~table] = np.arange(top + 1, top + 1 + len(others))
    return [(_table([*(f"{i}." for i in range(top + 1)), *map("{:.2f}".format, others)]), first),
            (_table([*(f"{c:02d}" for c in range(100)), ""]), second)]


def _svg_text(xs, ys, labels):
    """Flat scatter of the (x, y) points colored by label: its open tag, its
    row blocks as they are asked for, its close tag."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    x0, x1 = (float(xs.min()), float(xs.max())) if xs.size else (0.0, 0.0)
    y0, y1 = (float(ys.min()), float(ys.max())) if ys.size else (0.0, 0.0)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    scale = _SVG_SIZE - 2 * _SVG_MARGIN
    # the per-point formula's order of operations, kept over the arrays so
    # that every pixel coordinate is the same double as one point at a time
    px = _SVG_MARGIN + (xs - x0) / span_x * scale
    py = _SVG_SIZE - _SVG_MARGIN - (ys - y0) / span_y * scale
    # each pixel coordinate is two cells; a label's color is its rank's
    distinct, where = _codes(np.asarray(labels))
    rank = {lab: i for i, lab in enumerate(sorted(distinct))}
    tails = _table(f'" r="1.5" fill="{_PALETTE[rank[lab] % len(_PALETTE)]}"/>'
                   for lab in distinct)
    fields = ['\n<circle cx="', *_spell_hundredths(px, _SVG_SIZE), '" cy="',
              *_spell_hundredths(py, _SVG_SIZE), (tails, where)]
    return itertools.chain([_SVG_OPEN], _row_blocks(fields, len(px)), [b"\n</svg>"])
