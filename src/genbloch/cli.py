"""Command-line front end.

Subcommands: basis, encode, decode, invariants, spectrum, validate, sample,
figure, rotate, and the combined domain dispatcher.  Input is JSON; output
is JSON, CSV or SVG.  `sample` and `figure` share one table path: the
library gives (column names, one array per column), and one cell-grid
writer (_table_text) spells every CSV and JSON table from it with that
format's separators, each distinct float magnitude once and at full double
precision, so repeated runs are byte-identical; a negative float's "-" ends
the lead, the separator text before its cell.  A float that is not finite
is refused in every format.  An SVG pixel coordinate is two cells, spelled
from its integer count of hundredths.  CSV and SVG text is joined in blocks
of _BLOCK_ROWS rows; a JSON document, which nests its tables, is one str.
encode and basis print matrix JSON and decode and rotate coords JSON
through the same writer.  Each subcommand imports what it uses when it
runs, so `figure` and `domain --grid` load only the figures module besides
this, and no call loads dataclasses: the package's records are plain
__slots__ classes.

Each subcommand is an answer function of the parsed flags and the parsed
JSON of its --input (and rotate's --alpha) file, returning (payload, exit
code), the payload a JSON-able object, the finished text or its list of
row blocks.  run() alone touches files: it reads each input once and
writes the answer's text, block by block, at one write site.
Coords are encoded only by encode and where the matrix is used (validate's
min_eigenvalue route, spectrum's oracle side); coords.encode refuses coords
whose matrix rounds their trace away.

A call builds only the parser it uses: when argv names a subcommand first,
run() builds that subcommand alone (domain builds its own, then the one its
mode hands off to); with no arguments, -h/--help or an unknown name it
builds them all, so those messages list every subcommand.  No parser
expands an abbreviated flag.  run() flushes what it wrote inside its error
handling; main() then runs the atexit handlers, flushes stderr and ends the
process with os._exit, sparing it the teardown of every module.

Exit codes: 0 success, 2 computed-fine-but-state-inadmissible (so shell
pipelines can partition corpora), 1 any error, a failed write of the answer
included, with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import os
import sys

import numpy as np

from . import figures
from .errors import GenblochError, MalformedInput, NonFiniteResult, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_NOT_FINITE = "result is not finite (input beyond floating-point range?)"


def _json_text(obj) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(_NOT_FINITE) from exc


def _state(obj, mode: str):
    """(coords, rho) of a parsed matrix JSON, or (coords, None) of a parsed
    coords JSON of a unit-trace state: an answer encodes coords only if it
    uses their matrix."""
    from .clifford import m_from_dim
    from .coords import coords_from_json, decode, require_unit_trace
    from .linalg import matrix_from_json

    if isinstance(obj, dict) and "dim" in obj:
        rho = matrix_from_json(obj, m_from_dim)
        return decode(rho, mode=mode), rho
    coords = coords_from_json(obj)
    # the scalar is exactly the trace of the matrix the coords encode
    require_unit_trace(coords.scalar)
    return coords, None


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


def _table_text(columns, leads, tail, words, head) -> list:
    """Per row of the equal-length columns: leads[0], its cell of the first
    column, leads[1], ..., its cell of the last column, tail; head stands in
    for the first leads[0] and is the whole text of a table without rows.
    The text comes as one str per block of _BLOCK_ROWS rows.

    Cells: booleans are words[0][1]/[0], floats at full round-trip precision,
    ints through str, anything else (strings) through words[1], each distinct
    value once.  A negative float's "-" ends the lead before it.  A float
    that is not finite is refused with NonFiniteResult before any block is
    built.
    """
    columns = [np.asarray(col) for col in columns]
    rows = len(columns[0]) if columns else 0
    if not rows:
        return [head]
    cells = np.empty((rows, 2 * len(columns) + 1), dtype=object)
    cells[:, :-1:2] = leads
    cells[:, -1] = tail
    cells[0, 0] = head
    floats = [j for j, col in enumerate(columns) if col.dtype == np.float64]
    if floats:
        values = np.concatenate([columns[j] for j in floats])
        if not np.isfinite(values).all():
            raise NonFiniteResult(_NOT_FINITE)
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
    return _row_blocks(cells)


def _csv_text(header, columns) -> list:
    """CSV of the header line and one line per row of the columns, in row blocks."""
    leads = ["", *[","] * (len(columns) - 1)]
    return _table_text(columns, leads, "\n", _CSV, ",".join(header) + "\n")


def _json_list(columns, leads=None, tail="\n    ]") -> str:
    """json.dumps(indent=2) of a list, one item per row of the columns, as the
    value of a document's key: the row as a list, or else leads[0] opens an
    item after a comma and tail closes it."""
    leads = leads or [",\n    [\n      ", *[",\n      "] * (len(columns) - 1)]
    if not len(columns[0]):
        return "[]"
    return "".join(_table_text(columns, leads, tail, _JSON, "[" + leads[0][1:])) + "\n  ]"


def _json_document(fields: dict, tables: dict) -> str:
    """json.dumps({**fields, **tables}, indent=2, sort_keys=True), each table
    already spelled as the value of its key (_json_list, or a _json_document
    indented by two spaces)."""
    values = {**{key: _json_text(v).replace("\n", "\n  ") for key, v in fields.items()}, **tables}
    if not values:
        return "{}"
    # each key after a comma; the first comma makes way for the opening brace
    parts = [part for key in sorted(values) for part in (f",\n  {json.dumps(key)}: ", values[key])]
    return "".join(["{", parts[0][1:], *parts[1:], "\n}"])


def _matrix_text(a) -> str:
    """json.dumps(linalg.matrix_to_json(a), indent=2, sort_keys=True)."""
    from .linalg import as_matrix

    a = as_matrix(a)
    flat = a.ravel()
    return _json_document({"dim": a.shape[0]}, {"entries": _json_list([flat.real, flat.imag])})


def _coords_text(coords) -> str:
    """json.dumps(coords.coords_to_json(coords), indent=2, sort_keys=True)."""
    grades = {}
    for k, tensor in coords.grades.items():
        keys = sorted(tensor.values)
        idx = np.array(keys, dtype=np.int64).reshape(len(keys), k).T
        val = np.array([tensor.values[key] for key in keys], dtype=np.float64)
        leads = [',\n    {\n      "idx": [\n        ', *[",\n        "] * (k - 1),
                 '\n      ],\n      "val": ']
        grades[str(k)] = _json_list([*idx, val], leads, "\n    }")
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


def _answer_basis(args) -> tuple:
    from . import clifford

    basis = clifford.full_basis(args.m, args.mode)
    if args.verify:
        return clifford.verify_algebra(basis), 0
    indices = basis.indices
    if args.element:
        try:
            k_str, idx_str = args.element.split(":", 1)
            k = int(k_str)
            idx = tuple(int(x) for x in idx_str.split(",") if x.strip() != "")
        except ValueError as exc:
            raise UsageError(f"bad --element {args.element!r}; expected K:I1,I2,...") from exc
        if len(idx) != k:
            raise UsageError(f"--element grade {k} does not match {len(idx)} indices")
        indices = [idx]
    return _json_document({}, {f"{args.m},{len(i)},[{','.join(map(str, i))}]":
                               _matrix_text(basis.element(i)).replace("\n", "\n  ")
                               for i in indices}), 0


def _answer_encode(args, state) -> tuple:
    from .coords import coords_from_json, encode

    return _matrix_text(encode(coords_from_json(state))), 0


def _answer_decode(args, matrix) -> tuple:
    from .clifford import m_from_dim
    from .coords import decode
    from .linalg import matrix_from_json

    return _coords_text(decode(matrix_from_json(matrix, m_from_dim), mode=args.mode)), 0


def _answer_invariants(args, state) -> tuple:
    from . import invariants
    from .coords import coords_from_json

    return invariants.coords_invariants(coords_from_json(state)).to_dict(), 0


def _answer_spectrum(args, state) -> tuple:
    from . import spectra
    from .coords import encode

    coords, rho = _state(state, args.mode)
    out = {}
    if args.which in ("closed-form", "both"):
        out["closed_form"] = spectra.closed_form_spectrum(coords).to_dict()
    if args.which in ("oracle", "both"):
        out["oracle"] = spectra.numeric_spectrum(encode(coords) if rho is None else rho).to_dict()
    if args.which == "both":
        diff = np.abs(np.array(out["closed_form"]["eigenvalues"])
                      - np.array(out["oracle"]["eigenvalues"]))
        out["max_diff"] = float(np.max(diff))
    if args.which != "both":
        out = out["closed_form"] if args.which == "closed-form" else out["oracle"]
    return out, 0


def _answer_validate(args, state) -> tuple:
    from . import domains

    coords, rho = _state(state, args.mode)
    verdict, route = domains.positivity(coords, rho, args.tol)
    return {**verdict.to_dict(), "route": route}, 0 if verdict.admissible else 2


def _answer_sample(args) -> tuple:
    from . import domains

    names, columns = domains.sample_domain(args.m, args.k, args.samples, args.seed, args.box)
    if args.format == "csv":
        return _csv_text(names, columns), 0
    # each record's keys in sorted order, its coefficients one list
    index, *coefficients, closed, oracle, margin = columns
    leads = [',\n    {\n      "boundary_margin": ', ',\n      "closed_admissible": ',
             ',\n      "coefficients": [\n        ', *[",\n        "] * (len(coefficients) - 1),
             '\n      ],\n      "index": ', ',\n      "oracle_admissible": ']
    records = _json_list([margin, closed, *coefficients, index, oracle], leads, "\n    }")
    return _json_document({"m": args.m, "k": args.k, "n": args.samples, "seed": args.seed,
                           "box": args.box}, {"records": records}), 0


def _answer_figure(args) -> tuple:
    if args.paper_cube and args.which != "fig3":
        raise UsageError("--paper-cube applies to fig3 only")
    names, columns = figures.figure_columns(args.which, args.resolution,
                                            paper_cube=args.paper_cube)
    if args.format == "csv":
        return _csv_text(names, columns), 0
    if args.format == "json":
        fields = {"which": args.which, "resolution": args.resolution, "columns": names}
        tables = {"points": columns}
        if args.which == "fig1":
            fields["grid_columns"] = fields.pop("columns")
            tables = {"grid": columns, **figures.boundary_curves(args.resolution)}
        elif args.which == "fig3":
            fields["paper_cube"] = args.paper_cube
        return _json_document(fields, {key: _json_list(cols) for key, cols in tables.items()}), 0
    if args.which == "fig1":
        r, t4, admissible, _ = columns
        return _svg_text(r, t4, np.where(admissible, "admissible", "inadmissible")), 0
    x, y, _, surface_id = columns
    return _svg_text(x, y, surface_id), 0


def _answer_rotate(args, state, alpha_file) -> tuple:
    from . import symmetry
    from .coords import antisym, coords_from_json, entry_list
    from .linalg import wire_field

    coords = coords_from_json(state)
    alpha_obj = wire_field(alpha_file, dict, "alpha file")
    entries = entry_list(alpha_obj.get("alpha", []), "alpha")
    alpha = antisym(wire_field(alpha_obj.get("m"), int, "m"), 2, entries)
    el = symmetry.orthogonal_from_generator(alpha)
    return _coords_text(symmetry.rotate_coords(coords, el)), 0


# the flags several subcommands declare alike, each one's type, choices and default
_SHARED_FLAGS = {
    "--input": {"required": True},
    "--m": {"type": int, "required": True},
    "--mode": {"choices": ["standard", "extended"], "default": "standard"},
}

# subcommand -> (help, answer function, the shared flags it declares first),
# in the order the top-level help lists them
_COMMANDS = {
    "basis": ("dump or verify Clifford basis elements", _answer_basis, ("--m", "--mode")),
    "encode": ("coords JSON -> matrix JSON", _answer_encode, ("--input",)),
    "decode": ("matrix JSON -> coords JSON", _answer_decode, ("--input", "--mode")),
    "invariants": ("coords JSON -> invariant set JSON", _answer_invariants, ("--input",)),
    "spectrum": ("closed-form and/or oracle spectrum", _answer_spectrum, ("--input", "--mode")),
    "validate": ("admissibility verdict (exit 2 when inadmissible)", _answer_validate,
                 ("--input", "--mode")),
    "sample": ("Monte-Carlo atlas of a tensor domain", _answer_sample, ("--m",)),
    "figure": ("figure datasets (grid / surface point clouds)", _answer_figure, ()),
    "rotate": ("apply a rotation generator to coordinates", _answer_rotate, ("--input",)),
    "domain": ("classify one state, emit the domain grid, or sample the domain", None, ()),
}


def _declare(sub, name: str) -> None:
    """Add subcommand name to the subparsers action sub."""
    help, func, shared = _COMMANDS[name]
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    for flag in shared:
        p.add_argument(flag, **_SHARED_FLAGS[flag])
    if name == "basis":
        p.add_argument("--element", help="single element selector K:I1,I2,...")
        p.add_argument("--verify", action="store_true", help="print the residual report instead")
    elif name == "spectrum":
        group = p.add_mutually_exclusive_group()
        for which in ("closed-form", "oracle", "both"):
            group.add_argument(f"--{which}", dest="which", action="store_const", const=which)
        p.set_defaults(which="both")
    elif name == "validate":
        p.add_argument("--tol", type=float, default=figures.DEFAULT_TOL)
    elif name == "sample":
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--samples", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--box", type=float, default=1.2)
        p.add_argument("--format", choices=["csv", "json"], default="json")
    elif name == "figure":
        p.add_argument("which", choices=["fig1", "fig2", "fig3"])
        p.add_argument("--resolution", type=int, default=101)
        p.add_argument("--paper-cube", action="store_true")
        p.add_argument("--format", choices=["csv", "json", "svg"], default="csv")
    elif name == "rotate":
        p.add_argument("--alpha", required=True)
    elif name == "domain":
        # only the mode: _domain_args parses the rest of argv as the mode's subcommand
        p.add_argument("--input", help="coords or matrix JSON: run validate on it")
        p.add_argument("--grid", action="store_true",
                       help="run figure fig1, or figure fig3 with --paper-cube")
        p.add_argument("--samples", help="run sample with this count, by default "
                                         "--m 2 --k 2 --format csv")
        return
    p.set_defaults(func=func)
    # each answer goes to the --output file or stdout; domain hands the flag on
    p.add_argument("--output")


def build_parser(names=_COMMANDS) -> _Parser:
    """The genbloch parser with the subcommands named, by default every one.

    A subcommand's help and usage errors are the same whichever others are
    built beside it.  No parser expands an abbreviated flag.
    """
    parser = _Parser(prog="genbloch", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        _declare(sub, name)
    return parser


def _domain_args(args, rest) -> argparse.Namespace:
    """Parse a domain call as the subcommand its one mode runs, rest of argv
    and all, so that subcommand's parser refuses any flag it does not declare."""
    if [bool(args.input), args.grid, args.samples is not None].count(True) != 1:
        raise UsageError("domain needs exactly one of --input, --grid, --samples")
    if args.input:
        return build_parser(["validate"]).parse_args(["validate", f"--input={args.input}", *rest])
    if args.grid:
        target = build_parser(["figure"]).parse_args(["figure", "fig1", *rest])
        target.which = "fig3" if target.paper_cube else "fig1"
        return target
    # later flags override earlier ones, so rest overrides domain's defaults
    return build_parser(["sample"]).parse_args(["sample", "--m", "2", "--k", "2", "--format",
                                                "csv", f"--samples={args.samples}", *rest])


def run(argv) -> int:
    """Parse argv, read the input files, answer, write the answer; return the exit code."""
    # a call that names its subcommand first builds only that one's parser
    parser = build_parser([argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args, rest = parser.parse_known_args(argv)
        if args.command == "domain":
            args = _domain_args(args, rest)
        elif rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
        # an overflow to inf or nan is reported once, by NonFiniteResult,
        # not also as numpy RuntimeWarnings on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            docs = []
            for path in (getattr(args, "input", None), getattr(args, "alpha", None)):
                if path is not None:
                    with open(path, "r", encoding="utf-8") as fh:
                        try:
                            docs.append(json.load(fh))
                        except RecursionError:
                            raise MalformedInput(f"{path}: JSON nested too deeply") from None
            payload, code = args.func(args, *docs)
            # CSV and SVG come as a list of row blocks, JSON as one str or an object
            blocks = (payload if isinstance(payload, list)
                      else [payload if isinstance(payload, str) else _json_text(payload)])
        # GENBLOCH_OUTPUT_DIR, when set, holds relative --output paths
        path = args.output and os.path.join(os.environ.get("GENBLOCH_OUTPUT_DIR", ""),
                                            args.output)
        sink = open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)
        with sink as out:
            out.writelines(blocks if blocks[-1].endswith("\n") else [*blocks, "\n"])
            out.flush()  # a failed write is reported here, not at exit
        return code
    except UsageError as exc:
        print(f"genbloch: usage error: {exc}", file=sys.stderr)
        return 1
    except (GenblochError, OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"genbloch: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = run(sys.argv[1:])
    # the process is ending, so nothing it allocated needs collecting: freezing
    # spares the atexit handlers a collection, and os._exit skips the teardown
    # of every module; run() has flushed stdout, so what exit still owes is
    # the handlers and stderr
    gc.freeze()
    atexit._run_exitfuncs()
    sys.stderr.flush()
    os._exit(code)
