"""Command-line front end.

Subcommands: basis, encode, decode, invariants, spectrum, validate, sample,
figure, rotate, and the combined domain dispatcher.  Input is JSON; output
is JSON, CSV or SVG.  The answers that print a table, a matrix or coords
(basis, encode, decode, sample, figure, rotate) spell it through the plain
module, which spells every document and table, and hands array columns to
the text module's kernels; the others print a JSON object through
_json_text.  Each subcommand imports what it uses when it runs: importing
this module loads only the package and its errors, so help and usage errors
load no numpy, and `figure` and `domain --grid` load only the figures and
plain modules besides this.  The figures module answers with list columns
up to figures.PLAIN_ROWS candidate rows, which load no numpy, and with
arrays above, which load numpy and text; this module does not tell them
apart but for fig1's SVG labels.  sample checks its request once
(ball._check_sample) and answers an atlas of at most ball.PLAIN_CELLS
draws x 4^m of a vector (--k 1), or of a grade-2 tensor at m <= 2, with the
ball module's list columns, loading only ball and plain besides this, and
any other with domains.sample_domain's arrays.  json loads only where JSON
is read or written, so no CSV or SVG answer loads it.  No call loads
dataclasses: the package's records are plain __slots__ classes.

Each subcommand is an answer function of the parsed flags and the parsed
JSON of its --input (and rotate's --alpha) file, returning (payload, exit
code), the payload a JSON-able dict or its text's pieces, UTF-8 bytes made
as they are asked for; each check that can refuse the answer runs at the
call, before the first piece.  run() alone touches files: it reads each
input once and writes the answer piece by piece as it comes, at one write
site, to stdout's binary buffer or to the --output file opened "wb", so its
bytes do not depend on the caller's stdout encoding; a dict is encoded once.
Help and usage text stay on argparse's text streams.  run() parses argv
and reads the inputs before it imports numpy, so a refused argv or input
file costs no numpy import; every answer then computes and writes its
pieces with numpy's overflow and invalid-value RuntimeWarnings ignored, so
NonFiniteResult alone reports a value that is not finite.
Coords are encoded only by encode and where the matrix is used (validate's
min_eigenvalue route, spectrum's oracle side); coords.encode_grades refuses coords
whose matrix rounds their trace away or overflows.

A call builds only the parser it uses: when argv names a subcommand first,
run() builds that subcommand alone (domain builds its own, then the one its
mode hands off to); with no arguments, -h/--help or an unknown name it
builds them all, so those messages list every subcommand.  No parser
expands an abbreviated flag.  run() flushes what it wrote inside its error
handling and leaves the cyclic garbage collector alone.  main() turns the
collector off before it calls run(), so no collection pass runs while numpy
and the answer load, then runs the atexit handlers, flushes stderr and ends
the process with os._exit, sparing it the teardown of every module.

Exit codes: 0 success, 2 computed-fine-but-state-inadmissible (so shell
pipelines can partition corpora), 1 a GenblochError or OSError (a failed write
or a closed stdout included) with a one-line diagnostic on stderr; any other
exception propagates.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import errno
import gc
import os
import sys
import warnings

from . import DEFAULT_TOL, MAX_ROWS
from .errors import (DimensionMismatch, GenblochError, MalformedInput, ModeMismatch,
                     ResourceLimit, UsageError, _check_m, _json_text, wire_field)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _state(obj, mode: str | None):
    """(coords, rho) of a parsed matrix JSON, decoded in mode or standard, or
    (coords, None) of a parsed coords JSON of a unit-trace state, ModeMismatch
    unless mode is None or theirs: an answer encodes coords only if it uses
    their matrix."""
    from .clifford import m_from_dim
    from .coords import coords_from_json, decode, require_unit_trace
    from .linalg import matrix_from_json

    if isinstance(obj, dict) and "dim" in obj:
        rho = matrix_from_json(obj, m_from_dim)
        return decode(rho, mode=mode or "standard"), rho
    coords = coords_from_json(obj)
    if mode not in (None, coords.mode):
        raise ModeMismatch(f"--mode {mode} differs from the coords' own mode {coords.mode!r}")
    # the scalar is exactly the trace of the matrix the coords encode
    require_unit_trace(coords.scalar)
    return coords, None


def _answer_basis(args) -> tuple:
    from . import clifford
    from .plain import _json_parts, _nested
    from .text import _matrix_text

    if not (args.verify or args.element):
        _check_m(args.m)  # an unsupported m keeps its own refusal
        if 16 ** args.m > MAX_ROWS:
            raise ResourceLimit(f"the basis dump at m = {args.m} has {16 ** args.m} matrix "
                                f"entries, above the maximum {MAX_ROWS}")
    basis = clifford.full_basis(args.m, args.mode)
    if args.verify:
        return clifford.verify_algebra(basis), 0
    indices = basis.indices
    if args.element:
        try:
            k_str, idx_str = args.element.split(":", 1)
            k, idx = int(k_str), tuple(int(x) for x in idx_str.split(",") if x.strip() != "")
        except ValueError as exc:
            raise UsageError(f"bad --element {args.element!r}; expected K:I1,I2,...") from exc
        if len(idx) != k:
            raise UsageError(f"--element grade {k} does not match {len(idx)} indices")
        basis.element(idx)  # an index outside the family is refused here, at the call
        indices = [idx]
    # each element built and spelled in its turn: one in memory at a time
    return _json_parts({}, {f"{args.m},{len(i)},[{','.join(map(str, i))}]":
                            _nested(lambda i: _matrix_text(basis.element(i)), i)
                            for i in indices}), 0


def _answer_encode(args, state) -> tuple:
    from .coords import coords_from_json, encode
    from .text import _matrix_text

    return _matrix_text(encode(coords_from_json(state))), 0


def _answer_decode(args, matrix) -> tuple:
    from .clifford import m_from_dim
    from .coords import decode
    from .linalg import matrix_from_json
    from .text import _coords_text

    return _coords_text(decode(matrix_from_json(matrix, m_from_dim), mode=args.mode)), 0


def _answer_invariants(args, state) -> tuple:
    from . import invariants
    from .coords import coords_from_json

    return invariants.coords_invariants(coords_from_json(state)).to_dict(), 0


def _answer_spectrum(args, state) -> tuple:
    # a refused state loads no spectra
    coords, rho = _state(state, args.mode)
    import numpy as np

    from . import spectra
    from .coords import encode

    closed = oracle = None
    if args.which in ("closed-form", "both"):
        closed = spectra.closed_form_spectrum(coords)
    if args.which in ("oracle", "both"):
        oracle = spectra.numeric_spectrum(encode(coords) if rho is None else rho)
    if args.which != "both":
        return (closed or oracle).to_dict(), 0
    return {"closed_form": closed.to_dict(), "oracle": oracle.to_dict(),
            "max_diff": float(np.max(np.abs(closed.eigenvalues - oracle.eigenvalues)))}, 0


def _answer_validate(args, state) -> tuple:
    # a refused state loads no domains, invariants or spectra
    coords, rho = _state(state, args.mode)
    from . import domains

    verdict, route = domains.positivity(coords, rho, args.tol)
    return {**verdict.to_dict(), "route": route}, 0 if verdict.admissible else 2


def _answer_sample(args) -> tuple:
    from . import ball
    from .plain import _csv_blocks, _json_items, _json_parts

    m, k, n, seed, box = ball._check_sample(args.m, args.k, args.samples, args.seed, args.box)
    if n * 4 ** m <= ball.PLAIN_CELLS and (k == 1 or m <= 2):
        names, blocks = ball.atlas(m, k, n, seed, box)
    else:
        from . import domains

        names, blocks = domains.sample_domain(m, k, n, seed, box)
    if args.format == "csv":
        return _csv_blocks(names, blocks), 0
    # each record's keys in sorted order, its coefficients one list
    leads = [',\n    {\n      "boundary_margin": ', ',\n      "closed_admissible": ',
             ',\n      "coefficients": [\n        ', *[",\n        "] * (len(names) - 5),
             '\n      ],\n      "index": ', ',\n      "oracle_admissible": ']
    records = ([margin, closed, *coefficients, index, oracle]
               for index, *coefficients, closed, oracle, margin in blocks)
    return _json_parts({"m": args.m, "k": args.k, "n": args.samples, "seed": args.seed,
                        "box": args.box},
                       {"records": _json_items(records, leads, "\n    }")}), 0


def _answer_figure(args) -> tuple:
    from . import figures
    from .plain import _csv_blocks, _json_items, _json_parts, _svg_text

    names, columns = figures._columns(args.which, args.resolution, args.paper_cube)
    if args.format == "csv":
        return _csv_blocks(names, [columns]), 0
    if args.format == "json":
        fields = {"which": args.which, "resolution": args.resolution, "columns": names}
        tables = {"points": columns}
        if args.which == "fig1":
            fields["grid_columns"] = fields.pop("columns")
            tables = {"grid": columns, **figures._plain_curves(args.resolution)}
        elif args.which == "fig3":
            fields["paper_cube"] = args.paper_cube
        return _json_parts(fields, {key: _json_items([cols], len(cols))
                                    for key, cols in tables.items()}), 0
    if args.which == "fig1":
        r, t4, admissible, _ = columns
        if type(admissible) is list:
            labels = ["admissible" if a else "inadmissible" for a in admissible]
        else:
            import numpy as np

            labels = np.where(admissible, "admissible", "inadmissible")
        return _svg_text(r, t4, labels), 0
    x, y, _, surface_id = columns
    return _svg_text(x, y, surface_id), 0


def _answer_rotate(args, state, alpha_file) -> tuple:
    from . import symmetry
    from .coords import antisym, coords_from_json, entry_list
    from .text import _coords_text

    coords = coords_from_json(state)
    alpha_obj = wire_field(alpha_file, dict, "alpha file")
    m = wire_field(alpha_obj.get("m"), int, "m")
    entries = entry_list(alpha_obj.get("alpha", []), "alpha")
    if m != coords.m:
        raise DimensionMismatch(f"the alpha file's m = {m} differs from the coords' m = {coords.m}")
    # the generator spans the state's own indices: 2m, or 2m + 1 in extended mode
    el = symmetry.orthogonal_from_generator(antisym(m, 2, entries, coords.side))
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
        group = p.add_mutually_exclusive_group()
        group.add_argument("--element", help="single element selector K:I1,I2,...")
        group.add_argument("--verify", action="store_true",
                           help="print the residual report instead")
    elif name == "spectrum":
        group = p.add_mutually_exclusive_group()
        for which in ("closed-form", "oracle", "both"):
            group.add_argument(f"--{which}", dest="which", action="store_const", const=which)
        p.set_defaults(which="both")
    if name in ("spectrum", "validate"):  # no --mode: coords keep their own mode
        p.set_defaults(mode=None)
    if name == "validate":
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
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
    parser = _Parser(prog="genbloch", allow_abbrev=False, description="Graded Clifford "
                     "coordinates of m-qubit states: codec, invariants, spectra, Bloch domains.")
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


def _stdout_bytes():
    """sys.stdout's binary buffer, what was written to it as text flushed
    first; OSError when there is none, as when fd 1 is closed and Python
    sets sys.stdout to None."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        raise OSError(errno.EBADF, "stdout is closed or takes no bytes")
    sys.stdout.flush()
    return buffer


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
        docs = []
        for path in (getattr(args, "input", None), getattr(args, "alpha", None)):
            if path is not None:
                import json

                with open(path, "r", encoding="utf-8") as fh:
                    try:
                        docs.append(json.load(fh))
                    except RecursionError:
                        raise MalformedInput(f"{path}: JSON nested too deeply") from None
                    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                        raise MalformedInput(f"{path}: not UTF-8 JSON: {exc}") from None
        with warnings.catch_warnings():
            # an overflow to inf or nan is reported once, by NonFiniteResult
            warnings.filterwarnings("ignore", "(overflow|invalid value) encountered",
                                    RuntimeWarning)
            payload, code = args.func(args, *docs)
            # an object is spelled as one JSON text; any other answer is its pieces
            blocks = [_json_text(payload).encode()] if isinstance(payload, dict) else payload
            sink = (open(args.output, "wb") if args.output
                    else contextlib.nullcontext(_stdout_bytes()))
            with sink as out:
                end = b""
                for block in blocks:
                    out.write(block)
                    # let the block go before the next is made: one in memory at a time
                    end, block = block[-1:], None
                if end != b"\n":
                    out.write(b"\n")
                out.flush()  # a failed write is reported here, not at exit
        return code
    except (GenblochError, OSError) as exc:
        kind = "usage error" if isinstance(exc, UsageError) else "error"
        print(f"genbloch: {kind}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # the process ends with os._exit, so nothing it allocates needs collecting,
    # and os._exit skips the teardown of every module; run() has flushed
    # stdout, so what exit still owes is the atexit handlers and stderr
    gc.disable()
    code = run(sys.argv[1:])
    atexit._run_exitfuncs()
    sys.stderr.flush()
    os._exit(code)
