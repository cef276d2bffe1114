"""Command-line front end.

Subcommands: basis, encode, decode, invariants, spectrum, validate, sample,
figure, rotate, and the combined domain dispatcher.  All I/O is JSON
(matrices, coordinates, verdicts, spectra), CSV (sample sets, figure
datasets) or SVG (figure scatter plots).  `sample` and `figure` share one
table path: each gets (column names, one array per column) from the
library and writes it with the one CSV writer.  Floats are printed at full
double precision so repeated runs are byte-identical, and a float that is
not finite is refused in every format.  CSV and SVG are assembled
column by column into one flat list of strings and joined once: each
distinct float magnitude of a CSV is spelled once, and each SVG pixel
coordinate is spelled from its integer count of hundredths.  Each subcommand imports the
modules it uses when it runs, so `figure` and `domain --grid` load only the
figures module besides this one.

Exit codes: 0 success, 2 computed-fine-but-state-inadmissible (so shell
pipelines can partition corpora), 1 any error, with a one-line diagnostic
on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import figures
from .errors import GenblochError, NonFiniteResult, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, path: str | None) -> None:
    if path:
        # optional output-directory override for relative paths
        out_dir = os.environ.get("GENBLOCH_OUTPUT_DIR")
        if out_dir and not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


_NOT_FINITE = "result is not finite (input beyond floating-point range?)"


def _dump_json(obj, path: str | None) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(_NOT_FINITE) from exc
    _emit(text, path)


def _load_state(path: str, m: int | None, mode: str):
    """Read either a matrix JSON or a coords JSON of a unit-trace state; return (coords, rho)."""
    from .coords import coords_from_json, decode, encode, require_unit_trace
    from .linalg import matrix_from_json

    obj = _read_json(path)
    if isinstance(obj, dict) and "dim" in obj:
        rho = matrix_from_json(obj)
        return decode(rho, m=m, mode=mode), rho
    coords = coords_from_json(obj)
    # the scalar is the trace, exact where encode's sum may round it away
    require_unit_trace(coords.scalar)
    return coords, encode(coords)


def _spell_floats(values: np.ndarray) -> np.ndarray:
    """repr of each float64 of values.

    Each distinct magnitude is spelled once, and a value whose sign bit is
    set (-0.0 too) is that spelling after "-"; NaN is "nan" whatever its sign.
    """
    bits = values.view(np.int64)
    magnitude, where = np.unique(bits & np.int64(2 ** 63 - 1), return_inverse=True)
    # float's own repr: numpy 2 spells a numpy float as np.float64(...)
    text = np.array(list(map(float.__repr__, magnitude.view(np.float64).tolist())), dtype=object)
    negative = (bits < 0) & ~np.isnan(values)
    return np.concatenate([text, "-" + text])[where + len(text) * negative]


_BITS = np.array(["0", "1"], dtype=object)


def _csv_text(header, columns) -> str:
    """CSV of the header line and one row per entry of the equal-length columns,
    each column of one type: booleans as 1/0, floats at full round-trip
    precision, anything else through str.  A float that is not finite is
    refused with NonFiniteResult, as JSON output refuses it."""
    columns = [np.asarray(col) for col in columns]
    rows = len(columns[0]) if columns else 0
    # one row per line, each cell followed by its separator
    cells = np.empty((rows + 1, 2 * len(header)), dtype=object)
    cells[:, 1::2] = ","
    cells[:, -1:] = "\n"
    cells[0, ::2] = header
    floats = [j for j, col in enumerate(columns) if col.dtype == np.float64]
    if floats:
        values = np.concatenate([columns[j] for j in floats])
        if not np.isfinite(values).all():
            raise NonFiniteResult(_NOT_FINITE)
        spelled = _spell_floats(values)
        cells[1:, [2 * j for j in floats]] = spelled.reshape(len(floats), rows).T
    for j, col in enumerate(columns):
        if col.dtype == bool:
            cells[1:, 2 * j] = _BITS[col.astype(np.uint8)]
        elif col.dtype != np.float64:
            cells[1:, 2 * j] = list(map(str, col.tolist()))
    return "".join(cells.ravel().tolist())


_CENTS = np.array([f"{c:02d}" for c in range(100)], dtype=object)


def _spell_hundredths(values: np.ndarray, top: int) -> np.ndarray:
    """"{:.2f}".format(v) for each float64 v of values.

    A v in (0, top] is spelled from its nearest count of hundredths k as
    f"{k // 100}." + f"{k % 100:02d}", both from small string tables.  That
    is format's rounding unless 100 v lies within 1e-6 of a tie k + 1/2,
    which format settles half-even on the exact binary value; such values,
    and any outside (0, top], go through format itself.
    """
    hundredths = values * 100.0
    k = np.rint(hundredths)
    table = (values > 0) & (k <= 100 * top) & (np.abs(hundredths - k) < 0.5 - 1e-6)
    whole = np.array([f"{i}." for i in range(top + 1)], dtype=object)
    k = k[table].astype(np.intp)
    out = np.empty(len(values), dtype=object)
    out[table] = whole[k // 100] + _CENTS[k % 100]
    out[~table] = list(map("{:.2f}".format, values[~table].tolist()))
    return out


def _svg_text(xs, ys, labels, size: int = 640) -> str:
    """Flat scatter of the (x, y) points colored by label."""
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    x0, x1 = (float(xs.min()), float(xs.max())) if xs.size else (0.0, 0.0)
    y0, y1 = (float(ys.min()), float(ys.max())) if ys.size else (0.0, 0.0)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    margin = 20
    scale = size - 2 * margin
    # the per-point formula's order of operations, kept over the arrays so
    # that every pixel coordinate is the same double as one point at a time
    px = margin + (xs - x0) / span_x * scale
    py = size - margin - (ys - y0) / span_y * scale
    label_list = sorted(set(labels))
    tail = {lab: f'" r="1.5" fill="{palette[i % len(palette)]}"/>'
            for i, lab in enumerate(label_list)}
    # the whole document as one flat list: header, five strings per point, footer
    parts = np.empty(2 + 5 * len(px), dtype=object)
    parts[0] = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
                f'viewBox="0 0 {size} {size}">')
    points = parts[1:-1].reshape(-1, 5)
    points[:, 0] = '\n<circle cx="'
    points[:, 1] = _spell_hundredths(px, size)
    points[:, 2] = '" cy="'
    points[:, 3] = _spell_hundredths(py, size)
    points[:, 4] = [tail[lab] for lab in labels]
    parts[-1] = "\n</svg>"
    return "".join(parts.tolist())


def _cmd_basis(args) -> int:
    from . import clifford
    from .linalg import matrix_to_json

    basis = clifford.full_basis(args.m, args.mode)
    if args.verify:
        _dump_json(clifford.verify_algebra(basis), args.output)
        return 0
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
    _dump_json({f"{args.m},{len(i)},[{','.join(map(str, i))}]": matrix_to_json(basis.element(i))
                for i in indices}, args.output)
    return 0


def _cmd_encode(args) -> int:
    from .coords import coords_from_json, encode
    from .linalg import matrix_to_json

    coords = coords_from_json(_read_json(args.input))
    _dump_json(matrix_to_json(encode(coords)), args.output)
    return 0


def _cmd_decode(args) -> int:
    from .coords import coords_to_json, decode
    from .linalg import matrix_from_json

    rho = matrix_from_json(_read_json(args.input))
    coords = decode(rho, m=args.m, mode=args.mode)
    _dump_json(coords_to_json(coords), args.output)
    return 0


def _cmd_invariants(args) -> int:
    from . import invariants
    from .coords import coords_from_json

    coords = coords_from_json(_read_json(args.input))
    _dump_json(invariants.coords_invariants(coords).to_dict(), args.output)
    return 0


def _cmd_spectrum(args) -> int:
    from . import spectra

    coords, rho = _load_state(args.input, args.m, args.mode)
    out = {}
    if args.which in ("closed-form", "both"):
        out["closed_form"] = spectra.closed_form_spectrum(coords).to_dict()
    if args.which in ("oracle", "both"):
        out["oracle"] = spectra.numeric_spectrum(rho).to_dict()
    if args.which == "both":
        diff = np.abs(np.array(out["closed_form"]["eigenvalues"])
                      - np.array(out["oracle"]["eigenvalues"]))
        out["max_diff"] = float(np.max(diff))
    if args.which != "both":
        out = out["closed_form"] if args.which == "closed-form" else out["oracle"]
    _dump_json(out, args.output)
    return 0


def _cmd_validate(args) -> int:
    from . import domains

    coords, rho = _load_state(args.input, args.m, args.mode)
    verdict, route = domains.positivity(coords, rho, args.tol)
    payload = verdict.to_dict()
    payload["route"] = route
    _dump_json(payload, args.output)
    return 0 if verdict.admissible else 2


def _cmd_sample(args) -> int:
    from . import domains

    names, columns = domains.sample_domain(args.m, args.k, args.samples, args.seed, args.box)
    if args.format == "csv":
        _emit(_csv_text(names, columns), args.output)
        return 0
    index, *coefficients, closed, oracle, margin = (col.tolist() for col in columns)
    records = [{"index": i, "coefficients": list(c), "closed_admissible": closed_ok,
                "oracle_admissible": oracle_ok, "boundary_margin": mgn}
               for i, c, closed_ok, oracle_ok, mgn in zip(index, zip(*coefficients), closed,
                                                            oracle, margin)]
    _dump_json({"m": args.m, "k": args.k, "n": args.samples, "seed": args.seed, "box": args.box,
                "records": records}, args.output)
    return 0


def _cmd_figure(args) -> int:
    if args.format == "json":
        _dump_json(figures.figure_data(args.which, args.resolution, paper_cube=args.paper_cube),
                   args.output)
        return 0
    names, columns = figures.figure_columns(args.which, args.resolution,
                                            paper_cube=args.paper_cube)
    if args.format == "csv":
        _emit(_csv_text(names, columns), args.output)
    elif args.which == "fig1":
        r, t4, admissible, _ = columns
        _emit(_svg_text(r, t4, np.where(admissible, "admissible", "inadmissible")), args.output)
    else:
        x, y, _, surface_id = columns
        _emit(_svg_text(x, y, surface_id), args.output)
    return 0


def _cmd_domain(args) -> int:
    """One-stop domain subcommand: verdict, grid dataset, or Monte-Carlo samples."""
    modes = [m for m, flag in (("--input", args.input), ("--grid", args.grid),
                               ("--samples", args.samples is not None)) if flag]
    if len(modes) != 1:
        raise UsageError("domain needs exactly one of --input, --grid, --samples")
    if args.input:
        return _cmd_validate(args)
    if args.grid:
        args.which = "fig3" if args.paper_cube else "fig1"
        return _cmd_figure(args)
    if args.format == "svg":
        raise UsageError("--samples supports csv or json output")
    args.m = 2 if args.m is None else args.m
    return _cmd_sample(args)


def _cmd_rotate(args) -> int:
    from . import symmetry
    from .coords import antisym, coords_from_json, coords_to_json, entry_list
    from .linalg import wire_field

    coords = coords_from_json(_read_json(args.input))
    alpha_obj = wire_field(_read_json(args.alpha), dict, "alpha file")
    entries = entry_list(alpha_obj.get("alpha", []), "alpha")
    alpha = antisym(wire_field(alpha_obj.get("m"), int, "m"), 2, entries)
    el = symmetry.orthogonal_from_generator(alpha)
    _dump_json(coords_to_json(symmetry.rotate_coords(coords, el)), args.output)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="genbloch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="dump or verify Clifford basis elements")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=["standard", "extended"], default="standard")
    p.add_argument("--element", help="single element selector K:I1,I2,...")
    p.add_argument("--verify", action="store_true", help="print the residual report instead")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("encode", help="coords JSON -> matrix JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="matrix JSON -> coords JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--mode", choices=["standard", "extended"], default="standard")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("invariants", help="coords JSON -> invariant set JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("spectrum", help="closed-form and/or oracle spectrum")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--mode", choices=["standard", "extended"], default="standard")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--closed-form", dest="which", action="store_const", const="closed-form")
    group.add_argument("--oracle", dest="which", action="store_const", const="oracle")
    group.add_argument("--both", dest="which", action="store_const", const="both")
    p.set_defaults(which="both")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("validate", help="admissibility verdict (exit 2 when inadmissible)")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--mode", choices=["standard", "extended"], default="standard")
    p.add_argument("--tol", type=float, default=figures.DEFAULT_TOL)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sample", help="Monte-Carlo atlas of a tensor domain")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=float, default=1.2)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("figure", help="figure datasets (grid / surface point clouds)")
    p.add_argument("which", choices=["fig1", "fig2", "fig3"])
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--paper-cube", action="store_true")
    p.add_argument("--format", choices=["csv", "json", "svg"], default="csv")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("rotate", help="apply a rotation generator to coordinates")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_rotate)

    p = sub.add_parser("domain", help="classify one state, emit the domain grid, "
                                      "or sample the domain")
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--input", help="coords or matrix JSON: verdict for one state")
    p.add_argument("--grid", action="store_true",
                   help="emit the (r, T4) verdict grid; with --paper-cube, the "
                        "cube-clipped tunnel-slice point cloud instead")
    p.add_argument("--samples", type=int, help="Monte-Carlo sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=float, default=1.2)
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--paper-cube", action="store_true")
    p.add_argument("--mode", choices=["standard", "extended"], default="standard")
    p.add_argument("--tol", type=float, default=figures.DEFAULT_TOL)
    p.add_argument("--format", choices=["csv", "json", "svg"], default="csv")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_domain)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # an overflow to inf or nan is reported once, by _dump_json's
        # NonFiniteResult, not also as numpy RuntimeWarnings on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"genbloch: usage error: {exc}", file=sys.stderr)
        return 1
    except GenblochError as exc:
        print(f"genbloch: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"genbloch: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
