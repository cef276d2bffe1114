"""Command-line front end.

Subcommands: basis, encode, decode, invariants, spectrum, validate, sample,
figure, rotate, and the combined domain dispatcher.  All I/O is JSON
(matrices, coordinates, verdicts, spectra) or CSV (sample sets, figure
datasets), printed at full double precision so repeated runs are
byte-identical.

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

from . import clifford, domains, invariants, spectra, symmetry
from .coords import antisym, coords_from_json, coords_to_json, decode, encode
from .errors import GenblochError, NonFiniteResult, UsageError
from .linalg import matrix_from_json, matrix_to_json


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


def _dump_json(obj, path: str | None) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult("result is not finite (input beyond floating-point range?)") from exc
    _emit(text, path)


def _load_state(path: str, m: int | None, mode: str):
    """Read either a matrix JSON or a coords JSON; return (coords, rho)."""
    obj = _read_json(path)
    if "dim" in obj:
        rho = matrix_from_json(obj)
        coords = decode(rho, m=m, mode=mode)
        # decode accepts a hermiticity residual up to 1e-10, the eigensolver
        # only 1e-12; the coords describe the hermitian part, so use it
        return coords, (rho + rho.conj().T) / 2
    coords = coords_from_json(obj)
    return coords, encode(coords)


def _csv_row(values) -> str:
    out = []
    for v in values:
        if isinstance(v, (bool, np.bool_)):
            out.append("1" if v else "0")
        elif isinstance(v, float):
            # float's own repr: numpy 2 spells a numpy float as np.float64(...)
            out.append(float.__repr__(v))
        else:
            out.append(str(v))
    return ",".join(out)


def _write_csv(header, rows, path: str | None) -> None:
    lines = [",".join(header)] + [_csv_row(r) for r in rows]
    _emit("\n".join(lines) + "\n", path)


def _write_svg(points, labels, path: str | None, size: int = 640) -> None:
    """Flat scatter of (x, y) points colored by label."""
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span_x = (x1 - x0) or 1.0
    span_y = (y1 - y0) or 1.0
    label_list = sorted(set(labels))
    color = {lab: palette[i % len(palette)] for i, lab in enumerate(label_list)}
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    margin = 20
    scale = size - 2 * margin
    for (x, y), lab in zip(points, labels):
        px = margin + (x - x0) / span_x * scale
        py = size - margin - (y - y0) / span_y * scale
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.5" fill="{color[lab]}"/>')
    parts.append("</svg>")
    _emit("\n".join(parts), path)


def _cmd_basis(args) -> int:
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
    coords = coords_from_json(_read_json(args.input))
    _dump_json(matrix_to_json(encode(coords)), args.output)
    return 0


def _cmd_decode(args) -> int:
    rho = matrix_from_json(_read_json(args.input))
    coords = decode(rho, m=args.m, mode=args.mode)
    _dump_json(coords_to_json(coords), args.output)
    return 0


def _cmd_invariants(args) -> int:
    coords = coords_from_json(_read_json(args.input))
    _dump_json(invariants.coords_invariants(coords).to_dict(), args.output)
    return 0


def _cmd_spectrum(args) -> int:
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
    coords, rho = _load_state(args.input, args.m, args.mode)
    verdict, route = domains.positivity(coords, rho, args.tol)
    payload = verdict.to_dict()
    payload["route"] = route
    _dump_json(payload, args.output)
    return 0 if verdict.admissible else 2


def _cmd_sample(args) -> int:
    sset = domains.sample_domain(args.m, args.k, args.samples, args.seed, args.box)
    if args.format == "csv":
        dim = len(sset.records[0].coefficients) if sset.records else 0
        header = (["index"] + [f"c{i}" for i in range(dim)]
                  + ["closed_admissible", "oracle_admissible", "boundary_margin"])
        rows = [(r.index, *r.coefficients, r.closed_admissible, r.oracle_admissible,
                 r.boundary_margin) for r in sset.records]
        _write_csv(header, rows, args.output)
    else:
        payload = {
            "m": sset.m, "k": sset.k, "n": sset.n, "seed": sset.seed, "box": sset.box,
            "records": [{
                "index": r.index,
                "coefficients": list(r.coefficients),
                "closed_admissible": r.closed_admissible,
                "oracle_admissible": r.oracle_admissible,
                "boundary_margin": r.boundary_margin,
            } for r in sset.records],
        }
        _dump_json(payload, args.output)
    return 0


def _cmd_figure(args) -> int:
    data = domains.figure_data(args.which, args.resolution, paper_cube=args.paper_cube)
    if args.format == "json":
        _dump_json(data, args.output)
        return 0
    if args.which == "fig1":
        if args.format == "csv":
            _write_csv(data["grid_columns"], data["grid"], args.output)
        else:
            pts = [(r, t4) for r, t4, _, _ in data["grid"]]
            labels = ["admissible" if adm else "inadmissible" for _, _, adm, _ in data["grid"]]
            _write_svg(pts, labels, args.output)
        return 0
    if args.format == "csv":
        _write_csv(data["columns"], data["points"], args.output)
    else:
        pts = [(x, y) for x, y, _, _ in data["points"]]
        labels = [sid for _, _, _, sid in data["points"]]
        _write_svg(pts, labels, args.output)
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
    coords = coords_from_json(_read_json(args.input))
    alpha_obj = _read_json(args.alpha)
    entries = {tuple(e["idx"]): float(e["val"]) for e in alpha_obj.get("alpha", [])}
    alpha = antisym(int(alpha_obj["m"]), 2, entries)
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
    p.add_argument("--tol", type=float, default=domains.DEFAULT_TOL)
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
    p.add_argument("--tol", type=float, default=domains.DEFAULT_TOL)
    p.add_argument("--format", choices=["csv", "json", "svg"], default="csv")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_domain)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"genbloch: usage error: {exc}", file=sys.stderr)
        return 1
    except GenblochError as exc:
        print(f"genbloch: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"genbloch: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
