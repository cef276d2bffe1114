"""Output checkers: each raises ``Failure`` when a call's answer is wrong.

Every checker compares a genbloch CLI result with the independent
reference in ``reference.py``.  A failure that belongs to a defect class
already on record carries that class's name in ``Failure.defect``, so a
run can tell known failures (still counted and listed) from new ones.
"""

from __future__ import annotations

import json
import re

import numpy as np

import reference as ref

EXIT_OK, EXIT_ERROR, EXIT_INADMISSIBLE = 0, 1, 2

# Defect classes on record for the program.  A failure outside these makes
# the run's "correct" flag false; failures inside them are still counted.
KNOWN_DEFECTS = {
    "descartes_verdict": "validate via the characteristic-polynomial sign rule gives a wrong "
                         "verdict (coefficients lose relative accuracy at large n)",
    "grade2_closed_form": "spectrum --both on a generic pure grade-2 state at m >= 4 exits 1 "
                          "(the quartet factorization does not hold there)",
    "uncaught_arithmetic": "rotate with a huge generator raises a bare ArithmeticError traceback",
    "nonfinite_output": "inputs near 1e200 print Infinity/NaN JSON instead of exit 1",
}


class Failure(Exception):
    def __init__(self, reason: str, defect: str | None = None):
        super().__init__(reason)
        self.reason = reason
        self.defect = defect


def _no_constant(name):
    raise Failure(f"non-finite JSON value {name}", "nonfinite_output")


def _json(res) -> dict:
    try:
        return json.loads(res.stdout, parse_constant=_no_constant)
    except json.JSONDecodeError as exc:
        raise Failure(f"stdout is not JSON: {exc}") from None


def _diagnostic_lines(res) -> list:
    return [ln for ln in res.stderr.splitlines() if ln.startswith("genbloch:")]


def _common(res, allowed_exits) -> None:
    if "Traceback (most recent call last)" in res.stderr:
        last = res.stderr.strip().splitlines()[-1] if res.stderr.strip() else ""
        defect = "uncaught_arithmetic" if last.startswith("ArithmeticError") else None
        raise Failure(f"traceback: {last}", defect)
    if res.exit not in allowed_exits:
        raise Failure(f"exit {res.exit}, expected {sorted(allowed_exits)}: "
                      f"{res.stderr.strip().splitlines()[-1:]}")
    if res.exit == EXIT_ERROR and len(_diagnostic_lines(res)) != 1:
        raise Failure("exit 1 without exactly one 'genbloch:' diagnostic line")


def _close(a, b, tol, what) -> None:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise Failure(f"{what}: shape {a.shape} != reference {b.shape}")
    err = float(np.max(np.abs(a - b))) if a.size else 0.0
    if not err <= tol:
        raise Failure(f"{what}: max deviation {err:.3e} > {tol:.0e}")


def _coords_dense(obj: dict) -> tuple:
    """(m, mode, scalar, {idx: val}) from coords JSON."""
    vals = {}
    for k, entries in (obj.get("grades") or {}).items():
        for e in entries:
            vals[tuple(int(i) for i in e["idx"])] = float(e["val"])
    return int(obj["m"]), obj.get("mode", "standard"), float(obj.get("scalar", 1.0)), vals


def _compare_coords(got: dict, want: dict, tol: float, what: str) -> None:
    keys = set(got) | set(want)
    if not keys:
        return
    err = max(abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys)
    if not err <= tol:
        raise Failure(f"{what}: max coordinate deviation {err:.3e} > {tol:.0e}")


# --------------------------------------------------------------------------
# cli_corpus questions


def check_validate(res, case) -> None:
    z = case["z_min"]
    _common(res, {EXIT_OK, EXIT_INADMISSIBLE})
    out = _json(res)
    case["route"] = out.get("route")
    admissible = bool(out.get("admissible"))
    if admissible != (res.exit == EXIT_OK):
        raise Failure(f"exit {res.exit} disagrees with admissible={admissible}")
    if not ref.verdict_ok(z, admissible):
        defect = "descartes_verdict" if out.get("route") == "descartes_rule" else None
        raise Failure(f"verdict admissible={admissible} but 2^m*lambda_min = {z:.3e} "
                      f"(route {out.get('route')})", defect)


def check_spectrum(res, case) -> None:
    want = case["eigenvalues"]
    try:
        _common(res, {EXIT_OK})
    except Failure as exc:
        if case.get("kind") == "grade2" and case["m"] >= 4 and res.exit == EXIT_ERROR:
            exc.defect = "grade2_closed_form"
        raise
    out = _json(res)
    if case["which"] == "both":
        _close(out["closed_form"]["eigenvalues"], want, ref.SPECTRUM_TOL, "closed-form spectrum")
        _close(out["oracle"]["eigenvalues"], want, ref.SPECTRUM_TOL, "oracle spectrum")
    else:
        _close(out["eigenvalues"], want, ref.SPECTRUM_TOL, "oracle spectrum")


def check_decode(res, case) -> None:
    _common(res, {EXIT_OK})
    m, mode, scalar, vals = _coords_dense(_json(res))
    if (m, mode) != (case["m"], case["mode"]):
        raise Failure(f"decoded (m, mode) = {(m, mode)}, expected {(case['m'], case['mode'])}")
    _close([scalar], [case["scalar"]], ref.COORD_TOL, "scalar")
    _compare_coords(vals, case["coords"], ref.COORD_TOL, "decode")


def check_encode(res, case) -> None:
    _common(res, {EXIT_OK})
    out = _json(res)
    dim = int(out["dim"])
    ent = np.asarray(out["entries"], dtype=float)
    if ent.shape != (dim * dim, 2):
        raise Failure(f"matrix JSON has {ent.shape[0]} entries for dim {dim}")
    got = (ent[:, 0] + 1j * ent[:, 1]).reshape(dim, dim)
    _close(np.abs(got - case["rho"]), np.zeros(case["rho"].shape), ref.COORD_TOL, "encode")


def check_invariants(res, case) -> None:
    _common(res, {EXIT_OK})
    out = _json(res)
    want = case["invariants"]
    scale = max(1.0, abs(want["r"]), abs(want["T4"]))
    _close([out["r"], out["T4"]], [want["r"], want["T4"]], 1e-9 * scale, "r, T4")
    if want["D3"] is None:
        if out["D3"] not in (None, 0.0):
            raise Failure(f"D3 = {out['D3']} where none exists")
    else:
        _close([out["D3"]], [want["D3"]], 1e-9 * max(1.0, abs(want["D3"])), "D3")
    if want["pfaffian"] is not None:
        _close([out["extras"].get("pfaffian", np.nan)], [want["pfaffian"]],
               1e-9 * max(1.0, abs(want["pfaffian"])), "pfaffian")
    if "vector_norm_sq" in want:
        _close([out["extras"].get("vector_norm_sq", np.nan)], [want["vector_norm_sq"]],
               1e-9, "vector_norm_sq")


def check_rotate(res, case) -> None:
    _common(res, {EXIT_OK})
    _, _, scalar, vals = _coords_dense(_json(res))
    _close([scalar], [1.0], ref.COORD_TOL, "scalar")
    _compare_coords(vals, case["coords"], ref.COORD_TOL, "rotated coords")


def check_basis_verify(res, case) -> None:
    _common(res, {EXIT_OK})
    out = _json(res)
    m = case["m"]
    if out.get("m") != m or out.get("n_elements") != 4 ** m or out.get("pairs_checked", 0) < 1:
        raise Failure(f"residual report does not describe the 4^{m} basis: {out}")
    for key in ("max_anticommutator_residual", "max_hermiticity_residual",
                "max_orthogonality_residual"):
        if not out[key] <= 1e-10:
            raise Failure(f"{key} = {out[key]}")


def check_basis_element(res, case) -> None:
    _common(res, {EXIT_OK})
    (obj,) = _json(res).values()
    ent = np.asarray(obj["entries"], dtype=float)
    got = (ent[:, 0] + 1j * ent[:, 1]).reshape(obj["dim"], obj["dim"])
    _close(np.abs(got - case["element"]), np.zeros(got.shape), 1e-12, "basis element")


def check_out_of_range(res, case) -> None:
    """The right answer is exit 1, one diagnostic line and nothing on stdout."""
    if res.stdout.strip() and "Traceback" not in res.stderr:
        _json(res)  # non-finite JSON is a defect class of its own
    _common(res, {EXIT_ERROR})
    if res.stdout.strip():
        raise Failure("error exit with output on stdout")


# --------------------------------------------------------------------------
# sample_atlas


def sample_keys(m: int, k: int) -> list:
    side = 2 * m
    if k == 1:
        return [(i,) for i in range(1, side + 1)]
    return [(i, j) for i in range(1, side + 1) for j in range(i + 1, side + 1)]


def _sample_rows(res, case) -> tuple:
    """(coefficients array, oracle_admissible array) from JSON or CSV output."""
    if case["format"] == "json":
        out = _json(res)
        if (out["m"], out["k"], out["n"]) != (case["m"], case["k"], case["n"]):
            raise Failure(f"sample header {(out['m'], out['k'], out['n'])} is wrong")
        recs = out["records"]
        coef = np.array([r["coefficients"] for r in recs], dtype=float)
        oracle = np.array([r["oracle_admissible"] for r in recs], dtype=bool)
        return coef, oracle
    lines = res.stdout.splitlines()
    header = lines[0].split(",")
    dim = len(sample_keys(case["m"], case["k"]))
    want = (["index"] + [f"c{i}" for i in range(dim)]
            + ["closed_admissible", "oracle_admissible", "boundary_margin"])
    if header != want:
        raise Failure(f"sample CSV header {header[:4]}... is wrong")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(want) for r in rows):
        raise Failure("sample CSV row with the wrong column count")
    coef = np.array([r[1:1 + dim] for r in rows], dtype=float).reshape(len(rows), dim)
    flags = [r[2 + dim] for r in rows]
    if any(f not in ("0", "1") for f in flags):
        raise Failure("oracle_admissible column is not 0/1")
    return coef, np.array([f == "1" for f in flags], dtype=bool)


def check_sample(res, case) -> None:
    _common(res, {EXIT_OK})
    coef, oracle = _sample_rows(res, case)
    if coef.shape[0] != case["n"]:
        raise Failure(f"{coef.shape[0]} sample records, expected {case['n']}")
    m, k = case["m"], case["k"]
    stack = np.stack([ref.element(m, idx) for idx in sample_keys(m, k)])
    rhos = (np.eye(2 ** m) + np.einsum("na,aij->nij", coef, stack)) / 2 ** m
    z = 2 ** m * np.linalg.eigvalsh(rhos)[:, 0]
    wrong = [i for i in range(len(z)) if not ref.verdict_ok(float(z[i]), bool(oracle[i]))]
    if wrong:
        i = wrong[0]
        raise Failure(f"{len(wrong)} oracle_admissible flags wrong, e.g. record {i}: "
                      f"flag {bool(oracle[i])} at 2^m*lambda_min = {z[i]:.3e}")


# --------------------------------------------------------------------------
# figures


def _csv_points(res, header: str) -> tuple:
    lines = res.stdout.splitlines()
    if not lines or lines[0] != header:
        raise Failure(f"CSV header {lines[:1]} != {header!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != 4 for r in rows):
        raise Failure("CSV row with the wrong column count")
    return rows


def check_fig1(res, case) -> None:
    _common(res, {EXIT_OK})
    rows = _csv_points(res, "r,T4,admissible,on_boundary")
    n = case["resolution"] ** 2
    if len(rows) != n:
        raise Failure(f"{len(rows)} grid rows, expected {n}")
    for r, t4, adm, _ in rows:
        want = ref.rt4_admissible(float(r), float(t4))
        if want is not None and want != (adm == "1"):
            raise Failure(f"(r, T4) = ({r}, {t4}) marked admissible={adm}, inequality says {want}")


_LEVEL = re.compile(r"^alpha_(plus|minus)=([0-9.eE+-]+)$")


def check_surface(res, case) -> None:
    """fig2/fig3/paper-cube points: on their tagged tunnel surface, and (fig3)
    admissible states."""
    _common(res, {EXIT_OK})
    rows = _csv_points(res, "x,y,z,surface_id")
    if not rows:
        raise Failure("empty point set")
    pts = np.array([r[:3] for r in rows], dtype=float)
    levels = []
    for r in rows:
        hit = _LEVEL.match(r[3])
        if not hit or r[3] not in case["surfaces"]:
            raise Failure(f"unexpected surface_id {r[3]!r}")
        levels.append(float(hit.group(2)))
    levels = np.array(levels)
    if np.max(np.abs(pts)) > case["box"] + 1e-12:
        raise Failure("point outside the plotting box")
    if case.get("unit_cube") and (np.min(pts) < -1e-12 or np.max(pts) > 1 + 1e-12):
        raise Failure("paper-cube point outside [0, 1]^3")
    lam = np.linalg.eigvalsh(ref.tunnel_states(pts))
    # alpha = level on the tagged tunnel puts one eigenvalue at (1 - level)/4
    miss = np.min(np.abs(lam - ((1.0 - levels) / 4.0)[:, None]), axis=1)
    if float(np.max(miss)) > 1e-9:
        i = int(np.argmax(miss))
        raise Failure(f"point {pts[i].tolist()} is not on surface {rows[i][3]} ({miss[i]:.2e})")
    if case["admissible_only"] and float(np.min(4.0 * lam[:, 0])) < -ref.Z_MARGIN:
        i = int(np.argmin(lam[:, 0]))
        raise Failure(f"point {pts[i].tolist()} is not a state (lambda_min {lam[i, 0]:.2e})")
    case["shared"]["points"] = len(rows)


_CIRCLE = re.compile(r'<circle cx="([^"]+)" cy="([^"]+)" r="1.5" fill="#[0-9a-f]{6}"/>')


def check_svg(res, case) -> None:
    _common(res, {EXIT_OK})
    lines = res.stdout.strip().splitlines()
    if not lines or not lines[0].startswith("<svg ") or lines[-1] != "</svg>":
        raise Failure("not a complete <svg> document")
    xy = []
    for ln in lines[1:-1]:
        hit = _CIRCLE.fullmatch(ln)
        if not hit:
            raise Failure(f"unexpected SVG line {ln[:60]!r}")
        xy.append((float(hit.group(1)), float(hit.group(2))))
    xy = np.array(xy)
    if xy.size and (not np.all(np.isfinite(xy)) or xy.min() < 0 or xy.max() > 640):
        raise Failure("circle outside the 640x640 canvas")
    want = case["shared"].get("points")
    if want is not None and len(xy) != want:
        raise Failure(f"{len(xy)} circles, expected {want}")
