"""Seeded inputs for the benchmark workloads.

Each workload hands out its calls one cycle at a time.  A cycle has a fixed
shape (which question, which state size), so every cycle costs about the
same; the seed and the cycle index choose the numbers: the random states,
where lambda_min sits, input format and mode.  Input files are written into
the work directory and genbloch sees only those files and its argv.

Run on its own to write a workload's inputs and list its calls:

    python3 bench/corpus.py --workload cli_corpus --seed 1 --cycles 2 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import reference as ref

KINDS = ("vector", "grade2", "mixed")
SMALL_M = (2, 3, 4)


@dataclass
class Call:
    """One CLI invocation and what its answer is checked against."""

    label: str
    argv: list
    m: int
    check: object
    case: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple:
        return tuple(self.argv)


def _z_target(rng, position: str) -> float:
    """2^m lambda_min for a state placed at the given position."""
    if position == "interior":
        return float(rng.uniform(0.05, 0.6))
    if position == "outside":
        return -float(rng.uniform(0.05, 0.6))
    # inside the band where either verdict is accepted
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.9) * ref.Z_MARGIN)


def random_state(rng, m: int, kind: str, z_target: float, mode: str = "standard"):
    """(coords {idx: val}, rho, z_min) of a unit-trace state of the given kind."""
    n = ref.side(m, mode)
    dim = 2 ** m
    if kind == "vector":
        u = rng.normal(size=n)
        u *= (1.0 - z_target) / np.linalg.norm(u)
        coords = {(i + 1,): float(u[i]) for i in range(n)}
    elif kind == "grade2":
        g = rng.normal(size=(n, n))
        ent = {(i + 1, j + 1): float(g[i, j]) for i in range(n) for j in range(i + 1, n)}
        # z_min(t G) = 1 - t S is linear in the scale t
        s = 1.0 - ref.z_min(ref.encode(m, mode, 1.0, ent))
        t = (1.0 - z_target) / s
        coords = {k: t * v for k, v in ent.items()}
    else:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = a + a.conj().T
        h -= np.trace(h).real / dim * np.eye(dim)
        h_min = float(np.linalg.eigvalsh(h)[0])
        rho = np.eye(dim) / dim + (z_target - 1.0) / (dim * h_min) * h
        _, coords = ref.decode(rho, mode)
        return coords, rho, ref.z_min(rho)
    rho = ref.encode(m, mode, 1.0, coords)
    return coords, rho, ref.z_min(rho)


def coords_json(m: int, mode: str, coords: dict, scalar: float = 1.0) -> dict:
    grades: dict = {}
    for idx, val in sorted(coords.items()):
        grades.setdefault(str(len(idx)), []).append({"idx": list(idx), "val": float(val)})
    return {"m": m, "mode": mode, "scalar": scalar, "grades": grades}


def matrix_json(rho: np.ndarray) -> dict:
    flat = np.asarray(rho, dtype=complex).ravel()
    return {"dim": int(rho.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in flat]}


class Workload:
    name = ""
    # seconds one cycle took, on a quiet host, at the commit that added the
    # benchmark; a run of S seconds does round(S / CYCLE_S) cycles
    CYCLE_S: float

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def _rng(self, *path):
        return np.random.default_rng([self.seed, *path])

    def _write(self, name: str, obj: dict) -> str:
        (self.workdir / name).write_text(json.dumps(obj), encoding="utf-8")
        return name

    def cycle(self, c: int) -> list:
        raise NotImplementedError


class CliCorpus(Workload):
    """One-question CLI calls on single states, m = 2..6.

    A cycle is five calls on m <= 4 states and one each at m = 5 and m = 6.
    Which question each slot asks follows the cycle index only, so the cost
    and the share of known-defect inputs are the same for every seed; the
    seed picks the states, where lambda_min sits, the input format and mode.
    """

    name = "cli_corpus"
    CYCLE_S = 3.6
    LARGE_5 = (("validate", "mixed", "matrix"), ("decode", "mixed", "matrix"),
               ("spectrum", "mixed", "matrix"), ("validate", "grade2", "coords"),
               ("encode", "mixed", "coords"), ("spectrum", "vector", "coords"))
    LARGE_6 = (("validate", "mixed", "matrix"), ("decode", "mixed", "matrix"),
               ("basis_verify", None, None), ("validate", "grade2", "coords"),
               ("encode", "mixed", "coords"), ("spectrum", "mixed", "matrix"))
    SPECTRA = ((3, "grade2"), (4, "grade2"), (2, "mixed"), (4, "vector"), (3, "mixed"),
               (2, "grade2"))
    OTHER = ("decode", "encode", "invariants", "rotate", "basis_verify", "basis_element")
    # known-defect inputs alternate with rejected-cleanly ones, so any four
    # consecutive cycles hold exactly two known defects
    OUT_OF_RANGE = ("m7_validate", "huge_alpha", "m7_decode", "huge_invariants",
                    "m7_validate", "huge_validate")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._first = {}

    def cycle(self, c: int) -> list:
        calls = []
        m = SMALL_M[c % 3]
        calls.append(self._question(c, "a", "validate", m, KINDS[(c + c // 3) % 3], None))
        q, kind, fmt = self.LARGE_5[c % 6]
        calls.append(self._question(c, "l5", q, 5, kind, fmt))
        m, kind = self.SPECTRA[c % 6]
        calls.append(self._question(c, "b", "spectrum", m, kind, "coords"))
        calls.append(self._question(c, "d", self.OTHER[c % 6], SMALL_M[(c + c // 6) % 3],
                                    "mixed", None))
        q, kind, fmt = self.LARGE_6[c % 6]
        calls.append(self._question(c, "l6", q, 6, kind, fmt))
        calls.append(self._out_of_range(c, self.OUT_OF_RANGE[c % 6]))
        # the same argv and files as an earlier call: stdout must not change
        self._first[c] = calls[0]
        calls.append(self._first[max(c - 1, 0)])
        return calls

    def _question(self, c, slot, question, m, kind, fmt) -> Call:
        rng = self._rng(c, *map(ord, slot))
        tag = f"c{c}{slot}"
        if fmt is None:
            fmt = ("coords", "matrix")[int(rng.integers(2))]
        mode = "extended" if question in ("validate", "decode", "encode") \
            and kind != "grade2" and rng.random() < 0.25 else "standard"
        if question == "validate":
            position = ("interior", "near", "outside")[int(rng.integers(3))]
            coords, rho, z = random_state(rng, m, kind, _z_target(rng, position), mode)
            path = self._write(f"{tag}.json", coords_json(m, mode, coords) if fmt == "coords"
                               else matrix_json(rho))
            argv = ["validate", "--input", path] + (["--mode", mode] if fmt == "matrix" else [])
            return Call(f"validate m={m} {mode} {kind} {position} {fmt}", argv, m,
                        checks.check_validate, {"z_min": z})
        if question == "spectrum":
            position = ("interior", "outside")[int(rng.integers(2))]
            coords, rho, _ = random_state(rng, m, kind, _z_target(rng, position))
            which = "oracle" if kind == "mixed" else "both"
            path = self._write(f"{tag}.json", coords_json(m, "standard", coords)
                               if fmt == "coords" else matrix_json(rho))
            return Call(f"spectrum --{which} m={m} {kind} {fmt}",
                        ["spectrum", "--input", path, f"--{which}"], m, checks.check_spectrum,
                        {"eigenvalues": np.linalg.eigvalsh(rho), "which": which, "kind": kind,
                         "m": m})
        if question == "decode":
            coords, rho, _ = random_state(rng, m, kind, _z_target(rng, "interior"), mode)
            path = self._write(f"{tag}.json", matrix_json(rho))
            scalar, want = ref.decode(rho, mode)
            return Call(f"decode m={m} {mode} {kind}", ["decode", "--input", path, "--mode", mode],
                        m, checks.check_decode,
                        {"m": m, "mode": mode, "scalar": scalar, "coords": want})
        if question == "encode":
            coords, rho, _ = random_state(rng, m, kind, _z_target(rng, "interior"), mode)
            path = self._write(f"{tag}.json", coords_json(m, mode, coords))
            return Call(f"encode m={m} {mode} {kind}", ["encode", "--input", path], m,
                        checks.check_encode, {"rho": rho})
        if question == "invariants":
            n = 2 * m
            coords, _, _ = random_state(rng, m, "grade2", _z_target(rng, "interior"))
            want = ref.invariants(n, coords)
            if rng.random() < 0.5:
                vec = rng.uniform(-0.3, 0.3, size=n)
                coords.update({(i + 1,): float(vec[i]) for i in range(n)})
                want["vector_norm_sq"] = float(vec @ vec)
            path = self._write(f"{tag}.json", coords_json(m, "standard", coords))
            return Call(f"invariants m={m} grades {sorted({len(k) for k in coords})}",
                        ["invariants", "--input", path], m, checks.check_invariants,
                        {"invariants": want})
        if question == "rotate":
            return self._rotate(rng, tag, m)
        if question == "basis_verify":
            return Call(f"basis --verify m={m}", ["basis", "--m", str(m), "--verify"], m,
                        checks.check_basis_verify, {"m": m})
        if question == "basis_element":
            k = int(rng.integers(1, 2 * m + 1))
            idx = tuple(sorted(int(i) + 1 for i in rng.choice(2 * m, size=k, replace=False)))
            sel = f"{k}:{','.join(map(str, idx))}"
            return Call(f"basis --element m={m} grade {k}",
                        ["basis", "--m", str(m), "--element", sel], m,
                        checks.check_basis_element, {"element": ref.element(m, idx)})
        raise ValueError(question)

    def _rotate(self, rng, tag, m) -> Call:
        n = 2 * m
        g1 = rng.uniform(-0.3, 0.3, size=n)
        g2 = rng.uniform(-0.2, 0.2, size=(n, n))
        g2 = np.triu(g2, 1)
        coords = {(i + 1,): float(g1[i]) for i in range(n)}
        coords.update({(i + 1, j + 1): float(g2[i, j]) for i in range(n) for j in range(i + 1, n)})
        planes = [tuple(sorted(int(i) + 1 for i in rng.choice(n, 2, replace=False)))
                  for _ in range(3)]
        alpha = {}
        for p in planes:
            alpha[p] = alpha.get(p, 0.0) + float(rng.uniform(-np.pi, np.pi))
        el = ref.rotation_matrix(n, alpha)
        v1 = el @ g1
        a2 = el @ (g2 - g2.T) @ el.T
        want = {(i + 1,): float(v1[i]) for i in range(n)}
        want.update({(i + 1, j + 1): float(a2[i, j]) for i in range(n) for j in range(i + 1, n)})
        cpath = self._write(f"{tag}.json", coords_json(m, "standard", coords))
        apath = self._write(f"{tag}_alpha.json",
                            {"m": m, "alpha": [{"idx": list(k), "val": v} for k, v in alpha.items()]})
        return Call(f"rotate m={m} grades 1,2", ["rotate", "--input", cpath, "--alpha", apath], m,
                    checks.check_rotate, {"coords": want})

    def _out_of_range(self, c, kind) -> Call:
        rng = self._rng(c, ord("o"))
        tag = f"c{c}o"
        if kind == "m7_validate":
            coords, _, _ = random_state(rng, 2, "vector", 0.5)
            obj = coords_json(7, "standard", {(i,): v for (i,), v in coords.items()})
            argv = ["validate", "--input", self._write(f"{tag}.json", obj)]
        elif kind == "m7_decode":
            argv = ["decode", "--input", self._write(f"{tag}.json", matrix_json(np.eye(128) / 128))]
        elif kind == "huge_alpha":
            coords, _, _ = random_state(rng, 2, "grade2", 0.5)
            cpath = self._write(f"{tag}.json", coords_json(2, "standard", coords))
            apath = self._write(f"{tag}_alpha.json", {"m": 2, "alpha": [
                {"idx": [1, 2], "val": float(rng.uniform(0.5, 2.0)) * 1e12}]})
            argv = ["rotate", "--input", cpath, "--alpha", apath]
        else:
            big = float(rng.uniform(0.5, 2.0)) * 1e200
            obj = coords_json(2, "standard", {(1, 2): big, (3, 4): -big})
            question = "invariants" if kind == "huge_invariants" else "validate"
            argv = [question, "--input", self._write(f"{tag}.json", obj)]
        m = 7 if kind.startswith("m7") else 2
        return Call(f"out-of-range {kind}", argv, m, checks.check_out_of_range)


class SampleAtlas(Workload):
    """``genbloch sample`` at four (m, k) points, JSON and CSV output.

    Sample counts make each call spend most of its time sampling rather
    than starting up.  A cycle samples every (m, k) point once, half of them
    as JSON and half as CSV, alternating by cycle; the sampler seed repeats
    every four cycles, so later calls repeat earlier ones exactly.
    """

    name = "sample_atlas"
    CYCLE_S = 3.6
    CONFIGS = ((2, 2, 800), (3, 2, 90), (3, 1, 75), (4, 1, 9))

    def cycle(self, c: int) -> list:
        seed = str(4 * self.seed + c % 4)
        calls = []
        for i, (m, k, n) in enumerate(self.CONFIGS):
            fmt = ("json", "csv")[(c + i) % 2]
            argv = ["sample", "--m", str(m), "--k", str(k), "--samples", str(n),
                    "--seed", seed, "--format", fmt]
            calls.append(Call(f"sample m={m} k={k} n={n} {fmt}", argv, m, checks.check_sample,
                              {"m": m, "k": k, "n": n, "format": fmt, "answers": n}))
        return calls


class Figures(Workload):
    """Figure datasets at m = 2: no oracle, no basis above m = 2.

    The calls take no seeded input; the seed only rotates their order.  The
    same calls repeat every cycle, so each repeat is checked byte for byte.
    """

    name = "figures"
    CYCLE_S = 4.8
    # resolutions at which fig2, fig3 and the paper-cube grid cost about the same
    FIG3_RES = "26"
    CUBE_RES = "28"
    PLUS = ("alpha_plus=1", "alpha_minus=1")
    ALL = ("alpha_plus=1", "alpha_plus=0.1", "alpha_minus=1", "alpha_minus=0.01")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        fig1 = {"points": 101 * 101}
        fig2, fig3 = {}, {}
        res, cube = self.FIG3_RES, self.CUBE_RES
        self.calls = [
            Call("figure fig1 csv", ["figure", "fig1", "--resolution", "101"], 2,
                 checks.check_fig1, {"resolution": 101}),
            Call("figure fig1 svg", ["figure", "fig1", "--resolution", "101", "--format", "svg"],
                 2, checks.check_svg, {"shared": fig1}),
            Call("figure fig2 csv", ["figure", "fig2"], 2, checks.check_surface,
                 {"shared": fig2, "surfaces": self.PLUS, "box": 1.5, "admissible_only": False}),
            Call("figure fig2 svg", ["figure", "fig2", "--format", "svg"], 2, checks.check_svg,
                 {"shared": fig2}),
            Call(f"figure fig3 csv res {res}", ["figure", "fig3", "--resolution", res], 2,
                 checks.check_surface,
                 {"shared": fig3, "surfaces": self.ALL, "box": 1.5, "admissible_only": True}),
            Call(f"figure fig3 svg res {res}", ["figure", "fig3", "--resolution", res,
                                                "--format", "svg"], 2, checks.check_svg,
                 {"shared": fig3}),
            Call(f"domain --grid --paper-cube res {cube}",
                 ["domain", "--grid", "--paper-cube", "--resolution", cube], 2,
                 checks.check_surface,
                 {"shared": {}, "surfaces": self.ALL, "box": 1.5, "admissible_only": True,
                  "unit_cube": True}),
        ]
        shift = seed % len(self.calls)
        self.calls = self.calls[shift:] + self.calls[:shift]

    def cycle(self, c: int) -> list:
        return list(self.calls)


WORKLOADS = {w.name: w for w in (CliCorpus, SampleAtlas, Figures)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cycles", type=int, default=1)
    p.add_argument("--out", required=True, help="directory for the input files")
    args = p.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, out)
    for c in range(args.cycles):
        for call in wl.cycle(c):
            print(f"{call.label}\tgenbloch {' '.join(call.argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
