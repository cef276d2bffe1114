"""End-to-end benchmark of the genbloch CLI.

    python3 bench/run.py --workload {cli_corpus,sample_atlas,figures,all} \
        --seed N --seconds S --trace {0,1}

Run from a checkout that holds ``src/genbloch``.  One client calls the CLI
in a closed loop, one fresh ``python`` process at a time.  The run does
round(S / CYCLE_S) cycles of the workload's calls, CYCLE_S being the
seconds a cycle took at the commit that added the benchmark: the run takes
about S seconds there, and every later commit does the same work, so its
statistics cover the same calls.  Every answer is checked against the
independent reference in ``reference.py``.

``--trace 0`` times the calls untraced and reports the end-to-end metrics,
in reference seconds (see ``REF_LOOP_S``) with the raw wall times beside
them.
``--trace 1`` runs each call untraced and then under ``traced.py`` and
reports per-layer metrics instead: self time and call counts per module,
import costs from ``python -X importtime``, the tracing overhead and the
share of traced wall time that no layer or start-up accounts for.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Failures in a defect class already on
record (``checks.KNOWN_DEFECTS``) are counted and listed but leave
``correct`` true; any other failure makes it false.  Inputs, outputs,
spans and a full result record go under ``bench/_work``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
CLI = "from genbloch.cli import main; main()"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 5
# Host speed is sampled by a fixed pure-Python loop right before and right
# after every child.  On a shared host the CPU speed a process gets drifts
# by +-25% within seconds, and a child's wall time tracks the adjacent loop
# times closely, so each call's time is also reported scaled to a host on
# which the loop takes REF_LOOP_S ("reference seconds").
REF_LOOP_N = 300_000
REF_LOOP_S = 0.015
IMPORTTIME_REPEATS = 3
CALL_LIMIT_S = 150.0
# a host several times slower than usual stops starting cycles here
MAX_LOOP_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "cli_small_p50_s": "s",
    "cli_small_tail_s": "s",
    "answers_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
REPORT_UNITS = {"fail_frac": "ratio", "cli_large_p50_s": "s", "samples_per_s": "1/s",
                "figure_p50_s": "s"}
LAYERS = ("linalg", "clifford", "coords", "invariants", "symmetry", "spectra", "domains", "cli")
ROUTES = ("vector_ball", "r_T4_region", "quartet_roots", "descartes_rule")
PER_LAYER = {
    "startup.numpy_import_s": "s",
    "startup.scipy_import_s": "s",
    "startup.genbloch_import_s": "s",
    **{f"{layer}.calls": "count" for layer in LAYERS if layer != "cli"},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "linalg.eig_calls": "count",
    "linalg.eig_s": "s",
    "linalg.charpoly_s": "s",
    "clifford.basis_builds": "count",
    "clifford.cache_hit_ratio": "ratio",
    "coords.decode_s": "s",
    "coords.encode_s": "s",
    **{f"domains.route.{r}": "ratio" for r in ROUTES},
    "trace.overhead_frac": "ratio",
    "trace.unexplained_frac": "ratio",
}


@dataclass
class Result:
    exit: int
    stdout: str
    stderr: str
    digest: str
    wall: float
    ref_s: float
    rss_mb: float


def host_loop() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_LOOP_N):
        x += i
    return time.perf_counter() - t0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GENBLOCH_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(THREAD_ENV)
    return env


def run_child(cmd: list, cwd: Path, env: dict) -> Result:
    """Run one process to completion; peak RSS comes from its own rusage."""
    out_path, err_path = cwd / "_stdout", cwd / "_stderr"
    loop_before = host_loop()
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)
        killer = threading.Timer(CALL_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    loop = (loop_before + host_loop()) / 2.0
    proc.returncode = os.waitstatus_to_exitcode(status)
    raw = out_path.read_bytes()
    return Result(exit=proc.returncode, stdout=raw.decode("utf-8", "replace"),
                  stderr=err_path.read_text("utf-8", "replace"),
                  digest=hashlib.sha256(raw).hexdigest(), wall=wall,
                  ref_s=wall * REF_LOOP_S / loop, rss_mb=usage.ru_maxrss / 1024.0)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "genbloch").glob("*.py")):
        src.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "child_env": THREAD_ENV,
        "loadavg_start": os.getloadavg(),
    }


def tail(values: list) -> tuple:
    """(value, percentile, n): the highest order statistic with ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100, n
    k = n - 11
    return v[k], math.floor(100 * (k + 1) / n), n


def importtime(cwd: Path, env: dict) -> dict:
    """numpy, scipy and genbloch's own import cost from ``python -X importtime``."""
    res = run_child([sys.executable, "-X", "importtime", "-c", "import genbloch.cli"], cwd, env)
    rows = []
    for line in res.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        name = parts[2].rstrip()
        try:
            rows.append((int(parts[0]), int(parts[1]), len(name) - len(name.lstrip()),
                         name.strip()))
        except ValueError:
            continue  # the header line
    out = {"numpy": 0.0, "scipy": 0.0, "genbloch": 0.0}
    for i, (self_us, cum_us, depth, name) in enumerate(rows):
        top = name.split(".")[0]
        if top == "genbloch":
            out["genbloch"] += self_us * 1e-6
            continue
        if top not in out:
            continue
        # children print before their parent: the parent is the next shallower row
        parent = next((r[3] for r in rows[i + 1:] if r[2] < depth), "")
        if parent.split(".")[0] != top:
            out[top] += cum_us * 1e-6
    return out


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.name = workload
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "spans").mkdir(parents=True)
        self.env = child_env()
        self.records = []
        self.digests = {}
        self.verdicts = {}

    # ---------------------------------------------------------------- calls

    def call(self, call: corpus.Call, traced: bool) -> None:
        if traced:
            base = str(self.dir / "spans" / f"call{len(self.records)}")
            cmd = [sys.executable, str(BENCH / "traced.py"), base, str(len(self.records)), "--"]
        else:
            cmd = [sys.executable, "-c", CLI]
        res = run_child(cmd + call.argv, self.dir, self.env)
        # a repeat with the same stdout, stderr and exit code gets the same verdict
        sig = (call.key, res.digest, res.exit, res.stderr)
        if sig not in self.verdicts:
            case = dict(call.case)
            try:
                call.check(res, case)
                failure = None
            except checks.Failure as exc:
                failure = exc
            except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
                failure = checks.Failure(f"unreadable output: {type(exc).__name__}: {exc}")
            self.verdicts[sig] = failure, case
        failure, case = self.verdicts[sig]
        seen = self.digests.setdefault(call.key, res.digest)
        if failure is None and seen != res.digest:
            failure = checks.Failure("stdout differs from an earlier run of the same call")
        rec = {
            "label": call.label, "argv": call.argv, "m": call.m, "traced": traced,
            "wall": res.wall, "ref_s": res.ref_s, "rss_mb": res.rss_mb, "exit": res.exit,
            "answers": case.get("answers", 1), "route": case.get("route"),
            "ok": failure is None,
            "reason": None if failure is None else failure.reason,
            "defect": None if failure is None else failure.defect,
        }
        if traced:
            rec["spans"] = base
        self.records.append(rec)

    def loop(self, workload) -> None:
        """Run a fixed number of cycles, so every commit does the same work."""
        budget = self.seconds / (2 if self.trace else 1)
        self.cycles = max(1, round(budget / workload.CYCLE_S))
        t_start = time.perf_counter()
        for c in range(self.cycles):
            if time.perf_counter() - t_start > MAX_LOOP_S:
                self.cycles = c
                break
            for call in workload.cycle(c):
                self.call(call, traced=False)
                if self.trace:
                    self.call(call, traced=True)
        self.elapsed = time.perf_counter() - t_start

    def setup(self) -> dict:
        """Median time of a fresh interpreter importing genbloch.cli, raw and scaled."""
        cmd = [sys.executable, "-c", "import genbloch.cli"]
        first = run_child(cmd, self.dir, self.env)  # also writes the bytecode cache
        if first.exit != 0:
            raise SystemExit(f"bench: cannot import genbloch.cli from {ROOT / 'src'}:\n"
                             f"{first.stderr.strip()}")
        runs = [run_child(cmd, self.dir, self.env) for _ in range(SETUP_REPEATS)]
        return {"wall": statistics.median(r.wall for r in runs),
                "ref_s": statistics.median(r.ref_s for r in runs)}

    # -------------------------------------------------------------- metrics

    def untraced(self) -> list:
        return [r for r in self.records if not r["traced"]]

    def timings(self, key: str, setup: dict) -> dict:
        """Time metrics from one clock: "ref_s" (host-speed scaled) or "wall"."""
        recs = self.untraced()
        small = [r[key] for r in recs if r["m"] <= 4]
        large = [r[key] for r in recs if r["m"] in (5, 6)]
        out = {
            "setup_s": setup[key],
            "cli_small_p50_s": statistics.median(small),
            "cli_small_tail_s": tail(small)[0],
            "answers_per_s": sum(r["answers"] for r in recs) / sum(r[key] for r in recs),
        }
        if large:
            out["cli_large_p50_s"] = statistics.median(large)
        if self.name == "sample_atlas":
            out["samples_per_s"] = out["answers_per_s"]
        if self.name == "figures":
            out["figure_p50_s"] = statistics.median(r[key] for r in recs)
        return out

    def end_to_end(self, setup: dict) -> tuple:
        recs = self.untraced()
        failed = sum(not r["ok"] for r in recs)
        ref = self.timings("ref_s", setup)
        metrics = {k: ref.pop(k) for k in ("setup_s", "cli_small_p50_s", "cli_small_tail_s",
                                           "answers_per_s")}
        metrics["peak_rss_mb"] = max(r["rss_mb"] for r in recs)
        metrics["pass_frac"] = 1.0 - failed / len(recs)
        extra = {"fail_frac": failed / len(recs), **ref}
        extra.update({f"raw.{k}": v for k, v in self.timings("wall", setup).items()})
        small = [r for r in recs if r["m"] <= 4]
        _, pct, n = tail([r["wall"] for r in small])
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} fresh imports",
            "cli_small_p50_s": f"median of n={len(small)} calls with m <= 4",
            "cli_small_tail_s": (f"p{pct} of n={n} calls with m <= 4, ten beyond it"
                                 if n > 10 else f"maximum of n={n}: too few for a tail"),
            "answers_per_s": {"cli_corpus": "state questions answered",
                              "sample_atlas": "samples drawn and classified",
                              "figures": "figure datasets written"}[self.name]
                             + " per second of call time, start-up included",
            "pass_frac": f"1 - fail_frac; {failed} of {len(recs)} calls failed",
            "cli_large_p50_s": f"median of n={sum(r['m'] in (5, 6) for r in recs)} calls "
                               "with m = 5, 6",
            "figure_p50_s": f"median of n={len(recs)} calls",
        }
        return metrics, extra, notes

    def per_layer(self, imports: dict) -> tuple:
        traced = [r for r in self.records if r["traced"]]
        calls = np.zeros(len(LAYERS))
        self_s = np.zeros(len(LAYERS))
        acc = {"eig_calls": 0, "eig_s": 0.0, "charpoly_s": 0.0, "decode_s": 0.0,
               "encode_s": 0.0, "basis_builds": 0, "hits": 0, "lookups": 0, "explained": 0.0}
        loaded = 0
        for rec in traced:
            span = load_spans(rec["spans"])
            if span is None:
                rec["ok"] = False
                rec["reason"] = rec["reason"] or "traced run wrote no spans"
                continue
            loaded += 1
            meta, layer, dur, own, outer = span
            calls += np.bincount(layer, minlength=len(LAYERS))
            self_s += np.bincount(layer, weights=own, minlength=len(LAYERS))
            names = meta["names"]
            for key, fn in (("eig", ("linalg.hermitian_eigenvalues",
                                     "linalg.hermitian_eigensystem")),
                            ("charpoly", ("linalg.char_poly",)),
                            ("decode", ("coords.decode",)), ("encode", ("coords.encode",))):
                sel = outer([names.index(f) for f in fn if f in names])
                acc[f"{key}_s"] += float(dur[sel].sum())
                if key == "eig":
                    acc["eig_calls"] += int(sel.sum())
            if "clifford.full_basis" in names:
                acc["basis_builds"] += int(np.sum(meta["nid"] == names.index("clifford.full_basis")))
            acc["hits"] += meta["cache_hits"]
            acc["lookups"] += meta["cache_hits"] + meta["cache_misses"]
            acc["explained"] += meta["import_s"] + meta["run_s"]
        n = max(loaded, 1)
        out = {
            "startup.numpy_import_s": imports["numpy"],
            "startup.scipy_import_s": imports["scipy"],
            "startup.genbloch_import_s": imports["genbloch"],
        }
        for i, layer in enumerate(LAYERS):
            if layer != "cli":
                out[f"{layer}.calls"] = calls[i] / n
            out[f"{layer}.self_s"] = self_s[i] / n
        out.update({
            "linalg.eig_calls": acc["eig_calls"] / n,
            "linalg.eig_s": acc["eig_s"] / n,
            "linalg.charpoly_s": acc["charpoly_s"] / n,
            "clifford.basis_builds": acc["basis_builds"] / n,
            "clifford.cache_hit_ratio": acc["hits"] / acc["lookups"] if acc["lookups"] else 0.0,
            "coords.decode_s": acc["decode_s"] / n,
            "coords.encode_s": acc["encode_s"] / n,
        })
        validates = [r for r in self.untraced() if r["route"] is not None]
        for route in ROUTES:
            hits = sum(r["route"] == route for r in validates)
            out[f"domains.route.{route}"] = hits / len(validates) if validates else 0.0
        plain = sum(r["ref_s"] for r in self.untraced())
        out["trace.overhead_frac"] = sum(r["ref_s"] for r in traced) / plain - 1.0
        out["trace.unexplained_frac"] = 1.0 - acc["explained"] / sum(r["wall"] for r in traced)
        notes = {
            "per call": f"counts and times are means over {loaded} traced calls",
            "trace.unexplained_frac": "traced wall time outside genbloch's import and "
                                      "cli.run: interpreter start and exit, span output",
            "domains.route": f"share of {len(validates)} validate answers",
        }
        return out, notes


def load_spans(base: str):
    """(meta, layer index, duration, self time, outermost-selector) of one call."""
    try:
        meta = json.loads(Path(base + ".json").read_text())
        raw = Path(base + ".bin").read_bytes()
    except OSError:
        return None
    n = meta["n_spans"]
    nid = np.frombuffer(raw, np.int32, n, 0)
    parent = np.frombuffer(raw, np.int32, n, 4 * n)
    start = np.frombuffer(raw, np.float64, n, 8 * n)
    end = np.frombuffer(raw, np.float64, n, 16 * n)
    dur = end - start
    has_parent = parent >= 0
    own = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    layer_of = np.array([LAYERS.index(layer) for layer in meta["layers"]], dtype=np.int64)
    layer = layer_of[nid] if n else np.zeros(0, dtype=np.int64)
    meta["nid"] = nid

    def outer(ids):
        """Spans of the given names whose parent span is not one of them."""
        mine = np.isin(nid, ids)
        inside = np.zeros(n, dtype=bool)
        inside[has_parent] = mine[parent[has_parent]]
        return mine & ~inside

    return meta, layer, dur, own, outer


def fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed, seconds, trace)
    env = environment(seed)
    setup = run.setup()
    imports = {}
    if trace:
        samples = [importtime(run.dir, run.env) for _ in range(IMPORTTIME_REPEATS)]
        imports = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    workload = corpus.WORKLOADS[name](seed, run.dir)
    run.loop(workload)
    env["loadavg_end"] = os.getloadavg()

    if trace:
        metrics, notes = run.per_layer(imports)
        units, extra = PER_LAYER, {}
    else:
        metrics, extra, notes = run.end_to_end(setup)
        units = END_TO_END
    failures = [r for r in run.records if not r["ok"]]
    correct = all(r["defect"] in checks.KNOWN_DEFECTS for r in failures)

    print(f"== workload {name}  seed {seed}  trace {int(trace)}: {len(run.records)} calls "
          f"in {run.cycles} cycles, {run.elapsed:.1f} s")
    print(f"   env {json.dumps(env)}")
    for key, value in metrics.items():
        note = notes.get(key) or notes.get(key.rsplit(".", 1)[0], "")
        print(f"   {key:<28} {fmt(value):>12} {units[key]:<6} {note}")
    for key, value in extra.items():
        base = key.removeprefix("raw.")
        unit = END_TO_END.get(base) or REPORT_UNITS[base]
        note = "unscaled wall time" if key.startswith("raw.") else notes.get(key, "")
        print(f"   {key:<28} {fmt(value):>12} {unit:<6} {note} (report only)")
    for key in ("per call", "domains.route"):
        if key in notes:
            print(f"   ({notes[key]})")
    print(f"   fail_frac {len(failures)}/{len(run.records)}"
          + ("" if correct else "  -- failures outside the known defect classes"))
    for r in failures:
        tag = r["defect"] or "NEW"
        print(f"     [{tag}] genbloch {' '.join(r['argv'])}  ({r['label']}): {r['reason']}")

    result = {
        "workload": name, "trace": int(trace), "environment": env, "setup": setup,
        "cycles": run.cycles, "elapsed_s": run.elapsed,
        "metrics": metrics, "report_only": extra, "notes": notes,
        "known_defects": checks.KNOWN_DEFECTS,
        "calls": [{k: v for k, v in r.items() if k != "spans"} for r in run.records],
    }
    out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    return {
        "correct": correct,
        "attempted": len(run.records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "genbloch" / "cli.py").is_file():
        print(f"bench: no genbloch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
