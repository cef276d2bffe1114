"""Run one genbloch CLI call with the calls into every module timed.

    python3 bench/traced.py SPAN_BASE CALL_ID -- <genbloch argv...>

Before calling ``genbloch.cli.run(argv)`` this wraps every public function
of the layer modules (and the public methods and constructors of their
classes) in a timer, and rebinds each wrapper wherever a genbloch module
imported the function by name.  Spans (name, parent, start, end) stay in
memory and are written at exit to SPAN_BASE.json (names, timings of the
import and of the run, basis-cache counters) and SPAN_BASE.bin (the span
arrays).  The call's stdout, stderr and exit code are those of the CLI.
"""

import sys
import time

_T0 = time.perf_counter()

import array  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402

LAYERS = ("linalg", "clifford", "coords", "invariants", "symmetry", "spectra", "domains", "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self.layers = []
        self.nid = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.wrappers = {}

    def wrap(self, fn, name: str, layer: str):
        clock = time.perf_counter
        nid_of = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        nid, parent, start, end, stack = self.nid, self.parent, self.start, self.end, self.stack

        def timed(*args, **kwargs):
            idx = len(nid)
            nid.append(nid_of)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", name)
        timed.__doc__ = getattr(fn, "__doc__", None)
        self.wrappers[id(fn)] = timed
        return timed

    def install(self, modules: dict) -> None:
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{name}", layer)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    self.wrap(obj, f"{layer}.{name}", layer)
        # rebind in every genbloch namespace, including names imported elsewhere
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "genbloch" or modname.startswith("genbloch.")):
                continue
            for name, obj in list(vars(mod).items()):
                timed = self.wrappers.get(id(obj))
                if timed is not None:
                    setattr(mod, name, timed)

    def _wrap_class(self, cls, prefix: str, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(raw.__func__, f"{prefix}.{attr}", layer)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, f"{prefix}.{attr}", layer)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, f"{prefix}.{attr}", layer))

    def write(self, base: str, meta: dict) -> None:
        n = len(self.nid)
        meta = dict(meta, names=self.names, layers=self.layers, n_spans=n)
        with open(base + ".bin", "wb") as fh:
            for arr in (self.nid, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def main() -> int:
    base, call_id = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]
    t_import = time.perf_counter()
    modules = {name: importlib.import_module(f"genbloch.{name}") for name in LAYERS}
    import_s = time.perf_counter() - t_import
    cached_basis = modules["clifford"].cached_basis
    tracer = Tracer()
    tracer.install(modules)
    t_run = time.perf_counter()
    code = 1
    try:
        code = modules["cli"].run(argv)
    finally:
        run_s = time.perf_counter() - t_run
        sys.stdout.flush()
        info = cached_basis.cache_info()
        tracer.write(base, {"call_id": call_id, "import_s": import_s, "run_s": run_s,
                            "pre_import_s": t_import - _T0,
                            "cache_hits": info.hits, "cache_misses": info.misses})
    return code


if __name__ == "__main__":
    sys.exit(main())
