"""One pass of a workload in a fresh interpreter.

    python3 worker.py SRC_DIR SPEC_FILE

Imports finhilb from SRC_DIR, builds the CLI parser and prints "ready" so
the parent can time set-up.  It then reads SPEC_FILE, a JSON object with
"ops" (see workloads.py), "trace" and "result", and runs the operations one
after another through `cli.dispatch`, as the `finhilb` command would, in
the current directory.  Per call it keeps the exit code and the captured
standard output; per operation its wall and process CPU time.  The result,
with the spans of a traced pass, goes to the "result" file.
"""

import contextlib
import ctypes
import functools
import importlib
import io
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

LAYERS = ("cli", "sic", "mub", "wigner", "clifford", "designs", "combinat",
          "weyl", "gf")

# Functions that get a span of their own even when called from inside their
# layer, so their calls and self time can be reported on their own.
HOT_SPOTS = ("weyl.field_displacement", "weyl.displacement_table",
             "weyl.group_law_max_residual", "gf.field_trace",
             "mub.subgroup_eigenbases", "mub.unbiasedness_check",
             "mub.search_unbiased6", "sic.sic_search", "sic.sic_verify",
             "clifford.sl2_enumerate", "cli.persist", "cli.load")


class Tracer:
    """Spans at layer boundaries, recorded by wrapping the public functions
    of each finhilb module in place.

    A call whose innermost open span is in the same layer runs unwrapped,
    unless the function is a hot spot.  Calls from threads other than the
    one that installed the tracer also run unwrapped; the benchmark passes
    `--threads 1`, so none occur.  Spans stay in memory until `dump`.
    """

    def __init__(self):
        self.names = []
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.raised = []
        self.current_op = -1
        self._stack = []
        self._owner = threading.get_ident()

    def install(self, modules):
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) \
                        or isinstance(fn, type) \
                        or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                qual = "%s.%s" % (layer, attr)
                setattr(mod, attr, self._wrap(layer, qual, fn,
                                              qual in HOT_SPOTS))

    def _wrap(self, layer, qual, fn, always):
        index = len(self.names)
        self.names.append(qual)
        stack, owner = self._stack, self._owner
        name, start, end = self.name, self.start, self.end
        parent, op, raised = self.parent, self.op, self.raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != owner or (
                    stack and not always and stack[-1][1] == layer):
                return fn(*args, **kwargs)
            span = len(name)
            name.append(index)
            parent.append(stack[-1][0] if stack else -1)
            op.append(self.current_op)
            raised.append(0)
            end.append(0.0)
            stack.append((span, layer))
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[span] = 1
                raise
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    def dump(self):
        return {"names": self.names, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "raised": self.raised}


def run_op(cli, op):
    """Run one operation's CLI calls in order; stop at the first call that
    does not exit 0."""
    calls = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in op["calls"]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.dispatch(argv)
        except Exception:  # a crash is a failed call, not a failed run
            traceback.print_exc()
            code = None
        calls.append({"argv": argv, "code": code, "stdout": out.getvalue()})
        if code != 0:
            break
    return {"name": op["name"], "calls": calls,
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None when it
    cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.rsplit("/", 1)[-1].lower()}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(src, spec_path):
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import finhilb
    from finhilb import cli
    cli.build_parser()
    if Path(finhilb.__file__).resolve().parent != src / "finhilb":
        raise SystemExit("finhilb imported from %s, not %s"
                         % (finhilb.__file__, src))
    print("ready", flush=True)

    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install({layer: importlib.import_module("finhilb." + layer)
                        for layer in LAYERS})
    results = []
    t0 = time.perf_counter()
    for i, op in enumerate(spec["ops"]):
        if tracer:
            tracer.current_op = i
        results.append(run_op(cli, op))
    doc = {"ops": results, "wall_s": time.perf_counter() - t0,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           "blas_threads": blas_threads()}
    if tracer:
        doc["spans"] = tracer.dump()
    Path(spec["result"]).write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:3])
