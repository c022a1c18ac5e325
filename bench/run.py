"""The finhilb benchmark.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Runs passes of a workload (see workloads.py and README.md), each in a fresh
interpreter, until the next pass would end after S seconds; at least one
pass always runs.  Every operation goes through the fail-closed output gate
(gate.py).  With --trace 0 it prints the end-to-end metrics, with --trace 1
the per-layer metrics of traced passes, each traced pass paired with an
untraced pass of the same operations.  `--workload all` does both runs for
every workload.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 only if
every operation passed the gate.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread in this process and in every worker, whatever the
# environment says, so that both commits of a comparison run alike.  On a
# 2-vCPU machine a second BLAS thread doubled the CPU for no gain in wall
# time and made wall time noisier (README.md).  Set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_PROBES = 5
# A run ends within this many seconds even if a worker hangs.
RUN_LIMIT_S = 165

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "cpu_per_op_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s", "fail_ratio": "ratio"}
# Printed for every workload but not declared in BENCHMARK.json: fail_ratio
# is 0 on a healthy commit (the result line carries it as failed/attempted),
# and op_p50_s spreads across seeds by more than any usable bound (see
# README.md).
GATED_END_TO_END = ("ops_per_s", "cpu_per_op_s", "peak_rss_mb", "setup_s")

NOTES = (
    "FieldElement operator arithmetic (+, -, *, **) cannot be wrapped "
    "without touching the class; it counts in the calling layer's self "
    "time, mostly weyl's.",
    "wait time: none; every layer call is synchronous in one thread.",
    "useful/attempted ratio: not exposed by any layer at this commit "
    "(sic_search returns only its best restart), so not reported.",
)


def per_layer_units():
    units = {}
    for layer in worker.LAYERS:
        units[layer + ".calls"] = "count/pass"
        units[layer + ".self_s"] = "s/pass"
        units[layer + ".failed"] = "count/pass"
    for fn in worker.HOT_SPOTS:
        units[fn + ".calls"] = "count/pass"
        units[fn + ".self_s"] = "s/pass"
    units["cli.artifact_bytes"] = "B/pass"
    units["trace_overhead"] = "ratio"
    return units


# -- passes -------------------------------------------------------------------

def spawn_worker(work, ops, trace, tag, timeout):
    """Run one pass in a fresh interpreter, killed after `timeout` seconds.
    Returns (set-up seconds, worker result), or (None, None) when the
    worker did not finish."""
    spec = work / ("spec-%s.json" % tag)
    result = work / ("result-%s.json" % tag)
    spec.write_text(json.dumps({"ops": ops, "trace": trace,
                                "result": str(result)}), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(0.0, timeout)
    ready = ""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(SRC), str(spec)],
            cwd=work, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            if select.select([proc.stdout], [], [], timeout)[0]:
                ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            proc.communicate(timeout=max(0.0, timeout - setup))
        except subprocess.TimeoutExpired:
            print("worker %s timed out" % tag, file=sys.stderr)
        finally:
            if proc.poll() is None:
                proc.kill()
    if ready.strip() != "ready" or proc.returncode != 0:
        return None, None
    return setup, json.loads(result.read_text(encoding="utf-8"))


def gated_pass(work, ops, trace, tag, sic, timeout=RUN_LIMIT_S):
    """One pass with every operation through the gate."""
    setup, res = spawn_worker(work, ops, trace, tag, timeout)
    if res is None:
        return {"setup_s": None, "ops": [], "failed": len(ops),
                "attempted": len(ops), "reasons": ["worker %s failed" % tag]}
    failed, reasons = 0, []
    for op, out in zip(ops, res["ops"]):
        bad = gate.op_failures(op, out, work, sic)
        out["verified"] = not bad
        failed += bool(bad)
        reasons += ["%s %s: %s" % (tag, op["name"], b) for b in bad]
    res.update(setup_s=setup, failed=failed, attempted=len(ops),
               reasons=reasons,
               artifact_bytes=sum((work / a["path"]).stat().st_size
                                  for op in ops for a in op["artifacts"]
                                  if (work / a["path"]).exists()))
    return res


def nan_selftest(work, cli, sic):
    """Put one NaN into an ivanovic_mubs(3) artifact and run `mub verify` on
    it through the gate.  Returns (CLI exit code, gate failures); the gate
    must report failures whatever the CLI says."""
    path = work / "selftest-nan-mubset.json"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.dispatch(["mub", "gen", "--p", "3", "--out", str(path)])
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["bases"][1][0][0][0] = float("nan")
    path.write_text(json.dumps(doc), encoding="utf-8")
    op = {"name": "nan_selftest",
          "calls": [["mub", "verify", str(path), "--json"]],
          "artifacts": [{"path": str(path), "kind": "mubset", "n": 3}]}
    out = worker.run_op(cli, op)
    return out["calls"][0]["code"], gate.op_failures(op, out, work, sic)


# -- metrics ------------------------------------------------------------------

def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def ops_per_s(passes):
    """Verified operations per second of the passes' timed parts."""
    wall = sum(p["wall_s"] for p in passes if p["ops"])
    verified = sum(op["verified"] for p in passes for op in p["ops"])
    return verified / wall if wall else 0.0


def end_to_end(passes, setups):
    done = [p for p in passes if p["ops"]]
    ops = [op for p in done for op in p["ops"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "ops_per_s": (ops_per_s(passes), len(ops)),
        "op_p50_s": (_median(op["wall_s"] for op in ops), len(ops)),
        "cpu_per_op_s": (sum(op["cpu_s"] for op in ops) / len(ops)
                         if ops else 0.0, len(ops)),
        "peak_rss_mb": (max((p["peak_rss_mb"] for p in done), default=0.0),
                        len(done)),
        "setup_s": (_median(setups), len(setups)),
        "fail_ratio": (failed / attempted, attempted),
    }
    return {m: {"value": v, "unit": END_TO_END_UNITS[m], "samples": n}
            for m, (v, n) in values.items()}


def span_totals(spans, totals):
    """Add one traced pass's spans to the per-layer totals."""
    names = spans["names"]
    fn_of = [names[i] for i in spans["name"]]
    layer_of = [fn.split(".", 1)[0] for fn in fn_of]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(dur)
    for i, p in enumerate(spans["parent"]):
        if p >= 0:
            child[p] += dur[i]
    for i, p in enumerate(spans["parent"]):
        layer, fn = layer_of[i], fn_of[i]
        self_s = dur[i] - child[i]
        totals[layer + ".self_s"] += self_s
        if p < 0 or layer_of[p] != layer:
            totals[layer + ".calls"] += 1
            totals[layer + ".failed"] += spans["raised"][i]
        if fn in worker.HOT_SPOTS:
            totals[fn + ".calls"] += 1
            totals[fn + ".self_s"] += self_s


def per_layer(plain, traced):
    units = per_layer_units()
    totals = dict.fromkeys(units, 0.0)
    for p in traced:
        if "spans" in p:
            span_totals(p["spans"], totals)
        totals["cli.artifact_bytes"] += p.get("artifact_bytes", 0)
    n = max(1, len(traced))
    out = {m: {"value": v / n, "unit": units[m], "samples": len(traced)}
           for m, v in totals.items()}
    base = ops_per_s(plain)
    out["trace_overhead"]["value"] = ops_per_s(traced) / base if base else 0.0
    return out


# -- metadata -----------------------------------------------------------------

def run_metadata(blas_threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted(SRC.glob("finhilb/*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in sources:
        text = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + text)
        loc += sum(1 for line in text.splitlines() if line.strip())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": blas_threads, "env": BLAS_ENV},
            "git_commit": commit, "source_sha256": digest.hexdigest(),
            "src_loc": loc, "src_modules": len(sources)}


# -- one run --------------------------------------------------------------------

def load_finhilb():
    if not (SRC / "finhilb" / "__init__.py").is_file():
        raise SystemExit("error: %s/finhilb not found; run from a checkout "
                         "of the repository" % SRC)
    sys.path.insert(0, str(SRC))
    import finhilb
    from finhilb import cli, sic
    if Path(finhilb.__file__).resolve().parent != SRC / "finhilb":
        raise SystemExit("error: finhilb imported from %s" % finhilb.__file__)
    return cli, sic


def run(workload, seed, seconds, trace, cli, sic):
    """One benchmark run; returns its report."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = WORK / ("%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        code, bad = nan_selftest(work, cli, sic)
        if not bad:
            raise SystemExit("error: the output gate passed an artifact "
                             "holding NaN")
        with contextlib.redirect_stdout(io.StringIO()):
            workloads.write_inputs(workload, work, cli, sic)
        setups = [spawn_worker(work, [], False, "probe%d" % i,
                               deadline - time.perf_counter())[0]
                  for i in range(SETUP_PROBES)]
        plain, traced = [], []
        t0 = time.perf_counter()
        i = 0
        while True:
            ops = workloads.pass_ops(workload, seed, i)
            plain.append(gated_pass(work, ops, False, "p%d" % i, sic,
                                    deadline - time.perf_counter()))
            setups.append(plain[-1]["setup_s"])
            if trace:
                traced.append(gated_pass(work, ops, True, "t%d" % i, sic,
                                         deadline - time.perf_counter()))
            i += 1
            elapsed = time.perf_counter() - t0
            if elapsed * (i + 1) / i > seconds:
                break
        if trace:
            (WORK / ("spans-%s.json" % workload)).write_text(
                json.dumps([p["spans"] for p in traced if "spans" in p]),
                encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes = plain + traced
    report = {
        "workload": workload, "seed": seed, "trace": trace,
        "passes": len(plain), "traced_passes": len(traced),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "reasons": [r for p in passes for r in p["reasons"]],
        "nan_selftest": {"cli_exit": code, "gate_failures": bad},
        "end_to_end": end_to_end(plain,
                                 [s for s in setups if s is not None]),
        "pass_wall_s": [p["wall_s"] for p in plain if p["ops"]],
        "blas_threads": next((p["blas_threads"] for p in passes
                              if "blas_threads" in p), None),
    }
    if trace:
        report["per_layer"] = per_layer(plain, traced)
    return report


# -- output ---------------------------------------------------------------------

def print_table(title, metrics):
    print(title)
    print("  %-34s %14s  %-10s %s" % ("metric", "value", "unit", "samples"))
    for name, m in metrics.items():
        print("  %-34s %14.6g  %-10s %d"
              % (name, m["value"], m["unit"], m["samples"]))


def print_report(rep):
    print("== %s  seed %d  passes %d (+%d traced)  ops %d  failed %d"
          % (rep["workload"], rep["seed"], rep["passes"],
             rep["traced_passes"], rep["attempted"], rep["failed"]))
    for reason in rep["reasons"]:
        print("  FAIL %s" % reason)
    st = rep["nan_selftest"]
    print("  gate self-test: NaN mubset, `mub verify` exit %s, gate %s"
          % (st["cli_exit"], "FAIL (as required)" if st["gate_failures"]
             else "PASS (gate broken)"))
    if rep["trace"]:
        print_table("  per-layer metrics (traced passes)", rep["per_layer"])
        for note in NOTES:
            print("  note: " + note)
    else:
        print_table("  end-to-end metrics (tracing off)", rep["end_to_end"])
    print("  pass wall_s: " + " ".join("%.3f" % w for w in rep["pass_wall_s"]))


def result_line(reports, prefix):
    metrics = {}
    for rep in reports:
        source = rep["per_layer"] if rep["trace"] else {
            m: rep["end_to_end"][m] for m in GATED_END_TO_END}
        for name, m in source.items():
            key = (rep["workload"] + "." + name) if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in reports),
            "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an error, so the running worker is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cli, sic = load_finhilb()
    if args.workload == "all":
        plan = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    reports = [run(w, args.seed, args.seconds, t, cli, sic) for w, t in plan]
    for rep in reports:
        print_report(rep)
    meta = run_metadata(reports[0]["blas_threads"])
    meta.update(seed=args.seed, seconds=args.seconds, samples={
        rep["workload"] + (".traced" if rep["trace"] else ""):
            {m: v["samples"] for m, v in (rep.get("per_layer")
                                          or rep["end_to_end"]).items()}
        for rep in reports})
    print("meta " + json.dumps(meta, sort_keys=True))
    line = result_line(reports, prefix=args.workload == "all")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
