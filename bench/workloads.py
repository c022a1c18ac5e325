"""The benchmark's workloads: per-pass operation lists derived from a seed,
and the inputs that must exist before timing starts.

An operation is a list of `finhilb` CLI calls (argv lists without the
program name) plus the artifacts those calls write, which the output gate
re-verifies.  Every file name is relative to the run's work directory, which
is the worker's current directory.  README.md explains why each workload
exists.
"""

import json
import random

WORKLOADS = ("sic_search", "field_mub", "verify_suite")

# Inputs of verify_suite, written by write_inputs before timing starts.
IVANOVIC13 = "input-ivanovic13.json"
SIC4 = "input-sic4.json"

_SIC_SIZES = ((8, 48), (8, 48), (12, 32))
_FIELDS = ((2, 4), (5, 2), (3, 3), (2, 5))


def op_seeds(workload, seed, pass_index, count):
    """`count` distinct operation seeds for one pass, a function of the
    benchmark seed only."""
    rng = random.Random("%s/%d/%d" % (workload, seed, pass_index))
    out = []
    while len(out) < count:
        s = rng.randrange(2 ** 31)
        if s not in out:
            out.append(s)
    return out


def _op(name, calls, artifacts=()):
    return {"name": name, "calls": calls, "artifacts": list(artifacts)}


def _sic_search_ops(seeds, tag):
    ops = []
    for (n, restarts), s in zip(_SIC_SIZES, seeds):
        out = "%s-sic%d-%d.json" % (tag, n, s)
        ops.append(_op(
            "sic_search_n%d" % n,
            [["sic", "search", "--n", str(n), "--restarts", str(restarts),
              "--seed", str(s), "--threads", "1", "--out", out, "--json"],
             ["sic", "verify", out, "--json"]],
            [{"path": out, "kind": "sic", "n": n}]))
    ops.append(_op(
        "mub_search6",
        [["mub", "search6", "--restarts", "96", "--seed", str(seeds[3]),
          "--threads", "1", "--json"]]))
    return ops


def _field_mub_ops(seeds, tag):
    ops = []
    for (p, k), s in zip(_FIELDS, seeds):
        out = "%s-mub%d_%d.json" % (tag, p, k)
        ops.append(_op(
            "mub_gen_%d_%d" % (p, k),
            [["mub", "gen", "--p", str(p), "--k", str(k), "--seed", str(s),
              "--out", out, "--json"],
             ["mub", "verify", out, "--json"]],
            [{"path": out, "kind": "mubset", "n": p ** k}]))
    ops.append(_op("field_table_3_4",
                   [["field", "table", "--p", "3", "--k", "4", "--json"]]))
    return ops


def _verify_suite_ops(seeds, tag):
    s = iter(seeds)
    ops = [_op("weyl_check_%d" % n, [["weyl", "check", "--n", str(n),
                                      "--json"]]) for n in (12, 16)]
    for p in (11, 13):
        ops.append(_op("wigner_check_%d" % p,
                       [["wigner", "check", "--n", str(p),
                         "--seed", str(next(s)), "--json"]]))
    for p in (11, 13):
        ops.append(_op("clifford_check_%d" % p,
                       [["clifford", "check", "--p", str(p),
                         "--seed", str(next(s)), "--json"]]))
    ops.append(_op("suite_13", [["suite", "--n", "13", "--seed",
                                 str(next(s)), "--json"]]))
    for cmd in ("test", "welch"):
        ops.append(_op("design_%s_ivanovic13" % cmd,
                       [["design", cmd, "--family", IVANOVIC13, "--t", "2",
                         "--json"]]))
    ops.append(_op("sic_verify_d4", [["sic", "verify", SIC4, "--json"]]))
    ops.append(_op("sic_fingerprint_d4",
                   [["sic", "fingerprint", SIC4, "--json"]]))
    return ops


_BUILDERS = {"sic_search": (_sic_search_ops, 4),
             "field_mub": (_field_mub_ops, 4),
             "verify_suite": (_verify_suite_ops, 5)}


def pass_ops(workload, seed, pass_index):
    """The operation list of pass `pass_index` of a run with `seed`."""
    build, nseeds = _BUILDERS[workload]
    return build(op_seeds(workload, seed, pass_index, nseeds),
                 "p%d" % pass_index)


def write_inputs(workload, work, cli, sic):
    """Write the inputs the workload reads into `work`, through the CLI
    where it can write them: an Ivanovic p = 13 mubset and the exact d = 4
    fiducial as a sic document."""
    if workload != "verify_suite":
        return
    code = cli.dispatch(["mub", "gen", "--p", "13", "--out",
                         str(work / IVANOVIC13), "--json"])
    if code != 0:
        raise RuntimeError("could not generate the p = 13 mubset input")
    psi = sic.dim4_fiducial()
    doc = {"kind": "sic", "version": cli.FORMAT_VERSION, "n": 4,
           "fiducial": [[float(z.real), float(z.imag)] for z in psi]}
    (work / SIC4).write_text(json.dumps(doc), encoding="utf-8")
