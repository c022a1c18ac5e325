"""The fail-closed output gate.

An operation counts as verified only if every CLI call exited 0, printed a
JSON report that parses, and every check in it passed with a finite value;
and if every artifact it wrote re-verifies here, independently of the CLI's
own verify commands.  Every comparison is written as `not (dev <= tol)`, so
NaN fails.
"""

import json
import math

import numpy as np

# Thresholds of the re-verification, the CLI defaults for the same checks.
SIC_IDENTITY_TOL = 1e-10
SIC_GRAM_TOL = 1e-8
MUB_TOL = 1e-9


def _report_failures(call):
    argv = " ".join(call["argv"])
    if call["code"] != 0:
        return ["%s: exit code %r" % (argv, call["code"])]
    try:
        report = json.loads(call["stdout"])
    except ValueError:
        return ["%s: report is not JSON" % argv]
    checks = report.get("checks") if isinstance(report, dict) else None
    if not checks:
        return ["%s: report has no checks" % argv]
    bad = []
    for c in checks:
        value = c.get("value")
        if c.get("pass") is not True or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            bad.append("%s: check %s failed (value %r)"
                       % (argv, c.get("name"), value))
    return bad


def _complex(pairs):
    arr = np.asarray(pairs, dtype=float)
    if arr.shape[-1:] != (2,):
        raise ValueError("expected [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def sic_failures(doc, n, sic):
    """Re-verify a sic document with the library's sic_verify."""
    if doc.get("kind") != "sic" or doc.get("n") != n:
        return ["sic artifact has kind %r, n %r" % (doc.get("kind"),
                                                     doc.get("n"))]
    psi = _complex(doc["fiducial"])
    if psi.shape != (n,) or not np.all(np.isfinite(psi)):
        return ["sic fiducial is not %d finite entries" % n]
    out = sic.sic_verify({"n": n, "fiducial": psi})
    bad = []
    for key, tol in (("identityDeviation", SIC_IDENTITY_TOL),
                     ("gramDeviation", SIC_GRAM_TOL)):
        if not out[key] <= tol:
            bad.append("sic %s %r exceeds %g" % (key, out[key], tol))
    return bad


def mubset_failures(doc, n):
    """Recompute orthonormality and unbiasedness of a complete MUB set
    from one Gram matrix of all its vectors."""
    if doc.get("kind") != "mubset" or doc.get("n") != n:
        return ["mubset artifact has kind %r, n %r" % (doc.get("kind"),
                                                        doc.get("n"))]
    bases = _complex(doc["bases"])
    if bases.shape != (n + 1, n, n):
        return ["mubset has shape %s, not %s"
                % (bases.shape, (n + 1, n, n))]
    vecs = np.hstack(list(bases))
    block = np.arange(vecs.shape[1]) // n
    same = block[:, None] == block[None, :]
    with np.errstate(invalid="ignore", over="ignore"):
        gram = vecs.conj().T @ vecs
        orth = np.max(np.abs(gram[same] - np.eye(len(block))[same]))
        unb = np.max(np.abs(np.abs(gram[~same]) ** 2 - 1.0 / n))
    bad = []
    for key, dev in (("orthonormality", orth), ("unbiasedness", unb)):
        if not dev <= MUB_TOL:
            bad.append("mubset %s %r exceeds %g" % (key, dev, MUB_TOL))
    return bad


def op_failures(op, result, work, sic):
    """Why the operation `op`, which produced `result` (see worker.run_op)
    in directory `work`, is not verified; empty when it is."""
    if len(result["calls"]) != len(op["calls"]):
        bad = ["ran %d of %d calls" % (len(result["calls"]),
                                       len(op["calls"]))]
    else:
        bad = []
    for call in result["calls"]:
        bad += _report_failures(call)
    for art in op["artifacts"]:
        try:
            doc = json.loads((work / art["path"]).read_text(encoding="utf-8"))
            if art["kind"] == "sic":
                bad += sic_failures(doc, art["n"], sic)
            else:
                bad += mubset_failures(doc, art["n"])
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError) as exc:
            bad.append("%s: %s" % (art["path"], exc))
    return bad
