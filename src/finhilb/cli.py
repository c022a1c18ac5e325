"""Command-line front end: generation, verification, search, and report
emission with stable machine-readable output."""

import argparse
import functools
import json
import sys

import numpy as np

from . import clifford, combinat, designs, gf, mub, sic, weyl, wigner
from .tol import TOL_MATRIX, TOL_OVERLAP, TOL_SEARCH, TOL_SIC_GRAM

FORMAT_VERSION = 1


class KindMismatch(ValueError):
    """A loaded document carries the wrong `kind` tag."""


# -- artifact boundary --------------------------------------------------------
# Complex arrays leave by `persist`/`_encode` as nested [re, im] pairs and come
# back through `_decode`, which every file and raw-array input passes once.

# Every document kind, with the complex field commands read and its axes.
_ARRAYS = {"mubset": ("bases", 3), "basisfamily": ("vectors", 2),
           "sic": ("fiducial", 1), "wignertable": ("state", 1),
           "field": (None, 0)}
_PLACEHOLDER = "\u0000finhilb array\u0000"


def _encode(obj):
    """`json.dumps` hook: a complex array or scalar becomes nested [re, im]
    pairs, any other numpy value its `tolist()`."""
    if np.iscomplexobj(obj):
        obj = np.stack([np.real(obj), np.imag(obj)], -1)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError("%s is not JSON serializable" % type(obj).__name__)


def _decode(data, ndim):
    """The complex array of `ndim` axes held as nested [re, im] pairs, bit
    for bit; ValueError unless the pairs are numeric, that shape and finite."""
    a = np.asarray(data)  # ragged entries raise ValueError here
    if a.dtype.kind not in "iuf":
        raise ValueError("array entries are not numbers")
    if a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise ValueError("expected a %d-axis array of [re, im] pairs, got "
                         "shape %s" % (ndim, a.shape))
    if not np.isfinite(a).all():
        raise ValueError("array entries are not finite")
    return np.ascontiguousarray(a, float).view(complex)[..., 0]


def _template(shape, level):
    """The `indent=1` text of a float array of `shape` whose first line
    sits at indent `level`, with a %r slot per entry."""
    if not shape or not shape[0]:
        return "[]" if shape else "%r"
    pad = "\n" + " " * (level + 1)
    inner = _template(shape[1:], level + 1)
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + pad[:-1] + "]"


def persist(doc: dict, path: str) -> None:
    """Write `doc` as `json.dumps(doc, sort_keys=True, indent=1,
    default=_encode)` plus a newline.  Each finite float or complex array
    is left as a placeholder and written by `_template`, the same bytes
    without json's pure-Python encoder."""
    if doc.get("kind") not in _ARRAYS:
        raise ValueError("unknown document kind: %r" % doc.get("kind"))
    arrays = []

    def hook(obj):
        if not (isinstance(obj, np.ndarray) and obj.dtype.char in "fdFD"
                and np.isfinite(obj).all()):
            return _encode(obj)
        arrays.append(np.stack([obj.real, obj.imag], -1)
                      if np.iscomplexobj(obj) else obj)
        return _PLACEHOLDER

    pieces = json.dumps(doc, sort_keys=True, indent=1,
                        default=hook).split(json.dumps(_PLACEHOLDER))
    if len(pieces) != len(arrays) + 1:  # a string of `doc` is the placeholder
        pieces, arrays = [json.dumps(doc, sort_keys=True, indent=1,
                                     default=_encode)], []
    out = pieces[:1]
    for a, piece in zip(arrays, pieces[1:]):
        line = out[-1].rsplit("\n", 1)[-1]  # indent of the placeholder's line
        out += [_template(a.shape, len(line) - len(line.lstrip(" ")))
                % tuple(a.ravel().tolist()), piece]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(out + ["\n"])


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _checked(doc, kinds):
    """`doc` with its kind checked, its version warned on and its complex
    field required and decoded in place."""
    got = doc.get("kind") if isinstance(doc, dict) else None
    if got not in kinds:
        raise KindMismatch("expected kind %s, got '%s'"
                           % (" or ".join("'%s'" % k for k in kinds), got))
    if doc.get("version") != FORMAT_VERSION:
        print("warning: format version %r differs from %d, loading best-effort"
              % (doc.get("version"), FORMAT_VERSION), file=sys.stderr)
    field, ndim = _ARRAYS[got]
    if field is not None:
        if field not in doc:
            raise ValueError("%s document has no '%s' field" % (got, field))
        doc[field] = _decode(doc[field], ndim)
    return doc


def load(path: str, *kinds: str) -> dict:
    """Read a document of one of `kinds`, validated as `_checked` says."""
    return _checked(_read_json(path), kinds)


def _load_family(path):
    """Rows of unit vectors from a basisfamily, mubset, or sic document."""
    doc = load(path, "basisfamily", "mubset", "sic")
    if doc["kind"] == "mubset":
        return np.hstack(doc["bases"]).T
    if doc["kind"] == "sic":
        return sic.sic_orbit(doc["fiducial"])
    return doc["vectors"]


# -- run reports -------------------------------------------------------------

class Report:
    def __init__(self, command, parameters, seed=None):
        self.command = command
        self.parameters = parameters
        self.seed = seed
        self.checks = []
        self.artifacts = []
        self.result = None
        self.stats = None

    def check(self, name, value, threshold, mode="le"):
        value = float(value)
        threshold = float(threshold)
        if mode == "le":
            ok = value <= threshold
        elif mode == "ge":
            ok = value >= threshold
        else:
            ok = value == threshold
        self.checks.append({"name": name, "value": value,
                            "threshold": threshold, "pass": bool(ok)})
        return ok

    @property
    def passed(self):
        return all(c["pass"] for c in self.checks)

    def as_dict(self):
        out = {"command": self.command, "parameters": self.parameters,
               "checks": self.checks, "artifacts": self.artifacts}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.result is not None:
            out["result"] = self.result
        if self.stats is not None:
            out["stats"] = self.stats
        return out

    def save(self, doc, path):
        """Persist `doc` to `path` and record it as an artifact; nothing
        when no path is given."""
        if path:
            persist(doc, path)
            self.artifacts.append(path)

    def emit(self, as_json, lines):
        if as_json:
            print(json.dumps(self.as_dict(), sort_keys=True, default=_encode))
            return
        for line in lines or ():
            print(line)
        for c in self.checks:
            print("%-30s value=%-14.6g threshold=%-12.6g %s"
                  % (c["name"], c["value"], c["threshold"],
                     "PASS" if c["pass"] else "FAIL"))
        for path in self.artifacts:
            print("wrote %s" % path)


# -- field -------------------------------------------------------------------

def _poly_str(coeffs):
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "x" if i == 1 else "x^%d" % i
            terms.append(var if c == 1 else "%d%s" % (c, var))
    return " + ".join(terms) if terms else "0"


def cmd_field_table(args, rep):
    spec = gf.field_make(args.p, args.k)
    x = np.arange(spec.order)
    columns = zip(gf.digit_table(spec).tolist(),
                  gf.field_trace(spec, x).tolist(),
                  gf.field_trace(spec, gf.mul(spec, x, x)).tolist(),
                  [None] + gf.multiplicative_order(spec, x[1:]).tolist())
    rows = [{"index": i, "poly": _poly_str(c), "trace": t, "trace2": t2,
             "order": order} for i, (c, t, t2, order) in enumerate(columns)]
    rep.check("rows", len(rows), spec.order, mode="eq")
    rep.result = {"kind": "field", "version": FORMAT_VERSION, "p": args.p,
                  "k": args.k, "rows": rows}
    rep.save(rep.result, args.out)
    lines = ["%-6s %-14s %-5s %-6s %s" % ("index", "element", "tr x",
                                          "tr x2", "order")]
    for r in rows:
        lines.append("%-6d %-14s %-5d %-6d %s"
                     % (r["index"], r["poly"], r["trace"], r["trace2"],
                        "-" if r["order"] is None else r["order"]))
    return lines


# -- weyl --------------------------------------------------------------------

def cmd_weyl_check(args, rep):
    rep.check("orthogonality", weyl.orthogonality_max_residual(args.n), args.tol)
    rep.check("group_law", weyl.group_law_max_residual(args.n), args.tol)


def cmd_weyl_expand(args, rep):
    mat = _decode(_read_json(args.matrix), 2)
    coef = weyl.expand_operator(mat)
    residual = float(np.max(np.abs(weyl.reconstruct_operator(coef) - mat)))
    rep.check("reconstruction", residual, args.tol)
    rep.result = {"coefficients": coef}
    n = coef.shape[0]
    lines = ["r  s  coefficient"]
    for r in range(n):
        for s in range(n):
            lines.append("%d  %d  %.12g %+.12gj"
                         % (r, s, coef[r, s].real, coef[r, s].imag))
    return lines


# -- combinatorics -----------------------------------------------------------

def cmd_latin_gen(args, rep):
    square = combinat.latin_from_group(args.n)
    rep.check("is_latin", 1.0 if combinat.is_latin(square) else 0.0, 1.0,
              mode="eq")
    result = {"square": square}
    lines = [" ".join(str(v) for v in row) for row in square]
    if args.count:
        reduced = combinat.count_reduced_latin(args.n)
        result["reduced_count"] = reduced
        lines.append("reduced squares of order %d: %d" % (args.n, reduced))
    rep.result = result
    return lines


def cmd_hadamard_fourier(args, rep):
    mat = combinat.fourier_matrix(args.n)
    rep.check("is_hadamard",
              1.0 if combinat.is_complex_hadamard(mat) else 0.0, 1.0,
              mode="eq")
    rep.save({"kind": "basisfamily", "version": FORMAT_VERSION, "n": args.n,
              "vectors": mat.T, "metadata": {"label": "fourier"}}, args.out)
    rep.result = {"matrix": mat}
    lines = []
    for row in mat:
        lines.append("  ".join("%+.6f%+.6fj" % (z.real, z.imag) for z in row))
    return lines


def cmd_werner(args, rep):
    latin = combinat.latin_from_group(args.n)
    had = combinat.fourier_matrix(args.n)
    vecs = combinat.werner_basis(latin, had)
    gram_dev = float(np.max(np.abs(vecs @ vecs.conj().T
                                   - np.eye(args.n * args.n))))
    # np.max keeps a NaN that Python's max would drop, here and below
    red_dev = np.max([np.abs(rho - np.eye(args.n) / args.n).max()
                      for v in vecs
                      for rho in combinat.reduced_density_matrices(v, args.n)])
    rep.check("gram_identity", gram_dev, args.tol)
    rep.check("reduced_states", red_dev, args.tol)
    rep.save({"kind": "basisfamily", "version": FORMAT_VERSION,
              "n": args.n * args.n, "vectors": vecs,
              "metadata": {"label": "werner", "latin": latin,
                           "hadamard": had}}, args.out)


# -- mub ---------------------------------------------------------------------

def cmd_mub_gen(args, rep):
    if args.k == 1:
        bases = mub.qubit_mubs() if args.p == 2 else mub.ivanovic_mubs(args.p)
    else:
        bases = mub.subgroup_eigenbases(args.p, args.k)
    n = bases[0].shape[0]
    report = mub.unbiasedness_check(bases, tol=args.tol)
    rep.check("bases", report["bases"], n + 1, mode="eq")
    rep.check("unbiasedness", report["max_deviation"], args.tol)
    rep.save({"kind": "mubset", "version": FORMAT_VERSION, "p": args.p,
              "k": args.k, "n": n, "bases": bases}, args.out)


def cmd_mub_verify(args, rep):
    doc = load(args.file, "mubset")
    devs = mub.family_deviations(doc["bases"])
    rep.check("orthonormality", np.max(devs["orthonormality"]), args.tol)
    rep.check("unbiasedness", devs["max_deviation"], args.tol)


def cmd_mub_mermin(args, rep):
    land = mub.mermin_landscape()
    counts = [len([p for p in fl if p <= 6]) for fl in land["flowers"]]
    rep.check("petals", len(land["petals"]), 15, mode="eq")
    rep.check("flowers", len(land["flowers"]), 6, mode="eq")
    rep.check("mermin_petals_min", min(counts), 2, mode="eq")
    rep.check("mermin_petals_max", max(counts), 2, mode="eq")
    rep.check("stabilizer_states", len(land["stabilizer_states"]),
              mub.stabilizer_count(2, 2), mode="eq")
    return ["flower %d: petals %s" % (i + 1, " ".join(map(str, fl)))
            for i, fl in enumerate(land["flowers"])]


def cmd_mub_search6(args, rep):
    out = mub.search_unbiased6(restarts=args.restarts, seed=args.seed,
                               tol=args.tol)
    rep.check("vectors_found", out["count"], 1, mode="ge")
    rep.check("min_value", out["min_value"], args.tol)
    rep.result = {"count": out["count"], "vectors": out["vectors"]}
    rep.stats = out["stats"]


# -- wigner -------------------------------------------------------------------

def cmd_wigner_table(args, rep):
    psi = _decode(_read_json(args.state), 1)
    if psi.size != args.n:
        raise ValueError("state dimension %d does not match --n %d"
                         % (psi.size, args.n))
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-8:
        raise ValueError("state is not a unit vector")
    pps = wigner.phase_point_set(args.n)
    rho = np.outer(psi, psi.conj())
    table = wigner.wigner_function(rho, pps)
    rep.check("total", abs(float(table.sum()) - 1.0), args.tol)
    rep.check("roundtrip", float(np.max(np.abs(
        wigner.reconstruct_state(table, pps) - rho))), args.tol)
    if args.out and not args.out.endswith(".json"):
        with open(args.out, "w", encoding="utf-8") as fh:
            for row in table:
                fh.write(",".join("%.17g" % x for x in row) + "\n")
        rep.artifacts.append(args.out)
    else:
        rep.save({"kind": "wignertable", "version": FORMAT_VERSION,
                  "n": args.n, "state": psi, "wigner": table}, args.out)
    rep.result = {"wigner": table}
    return ["  ".join("%+.6f" % x for x in row) for row in table]


def cmd_wigner_check(args, rep):
    n = args.n
    pps = wigner.phase_point_set(n)
    parity = pps[0, 0]
    four = combinat.fourier_matrix(n)
    rep.check("parity_square",
              float(np.max(np.abs(parity @ parity - np.eye(n)))), args.tol)
    rep.check("fourier_square",
              float(np.max(np.abs(four @ four - parity))), args.tol)
    flat = pps.reshape(n * n, n * n)
    gram = flat @ pps.transpose(0, 1, 3, 2).reshape(n * n, n * n).T / n
    rep.check("orthogonality", float(np.max(np.abs(gram - np.eye(n * n)))),
              args.tol)
    rng = np.random.default_rng(args.seed)
    rho = wigner.random_density(rng, n)
    wtab = wigner.wigner_function(rho, pps)
    rep.check("roundtrip", float(np.max(np.abs(
        wigner.reconstruct_state(wtab, pps) - rho))), args.tol)
    line_map = wigner.mub_line_map(pps)
    rep.check("line_map", np.max([e["max_residual"] for e in line_map]),
              args.tol)
    gs = clifford.sl2_enumerate(n)
    if n > 3:
        gs = [gs[i] for i in rng.choice(len(gs), size=50, replace=False)]
    rep.check("covariance",
              np.max([wigner.clifford_covariance_check(pps, g) for g in gs]),
              args.tol)


# -- clifford ------------------------------------------------------------------

def cmd_clifford_check(args, rep):
    p = args.p
    group = clifford.sl2_enumerate(p)
    rep.check("sl2_order", len(group), p * (p * p - 1), mode="eq")
    sample = group
    if p > 3:
        rng = np.random.default_rng(args.seed)
        sample = [group[i]
                  for i in rng.choice(len(group), size=100, replace=False)]
    rep.check("normalizer",
              np.max([clifford.normalizer_residual(g, p) for g in sample]),
              args.tol)
    parity_dev = float(np.max(np.abs(
        clifford.metaplectic(-np.eye(2, dtype=int), p)
        - wigner.parity_operator(p))))
    rep.check("parity", parity_dev, args.tol)


def cmd_clifford_zauner(args, rep):
    doc = _read_json(args.fiducial)
    psi = (_decode(doc, 1) if isinstance(doc, list)
           else _checked(doc, ("sic",))["fiducial"])
    scan = clifford.zauner_scan(psi, args.p)
    rep.check("zauner_residual", scan["residual"], args.tol)
    rep.result = {"g": scan["g"], "b": scan["b"]}


# -- designs -------------------------------------------------------------------

def cmd_design_test(args, rep):
    vectors = _load_family(args.family)
    out = designs.design_test(vectors, args.t, tol=args.tol)
    rep.check("moment_deviation", abs(out["value"] - out["target"]), args.tol)
    rep.result = {"value": out["value"], "target": out["target"],
                  "isDesign": out["isDesign"]}


def cmd_design_welch(args, rep):
    vectors = _load_family(args.family)
    out = designs.welch_bound(vectors, args.t)
    rep.check("welch_slack", out["slack"], args.tol)
    rep.result = out


# -- sic -----------------------------------------------------------------------

def cmd_sic_search(args, rep):
    out = sic.sic_search(args.n, restarts=args.restarts, seed=args.seed,
                         zauner=args.zauner)
    rep.check("fsic", out["fsic"], args.tol)
    rep.save({"kind": "sic", "version": FORMAT_VERSION, "n": out["n"],
              "fsic": out["fsic"], "fiducial": out["fiducial"],
              "seed": out["seed"], "restarts": out["restarts"],
              "restart": out["restart"]}, args.out)
    rep.result = {"fsic": out["fsic"], "restart": out["restart"],
                  "fiducial": out["fiducial"]}
    rep.stats = out["stats"]


def cmd_sic_verify(args, rep):
    doc = load(args.file, "sic")
    if type(doc.get("n")) is not int or type(doc.get("fsic", .0)) is not float:
        raise ValueError("sic 'n' must be an integer and 'fsic' a float")
    out = sic.sic_verify(doc, tol_gram=args.tol)
    rep.check("identity_deviation", out["identityDeviation"], TOL_MATRIX)
    rep.check("gram_deviation", out["gramDeviation"], args.tol)


def cmd_sic_fingerprint(args, rep):
    if args.file:
        psi = load(args.file, "sic")["fiducial"]
    else:
        psi = sic.dim4_fiducial()
    phases = sic.overlap_phases(sic.make_candidate(psi))
    out = sic.u_fingerprint(phases)
    rep.check("u_deviation", out["uDeviation"], 1e-10)
    rep.check("minpoly_residual", out["minpolyResidual"], args.tol)
    rep.check("unit_residual", out["unitResidual"], args.tol)
    rep.result = {"u": out["u"]}


# -- suite ---------------------------------------------------------------------

def cmd_suite(args, rep):
    n = args.n
    rep.check("weyl_orthogonality", weyl.orthogonality_max_residual(n),
              TOL_MATRIX)
    rep.check("weyl_group_law", weyl.group_law_max_residual(n), TOL_MATRIX)
    prime = gf.is_prime(n)
    if prime:
        bases = mub.qubit_mubs() if n == 2 else mub.ivanovic_mubs(n)
        rep.check("mub_unbiasedness",
                  mub.unbiasedness_check(bases)["max_deviation"], TOL_OVERLAP)
        family = np.hstack(bases).T
        for t in (1, 2):
            out = designs.design_test(family, t)
            rep.check("design_t%d" % t, abs(out["value"] - out["target"]),
                      TOL_OVERLAP)
        if n == 2:
            out = designs.design_test(family, 3)
            rep.check("design_t3", abs(out["value"] - out["target"]),
                      TOL_OVERLAP)
    if prime and n % 2 and n <= 31:
        pps = wigner.phase_point_set(n)
        parity = pps[0, 0]
        rep.check("wigner_parity_square",
                  float(np.max(np.abs(parity @ parity - np.eye(n)))),
                  TOL_MATRIX)
        rho = wigner.random_density(np.random.default_rng(args.seed), n)
        wtab = wigner.wigner_function(rho, pps)
        rep.check("wigner_roundtrip", float(np.max(np.abs(
            wigner.reconstruct_state(wtab, pps) - rho))), TOL_MATRIX)
    if n <= 6:
        vecs = combinat.werner_basis(combinat.latin_from_group(n),
                                     combinat.fourier_matrix(n))
        rep.check("werner_gram", float(np.max(np.abs(
            vecs @ vecs.conj().T - np.eye(n * n)))), TOL_MATRIX)


# -- parser --------------------------------------------------------------------

def _add_common(sub, tol=None, seed=None, restarts=None, out=False):
    sub.add_argument("--json", action="store_true",
                     help="emit the run report as JSON")
    if tol is not None:
        sub.add_argument("--tol", type=float, default=tol,
                         help="check threshold (default %g)" % tol)
    if seed is not None:
        sub.add_argument("--seed", type=int, default=seed,
                         help="random seed (default %d)" % seed)
    if restarts is not None:
        sub.add_argument("--restarts", type=int, default=restarts)
        sub.add_argument("--threads", type=int, default=1,
                         help="ignored: restarts run serially")
    if out:
        sub.add_argument("--out", help="write the generated artifact here")


@functools.lru_cache(maxsize=None)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="finhilb",
        description="discrete structures in finite-dimensional Hilbert "
                    "spaces: generation, verification, search")
    groups = parser.add_subparsers(dest="group", required=True)

    g = groups.add_parser("field", help="finite-field tables")
    sub = g.add_subparsers(dest="op", required=True)
    s = sub.add_parser("table", help="element/trace/order table of GF(p^k)")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--k", type=int, default=1)
    _add_common(s, out=True)
    s.set_defaults(func=cmd_field_table)

    g = groups.add_parser("weyl", help="displacement operator basis")
    sub = g.add_subparsers(dest="op", required=True)
    s = sub.add_parser("check", help="orthogonality and group-law residuals")
    s.add_argument("--n", type=int, required=True)
    _add_common(s, tol=TOL_MATRIX)
    s.set_defaults(func=cmd_weyl_check)
    s = sub.add_parser("expand", help="displacement coefficients of a matrix")
    s.add_argument("--matrix", required=True,
                   help="JSON file: row-major matrix of [re, im] pairs")
    _add_common(s, tol=TOL_MATRIX)
    s.set_defaults(func=cmd_weyl_expand)

    g = groups.add_parser("latin", help="Latin squares")
    sub = g.add_subparsers(dest="op", required=True)
    s = sub.add_parser("gen", help="cyclic-group Latin square")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--count", action="store_true",
                   help="also count reduced squares (n <= 5)")
    _add_common(s)
    s.set_defaults(func=cmd_latin_gen)

    g = groups.add_parser("hadamard", help="complex Hadamard matrices")
    sub = g.add_subparsers(dest="op", required=True)
    s = sub.add_parser("fourier", help="Fourier matrix of order n")
    s.add_argument("--n", type=int, required=True)
    _add_common(s, out=True)
    s.set_defaults(func=cmd_hadamard_fourier)

    s = groups.add_parser("werner",
                          help="maximally entangled basis from (L, H)")
    s.add_argument("--n", type=int, required=True)
    _add_common(s, tol=TOL_MATRIX, out=True)
    s.set_defaults(func=cmd_werner)

    g = groups.add_parser("mub", help="mutually unbiased bases")
    sub = g.add_subparsers(dest="op", required=True)
    s = sub.add_parser("gen", help="complete MUB set in dimension p^k")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--seed", type=int, default=7,
                   help="ignored: every construction is deterministic")
    _add_common(s, tol=TOL_OVERLAP, out=True)
    s.set_defaults(func=cmd_mub_gen)
    s = sub.add_parser("verify", help="orthonormality and unbiasedness")
    s.add_argument("file")
    _add_common(s, tol=TOL_OVERLAP)
    s.set_defaults(func=cmd_mub_verify)
    s = sub.add_parser("mermin", help="petal/flower landscape of two qubits")
    _add_common(s)
    s.set_defaults(func=cmd_mub_mermin)
    s = sub.add_parser("search6", help="vectors unbiased to I and F in d=6")
    _add_common(s, tol=1e-18, seed=0, restarts=24)
    s.set_defaults(func=cmd_mub_search6)

    g = groups.add_parser("wigner", help="discrete Wigner functions")
    sub = g.add_subparsers(dest="op", required=True)
    s = sub.add_parser("table", help="Wigner table of a pure state")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--state", required=True,
                   help="JSON file: vector of [re, im] pairs")
    _add_common(s, tol=TOL_MATRIX, out=True)
    s.set_defaults(func=cmd_wigner_table)
    s = sub.add_parser("check", help="phase-point invariant suite")
    s.add_argument("--n", type=int, required=True)
    _add_common(s, tol=TOL_MATRIX, seed=0)
    s.set_defaults(func=cmd_wigner_check)

    g = groups.add_parser("clifford", help="symplectic representation")
    sub = g.add_subparsers(dest="op", required=True)
    s = sub.add_parser("check", help="group order and normalizer residuals")
    s.add_argument("--p", type=int, required=True)
    _add_common(s, tol=TOL_MATRIX, seed=0)
    s.set_defaults(func=cmd_clifford_check)
    s = sub.add_parser("zauner", help="order-3 invariance scan of a fiducial")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--fiducial", required=True,
                   help="sic JSON document or raw vector of [re, im] pairs")
    _add_common(s, tol=1e-6)
    s.set_defaults(func=cmd_clifford_zauner)

    g = groups.add_parser("design", help="projective t-designs")
    sub = g.add_subparsers(dest="op", required=True)
    s = sub.add_parser("test", help="moment test for a vector family")
    s.add_argument("--family", required=True,
                   help="basisfamily, mubset, or sic JSON document")
    s.add_argument("--t", type=int, required=True)
    _add_common(s, tol=TOL_OVERLAP)
    s.set_defaults(func=cmd_design_test)
    s = sub.add_parser("welch", help="Welch bound saturation")
    s.add_argument("--family", required=True)
    s.add_argument("--t", type=int, required=True)
    _add_common(s, tol=TOL_OVERLAP)
    s.set_defaults(func=cmd_design_welch)

    g = groups.add_parser("sic", help="SIC fiducials")
    sub = g.add_subparsers(dest="op", required=True)
    s = sub.add_parser("search", help="seeded random-restart fiducial search")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--zauner", action="store_true",
                   help="project starts onto an order-3 eigenspace")
    _add_common(s, tol=TOL_SEARCH, seed=0, restarts=32, out=True)
    s.set_defaults(func=cmd_sic_search)
    s = sub.add_parser("verify", help="orbit resolution and Gram moduli")
    s.add_argument("file")
    _add_common(s, tol=TOL_SIC_GRAM)
    s.set_defaults(func=cmd_sic_verify)
    s = sub.add_parser("fingerprint",
                       help="overlap-phase fingerprint (n = 4)")
    s.add_argument("file", nargs="?", default=None,
                   help="sic JSON document (default: the exact fiducial)")
    _add_common(s, tol=TOL_SIC_GRAM)
    s.set_defaults(func=cmd_sic_fingerprint)

    s = groups.add_parser("suite", help="cross-module invariant suite")
    s.add_argument("--n", type=int, required=True)
    _add_common(s, seed=0)
    s.set_defaults(func=cmd_suite)

    return parser


# Parsed options a report leaves out of its parameters: output switches, the
# ignored --threads, the seed (recorded on its own) and argparse's routing.
_NOT_PARAMETERS = ("json", "out", "threads", "seed", "func", "group", "op")


def dispatch(argv) -> int:
    """Run one command line: the command fills a report read off the parse
    (subcommand path, seed, every other option as a parameter) and returns
    its text lines; the report is emitted and scored 0 if every check
    passed, else 1.  Errors exit 2 (usage, validation), 3 (I/O) or 1."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    opts = vars(args)
    rep = Report(" ".join(opts[k] for k in ("group", "op") if k in opts),
                 {k: v for k, v in opts.items() if k not in _NOT_PARAMETERS},
                 seed=opts.get("seed"))
    try:
        if opts.get("threads", 0) < 0:
            raise ValueError("--threads must not be negative")
        rep.emit(args.json, args.func(args, rep))
        return 0 if rep.passed else 1
    except json.JSONDecodeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main(argv=None):
    sys.exit(dispatch(sys.argv[1:] if argv is None else argv))
