"""Checks on the package source itself."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import finhilb

SOURCES = sorted(Path(finhilb.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so an invariant written as one
    # is not checked there; raise an exception instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, "%s: assert statement at line(s) %s" % (path.name, lines)


def _unseeded_rng_lines(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == "default_rng"
            and not node.args and not node.keywords]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unseeded_default_rng(path):
    # every random draw comes from a seeded generator, so a run is
    # reproducible from its recorded seed
    lines = _unseeded_rng_lines(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, "%s: default_rng() without a seed at line(s) %s" % (
        path.name, lines)


def test_unseeded_rng_lint_catches_both_spellings():
    tree = ast.parse("import numpy as np\n"
                     "from numpy.random import default_rng\n"
                     "a = np.random.default_rng()\n"
                     "b = default_rng()\n"
                     "c = np.random.default_rng(3)\n"
                     "d = default_rng(seed=[1, 2])\n")
    assert _unseeded_rng_lines(tree) == [3, 4]


_CONCURRENCY = ("concurrent", "threading", "multiprocessing")


def _env_or_thread_lines(tree):
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = node.attr in ("environ", "getenv") \
                and getattr(node.value, "id", None) == "os"
        elif isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] in _CONCURRENCY
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[0]
            hit = module in _CONCURRENCY or module == "os" and any(
                alias.name in ("environ", "getenv") for alias in node.names)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_environment_reads_or_thread_modules(path):
    # a run is set by its command line alone and runs in one thread, so
    # the library reads no environment variable and starts no worker
    lines = _env_or_thread_lines(ast.parse(path.read_text(),
                                           filename=str(path)))
    assert not lines, "%s: environment read or concurrency import at " \
        "line(s) %s" % (path.name, lines)


def test_env_and_thread_lint_catches_each_form():
    tree = ast.parse("import os\n"
                     "a = os.environ['X']\n"
                     "b = os.getenv('X')\n"
                     "from os import environ\n"
                     "import concurrent.futures\n"
                     "from concurrent.futures import ThreadPoolExecutor\n"
                     "import threading\n"
                     "from multiprocessing import Pool\n"
                     "c = os.path.join('a', 'b')\n"
                     "from . import sic\n"
                     "import numpy.random\n")
    assert _env_or_thread_lines(tree) == [2, 3, 4, 5, 6, 7, 8]


# Declared module layers: a module may import, from inside the package, only
# modules earlier in this order, so no import cycle can form (sic reads no
# clifford: its Zauner unitary is weyl.metaplectic).
LAYERS = ("tol", "gf", "weyl", "combinat", "designs", "sic", "clifford",
          "mub", "wigner", "cli", "__main__")


def _layer_violations(name, tree):
    """(line, imported module) for each intra-package import of module name
    that does not name an earlier layer."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        # ".mub" and "finhilb.mub" name mub; "." and "finhilb" the aliases
        package, _, module = ("." * node.level + (node.module or "")) \
            .replace("finhilb", "", 1).partition(".")
        if package:
            continue
        targets = [module] if module else [a.name for a in node.names]
        out.extend((node.lineno, target) for target in targets
                   if target not in LAYERS[:LAYERS.index(name)])
    return out


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_imports_follow_declared_layers(path):
    assert path.stem in LAYERS, "%s has no declared layer" % path.name
    bad = _layer_violations(path.stem, ast.parse(path.read_text(),
                                                 filename=str(path)))
    assert not bad, "%s imports a later layer: %s" % (path.name, bad)


def test_layer_lint_catches_back_edges():
    tree = ast.parse("from . import clifford, gf, weyl\n"
                     "from .tol import TOL_MATRIX\n"
                     "from .mub import canonicalize_basis\n"
                     "import numpy as np\n"
                     "from numpy.linalg import norm\n"
                     "from finhilb import cli\n"
                     "from finhilb.wigner import phase_point_set\n")
    assert _layer_violations("sic", tree) == [(1, "clifford"), (3, "mub"),
                                              (6, "cli"), (7, "wigner")]
    assert _layer_violations("tol", ast.parse("from . import gf\n")) \
        == [(1, "gf")]


def _defined_functions(tree, name):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name]


def test_one_metaplectic_in_the_package():
    # every dimension's Clifford unitary comes from one formula, in weyl
    found = {path.stem: _defined_functions(ast.parse(path.read_text()),
                                           "metaplectic")
             for path in SOURCES}
    assert {stem: lines for stem, lines in found.items() if lines} \
        == {"weyl": found["weyl"]} and len(found["weyl"]) == 1


def _names(tree, name):
    """Lines that name `name`: as a variable, an attribute or an import."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == name
                  or isinstance(node, ast.Attribute) and node.attr == name
                  or isinstance(node, (ast.Import, ast.ImportFrom))
                  and any(a.name.split(".")[-1] == name for a in node.names))


@pytest.mark.parametrize("stem", ["clifford", "sic"])
def test_no_dense_displacement_table(stem):
    # both read the monomial form; the dense N^4 table stays in weyl
    path = Path(finhilb.__file__).parent / ("%s.py" % stem)
    lines = _names(ast.parse(path.read_text()), "displacement_table")
    assert not lines, "%s names displacement_table at line(s) %s" % (
        path.name, lines)


def test_name_lint_catches_each_form():
    tree = ast.parse("from .weyl import displacement_table\n"
                     "a = weyl.displacement_table(3)\n"
                     "b = displacement_table\n"
                     "c = weyl._table_form(3)\n"
                     "def metaplectic(g, n):\n"
                     "    return g\n")
    assert _names(tree, "displacement_table") == [1, 2, 3]
    assert _defined_functions(tree, "metaplectic") == [5]


_DEVIATION_CALLS = ("abs", "max", "eye")


def _cmd_deviation_lines(tree):
    """Lines where a cmd_* function computes a deviation itself: a call of
    an attribute named abs, max or eye (np.abs, np.max, np.eye, x.max())
    or a matrix product."""
    out = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("cmd_")):
            continue
        out.extend(node.lineno for node in ast.walk(fn)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr in _DEVIATION_CALLS
                   or isinstance(node, (ast.BinOp, ast.AugAssign))
                   and isinstance(node.op, ast.MatMult))
    return sorted(out)


def test_cli_commands_compute_no_deviation():
    # the library computes each invariant; a command records its dict
    path = Path(finhilb.__file__).parent / "cli.py"
    lines = _cmd_deviation_lines(ast.parse(path.read_text()))
    assert not lines, "cli.py: a cmd_* computes a deviation at line(s) %s" \
        % lines


def test_cmd_deviation_lint_catches_each_form():
    tree = ast.parse("def cmd_a(args, rep):\n"
                     "    d = np.max(np.abs(x - np.eye(3)))\n"
                     "    e = x @ y\n"
                     "    x @= y\n"
                     "    f = x.max()\n"
                     "    ok = abs(norm - 1.0) <= 1e-8\n"
                     "    g = max(counts)\n"
                     "def helper(x):\n"
                     "    return np.abs(x @ x).max()\n")
    assert _cmd_deviation_lines(tree) == [2, 2, 2, 3, 4, 5]


def _calls_outside(tree, name):
    """(enclosing function or "<module>", line) of each call of `name`, by
    name or as an attribute, outside the body of a function named `name`."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name != name:
                    visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) \
                    == name:
                out.append((where, child.lineno))
            visit(child, where)

    visit(tree, "<module>")
    return sorted(out, key=lambda hit: hit[1])


def test_one_complete_set_constructor():
    # every complete MUB set comes from subgroup_eigenbases; the builder's
    # only other caller is the two-qubit petal landscape
    found = {path.stem: _calls_outside(ast.parse(path.read_text()),
                                       "_stabilizer_basis")
             for path in SOURCES}
    assert [(stem, fn) for stem, hits in found.items()
            for fn, _ in hits] == [("mub", "subgroup_eigenbases"),
                                   ("mub", "mermin_landscape")]
    mubs = [(path.stem, node.name) for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.endswith("_mubs")]
    assert not mubs, "functions named *_mubs: %s" % mubs


def test_call_site_lint_catches_each_form():
    tree = ast.parse("def build(rows):\n"
                     "    if len(rows) > 2:\n"
                     "        return build(rows[:2])\n"
                     "    return rows\n"
                     "def a():\n"
                     "    return mub.build([1])\n"
                     "def b():\n"
                     "    def inner():\n"
                     "        return build([2])\n"
                     "    return inner() + build([3])\n"
                     "x = build([4])\n")
    assert _calls_outside(tree, "build") == [("a", 6), ("inner", 9),
                                             ("b", 10), ("<module>", 11)]


def _dense_table_sites(trees):
    """(module, function) of each call of _dense_form, and each decorator
    of a function named displacement_table, as source."""
    calls = [(stem, fn) for stem, tree in trees.items()
             for fn, _ in _calls_outside(tree, "_dense_form")]
    decorators = [ast.unparse(d) for tree in trees.values()
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name == "displacement_table"
                  for d in node.decorator_list]
    return calls, decorators


def test_one_cached_displacement_basis():
    # _table_form is the one cached Z_N basis: the dense table is written
    # out on each call, and only matrices built from no form (the Pauli
    # words of the Mermin landscape) are read back into one
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    assert _dense_table_sites(trees) == ([("mub", "mermin_landscape")], [])


def test_dense_table_lint_catches_each_form():
    trees = {"weyl": ast.parse("@functools.lru_cache(maxsize=16)\n"
                               "def displacement_table(n):\n"
                               "    return _densify(*_table_form(n))\n"
                               "def group_law_max_residual(n):\n"
                               "    return _dense_form(table(n))\n"
                               "def _dense_form(mats):\n"
                               "    return _dense_form(mats[:1])\n"),
             "mub": ast.parse("def mermin_landscape():\n"
                              "    return weyl._dense_form(words)\n"),
             "wigner": ast.parse("@cache\n"
                                 "def displacement_table(n):\n"
                                 "    return weyl._dense_form(t)[0]\n")}
    assert _dense_table_sites(trees) == (
        [("weyl", "group_law_max_residual"), ("mub", "mermin_landscape"),
         ("wigner", "displacement_table")],
        ["functools.lru_cache(maxsize=16)", "cache"])


def _matrix_products(tree):
    """(enclosing top-level function or "<module>", line) of each matrix
    product: an @ or @=, or a call of matmul or dot by name or attribute."""
    out = []
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)) \
            else "<module>"
        out.extend((where, node.lineno) for node in ast.walk(top)
                   if isinstance(node, (ast.BinOp, ast.AugAssign))
                   and isinstance(node.op, ast.MatMult)
                   or isinstance(node, ast.Call) and getattr(
                       node.func, "id", getattr(node.func, "attr", None))
                   in ("matmul", "dot"))
    return sorted(out, key=lambda hit: hit[1])


def test_designs_forms_a_gram_only_in_the_blocked_pass():
    # one blocked pass reads the Gram for every moment; no K x K Gram is
    # formed beside it
    path = Path(finhilb.__file__).parent / "designs.py"
    found = _matrix_products(ast.parse(path.read_text()))
    assert found and {fn for fn, _ in found} <= {"_moments",
                                                 "frame_operator"}, found


def test_matrix_product_lint_catches_each_form():
    tree = ast.parse("import numpy as np\n"
                     "from numpy import matmul\n"
                     "g = a @ b\n"
                     "def f(v):\n"
                     "    v @= v\n"
                     "    return np.dot(v, v) + matmul(v, v)\n"
                     "def h(v):\n"
                     "    return v.dot(v), np.vdot(v, v), np.kron(v, v)\n")
    assert _matrix_products(tree) == [("<module>", 3), ("f", 5), ("f", 6),
                                      ("f", 6), ("h", 8)]


_OPTIMIZER = ("descend", "polish", "optimize", "multistart")


def _enclosing(tree, line):
    """The innermost function whose source spans `line`, or "<module>"."""
    spans = [(node.lineno, node.name) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.lineno <= line <= node.end_lineno]
    return max(spans)[1] if spans else "<module>"


# numpy's private least-squares gufunc, and the wrapper and error callback
# it needed; the Gauss-Newton step goes through public numpy
_PRIVATE_SOLVER = ("_umath_linalg", "_lstsq", "_lstsq_error")


def _private_solver_lines(tree):
    """Lines that name or define a _PRIVATE_SOLVER name, or call errstate
    with a `call` handler."""
    lines = {line for name in _PRIVATE_SOLVER
             for line in _names(tree, name) + _defined_functions(tree, name)}
    lines.update(node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and getattr(
                     node.func, "attr", getattr(node.func, "id", None))
                 == "errstate" and any(k.arg == "call"
                                       for k in node.keywords))
    return sorted(lines)


def _optimizer_sites(trees):
    """Where each optimizer function is defined, which modules name a
    linear or least-squares solver, every call of an optimizer function
    from outside sic, and the (module, function) of each private-solver
    line."""
    defined = {name: [(stem, line) for stem, tree in trees.items()
                      for line in _defined_functions(tree, name)]
               for name in _OPTIMIZER}
    solvers = [stem for stem, tree in trees.items()
               if _names(tree, "solve") or _names(tree, "lstsq")]
    calls = [(stem, fn, name) for stem, tree in trees.items() if stem != "sic"
             for name in _OPTIMIZER for fn, _ in _calls_outside(tree, name)]
    private = [(stem, _enclosing(tree, line)) for stem, tree in trees.items()
               for line in _private_solver_lines(tree)]
    return defined, solvers, calls, private


def test_one_sphere_optimizer():
    # one lockstep descend and polish, in sic; search6 reaches them only
    # through multistart, only sic solves the Gauss-Newton system, and
    # nothing reaches numpy's private gufuncs or an error callback
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    defined, solvers, calls, private = _optimizer_sites(trees)
    assert all([stem for stem, _ in sites] == ["sic"]
               for sites in defined.values()), defined
    assert solvers == ["sic"]
    assert calls == [("mub", "search_unbiased6", "multistart")]
    assert private == []


def test_optimizer_lint_catches_each_form():
    trees = {"sic": ast.parse("def descend(psi):\n"
                              "    return np.linalg.solve(psi, psi)\n"
                              "def _lstsq(a):\n"
                              "    return np.linalg._umath_linalg.lstsq(\n"
                              "        a)\n"),
             "mub": ast.parse("from numpy.linalg import lstsq\n"
                              "def polish(psi):\n"
                              "    def descend(x):\n"
                              "        return x._umath_linalg\n"
                              "    return sic.optimize(psi)\n"
                              "def search_unbiased6():\n"
                              "    return sic.multistart(6) + descend(1)\n"),
             "weyl": ast.parse("x = linalg.solve\n"
                               "y = multistart(2)\n"
                               "from numpy.linalg import _umath_linalg\n"
                               "with np.errstate(call=_lstsq_error):\n"
                               "    z = errstate(invalid='ignore')\n"),
             "gf": ast.parse("from numpy.linalg import solve\n")}
    defined, solvers, calls, private = _optimizer_sites(trees)
    assert defined["descend"] == [("sic", 1), ("mub", 3)]
    assert defined["polish"] == [("mub", 2)]
    assert solvers == ["sic", "mub", "weyl", "gf"]
    assert calls == [("mub", "search_unbiased6", "descend"),
                     ("mub", "polish", "optimize"),
                     ("mub", "search_unbiased6", "multistart"),
                     ("weyl", "<module>", "multistart")]
    assert private == [("sic", "_lstsq"), ("sic", "_lstsq"),
                       ("mub", "descend"), ("weyl", "<module>"),
                       ("weyl", "<module>")]


README = Path(__file__).resolve().parents[1] / "README.md"
_MODULES = {stem: importlib.import_module("finhilb." + stem)
            for stem in LAYERS if stem != "__main__"}
# builtins, numpy and json, and the sphere optimizer's objective callables,
# which the README names as arguments rather than as package functions
# (`probe(psi) -> (f, state)` is a signature, not an expression, and is
# not read)
_README_ALLOWED = ("len", "max", "tolist", "json.dumps", "np.*", "numpy.*",
                   "grad", "jacobian")
# bare snake_case names the README gives that are not package names: report
# check names (with the dropped parity_square, fourier_square and
# wigner_parity_square), report keys, stats keys and descend's stop reasons
_README_KEYS = (
    "design_t1", "design_t2", "design_t3", "fourier_square", "gram_deviation",
    "gram_identity", "group_law", "line_map", "moment_deviation",
    "mub_unbiasedness", "parity_square", "reduced_states", "relative_slack",
    "welch_slack", "werner_gram", "weyl_group_law", "weyl_orthogonality",
    "wigner_parity_square", "wigner_roundtrip", "final_values", "grad_calls",
    "polish_steps", "value_calls", "line_search", "no_decrease")


class _References(ast.NodeVisitor):
    """Dotted names, and calls of lowercase bare names, in an expression."""

    def __init__(self):
        self.found = []

    def visit_Attribute(self, node):
        name = ast.unparse(node)
        if re.fullmatch(r"[\w.]+", name):
            self.found.append(name)
        else:
            self.generic_visit(node)

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id[0].islower():
            self.found.append(node.func.id)
        self.generic_visit(node)


def _readme_references(text):
    """The names of _References in each inline code span of `text` that
    reads as a Python expression, and each span that is one bare snake_case
    name; fenced blocks, file paths and formulas such as
    `tau = -exp(i pi / N)` are not code references."""
    refs = _References()
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text,
                                                flags=re.S)):
        if span.endswith(".py"):
            continue
        try:
            tree = ast.parse(span.replace("\n", " "), mode="eval")
        except SyntaxError:
            continue
        if isinstance(tree.body, ast.Name) and "_" in span and span.islower():
            refs.found.append(span)
        refs.visit(tree)
    return refs.found


def _resolves(name):
    """Whether `name` is an attribute of a finhilb module, directly
    (`sl2_order`) or through one (`mub.directions`, `cli.Report.record`)."""
    parts = name.split(".")
    if parts[0] == "finhilb":
        parts = parts[1:]
    roots = [_MODULES[parts[0]]] if parts[0] in _MODULES else \
        [getattr(m, parts[0]) for m in _MODULES.values()
         if hasattr(m, parts[0])]
    for obj in roots:
        for part in parts[1:]:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def _allowed(name):
    return name in _README_KEYS or any(
        name == a or a.endswith(".*") and name.startswith(a[:-1])
        for a in _README_ALLOWED)


def test_readme_names_resolve():
    # every function the README names by a call, a dotted name or a bare
    # snake_case name exists, so a deleted or renamed function cannot
    # linger in the docs
    stale = sorted({name for name in _readme_references(README.read_text())
                    if not _allowed(name) and not _resolves(name)})
    assert not stale, "README names missing from finhilb: %s" % stale


def test_readme_name_lint_catches_each_form():
    text = ("`weyl.stale_kernel` and `stale_clock(spec, u)`, "
            "`finhilb.gone`, `cli.Report.nothing`, `mub.directions(q)[l]`,\n"
            "`gf.mul(spec,\nnp.arange(q))`, `tau = -exp(i pi / N)`, "
            "`Tr(A) / N`, `D[G(r, s)]`, `tests/test_weyl.py`, `len(x)`\n"
            "`field_displacement`, `sic_search`, `_gathers`, `no_decrease`, "
            "`kind`, `TOL_MATRIX`\n"
            "```\nprint(weyl.gone(3))\n```\n")
    assert _readme_references(text) == [
        "weyl.stale_kernel", "stale_clock", "finhilb.gone",
        "cli.Report.nothing", "mub.directions", "gf.mul", "np.arange", "len",
        "field_displacement", "sic_search", "_gathers", "no_decrease"]
    assert [name for name in _readme_references(text)
            if not _allowed(name) and not _resolves(name)] == [
        "weyl.stale_kernel", "stale_clock", "finhilb.gone",
        "cli.Report.nothing", "field_displacement"]
