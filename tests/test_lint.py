"""Checks on the package source itself."""

import ast
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
