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
