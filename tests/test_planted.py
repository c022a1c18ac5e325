"""Planted defects: each row wraps one library function in a plausible
wrong construction, runs a check command in process through cli.dispatch,
and names the checks that must fail.  The command must exit 1: exit 0
means the defect survived, and exit 2 or 3 is a crash, not a catch."""

import json

import numpy as np
import pytest

from finhilb import cli, weyl


def _moved_entry(densify):
    """The entry of the last label's column 0 moved one row down."""
    def wrapped(rows, vals):
        out = densify(rows, vals)
        out[-1, :, 0] = np.roll(out[-1, :, 0], 1)
        return out
    return wrapped


def _conjugated_label(form):
    """The last label's values conjugated."""
    def wrapped(*args):
        rows, vals = form(*args)
        vals[-1] = vals[-1].conj()
        return rows, vals
    return wrapped


# argv, the patched function of weyl, its defect, the checks that fail.
# The group law reads the cached form and never the dense table, so a
# defect in writing the table out fails orthogonality alone.
ROWS = [
    (["weyl", "check", "--n", n], "_densify", _moved_entry,
     {"orthogonality"}) for n in ("5", "12")
] + [
    (["weyl", "check", "--n", n], "_form", _conjugated_label,
     {"orthogonality", "group_law"}) for n in ("5", "12")
]


@pytest.fixture
def cold_table_form():
    # the form cache would keep a defect of _form past its patch
    weyl._table_form.cache_clear()
    yield
    weyl._table_form.cache_clear()


@pytest.mark.parametrize("argv, name, defect, failed", ROWS, ids=[
    "%s%s-%s" % (argv[0], argv[-1], name) for argv, name, _, _ in ROWS])
def test_planted_defect_is_caught(argv, name, defect, failed,
                                  cold_table_form, monkeypatch, capsys):
    assert cli.dispatch(argv) == 0
    monkeypatch.setattr(weyl, name, defect(getattr(weyl, name)))
    weyl._table_form.cache_clear()
    code = cli.dispatch(argv + ["--json"])
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert {c["name"] for c in report["checks"] if not c["pass"]} == failed
