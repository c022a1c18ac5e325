"""Planted defects: each row wraps one library function in a plausible
wrong construction, runs a check command in process through cli.dispatch,
and names what catches it.  The command must exit 1: exit 0 means the
defect survived, and exit 2 or 3 is a crash, not a catch.  Defects that
no check can see are listed apart, each with its reason."""

import json

import numpy as np
import pytest

from finhilb import cli, mub, sic, weyl, wigner


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


def _transposed_g(metaplectic):
    """U_G built for G transposed, so the targets indexed by G miss it."""
    return lambda g, n: metaplectic(np.asarray(g).T, n)


def _displaced_u(metaplectic):
    """U_G D_(1,0): it maps D_p to D_{Gp} up to a phase omega**(-s), which
    a phase fitted per point would absorb."""
    return lambda g, n: metaplectic(g, n) @ weyl.displacement(n, 1, 0)


def _negated_g(metaplectic):
    """U_G built for -G: a sign slip that turns every order-3 element into
    one of trace +1."""
    return lambda g, n: metaplectic(-np.asarray(g), n)


def _negated_label(form):
    """The last label's values negated."""
    def wrapped(*args):
        rows, vals = form(*args)
        vals[-1] *= -1
        return rows, vals
    return wrapped


def _swapped_columns(stabilizer_basis):
    """Column 0 of bases 0 and 1 swapped, so neither is orthonormal."""
    def wrapped(*args):
        bases = stabilizer_basis(*args)
        bases[[0, 1], :, 0] = bases[[1, 0], :, 0]
        return bases
    return wrapped


def _negated_entry(form):
    """Entry 0 of the last label's values negated."""
    def wrapped(*args):
        rows, vals = form(*args)
        vals[-1, 0] *= -1
        return rows, vals
    return wrapped


def _swapped_points(phase_point_set):
    """A_{0,1} and A_{0,2} swapped."""
    def wrapped(n):
        pps = phase_point_set(n).copy()
        pps[0, [1, 2]] = pps[0, [2, 1]]
        return pps
    return wrapped


def _rows_for_columns(mermin_landscape):
    """The stabilizer states read from the rows of the 15 bases, not from
    their columns."""
    def wrapped():
        land = mermin_landscape()
        return dict(land, stabilizer_states=np.concatenate(
            land["eigenbases"]))
    return wrapped


def _negated_column(tensor_form):
    """Column 1 of every tensor product negated."""
    def wrapped(*args):
        rows, vals = tensor_form(*args)
        vals[:, 1] *= -1
        return rows, vals
    return wrapped


def _conjugated(tensor_form):
    """Every tensor product conjugated."""
    def wrapped(*args):
        rows, vals = tensor_form(*args)
        return rows, vals.conj()
    return wrapped


def _conjugated_phase(overlap_phases):
    """The overlap phase (0, 1), the fingerprint's u, conjugated."""
    def wrapped(cand):
        out = overlap_phases(cand)
        out["phases"][0, 1] = out["phases"][0, 1].conjugate()
        return out
    return wrapped


# argv, the patched module and function, its defect, and what catches it:
# the set of checks that fail, or the error a check raises.  The group law
# reads the cached form and never the dense table, so a defect in writing
# the table out fails orthogonality alone.
ROWS = [
    (["weyl", "check", "--n", n], weyl, "_densify", _moved_entry,
     {"orthogonality"}) for n in ("5", "12")
] + [
    (["weyl", "check", "--n", n], weyl, "_form", _conjugated_label,
     {"orthogonality", "group_law"}) for n in ("5", "12")
] + [
    (["clifford", "check", "--p", n], weyl, "metaplectic", _transposed_g,
     {"normalizer"}) for n in ("5", "7", "11")
] + [
    (["wigner", "check", "--n", n], weyl, "metaplectic", _transposed_g,
     {"covariance"}) for n in ("5", "11")
] + [
    # line_map raises on the first line whose average misses its projector:
    # A_{4,4} conjugated is A_{4,1}, so phase_point_set's checks still pass
    (["wigner", "check", "--n", "5"], wigner, "_phase_point_form",
     _conjugated_label, "misses its MUB projector"),
    (["wigner", "check", "--n", "5"], wigner, "phase_point_set",
     _swapped_points, "misses its MUB projector"),
    # a library-built set that is not orthonormal is a construction fault
    (["mub", "gen", "--p", "2", "--k", "2"], mub, "_stabilizer_basis",
     _swapped_columns, "basis 0 is not orthonormal"),
    (["mub", "mermin"], weyl, "_tensor_form", _negated_column,
     "no joint eigenbasis (residual 2)"),
    (["mub", "mermin"], mub, "mermin_landscape", _rows_for_columns,
     {"stabilizer_overlaps"}),
    (["sic", "fingerprint"], sic, "overlap_phases", _conjugated_phase,
     {"u_deviation"}),
    (["suite", "--n", "9"], weyl, "_field_form", _conjugated_label,
     {"field_group_law", "tensor_isomorphism"}),
    (["suite", "--n", "16"], weyl, "_field_form", _negated_entry,
     {"field_group_law", "tensor_isomorphism"}),
    # at p = 2 a field displacement's entries are all real or all
    # imaginary, so conjugating the last label of GF(16) negates it; that
    # of GF(32) is real, so n = 32 would plant no defect
    (["suite", "--n", "16"], weyl, "_field_form", _conjugated_label,
     {"field_group_law", "tensor_isomorphism"}),
] + [
    # the exact p = 2 laws fit no sign that would forgive a negation
    (["suite", "--n", n], weyl, "_field_form", _negated_label,
     {"field_group_law", "tensor_isomorphism"}) for n in ("4", "8")
] + [
    (["suite", "--n", n], weyl, "_tensor_form", _negated_column,
     {"tensor_isomorphism"}) for n in ("9", "16")
] + [
    # U_{-I} D_(1,0) is not the parity either
    (["clifford", "check", "--p", n], weyl, "metaplectic", _displaced_u,
     {"normalizer", "parity"}) for n in ("3", "4", "5", "7")
] + [
    (["clifford", "zauner", "--fiducial", "fid%s.json" % n], weyl,
     "metaplectic", _negated_g, {"zauner_residual", "normalizer"})
    for n in ("4", "5")
] + [
    # the scan's order-3 elements are closed under transposition, so it
    # still finds the fiducial's symmetry; U_G of the G it reports does not
    # conjugate the displacements as G does
    (["clifford", "zauner", "--fiducial", "fid%s.json" % n], weyl,
     "metaplectic", _transposed_g, {"normalizer"}) for n in ("4", "5")
]

# argv, the patched module and function, its defect, and why it survives
SURVIVORS = [
    # X and Z are real and Y is imaginary, so conjugation maps each Pauli
    # word to +-itself.  -G has the eigenvectors of G, so each petal keeps
    # its group and its basis up to the order and phases of its columns,
    # which the stabilizer overlaps do not read; no sign is fitted
    (["mub", "mermin"], weyl, "_tensor_form", _conjugated,
     "conjugation maps each Pauli word to +-itself"),
]


def _ids(rows):
    """command, last argument and patched name; a repeat adds the defect."""
    out = []
    for row in rows:
        out.append("%s%s-%s" % (row[0][0], row[0][-1], row[2]))
        if out[-1] in out[:-1]:
            out[-1] += "-" + row[3].__name__.strip("_")
    return out


@pytest.fixture(scope="module")
def fiducials(tmp_path_factory):
    # fid4.json: the exact dimension-4 fiducial; fid5.json: a searched one
    work = tmp_path_factory.mktemp("fiducials")
    assert cli.dispatch(["sic", "search", "--n", "5", "--seed", "1",
                         "--out", str(work / "fid5.json")]) == 0
    cli.persist({"kind": "sic", "version": cli.FORMAT_VERSION, "n": 4,
                 "fiducial": sic.dim4_fiducial()}, str(work / "fid4.json"))
    return work


@pytest.fixture(autouse=True)
def in_fiducials(fiducials, monkeypatch):
    monkeypatch.chdir(fiducials)


@pytest.fixture
def cold_table_form():
    # the form cache would keep a defect of _form past its patch
    weyl._table_form.cache_clear()
    yield
    weyl._table_form.cache_clear()


def _run_planted(argv, module, name, defect, monkeypatch, capsys):
    """Exit code, report and stderr of argv with the defect planted."""
    assert cli.dispatch(argv) == 0
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    weyl._table_form.cache_clear()
    capsys.readouterr()
    code = cli.dispatch(argv + ["--json"])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv, module, name, defect, caught", ROWS,
                         ids=_ids(ROWS))
def test_planted_defect_is_caught(argv, module, name, defect, caught,
                                  cold_table_form, monkeypatch, capsys):
    code, out, err = _run_planted(argv, module, name, defect, monkeypatch,
                                  capsys)
    assert code == 1
    if isinstance(caught, str):
        assert caught in err
    else:
        report = json.loads(out.splitlines()[-1])
        assert {c["name"] for c in report["checks"]
                if not c["pass"]} == caught


@pytest.mark.parametrize("argv, module, name, defect, reason", SURVIVORS,
                         ids=_ids(SURVIVORS))
def test_planted_survivor_is_documented(argv, module, name, defect, reason,
                                        cold_table_form, monkeypatch, capsys):
    # a survivor that starts failing its command has found a check: move
    # it to ROWS
    assert reason
    code, _, _ = _run_planted(argv, module, name, defect, monkeypatch,
                              capsys)
    assert code == 0
