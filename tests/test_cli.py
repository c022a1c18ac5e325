import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from finhilb import cli, clifford, combinat, mub, sic, wigner


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "mub", "gen")[0] == 2  # --p missing
    assert run(capsys, "weyl", "check", "--n", "nope")[0] == 2
    # a restart or thread count no run can use is a usage error, not a
    # failed check; --threads is otherwise ignored
    for argv in (["mub", "search6", "--restarts", "0"],
                 ["mub", "search6", "--restarts", "2", "--threads", "-1"],
                 ["sic", "search", "--n", "3", "--restarts", "2",
                  "--threads", "-1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


def test_composite_p_rejected(capsys):
    code, _, err = run(capsys, "mub", "gen", "--p", "4")
    assert code == 2
    assert "p must be prime" in err


def test_missing_file_is_io_error(capsys, tmp_path):
    code, _, _ = run(capsys, "mub", "verify", str(tmp_path / "absent.json"))
    assert code == 3


def test_malformed_json_is_io_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(capsys, "mub", "verify", str(path))[0] == 3


def test_weyl_check_passes(capsys):
    code, out, _ = run(capsys, "weyl", "check", "--n", "6")
    assert code == 0
    assert "orthogonality" in out and "PASS" in out


def test_field_table_gf8_golden(capsys):
    code, out, _ = run(capsys, "field", "table", "--p", "2", "--k", "3",
                       "--json")
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert len(rows) == 8
    by_index = {r["index"]: r for r in rows}
    assert [by_index[i]["trace"] for i in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]
    for r in rows:
        assert r["trace"] == r["trace2"]
        if r["index"] == 0:
            assert r["order"] is None
        elif r["index"] == 1:
            assert r["order"] == 1
        else:
            assert r["order"] == 7


def test_weyl_expand_shift_coefficient(capsys, tmp_path):
    shift = np.roll(np.eye(3), 1, axis=0)  # X in dimension 3
    path = tmp_path / "x.json"
    path.write_text(json.dumps([[[float(z), 0.0] for z in row]
                                for row in shift]))
    code, out, _ = run(capsys, "weyl", "expand", "--matrix", str(path),
                       "--json")
    assert code == 0
    coef = json.loads(out)["result"]["coefficients"]
    assert abs(complex(*coef[1][0]) - 1.0) < 1e-12
    total = sum(abs(complex(*c)) for row in coef for c in row)
    assert abs(total - 1.0) < 1e-12


def test_latin_gen_count_golden(capsys):
    code, out, _ = run(capsys, "latin", "gen", "--n", "4", "--count",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["reduced_count"] == 4
    assert len(doc["result"]["square"]) == 4


def test_hadamard_family_is_one_design(capsys, tmp_path):
    path = tmp_path / "f5.json"
    assert run(capsys, "hadamard", "fourier", "--n", "5", "--out",
               str(path))[0] == 0
    assert run(capsys, "design", "test", "--family", str(path),
               "--t", "1")[0] == 0


def test_werner_report(capsys, tmp_path):
    path = tmp_path / "werner3.json"
    code, out, _ = run(capsys, "werner", "--n", "3", "--out", str(path),
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert all(c["pass"] for c in doc["checks"])
    saved = json.loads(path.read_text())
    assert saved["kind"] == "basisfamily"
    assert len(saved["vectors"]) == 9
    assert saved["metadata"]["latin"] == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_mub_roundtrip_bitwise(capsys, tmp_path):
    first = tmp_path / "mub5.json"
    second = tmp_path / "again.json"
    assert run(capsys, "mub", "gen", "--p", "5", "--out", str(first))[0] == 0
    cli.persist(cli.load(str(first), "mubset"), str(second))
    assert first.read_bytes() == second.read_bytes()
    assert run(capsys, "mub", "verify", str(first))[0] == 0


def _entry_pairs(z):
    """The per-entry encoder artifacts were first written with: one
    [float(re), float(im)] list per complex entry."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        return [float(z.real), float(z.imag)]
    return [_entry_pairs(x) for x in z]


def _written(capsys, tmp_path):
    """One artifact of each kind, written by the CLI, by name."""
    state = tmp_path / "state.json"
    state.write_text(json.dumps([[0.6, 0.0], [0.0, 0.8], [-0.0, 0.0]]))
    calls = {"mubset": ["mub", "gen", "--p", "3"],
             "sic": ["sic", "search", "--n", "3", "--restarts", "4",
                     "--seed", "1"],
             "fourier": ["hadamard", "fourier", "--n", "3"],
             "werner": ["werner", "--n", "3"],
             "wignertable": ["wigner", "table", "--n", "3", "--state",
                             str(state)],
             "field": ["field", "table", "--p", "2", "--k", "2"]}
    paths = {}
    for name, argv in calls.items():
        paths[name] = tmp_path / (name + ".json")
        assert run(capsys, *argv, "--out", str(paths[name]))[0] == 0
    return paths


def test_every_kind_reloads_byte_identical(capsys, tmp_path):
    again = tmp_path / "again.json"
    for name, path in _written(capsys, tmp_path).items():
        kind = json.loads(path.read_text())["kind"]
        cli.persist(cli.load(str(path), kind), str(again))
        assert again.read_bytes() == path.read_bytes(), name


def test_artifacts_match_per_entry_encoder(capsys, tmp_path):
    paths = _written(capsys, tmp_path)
    found = sic.sic_search(3, restarts=4, seed=1)
    latin = combinat.latin_from_group(3)
    had = combinat.fourier_matrix(3)
    psi = np.array([0.6, 0.8j, -0.0])
    table = wigner.wigner_function(np.outer(psi, psi.conj()),
                                   wigner.phase_point_set(3))
    expected = {
        "mubset": {"kind": "mubset", "version": 1, "p": 3, "k": 1, "n": 3,
                   "bases": [_entry_pairs(b) for b in mub.ivanovic_mubs(3)]},
        "sic": {"kind": "sic", "version": 1, "n": 3, "fsic": found["fsic"],
                "fiducial": _entry_pairs(found["fiducial"]),
                "seed": found["seed"], "restarts": found["restarts"],
                "restart": found["restart"]},
        "werner": {"kind": "basisfamily", "version": 1, "n": 9,
                   "vectors": _entry_pairs(combinat.werner_basis(latin, had)),
                   "metadata": {"label": "werner", "latin": latin.tolist(),
                                "hadamard": _entry_pairs(had)}},
        "wignertable": {"kind": "wignertable", "version": 1, "n": 3,
                        "state": _entry_pairs(psi),
                        "wigner": [[float(x) for x in row] for row in table]},
    }
    for name, doc in expected.items():
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        assert paths[name].read_text() == text, name


FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308,
                                    -1e308]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hnp.arrays(complex, hnp.array_shapes(min_dims=1, max_dims=3,
                                            max_side=4),
                  elements=st.builds(complex, FINITE, FINITE)))
def test_codec_roundtrip_is_bit_exact(tmp_path, z):
    kind, field = {1: ("sic", "fiducial"), 2: ("basisfamily", "vectors"),
                   3: ("mubset", "bases")}[z.ndim]
    path = str(tmp_path / "doc.json")
    cli.persist({"kind": kind, "version": cli.FORMAT_VERSION,
                 "n": z.shape[0], field: z}, path)
    back = cli.load(path, kind)[field]
    assert back.shape == z.shape
    assert back.view(float).tobytes() == z.view(float).tobytes()


SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
NONFINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
ARRAYS = st.one_of(
    hnp.arrays(float, SHAPES, elements=FINITE),
    hnp.arrays(complex, SHAPES, elements=st.builds(complex, FINITE, FINITE)),
    hnp.arrays(np.int64, SHAPES, elements=st.integers(-2 ** 62, 2 ** 62)),
    hnp.arrays(bool, SHAPES),
    # finite entries with at least one NaN or inf among them
    st.tuples(hnp.arrays(complex, hnp.array_shapes(max_dims=3, max_side=3),
                         elements=st.builds(complex, FINITE, FINITE)),
              st.integers(0), NONFINITE, st.booleans()).map(
        lambda t: _with_entry(*t)))


def _with_entry(a, index, bad, imag):
    a.flat[index % a.size] = complex(0.0, bad) if imag else bad
    return a


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ARRAYS, st.lists(ARRAYS, max_size=3))
def test_persist_bytes_match_indent1_reference(tmp_path, vectors, extra):
    # arrays at the top level and nested in metadata, as werner writes
    # them; the reference is the pure-Python indent=1 encoder
    doc = {"kind": "basisfamily", "version": cli.FORMAT_VERSION, "n": 3,
           "vectors": vectors,
           "metadata": {"label": "x", "arrays": extra,
                        "nested": {"first": extra[0] if extra else None}}}
    path = tmp_path / "doc.json"
    cli.persist(doc, str(path))
    reference = json.dumps(doc, sort_keys=True, indent=1,
                           default=cli._encode) + "\n"
    assert path.read_bytes() == reference.encode("utf-8")


def test_persist_string_equal_to_the_placeholder(tmp_path):
    # a document string that reads like the writer's placeholder leaves
    # the whole document to the reference encoder
    doc = {"kind": "sic", "version": 1, "n": 2, "fiducial": np.ones(2) + 0j,
           "label": cli._PLACEHOLDER}
    path = tmp_path / "doc.json"
    cli.persist(doc, str(path))
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=1,
                                          default=cli._encode) + "\n"


MISSING = object()


def _doc(kind, field, pairs, **rest):
    doc = dict(kind=kind, version=1, **rest)
    if pairs is not MISSING:
        doc[field] = pairs
    return doc


def _raw(pairs):
    return None if pairs is MISSING else pairs


# Each command that reads a file or raw array: its argv, with FILE for the
# input, a valid complex array for it, and the input built around that
# array as nested [re, im] pairs (or without it, for MISSING).
READERS = [
    (["mub", "verify", "FILE"], mub.ivanovic_mubs(3),
     lambda a: _doc("mubset", "bases", a, p=3, k=1, n=3)),
    (["sic", "verify", "FILE"], sic.dim4_fiducial(),
     lambda a: _doc("sic", "fiducial", a, n=4)),
    (["sic", "fingerprint", "FILE"], sic.dim4_fiducial(),
     lambda a: _doc("sic", "fiducial", a, n=4)),
    (["design", "test", "--family", "FILE", "--t", "1"], np.eye(3),
     lambda a: _doc("basisfamily", "vectors", a, n=3)),
    (["design", "welch", "--family", "FILE", "--t", "1"], np.eye(3),
     lambda a: _doc("basisfamily", "vectors", a, n=3)),
    (["weyl", "expand", "--matrix", "FILE"], np.eye(3), _raw),
    (["wigner", "table", "--n", "3", "--state", "FILE"], np.eye(3)[0], _raw),
    (["clifford", "zauner", "--p", "5", "--fiducial", "FILE"], np.eye(5)[0],
     _raw),
    (["clifford", "zauner", "--p", "5", "--fiducial", "FILE"], np.eye(5)[0],
     lambda a: _doc("sic", "fiducial", a, n=5)),
]


def _malformed(z, bad):
    """The nested [re, im] pairs of `z` with one defect `bad`."""
    if bad == "missing":
        return MISSING
    pairs = np.stack([np.real(z), np.imag(z)], -1)
    if bad in ("nan", "inf"):
        pairs.flat[0] = float(bad)
    if bad == "width3":
        pairs = np.concatenate([pairs, pairs[..., :1]], -1)
    out = pairs.tolist()
    row, pair = None, out
    while isinstance(pair[0], list):
        row, pair = pair, pair[0]
    if bad == "string":
        pair[0] = str(pair[0])
    if bad == "ragged":  # a vector's first pair, else its first row, short
        (pair if pairs.ndim == 2 else row).pop()
    return out


@pytest.mark.parametrize("bad", ["nan", "inf", "string", "ragged", "width3",
                                 "missing"])
def test_nonfinite_input_is_validation_error(capsys, tmp_path, bad):
    # non-finite, non-numeric, misshapen or missing array input is refused
    # at the load boundary of every command that reads one: exit 2
    path = tmp_path / "input.json"
    for argv, z, build in READERS:
        path.write_text(json.dumps(build(_malformed(z, bad))))
        argv = [str(path) if a == "FILE" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_mub_verify_nonfinite_entry_fails(capsys, tmp_path, bad):
    # a non-finite entry in a written mubset is refused at load: exit 2
    path = tmp_path / "mub3.json"
    assert run(capsys, "mub", "gen", "--p", "3", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    doc["bases"][1][0][0][0] = bad
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "mub", "verify", str(path), "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_clifford_zauner_nonfinite_fails(capsys, tmp_path, bad):
    # a non-finite fiducial, raw or in a sic document, is refused at load
    vec = [[bad, 0.0]] + [[0.5, 0.0]] * 4
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps(vec))
    doc = tmp_path / "sic.json"
    doc.write_text(json.dumps({"kind": "sic", "version": 1, "n": 5,
                               "fiducial": vec}))
    for path in (raw, doc):
        code, out, err = run(capsys, "clifford", "zauner", "--p", "5",
                             "--fiducial", str(path), "--json")
        assert (code, out) == (2, ""), path.name
        assert err.startswith("error: ") and "finite" in err, path.name


def test_sic_scalar_fields_are_validated(capsys, tmp_path):
    psi = sic.dim4_fiducial()
    good = np.stack([psi.real, psi.imag], -1).tolist()
    path = tmp_path / "sic.json"
    for rest in ({}, {"n": "4"}, {"n": 4, "fsic": float("nan")},
                 {"n": 4, "fsic": float("inf")}, {"n": 4, "fsic": 10 ** 400},
                 {"n": 4, "fsic": [0.0]}):
        path.write_text(json.dumps(_doc("sic", "fiducial", good, **rest)))
        code, out, err = run(capsys, "sic", "verify", str(path))
        assert (code, out) == (2, ""), rest
        assert err.startswith("error: "), rest
    # commands that read only the fiducial take a sic document without `n`
    path.write_text(json.dumps(_doc("sic", "fiducial", good)))
    assert run(capsys, "sic", "fingerprint", str(path))[0] == 0
    assert run(capsys, "design", "test", "--family", str(path),
               "--t", "2")[0] == 0


def test_sic_dimension_bound(capsys, tmp_path):
    # the N^2 x N^2 orbit Gram of sic verify bounds SIC work at N = 32
    flat = np.stack([np.full(33, 33 ** -0.5), np.zeros(33)], -1).tolist()
    path = tmp_path / "sic33.json"
    for rest in ({"n": 33}, {"n": 33, "fsic": 0.0}):
        path.write_text(json.dumps(_doc("sic", "fiducial", flat, **rest)))
        for argv in (["sic", "verify"], ["sic", "fingerprint"],
                     ["design", "test", "--t", "2", "--family"]):
            code, out, err = run(capsys, *argv, str(path))
            assert (code, out) == (2, ""), (rest, argv)
            assert err.startswith("error: ") and "32" in err, (rest, argv)


def test_wrong_kind_names_both(capsys, tmp_path):
    path = tmp_path / "sic3.json"
    assert run(capsys, "sic", "search", "--n", "3", "--restarts", "4",
               "--seed", "1", "--out", str(path))[0] == 0
    code, _, err = run(capsys, "mub", "verify", str(path))
    assert code == 2
    assert "expected kind 'mubset'" in err and "'sic'" in err
    with pytest.raises(cli.KindMismatch):
        cli.load(str(path), "mubset")


def test_version_mismatch_warns_best_effort(capsys, tmp_path):
    path = tmp_path / "mub3.json"
    assert run(capsys, "mub", "gen", "--p", "3", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    doc["version"] = 999
    path.write_text(json.dumps(doc, sort_keys=True))
    code, _, err = run(capsys, "mub", "verify", str(path))
    assert code == 0
    assert "warning" in err and "version" in err


def test_mub_gen_seed_is_ignored(capsys, tmp_path):
    outs = [tmp_path / ("mubs%s.json" % seed) for seed in "12"]
    for seed, out in zip("12", outs):
        code = run(capsys, "mub", "gen", "--p", "2", "--k", "3", "--seed",
                   seed, "--out", str(out))[0]
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_mub_mermin_counts(capsys):
    code, out, _ = run(capsys, "mub", "mermin", "--json")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["petals"]["value"] == 15
    assert checks["flowers"]["value"] == 6
    assert checks["stabilizer_states"]["value"] == 60


@pytest.mark.parametrize("argv", [
    ["sic", "search", "--n", "3", "--restarts", "4", "--seed", "2"],
    ["mub", "search6", "--restarts", "8", "--seed", "1"]],
    ids=["sic search", "mub search6"])
def test_threads_knob_is_inert(capsys, monkeypatch, argv):
    outs = []
    for flags, env in ((["--threads", "2"], None), ([], None), ([], "nope")):
        if env is not None:
            monkeypatch.setenv("HILBERT_THREADS", env)
        code, out, _ = run(capsys, *argv, "--json", *flags)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_cached_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    calls = []
    search = sic.sic_search

    def recorded(*args, **kwargs):
        calls.append((kwargs["seed"], kwargs["zauner"]))
        return search(*args, **kwargs)

    monkeypatch.setattr(sic, "sic_search", recorded)
    assert cli.build_parser() is cli.build_parser()
    reports = []
    for flags in (["--seed", "3", "--zauner", "--threads", "2"], []):
        code, out, _ = run(capsys, "sic", "search", "--n", "3",
                           "--restarts", "2", "--json", *flags)
        assert code == 0
        reports.append(json.loads(out))
    assert calls == [(3, True), (0, False)]
    assert reports[1]["seed"] == 0
    assert reports[1]["parameters"]["zauner"] is False


def test_wigner_table_csv(capsys, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    out_csv = tmp_path / "w.csv"
    code, _, _ = run(capsys, "wigner", "table", "--n", "3", "--state",
                     str(state), "--out", str(out_csv))
    assert code == 0
    rows = [line.split(",") for line in
            out_csv.read_text().strip().splitlines()]
    table = np.array([[float(x) for x in row] for row in rows])
    assert table.shape == (3, 3)
    assert abs(table.sum() - 1.0) < 1e-12
    assert np.allclose(table[0], 1.0 / 3.0) and np.allclose(table[1:], 0.0)
    code, _, err = run(capsys, "wigner", "table", "--n", "5", "--state",
                       str(state))
    assert code == 2 and "does not match" in err


def test_wigner_and_clifford_checks(capsys):
    assert run(capsys, "wigner", "check", "--n", "3")[0] == 0
    assert run(capsys, "clifford", "check", "--p", "3")[0] == 0


def _nan_after_first(i, out):
    return out if i == 0 else np.nan


# each command folds per-call residuals into one check value
@pytest.mark.parametrize("argv, module, name, check, poison", [
    (["werner", "--n", "3"], combinat, "reduced_density_matrices",
     "reduced_states",
     lambda i, out: out if i == 0 else tuple(r * np.nan for r in out)),
    # one call: the residuals folded are its entries, NaN after the first
    (["wigner", "check", "--n", "3"], wigner, "mub_line_map", "line_map",
     lambda i, out: out[:1] + [dict(e, max_residual=np.nan)
                               for e in out[1:]]),
    (["wigner", "check", "--n", "3"], wigner, "clifford_covariance_check",
     "covariance", _nan_after_first),
    (["clifford", "check", "--p", "3"], clifford, "normalizer_residual",
     "normalizer", _nan_after_first),
], ids=["werner", "line_map", "covariance", "normalizer"])
def test_nan_residual_after_a_finite_one_fails(capsys, monkeypatch, argv,
                                               module, name, check, poison):
    real = getattr(module, name)
    calls = []

    def patched(*args):
        calls.append(None)
        return poison(len(calls) - 1, real(*args))

    monkeypatch.setattr(module, name, patched)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    failed = {c["name"]: c["value"] for c in json.loads(out)["checks"]
              if not c["pass"]}
    assert list(failed) == [check] and np.isnan(failed[check])


def test_clifford_zauner_raw_vector(capsys, tmp_path):
    path = tmp_path / "fid.json"
    out = sic.sic_search(5, restarts=8, seed=1)
    path.write_text(json.dumps([[z.real, z.imag] for z in out["fiducial"]]))
    code, text, _ = run(capsys, "clifford", "zauner", "--p", "5",
                        "--fiducial", str(path))
    assert code == 0
    assert "zauner_residual" in text


def test_design_failure_exits_one(capsys, tmp_path):
    path = tmp_path / "mub5.json"
    assert run(capsys, "mub", "gen", "--p", "5", "--out", str(path))[0] == 0
    assert run(capsys, "design", "test", "--family", str(path),
               "--t", "2")[0] == 0
    assert run(capsys, "design", "test", "--family", str(path),
               "--t", "3")[0] == 1
    assert run(capsys, "design", "welch", "--family", str(path),
               "--t", "2")[0] == 0


def test_sic_search_seed_determinism(capsys):
    code, out1, _ = run(capsys, "sic", "search", "--n", "3", "--restarts",
                        "4", "--seed", "9", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "sic", "search", "--n", "3", "--restarts",
                        "4", "--seed", "9", "--json")
    assert code == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 9
    assert {"name", "value", "threshold", "pass"} <= set(doc["checks"][0])


def test_search_reports_carry_stats(capsys, tmp_path):
    path = tmp_path / "sic3.json"
    code, out, _ = run(capsys, "sic", "search", "--n", "3", "--restarts",
                       "4", "--seed", "9", "--out", str(path), "--json")
    assert code == 0
    stats = json.loads(out)["stats"]
    code, out, _ = run(capsys, "mub", "search6", "--restarts", "4",
                       "--seed", "1", "--json")
    assert code == 0
    for block in (stats, json.loads(out)["stats"]):
        assert block["restarts"] == 4
        for key in ("converged", "iterations", "value_calls", "grad_calls",
                    "polish_steps"):
            assert isinstance(block[key], int)
        assert len(block["final_values"]) == 4
        assert sum(block["stops"].values()) == 4
    # the stats block stays out of the artifact and the human output
    assert set(json.loads(path.read_text())) == {
        "kind", "version", "n", "fsic", "fiducial", "seed", "restarts",
        "restart"}
    code, out, _ = run(capsys, "sic", "search", "--n", "3", "--restarts",
                       "4", "--seed", "9")
    assert code == 0 and len(out.splitlines()) == 1


def test_sic_verify_and_fingerprint_files(capsys, tmp_path):
    path = tmp_path / "sic4.json"
    psi = sic.dim4_fiducial()
    cli.persist({"kind": "sic", "version": cli.FORMAT_VERSION, "n": 4,
                 "fsic": sic.f_sic(psi),
                 "fiducial": [[z.real, z.imag] for z in psi]}, str(path))
    assert run(capsys, "sic", "verify", str(path))[0] == 0
    assert run(capsys, "sic", "fingerprint", str(path))[0] == 0
    assert run(capsys, "sic", "fingerprint")[0] == 0


def test_suite_command(capsys):
    for n in ("2", "3"):
        code, out, _ = run(capsys, "suite", "--n", n)
        assert code == 0
        assert "FAIL" not in out


# What each report records, as the hand-written per-command reports gave
# it: minimal argv, subcommand path, parameters (value types included)
# and seed.
_REPORT_FIELDS = [
    ("field table --p 2 --out f.json", "field table", {"k": 1, "p": 2},
     None),
    ("weyl check --n 2", "weyl check", {"n": 2, "tol": 1e-10}, None),
    ("weyl expand --matrix m.json", "weyl expand",
     {"matrix": "m.json", "tol": 1e-10}, None),
    ("latin gen --n 2", "latin gen", {"count": False, "n": 2}, None),
    ("hadamard fourier --n 2", "hadamard fourier", {"n": 2}, None),
    ("werner --n 2", "werner", {"n": 2, "tol": 1e-10}, None),
    ("mub gen --p 2", "mub gen", {"k": 1, "p": 2, "tol": 1e-09}, 7),
    ("mub verify mubs.json", "mub verify",
     {"file": "mubs.json", "tol": 1e-09}, None),
    ("mub mermin", "mub mermin", {}, None),
    ("mub search6 --restarts 1 --threads 1", "mub search6",
     {"restarts": 1, "tol": 1e-18}, 0),
    ("wigner table --n 3 --state st.json", "wigner table",
     {"n": 3, "state": "st.json", "tol": 1e-10}, None),
    ("wigner check --n 3", "wigner check", {"n": 3, "tol": 1e-10}, 0),
    ("clifford check --p 3", "clifford check", {"p": 3, "tol": 1e-10}, 0),
    ("clifford zauner --p 3 --fiducial sic3.json", "clifford zauner",
     {"fiducial": "sic3.json", "p": 3, "tol": 1e-06}, None),
    ("design test --family sic3.json --t 1", "design test",
     {"family": "sic3.json", "t": 1, "tol": 1e-09}, None),
    ("design welch --family sic3.json --t 1", "design welch",
     {"family": "sic3.json", "t": 1, "tol": 1e-09}, None),
    ("sic search --n 2 --restarts 1 --out s.json", "sic search",
     {"n": 2, "restarts": 1, "tol": 1e-12, "zauner": False}, 0),
    ("sic verify sic3.json", "sic verify",
     {"file": "sic3.json", "tol": 1e-08}, None),
    ("sic fingerprint", "sic fingerprint", {"file": None, "tol": 1e-08},
     None),
    ("suite --n 2", "suite", {"n": 2}, 0),
]


@pytest.mark.parametrize("argv, command, parameters, seed", _REPORT_FIELDS,
                         ids=[f[0].split(" --")[0] for f in _REPORT_FIELDS])
def test_report_records_the_command_line(capsys, tmp_path, monkeypatch,
                                         argv, command, parameters, seed):
    monkeypatch.chdir(tmp_path)
    s = 2 ** -0.5
    cli.persist({"kind": "mubset", "version": cli.FORMAT_VERSION, "p": 2,
                 "k": 1, "n": 2, "bases": mub.qubit_mubs()}, "mubs.json")
    cli.persist({"kind": "sic", "version": cli.FORMAT_VERSION, "n": 3,
                 "fiducial": np.array([0, s, -s], dtype=complex)},
                "sic3.json")
    (tmp_path / "m.json").write_text(json.dumps(
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))
    (tmp_path / "st.json").write_text(json.dumps(
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    code, out, _ = run(capsys, *argv.split(), "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == command
    # compared as JSON text, so that False is not 0 and 1.0 is not 1
    assert json.dumps(rep["parameters"], sort_keys=True) \
        == json.dumps(parameters, sort_keys=True)
    assert rep.get("seed") == seed
    assert not {"out", "json", "threads"} & set(rep["parameters"])
