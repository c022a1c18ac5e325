import json

import numpy as np
import pytest

from finhilb import cli, sic


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "mub", "gen")[0] == 2  # --p missing
    assert run(capsys, "weyl", "check", "--n", "nope")[0] == 2


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_mub_verify_nonfinite_entry_fails(capsys, tmp_path, bad):
    path = tmp_path / "mub3.json"
    assert run(capsys, "mub", "gen", "--p", "3", "--out", str(path))[0] == 0
    doc = json.loads(path.read_text())
    doc["bases"][1][0][0][0] = bad
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "mub", "verify", str(path), "--json")
    assert code == 1
    assert not any(c["pass"] for c in json.loads(out)["checks"])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_input_is_validation_error(capsys, tmp_path, bad):
    vec = [[bad, 0.0]] + [[0.5, 0.0]] * 3
    good = [[z.real, z.imag] for z in sic.dim4_fiducial()]
    docs = {"sic.json": {"kind": "sic", "version": 1, "n": 4,
                         "fiducial": vec},
            "fsic.json": {"kind": "sic", "version": 1, "n": 4,
                          "fsic": bad, "fiducial": good},
            "family.json": {"kind": "basisfamily", "version": 1,
                            "vectors": [[[1.0, 0.0], [0.0, 0.0]],
                                        [[0.0, 0.0], [1.0, 0.0]], vec[:2]]},
            "state.json": vec[:3]}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    sic_doc, fsic_doc, family, state = (str(tmp_path / name) for name in docs)
    calls = [["sic", "verify", sic_doc], ["sic", "verify", fsic_doc],
             ["design", "test", "--family", family, "--t", "1"],
             ["design", "welch", "--family", family, "--t", "1"],
             ["wigner", "table", "--n", "3", "--state", state]]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


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


def test_mub_mermin_counts(capsys):
    code, out, _ = run(capsys, "mub", "mermin", "--json")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["petals"]["value"] == 15
    assert checks["flowers"]["value"] == 6
    assert checks["stabilizer_states"]["value"] == 60


def test_mub_search6_env_threads(capsys, monkeypatch):
    code, out, _ = run(capsys, "mub", "search6", "--restarts", "8",
                       "--seed", "1", "--json")
    assert code == 0
    base = json.loads(out)["result"]
    monkeypatch.setenv("HILBERT_THREADS", "2")
    code, out, _ = run(capsys, "mub", "search6", "--restarts", "8",
                       "--seed", "1", "--json")
    assert code == 0
    assert json.loads(out)["result"] == base
    monkeypatch.setenv("HILBERT_THREADS", "nope")
    assert run(capsys, "mub", "search6", "--restarts", "2")[0] == 2


def test_threads_default_is_one(monkeypatch):
    monkeypatch.delenv("HILBERT_THREADS", raising=False)
    args = cli.build_parser().parse_args(["mub", "search6"])
    assert cli._threads(args) == 1


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


def test_clifford_zauner_raw_vector(capsys, tmp_path):
    path = tmp_path / "fid.json"
    out = sic.sic_search(5, restarts=8, seed=1)
    path.write_text(json.dumps([[z.real, z.imag] for z in out["fiducial"]]))
    code, text, _ = run(capsys, "clifford", "zauner", "--p", "5",
                        "--fiducial", str(path))
    assert code == 0
    assert "zauner_residual" in text


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_clifford_zauner_nonfinite_fails(capsys, tmp_path, bad):
    vec = [[bad, 0.0]] + [[0.5, 0.0]] * 4
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps(vec))
    doc = tmp_path / "sic.json"
    doc.write_text(json.dumps({"kind": "sic", "version": 1, "n": 5,
                               "fiducial": vec}))
    for path in (raw, doc):
        code, out, _ = run(capsys, "clifford", "zauner", "--p", "5",
                           "--fiducial", str(path), "--json")
        assert code == 1
        check = json.loads(out)["checks"][0]
        assert check["name"] == "zauner_residual" and not check["pass"]


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
