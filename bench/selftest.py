"""Tests of the benchmark itself (about a minute; they spawn workers).

    python3 -m pytest bench/selftest.py

The file name keeps these out of the repository's default test run.  No
test asserts a timing value.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def finhilb():
    return run.load_finhilb()


def bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=170,
                          cwd=BENCH.parent)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] \
        == list(run.GATED_END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] \
        == list(run.per_layer_units())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_end_to_end_metric_present():
    code, result = bench("--workload", "sic_search", "--seconds", "1",
                         "--seed", "3")
    assert code == 0
    check_result(result, SPEC["end_to_end"])
    assert all(result["metrics"][m]["value"] > 0
               for m in run.GATED_END_TO_END)


def test_every_per_layer_metric_present():
    code, result = bench("--workload", "sic_search", "--seconds", "1",
                         "--seed", "3", "--trace", "1")
    assert code == 0
    check_result(result, SPEC["per_layer"])
    counts = {k: v["value"] for k, v in result["metrics"].items()}
    # one dispatch per CLI call: 3 x (search + verify) + search6
    assert counts["cli.calls"] == 7
    assert counts["sic.sic_search.calls"] == 3
    assert counts["mub.search_unbiased6.calls"] == 1
    assert counts["cli.persist.calls"] == 3 and counts["cli.load.calls"] == 3
    assert sum(counts[layer + ".failed"] for layer in run.worker.LAYERS) == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    for i in range(3):
        assert workloads.pass_ops(workload, 5, i) \
            == workloads.pass_ops(workload, 5, i)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_seeds_follow_the_seed(workload):
    n = workloads._BUILDERS[workload][1]
    for i in range(3):
        a = workloads.op_seeds(workload, 1, i, n)
        assert len(set(a)) == n
        assert a != workloads.op_seeds(workload, 2, i, n)
    assert workloads.op_seeds(workload, 1, 0, n) \
        != workloads.op_seeds(workload, 1, 1, n)
    assert workloads.pass_ops(workload, 1, 0) \
        != workloads.pass_ops(workload, 2, 0)


def _checks(passed):
    return [[json.loads(c["stdout"])["checks"] for c in op["calls"]]
            for op in passed["ops"]]


def test_same_seed_same_verified_results(finhilb, tmp_path):
    cli, sic = finhilb
    ops = workloads.pass_ops("sic_search", 7, 0)
    results = []
    for name in ("a", "b"):
        work = tmp_path / name
        work.mkdir()
        res = run.gated_pass(work, ops, False, "p0", sic)
        assert res["failed"] == 0 and res["attempted"] == len(ops)
        assert res["blas_threads"] in (1, None)
        results.append(_checks(res))
    assert results[0] == results[1]


def test_nan_selftest_fails_closed(finhilb, tmp_path):
    cli, sic = finhilb
    _, failures = run.nan_selftest(tmp_path, cli, sic)
    assert failures


def _mubset(finhilb, tmp_path, p=3):
    cli, _ = finhilb
    path = tmp_path / "m.json"
    assert cli.dispatch(["mub", "gen", "--p", str(p), "--out",
                         str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.5])
def test_gate_rejects_a_corrupt_mubset(finhilb, tmp_path, bad):
    doc = _mubset(finhilb, tmp_path)
    assert gate.mubset_failures(doc, 3) == []
    doc["bases"][2][1][1][0] = bad
    assert gate.mubset_failures(doc, 3)


def test_gate_rejects_an_incomplete_mubset(finhilb, tmp_path):
    doc = _mubset(finhilb, tmp_path)
    doc["bases"].pop()
    assert gate.mubset_failures(doc, 3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.3])
def test_gate_rejects_a_corrupt_sic(finhilb, tmp_path, bad):
    _, sic = finhilb
    psi = sic.dim4_fiducial()
    doc = {"kind": "sic", "n": 4,
           "fiducial": [[float(z.real), float(z.imag)] for z in psi]}
    op = {"name": "t", "calls": [],
          "artifacts": [{"path": "s.json", "kind": "sic", "n": 4}]}
    (tmp_path / "s.json").write_text(json.dumps(doc))
    assert gate.op_failures(op, {"calls": []}, tmp_path, sic) == []
    doc["fiducial"][1][0] += bad
    (tmp_path / "s.json").write_text(json.dumps(doc))
    assert gate.op_failures(op, {"calls": []}, tmp_path, sic)


@pytest.mark.parametrize("call, ok", [
    ({"code": 0, "stdout": '{"checks": [{"name": "x", "value": 0.0, '
                           '"pass": true}]}'}, True),
    ({"code": 1, "stdout": '{"checks": [{"name": "x", "value": 0.0, '
                           '"pass": true}]}'}, False),
    ({"code": 0, "stdout": '{"checks": [{"name": "x", "value": NaN, '
                           '"pass": true}]}'}, False),
    ({"code": 0, "stdout": '{"checks": [{"name": "x", "value": 0.0, '
                           '"pass": false}]}'}, False),
    ({"code": 0, "stdout": '{"checks": []}'}, False),
    ({"code": 0, "stdout": "x = 1 PASS"}, False),
    ({"code": None, "stdout": ""}, False),
])
def test_gate_checks_every_report(call, ok):
    op = {"name": "t", "calls": [["t"]], "artifacts": []}
    result = {"calls": [dict(call, argv=["t"])]}
    assert (gate.op_failures(op, result, Path("."), None) == []) == ok


def test_run_without_sources_fails_without_a_result(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for path in BENCH.glob("*.py"):
        (bench_copy / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "sic_search", "--seconds", "1"],
                          capture_output=True, text=True, timeout=170,
                          cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_worker_past_its_time_is_killed(tmp_path):
    ops = workloads.pass_ops("sic_search", 1, 0)
    assert run.spawn_worker(tmp_path, ops, False, "x", 0.5) == (None, None)
