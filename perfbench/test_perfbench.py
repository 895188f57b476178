"""Self-test of the benchmark: every workload at its tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that each run prints every metric of BENCHMARK.json by name with
its unit, that the reference checks ran and pass, that traced and
untraced runs give identical outputs, that layer self times account for
the traced pass time, and that the checkers reject a wrong output.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import oracle  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_catalogue_matches_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCH["end_to_end"]] \
        == [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == [tuple(m[:3]) for m in metrics.PER_LAYER]


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_workload(workload):
    plain_detail, plain = run(workload, 0)
    traced_detail, traced = run(workload, 1)
    for result, catalogue in ((plain, BENCH["end_to_end"]), (traced, BENCH["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], (plain_detail["mismatches"], traced_detail["mismatches"])
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == {m["name"]: m["unit"] for m in catalogue}
    for name, unit in metrics.REPORTED:
        if name != "samples_per_s" or workload.startswith("mc-"):
            assert plain_detail["reported"][name]["unit"] == unit
    assert plain_detail["checked_ops"] == plain["attempted"] // plain_detail["reported"]["passes"]["value"]
    assert plain_detail["digest"] == traced_detail["digest"]
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    selfs = sum(m[f"{layer}.self_s"] for layer in metrics.LAYERS) + m["trace.unattributed_s"]
    assert selfs == pytest.approx(m["trace.pass_s"], rel=1e-9)
    assert m["trace.unattributed_s"] < 0.05 * m["trace.pass_s"]
    assert plain["failed"] == (plain["attempted"] // 9 if workload == "theta-index" else 0)


def test_oracle_rejects_a_wrong_record():
    from workloads import free_energy

    op = free_energy("syk", 8, 4, 16, seed=3, checked=4)
    rep = op.run()
    assert op.check(rep) == []
    rep.records["ln_z"] = rep.records["ln_z"].copy()
    rep.records["ln_z"][0, 1] += 1e-6
    assert len(op.check(rep)) == 1
    wrong_seed = oracle.check_free_energy(rep.records, "syk", 8, 4, (0.5, 1.0, 2.0), 4,
                                          [1], 1e-9, 1e-9)
    assert wrong_seed


def test_cli_reference_rejects_a_wrong_output():
    from workloads import check_cli

    assert check_cli("theta johnson --n 10 --q 4 --exact-output", (0, "102/7\n")) == []
    assert check_cli("theta johnson --n 10 --q 4 --exact-output", (0, "14.57\n"))
    assert check_cli("theta sdp --set pauli --n 4 --loc 2 --tol 1e-6", (1, "6.000000\n")) == []
    assert check_cli("theta sdp --set pauli --n 4 --loc 2 --tol 1e-6", (1, "6.001000\n"))
    bounds = "bounds --n 100 --q 4 --t 0.5 --gateset 64 --delta 1e-3"
    ref = json.loads((HERE / "references.json").read_text())["theta-index"][bounds]
    good = {**ref["fields"], **ref["floats"]}
    assert check_cli(bounds, (0, json.dumps(good))) == []
    assert check_cli(bounds, (0, json.dumps({**good, "circuit_gate_threshold": 3157})))


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "perfbench" / "references.json").write_bytes((HERE / "references.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "theta-index",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pick_covers_first_and_last():
    from workloads import _pick

    picks = _pick(16, 24, seed=9)
    assert picks[0] == 0 and picks[-1] == 15 and len(picks) == len(set(picks)) == 16
    assert np.all(np.diff(_pick(1000, 5, seed=1)) > 0)
