"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root:
    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def _corrupt(tmp_path, edit):
    ref = json.loads((BENCH_DIR / "reference.json").read_text())
    edit(ref)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    return path


@pytest.mark.parametrize("workload,edit", [
    # fig2 row n=23, GRASPA Lebesgue constant (well conditioned: tolerance 1e-6)
    ("figures", lambda r: r["figures"]["fig2"]["rows"][3].__setitem__(
        3, r["figures"]["fig2"]["rows"][3][3] * 1.0001)),
    ("sweep_highdeg", lambda r: r["sweep"]["f1_graspa_23"].__setitem__(
        "lambda", r["sweep"]["f1_graspa_23"]["lambda"] * 1.0001)),
    ("sweep_highdeg", lambda r: r["sweep"]["limit_f1_50"].__setitem__(
        "predicted", r["sweep"]["limit_f1_50"]["predicted"] * 1.0001)),
])
def test_gate_trips_on_a_wrong_reference_value(tmp_path, workload, edit):
    proc = run_bench(workload, 0, "--reference", str(_corrupt(tmp_path, edit)))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert last_json(proc)["correct"] is False
    assert "check failed" in proc.stdout


def test_interpolant_check_trips_on_a_wrong_value():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import graspa
    from oracle import Barycentric

    nodes = graspa.equispaced_nodes(23)
    domain = graspa.PiecewiseDomain(graspa.Interval(-1.0, 1.0), (0.0,))
    interp = graspa.build_interpolant(nodes, graspa.f1(nodes.nodes),
                                      graspa.graspa_chain(1e4, domain))
    x = np.array([-0.7, -0.05, 0.3, 0.9])
    y = interp(x)
    exact = Barycentric(interp.mapped_nodes, interp.values, interp.weights)
    errors = []
    assert exact.check_values(interp.chain(x), y, errors, "ok") < 1.0
    assert errors == []
    y[2] *= 1.0 + 1e-9
    exact.check_values(interp.chain(x), y, errors, "perturbed")
    assert len(errors) == 1 and errors[0].startswith("perturbed")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
