import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
METRICS = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(directory: Path, workload: str, seed: int, value: float) -> None:
    """One results file in the layout perfbench/run.py writes."""
    directory.mkdir(exist_ok=True)
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in METRICS}
    doc = {"environment": {"commit": "c"}, "errors": [], "speed_factor": 1.0,
           "pass_walls_s": [value, value],
           "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}}
    (directory / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(doc))


def test_workloads_without_pairs_are_skipped_and_named(tmp_path, capsys):
    bench_compare = _load_script()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        _write_run(parent, "figures", seed, 2.0)
        _write_run(change, "figures", seed, 1.0)
    _write_run(parent, "sweep_highdeg", 1, 1.0)  # parent side only
    _write_run(change, "interp_build", 3, 1.0)  # change side only
    _write_run(parent, "interp_stream", 4, 1.0)  # seeds that do not match
    _write_run(change, "interp_stream", 5, 1.0)
    out = tmp_path / "BENCH_test.json"
    assert bench_compare.main(["--parent", str(parent), "--change", str(change),
                               "--out", str(out), "--claim", "sweep_highdeg:pass_s"]) == 0
    doc = json.loads(out.read_text())
    assert list(doc["workloads"]) == ["figures"]
    assert doc["workloads"]["figures"]["pairs"] == 2
    assert doc["unpaired"] == ["interp_build", "interp_stream", "sweep_highdeg"]
    assert doc["claim"]["pairs"] == 0 and not doc["claim"]["holds"]
    printed = capsys.readouterr().out
    for workload in doc["unpaired"]:
        assert f"{workload}: no seed with runs on both sides; skipped" in printed
