import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
METRICS = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(directory: Path, workload: str, seed: int, value: float,
               wall: float | None = None) -> None:
    """One results file in the layout perfbench/run.py writes; every metric
    reads value, and the raw pass walls wall (default: value)."""
    directory.mkdir(exist_ok=True)
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in METRICS}
    wall = value if wall is None else wall
    doc = {"environment": {"commit": "c"}, "errors": [], "speed_factor": 1.0,
           "pass_walls_s": [wall, wall, 2 * wall],
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


def test_pass_s_claims_are_also_judged_on_raw_walls(tmp_path):
    bench_compare = _load_script()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(10):
        # normalised: the change wins every pair by far; raw: it wins the
        # sweep in every pair but by less than the parent's spread, and
        # loses figures in every pair
        _write_run(parent, "sweep_highdeg", seed, 2.0, wall=1.0 + 0.1 * seed)
        _write_run(change, "sweep_highdeg", seed, 1.0, wall=0.99 + 0.1 * seed)
        _write_run(parent, "figures", seed, 2.0, wall=1.0)
        _write_run(change, "figures", seed, 1.0, wall=1.5)
    out = tmp_path / "BENCH_test.json"
    for workload, raw_wins, raw_holds in (("sweep_highdeg", 10, False), ("figures", 0, False)):
        assert bench_compare.main(["--parent", str(parent), "--change", str(change),
                                   "--out", str(out), "--claim", f"{workload}:pass_s"]) == 0
        claim = json.loads(out.read_text())["claim"]
        assert claim["holds"] and claim["change_wins"] == 10
        raw = claim["raw"]
        assert (raw["change_wins"], raw["pairs"], raw["holds"]) == (raw_wins, 10, raw_holds)
        # the seeds' median walls are their first wall
        assert abs(raw["median_gap"] - (0.01 if raw_wins else 0.5)) < 1e-12
    for seed in range(10):  # raw walls now a clear half of the parent's
        _write_run(change, "sweep_highdeg", seed, 1.0, wall=0.5 + 0.1 * seed)
    bench_compare.main(["--parent", str(parent), "--change", str(change), "--out", str(out),
                        "--claim", "sweep_highdeg:pass_s"])
    assert json.loads(out.read_text())["claim"]["raw"]["holds"]
    # other metrics have no raw verdict
    bench_compare.main(["--parent", str(parent), "--change", str(change), "--out", str(out),
                        "--claim", "sweep_highdeg:peak_mb"])
    assert "raw" not in json.loads(out.read_text())["claim"]


def test_each_metric_is_judged_against_its_bound(tmp_path, capsys):
    bench_compare = _load_script()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(10):
        # figures: a tight parent, and a change 10% up on every metric: worse
        # beyond peak_mb's bound of 0.05, within the timing bounds of 0.25,
        # and better where higher is better
        _write_run(parent, "figures", seed, 1.0)
        _write_run(change, "figures", seed, 1.1)
        # interp_stream: a parent whose quartiles span more than any bound,
        # and a change with the same runs in the opposite seed order
        _write_run(parent, "interp_stream", seed, 1.0 + 0.5 * seed)
        _write_run(change, "interp_stream", seed, 5.5 - 0.5 * seed)
        # interp_build: as spread, but every change run beats every parent run
        _write_run(parent, "interp_build", seed, 10.0 + 0.1 * seed)
        _write_run(change, "interp_build", seed, 1.0 + 0.1 * seed)
    out = tmp_path / "BENCH_test.json"
    assert bench_compare.main(["--parent", str(parent), "--change", str(change),
                               "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    verdicts = {w: {name: m["verdict"] for name, m in entry["metrics"].items()}
                for w, entry in doc["workloads"].items()}
    for m in METRICS:
        lower = m["better"] == "lower"
        assert verdicts["figures"][m["name"]] == (
            "regressed" if lower and m["bound"] < 0.1 else "ok"), m["name"]
        # equal medians, and a parent quartile distance of 2.25 at a median
        # of 3.25, beyond every bound
        assert verdicts["interp_stream"][m["name"]] == "unresolved", m["name"]
        # the change is far better where lower is better, and far worse
        # (0.9 of 10.45) where higher is
        assert verdicts["interp_build"][m["name"]] == ("ok" if lower else "regressed")
        assert doc["workloads"]["figures"]["metrics"][m["name"]]["bound"] == m["bound"]
    assert doc["regressed"] == (
        [f"figures:{m['name']}" for m in METRICS if m["better"] == "lower" and m["bound"] < 0.1]
        + [f"interp_build:{m['name']}" for m in METRICS if m["better"] == "higher"])
    # the raw pass walls read as pass_s does here, so their row follows it
    assert doc["unresolved"] == [f"interp_stream:{m['name']}" for m in METRICS] + [
        "interp_stream:pass_s:raw"]
    printed = capsys.readouterr().out
    assert f"regressed: {', '.join(doc['regressed'])}" in printed
    assert f"unresolved: {', '.join(doc['unresolved'])}" in printed


def test_raw_pass_walls_are_judged_against_the_pass_s_bound(tmp_path, capsys):
    bench_compare = _load_script()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(10):
        # every metric, speed-normalised pass_s included, is equal on both
        # sides; the raw pass walls of figures are 30% slower, beyond pass_s's
        # bound of 0.25, and those of sweep_highdeg 20% slower, within it
        _write_run(parent, "figures", seed, 1.0, wall=1.0)
        _write_run(change, "figures", seed, 1.0, wall=1.3)
        _write_run(parent, "sweep_highdeg", seed, 1.0, wall=1.0)
        _write_run(change, "sweep_highdeg", seed, 1.0, wall=1.2)
    out = tmp_path / "BENCH_test.json"
    assert bench_compare.main(["--parent", str(parent), "--change", str(change),
                               "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    pass_s = next(m for m in METRICS if m["name"] == "pass_s")
    for workload, verdict in (("figures", "regressed"), ("sweep_highdeg", "ok")):
        table = doc["workloads"][workload]["metrics"]
        assert table["pass_s"]["verdict"] == "ok"
        raw = table["pass_s:raw"]
        assert (raw["unit"], raw["better"], raw["bound"]) == ("s", "lower", pass_s["bound"])
        assert raw["verdict"] == verdict
        assert raw["parent"]["median"] == 1.0  # each seed's median wall
    assert doc["regressed"] == ["figures:pass_s:raw"] and doc["unresolved"] == []
    assert "figures pass_s:raw: 1 -> 1.3 (0/10) regressed" in capsys.readouterr().out


@pytest.mark.parametrize("claim", ["figures", "figures:pass", "nosuch:pass_s",
                                   "figures:pass_s:x", ":pass_s", ""])
def test_a_claim_names_a_declared_workload_and_metric(tmp_path, capsys, claim):
    # a claim without a metric crashed, and one of an undeclared metric read
    # as not holding, or raised KeyError where the workload had pairs
    bench_compare = _load_script()
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_run(parent, "figures", 1, 2.0)
    _write_run(change, "figures", 1, 1.0)
    out = tmp_path / "BENCH_test.json"
    with pytest.raises(SystemExit) as exc:
        bench_compare.main(["--parent", str(parent), "--change", str(change),
                            "--out", str(out), "--claim", claim])
    assert exc.value.code == 2
    assert "needs workload:metric" in capsys.readouterr().err
    assert not out.exists()
