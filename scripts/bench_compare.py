#!/usr/bin/env python3
"""Summarise alternating parent/change benchmark runs into one BENCH_*.json.

Usage:
    python scripts/bench_compare.py --parent DIR --change DIR --out BENCH_tag.json \\
        [--claim interp_stream:pass_s] [--note TEXT]

Each DIR holds the perfbench results files of one commit
(``<workload>-seed<n>-trace<0|1>.json``, as ``perfbench/run.py`` writes them
under ``.perfbench_out/results/``), with the same seeds on both sides.  For
every workload and end-to-end metric of ``BENCHMARK.json`` the output gives
both sides' values per seed, their medians and quartiles, and the number of
pairs the change won (ties count for neither side).  One more row,
``pass_s:raw``, holds each run's median raw ``pass_walls_s``, which are not
speed-normalised, with ``pass_s``'s unit, direction and bound: the speed
factor moves with the memory traffic of the code under test, so every
workload's ``pass_s`` is also judged on raw walls.  Each
metric also gets a verdict against its relative ``bound``: "regressed" when
the change's median is worse than the parent's by more than bound times the
parent's median, "unresolved" when the parent's quartile distance exceeds
that much and not every change run beats every parent run, else "ok".  The
regressed and unresolved ``workload:metric`` pairs are listed under
``regressed`` and ``unresolved`` and printed.  A
workload with no seed run on both sides is skipped and listed under
``unpaired``.  A claim holds when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's quartile distance;
``--claim`` must name a workload and an end-to-end metric of
``BENCHMARK.json``, or the script exits 2.  A claimed metric with a raw row
is also judged the same way on that row, and that verdict is written as
``claim.raw``.
Every run's metrics (its raw row included), speed factor and commit are
copied in; traced runs are copied in with their per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = "pass_s:raw"  # a run's median raw pass wall, judged as pass_s is
RESULT_NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def load_runs(directory: Path) -> dict:
    """{(workload, seed, trace): results file contents} for one commit."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        m = RESULT_NAME.fullmatch(path.name)
        if m:
            runs[m["workload"], int(m["seed"]), int(m["trace"])] = json.loads(path.read_text())
    return runs


def spread(values: list) -> dict:
    if len(values) < 2:
        return {"median": values[0], "quartiles": [values[0], values[0]]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "quartiles": [q1, q3]}


def copied(run: dict) -> dict:
    walls = run.get("pass_walls_s")  # traced runs record none
    metrics = {k: m["value"] for k, m in run["result"]["metrics"].items()}
    return {"commit": run["environment"]["commit"], "correct": run["result"]["correct"],
            "failed": run["result"]["failed"], "speed_factor": run["speed_factor"],
            "metrics": {**metrics, RAW: statistics.median(walls) if walls else None}}


def compare(parent: dict, change: dict, metrics: list) -> tuple[dict, list]:
    """(per-workload comparison, workloads with no seed run on both sides)."""
    out, unpaired = {}, []
    for workload in sorted({w for w, _, t in (*parent, *change) if t == 0}):
        seeds = sorted(s for w, s, t in parent if w == workload and t == 0
                       and (w, s, t) in change)
        if not seeds:  # nothing to pair: no medians, no wins
            unpaired.append(workload)
            continue
        sides = {"parent": [copied(parent[workload, s, 0]) for s in seeds],
                 "change": [copied(change[workload, s, 0]) for s in seeds]}
        table = {}
        for spec in metrics:
            name, lower = spec["name"], spec["better"] == "lower"
            vals = {side: [r["metrics"][name] for r in runs] for side, runs in sides.items()}
            wins = verdict(vals["parent"], vals["change"], lower)["change_wins"]
            table[name] = {"unit": spec["unit"], "better": spec["better"], "change_wins": wins,
                           "bound": spec["bound"],
                           "verdict": bound_verdict(vals["parent"], vals["change"], lower,
                                                    spec["bound"]),
                           **{side: {"values": v, **spread(v)} for side, v in vals.items()}}
        out[workload] = {"seeds": seeds, "pairs": len(seeds), "metrics": table,
                         "runs": sides}
    return out, unpaired


def verdict(parent: list, change: list, lower: bool) -> dict:
    """Pairs the change won and its median gap against the parent's quartile
    distance; it holds on nine tenths of the pairs and a gap beyond it."""
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    q1, q3 = spread(parent)["quartiles"]
    gap = abs(spread(change)["median"] - spread(parent)["median"])
    return {"change_wins": wins, "pairs": len(parent), "median_gap": gap,
            "parent_quartile_distance": q3 - q1,
            "holds": wins >= 0.9 * len(parent) and gap > q3 - q1}


def bound_verdict(parent: list, change: list, lower: bool, bound: float) -> str:
    """"regressed", "unresolved" or "ok" for one metric against its relative
    bound (module docstring)."""
    p = spread(parent)
    allowed = bound * abs(p["median"])
    c_med = spread(change)["median"]
    if (c_med - p["median"] if lower else p["median"] - c_med) > allowed:
        return "regressed"
    q1, q3 = p["quartiles"]
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    return "unresolved" if q3 - q1 > allowed and not beats_all else "ok"


def claim_holds(workloads: dict, workload: str, metric: str) -> dict:
    if workload not in workloads:
        return {"workload": workload, "metric": metric, "pairs": 0, "holds": False}
    entry = workloads[workload]["metrics"][metric]
    claim = {"workload": workload, "metric": metric,
             **verdict(entry["parent"]["values"], entry["change"]["values"],
                       entry["better"] == "lower")}
    raw = workloads[workload]["metrics"].get(f"{metric}:raw")
    if raw:
        claim["raw"] = verdict(raw["parent"]["values"], raw["change"]["values"],
                               raw["better"] == "lower")
    return claim


def claim_type(bench: dict):
    """The --claim argument type: "workload:metric", a workload and an
    end-to-end metric that the benchmark declares, read as a pair."""
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]

    def claim(text: str) -> tuple[str, str]:
        workload, _, metric = text.partition(":")
        if workload not in workloads or metric not in metrics:
            raise argparse.ArgumentTypeError(
                f"needs workload:metric, a workload of {', '.join(workloads)} and a "
                f"metric of {', '.join(metrics)}; got {text!r}")
        return workload, metric

    return claim


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", type=claim_type(bench),
                        help="workload:metric the change claims to improve")
    parser.add_argument("--note", default="", help="how the runs were made")
    args = parser.parse_args(argv)
    pass_s = next(m for m in bench["end_to_end"] if m["name"] == "pass_s")
    metrics = [*bench["end_to_end"], {**pass_s, "name": RAW}]
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads, unpaired = compare(parent, change, metrics)
    flagged = {kind: [f"{w}:{name}" for w, entry in workloads.items()
                      for name, m in entry["metrics"].items() if m["verdict"] == kind]
               for kind in ("regressed", "unresolved")}
    doc = {"note": args.note, "workloads": workloads, "unpaired": unpaired, **flagged,
           "traced": {side: {f"{w}-seed{s}": copied(r) for (w, s, t), r in runs.items() if t}
                      for side, runs in (("parent", parent), ("change", change))}}
    if args.claim:
        doc["claim"] = claim_holds(workloads, *args.claim)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in workloads.items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']:.6g} -> "
                  f"{m['change']['median']:.6g} ({m['change_wins']}/{entry['pairs']}) "
                  f"{m['verdict']}")
    for workload in unpaired:
        print(f"{workload}: no seed with runs on both sides; skipped")
    for kind, pairs in flagged.items():
        print(f"{kind}: {', '.join(pairs) or 'none'}")
    if args.claim:
        print("claim:", json.dumps(doc["claim"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
