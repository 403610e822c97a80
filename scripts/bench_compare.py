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
pairs the change won (ties count for neither side); the medians of the raw
``pass_walls_s``, which are not speed-normalised, sit next to them.  A
workload with no seed run on both sides is skipped and listed under
``unpaired``.  A claim holds when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's quartile distance.
Every run's metrics, median pass wall, speed factor and commit are copied in;
traced runs are copied in with their per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
    return {"commit": run["environment"]["commit"], "correct": run["result"]["correct"],
            "failed": run["result"]["failed"], "speed_factor": run["speed_factor"],
            "pass_wall_median_s": statistics.median(walls) if walls else None,
            "metrics": {k: m["value"] for k, m in run["result"]["metrics"].items()}}


def compare(parent: dict, change: dict, metrics: list) -> tuple[dict, list]:
    """(per-workload comparison, workloads with no seed run on both sides)."""
    out, unpaired = {}, []
    for workload in sorted({w for w, _, t in (*parent, *change) if t == 0}):
        seeds = sorted(s for w, s, t in parent if w == workload and t == 0
                       and (w, s, t) in change)
        if not seeds:  # nothing to pair: no medians, no wins
            unpaired.append(workload)
            continue
        sides = {"parent": [parent[workload, s, 0] for s in seeds],
                 "change": [change[workload, s, 0] for s in seeds]}
        table = {}
        for spec in metrics:
            name, lower = spec["name"], spec["better"] == "lower"
            vals = {side: [r["result"]["metrics"][name]["value"] for r in runs]
                    for side, runs in sides.items()}
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(vals["parent"], vals["change"]))
            table[name] = {"unit": spec["unit"], "better": spec["better"], "change_wins": wins,
                           **{side: {"values": v, **spread(v)} for side, v in vals.items()}}
        walls = {side: spread([copied(r)["pass_wall_median_s"] for r in runs])
                 for side, runs in sides.items()}
        out[workload] = {"seeds": seeds, "pairs": len(seeds), "metrics": table,
                         "raw_pass_wall_median_s": walls,
                         "runs": {side: [copied(r) for r in runs]
                                  for side, runs in sides.items()}}
    return out, unpaired


def claim_holds(workloads: dict, workload: str, metric: str) -> dict:
    if workload not in workloads:
        return {"workload": workload, "metric": metric, "pairs": 0, "holds": False}
    entry = workloads[workload]["metrics"][metric]
    q1, q3 = entry["parent"]["quartiles"]
    gap = abs(entry["change"]["median"] - entry["parent"]["median"])
    wins, pairs = entry["change_wins"], workloads[workload]["pairs"]
    return {"workload": workload, "metric": metric, "change_wins": wins, "pairs": pairs,
            "median_gap": gap, "parent_quartile_distance": q3 - q1,
            "holds": wins >= 0.9 * pairs and gap > q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    parser.add_argument("--note", default="", help="how the runs were made")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads, unpaired = compare(parent, change, metrics)
    doc = {"note": args.note, "workloads": workloads, "unpaired": unpaired,
           "traced": {side: {f"{w}-seed{s}": copied(r) for (w, s, t), r in runs.items() if t}
                      for side, runs in (("parent", parent), ("change", change))}}
    if args.claim:
        doc["claim"] = claim_holds(workloads, *args.claim.split(":"))
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, entry in workloads.items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']:.6g} -> "
                  f"{m['change']['median']:.6g} ({m['change_wins']}/{entry['pairs']})")
    for workload in unpaired:
        print(f"{workload}: no seed with runs on both sides; skipped")
    if args.claim:
        print("claim:", json.dumps(doc["claim"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
