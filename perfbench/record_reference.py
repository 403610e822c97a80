#!/usr/bin/env python3
"""Record the reference outputs the correctness gate compares against.

Usage (from the repository root, at a commit whose outputs are trusted):
    python3 perfbench/record_reference.py

Writes perfbench/reference.json.  Figure sweep tables are kept whole; the
dense tables (Lebesgue functions, interpolant curves, basis matrices) keep
their header, row count and column maxima.  Every value carries a
conditioning number cond = (n + 1) * Lambda of the cell it came from, from
which the gate derives its tolerance (see oracle.rel_tol).
"""

from __future__ import annotations

import json
import shutil
from functools import lru_cache

import numpy as np

from run import BENCH_DIR, OUT_DIR, import_graspa

# Function and degree behind each dense table, as build_figure defines them.
FIGURE_FUNCTION = {"fig1": "f1", "fig2": "f1", "fig3": "f1", "fig3bis": "f1",
                   "fig4": "f1", "fig5": "f1", "fig6": "f2", "fig7": "f2",
                   "fig8": "f2", "fig8bis": "f2", "fig9": "f2"}
DENSE_DEGREE = {"fig1": 23, "fig3": 23, "fig4": 50, "fig6": 29, "fig7": 29}
TAG_METHOD = {"classical": "classical", "sgibbs": "sgibbs", "graspa": "graspa",
              "graspa_vn": "graspa+vn"}


def main() -> int:
    G = import_graspa()
    import workloads

    @lru_cache(maxsize=None)
    def cond(function, method, n):
        nodes = G.equispaced_nodes(n)
        try:
            lam = G.lebesgue_constant(nodes, workloads._chain(G, function, method, n),
                                      workloads._domain(G, function)).lebesgue_constant
        except G.EvaluationError:
            return 0.0
        return (n + 1) * lam

    def column_method(fig, name, label):
        if fig == "fig4":
            return "graspa+vn" if name.endswith("_vn") else "graspa"
        return TAG_METHOD.get(label.split("_", 1)[-1]) if "_" in label else None

    workdir = OUT_DIR / "record"
    ref = {"figures": {}, "sweep": {}}
    try:
        figs = workloads.Figures(G, 0, False, workdir, ref)
        for op in figs.next_pass():
            op.fn()
            fig = op.label
            for csv_path in sorted(figs.out.glob("*.csv")):
                name = csv_path.stem
                if name in ref["figures"]:
                    continue
                header, rows = workloads.read_csv(csv_path)
                methods = [column_method(fig, name, h) for h in header]
                entry = {"figure": fig, "header": header,
                         "svg": csv_path.with_suffix(".svg").is_file()}
                function = FIGURE_FUNCTION[fig]
                if header[0] == "n":
                    entry["rows"] = rows.tolist()
                    entry["cond"] = [[cond(function, m, int(row[0])) if m else 0.0
                                      for m in methods] for row in rows]
                else:
                    n = DENSE_DEGREE[fig]
                    entry["n_rows"] = len(rows)
                    entry["col_max"] = rows.max(axis=0).tolist()
                    entry["cond"] = [cond(function, m, n) if m else 0.0 for m in methods]
                ref["figures"][name] = entry
        figs.close()

        sweep = workloads.SweepHighDeg(G, 0, False, workdir, ref)
        ops = sweep.next_pass()
        for op in ops:
            op.output = op.fn()
        for function, method, n in sweep.cases:
            name = workloads.case_name(function, method, n)
            header, rows = workloads.read_csv(sweep.out / f"{name}.csv")
            got = dict(zip(header, rows[0]))
            report = G.lebesgue_constant(G.equispaced_nodes(n),
                                         workloads._chain(G, function, method, n),
                                         workloads._domain(G, function))
            if report.lebesgue_constant != got[f"lambda_{method}"]:
                raise SystemExit(f"{name}: CLI and library Lebesgue constants differ")
            ref["sweep"][name] = {
                "lambda": got[f"lambda_{method}"], "rmae": got[f"rmae_{method}"],
                "argmax_x": float(report.grid[np.argmax(report.lebesgue_values)])}
        for op in ops[len(sweep.cases):]:
            lq = op.output
            ref["sweep"][op.label] = {"case": lq.case, "predicted": lq.predicted,
                                      "side_constants": list(lq.side_constants)}
        sweep.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
