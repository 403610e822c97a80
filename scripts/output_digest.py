#!/usr/bin/env python3
"""Write the outputs whose bits a change should keep into one directory.

Usage (from any directory):
    python scripts/output_digest.py OUT_DIR

OUT_DIR receives:
- figures/: every file that ``scripts/run_figures.py`` writes (CSV and SVG);
- sweep/: the CSVs of the benchmark's sweep_highdeg JSON sweeps;
- limits.txt: its limit predictions, each as its case, the float hex of the
  prediction, the side constants and r_max, and the SHA-256 of r_samples,
  once on the default grid and once (suffix ``_array``) on that grid's
  points as an array from ``lebesgue_grid``;
- passes.txt: the SHA-256 of each operation's outputs in one interp_stream
  pass and one interp_build pass, on a fixed seed;
- cli/: the CSVs of the command-line calls in ``CLI_CALLS`` (the README's
  examples other than ``experiment``, bgcheb nodes, the KTE stretch of a
  grid and of nodes, calls with negative cut lists, an interval and a
  lebesgue grid count, tables large enough for the CSV float kernel that
  reach each of its layouts, and the edges of the interpolant and
  Lebesgue-function table builders), one subdirectory per call, since each
  command writes a fixed file name;
- lebesgue_points.txt: the number of points passed to the Lebesgue
  evaluator ``graspa.stability._lebesgue_values`` by each figure id, each
  sweep case and each limit case on both grids, counted by wrapping that
  module attribute.  This file measures work, not output: a change to the
  Lebesgue search may change it with every output kept, and shows its work
  beside its bits in the same diff.
The cases come from ``perfbench/workloads.py``, and graspa is imported from
this checkout's ``src/``.  Run the script in two checkouts and compare the
two directories with ``diff -r``: an empty diff means every output kept its
bits.  ``scripts/digest_diff.py REV`` does both runs and the comparison
against a git revision, with this script copied into it.
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import graspa  # noqa: E402
import graspa.cli  # noqa: E402
import workloads  # noqa: E402

SEED = 1
CLI_CALLS = {
    "nodes_graspa": "nodes --n 23 --kind equispaced --map graspa --cuts 0 --kappa 10000",
    "map_mkte": "map --map mkte --cuts 0 --grid 200",
    "interp_graspa": "interp --function f1 --method graspa --n 23 --grid 332",
    "lebesgue_classical": "lebesgue --method classical --n 10",
    "lagmatrix_graspa": "lagmatrix --n 51 --grid 100 --method graspa --cuts 0",
    "nodes_bgcheb": "nodes --n 8 --kind bgcheb --beta 0.1 --gamma 0.2",
    "map_kte": "map --map kte --alpha 0.5 --grid 200",
    "nodes_kte": "nodes --n 12 --map kte --alpha 0.7",
    # negative comma lists, an interval and a lebesgue grid count
    "interp_sgibbs_cuts": "interp --function f2 --method sgibbs --n 29 --cuts=-0.5,0,0.5 "
                          "--grid 200",
    "map_graspa_interval": "map --map graspa --interval=-2,3 --cuts=-1,0.5 --grid 300",
    "lebesgue_graspa_grid": "lebesgue --method graspa --n 21 --cuts=0.5 --interval=0,1 "
                            "--grid 1500",
    # tables the CSV float kernel writes, each over several of its blocks:
    # negatives and exact zeros; leading zeros (0.000d) and two-digit
    # exponents on rows wider than half a block; negative three-digit
    # exponents; positive three-digit exponents; up to 13 integer digits
    "interp_f2_fine": "interp --function f2 --method graspa --n 29 --grid 4001",
    "lagmatrix_graspa_fine": "lagmatrix --n 51 --grid 2000",
    "lagmatrix_classical_400": "lagmatrix --method classical --n 400 --grid 50",
    "map_sgibbs_huge_shift": "map --map sgibbs --kappa 1e150 --cuts 0 --grid 1000",
    "lebesgue_classical_51": "lebesgue --method classical --n 51",
    # the edges of the interpolant and Lebesgue-function table builders: a
    # one-row table, the node-corrected chain, and a grid of 1005 points,
    # just above the 1000 that a Lebesgue table needs
    "interp_one_row": "interp --function f1 --method graspa --n 23 --grid 1",
    "interp_graspa_vn": "interp --function f1 --method graspa+vn --n 22 --grid 332",
    "lebesgue_classical_1005": "lebesgue --method classical --n 9 --grid 996",
}


def _quiet_main(argv) -> None:
    """Run the CLI with the paths it prints sent to /dev/null."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = graspa.cli.main(argv)
    if code != 0:
        raise SystemExit(f"graspa {' '.join(argv)} exited {code}")


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return digest.hexdigest()


class _PointCount:
    """Stands in for ``graspa.stability._lebesgue_values`` and counts the
    points passed to it, per label in ``lines``."""

    def __init__(self):
        self.evaluate = graspa.stability._lebesgue_values
        self.points = 0
        self.lines = []
        graspa.stability._lebesgue_values = self

    def __call__(self, s, basis, den=None):
        self.points += s.size
        return self.evaluate(s, basis, den)

    @contextlib.contextmanager
    def label(self, name: str):
        before = self.points
        yield
        self.lines.append(f"{name} {self.points - before}")


def figures(out: Path, work: _PointCount) -> None:
    for fig_id in graspa.experiments.FIGURE_IDS:
        with work.label(fig_id):
            _quiet_main(["experiment", fig_id, "--svg", "--out-dir", str(out)])


def sweeps(out: Path, work: _PointCount) -> None:
    with tempfile.TemporaryDirectory() as configs:
        for function, method, n in workloads.SWEEP_CASES:
            name = workloads.case_name(function, method, n)
            cfg = Path(configs) / f"{name}.json"
            cfg.write_text(json.dumps({"function": function, "methods": [method],
                                       "n": [n]}))
            with work.label(name):
                _quiet_main(["experiment", str(cfg), "--out-dir", str(out)])


def cli_calls(out: Path) -> None:
    for name, call in CLI_CALLS.items():
        _quiet_main(call.split() + ["--out-dir", str(out / name)])


def limits(work: _PointCount) -> list:
    lines = []
    for function, n in workloads.LIMIT_CASES:
        dom = graspa.PiecewiseDomain(graspa.Interval(-1.0, 1.0),
                                     graspa.experiments.FUNCTIONS[function][1])
        nodes = graspa.equispaced_nodes(n)
        part = graspa.partition_nodes(nodes, dom)
        for suffix, spec in (("", "auto"), ("_array", graspa.lebesgue_grid(dom, nodes))):
            name = f"limit_{function}_{n}{suffix}"
            with work.label(name):
                q = graspa.limit_lebesgue_prediction(part, dom, spec)
            floats = [q.predicted, *q.side_constants]
            floats += [] if q.r_max is None else [q.r_max]
            samples = "none" if q.r_samples is None else _sha(q.r_samples)
            lines.append(f"{name} {q.case} {' '.join(map(float.hex, floats))} {samples}")
    return lines


def passes(workdir: Path) -> list:
    lines = []
    for name in ("interp_stream", "interp_build"):
        workload = workloads.WORKLOADS[name](graspa, SEED, False, workdir, None)
        for op in workload.next_pass():
            result = op.fn()
            if name == "interp_build":  # (interpolant, points, values there, samples)
                interp, pts, y, _ = result
                result = (interp.mapped_nodes, interp.weights, pts, y)
            else:
                result = (result,)
            lines.append(f"{name} {op.label} {_sha(*result)}")
    return lines


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    for sub in ("figures", "sweep"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    work = _PointCount()
    figures(out / "figures", work)
    sweeps(out / "sweep", work)
    cli_calls(out / "cli")
    (out / "limits.txt").write_text("\n".join(limits(work)) + "\n")
    (out / "lebesgue_points.txt").write_text("\n".join(work.lines) + "\n")
    with tempfile.TemporaryDirectory() as workdir:
        (out / "passes.txt").write_text("\n".join(passes(Path(workdir))) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
