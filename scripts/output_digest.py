#!/usr/bin/env python3
"""Write the outputs whose bits a change should keep into one directory.

Usage (from any directory):
    python scripts/output_digest.py OUT_DIR

OUT_DIR receives:
- figures/: every file that ``scripts/run_figures.py`` writes (CSV and SVG);
- sweep/: the CSVs of the benchmark's sweep_highdeg JSON sweeps;
- limits.txt: its limit predictions, each as its case, the float hex of the
  prediction, the side constants and r_max, and the SHA-256 of r_samples;
- passes.txt: the SHA-256 of each operation's outputs in one interp_stream
  pass and one interp_build pass, on a fixed seed.
The cases come from ``perfbench/workloads.py``, and graspa is imported from
this checkout's ``src/``.  Run the script in two checkouts and compare the
two directories with ``diff -r``: an empty diff means every output kept its
bits.
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


def figures(out: Path) -> None:
    for fig_id in graspa.experiments.FIGURE_IDS:
        _quiet_main(["experiment", fig_id, "--svg", "--out-dir", str(out)])


def sweeps(out: Path) -> None:
    with tempfile.TemporaryDirectory() as configs:
        for function, method, n in workloads.SWEEP_CASES:
            cfg = Path(configs) / f"{workloads.case_name(function, method, n)}.json"
            cfg.write_text(json.dumps({"function": function, "methods": [method],
                                       "n": [n]}))
            _quiet_main(["experiment", str(cfg), "--out-dir", str(out)])


def limits() -> list:
    lines = []
    for function, n in workloads.LIMIT_CASES:
        dom = graspa.PiecewiseDomain(graspa.Interval(-1.0, 1.0),
                                     graspa.experiments.FUNCTIONS[function][1])
        q = graspa.limit_lebesgue_prediction(
            graspa.partition_nodes(graspa.equispaced_nodes(n), dom), dom)
        floats = [q.predicted, *q.side_constants] + ([] if q.r_max is None else [q.r_max])
        samples = "none" if q.r_samples is None else _sha(q.r_samples)
        lines.append(f"limit_{function}_{n} {q.case} {' '.join(map(float.hex, floats))} "
                     f"{samples}")
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
    figures(out / "figures")
    sweeps(out / "sweep")
    (out / "limits.txt").write_text("\n".join(limits()) + "\n")
    with tempfile.TemporaryDirectory() as workdir:
        (out / "passes.txt").write_text("\n".join(passes(Path(workdir))) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
