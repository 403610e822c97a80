#!/usr/bin/env python3
"""graspa benchmark: one workload per run, metrics as one JSON line.

Usage (from the repository root):
    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with no wrappers installed;
--trace 1 gives the per-layer metrics (spans recorded from outside the
package, alternating traced and untraced passes).  Times are reported at
reference machine speed (see SpeedIndex).  Each run also makes one
tracemalloc pass, checks the outputs of its last timed pass, and writes a
results file with the run environment under .perfbench_out/results/.  The
last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit codes: 0 ok, 1 an output was wrong or an operation failed, 2 the
package could not be imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = str(NPROC)

SETUP_SAMPLES = 6
COVERAGE_SLACK = 0.15
PER_CALL_PEAKS = (("stability", "lebesgue_function"), ("interpolation", "eval_interpolant"))
MB = 1e6


def import_graspa():
    """Import graspa from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import graspa
        import graspa.cli  # not imported by the package itself; loads svgplot too
    except ImportError as exc:
        print(f"cannot import graspa from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if Path(graspa.__file__).resolve().parent.parent != src:
        print(f"graspa imported from {graspa.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return graspa


def make_workload(args, workdir):
    """Import the package and generate the workload's inputs: the set-up."""
    G = import_graspa()
    import workloads
    return G, workloads.WORKLOADS[args.workload](G, args.seed, args.tiny, workdir,
                                                 args.reference_data)


def setup_probe(args, workdir) -> None:
    t0 = time.perf_counter()
    make_workload(args, workdir)
    dt = time.perf_counter() - t0
    print(json.dumps({"setup_s": dt}))


def measure_setup(args):
    """Set-up time in fresh interpreters at reference machine speed.

    One warm-up probe, then SETUP_SAMPLES probes pinned to the usable CPUs in
    turn, each after a speed sample on that CPU.  The result is the mean over
    CPUs of the median probe time on each, divided by the speed factor of
    those samples.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--reference", str(args.reference), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = {cpu: [] for cpu in cpus}
    speed = SpeedIndex()
    for i in range(1 + (len(cpus) if args.tiny else SETUP_SAMPLES)):
        cpu = cpus[i % len(cpus)]
        os.sched_setaffinity(0, {cpu})  # the probe inherits it
        try:
            speed.sample(force=True)
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=120)
        finally:
            os.sched_setaffinity(0, cpus)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
        if i > 0:
            per_cpu[cpu].append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    raw = statistics.fmean(statistics.median(v) for v in per_cpu.values() if v)
    return raw / speed.factor(), per_cpu


class SpeedIndex:
    """How fast the machine runs right now, relative to a fixed reference.

    On a shared machine whole runs go 20-70% slower or faster together, for
    tens of seconds at a time.  Two fixed kernels that do not touch graspa
    track that: an interpreter-bound loop with small numpy calls, and a
    memory-bound pass over 16 MB.  They are timed about once a second
    between passes; the factor is the geometric mean of their median times
    over REFERENCE_S, so a factor of 1.2 means the machine ran 20% slow.
    """

    REFERENCE_S = (0.0021, 0.0165)
    INTERVAL_S = 1.0

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.last = -math.inf

    @staticmethod
    def _interpreter() -> float:
        import numpy as np
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        a = np.arange(50.0)
        for _ in range(200):
            a = np.abs(a - 1.0)
        return time.perf_counter() - t0

    @staticmethod
    def _memory() -> float:
        import numpy as np
        t0 = time.perf_counter()
        b = np.empty((2000, 1000))
        b.fill(2.0)
        np.abs(b / 3.0).sum(axis=1)
        return time.perf_counter() - t0

    def sample(self, force=False) -> None:
        if force or time.perf_counter() - self.last >= self.INTERVAL_S:
            self.samples.append((min(self._interpreter() for _ in range(3)),
                                 min(self._memory() for _ in range(2))))
            self.last = time.perf_counter()

    def factor(self) -> float:
        ratios = [statistics.median(s[k] for s in self.samples) / ref
                  for k, ref in enumerate(self.REFERENCE_S)]
        return math.sqrt(ratios[0] * ratios[1])


class Passes:
    """Timings and failures of timed passes.

    Every pass runs the same sequence of operations (the inputs of
    interp_build are fresh each pass, their shapes are not), so the k-th
    operation of each pass is one repeated measurement.  Passes alternate
    between the usable CPUs; an operation's latency is the mean over CPUs of
    its median time on each, which keeps both the occasional slow outlier
    and a CPU that runs slow for a while from deciding the result.
    """

    def __init__(self, cpus, group=1):
        self.cpus = cpus
        self.group = group  # consecutive passes on one CPU (traced + untraced)
        self.walls: list[float] = []
        self.op_times: list[list[list[float]]] = []  # [op][cpu slot] -> times
        self.op_kinds: list[tuple[bool, float]] = []  # (latency, items) per op
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def run(self, ops, timed=True) -> float:
        slot = len(self.walls) // self.group % len(self.cpus)
        if timed:
            os.sched_setaffinity(0, {self.cpus[slot]})
            if not self.op_times:
                self.op_times = [[[] for _ in self.cpus] for _ in ops]
                self.op_kinds = [(op.latency, op.items) for op in ops]
        start = time.perf_counter()
        for k, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out = op.fn()
                if timed:  # the gate reads these; untimed passes keep nothing
                    op.output = out
                del out
            except Exception as exc:  # a failed operation is counted, not fatal
                if timed:
                    self.failed += 1
                    if len(self.errors) < 5:
                        self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            if timed:
                self.attempted += 1
                self.op_times[k][slot].append(dt)
        wall = time.perf_counter() - start
        if timed:
            self.walls.append(wall)
            os.sched_setaffinity(0, self.cpus)
        return wall

    def op_medians(self):
        return [statistics.fmean(statistics.median(t) for t in per_cpu if t)
                for per_cpu in self.op_times]

    def other_op_ms(self):
        """p50/p95 of the operations kept out of the latency metrics."""
        ms = [1e3 * t for t, (lat, _) in zip(self.op_medians(), self.op_kinds) if not lat]
        return {"p50": quantile(ms, 0.5), "p95": quantile(ms, 0.95)} if ms else {}


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1])."""
    vals = sorted(values)
    pos = q * (len(vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def end_to_end(passes, setup, peak_bytes, ceilings, speed):
    """Times at reference machine speed: measured time / speed factor."""
    med = [t / speed for t in passes.op_medians()]
    latency_ms = [1e3 * t for t, (lat, _) in zip(med, passes.op_kinds) if lat]
    rate_ops = [(t, items) for t, (_, items) in zip(med, passes.op_kinds) if items]
    metrics = {
        "setup_s": (setup, "s"),
        "pass_s": (sum(med), "s"),
        "op_ms_p50": (quantile(latency_ms, 0.50), "ms"),
        "op_ms_p95": (quantile(latency_ms, 0.95), "ms"),
        "work_per_s": (sum(i for _, i in rate_ops) / sum(t for t, _ in rate_ops), "1/s"),
        "peak_mb": (peak_bytes / MB, "MB"),
    }
    for name, info in ceilings.items():
        metrics[name] = (info["max_degree"], "count")
    return metrics


def per_layer(untraced, traced, snapshots, memory, passes, speed):
    """Per-pass layer metrics: medians of self times (at reference machine
    speed), means of counts."""
    from tracing import COUNTERS, SPANS
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.self_s"] = (
            statistics.median(s.get(span, 0.0) for s, _ in snapshots) / speed, "s")
    for key, unit in COUNTERS.items():
        metrics[key] = (sum(c.get(key, 0.0) for _, c in snapshots) / len(snapshots), unit)
    layer_self = [sum(s.values()) for s, _ in snapshots]
    t_u, t_t = statistics.median(untraced), statistics.median(traced)
    metrics["bench.harness.self_s"] = (
        statistics.median(w - ls for w, ls in zip(traced, layer_self)) / speed, "s")
    metrics["trace.overhead_frac"] = (t_t / t_u - 1.0, "ratio")
    metrics["trace.coverage_frac"] = (statistics.median(layer_self) / t_u, "ratio")
    for mod, name in PER_CALL_PEAKS:
        metrics[f"{mod}.{name}.peak_mb"] = (memory.call_peak.get(f"{mod}.{name}", 0) / MB,
                                            "MB")
    metrics["failed_frac"] = (passes.failed / max(passes.attempted, 1), "ratio")
    return metrics


def environment(args, wl):
    import numpy as np
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": commit, "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": NPROC, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "inputs": wl.params()}


def measure(args, workdir):
    import_graspa()  # fail fast, before any probe, when ./src has no graspa
    setup, setup_probes = (None, None) if args.trace else measure_setup(args)
    G, wl = make_workload(args, workdir)
    import tracing
    import workloads

    # The memory pass doubles as the warm-up; it is never timed.
    passes = Passes(sorted(os.sched_getaffinity(0)), group=2 if args.trace else 1)
    with tracing.MemoryProbe(G, PER_CALL_PEAKS if args.trace else ()) as memory:
        passes.run(wl.next_pass(), timed=False)

    tracer = tracing.Tracer(G) if args.trace else None
    untraced, traced, snapshots = [], [], []
    speed = SpeedIndex()
    speed.sample(force=True)
    deadline = time.perf_counter() + args.seconds
    while True:
        speed.sample()
        ops = wl.next_pass()
        untraced.append(passes.run(ops))
        if tracer is not None:
            ops = wl.next_pass()
            tracer.reset()
            tracer.install()
            try:
                traced.append(passes.run(ops))
            finally:
                tracer.uninstall()
            snapshots.append((dict(tracer.self_s), dict(tracer.counts)))
        if time.perf_counter() >= deadline:
            break
    speed.sample(force=True)
    factor = speed.factor()

    errors = list(passes.errors)
    exact_ratio = (wl.gate(ops, errors) or 0.0) if passes.failed == 0 else 0.0
    if tracer is not None:
        metrics = per_layer(untraced, traced, snapshots, memory, passes, factor)
        metrics["interpolation.exact_error_ratio"] = (exact_ratio, "ratio")
        coverage, overhead = (metrics["trace.coverage_frac"][0],
                              metrics["trace.overhead_frac"][0])
        if abs(coverage - 1.0) > abs(overhead) + COVERAGE_SLACK:
            errors.append(f"layer self times cover {coverage:.3f} of the untraced pass "
                          f"time; overhead {overhead:.3f}")
        extra = {}
    else:
        ceilings = workloads.degree_ceilings(G)
        metrics = end_to_end(passes, setup, memory.peak_bytes, ceilings, factor)
        extra = {"degree_ceilings": ceilings, "exact_error_ratio": exact_ratio,
                 "setup_probes_s": setup_probes, "pass_walls_s": passes.walls,
                 "unbounded_op_ms": passes.other_op_ms()}
    extra["speed_factor"] = factor
    extra["speed_samples_s"] = speed.samples
    return {"correct": not errors, "attempted": passes.attempted, "failed": passes.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }, errors, environment(args, wl), extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "sweep_highdeg", "interp_stream",
                                 "interp_build"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload's inputs (smoke test)")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json",
                        help="recorded reference outputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.reference_data = json.loads(args.reference.read_text())
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            setup_probe(args, workdir)
            return 0
        result, errors, env, extra = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in errors:
        print(f"check failed: {err}")
    for name, info in extra.get("degree_ceilings", {}).items():
        fail = info["first_failure"] or {"degree": "none up to the cap", "error": ""}
        print(f"{name}: first failure at degree {fail['degree']} {fail['error']}")
    print(f"speed factor = {extra['speed_factor']!r} (times below are measured / factor)")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"environment": env, "result": result, "errors": errors,
                                **extra}, indent=1, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
