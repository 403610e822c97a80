"""The four benchmark workloads and the degree-ceiling scan.

Every workload turns its seed into inputs, hands out one pass of operations
at a time, and checks the outputs of the last pass against an oracle.  All
calls into graspa go through module attributes looked up at call time, so
the tracer's wrappers see them.

Why these four:
- figures: the paper-reproduction path (CLI, CSV, SVG, dense-grid Lebesgue).
- sweep_highdeg: high-degree Lebesgue sweeps, where O(m*n) memory peaks.
- interp_stream: the library read path; no Lebesgue code runs.
- interp_build: the write path; the only one where O(n^2) weights matter.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from oracle import Barycentric, close, compare

KAPPA = 10000.0
RMAE_GRID = 332


@dataclass
class Op:
    """One timed operation; ``items`` counts toward the work rate, ``latency``
    puts it in the latency quantiles."""

    fn: object
    label: str
    items: float = 1.0
    latency: bool = True
    output: object = field(default=None, repr=False)


def _domain(G, function):
    return G.PiecewiseDomain(G.Interval(-1.0, 1.0), G.experiments.FUNCTIONS[function][1])


def _chain(G, function, method, n=None):
    return G.experiments.method_chain(method, _domain(G, function), KAPPA, n)


def _quiet_cli(G, argv):
    """Run the CLI with the paths it prints sent to /dev/null."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return G.cli.main(argv)


class Figures:
    """Every figure id through ``graspa experiment <id> --svg``; inputs fixed by
    the paper, so the seed is unused."""

    def __init__(self, G, seed, tiny, workdir, reference):
        self.G = G
        self.ids = ("fig2", "fig4", "fig7") if tiny else tuple(G.experiments.FIGURE_IDS)
        self.out = workdir / "figures"
        self.out.mkdir(parents=True, exist_ok=True)
        self.reference = reference["figures"]

    def params(self):
        return {"figure_ids": list(self.ids), "kappa": KAPPA}

    def _figure(self, fid):
        code = _quiet_cli(self.G, ["experiment", fid, "--svg", "--out-dir", str(self.out)])
        if code != 0:
            raise RuntimeError(f"graspa experiment {fid} exited {code}")
        return code

    def next_pass(self):
        return [Op(lambda f=fid: self._figure(f), fid) for fid in self.ids]

    def gate(self, ops, errors):
        for name, ref in self.reference.items():
            if ref["figure"] not in self.ids:
                continue
            header, rows = read_csv(self.out / f"{name}.csv")
            if header != ref["header"]:
                errors.append(f"{name}: header {header[:4]}... differs from reference")
                continue
            if "rows" in ref:
                compare(name, rows, ref["rows"], ref["cond"], errors)
            else:
                if len(rows) != ref["n_rows"]:
                    errors.append(f"{name}: {len(rows)} rows, reference {ref['n_rows']}")
                    continue
                compare(f"{name} column max", rows.max(axis=0), ref["col_max"],
                        ref["cond"], errors)
            svg = self.out / f"{name}.svg"
            if ref["svg"] and not (svg.is_file() and svg.stat().st_size > 0):
                errors.append(f"{name}: SVG missing")

def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    return header, rows


SWEEP_CASES = (("f1", "classical", 51), ("f1", "graspa", 23), ("f1", "graspa", 89),
               ("f1", "graspa", 151), ("f2", "graspa", 89), ("f2", "graspa", 201))
LIMIT_CASES = (("f1", 89), ("f1", 50), ("f2", 87))  # odd, even, multi-equal splits


def case_name(function, method, n):
    return f"{function}_{method}_{n}"


class SweepHighDeg:
    """High-degree JSON sweeps through ``graspa experiment <config>`` and the
    closed-form limit predictions; inputs fixed, seed unused."""

    def __init__(self, G, seed, tiny, workdir, reference):
        self.G = G
        self.cases = SWEEP_CASES[1:2] if tiny else SWEEP_CASES
        self.limits = LIMIT_CASES[1:2] if tiny else LIMIT_CASES
        self.out = workdir / "sweep"
        self.out.mkdir(parents=True, exist_ok=True)
        self.reference = reference["sweep"]
        for function, method, n in self.cases:
            cfg = {"function": function, "methods": [method], "n": [n]}
            (self.out / f"{case_name(function, method, n)}.json").write_text(json.dumps(cfg))

    def params(self):
        return {"sweeps": [list(c) for c in self.cases],
                "limit_predictions": [list(c) for c in self.limits], "kappa": KAPPA}

    def _sweep(self, name):
        cfg = str(self.out / f"{name}.json")
        code = _quiet_cli(self.G, ["experiment", cfg, "--out-dir", str(self.out)])
        if code != 0:
            raise RuntimeError(f"graspa experiment {name}.json exited {code}")
        return code

    def _limit(self, function, n):
        dom = _domain(self.G, function)
        part = self.G.partition_nodes(self.G.equispaced_nodes(n), dom)
        return self.G.limit_lebesgue_prediction(part, dom)

    def next_pass(self):
        ops = [Op(lambda c=case_name(*c): self._sweep(c), case_name(*c))
               for c in self.cases]
        ops += [Op(lambda f=f, n=n: self._limit(f, n), f"limit_{f}_{n}")
                for f, n in self.limits]
        return ops

    def gate(self, ops, errors):
        for function, method, n in self.cases:
            name = case_name(function, method, n)
            ref = self.reference[name]
            header, rows = read_csv(self.out / f"{name}.csv")
            got = dict(zip(header, rows[0]))
            lam = got[f"lambda_{method}"]
            cond = (n + 1) * ref["lambda"]
            compare(f"{name} lambda", [lam], [ref["lambda"]], cond, errors)
            compare(f"{name} rmae", [got[f"rmae_{method}"]], [ref["rmae"]], cond, errors)
            # Lambda at the reference argmax, exactly, from the float mapped nodes.
            chain = _chain(self.G, function, method, n)
            s_nodes = chain(self.G.equispaced_nodes(n).nodes)
            exact = Barycentric(s_nodes).lebesgue(chain(ref["argmax_x"]))
            if not (close(exact, ref["lambda"], cond) and close(lam, exact, cond)):
                errors.append(f"{name}: 50-digit Lambda at argmax {exact!r}, float "
                              f"{lam!r}, reference {ref['lambda']!r}")
        by_label = {op.label: op.output for op in ops}
        for function, n in self.limits:
            label = f"limit_{function}_{n}"
            got, ref = by_label[label], self.reference[label]
            if got.case != ref["case"]:
                errors.append(f"{label}: case {got.case!r}, reference {ref['case']!r}")
                continue
            compare(label, [got.predicted, *got.side_constants],
                    [ref["predicted"], *ref["side_constants"]],
                    (n + 1) * np.array([ref["predicted"], *ref["side_constants"]]), errors)

# Degrees stay clear of each chain's ceiling (see ``degree_ceilings``), so
# no operation fails on any seed.
STREAM_INTERPOLANTS = (
    ("f1", "graspa", (23, 81, 161)), ("f1", "sgibbs", (23, 81, 155)),
    ("f1", "classical", (23, 41, 57)), ("f2", "graspa", (23, 81, 161)),
    ("f2", "sgibbs", (23, 81, 121)), ("f2", "classical", (23, 41, 57)),
)
SMALL_CALLS, SMALL_SIZE, LARGE_SIZE = 1000, (16, 64), 32768
CHECK_POINTS = 4


def _fit(G, function, method, n):
    nodes = G.equispaced_nodes(n)
    fn = G.experiments.FUNCTIONS[function][0]
    return G.build_interpolant(nodes, fn(nodes.nodes), _chain(G, function, method))


class InterpStream:
    """Evaluation calls on prebuilt interpolants: many small calls (per-call
    overhead, cache-resident) and one large call per interpolant per pass
    (m*n temporaries far beyond L2).  Every pass replays the same seeded
    stream.  Latency and work rate are those of the large calls."""

    def __init__(self, G, seed, tiny, workdir, reference):
        self.G = G
        rng = np.random.default_rng(seed)
        specs = [(f, m, n) for f, m, ns in STREAM_INTERPOLANTS for n in ns]
        if tiny:
            specs = specs[::4]
        self.specs = specs
        self.interps = [_fit(G, *spec) for spec in specs]
        small, large = (50, 2048) if tiny else (SMALL_CALLS, LARGE_SIZE)
        calls = []
        for _ in range(small):
            k = int(rng.integers(len(specs)))
            x = rng.uniform(-1.0, 1.0, int(rng.integers(*SMALL_SIZE, endpoint=True)))
            hits = 0
            if rng.random() < 0.25:  # exact node hits: values must come back bit-exact
                hits = int(rng.integers(1, 5))
                x[:hits] = rng.choice(self.interps[k].nodes, hits, replace=False)
            calls.append((k, x, hits, False))
        calls += [(k, rng.uniform(-1.0, 1.0, large), 0, True) for k in range(len(specs))]
        order = rng.permutation(len(calls))
        self.calls = [calls[i] for i in order]
        self.check_seed = int(rng.integers(2**32))
        self.large = large

    def params(self):
        return {"interpolants": [list(s) for s in self.specs],
                "small_calls_per_pass": sum(not c[3] for c in self.calls),
                "small_call_points": list(SMALL_SIZE),
                "large_call_points": self.large, "kappa": KAPPA}

    def next_pass(self):
        # Small calls count in pass_s only: their per-call latency swings by up
        # to 1.7x between runs on a shared 2-vCPU machine, beyond any bound.
        return [Op(lambda i=self.interps[k], x=x: i(x), f"eval_{k}",
                   items=x.size if large else 0.0, latency=large)
                for k, x, _, large in self.calls]

    def gate(self, ops, errors) -> float:
        rng = np.random.default_rng(self.check_seed)
        exact, worst = {}, 0.0
        value_at = [dict(zip(i.nodes, i.values)) for i in self.interps]
        for (k, x, hits, large), op in zip(self.calls, ops):
            interp, y = self.interps[k], op.output
            if hits and not np.array_equal(y[:hits], [value_at[k][v] for v in x[:hits]]):
                errors.append(f"eval_{k}: node values not reproduced exactly")
            # every large call, and the first small call of each interpolant
            if large or k not in exact:
                if k not in exact:
                    exact[k] = Barycentric(interp.mapped_nodes, interp.values,
                                           getattr(interp, "weights", None))
                pick = rng.choice(x.size, min(CHECK_POINTS, x.size), replace=False)
                worst = max(worst, exact[k].check_values(
                    interp.chain(x[pick]), y[pick], errors, f"eval {self.specs[k]}"))
        return worst


# Jittered sample positions fail earlier than equispaced ones: on some draws
# sgibbs fits raise from n=111 and f2 graspa at n=159, so each chain's range
# stops short of that; the ceilings themselves are the max_degree_* metrics.
BUILD_CHAINS = (("f1", "graspa", 151), ("f1", "sgibbs", 101), ("f1", "classical", 51),
                ("f2", "graspa", 151), ("f2", "sgibbs", 101), ("f2", "classical", 51))
DEGREES_PER_CHAIN, PROBE_POINTS, NODE_PROBES, CHECK_FITS = 8, 6, 2, 6


class InterpBuild:
    """Fits of f1/f2 at degrees spanning each chain's working range.  Every fit
    gets fresh seeded jitter of its sample positions and noise on its values,
    so nothing is shared between fits, and is evaluated at a handful of
    points (two of them nodes)."""

    def __init__(self, G, seed, tiny, workdir, reference):
        self.G = G
        self.rng = np.random.default_rng(seed)
        per = 2 if tiny else DEGREES_PER_CHAIN
        self.fits = [(f, m, int(n) | 1) for f, m, top in BUILD_CHAINS
                     for n in np.linspace(11, top, per).round()]
        self.chains = {(f, m): _chain(G, f, m) for f, m, _ in BUILD_CHAINS}
        self.check_seed = int(self.rng.integers(2**32))

    def params(self):
        return {"fits_per_pass": [list(f) for f in self.fits],
                "jitter": "uniform, 0.25 spacing, nodes within half a spacing of "
                          "a breakpoint fixed", "value_noise_sd": 1e-6,
                "probe_points": PROBE_POINTS + NODE_PROBES, "kappa": KAPPA}

    def _inputs(self, function, n):
        cuts = np.array((-1.0, 1.0) + self.G.experiments.FUNCTIONS[function][1])
        base = np.linspace(-1.0, 1.0, n + 1)
        h = 2.0 / n
        free = np.min(np.abs(base[:, None] - cuts[None, :]), axis=1) > h / 2
        jitter = np.where(free, self.rng.uniform(-0.25 * h, 0.25 * h, n + 1), 0.0)
        noise = self.rng.normal(0.0, 1e-6, n + 1)
        probe_nodes = self.rng.choice(n + 1, NODE_PROBES, replace=False)
        return jitter, noise, self.rng.uniform(-1.0, 1.0, PROBE_POINTS), probe_nodes

    def _fit(self, function, method, n, jitter, noise, probe, probe_nodes):
        G = self.G
        x = G.equispaced_nodes(n).nodes + jitter
        values = getattr(G.experiments, function)(x) + noise
        interp = G.build_interpolant(x, values, self.chains[function, method])
        pts = np.concatenate([probe, x[probe_nodes]])
        return interp, pts, interp(pts), values[probe_nodes]

    def next_pass(self):
        return [Op(lambda f=f, m=m, n=n, inp=self._inputs(f, n): self._fit(f, m, n, *inp),
                   case_name(f, m, n)) for f, m, n in self.fits]

    def gate(self, ops, errors) -> float:
        for op in ops:
            _, _, y, node_values = op.output
            if not np.array_equal(y[PROBE_POINTS:], node_values):
                errors.append(f"{op.label}: node values not reproduced exactly")
        rng = np.random.default_rng(self.check_seed)
        worst = 0.0
        for i in rng.choice(len(ops), min(CHECK_FITS, len(ops)), replace=False):
            interp, pts, y, _ = ops[i].output
            worst = max(worst, Barycentric(interp.mapped_nodes, interp.values,
                                           getattr(interp, "weights", None)).check_values(
                interp.chain(pts), y, errors, ops[i].label))
        return worst


WORKLOADS = {"figures": Figures, "sweep_highdeg": SweepHighDeg,
             "interp_stream": InterpStream, "interp_build": InterpBuild}

CEILING_CHAINS = {"max_degree_f1_graspa": ("f1", "graspa"),
                  "max_degree_f2_graspa": ("f2", "graspa"),
                  "max_degree_f2_sgibbs": ("f2", "sgibbs"),
                  "max_degree_classical": ("f1", "classical")}
CEILING_START, CEILING_CAP = 11, 699


def degree_ceilings(G):
    """Highest odd degree from 11 up (cap 699) at which building the
    interpolant and evaluating it on the 332-point RMAE grid succeeds.  A
    raise ends the scan; it is the result, not a failed operation."""
    grid = np.linspace(-1.0, 1.0, RMAE_GRID)
    out = {}
    for metric, (function, method) in CEILING_CHAINS.items():
        best, first_fail = CEILING_START - 2, None
        for n in range(CEILING_START, CEILING_CAP + 1, 2):
            try:
                _fit(G, function, method, n)(grid)
            except Exception as exc:  # any raise ends the scan and is recorded
                first_fail = {"degree": n, "error": f"{type(exc).__name__}: {exc}"}
                break
            best = n
        out[metric] = {"max_degree": best, "first_failure": first_fail}
    return out
