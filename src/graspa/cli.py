"""Command-line front end.

Subcommands: ``nodes`` (node families, optionally mapped), ``map`` (sample a
named map on a grid), ``interp`` (one interpolation run), ``lebesgue``
(Lebesgue function and constant), ``lagmatrix`` (absolute basis matrix), and
``experiment`` (figure reproduction by id, or a JSON sweep config).  All
outputs are CSV with a header row and 17-significant-digit floats, written
under --out-dir (default: $GRASPA_OUT_DIR or the working directory).

Exit codes: 0 ok, 2 invalid flags/config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .domain import Interval, PiecewiseDomain, bg_chebyshev_nodes, equispaced_nodes, \
    partition_nodes
from .exceptions import EvaluationError
from .experiments import DEFAULT_KAPPA, ExperimentConfig, FIGURE_IDS, FUNCTIONS, \
    METHODS, build_figure, method_chain, run_comparison, sweep_table
from .interpolation import build_interpolant
from .maps import _ALPHA_CHAINS, CHAIN_NAMES, named_chain
from .stability import lagrange_matrix, lebesgue_constant
from .svgplot import write_line_svg


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in np.atleast_2d(np.asarray(rows, dtype=float)):
            writer.writerow([_fmt(v) for v in row])


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get("GRASPA_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_cuts(text: str | None) -> tuple[float, ...]:
    if not text:
        return ()
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_interval(text: str) -> Interval:
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"interval must be 'a,b', got {text!r}")
    return Interval(parts[0], parts[1])


def _balance_gate(nodes, domain: PiecewiseDomain, strict: bool) -> bool:
    """Warn (or fail under --strict) when the per-subinterval counts are off."""
    if not domain.cuts:
        return True
    part = partition_nodes(nodes, domain)
    if part.balanced:
        return True
    print(f"warning: per-subinterval node counts {part.cardinalities} violate "
          "the balance condition; the shifted basis is unstable", file=sys.stderr)
    return not strict


def _map_chain(args, domain: PiecewiseDomain):
    """The --map chain; an --alpha the chain would ignore is an error."""
    if args.alpha != 1.0 and args.map not in _ALPHA_CHAINS:
        raise ValueError(f"--alpha applies only to {' and '.join(_ALPHA_CHAINS)}; "
                         f"the {args.map} chain does not take it (GRASPA fixes "
                         "alpha = 1)")
    return named_chain(args.map, domain, args.kappa, args.alpha, args.n)


def _cmd_nodes(args) -> int:
    interval = _parse_interval(args.interval)
    if args.kind == "equispaced":
        nodes = equispaced_nodes(args.n, interval)
    else:
        nodes = bg_chebyshev_nodes(args.n, args.beta, args.gamma)
    header = ["node"]
    cols = [nodes.nodes]
    if args.map:
        domain = PiecewiseDomain(interval, _parse_cuts(args.cuts))
        if not _balance_gate(nodes, domain, args.strict):
            return 2
        chain = _map_chain(args, domain)
        header.append("mapped")
        cols.append(np.asarray(chain(nodes.nodes)))
    path = _out_dir(args) / "nodes.csv"
    _write_csv(path, header, np.column_stack(cols))
    print(path)
    return 0


def _cmd_map(args) -> int:
    interval = _parse_interval(args.interval)
    domain = PiecewiseDomain(interval, _parse_cuts(args.cuts))
    chain = _map_chain(args, domain)
    grid = np.linspace(interval.a, interval.b, args.grid)
    path = _out_dir(args) / "map.csv"
    _write_csv(path, ["x", "mapped"], np.column_stack([grid, chain(grid)]))
    print(path)
    return 0


def _cmd_interp(args) -> int:
    fn, default_cuts = FUNCTIONS[args.function]
    cuts = _parse_cuts(args.cuts) if args.cuts is not None else default_cuts
    domain = PiecewiseDomain(Interval(-1.0, 1.0), cuts)
    nodes = equispaced_nodes(args.n)
    if args.method != "classical" and not _balance_gate(nodes, domain, args.strict):
        return 2
    chain = method_chain(args.method, domain, args.kappa, args.n)
    interp = build_interpolant(nodes, fn(nodes.nodes), chain)
    grid = np.linspace(-1.0, 1.0, args.grid)
    path = _out_dir(args) / "interp.csv"
    _write_csv(path, ["x", "f", "r"], np.column_stack([grid, fn(grid), interp(grid)]))
    print(path)
    return 0


def _cmd_lebesgue(args) -> int:
    domain = PiecewiseDomain(_parse_interval(args.interval), _parse_cuts(args.cuts))
    nodes = equispaced_nodes(args.n, domain.interval)
    if args.method != "classical" and not _balance_gate(nodes, domain, args.strict):
        return 2
    chain = method_chain(args.method, domain, args.kappa, args.n)
    spec = "auto" if args.grid == "auto" else int(args.grid)
    report = lebesgue_constant(nodes, chain, domain, spec)
    path = _out_dir(args) / "lebesgue.csv"
    _write_csv(path, ["x", "lambda"],
               np.column_stack([report.grid, report.lebesgue_values]))
    print(path)
    print(f"lebesgue_constant = {_fmt(report.lebesgue_constant)}")
    return 0


def _cmd_lagmatrix(args) -> int:
    domain = PiecewiseDomain(_parse_interval(args.interval), _parse_cuts(args.cuts))
    nodes = equispaced_nodes(args.n, domain.interval)
    if args.method != "classical" and not _balance_gate(nodes, domain, args.strict):
        return 2
    chain = method_chain(args.method, domain, args.kappa, args.n)
    grid = np.linspace(domain.interval.a, domain.interval.b, args.grid)
    mat = lagrange_matrix(nodes, chain, grid)
    path = _out_dir(args) / "lagmatrix.csv"
    _write_csv(path, [_fmt(x) for x in grid], mat)
    print(path)
    return 0


def _write_figure_outputs(outputs, out: Path, svg: bool) -> None:
    for table in outputs:
        path = out / f"{table.name}.csv"
        _write_csv(path, table.header, table.rows)
        print(path)
        if svg and table.kind == "xy" and len(table.header) > 1:
            series = [(label, table.rows[:, k + 1])
                      for k, label in enumerate(table.header[1:])]
            svg_path = out / f"{table.name}.svg"
            write_line_svg(svg_path, table.rows[:, 0], series,
                           xlabel=table.header[0], title=table.name,
                           logy=table.logy)
            print(svg_path)


def _cmd_experiment(args) -> int:
    out = _out_dir(args)
    if args.target in FIGURE_IDS:
        _write_figure_outputs(build_figure(args.target), out, args.svg)
        return 0
    cfg_path = Path(args.target)
    if not cfg_path.is_file():
        print(f"error: {args.target!r} is neither a figure id {FIGURE_IDS} nor a "
              "config file", file=sys.stderr)
        return 2
    with open(cfg_path) as fh:
        config = ExperimentConfig.from_json_dict(json.load(fh))
    result = run_comparison(config)
    flagged = sum(not c.ok for c in result.cells)
    failed = flagged * 2 > len(result.cells)
    # a mostly-NaN sweep has nothing to plot: its CSV is still written
    _write_figure_outputs((sweep_table(cfg_path.stem, result, ("rmae", "lebesgue")),),
                          out, args.svg and not failed)
    if failed:
        print(f"error: {flagged}/{len(result.cells)} cells overflowed",
              file=sys.stderr)
        return 3
    return 0


def _add_common(p, *, out_dir=True):
    if out_dir:
        p.add_argument("--out-dir", default=None,
                       help="output directory (default: $GRASPA_OUT_DIR or .)")
    p.add_argument("--strict", action="store_true",
                   help="treat balance-condition warnings as errors")


# built once per process: parsing does not change the parser, and nothing in it
# depends on the environment ($GRASPA_OUT_DIR is read when a command runs)
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graspa",
        description="Mapped-basis polynomial interpolation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nodes", help="generate a node family, optionally mapped")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("equispaced", "bgcheb"), default="equispaced")
    p.add_argument("--interval", default="-1,1")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--map", choices=CHAIN_NAMES, default=None)
    p.add_argument("--cuts", default=None)
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    p.add_argument("--alpha", type=float, default=1.0,
                   help="stretch parameter of kte and mkte")
    _add_common(p)
    p.set_defaults(func=_cmd_nodes)

    p = sub.add_parser("map", help="sample a named map on a uniform grid")
    p.add_argument("--map", choices=CHAIN_NAMES, required=True)
    p.add_argument("--interval", default="-1,1")
    p.add_argument("--cuts", default=None)
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    p.add_argument("--alpha", type=float, default=1.0,
                   help="stretch parameter of kte and mkte")
    p.add_argument("--n", type=int, default=None,
                   help="degree (needed by graspa+vn)")
    p.add_argument("--grid", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("interp", help="interpolate a benchmark function once")
    p.add_argument("--function", choices=tuple(FUNCTIONS), default="f1")
    p.add_argument("--method", choices=METHODS, default="graspa")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cuts", default=None,
                   help="comma list; defaults to the function's jumps")
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    p.add_argument("--grid", type=int, default=332)
    _add_common(p)
    p.set_defaults(func=_cmd_interp)

    p = sub.add_parser("lebesgue", help="Lebesgue function and constant")
    p.add_argument("--method", choices=METHODS, default="classical")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--interval", default="-1,1")
    p.add_argument("--cuts", default=None)
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    p.add_argument("--grid", default="auto",
                   help="'auto' or per-subinterval point count")
    _add_common(p)
    p.set_defaults(func=_cmd_lebesgue)

    p = sub.add_parser("lagmatrix", help="absolute mapped-basis matrix on a grid")
    p.add_argument("--method", choices=METHODS, default="graspa")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--interval", default="-1,1")
    p.add_argument("--cuts", default=None)
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    p.add_argument("--grid", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=_cmd_lagmatrix)

    p = sub.add_parser("experiment", help="reproduce a figure or run a JSON config")
    p.add_argument("target", help=f"figure id ({', '.join(FIGURE_IDS)}) or a "
                                  "JSON config path")
    p.add_argument("--svg", action="store_true", help="also write SVG line plots")
    _add_common(p)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except EvaluationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
