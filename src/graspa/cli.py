"""Command-line front end.

Subcommands: ``nodes`` (node families, optionally mapped), ``map`` (sample a
named map on a grid), ``interp`` (one interpolation run), ``lebesgue``
(Lebesgue function and constant), ``lagmatrix`` (absolute basis matrix), and
``experiment`` (figure reproduction by id, or a JSON sweep config).  All
outputs are CSV with a header row and 17-significant-digit floats, written
under --out-dir (default: $GRASPA_OUT_DIR or the working directory) by one
step, :func:`_write_figure_outputs`, which also prints each path.

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
from .experiments import DEFAULT_KAPPA, FIGURE_IDS, FLOAT_FORMAT, FUNCTIONS, METHODS, \
    ExperimentConfig, FigureOutput, build_figure, matrix_table, method_chain, \
    run_comparison, sweep_table
from .interpolation import build_interpolant
from .maps import _ALPHA_CHAINS, _CUTLESS_CHAINS, _SHIFTLESS_CHAINS, CHAIN_NAMES, \
    named_chain
from .stability import lebesgue_constant
from .svgplot import write_line_svg


_CSV_BLOCK_VALUES = 4096  # values formatted by one string-format call


def _write_csv(path: Path, header, rows) -> None:
    """Header through the csv module (quoting as needed), then the rows in
    ``FLOAT_FORMAT``, whole rows of about 4096 values formatted at a time from
    Python floats; CRLF line ends throughout, as csv writes them."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    line = ",".join([FLOAT_FORMAT] * rows.shape[1]) + "\r\n"
    per_block = max(1, _CSV_BLOCK_VALUES // max(1, rows.shape[1]))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(header))
        for lo in range(0, rows.shape[0], per_block):
            block = rows[lo:lo + per_block]
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def _write_figure_outputs(args, outputs, svg: bool = False) -> None:
    """Write each table as <name>.csv under the output directory, and as
    <name>.svg when asked and it is a line plot; print every path written."""
    out = Path(args.out_dir or os.environ.get("GRASPA_OUT_DIR") or ".")
    out.mkdir(parents=True, exist_ok=True)
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


def _parse_interval(text: str) -> Interval:
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"interval must be 'a,b', got {text!r}")
    return Interval(parts[0], parts[1])


def _domain(args, default_cuts=()) -> PiecewiseDomain:
    """--interval ([-1, 1] where the command has none) cut at --cuts, or at
    default_cuts when --cuts is not given."""
    cuts = default_cuts if args.cuts is None else tuple(
        float(tok) for tok in args.cuts.split(",") if tok.strip())
    return PiecewiseDomain(_parse_interval(getattr(args, "interval", "-1,1")), cuts)


def _balance_gate(nodes, domain: PiecewiseDomain, strict: bool) -> None:
    """Warn (or fail under --strict) when the per-subinterval counts are off."""
    if not domain.cuts:
        return
    part = partition_nodes(nodes, domain)
    if part.balanced:
        return
    message = (f"per-subinterval node counts {part.cardinalities} violate the "
               "balance condition; the shifted basis is unstable")
    if strict:
        raise ValueError(message)
    print(f"warning: {message}", file=sys.stderr)


def _map_chain(args, domain: PiecewiseDomain):
    """The --map chain; an --alpha, --cuts or --kappa the chain would ignore
    is an error."""
    if args.alpha != 1.0 and args.map not in _ALPHA_CHAINS:
        raise ValueError(f"--alpha applies only to {' and '.join(_ALPHA_CHAINS)}; "
                         f"the {args.map} chain does not take it (GRASPA fixes "
                         "alpha = 1)")
    if domain.cuts and args.map in _CUTLESS_CHAINS:
        raise ValueError(f"--cuts does not apply to {' and '.join(_CUTLESS_CHAINS)}; "
                         f"the {args.map} chain never reads the cuts")
    if args.kappa != DEFAULT_KAPPA and args.map in _SHIFTLESS_CHAINS:
        raise ValueError(f"--kappa does not apply to {', '.join(_SHIFTLESS_CHAINS)}; "
                         f"the {args.map} chain has no shift")
    return named_chain(args.map, domain, args.kappa, args.alpha, args.n)


def _method_setup(args, domain: PiecewiseDomain):
    """Equispaced nodes on the domain and the --method chain; every mapped
    method passes the balance gate first, and --kappa is an error on the
    classical method, which has no shift."""
    if args.kappa != DEFAULT_KAPPA and args.method == "classical":
        raise ValueError("--kappa does not apply to classical; "
                         "the classical method has no shift")
    nodes = equispaced_nodes(args.n, domain.interval)
    if args.method != "classical":
        _balance_gate(nodes, domain, args.strict)
    return nodes, method_chain(args.method, domain, args.kappa, args.n)


def _cmd_nodes(args) -> int:
    interval = _parse_interval(args.interval)
    if args.kind == "equispaced":
        for flag, value in (("--beta", args.beta), ("--gamma", args.gamma)):
            if value != 0.0:
                raise ValueError(f"{flag} applies only to bgcheb nodes; "
                                 "equispaced nodes do not take it")
        nodes = equispaced_nodes(args.n, interval)
    else:
        if interval != Interval(-1.0, 1.0):
            raise ValueError("--interval applies only to equispaced nodes; "
                             "bgcheb nodes lie on [-1, 1]")
        nodes = bg_chebyshev_nodes(args.n, args.beta, args.gamma)
    header = ["node"]
    cols = [nodes.nodes]
    if args.map:
        domain = _domain(args)
        chain = _map_chain(args, domain)
        _balance_gate(nodes, domain, args.strict)
        header.append("mapped")
        cols.append(np.asarray(chain(nodes.nodes)))
    rows = np.column_stack(cols)
    _write_figure_outputs(args, (FigureOutput("nodes", tuple(header), rows),))
    return 0


def _cmd_map(args) -> int:
    domain = _domain(args)
    chain = _map_chain(args, domain)
    grid = np.linspace(domain.interval.a, domain.interval.b, args.grid)
    rows = np.column_stack([grid, chain(grid)])
    _write_figure_outputs(args, (FigureOutput("map", ("x", "mapped"), rows),))
    return 0


def _cmd_interp(args) -> int:
    fn, default_cuts = FUNCTIONS[args.function]
    nodes, chain = _method_setup(args, _domain(args, default_cuts))
    interp = build_interpolant(nodes, fn(nodes.nodes), chain)
    grid = np.linspace(-1.0, 1.0, args.grid)
    rows = np.column_stack([grid, fn(grid), interp(grid)])
    _write_figure_outputs(args, (FigureOutput("interp", ("x", "f", "r"), rows),))
    return 0


def _cmd_lebesgue(args) -> int:
    domain = _domain(args)
    nodes, chain = _method_setup(args, domain)
    spec = "auto" if args.grid == "auto" else int(args.grid)
    report = lebesgue_constant(nodes, chain, domain, spec)
    rows = np.column_stack([report.grid, report.lebesgue_values])
    _write_figure_outputs(args, (FigureOutput("lebesgue", ("x", "lambda"), rows),))
    print(f"lebesgue_constant = {FLOAT_FORMAT % report.lebesgue_constant}")
    return 0


def _cmd_lagmatrix(args) -> int:
    domain = _domain(args)
    nodes, chain = _method_setup(args, domain)
    grid = np.linspace(domain.interval.a, domain.interval.b, args.grid)
    _write_figure_outputs(args, (matrix_table("lagmatrix", nodes, chain, grid),))
    return 0


def _cmd_experiment(args) -> int:
    if args.target in FIGURE_IDS:
        _write_figure_outputs(args, build_figure(args.target), args.svg)
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
    table = sweep_table(cfg_path.stem, result, ("rmae", "lebesgue"))
    _write_figure_outputs(args, (table,), args.svg and not failed)
    if failed:
        print(f"error: {flagged}/{len(result.cells)} cells overflowed",
              file=sys.stderr)
        return 3
    return 0


def _add_domain(p, *, interval=True, cuts_help=None):
    """The domain options: --interval (where the command takes one), --cuts
    and the shift --kappa."""
    if interval:
        p.add_argument("--interval", default="-1,1")
    p.add_argument("--cuts", default=None, help=cuts_help)
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)


def _add_map(p, *, required: bool):
    p.add_argument("--map", choices=CHAIN_NAMES, required=required, default=None)
    p.add_argument("--alpha", type=float, default=1.0,
                   help="stretch parameter of kte and mkte")


def _add_common(p, func):
    p.add_argument("--out-dir", default=None,
                   help="output directory (default: $GRASPA_OUT_DIR or .)")
    p.add_argument("--strict", action="store_true",
                   help="treat balance-condition warnings as errors")
    p.set_defaults(func=func)


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
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    _add_map(p, required=False)
    _add_domain(p)
    _add_common(p, _cmd_nodes)

    p = sub.add_parser("map", help="sample a named map on a uniform grid")
    _add_map(p, required=True)
    _add_domain(p)
    p.add_argument("--n", type=int, default=None,
                   help="degree (needed by graspa+vn)")
    p.add_argument("--grid", type=int, default=100)
    _add_common(p, _cmd_map)

    p = sub.add_parser("interp", help="interpolate a benchmark function once")
    p.add_argument("--function", choices=tuple(FUNCTIONS), default="f1")
    p.add_argument("--method", choices=METHODS, default="graspa")
    p.add_argument("--n", type=int, required=True)
    _add_domain(p, interval=False,
                cuts_help="comma list; defaults to the function's jumps")
    p.add_argument("--grid", type=int, default=332)
    _add_common(p, _cmd_interp)

    p = sub.add_parser("lebesgue", help="Lebesgue function and constant")
    p.add_argument("--method", choices=METHODS, default="classical")
    p.add_argument("--n", type=int, required=True)
    _add_domain(p)
    p.add_argument("--grid", default="auto",
                   help="'auto' or per-subinterval point count")
    _add_common(p, _cmd_lebesgue)

    p = sub.add_parser("lagmatrix", help="absolute mapped-basis matrix on a grid")
    p.add_argument("--method", choices=METHODS, default="graspa")
    p.add_argument("--n", type=int, required=True)
    _add_domain(p)
    p.add_argument("--grid", type=int, default=100)
    _add_common(p, _cmd_lagmatrix)

    p = sub.add_parser("experiment", help="reproduce a figure or run a JSON config")
    p.add_argument("target", help=f"figure id ({', '.join(FIGURE_IDS)}) or a "
                                  "JSON config path")
    p.add_argument("--svg", action="store_true", help="also write SVG line plots")
    _add_common(p, _cmd_experiment)

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
