"""Command-line front end.

Subcommands: ``nodes`` (node families, optionally mapped), ``map`` (sample a
named map on a grid), ``interp`` (one interpolation run), ``lebesgue``
(Lebesgue function and constant), ``lagmatrix`` (absolute basis matrix), and
``experiment`` (figure reproduction by id, or a JSON sweep config).  All
outputs are CSV with a header row and 17-significant-digit floats, written
under --out-dir (default: $GRASPA_OUT_DIR or the working directory) by one
step, :func:`_write_figure_outputs`, which also prints each path.

Every CSV float is the bytes of ``FLOAT_FORMAT % v`` (``"%.17g"``).  Tables
of 512 values or more get them from a numpy kernel, :func:`_csv_rows`, a
block of about 4096 values at a time: each value's 17 digits come from one
double-double product with an exact power-of-ten table, off by about 2**-47
of the last digit at most, and any value whose rounding lies within 2**-20
of a tie is formatted by ``FLOAT_FORMAT`` itself, as are inf and nan.

The degree, point-count, grid-spec, cut and interval flags are each read by
the library's own reader of that value (see :func:`_flag`): --n and every
--grid count as a degree is read, --cuts and --interval, from the items of
a comma list, as a :class:`PiecewiseDomain` reads them, and lebesgue's
--grid as :func:`stability.lebesgue_grid` reads a grid spec.

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

from .domain import Interval, PiecewiseDomain, _cut_list, _integer, _interval_from, \
    bg_chebyshev_nodes, equispaced_nodes, partition_nodes
from .exceptions import EvaluationError
from .experiments import DEFAULT_KAPPA, FIGURE_IDS, FLOAT_FORMAT, FUNCTIONS, METHODS, \
    RMAE_GRID_SIZE, ExperimentConfig, FigureOutput, _chain_name, build_figure, \
    interpolant_table, lebesgue_table, matrix_table, method_chain, run_comparison, \
    sweep_table
from .maps import _CHAINS, CHAIN_NAMES, named_chain
from .stability import _grid_spec_from
from .svgplot import write_line_svg


_CSV_BLOCK_VALUES = 4096  # values laid out by one call of the float kernel
# tables of fewer values go through one string-format call: below this size
# the kernel's fixed cost (about 0.1 ms a call) outweighs what it saves
_CSV_KERNEL_MIN_VALUES = 512


def _write_csv(path: Path, header, rows) -> None:
    """Header through the csv module (quoting as needed), then the rows in
    ``FLOAT_FORMAT`` with CRLF line ends, as csv writes them.  A small table
    is formatted from Python floats in one call; a larger one goes through
    :func:`_csv_rows`, whole rows of about 4096 values at a time, to the
    file's binary buffer."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(header))
        if rows.size < _CSV_KERNEL_MIN_VALUES:
            line = ",".join([FLOAT_FORMAT] * rows.shape[1]) + "\r\n"
            fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))
            return
        fh.flush()
        per_block = max(1, _CSV_BLOCK_VALUES // rows.shape[1])
        for lo in range(0, rows.shape[0], per_block):
            fh.buffer.write(_csv_rows(rows[lo:lo + per_block]))


# the smallest and one past the largest k of the table: 10**(16 - X) for the
# decimal exponent X of every finite nonzero double, -324 <= X <= 308, and one
# step either side for the exponent's correction
_POW10_FIRST, _POW10_END = -293, 342


def _pow10_table():
    """10**k = (hi + lo) * 2**exp for each k of the table, hi in [0.5, 1) and
    lo the correctly rounded rest, both from exact integer arithmetic; hi is
    also split into 26-bit halves for Dekker's product."""
    hi, lo, exp = [], [], []
    for k in range(_POW10_FIRST, _POW10_END):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        e = num.bit_length() - den.bit_length()
        if num << max(-e, 0) >= den << max(e, 0):
            e += 1
        p, q = num << max(-e, 0), den << max(e, 0)  # 10**k / 2**e = p / q
        h = p / q  # int division rounds correctly
        hi.append(h)
        lo.append((p * 2 ** 53 - int(h * 2 ** 53) * q) / (q * 2 ** 53))
        exp.append(e)
    hi = np.array(hi)
    c = hi * _SPLIT
    head = c - (c - hi)
    return hi, head, hi - head, np.array(lo), np.array(exp)


_SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter: 53 bits into two of 26
_POW10_HI, _POW10_HEAD, _POW10_TAIL, _POW10_LO, _POW10_EXP = _pow10_table()
# '0000' ... '9999' as 4 rows of ASCII digits, one column per number
_QUADS = (np.arange(10000) // np.array([[1000], [100], [10], [1]]) % 10
          + ord("0")).astype(np.uint8)
_ROW = np.arange(18, dtype=np.uint8)[:, None]
_ZEROS = np.frombuffer(b"0.000", np.uint8)[:, None]
_DOUBT = 2.0 ** -20  # a rounding this close to a tie goes to FLOAT_FORMAT


def _scaled(m, e2, x):
    """(floor, fraction) of m * 2**e2 * 10**(16 - x), the floor as int64: the
    product (hi + lo) * m in double-double, error-free for hi (Dekker), then
    scaled by a power of two, which is exact."""
    k = 16 - _POW10_FIRST - x
    p = m * _POW10_HI[k]
    head = m * _SPLIT
    head -= head - m
    tail = m - head
    err = _POW10_HEAD[k]
    err *= head
    err -= p
    for part, factor in ((_POW10_TAIL, head), (_POW10_HEAD, tail), (_POW10_TAIL, tail),
                         (_POW10_LO, m)):
        term = part[k]
        term *= factor
        err += term
    del head, tail, term
    e = e2 + _POW10_EXP[k]
    np.ldexp(p, e, out=p)  # an integer from 2**53 on, as in range it is
    np.ldexp(err, e, out=err)
    whole = np.floor(err)
    err -= whole
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    return d, err


def _decimal(v):
    """(digits, X, fallback) of the values v, as :func:`_csv_rows` lays them
    out: the 17 rounded digits as ASCII, row j holding digit j of every value
    between two rows of '0', the decimal exponent X of each, and where
    ``FLOAT_FORMAT`` must format the value instead; ±0 has the digits of 0
    and X = 0."""
    a = np.abs(v)
    finite = np.isfinite(a)
    zero = a == 0
    a[~finite | zero] = 1.0
    x = np.log10(a)
    x = np.floor(x, out=x).astype(np.int64)
    m, e2 = np.frexp(a)
    del a
    d, frac = _scaled(m, e2, x)
    off = (d >= 10 ** 17).astype(np.int64) - (d < 10 ** 16)
    fix = np.flatnonzero(off)
    if fix.size:
        x[fix] += off[fix]
        d[fix], frac[fix] = _scaled(m[fix], e2[fix], x[fix])
    del m, e2, off, fix
    fallback = ~finite | (d < 10 ** 16) | (d >= 10 ** 17)
    frac -= 0.5
    fallback |= np.abs(frac) < _DOUBT
    d += frac > 0
    del frac
    carry = d == 10 ** 17  # rounded up to the next power of ten
    d[carry] = 10 ** 16
    x += carry
    d[zero] = 0
    x[zero] = 0
    dig = np.empty((19, v.size), np.uint8)
    dig[0] = dig[18] = ord("0")
    hi, lo = np.divmod(d, 10 ** 8)
    del d
    dig[1], hi = np.divmod(hi, 10 ** 8)
    dig[1] += ord("0")
    for row, part in ((2, hi), (10, lo)):
        high, low = np.divmod(part.astype(np.uint32), 10 ** 4)
        np.take(_QUADS, high, axis=1, out=dig[row:row + 4])
        np.take(_QUADS, low, axis=1, out=dig[row + 4:row + 8])
    return dig, x, fallback


def _csv_rows(rows: np.ndarray) -> bytes:
    """The bytes of ``FLOAT_FORMAT % v`` for each value of the 2-D float array
    rows, joined by "," within a row and ended by CRLF.

    For a finite nonzero |v| = m 2**e2, X = floor(log10 |v|), moved by one
    where the floor of |v| 10**(16 - X) falls outside [10**16, 10**17); that
    product comes from the power-of-ten table in double-double, off by about
    2**-47 of its last digit at most, and rounds to the nearest integer, the
    17 digits that %g lays out fixed for -4 <= X < 17, else as d.ddde+XX
    (three exponent digits from 100 on), trailing zeros stripped.  ±0 is
    written here.  A value whose product's fraction lies within 2**-20 of
    one half (a tie, which %g breaks to even, or too close to one for the
    error bound), a value still out of range after the correction, and
    every non-finite value are formatted by ``FLOAT_FORMAT`` alone.

    The bytes are laid out transposed, one row of uint8 per character place
    of every value (0 for none), then taken value by value without the zeros;
    the layout's temporaries are gone by then, which keeps a block's memory
    peak near 100 bytes a value.
    """
    out = _layout(rows)
    flat = out.T[:, out.any(axis=1)].ravel()
    del out
    return flat[flat != 0].tobytes()


def _layout(rows: np.ndarray) -> np.ndarray:
    """:func:`_csv_rows`'s characters of rows, transposed: row i of the result
    holds character place i of every value, 0 where that value has none."""
    width = rows.shape[1]
    v = rows.ravel()
    dig, x, fallback = _decimal(v)
    n = v.size
    # significant digits: the place of the last nonzero one, 1 for zero
    sig = np.maximum(np.max(_ROW[1:] * (dig[1:18] != ord("0")), axis=0), 1)
    fixed = (x >= -4) & (x < 17)
    whole = fixed & (x >= 0)
    small = fixed & (x < 0)
    # digits before the point; 18 (none here) when 0.000 leads
    point = (1 + whole * x + 17 * small).astype(np.uint8)
    kept = np.minimum(point, np.maximum(sig, point * whole))  # of those, the ones written
    out = np.empty((31, n), np.uint8)
    out[0] = np.signbit(v)
    out[0] *= ord("-")
    out[1:6] = _ZEROS * (_ROW[:5] < (small * (1 - x)).astype(np.uint8))  # 0.000
    digits = out[6:24]
    np.multiply(dig[1:], _ROW < kept, out=digits)
    after = _ROW > point
    after &= _ROW <= sig
    after = after.view(np.uint8)
    np.multiply(dig[:18], after, out=after)
    digits += after
    del after, dig
    dot = np.flatnonzero(sig > point)
    digits[point[dot], dot] = ord(".")
    sci = ~fixed
    ax = np.abs(x)
    exp_digits = np.take(_QUADS, ax, axis=1)
    out[24] = ord("e") * sci
    out[25] = sci * np.where(x < 0, ord("-"), ord("+"))
    out[26] = exp_digits[1] * (sci & (ax >= 100))
    out[27:29] = exp_digits[2:] * sci
    out[29] = ord(",")
    out[30] = 0
    out[29, width - 1::width] = ord("\r")
    out[30, width - 1::width] = ord("\n")
    for i in np.flatnonzero(fallback):
        text = (FLOAT_FORMAT % v[i]).encode()
        out[:29, i] = 0
        out[:len(text), i] = np.frombuffer(text, np.uint8)
    return out


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


def _flag(read):
    """The argparse type that reads a flag's text with the library reader
    ``read``: its ValueError becomes argparse's error, whose message names
    the flag (exit 2)."""
    def parse(text: str):
        try:
            return read(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _items(text: str) -> list:
    """The items of a comma list; the empty string has none."""
    return text.split(",") if text else []


def _point_count(text: str) -> int:
    """A --grid argument of map, interp and lagmatrix: at least 1 point."""
    count = _integer(text, "a point count")
    if count < 1:
        raise ValueError(f"needs at least 1 point, got {count}")
    return count


# the parameter flags, each at the default of every subcommand that takes it
_DEFAULTS = {"alpha": 1.0, "kappa": DEFAULT_KAPPA, "cuts": None, "n": None,
             "beta": 0.0, "gamma": 0.0, "interval": Interval(-1.0, 1.0)}
# what each command and node family reads beside its chain
_READS = {"nodes": ("n",), "map": ("interval",), "interp": ("n",),
          "lebesgue": ("n", "cuts", "interval"), "lagmatrix": ("n", "interval"),
          "equispaced": ("interval",), "bgcheb": ("beta", "gamma")}


def _refuse_unread(args) -> None:
    """Refuse a flag set away from its default that neither the chain (--map or
    --method), the node family (--kind) nor the command reads."""
    given = [(key, getattr(args, key)) for key in ("kind", "map", "method")
             if getattr(args, key, None)]
    reads = _READS.get(args.command, ())
    for key, name in given:
        reads += _READS[name] if key == "kind" else _CHAINS[_chain_name(name)][0]
    for flag, default in _DEFAULTS.items():
        if flag not in reads and getattr(args, flag, default) != default:
            call = " ".join(f"--{key} {name}" for key, name in given)
            raise ValueError(f"--{flag} does not apply to {args.command} {call}: "
                             "nothing in that call reads it")


def _domain(args, default_cuts=()) -> PiecewiseDomain:
    """--interval ([-1, 1] where the command has none) cut at --cuts, or at
    default_cuts when --cuts is not given."""
    return PiecewiseDomain(getattr(args, "interval", _DEFAULTS["interval"]),
                           default_cuts if args.cuts is None else args.cuts)


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


def _method_setup(args, domain: PiecewiseDomain):
    """Equispaced nodes on the domain and the --method chain; a mapped method
    passes the balance gate first."""
    nodes = equispaced_nodes(args.n, domain.interval)
    if args.method != "classical":
        _balance_gate(nodes, domain, args.strict)
    return nodes, method_chain(args.method, domain, args.kappa, args.n)


def _cmd_nodes(args) -> int:
    if args.kind == "equispaced":
        nodes = equispaced_nodes(args.n, args.interval)
    else:
        nodes = bg_chebyshev_nodes(args.n, args.beta, args.gamma)
    header = ["node"]
    cols = [nodes.nodes]
    if args.map:
        domain = _domain(args)
        chain = named_chain(args.map, domain, args.kappa, args.alpha, args.n)
        _balance_gate(nodes, domain, args.strict)
        header.append("mapped")
        cols.append(np.asarray(chain(nodes.nodes)))
    rows = np.column_stack(cols)
    _write_figure_outputs(args, (FigureOutput("nodes", tuple(header), rows),))
    return 0


def _cmd_map(args) -> int:
    domain = _domain(args)
    chain = named_chain(args.map, domain, args.kappa, args.alpha, args.n)
    grid = np.linspace(domain.interval.a, domain.interval.b, args.grid)
    rows = np.column_stack([grid, chain(grid)])
    _write_figure_outputs(args, (FigureOutput("map", ("x", "mapped"), rows),))
    return 0


def _cmd_interp(args) -> int:
    fn, default_cuts = FUNCTIONS[args.function]
    nodes, chain = _method_setup(args, _domain(args, default_cuts))
    grid = np.linspace(-1.0, 1.0, args.grid)
    table = interpolant_table("interp", fn, nodes, {"r": chain}, grid)
    _write_figure_outputs(args, (table,))
    return 0


def _cmd_lebesgue(args) -> int:
    domain = _domain(args)
    nodes, chain = _method_setup(args, domain)
    table = lebesgue_table("lebesgue", domain, nodes, {"lambda": chain}, args.grid)
    _write_figure_outputs(args, (table,))
    print(f"lebesgue_constant = {FLOAT_FORMAT % table.rows[:, 1].max()}")
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
        p.add_argument("--interval", type=_flag(lambda text: _interval_from(_items(text))),
                       default=_DEFAULTS["interval"])
    p.add_argument("--cuts", type=_flag(lambda text: _cut_list(_items(text))),
                   default=None, help=cuts_help)
    p.add_argument("--kappa", type=float, default=_DEFAULTS["kappa"])


def _add_map(p, *, required: bool):
    p.add_argument("--map", choices=CHAIN_NAMES, required=required, default=None)
    p.add_argument("--alpha", type=float, default=_DEFAULTS["alpha"],
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
    degree = _flag(lambda text: _integer(text, "the degree"))
    count = _flag(_point_count)

    p = sub.add_parser("nodes", help="generate a node family, optionally mapped")
    p.add_argument("--n", type=degree, required=True)
    p.add_argument("--kind", choices=("equispaced", "bgcheb"), default="equispaced")
    p.add_argument("--beta", type=float, default=_DEFAULTS["beta"])
    p.add_argument("--gamma", type=float, default=_DEFAULTS["gamma"])
    _add_map(p, required=False)
    _add_domain(p)
    _add_common(p, _cmd_nodes)

    p = sub.add_parser("map", help="sample a named map on a uniform grid")
    _add_map(p, required=True)
    _add_domain(p)
    p.add_argument("--n", type=degree, default=_DEFAULTS["n"],
                   help="degree (needed by graspa+vn)")
    p.add_argument("--grid", type=count, default=100)
    _add_common(p, _cmd_map)

    p = sub.add_parser("interp", help="interpolate a benchmark function once")
    p.add_argument("--function", choices=tuple(FUNCTIONS), default="f1")
    p.add_argument("--method", choices=METHODS, default="graspa")
    p.add_argument("--n", type=degree, required=True)
    _add_domain(p, interval=False,
                cuts_help="comma list; defaults to the function's jumps")
    p.add_argument("--grid", type=count, default=RMAE_GRID_SIZE)
    _add_common(p, _cmd_interp)

    p = sub.add_parser("lebesgue", help="Lebesgue function and constant")
    p.add_argument("--method", choices=METHODS, default="classical")
    p.add_argument("--n", type=degree, required=True)
    _add_domain(p)
    p.add_argument("--grid", type=_flag(_grid_spec_from), default="auto",
                   help="'auto' or per-subinterval point count")
    _add_common(p, _cmd_lebesgue)

    p = sub.add_parser("lagmatrix", help="absolute mapped-basis matrix on a grid")
    p.add_argument("--method", choices=METHODS, default="graspa")
    p.add_argument("--n", type=degree, required=True)
    _add_domain(p)
    p.add_argument("--grid", type=count, default=100)
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
        _refuse_unread(args)
        return args.func(args)
    except EvaluationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
