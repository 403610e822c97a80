"""Dependency-free static SVG line plots for the figure tables.

A curve with more than four samples per pixel column of the plot, and with
nondecreasing x, is drawn through each column's first, last, lowest and
highest sample, in x order (M4; Jugel et al., VLDB 2014): the polyline
covers the same pixels with a few vertices per column.

The writer makes two passes over the series and holds one series' arrays at
a time: the first takes the y-range of each series' plotted values, the
second draws the curves one after another, each from its mask, its pixel
coordinates and the vertices it keeps.  Besides x and the caller's series,
memory is O(one curve's samples).
"""

from __future__ import annotations

from html import escape

import numpy as np

__all__ = ["write_line_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_CHUNK = 1024  # polyline points per format string
_COLUMNS = _W - _ML - _MR  # pixel columns of the plot area


def _column_envelope(col, y) -> np.ndarray:
    """Mask of each column's first, last, lowest and highest sample (the first
    of equal ones), for nondecreasing nonnegative column numbers col."""
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    keep = np.zeros(col.size, dtype=bool)
    keep[starts] = True
    keep[np.append(starts[1:], col.size) - 1] = True
    run = np.repeat(np.arange(starts.size), np.diff(np.append(starts, col.size)))
    for reduce in (np.minimum, np.maximum):
        hits = np.flatnonzero(y == reduce.reduceat(y, starts)[run])
        keep[hits[np.searchsorted(hits, starts)]] = True
    return keep


def _ticks(lo: float, hi: float, count: int = 6) -> np.ndarray:
    span = hi - lo
    if span <= 0:
        return np.array([lo])
    step = 10.0 ** np.floor(np.log10(span / count))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = np.ceil(lo / step) * step
    return np.arange(first, hi + step / 2, step)


def _plotted(ys, logy: bool) -> tuple[np.ndarray, np.ndarray]:
    """The mask of a series' plotted samples (finite, and positive on a log
    axis) and their values (log10 on a log axis)."""
    mask = np.isfinite(ys)
    if logy:
        mask &= ys > 0
    return mask, np.log10(ys[mask]) if logy else ys[mask]


def _vertices(xs, ys, logy: bool, px, py) -> np.ndarray:
    """The pixel vertices of one curve as (x, y) rows: every plotted sample,
    or the column envelope of a long curve with nondecreasing x.  Each
    coordinate array replaces the one it is made from."""
    mask, y = _plotted(ys, logy)
    x = xs[mask]
    del mask
    envelope = x.size > 4 * _COLUMNS and (x[1:] >= x[:-1]).all()
    x = px(x)
    y = py(y)
    if envelope:
        keep = _column_envelope(np.minimum(x - _ML, _COLUMNS - 1).astype(np.intp), y)
        x, y = x[keep], y[keep]
    return np.column_stack([x, y])


def write_line_svg(path, x, series, *, xlabel: str = "x", title: str = "",
                   logy: bool = False) -> None:
    """Write a line plot of (label, y-array) series against a shared x-array.

    x must be finite and every y-array must have its shape; otherwise, or if
    no series has a plotted sample, ValueError is raised before the file is
    opened.  Long curves with nondecreasing x are reduced to their column
    envelope (module docstring).  The title, labels and x-axis name are
    escaped as XML text.
    """
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("x values must be finite")
    series = tuple(series)  # read twice
    ylo, yhi = np.inf, -np.inf
    for label, ys in series:
        ys = np.asarray(ys, dtype=float)
        if ys.shape != xs.shape:
            raise ValueError(f"series {label!r} has shape {ys.shape}; x has {xs.shape}")
        _, sy = _plotted(ys, logy)
        if sy.size:
            ylo, yhi = min(ylo, float(sy.min())), max(yhi, float(sy.max()))
    if ylo > yhi:
        raise ValueError("nothing to plot")
    xlo, xhi = float(xs.min()), float(xs.max())
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def px(v):
        return _ML + (v - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    with open(path, "w", encoding="utf-8") as fh:
        def emit(element: str) -> None:
            fh.write(element + "\n")

        emit(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">')
        emit(f'<rect width="{_W}" height="{_H}" fill="white"/>')
        # axes
        emit(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
             'stroke="black"/>')
        emit(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
        for t in _ticks(xlo, xhi):
            xp = px(t)
            emit(f'<line x1="{xp:.2f}" y1="{_H - _MB}" x2="{xp:.2f}" '
                 f'y2="{_H - _MB + 5}" stroke="black"/>')
            emit(f'<text x="{xp:.2f}" y="{_H - _MB + 18}" '
                 f'text-anchor="middle">{t:g}</text>')
        if logy:
            yticks = np.arange(np.ceil(ylo), np.floor(yhi) + 1)
            labels = [f"1e{int(t)}" for t in yticks]
        else:
            yticks = _ticks(ylo, yhi)
            labels = [f"{t:g}" for t in yticks]
        for t, lab in zip(yticks, labels):
            yp = py(t)
            emit(f'<line x1="{_ML - 5}" y1="{yp:.2f}" x2="{_ML}" y2="{yp:.2f}" '
                 'stroke="black"/>')
            emit(f'<text x="{_ML - 8}" y="{yp + 4:.2f}" text-anchor="end">{lab}</text>')
        # curves, one at a time: pixel vertices as an array, formatted _CHUNK
        # points per format string, so a long curve never exists as one list
        # of strings
        k = 0
        for label, ys in series:
            xy = _vertices(xs, np.asarray(ys, dtype=float), logy, px, py)
            if not xy.size:
                continue
            color = _PALETTE[k % len(_PALETTE)]
            fh.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     'points="')
            for lo in range(0, len(xy), _CHUNK):
                part = xy[lo:lo + _CHUNK]
                fh.write((" " if lo else "") + " ".join(["%.2f,%.2f"] * len(part))
                         % tuple(part.ravel().tolist()))
            emit('"/>')
            ly = _MT + 14 + 14 * k
            emit(f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" '
                 f'x2="{_W - _MR - 95}" y2="{ly - 4}" stroke="{color}" '
                 'stroke-width="1.5"/>')
            emit(f'<text x="{_W - _MR - 90}" y="{ly}">{escape(label, quote=False)}</text>')
            k += 1
        if title:
            emit(f'<text x="{(_ML + _W - _MR) / 2}" y="{_MT - 10}" '
                 f'text-anchor="middle">{escape(title, quote=False)}</text>')
        emit(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 10}" '
             f'text-anchor="middle">{escape(xlabel, quote=False)}</text>')
        emit("</svg>")
