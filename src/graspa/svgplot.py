"""Dependency-free static SVG line plots for the figure tables."""

from __future__ import annotations

import numpy as np

__all__ = ["write_line_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_CHUNK = 1024  # polyline points per format string


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


def write_line_svg(path, x, series, *, xlabel: str = "x", ylabel: str = "",
                   title: str = "", logy: bool = False) -> None:
    """Write a line plot of (label, y-array) series against a shared x-array."""
    xs = np.asarray(x, dtype=float)
    prepared = []
    for label, ys in series:
        ys = np.asarray(ys, dtype=float)
        mask = np.isfinite(ys) & (ys > 0 if logy else np.isfinite(ys))
        if np.any(mask):
            prepared.append((label, xs[mask], np.log10(ys[mask]) if logy else ys[mask]))
    if not prepared:
        raise ValueError("nothing to plot")
    xlo, xhi = float(xs.min()), float(xs.max())
    ylo = min(float(ys.min()) for _, _, ys in prepared)
    yhi = max(float(ys.max()) for _, _, ys in prepared)
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
        # curves: pixel coordinates as arrays, formatted _CHUNK points per
        # format string, so a long curve never exists as one list of strings
        for k, (label, sx, sy) in enumerate(prepared):
            color = _PALETTE[k % len(_PALETTE)]
            xy = np.column_stack([px(sx), py(sy)])
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
            emit(f'<text x="{_W - _MR - 90}" y="{ly}">{label}</text>')
        if title:
            emit(f'<text x="{(_ML + _W - _MR) / 2}" y="{_MT - 10}" '
                 f'text-anchor="middle">{title}</text>')
        emit(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 10}" '
             f'text-anchor="middle">{xlabel}</text>')
        if ylabel:
            emit(f'<text x="15" y="{(_MT + _H - _MB) / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 15 {(_MT + _H - _MB) / 2})">'
                 f'{ylabel}{" (log10)" if logy else ""}</text>')
        emit("</svg>")
