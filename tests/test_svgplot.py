"""The SVG writer's polylines against a point-by-point reference, its column
envelope of long curves, its degenerate ranges, and its text escaping."""

import re
import tracemalloc
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest

from graspa.svgplot import _CHUNK, _COLUMNS, _H, _MB, _ML, _MR, _MT, _W, write_line_svg


def _reference_points(x, y, logy):
    """Pixel coordinates formatted one point at a time, as f-strings."""
    keep = np.isfinite(y) & (y > 0 if logy else np.isfinite(y))
    sx, sy = x[keep], np.log10(y[keep]) if logy else y[keep]
    xlo, xhi = float(x.min()), float(x.max())
    ylo, yhi = float(sy.min()), float(sy.max())
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    return " ".join(f"{_ML + (a - xlo) / (xhi - xlo) * (_W - _ML - _MR):.2f},"
                    f"{_H - _MB - (b - ylo) / (yhi - ylo) * (_H - _MT - _MB):.2f}"
                    for a, b in zip(sx, sy))


# one NaN is dropped, and on a log axis one negative value too: the plotted
# counts reach _CHUNK - 1 .. _CHUNK + 1 and span three chunks
@pytest.mark.parametrize("size", (50, _CHUNK + 1, _CHUNK + 2, 2 * _CHUNK + 7))
@pytest.mark.parametrize("logy", (False, True))
def test_polyline_matches_pointwise_formatting(tmp_path, size, logy):
    rng = np.random.default_rng(size)
    x = np.sort(rng.uniform(-1.0, 1.0, size))
    y = rng.lognormal(0.0, 4.0, size)
    y[size // 2] = np.nan
    y[size // 3] *= -1.0
    write_line_svg(tmp_path / "p.svg", x, [("y", y)], logy=logy)
    svg = (tmp_path / "p.svg").read_text()
    (points,) = re.findall(r'<polyline [^>]*points="([^"]*)"', svg)
    assert points == _reference_points(x, y, logy)


def _polyline(path):
    (points,) = re.findall(r'<polyline [^>]*points="([^"]*)"', path.read_text())
    return points.split(" ")


@pytest.mark.parametrize("logy", (False, True))
def test_long_curves_keep_each_columns_extremes(tmp_path, logy):
    # 12025 samples of a fast oscillation over 630 pixel columns, as fig6
    size = 12025
    rng = np.random.default_rng(6)
    x = np.linspace(-1.0, 1.0, size)
    y = np.exp(3.0 * np.sin(400.0 * x) + rng.normal(0.0, 0.5, size))
    write_line_svg(tmp_path / "p.svg", x, [("y", y)], logy=logy)
    vertices = _polyline(tmp_path / "p.svg")
    samples = _reference_points(x, y, logy).split(" ")
    assert len(vertices) <= 4 * _COLUMNS
    # every vertex is a sample, in x order
    at = []
    for v in vertices:
        at.append(samples.index(v, at[-1] + 1 if at else 0))
    assert at[0] == 0 and at[-1] == size - 1
    # every sample lies within its column's [min, max] of the drawn vertices
    px = _ML + (x - x[0]) / (x[-1] - x[0]) * _COLUMNS  # as the writer places them
    col = np.minimum(px - _ML, _COLUMNS - 1).astype(int)
    sample_y = np.array([float(p.split(",")[1]) for p in samples])
    vertex_y = sample_y[at]
    for c in np.unique(col):
        inside = sample_y[col == c]
        drawn = vertex_y[col[at] == c]
        assert drawn.min() == inside.min() and drawn.max() == inside.max()


def test_unsorted_long_curves_are_drawn_whole(tmp_path):
    size = 4 * _COLUMNS + 1
    x = np.random.default_rng(2).uniform(-1.0, 1.0, size)
    write_line_svg(tmp_path / "p.svg", x, [("y", x * x + 1.0)])
    assert _polyline(tmp_path / "p.svg") == _reference_points(x, x * x + 1.0, False).split(" ")


def test_text_is_escaped(tmp_path):
    x = np.linspace(0.0, 1.0, 5)
    write_line_svg(tmp_path / "p.svg", x,
                   [("a<b & c", x), ("d>e", x + 1.0), ("<lambda>", x + 2.0)],
                   xlabel="x & y", title="r&d<1>")
    root = ElementTree.parse(tmp_path / "p.svg").getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    for text in ("a<b & c", "d>e", "x & y", "<lambda>", "r&d<1>"):
        assert text in texts


@pytest.mark.parametrize("x, series", [
    ([0.0, np.nan, 1.0], [("y", [1.0, 2.0, 3.0])]),
    ([0.0, np.inf, 1.0], [("y", [1.0, 2.0, 3.0])]),
    ([0.0, 0.5, -np.inf], [("y", [1.0, 2.0, 3.0])]),
    ([0.0, 0.5, 1.0], [("y", [1.0, 2.0, 3.0]), ("z", [1.0, 2.0])]),
    ([0.0, 0.5, 1.0], [("y", [1.0, 2.0, 3.0, 4.0])]),
], ids=["nan-x", "inf-x", "minus-inf-x", "short-series", "long-series"])
def test_refused_plots_write_no_file(tmp_path, x, series):
    with pytest.raises(ValueError, match="x values must be finite|has shape"):
        write_line_svg(tmp_path / "p.svg", x, series)
    assert not list(tmp_path.iterdir())


_SVG = "{http://www.w3.org/2000/svg}"


def _drawn(path):
    """(polylines' vertex arrays, texts) of a written SVG."""
    root = ElementTree.parse(path).getroot()
    lines = [np.array([p.split(",") for p in line.get("points").split()], dtype=float)
             for line in root.iter(f"{_SVG}polyline")]
    return lines, [t.text for t in root.iter(f"{_SVG}text")]


@pytest.mark.parametrize("x, y, logy", [
    (np.linspace(0.0, 1.0, 5), np.full(5, 2.0), False),
    (np.full(5, 0.5), np.linspace(1.0, 2.0, 5), False),
    (np.array([0.5]), np.array([3.0]), False),
    (np.linspace(0.0, 1.0, 5), np.full(5, 100.0), True),
], ids=["constant", "one-x-value", "one-point", "constant-log"])
def test_degenerate_ranges_give_one_curve_inside_the_plot(tmp_path, x, y, logy):
    # a zero-width x or y range is widened to one unit, not divided by
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        write_line_svg(tmp_path / "p.svg", x, [("y", y)], logy=logy)
    (line,), texts = _drawn(tmp_path / "p.svg")
    assert line.shape == (x.size, 2) and np.isfinite(line).all()
    assert ((_ML <= line[:, 0]) & (line[:, 0] <= _W - _MR)).all()
    assert ((_MT <= line[:, 1]) & (line[:, 1] <= _H - _MB)).all()
    assert "y" in texts


@pytest.mark.parametrize("y, logy", [
    (np.full(5, np.nan), False),
    (np.array([0.0, -1.0, np.nan, -np.inf, 0.0]), True),
], ids=["all-nan", "nonpositive-log"])
def test_nothing_to_plot_writes_no_file(tmp_path, y, logy):
    with pytest.raises(ValueError, match="nothing to plot"):
        write_line_svg(tmp_path / "p.svg", np.linspace(0.0, 1.0, 5), [("y", y)], logy=logy)
    assert not list(tmp_path.iterdir())


def test_a_series_with_nothing_to_plot_is_skipped_with_its_legend(tmp_path):
    x = np.linspace(0.0, 1.0, 5)
    write_line_svg(tmp_path / "p.svg", x, [("empty", np.full(5, np.nan)), ("kept", x + 1.0)])
    (line,), texts = _drawn(tmp_path / "p.svg")
    assert line.shape == (5, 2)
    assert "kept" in texts and "empty" not in texts
    # the kept curve takes the first colour and the first legend row
    svg = (tmp_path / "p.svg").read_text()
    assert svg.count('stroke="#1f77b4"') == 2 and "#d62728" not in svg


def test_memory_is_one_curves_worth(tmp_path):
    # the writer holds one curve's arrays at a time, so six curves peak
    # about where one does
    x = np.linspace(-1.0, 1.0, 20000)
    rng = np.random.default_rng(3)
    ys = [np.exp(rng.normal(0.0, 2.0, x.size)) for _ in range(6)]
    peaks = []
    for count in (1, 6):
        tracemalloc.start()
        try:
            write_line_svg(tmp_path / "p.svg", x, [(str(k), y) for k, y in enumerate(ys[:count])],
                           logy=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]
