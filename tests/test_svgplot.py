"""The SVG writer's polylines against a point-by-point reference, and its text escaping."""

import re
from xml.etree import ElementTree

import numpy as np
import pytest

from graspa.svgplot import _CHUNK, _H, _MB, _ML, _MR, _MT, _W, write_line_svg


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


def test_text_is_escaped(tmp_path):
    x = np.linspace(0.0, 1.0, 5)
    write_line_svg(tmp_path / "p.svg", x, [("a<b & c", x), ("d>e", x + 1.0)],
                   xlabel="x & y", ylabel="<lambda>", title="r&d<1>")
    root = ElementTree.parse(tmp_path / "p.svg").getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    for text in ("a<b & c", "d>e", "x & y", "<lambda>", "r&d<1>"):
        assert text in texts
