"""The CSV float kernel (``cli._csv_rows``) against ``FLOAT_FORMAT % v``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graspa.cli import _CSV_KERNEL_MIN_VALUES, _csv_rows, _write_csv
from graspa.experiments import FLOAT_FORMAT


def _reference(rows) -> bytes:
    """The rows as FLOAT_FORMAT writes each value, comma-joined, CRLF-ended."""
    line = ",".join([FLOAT_FORMAT] * rows.shape[1]) + "\r\n"
    return (line * rows.shape[0] % tuple(rows.ravel().tolist())).encode()


def _written(tmp_path, rows) -> bytes:
    """The row bytes of rows written through _write_csv under a one-line header."""
    path = tmp_path / "t.csv"
    _write_csv(path, [f"c{j}" for j in range(rows.shape[1])], rows)
    return path.read_bytes().split(b"\r\n", 1)[1]


def _both_signs(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def test_random_bit_patterns(tmp_path):
    # every finite, subnormal and non-finite pattern alike, through the file
    bits = np.random.default_rng(31).integers(0, 2**64, 10**6, dtype=np.uint64,
                                              endpoint=False)
    rows = bits.view(np.float64).reshape(-1, 4)
    assert rows.size >= _CSV_KERNEL_MIN_VALUES
    assert _written(tmp_path, rows) == _reference(rows)


def test_exponent_range_ties_and_layout_switches():
    powers = [float(f"1e{j}") for j in range(-323, 309)]
    cases = [
        # powers of ten and their neighbours, where floor(log10) is off by one
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        # every power of two, subnormals included
        np.ldexp(1.0, np.arange(-1074, 1024)),
        # exact ties of the 17th digit, which round half-even
        [2.0**-25, 3 * 2.0**-25],
        # %g's switch from exponent to fixed form at 1e-4, and back at 1e17
        np.linspace(1e-5, 1e-4, 5001), np.linspace(1e16, 1e17, 5001),
        np.nextafter([1e-4, 1e-4, 1e17, 1e17], [0.0, 1.0, 0.0, np.inf]),
        [0.0, np.inf, np.nan, 9.9999999999999995e-5, 99999999999999999.0],
    ]
    values = _both_signs(np.concatenate([np.ravel(c) for c in cases]))
    for width in (1, 2, 5):
        rows = values[:values.size // width * width].reshape(-1, width)
        assert _csv_rows(rows) == _reference(rows), width


def test_tables_of_several_widths(tmp_path):
    rng = np.random.default_rng(32)
    for width in (1, 2, 5, 100):
        rows = rng.standard_normal((3000 // width, width)) \
            * 10.0 ** rng.integers(-30, 30, (3000 // width, width))
        rows[::7, 0] = 0.0
        rows[::11, -1] = np.round(rows[::11, -1], 2)
        assert _written(tmp_path, rows) == _reference(rows), width


@settings(deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 6)),
              elements=st.floats(width=64)))
def test_drawn_floats(rows):
    assert _csv_rows(rows) == _reference(rows)
