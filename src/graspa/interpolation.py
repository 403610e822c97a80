"""Barycentric interpolation in a mapped variable.

Values sampled at the original nodes are interpolated as a polynomial in the
mapped variable ``s = S(x)`` and evaluated through the quotient (second-form)
barycentric formula.  Weight products are capacity-scaled so they stay
representable even when the mapped nodes form clusters separated by a shift
of 1e4 or more; the common scale cancels in the quotient.  A monomial
(Vandermonde) path is kept for low degrees as an independent cross-check --
for shifted node sets the mapped monomial basis is numerically unusable
beyond toy sizes, so it is guarded, never the production path.

The quotient terms ``w_j / (s - s_j)`` are formed by one private kernel,
``_quotient_blocks``, shared with the Lebesgue-function and basis-matrix code
in ``stability``: it fills a single reused buffer of about 512 KiB one block
of evaluation points at a time, so evaluating m points at n nodes needs
O(m + block * n) memory rather than O(m * n).  Each row is reduced exactly as
in the unblocked formula, so per-point Lebesgue values do not depend on the
block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import NodeSet
from .exceptions import EvaluationError
from .maps import MapChain

__all__ = [
    "Interpolant",
    "barycentric_weights",
    "build_interpolant",
    "eval_interpolant",
    "vandermonde_coefficients",
    "eval_monomial",
]

VANDERMONDE_MAX_DEGREE = 12
_BLOCK_BYTES = 512 * 1024  # byte budget of the quotient kernel's row buffer
_NO_HITS = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))


def _node_array(nodes) -> np.ndarray:
    if isinstance(nodes, NodeSet):
        return nodes.nodes
    return np.asarray(nodes, dtype=float)


def barycentric_weights(points) -> np.ndarray:
    """Weights 1 / prod_{j != i} (s_i - s_j), up to a common scale.

    Each difference is divided by a capacity constant (one quarter of the node
    span) before the product is taken; the resulting common factor drops out
    of the quotient evaluation formula but keeps the partial products finite
    for clustered node sets.
    """
    s = np.asarray(points, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("points must form a nonempty 1-D sequence")
    if s.size == 1:
        return np.ones(1)
    cap = (s.max() - s.min()) / 4.0
    if not cap > 0:
        raise ValueError("points must be distinct")
    diff = (s[:, None] - s[None, :]) / cap
    np.fill_diagonal(diff, 1.0)
    prod = diff.prod(axis=1)
    if not np.all(np.isfinite(prod)) or np.any(prod == 0.0):
        raise EvaluationError("barycentric weight products overflowed")
    return 1.0 / prod


@dataclass(frozen=True, eq=False)
class Interpolant:
    """Mapped-node barycentric interpolant; immutable, exact at the nodes."""

    nodes: np.ndarray
    mapped_nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    chain: MapChain

    def __call__(self, x):
        return eval_interpolant(self, x)

    def __len__(self) -> int:
        return int(self.nodes.size)


def _node_images(nodes, chain: MapChain | None) -> tuple[np.ndarray, np.ndarray]:
    """Mapped images of the nodes, which must be finite and distinct, and
    the permutation that sorts them.  ``chain=None`` is the identity map.
    """
    x = _node_array(nodes)
    s = np.asarray(chain(x), dtype=float) if chain is not None else x.astype(float)
    if not np.all(np.isfinite(s)):
        raise EvaluationError("map produced non-finite node images")
    order = np.argsort(s, kind="stable")
    if np.any(np.diff(s[order]) <= 0):
        raise ValueError("map is not injective on the nodes: mapped nodes collide")
    return s, order


def _eval_points(x, chain: MapChain | None) -> np.ndarray:
    """Mapped images of the evaluation points x, flattened to 1-D."""
    pts = np.asarray(x, dtype=float).ravel()
    s = np.asarray(chain(pts), dtype=float) if chain is not None else pts
    if not np.all(np.isfinite(s)):
        raise EvaluationError("map produced non-finite values at evaluation points")
    return s


def _shaped(out: np.ndarray, x):
    """Per-point results in the shape of x; a scalar x gives a float."""
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _block_rows(n: int) -> int:
    """Evaluation points per block of the quotient kernel, for n nodes."""
    return max(1, _BLOCK_BYTES // (8 * n))


def _quotient_blocks(s, mapped_nodes, weights):
    """Yield (rows, t, hit_row, hit_col) over blocks of the points s.

    ``t[k, j] = weights[j] / (s[rows][k] - mapped_nodes[j])``, computed in
    place in one buffer that is reused for the next block, so a caller must be
    done with ``t`` (and may overwrite it) before advancing.  ``rows`` is the
    slice of s in the block; ``hit_row`` (indices into s) and ``hit_col``
    (indices into mapped_nodes) list the zero differences, where a point's
    image equals a mapped node exactly -- those rows of ``t`` hold
    infinities, so callers replace them, and iterate under
    ``np.errstate(divide="ignore", invalid="ignore")``.
    """
    m, n = s.size, mapped_nodes.size
    block = _block_rows(n)
    buf = np.empty((min(block, m), n))
    for lo in range(0, m, block):
        rows = slice(lo, min(lo + block, m))
        sr = s[rows]
        t = buf[:sr.size]
        np.subtract(sr[:, None], mapped_nodes[None, :], out=t)
        zero = t == 0.0
        # locating the zeros costs far more than detecting them; most blocks have none
        hit_row, hit_col = np.nonzero(zero) if zero.any() else _NO_HITS
        np.divide(weights, t, out=t)
        yield rows, t, lo + hit_row, hit_col


def build_interpolant(nodes, values, chain: MapChain | None = None) -> Interpolant:
    """Construct the interpolant of (nodes, values) in the mapped variable.

    The samples are taken as given -- changing the chain never triggers a
    resample of the underlying function.  Raises if the chain is not
    injective on the nodes (mapped nodes collide) or if any value is
    non-finite.
    """
    chain = chain if chain is not None else MapChain()
    x = _node_array(nodes)
    f = np.array(values, dtype=float)
    if f.shape != x.shape:
        raise ValueError(f"got {f.size} values for {x.size} nodes")
    if not np.all(np.isfinite(f)):
        raise ValueError("sample values must be finite")
    s, order = _node_images(x, chain)
    x, s, f = x[order].copy(), s[order].copy(), f[order].copy()
    w = barycentric_weights(s)
    for arr in (x, s, f, w):
        arr.setflags(write=False)
    return Interpolant(x, s, f, w, chain)


def eval_interpolant(interp: Interpolant, x):
    """Evaluate via the quotient barycentric form in s = S(x).

    A point whose image coincides bit-exactly with a mapped node returns the
    stored sample value, making the interpolation conditions exact.  The
    result has the shape of x (a float for scalar x).
    """
    s = _eval_points(x, interp.chain)
    out = np.empty(s.size)
    blocks = _quotient_blocks(s, interp.mapped_nodes, interp.weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, t, hit_row, hit_col in blocks:
            out[rows] = (t @ interp.values) / t.sum(axis=1)
            out[hit_row] = interp.values[hit_col]
    if not np.all(np.isfinite(out)):
        raise EvaluationError("barycentric evaluation lost finiteness")
    return _shaped(out, x)


def vandermonde_coefficients(nodes, values, chain: MapChain | None = None) -> np.ndarray:
    """Monomial coefficients c_0..c_n of the interpolant in the mapped variable.

    Low-degree oracle path only: refuses degree > 12, where the mapped
    Vandermonde system is too ill-conditioned to trust; use the barycentric
    interpolant instead.
    """
    chain = chain if chain is not None else MapChain()
    x = _node_array(nodes)
    f = np.asarray(values, dtype=float)
    if f.shape != x.shape:
        raise ValueError(f"got {f.size} values for {x.size} nodes")
    degree = x.size - 1
    if degree > VANDERMONDE_MAX_DEGREE:
        raise ValueError(
            f"degree {degree} exceeds the Vandermonde guard "
            f"({VANDERMONDE_MAX_DEGREE}); use build_interpolant for the "
            "barycentric path"
        )
    vmat = np.vander(_node_images(x, chain)[0], increasing=True)
    try:
        return np.linalg.solve(vmat, f)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"Vandermonde system is numerically singular: {exc}") from exc


def eval_monomial(coeffs, s):
    """Horner evaluation of sum_i c_i s^i (ascending coefficients)."""
    return np.polynomial.polynomial.polyval(np.asarray(s, dtype=float),
                                            np.asarray(coeffs, dtype=float))
