"""Barycentric interpolation in a mapped variable.

Values sampled at the original nodes are interpolated as a polynomial in the
mapped variable ``s = S(x)`` and evaluated through the quotient (second-form)
barycentric formula.  Weight products are capacity-scaled so they stay
representable even when the mapped nodes form clusters separated by a shift
of 1e4 or more; the common scale cancels in the quotient.  Where a scaled
product still leaves the normal float range (f1 GRASPA at shift 1e4 from
degree 165 on), the products are taken again as mantissas and integer
exponents (``np.frexp``), and the weights come back up to one power of two;
weights spanning more than 2**53 are refused with EvaluationError.  A monomial
(Vandermonde) path is kept for low degrees as an independent cross-check --
for shifted node sets the mapped monomial basis is numerically unusable
beyond toy sizes, so it is guarded, never the production path.

An :class:`Interpolant` is a :class:`MappedBasis` (nodes sorted by image,
their images, weights and chain; built by ``mapped_basis``) with values, and
the evaluators in ``stability`` take a basis too, so no result depends on the
order of the node list.  All their quotient terms ``w_j / (s - s_j)`` come
from one private kernel, ``_quotient_blocks``: it fills a single reused buffer
of about 512 KiB one block of evaluation points at a time, so evaluating m
points at n nodes needs O(m + block * n) memory rather than O(m * n).  Its
differences, like every s - s_j in the package, come from one rank-2 product
[s, 1] @ [1; -s_j] (``_differences``), bit-equal to the subtraction.  Each
row is reduced exactly as in the unblocked formula, so per-point Lebesgue
values do not depend on the block size.  The interpolant asks the kernel for
the plain reciprocals ``1 / (s - s_j)`` and takes each block's numerator and
denominator from one matrix product with the two columns ``[w * f, w]`` it
formed when it was built.  A point whose image equals a mapped node exactly
gives an infinite reciprocal, so its row's result is non-finite; only after
the loop does ``_node_hits`` sort the non-finite rows into node hits and
misses.  A hit returns the node's stored value (Berrut & Trefethen, SIAM Rev.
2004).  The interpolant takes a miss (a denominator that cancelled to 0, or a
sum that overflowed) again in the first, modified Lagrange form
``p(s) = l(s) sum_j w*_j f_j / (s - s_j)``, which is backward stable (Higham,
IMA J. Numer. Anal. 2004); ``l(s)`` is exponent-tracked, and the true weights
``w*_j`` are the stored ones without their common scale.  A row that is still
non-finite, and any miss of the Lebesgue function or the basis matrix, raises
EvaluationError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import _node_array
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
_NO_HITS = (np.empty(0, dtype=np.intp),) * 3
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max  # the normal range
_FREXP_BLOCK = 512  # mantissas per block product: >= 2**-512, still normal
_MAX_WEIGHT_SPAN = 2.0**53  # 1/u: the widest max|w| / min|w| accepted


def _node_factor(x) -> np.ndarray:
    return np.array((np.ones(x.size), -x))


def _differences(s, factor, out=None, left=None) -> np.ndarray:
    """s_i - x_j as [s, 1] @ factor, factor = [1; -x]: two exact products, rounded
    once, so the subtraction's bits (a zero's sign aside).  left: ones in column 1."""
    left = np.ones((s.size, 2)) if left is None else left
    left[:, 0] = s
    return np.matmul(left, factor, out=out)


def _row_products(diff) -> tuple[np.ndarray, np.ndarray | None]:
    """Row products of diff as (p, e), product = p * 2**e.

    Where every row's plain product is a normal float, or an exact zero from
    a zero entry, p is that product and e is None.  Otherwise every row is
    taken again with exponent tracking: the mantissas of ``np.frexp`` are
    multiplied ``_FREXP_BLOCK`` columns at a time, the running product is
    renormalised after each block so that no partial product leaves the
    normal range, and the exponents are summed as integers.  Scaling by
    powers of two is exact, so each row carries only the rounding of its
    multiplications; |p| then lies in [1/2, 1), or is 0 for a zero entry.
    """
    with np.errstate(over="ignore"):
        prod = diff.prod(axis=1)
    size = np.abs(prod)
    if size.min() >= _TINY and size.max() <= _HUGE:
        return prod, None
    off = np.flatnonzero(~((size >= _TINY) & (size <= _HUGE)))
    if (diff[off] == 0).any(axis=1).all():  # exact zeros only
        return prod, None
    mant, exp = np.frexp(diff)
    total = exp.sum(axis=1, dtype=np.int64)
    prod = np.ones(diff.shape[0])
    for lo in range(0, diff.shape[1], _FREXP_BLOCK):
        prod, shift = np.frexp(prod * mant[:, lo:lo + _FREXP_BLOCK].prod(axis=1))
        total += shift
    return prod, total


def _reciprocals(prod, exp) -> tuple[np.ndarray, int]:
    """1 / (prod * 2**exp) as (w, k), = w * 2**k, for nonzero prod, with the
    power of two 2**k chosen so that max |w| lies in [1/2, 1)."""
    mant, w_exp = np.frexp(1.0 / prod)
    w_exp = w_exp - exp
    top = int(w_exp.max())
    return np.ldexp(mant, w_exp - top), top


def _weight_products(points) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`_row_products` of prod_{j != i} (s_i - s_j) / cap, where cap is
    one quarter of the span of the points s."""
    s = _node_array(points)  # nonempty, 1-D and finite: checked before any product
    if s.size == 1:
        return np.ones(1), None
    cap = (s.max() - s.min()) / 4.0
    if not cap > 0:
        raise ValueError("points must be distinct")
    diff = _differences(s, _node_factor(s))
    diff /= cap
    np.fill_diagonal(diff, 1.0)
    prod, exp = _row_products(diff)
    if not prod.all():  # a zero product has a zero factor: a repeated point
        raise ValueError("points must be distinct")
    return prod, exp


def barycentric_weights(points) -> np.ndarray:
    """Weights 1 / prod_{j != i} (s_i - s_j), up to a common scale.

    Each difference is divided by a capacity constant (one quarter of the node
    span) before the product is taken; the resulting common factor drops out
    of the quotient evaluation formula but keeps the partial products finite
    for clustered node sets.  Where every capacity-scaled product is a normal
    float, the weights are their reciprocals.  Otherwise the products are
    taken again with exponent tracking (:func:`_row_products`), and the
    weights are rescaled by one power of two so that max |w| lies in
    [1/2, 1); that common scale drops out of the quotient too.  If the
    rescaled weights then span more than 2**53 (max |w| / min |w|), the
    smallest of them would be lost against the largest in the quotient's
    sums, and EvaluationError is raised as for products that leave the float
    range.
    """
    prod, exp = _weight_products(points)
    if exp is None:
        return 1.0 / prod
    weights, _ = _reciprocals(prod, exp)
    size = np.abs(weights)
    if not size.max() <= _MAX_WEIGHT_SPAN * size.min():
        raise EvaluationError("barycentric weight products left the float range")
    return weights


@dataclass(frozen=True, eq=False)
class MappedBasis:
    """Mapped Lagrange basis: the nodes sorted by their images s = S(x) under the
    chain, the images, their weights, and ``order``, each node's caller index."""

    nodes: np.ndarray
    mapped_nodes: np.ndarray
    weights: np.ndarray
    chain: MapChain
    order: np.ndarray
    node_factor: np.ndarray  # [1; -mapped_nodes], the right factor of _differences

    def map(self, x) -> np.ndarray:
        """Mapped images of the points x, flattened to 1-D; non-finite ones raise."""
        return self.chain(np.asarray(x, dtype=float).ravel())

    def __len__(self) -> int:
        return int(self.nodes.size)


@dataclass(frozen=True, eq=False)
class Interpolant(MappedBasis):
    """Mapped-node barycentric interpolant; immutable, exact at the nodes: a
    basis with the samples ``values`` in its node order."""

    values: np.ndarray
    # [w * f, w]: one matrix product gives each point's numerator and denominator
    columns: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        columns = np.array((self.weights * self.values, self.weights)).T
        columns.setflags(write=False)
        object.__setattr__(self, "columns", columns)

    def __call__(self, x):
        return eval_interpolant(self, x)


def _node_images(nodes, chain: MapChain | None) -> tuple[np.ndarray, np.ndarray]:
    """Mapped images of the nodes, which must be distinct, and the permutation
    that sorts them.  ``chain=None`` is the identity map.
    """
    x = _node_array(nodes)
    s = np.asarray(chain(x), dtype=float) if chain is not None else x.astype(float)
    order = np.argsort(s, kind="stable")
    if (np.diff(s[order]) <= 0).any():
        raise ValueError("map is not injective on the nodes: mapped nodes collide")
    return s, order


def mapped_basis(nodes, chain: MapChain | None = None) -> MappedBasis:
    """The nodes' basis under the chain (None: the identity).  Raises ValueError
    for nodes that are not nonempty, 1-D and finite or whose images collide, and
    EvaluationError for non-finite images or weights out of the float range."""
    chain = chain if chain is not None else MapChain()
    x = _node_array(nodes)
    s, order = _node_images(x, chain)
    x, s = x[order], s[order]
    w, factor = barycentric_weights(s), _node_factor(s)
    for arr in (x, s, w, order, factor):
        arr.setflags(write=False)
    return MappedBasis(x, s, w, chain, order, factor)


def _shaped(out: np.ndarray, x):
    """Per-point results in the shape of x; a scalar x gives a float."""
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _block_rows(n: int) -> int:
    """Evaluation points per block of the quotient kernel, for n nodes."""
    return max(1, _BLOCK_BYTES // (8 * n))


def _quotient_blocks(s, basis: MappedBasis, weights):
    """Yield (rows, t) over blocks of the points s.

    ``t[k, j] = weights[j] / (s[rows][k] - mapped_nodes[j])``, the differences
    from one rank-2 product, bit-equal to the subtraction (:func:`_differences`),
    in one buffer reused for the next block: a caller must be done with ``t``
    (and may overwrite it) before advancing.  ``weights`` may be 1.0, for the
    plain reciprocals; ``rows`` is the block's slice of s.  Callers iterate under
    ``np.errstate(divide="ignore", over="ignore", invalid="ignore")``: a point
    whose image equals a mapped node exactly gives w_j / 0 = +-inf, since the
    weights are finite and nonzero, and a quotient may overflow; either way
    the row's result is non-finite, and :func:`_node_hits` sorts the two apart
    after the loop.
    """
    m, n = s.size, len(basis)
    block = _block_rows(n)
    buf = np.empty((min(block, m), n))
    left = np.ones((buf.shape[0], 2))
    for lo in range(0, m, block):
        rows = slice(lo, min(lo + block, m))
        k = rows.stop - lo
        t = _differences(s[rows], basis.node_factor, buf[:k], left[:k])
        np.divide(weights, t, out=t)
        yield rows, t


def _node_hits(s, finite, mapped_nodes):
    """(rows, cols, misses) for the points s whose result is not ``finite``.

    Only those points are compared with the mapped nodes, since a node hit
    always makes its row non-finite; the comparison takes one byte per such
    point and node.  ``rows`` are the points whose image s equals a mapped
    node exactly and ``cols`` those nodes; ``misses`` are the other
    non-finite points.  ``rows`` and ``misses`` index s, ``cols`` indexes
    mapped_nodes.
    """
    if finite.all():
        return _NO_HITS
    rows = np.flatnonzero(~finite)
    hit_row, hit_col = np.nonzero(s[rows, None] == mapped_nodes)
    misses = _NO_HITS[0] if hit_row.size == rows.size else np.delete(rows, hit_row)
    return rows[hit_row], hit_col, misses


def _first_form(s, interp: Interpolant) -> np.ndarray:
    """p(s) = l(s) * sum_j w*_j f_j / (s - s_j) at points s that are not
    mapped nodes, l(s) = prod_k (s - s_k) and w*_j the true weights.

    The stored weights are c * w*_j for one common scale c, which node 0
    gives back: c = w_0 * prod_{k != 0} (s_0 - s_k).  The two products are
    taken by :func:`_row_products`, and every factor is combined as a
    mantissa and an exponent, so p is non-finite only if the sum is, or if p
    itself is not a finite double.
    """
    diff = _differences(np.append(interp.mapped_nodes[0], s), interp.node_factor)
    diff[0, 0] = 1.0
    prod, exp = _row_products(diff)
    mant, e = np.frexp(prod)
    e = e if exp is None else e + exp
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        num_mant, num_e = np.frexp(np.reciprocal(diff[1:]) @ interp.columns[:, 0])
        w_mant, w_e = np.frexp(interp.weights[0])
        return np.ldexp(num_mant * mant[1:] / (mant[0] * w_mant),
                        num_e + (e[1:] - e[0] - w_e))


def build_interpolant(nodes, values, chain: MapChain | None = None) -> Interpolant:
    """Construct the interpolant of (nodes, values) in the mapped variable.

    The samples are taken as given -- changing the chain never triggers a
    resample of the underlying function.  Raises as :func:`mapped_basis`
    does, and if any value is non-finite.
    """
    return _interpolant(mapped_basis(nodes, chain), values)


def _sample_values(values, nodes: np.ndarray) -> np.ndarray:
    """The values as floats, one per node; ValueError unless all are finite."""
    f = np.asarray(values, dtype=float)
    if f.shape != nodes.shape:
        raise ValueError(f"got {f.size} values for {nodes.size} nodes")
    if not np.isfinite(f).all():
        raise ValueError("sample values must be finite")
    return f


def _interpolant(basis: MappedBasis, values) -> Interpolant:
    """The interpolant in the basis of the values at the caller's nodes."""
    f = _sample_values(values, basis.order)[basis.order]
    f.setflags(write=False)
    return Interpolant(**vars(basis), values=f)


def eval_interpolant(interp: Interpolant, x):
    """Evaluate via the quotient barycentric form in s = S(x).

    Each block of points takes its numerator sum_j w_j f_j / (s - s_j) and
    denominator sum_j w_j / (s - s_j) from one matrix product of the
    reciprocals 1 / (s - s_j) with ``interp.columns``.  A point whose image
    coincides bit-exactly with a mapped node returns the stored sample value,
    making the interpolation conditions exact.  Any other point whose
    quotient is non-finite (the denominator cancelled to 0, or a sum
    overflowed) is taken again in the first form (:func:`_first_form`), and
    raises EvaluationError if it is still non-finite there.  The result has
    the shape of x (a float for scalar x).
    """
    s = interp.map(x)
    out = np.empty(s.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for rows, r in _quotient_blocks(s, interp, 1.0):
            sums = r @ interp.columns
            np.divide(sums[:, 0], sums[:, 1], out=out[rows])
    hit_row, hit_col, misses = _node_hits(s, np.isfinite(out), interp.mapped_nodes)
    out[hit_row] = interp.values[hit_col]
    if misses.size:
        out[misses] = _first_form(s[misses], interp)
        if not np.isfinite(out[misses]).all():
            raise EvaluationError("barycentric evaluation lost finiteness")
    return _shaped(out, x)


def vandermonde_coefficients(nodes, values, chain: MapChain | None = None) -> np.ndarray:
    """Monomial coefficients c_0..c_n of the interpolant in the mapped variable.

    Low-degree oracle path only: refuses degree > 12, where the mapped
    Vandermonde system is too ill-conditioned to trust; use the barycentric
    interpolant instead.  Non-finite values raise ValueError.
    """
    x = _node_array(nodes)
    f = _sample_values(values, x)
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
