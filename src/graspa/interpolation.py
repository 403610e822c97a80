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
order of the node list.  The interpolant, the Lebesgue function and the basis
matrix all run one private evaluator, ``_evaluate``: it forms the quotient
terms ``w_j / (s - s_j)`` in one reused buffer of about 512 KiB, a block of
points at a time (O(m + block * n) memory for m points at n nodes, not
O(m * n)), and hands each block to the caller's reduction.  Its differences,
like every s - s_j in the package, come from one rank-2 product
[s, 1] @ [1; -s_j] (``_differences``), bit-equal to the subtraction.  The
Lebesgue function and the basis matrix reduce each row as the unblocked
formula does, so their values do not depend on the block size; the
interpolant takes each block's numerator and denominator from one matrix
product of the reciprocals ``1 / (s - s_j)`` with the columns ``[w * f, w]``.
A point whose image equals a mapped node exactly makes its result non-finite,
so after the loop only the non-finite points are compared with the mapped
nodes; each evaluator applies its own policy to the hits and the misses.  A
hit returns the node's stored value (Berrut & Trefethen, SIAM Rev. 2004).
The interpolant takes a miss (a denominator that cancelled to 0, or a sum
that overflowed) again in the first, modified Lagrange form
``p(s) = l(s) sum_j w*_j f_j / (s - s_j)``, which is backward stable (Higham,
IMA J. Numer. Anal. 2004); ``l(s)`` is exponent-tracked, and the true weights
``w*_j`` are the stored ones without their common scale.  A row that is
still non-finite, and any miss of the Lebesgue function or the basis matrix,
raises EvaluationError; a non-finite evaluation point raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import _node_array
from .exceptions import EvaluationError, NodeCollisionError
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
    factor = np.empty((2, x.size))
    factor[0] = 1.0
    np.negative(x, out=factor[1])
    return factor


def _differences(s, factor, out=None, left=None) -> np.ndarray:
    """s_i - x_j as [s, 1] @ factor, factor = [1; -x]: two exact products, rounded
    once, so the subtraction's bits (a zero's sign aside); left takes [s, 1]."""
    left = np.empty((s.size, 2)) if left is None else left
    left[:, 0] = s
    left[:, 1] = 1.0
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


def _weight_products(s, factor) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`_row_products` of prod_{j != i} (s_i - s_j) / cap, where cap is
    one quarter of the span of the checked points s (nonempty, 1-D and
    finite) and factor is their [1; -s].  Repeated points raise
    NodeCollisionError."""
    if s.size == 1:
        return np.ones(1), None
    cap = (s.max() - s.min()) / 4.0
    if not cap > 0:
        raise NodeCollisionError("points must be distinct")
    diff = _differences(s, factor)
    diff /= cap
    np.fill_diagonal(diff, 1.0)
    prod, exp = _row_products(diff)
    if not prod.all():  # a zero product has a zero factor: a repeated point
        raise NodeCollisionError("points must be distinct")
    return prod, exp


def _weights(s, factor) -> np.ndarray:
    """:func:`barycentric_weights` of the checked points s, factor = [1; -s]."""
    prod, exp = _weight_products(s, factor)
    if exp is None:
        return 1.0 / prod
    weights, _ = _reciprocals(prod, exp)
    size = np.abs(weights)
    if not size.max() <= _MAX_WEIGHT_SPAN * size.min():
        raise EvaluationError("barycentric weight products left the float range")
    return weights


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
    range.  Points that are not nonempty, 1-D and finite raise ValueError
    before any product.
    """
    s = _node_array(points)
    return _weights(s, _node_factor(s))


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
        """Mapped images of the points x, flattened to 1-D; non-finite points
        raise ValueError, non-finite images of finite ones EvaluationError."""
        x = np.asarray(x, dtype=float).ravel()
        try:
            return self.chain(x)
        except EvaluationError:
            if not np.isfinite(x).all():  # checked only once the chain failed
                raise ValueError("points must be finite") from None
            raise

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


def _node_images(x, chain: MapChain | None) -> tuple[np.ndarray, np.ndarray]:
    """Mapped images of the checked nodes x, which must be distinct, and the
    permutation that sorts them.  ``chain=None`` is the identity map; images
    that collide raise NodeCollisionError.
    """
    s = np.asarray(chain(x), dtype=float) if chain is not None else x.astype(float)
    order = np.argsort(s, kind="stable")
    if (np.diff(s[order]) <= 0).any():
        raise NodeCollisionError("map is not injective on the nodes: mapped nodes collide")
    return s, order


def mapped_basis(nodes, chain: MapChain | None = None) -> MappedBasis:
    """The nodes' basis under the chain (None: the identity).  Raises ValueError
    for nodes that are not nonempty, 1-D and finite, its subclass
    NodeCollisionError for nodes or images that collide, and EvaluationError
    for non-finite images or weights out of the float range."""
    chain = chain if chain is not None else MapChain()
    x = _node_array(nodes)  # the one check of the build
    s, order = _node_images(x, chain)
    x, s = x[order], s[order]
    factor = _node_factor(s)
    w = _weights(s, factor)
    for arr in (x, s, w, order, factor):
        arr.setflags(write=False)
    return MappedBasis(x, s, w, chain, order, factor)


def _shaped(out: np.ndarray, x):
    """Per-point results in the shape of x; a scalar x gives a float."""
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _block_rows(n: int) -> int:
    """Evaluation points per block of the quotient kernel, for n nodes."""
    return max(1, _BLOCK_BYTES // (8 * n))


def _evaluate(s, basis: MappedBasis, weights, reduce, out):
    """Fill ``out`` block by block through ``reduce``; return the node hits.

    ``reduce(rows, t)`` gets a block's slice of s and its terms
    ``t[k, j] = weights[j] / (s[rows][k] - mapped_nodes[j])`` (weights may be
    1.0) from :func:`_differences`, in a buffer that the next block reuses, and
    writes the block's results into ``out``, whose first axis is the points.
    Division by zero, overflow and invalid values pass silently: a point whose
    image equals a mapped node gives w_j / 0 = +-inf (w_j is finite and
    nonzero), and a quotient may overflow; either way its result is
    non-finite.  Only such points are compared with the mapped nodes, at one
    byte per point and node.  Returns (rows, cols, misses): ``rows`` index the
    points equal to a mapped node and ``cols`` those nodes; ``misses`` are the
    other non-finite points.
    """
    m, n = s.size, len(basis)
    block = _block_rows(n)
    buf = np.empty((min(block, m), n))
    left = np.empty((buf.shape[0], 2))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, m, block):
            rows = slice(lo, lo + block)  # the last block's slice ends past m
            t = _differences(s[rows], basis.node_factor, buf[:m - lo], left[:m - lo])
            np.divide(weights, t, out=t)
            reduce(rows, t)
    finite = np.isfinite(out) if out.ndim == 1 else np.isfinite(out).all(axis=1)
    if finite.all():
        return _NO_HITS
    rows = np.flatnonzero(~finite)
    hit_row, hit_col = np.nonzero(s[rows, None] == basis.mapped_nodes)
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

    def quotients(rows, r):
        sums = r @ interp.columns
        np.divide(sums[:, 0], sums[:, 1], out=out[rows])

    hit_row, hit_col, misses = _evaluate(s, interp, 1.0, quotients, out)
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
