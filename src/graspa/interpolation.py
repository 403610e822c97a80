"""Barycentric interpolation in a mapped variable.

Values sampled at the original nodes are interpolated as a polynomial in the
mapped variable ``s = S(x)`` and evaluated through the quotient (second-form)
barycentric formula.  Weight products are capacity-scaled so they stay
representable even when the mapped nodes form clusters separated by a shift
of 1e4 or more; the common scale cancels in the quotient.  Where a scaled
product still leaves the normal float range (f1 GRASPA at shift 1e4 from
degree 165 on), the products are taken as mantissas and integer exponents
(``np.frexp``), and the weights come back up to one power of two; weights
spanning more than 2**53 are refused with EvaluationError.  A monomial
(Vandermonde) path is kept for low degrees as an independent cross-check --
for shifted node sets the mapped monomial basis is numerically unusable
beyond toy sizes, so it is guarded, never the production path.

An :class:`Interpolant` is a :class:`MappedBasis` (nodes sorted by image,
their images, weights and chain; built by ``mapped_basis``) with values, and
the evaluators in ``stability`` take a basis too, so no result depends on the
order of the node list.  Every sum or product over the nodes in the package
is a plain loop over blocks of points from one generator, ``_blocks``: it
forms a block's differences s - x_j in one reused buffer of about 512 KiB
(O(m + block * n) memory for m points at n nodes, not O(m * n)) by one rank-2
product [s, 1] @ [1; -x_j] (``_differences``), bit-equal to the subtraction,
and yields them to the caller's loop.  The interpolant, the Lebesgue function
and the basis matrix divide them into the quotient terms ``w_j / (s - s_j)``;
the weights (each node skipping its own factor), the first form and the
residual sums of ``stability`` loop over their row products, which
``_nodal_products`` yields block by block, plain unless a row of the block
leaves the normal range (``_row_products``).  The Lebesgue function and the
basis matrix reduce each row as the unblocked formula does, so their values
do not depend on the block size; the interpolant takes each block's
numerator and denominator from one matrix product of the reciprocals
``1 / (s - s_j)`` with the columns ``[w * f, w]``.  The interpolant and the
Lebesgue function write each block's results over its images, which the
chain returns in a new array (the identity's too), so an evaluation of m
points holds the m images and the block buffer.  A point whose image equals
a mapped node exactly makes its result non-finite, so each block keeps aside
only the images of its non-finite points (``_keep``), and after the loop
only these are compared with the mapped nodes (``_node_hits``); each
evaluator applies its own policy to the hits and the misses.  A hit returns
the node's stored value (Berrut & Trefethen, SIAM Rev. 2004).  The
interpolant takes a miss (a denominator that cancelled to 0, or a sum that
overflowed) again in the first, modified Lagrange form ``p(s) = l(s) sum_j
w*_j f_j / (s - s_j)``, backward stable (Higham, IMA J. Numer. Anal. 2004),
with ``l(s)`` exponent-tracked and the true weights ``w*_j`` the stored ones
without their common scale.  A row that is still non-finite, and any miss of
the Lebesgue function or the basis matrix, raises EvaluationError; a
non-finite evaluation point raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import _node_array
from .exceptions import EvaluationError, NodeCollisionError
from .maps import MapChain, _unwrap

__all__ = [
    "Interpolant",
    "barycentric_weights",
    "build_interpolant",
    "eval_interpolant",
    "vandermonde_coefficients",
    "eval_monomial",
]

VANDERMONDE_MAX_DEGREE = 12
_BLOCK_BYTES = 512 * 1024  # byte budget of the block loop's buffer
_NO_HITS = (np.empty(0, dtype=np.intp),) * 3 + (np.empty(0),)  # see _node_hits
_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max  # the normal range
_FREXP_BLOCK = 512  # mantissas per block product: >= 2**-512, still normal
_MAX_WEIGHT_SPAN = 2.0**53  # 1/u: the widest max|w| / min|w| accepted


def _node_factor(x) -> np.ndarray:
    factor = np.empty((2, x.size))
    factor[0] = 1.0
    np.negative(x, out=factor[1])
    return factor


def _differences(s, factor, out=None) -> np.ndarray:
    """s_i - x_j as [s, 1] @ factor, factor = [1; -x]: two exact products, rounded
    once, so the subtraction's bits (a zero's sign aside)."""
    left = np.empty((s.size, 2))
    left[:, 0] = s
    left[:, 1] = 1.0
    return np.matmul(left, factor, out=out)


def _row_products(diff) -> tuple[np.ndarray, np.ndarray]:
    """Row products of a block of differences as (p, e), product = p * 2**e,
    e an int64 array.

    Where every row's plain product is a normal float, or an exact zero from
    a zero entry, p is that product and e is 0.  Otherwise every row is
    taken with exponent tracking: the ``np.frexp`` mantissas are multiplied
    ``_FREXP_BLOCK`` columns at a time, the running product renormalised
    after each block so that no partial product leaves the normal range, and
    the exponents are summed as integers.  Scaling by powers of two is exact,
    so each row carries only the rounding of its multiplications; |p| then
    lies in [1/2, 1), or is 0 for a zero entry.
    """
    prod = diff.prod(axis=1)  # inside the block loop, overflow passes silently
    size = np.abs(prod)
    normal = (size >= _TINY) & (size <= _HUGE)
    if normal.all() or (diff[~normal] == 0).any(axis=1).all():
        return prod, np.zeros(prod.size, np.int64)
    mant, exp = np.frexp(diff)
    total = exp.sum(axis=1, dtype=np.int64)
    prod = np.ones(diff.shape[0])
    for lo in range(0, diff.shape[1], _FREXP_BLOCK):
        prod, shift = np.frexp(prod * mant[:, lo:lo + _FREXP_BLOCK].prod(axis=1))
        total += shift
    return prod, total


def _capacity_weights(s, factor) -> tuple[np.ndarray, int | None]:
    """Reciprocals of prod_{j != i} (s_i - s_j) / cap as (w, k), = w * 2**k, for
    the checked points s, factor = [1; -s], and cap a quarter of their span.
    Where every block kept its plain products, w are their reciprocals and k
    is None; else max |w| lies in [1/2, 1).  Repeats raise NodeCollisionError."""
    # a span of 0 (one point, or all equal) takes cap 1: a repeat's factor is 0
    blocks = [(p, e) for _, p, e, _ in
              _nodal_products(s, factor, (s.max() - s.min()) / 4.0 or 1.0, own=s.size)]
    prod = np.concatenate([p for p, _ in blocks])
    if not prod.all():  # a zero product has a zero factor: a repeated point
        raise NodeCollisionError("points must be distinct")
    if not any(e.any() for _, e in blocks):  # tracked rows off the range have e != 0
        return 1.0 / prod, None
    exp = np.concatenate([e for _, e in blocks])
    mant, w_exp = np.frexp(1.0 / prod)
    w_exp = w_exp - exp
    top = int(w_exp.max())
    return np.ldexp(mant, w_exp - top), top


def _weights(s, factor) -> np.ndarray:
    """:func:`barycentric_weights` of the checked points s, factor = [1; -s]."""
    weights, k = _capacity_weights(s, factor)
    if k is not None:
        size = np.abs(weights)
        if not size.max() <= _MAX_WEIGHT_SPAN * size.min():
            raise EvaluationError("barycentric weight products left the float range")
    return weights


def barycentric_weights(points) -> np.ndarray:
    """Weights 1 / prod_{j != i} (s_i - s_j), up to a common scale.

    Each difference is divided by a capacity constant (one quarter of the node
    span), a common factor that drops out of the quotient but keeps the
    partial products finite for clustered node sets.  Where every scaled
    product is a normal float, the weights are their reciprocals.  Otherwise
    each block of rows with a product outside that range is taken with
    exponent tracking (:func:`_row_products`), and the weights are rescaled
    by one power of two so that max |w| lies in [1/2, 1), a scale that drops
    out of the quotient too.  Rescaled weights that span more than 2**53
    (max |w| / min |w|) would lose the smallest against the largest in the
    quotient's sums, and raise EvaluationError as products that leave the
    float range do.  Points that are not nonempty, 1-D and finite raise
    ValueError before any product.
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
        """Mapped images of x, flattened to 1-D, with the chain's errors."""
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


def _block_rows(n: int) -> int:
    """Evaluation points per block of the block loop, for n nodes."""
    return max(1, _BLOCK_BYTES // (8 * max(n, 1)))


def _blocks(s, factor):
    """The block loop: yield (rows, d) for each block, rows its slice of s (the
    last one ends past s) and d[k, j] = s[rows][k] - x_j, factor = [1; -x], in
    the buffer that the next block reuses.  Until the caller's loop ends, its
    divisions by zero, overflows and invalid values pass silently: the caller
    checks its own results.  After its loop the caller sets its last d to
    None (assigned, not deleted: a loop over no points binds none), so the
    buffer is freed before the code after the loop allocates."""
    m = s.size
    block = _block_rows(factor.shape[1])
    buf = np.empty((min(block, m), factor.shape[1]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, m, block):
            rows = slice(lo, lo + block)
            yield rows, _differences(s[rows], factor, buf[:m - lo])


def _nodal_products(s, factor, cap, own=0):
    """Yield (rows, p, e, d) for each block: its scaled differences d = (s_i -
    x_j) / cap and their row products p * 2**e (:func:`_row_products`); the
    first ``own`` points are x's first nodes, and each skips its own factor."""
    for rows, diff in _blocks(s, factor):
        diff /= cap
        if rows.start < own:  # entries (k, rows.start + k), contiguous diff
            diff.ravel()[rows.start::diff.shape[1] + 1][:own - rows.start] = 1.0
        yield rows, *_row_products(diff), diff


def _keep(kept, rows, finite, s):
    """Append to kept the block's rows whose ``finite`` is False, with their
    images s, before the block's results overwrite them."""
    if not finite.all():
        bad = np.flatnonzero(~finite)
        bad += rows.start
        kept.append((bad, s[bad]))


def _node_hits(kept, basis: MappedBasis):
    """(rows, cols, misses, images) of the points that :func:`_keep` kept, those
    with a non-finite result: those whose image equals a mapped node, their
    nodes, the rest and the images of the rest; only these are compared."""
    if not kept:
        return _NO_HITS
    rows, images = kept[0] if len(kept) == 1 else map(np.concatenate, zip(*kept))
    hit, hit_col = np.nonzero(images[:, None] == basis.mapped_nodes)
    if hit.size == rows.size:  # hits alone, the common case
        return (rows, hit_col) + _NO_HITS[2:]
    return rows[hit], hit_col, np.delete(rows, hit), np.delete(images, hit)


def _first_form(s, interp: Interpolant) -> np.ndarray:
    """p(s) = l(s) * sum_j w*_j f_j / (s - s_j) at points s that are not mapped
    nodes, l(s) = prod_k (s - s_k) and w*_j the true weights: the stored ones
    are c * w*_j for one common scale c, which node 0, leading the block loop,
    gives back as c = w_0 * prod_{k != 0} (s_0 - s_k).  Every factor is
    combined as a mantissa and an exponent, so p is non-finite only if the
    sum is, or if p itself is not a finite double."""
    out = np.empty(s.size + 1)
    c_mant, c_exp = np.frexp(interp.weights[0])  # w_0, then c
    for rows, prod, exp, diff in _nodal_products(
            np.append(interp.mapped_nodes[0], s), interp.node_factor, 1.0, own=1):
        mant, e = np.frexp(prod)
        e = e + exp
        if rows.start == 0:  # node 0's row comes first
            c_mant, c_exp = mant[0] * c_mant, e[0] + c_exp
        num_mant, num_e = np.frexp(np.reciprocal(diff, out=diff) @ interp.columns[:, 0])
        np.ldexp(num_mant * mant / c_mant, num_e + (e - c_exp), out=out[rows])
    return out[1:]


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

    A point whose image coincides bit-exactly with a mapped node returns the
    stored sample value, making the interpolation conditions exact.  Any
    other point whose quotient is non-finite (the denominator cancelled to
    0, or a sum overflowed) is taken again in the first form
    (:func:`_first_form`), and raises EvaluationError if it is still
    non-finite there.  The result has the shape of x (a float for scalar x).
    """
    out = interp.map(x)  # each block's values overwrite its images
    kept = []
    for rows, t in _blocks(out, interp.node_factor):  # no block's sums outlive it
        num, den = (np.divide(1.0, t, out=t) @ interp.columns).T
        vals = np.divide(num, den, out=num)
        _keep(kept, rows, np.isfinite(vals), out)
        out[rows] = vals
    t = None  # frees the block buffer
    hit_row, hit_col, misses, images = _node_hits(kept, interp)
    out[hit_row] = interp.values[hit_col]
    if misses.size:
        out[misses] = _first_form(images, interp)
        if not np.isfinite(out[misses]).all():
            raise EvaluationError("barycentric evaluation lost finiteness")
    return _unwrap(x, out)


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
