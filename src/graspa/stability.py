"""Lebesgue-function analysis for mapped bases and infinite-shift predictions.

The Lebesgue function is evaluated from the same mapped basis as the
interpolant (``interpolation.MappedBasis``), through the same blocked kernel,
so the two paths share their numerical behaviour, and no value depends on the
order of the node list.  Evaluation points are processed in row blocks of
about 512 KiB, so memory is O(m + block * n) for m points and n nodes; each
per-point Lebesgue value is the same as an unblocked evaluation would give.

:func:`lebesgue_max` returns the same grid maximum as
:func:`lebesgue_constant` without evaluating every grid point.  Between two
consecutive nodes the Lebesgue function has exactly one local maximum
(Brutman, J. Inequal. Appl. 1997), and every named chain is increasing, so the
grid splits at the nodes into cells on which the function is unimodal; a
coarse pass over each cell and a fine pass around its best coarse points (all
within rounding error of the best) find the cell's maximum.  Every value it
evaluates has the bits the dense grid gives it, so the two maxima are equal.
Its bookkeeping works only on the points it evaluates: one binary search per
node bounds the cells, and the points of both passes are built cell by cell.
Both passes evaluate one basis, through the evaluator that
:func:`lebesgue_function` also wraps.  Where 16 (n+1) u (lambda + 1) reaches 1
(u the unit roundoff) the computed values are noise on both paths: the search
then looks around the best coarse point alone, and may pick another grid point
than the dense sweep, or miss a dense sample that cancelled to a non-finite
value.

For piecewise-shifted bases the module also evaluates what the Lebesgue
constant tends to as the shift grows without bound: per-subinterval classical
constants for the balanced odd and equal-cardinality multi-cut splits, and
the residual-augmented maximum for the even split.  The even split's residual
sum takes the left set's weight products from the ones behind
:func:`barycentric_weights` and divides the right set's nodal polynomial by
the same capacity, a quarter of the left set's span; both products carry an
exponent wherever a plain one leaves the float range, so the sum stays
finite wherever it is a finite double.  Those predictions come
from closed forms; brute-force large-shift evaluation is only ever a test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import NodePartition, PiecewiseDomain, _node_array
from .exceptions import EvaluationError, PredictionUnavailableError
from .interpolation import (MappedBasis, _differences, _node_factor, _node_hits,
                            _quotient_blocks, _reciprocals, _row_products, _shaped,
                            _weight_products, mapped_basis)
from .maps import MapChain

__all__ = [
    "StabilityReport",
    "LimitQuantities",
    "lebesgue_function",
    "lebesgue_grid",
    "lebesgue_constant",
    "lebesgue_max",
    "lagrange_matrix",
    "limit_lebesgue_prediction",
    "even_split_residual_sum",
    "c_factor",
    "delta_bound",
]


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Lebesgue function samples and their maximum over the grid."""

    grid: np.ndarray
    lebesgue_values: np.ndarray
    lebesgue_constant: float


@dataclass(frozen=True, eq=False)
class LimitQuantities:
    """Closed-form infinite-shift prediction and its ingredients.

    ``side_constants`` are the per-subinterval classical Lebesgue constants.
    For the even split, ``r_max`` is the maximum over the right subinterval of
    the residual sum plus the right-side Lebesgue function, and ``r_samples``
    holds that integrand on the grid.  ``c_table`` maps (mu, tau) index pairs
    to the cross-subinterval amplification factors (diagonal entries are not
    stored; they count as 1).
    """

    case: str
    predicted: float
    side_constants: tuple[float, ...]
    c_table: dict
    r_max: float | None = None
    r_samples: np.ndarray | None = None


def lebesgue_function(nodes, chain: MapChain | None, x):
    """Sum of absolute mapped Lagrange basis values at x; exactly 1 at nodes.

    The result has the shape of x (a float for scalar x).
    """
    basis = mapped_basis(nodes, chain)
    return _shaped(_lebesgue_values(basis.map(x), basis), x)


def _lebesgue_values(s, basis: MappedBasis) -> np.ndarray:
    """Lebesgue function of the basis at the mapped points s; the one evaluator
    behind :func:`lebesgue_function`, the cell search and the even split."""
    lam = np.empty(s.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for rows, t in _quotient_blocks(s, basis, basis.weights):
            den = np.abs(t.sum(axis=1))
            lam[rows] = np.abs(t, out=t).sum(axis=1) / den
    hit_row, _, misses = _node_hits(s, np.isfinite(lam), basis.mapped_nodes)
    if misses.size:
        raise EvaluationError("Lebesgue function evaluation lost finiteness")
    lam[hit_row] = 1.0
    return lam


def lebesgue_grid(domain: PiecewiseDomain, nodes, grid_spec="auto") -> np.ndarray:
    """Maximization grid for the Lebesgue constant.

    Per subinterval, a uniform sweep (left-open subintervals drop their left
    edge, matching the membership rule), unioned with the midpoints of
    adjacent nodes where the local maxima sit.  ``grid_spec`` is ``"auto"``
    (max(2000, 100 * node count) points per subinterval), an explicit
    per-subinterval count, or a ready-made array of points.
    """
    x = np.sort(_node_array(nodes))  # midpoints of neighbours on the line
    if isinstance(grid_spec, str):
        if grid_spec != "auto":
            raise ValueError(f"unknown grid spec {grid_spec!r}")
        per = max(2000, 100 * x.size)
    elif isinstance(grid_spec, (int, np.integer)):
        per = int(grid_spec)
        if per < 2:
            raise ValueError("per-subinterval grid needs at least 2 points")
    else:
        grid = np.sort(np.asarray(grid_spec, dtype=float))
        if grid.size == 0:
            raise ValueError("empty evaluation grid")
        if grid[0] < domain.interval.a or grid[-1] > domain.interval.b:
            raise ValueError("grid points outside the domain")
        return grid
    bp = domain.breakpoints
    pieces = []
    for i in range(domain.n_subintervals):
        g = np.linspace(bp[i], bp[i + 1], per)
        pieces.append(g if i == 0 else g[1:])
    pieces.append((x[:-1] + x[1:]) / 2.0)  # none for a single node
    return np.unique(np.concatenate(pieces))


# the fewest points a grid may resolve to for a Lebesgue-constant maximum
_MIN_GRID_POINTS = 1000
_UNIT_ROUNDOFF = np.finfo(float).eps / 2  # u, for rounding-error bounds


def _constant_grid(domain: PiecewiseDomain, nodes, grid_spec) -> np.ndarray:
    """:func:`lebesgue_grid`, refused when too coarse for a Lebesgue constant."""
    grid = lebesgue_grid(domain, nodes, grid_spec)
    if grid.size < _MIN_GRID_POINTS:
        raise ValueError(f"grid resolves to {grid.size} points; "
                         f"need at least {_MIN_GRID_POINTS}")
    return grid


def lebesgue_constant(nodes, chain: MapChain | None, domain: PiecewiseDomain,
                      grid_spec="auto") -> StabilityReport:
    """Maximum of the mapped Lebesgue function over a dense grid."""
    grid = _constant_grid(domain, nodes, grid_spec)
    vals = lebesgue_function(nodes, chain, grid)
    grid.setflags(write=False)
    vals.setflags(write=False)
    return StabilityReport(grid=grid, lebesgue_values=vals,
                           lebesgue_constant=float(vals.max()))


def lebesgue_max(nodes, chain: MapChain | None, domain: PiecewiseDomain,
                 grid_spec="auto") -> float:
    """``lebesgue_constant(...).lebesgue_constant`` without the dense sweep.

    The maximum over the same grid, found by searching each cell between
    consecutive nodes in two passes instead of evaluating every point (see
    the module docstring); the same bits wherever lambda has a correct digit.
    """
    grid = _constant_grid(domain, nodes, grid_spec)
    return _cell_search_max(mapped_basis(nodes, chain), grid)


def _cell_search_max(basis: MappedBasis, grid: np.ndarray) -> float:
    """Largest Lebesgue-function value over the sorted grid, found cell by cell.

    The nodes split the grid into cells, a point equal to a node closing the
    cell on its left.  An increasing chain maps each cell between two
    consecutive mapped nodes, where the Lebesgue function is unimodal (a cell
    that spans a cut maps to both sides of the shift's jump, still in order).
    Stage 1 evaluates every k-th point of each cell and its last point; the
    cell's maximum then lies within k points of its best stage-1 point, which
    stage 2 evaluates, with k = ceil(sqrt(largest cell / 2)) balancing the
    two stages.  Rounding error eps can make the computed values of a
    flat-topped cell rise and fall more than once, so stage 2 covers every
    stage-1 point within 4 eps of its cell's best: one of them lies within k
    points of the computed maximum.  Where 4 eps reaches lambda itself no
    digit is right, and only the dense grid would reproduce its noise; such a
    cell gets the window of its best point alone.  Cell ends are always
    evaluated: each |w_j / (s - s_j)| is convex on a cell, so a term that
    overflows somewhere on it overflows at an end, and the dense grid's
    EvaluationError still fires.  If the nodes, sorted by image, do not
    increase (the chain does not increase on them), every point is evaluated.

    The cells come from one binary search per node, and both stages' points
    are built cell by cell, so apart from the kernel the work and memory are
    O(n + points evaluated), not O(grid).
    """
    x = basis.nodes

    def values(idx):  # each stage maps only its own points
        return _lebesgue_values(basis.map(grid[idx]), basis)

    if not (np.diff(x) > 0).all():
        return float(values(slice(None)).max())
    # cell bounds: the first grid point past each node; empty cells drop out
    edges = np.unique(np.concatenate(([0], np.searchsorted(grid, x, side="right"),
                                      [grid.size])))
    starts = edges[:-1]
    last = np.diff(edges) - 1  # offset of each cell's last point
    k = int(np.ceil(np.sqrt((last.max() + 1) / 2.0)))
    # stage 1: offsets 0, k, 2k, ... in each cell, then its last point
    per_cell = last // k + 1 + (last % k > 0)
    cell = np.repeat(np.arange(starts.size), per_cell)
    head = np.cumsum(per_cell) - per_cell  # each cell's first stage-1 entry
    step = np.arange(cell.size) - head[cell]
    first = starts[cell] + np.minimum(step * k, last[cell])
    lam = values(first)
    # |computed - exact| <= eps = 4 (n+1) u lambda (lambda + 1) to first
    # order: the sums and quotients, and the weights' own rounding
    best = np.maximum.reduceat(lam, head)
    with np.errstate(over="ignore"):
        four_eps = 16.0 * x.size * _UNIT_ROUNDOFF * best * (best + 1.0)
    four_eps[four_eps >= best] = 0.0  # no correct digit: the best point alone
    near = lam >= (best - four_eps)[cell]
    near_cell = cell[near]
    lo = np.maximum(first[near] - k, starts[near_cell])
    hi = np.minimum(first[near] + k, (starts + last)[near_cell])
    # stage 2: the union of the windows [lo, hi], which are sorted and stay
    # inside their cells, minus the stage-1 points
    opens = np.ones(lo.size, dtype=bool)
    opens[1:] = (lo[1:] > hi[:-1]) | (near_cell[1:] != near_cell[:-1])
    span_lo, span_cell = lo[opens], near_cell[opens]
    span_len = hi[np.append(opens[1:], True)] - span_lo + 1
    span = np.repeat(np.arange(span_lo.size), span_len)
    pos = span_lo[span] + np.arange(span.size) - (np.cumsum(span_len) - span_len)[span]
    offset = pos - starts[span_cell[span]]
    second = pos[(offset % k != 0) & (offset != last[span_cell[span]])]
    lam2 = values(second)
    return float(max(lam.max(), lam2.max(initial=-np.inf)))


def lagrange_matrix(nodes, chain: MapChain | None, grid) -> np.ndarray:
    """Matrix |l_i(x_j)| of absolute mapped basis values, nodes by grid points.

    Rows keep the caller's node order; column sums reproduce the Lebesgue function.
    A grid point whose image hits a mapped node exactly yields its unit column.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a nonempty 1-D sequence")
    basis = mapped_basis(nodes, chain)
    s = basis.map(g)
    mat = np.empty((basis.order.size, s.size))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for rows, t in _quotient_blocks(s, basis, basis.weights):
            np.divide(t, t.sum(axis=1)[:, None], out=t)
            mat[basis.order, rows] = np.abs(t, out=t).T  # row i is node order[i]
    hit_row, hit_col, misses = _node_hits(s, np.isfinite(mat).all(axis=0),
                                          basis.mapped_nodes)
    if misses.size:
        raise EvaluationError("Lagrange matrix evaluation lost finiteness")
    mat[:, hit_row] = 0.0
    mat[basis.order[hit_col], hit_row] = 1.0
    return mat


def even_split_residual_sum(left_nodes, right_nodes, x) -> np.ndarray:
    """sum_i |r_i(x)| for the even split: |left| = |right| + 1.

    Each r_i is the nodal polynomial omega over the right node set times the
    i-th barycentric weight of the left set, so the sum factorizes.  The left
    weights are the reciprocals of the capacity-scaled products behind
    :func:`barycentric_weights` (the capacity is a quarter of the left set's
    span), and omega's differences are divided by the same capacity, which
    cancels because the factor counts match.  Both products are
    exponent-tracked wherever a plain one leaves the normal float range, and
    the two exponents are added before the result is formed, so
    EvaluationError is raised only where the sum itself is not a finite
    double.  The sum has only positive terms, so the weights need no span
    guard.
    """
    x1 = np.asarray(left_nodes, dtype=float)
    x2 = np.asarray(right_nodes, dtype=float)
    if x1.size != x2.size + 1:
        raise ValueError(
            f"even split needs |left| = |right| + 1, got {x1.size} and {x2.size}"
        )
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    prod, exp = _weight_products(x1)
    cap = (x1.max() - x1.min()) / 4.0
    omega, omega_exp = _row_products(_differences(pts, _node_factor(x2)) / cap)
    # an exponent of None is 0: every row kept its plain product
    w, k = _reciprocals(prod, 0 if exp is None else exp)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.ldexp(np.abs(omega) * np.abs(w).sum(),
                       k if omega_exp is None else omega_exp + k)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("residual sum evaluation lost finiteness")
    return out


def limit_lebesgue_prediction(partition: NodePartition, domain: PiecewiseDomain,
                              grid_spec="auto") -> LimitQuantities:
    """Infinite-shift Lebesgue constant from its closed form.

    Covers the single-cut splits with per-side counts equal (odd case: the
    larger of the two classical side constants) or left-larger-by-one (even
    case: the left classical constant against the residual-augmented right
    maximum), and the multi-cut split with all counts equal.  Anything else is
    refused: outside the balance condition the limit is unbounded, and the
    mirrored even split is not implemented -- mirror the domain instead.
    """
    cards = partition.cardinalities
    d = len(cards) - 1
    if d < 1:
        raise PredictionUnavailableError("the domain has no cuts; nothing to predict")
    all_nodes = np.concatenate(partition.parts)
    grid = lebesgue_grid(domain, all_nodes, grid_spec)
    # classical per-side Lebesgue functions are continuous, so the supremum
    # over a half-open subinterval equals the maximum over its closure; use
    # closed masks (cut points count for both neighbours)
    bp = domain.breakpoints
    side_grids = [grid[(grid >= bp[i]) & (grid <= bp[i + 1])] for i in range(d + 1)]
    if min(g.size for g in side_grids) == 0:
        raise ValueError("empty subinterval grid")
    bases = [mapped_basis(part) for part in partition.parts]
    side_constants = tuple(_cell_search_max(b, g) for b, g in zip(bases, side_grids))
    c_table = {}
    if d >= 2:
        for mu in range(1, d + 2):
            for tau in range(1, d + 2):
                if mu != tau:
                    c_table[(mu, tau)] = c_factor(mu, tau, cards)
    if d == 1:
        n1, n2 = cards
        if n1 == n2:
            return LimitQuantities("odd", max(side_constants), side_constants, c_table)
        if n1 == n2 + 1:
            r_vals = even_split_residual_sum(partition.parts[0], partition.parts[1],
                                             side_grids[1])
            integrand = r_vals + _lebesgue_values(bases[1].map(side_grids[1]), bases[1])
            integrand.setflags(write=False)
            r_max = float(integrand.max())
            return LimitQuantities("even", max(side_constants[0], r_max),
                                   side_constants, c_table, r_max=r_max,
                                   r_samples=integrand)
        if n2 == n1 + 1:
            raise PredictionUnavailableError(
                "even split with the larger set on the right is not handled; "
                "mirror the domain and nodes"
            )
        raise PredictionUnavailableError(
            f"per-side counts {cards} differ by more than one; the "
            "infinite-shift Lebesgue constant is unbounded outside the "
            "balance condition"
        )
    if len(set(cards)) == 1:
        return LimitQuantities("multi-equal", max(side_constants), side_constants,
                               c_table)
    raise PredictionUnavailableError(
        f"multi-cut closed form needs equal per-subinterval counts, got {cards}"
    )


def c_factor(mu: int, tau: int, cardinalities) -> float:
    """Cross-subinterval amplification prod_{nu != mu, tau} |(tau-nu)/(mu-nu)|^k_nu.

    Indices are 1-based over the d+1 subintervals; needs d >= 2 and mu != tau.
    """
    cards = [int(c) for c in cardinalities]
    count = len(cards)
    if count < 3:
        raise ValueError("the amplification factor needs at least two cuts (d >= 2)")
    if not (1 <= mu <= count and 1 <= tau <= count):
        raise ValueError(f"indices must lie in 1..{count}")
    if mu == tau:
        raise ValueError("mu and tau must differ")
    out = 1.0
    for nu in range(1, count + 1):
        if nu in (mu, tau):
            continue
        out *= abs((tau - nu) / (mu - nu)) ** cards[nu - 1]
    return out


def delta_bound(n_max: int) -> float:
    """Endpoint-offset threshold 4 / (pi N^2 (2 + pi log(N + 1))).

    Node families whose largest offset stays below this value keep a
    logarithmically growing Lebesgue constant; callers compare their maximal
    beta/gamma against it.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("need N >= 1")
    return 4.0 / (np.pi * n_max * n_max * (2.0 + np.pi * np.log(n_max + 1.0)))
