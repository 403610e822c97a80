"""Lebesgue-function analysis for mapped bases and infinite-shift predictions.

The Lebesgue function is evaluated from the same mapped basis as the
interpolant (``interpolation.MappedBasis``), through the same block loop
(see ``interpolation``), so the two share their numerical behaviour, and no
value depends on the order of the node list or on the block size.  Its one
evaluator writes the values over the images it is given:
:func:`lebesgue_function`, the search's second stage and the limit sides
hand it images they do not read again, and the search's first stage a copy
of its images, which its gap bounds read.

:func:`lebesgue_max` returns the same grid maximum as
:func:`lebesgue_constant` without evaluating every grid point.  Between two
consecutive nodes the Lebesgue function has exactly one local maximum
(Brutman, J. Inequal. Appl. 1997), and every named chain is increasing, so the
grid splits at the nodes into cells on which the function is unimodal.  A
coarse pass takes every k-th point of each cell and its last point, k =
ceil(sqrt(2 * largest cell)), and a fine pass the points inside each gap
between consecutive coarse points of one cell that has a near end: one
within rounding error eps of its cell's best coarse value.  Each computed
value lies within eps of lambda, so the interval where lambda >= best - eps
holds both the best coarse point and the computed maximum; every coarse
point between them is near, so the computed maximum lies in a gap with a
near end.  The fine pass skips every such gap whose bound shows that no
value in it reaches the largest coarse value: between two mapped nodes
N(s) = sum_j |w_j| / |s - s_j| is convex and -log |sum_j w_j / (s - s_j)|
concave, so the values at a gap's ends and at its outer neighbours bound
lambda on it (:func:`_gap_bounds`).  Every value it evaluates has the bits the dense grid gives it, so the two
maxima are equal.  Its bookkeeping works only on the points it evaluates: one
binary search per node bounds the cells, and the points of both passes are
built cell by cell.  A grid given by a point count is never materialised for
the search: it is described per subinterval by its sweep's start, step,
count and end, plus the merged midpoints, and yields each point the search
asks for with the bits the materialised grid holds.  So the search holds
O(n + points evaluated) beside the kernel's block buffer.  Both passes
evaluate one basis, through the evaluator that :func:`lebesgue_function`
also wraps.  Where 16 (n+1) u (lambda + 1) reaches 1 (u the unit roundoff)
the computed values are noise on both paths: the search then looks in the
two gaps beside the best coarse point alone, with no gap skipped, and may pick another grid
point than the dense sweep, or miss a dense sample that cancelled to a
non-finite value.

For piecewise-shifted bases the module also evaluates the limit of the
Lebesgue constant as the S-Gibbs shift kappa grows without bound.  Take x in
subinterval tau, with k_nu nodes in subinterval nu.  Every difference across
subintervals is (tau - nu) kappa to leading order, so the basis function of a
node j in mu != tau behaves as c(mu, tau) omega_tau(x) w_j^(mu)
kappa^(k_mu - k_tau - 1): omega_tau is the nodal polynomial of tau's nodes,
w^(mu) are the weights of mu's nodes alone and c is :func:`c_factor`, while
tau's own nodes give its classical basis.  So lambda stays bounded exactly
when max k - min k <= 1 (``NodePartition.balanced``), and on subinterval tau

    lambda_inf(x) = lambda_tau(x) + |omega_tau(x)|
                    * sum_{mu: k_mu = k_tau + 1} c(mu, tau) sum_j |w_j^(mu)|,

each inner sum being :func:`even_split_residual_sum` of the pair (mu, tau).
Equal counts leave the classical side constants alone; one cut has c = 1.
The predictions come from these closed forms; brute-force large-shift
evaluation is only ever a test oracle.  Each side's closed grid, both ends
included, is built once as a sorted array; a side with no heavier neighbour
is searched on it like any other basis, and the others are evaluated on it
densely, since their integrand is returned, and that pass gives their side
constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import NodePartition, PiecewiseDomain, _integer, _node_array, _nodes_inside
from .exceptions import EvaluationError, PredictionUnavailableError
from .interpolation import (MappedBasis, _blocks, _capacity_weights, _keep, _nodal_products,
                            _node_factor, _node_hits, mapped_basis)
from .maps import MapChain, _unwrap

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
    ``c_table`` maps 1-based (mu, tau) index pairs to the cross-subinterval
    amplification factors that weight the prediction's residual sums; it is
    empty for a single cut, where the factor is 1.  ``r_samples`` holds the
    augmented integrand lambda_tau plus its weighted residual sums on the
    grid of each subinterval tau that has a heavier one, concatenated in
    subinterval order, and ``r_max`` its maximum; both are None where every
    subinterval gives its side constant.
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
    return _unwrap(x, _lebesgue_values(basis.map(x), basis))


def _lebesgue_values(s, basis: MappedBasis, den=None) -> np.ndarray:
    """Lebesgue function of the basis at the mapped points s, written over s
    block by block and returned; the one evaluator behind
    :func:`lebesgue_function`, the cell search and the limit sides.  ``den``,
    if given, receives each point's sum_j w_j / (s - s_j)."""
    kept = []
    for rows, t in _blocks(s, basis.node_factor):
        d = np.divide(basis.weights, t, out=t).sum(axis=1)
        if den is not None:
            den[rows] = d
        lam = np.abs(t, out=t).sum(axis=1)
        lam /= np.abs(d, out=d)
        _keep(kept, rows, np.isfinite(lam), s)
        s[rows] = lam
    t = None  # frees the block buffer
    hit_row, _, misses, _ = _node_hits(kept, basis)
    if misses.size:
        raise EvaluationError("Lebesgue function evaluation lost finiteness")
    s[hit_row] = 1.0
    return s


def lebesgue_grid(domain: PiecewiseDomain, nodes, grid_spec="auto") -> np.ndarray:
    """Maximization grid for the Lebesgue constant.

    Per subinterval, a uniform sweep (left-open subintervals drop their left
    edge, matching the membership rule), unioned with the midpoints of
    adjacent nodes where the local maxima sit; where a midpoint equals a sweep
    point, the sweep point stays.  ``grid_spec`` is ``"auto"``
    (max(2000, 100 * node count) points per subinterval), a count per
    subinterval of at least 2, read as a degree is (an int, an integral float
    or a string holding one), or a nonempty 1-D array of finite points;
    anything else raises ValueError, as do nodes outside the domain.
    """
    return _points(_search_grid(domain, nodes, grid_spec))


# the fewest points a grid may resolve to for a Lebesgue-constant maximum
_MIN_GRID_POINTS = 1000
_UNIT_ROUNDOFF = np.finfo(float).eps / 2  # u, for rounding-error bounds
# the narrowest sweep step a _SweepGrid takes, in units of the spacing of
# the floats at the larger end of its subinterval
_MIN_STEP_SPACINGS = 16
# a gap bound's stage-1 points a', a, b, b' as offsets from a, the sign that
# makes a - a' and b' - b positive, and a bound on |log| of a finite double
_GAP_POINTS = np.array([[-1], [0], [1], [2]])
_OUTWARD = np.array([[1.0], [-1.0]])
_MAX_LOG = 745.0


class _SweepGrid:
    """:func:`lebesgue_grid`'s grid for a point count, without its points.

    Subinterval i holds the sweep s_i(j) = j * step_i + start_i, j < per, its
    last point pinned to end_i: the bits of ``np.linspace``.  Its point j has
    position i (per - 1) + j in the sweeps' concatenation, where subinterval
    i > 0 drops j = 0, its start being the previous end.  The midpoints that
    equal no sweep point are merged in.  ``size``, ``take`` and
    ``searchsorted`` give what the ndarray methods of the materialised grid
    give, in memory O(points asked + node count); ``side`` builds one
    subinterval's points as ``np.linspace`` does, with no per-point search.

    Each computed sweep point lies within 2 spacings of j * step + start,
    spacings of the floats at the larger end of its subinterval, so with a
    step of at least ``_MIN_STEP_SPACINGS`` of them the sweeps strictly
    increase, and the index floor((v - start) / step) is off by at most one
    from the count of sweep points below v; the exact neighbours correct it.
    """

    def __init__(self, start, end, step, per, mid):
        self.start, self.end, self.step, self.per = start, end, step, per
        self.sweep_size = start.size * (per - 1) + 1
        # each midpoint once, where no sweep point has its value
        at = self._sweep_count(mid, "left")
        new = self._sweep_take(np.minimum(at, self.sweep_size - 1)) != mid
        new[1:] &= mid[1:] != mid[:-1]
        self.mid = mid[new]
        self.size = self.sweep_size + self.mid.size
        # the midpoints' grid positions, closed by one that no point reaches
        self.mid_pos = np.append(at[new] + np.arange(self.mid.size), self.size)

    def _sweep_value(self, i, j):
        """s_i(j) for arrays of subinterval i and index j."""
        out = j * self.step[i]
        out += self.start[i]
        np.copyto(out, self.end[i], where=j == self.per - 1)
        return out

    def _sweep_take(self, pos):
        """Sweep points at their positions in the sweeps' concatenation."""
        i = np.minimum(np.maximum((pos - 1) // (self.per - 1), 0), self.start.size - 1)
        return self._sweep_value(i, pos - i * (self.per - 1))

    def _sweep_count(self, v, side):
        """Sweep points below v (side "left") or not above it ("right")."""
        below = np.less if side == "left" else np.less_equal
        # subinterval i's sweep holds the first point not counted whole
        i = np.searchsorted(self.end, v, side)
        whole = i == self.start.size
        i[whole] = 0
        with np.errstate(over="ignore"):  # far past the end: clipped below
            j = np.floor((v - self.start[i]) / self.step[i])
        j = np.clip(j, -1, self.per - 2).astype(np.intp)  # per - 1 is end_i
        j += below(self._sweep_value(i, j + 1), v)
        j -= (j >= 0) & ~below(self._sweep_value(i, np.maximum(j, 0)), v)
        count = i * (self.per - 1) + j + 1
        count[whole] = self.sweep_size
        return count

    def searchsorted(self, v, side="left"):
        v = np.asarray(v, dtype=float)
        return self._sweep_count(v, side) + np.searchsorted(self.mid, v, side)

    def side(self, i):
        """The points of subinterval i, both ends included, as a sorted array:
        its sweep merged with the midpoints inside it, bit-equal to ``take``
        of that run of positions."""
        a, b = self.start[i], self.end[i]
        mid = self.mid[self.mid.searchsorted(a):self.mid.searchsorted(b, "right")]
        return _merged_sweeps(self.start[i:i + 1], self.end[i:i + 1], self.per, mid)

    def take(self, idx):
        idx = np.asarray(idx)
        k = self.mid_pos.searchsorted(idx)  # midpoints before each position
        out = self._sweep_take(idx - k)
        on_mid = self.mid_pos[k] == idx
        out[on_mid] = self.mid[k[on_mid]]
        return out


def _search_grid(domain: PiecewiseDomain, nodes, grid_spec):
    """:func:`lebesgue_grid`'s grid: a :class:`_SweepGrid` for a point count,
    a sorted array for explicit points or sweeps too narrow for one."""
    x = np.sort(_nodes_inside(nodes, domain))  # their midpoints join the grid
    spec = _grid_spec_from(grid_spec)
    if isinstance(spec, np.ndarray):
        if spec[0] < domain.interval.a or spec[-1] > domain.interval.b:
            raise ValueError("grid points outside the domain")
        return spec
    per = max(2000, 100 * x.size) if spec == "auto" else spec
    bp = np.array(domain.breakpoints, dtype=float)
    start, end = bp[:-1], bp[1:]
    step = (end - start) / (per - 1)  # np.linspace's step
    mid = (x[:-1] + x[1:]) / 2.0  # none for a single node; nondecreasing, as x is
    spacing = np.spacing(np.maximum(np.abs(start), np.abs(end)))
    if (step >= _MIN_STEP_SPACINGS * spacing).all():
        return _SweepGrid(start, end, step, per, mid)
    return _merged_sweeps(start, end, per, mid)  # a subinterval too narrow to describe


def _grid_spec_from(grid_spec, what="the grid spec"):
    """A grid spec as :func:`lebesgue_grid` documents it: ``"auto"``, a count
    (read by :func:`domain._integer`) of at least 2, or the points of a
    nonempty finite 1-D array, sorted, as floats; anything else raises
    ValueError, whose text names ``what`` where the spec is no array."""
    if isinstance(grid_spec, str) and grid_spec == "auto":
        return grid_spec
    if np.ndim(grid_spec) == 0:
        per = _integer(grid_spec, what)
        if per < 2:
            raise ValueError(f"{what} needs at least 2 points per subinterval")
        return per
    grid = np.asarray(grid_spec, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
        raise ValueError("grid spec must be 'auto', an integer count or a nonempty "
                         f"1-D array of finite points, got {grid_spec!r:.60}")
    return np.sort(grid)


def _merged_sweeps(start, end, per, mid) -> np.ndarray:
    """The ``np.linspace`` sweeps of per points from each start to its end, each
    after the first without its start, and the points mid, sorted; repeats
    are dropped, the sweep's value first among equal ones."""
    grid = np.sort(np.concatenate([np.linspace(a, b, per)[i > 0:] for i, (a, b)
                                   in enumerate(zip(start, end))] + [mid]), kind="stable")
    return grid[np.append(True, grid[1:] != grid[:-1])]


def _points(grid) -> np.ndarray:
    """The points of a grid from :func:`_search_grid` as a sorted array."""
    return grid if isinstance(grid, np.ndarray) else _merged_sweeps(
        grid.start, grid.end, grid.per, grid.mid)


def _constant_grid(domain: PiecewiseDomain, nodes, grid_spec):
    """:func:`_search_grid`, refused when too coarse for a Lebesgue constant."""
    grid = _search_grid(domain, nodes, grid_spec)
    if grid.size < _MIN_GRID_POINTS:
        raise ValueError(f"grid resolves to {grid.size} points; "
                         f"need at least {_MIN_GRID_POINTS}")
    return grid


def lebesgue_constant(nodes, chain: MapChain | None, domain: PiecewiseDomain,
                      grid_spec="auto") -> StabilityReport:
    """Maximum of the mapped Lebesgue function over a dense grid."""
    grid = _points(_constant_grid(domain, nodes, grid_spec))
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
    A point-count grid is never materialised: the search asks it for the
    points it evaluates alone.
    """
    grid = _constant_grid(domain, nodes, grid_spec)
    return _cell_search_max(mapped_basis(nodes, chain), grid)


def _cell_search_max(basis: MappedBasis, grid) -> float:
    """Largest Lebesgue-function value over the sorted grid, found cell by cell.

    The nodes split the grid into cells, a point equal to a node closing the
    cell on its left.  An increasing chain maps each cell between two
    consecutive mapped nodes, where the Lebesgue function is unimodal (a cell
    that spans a cut maps to both sides of the shift's jump, still in order).
    Stage 1 evaluates every k-th point of each cell and its last point, with
    k = ceil(sqrt(2 * largest cell)).  Rounding error eps can make the
    computed values of a flat-topped cell rise and fall more than once, so
    every stage-1 point within 4 eps of its cell's best computed value b is
    near.  lambda is unimodal on the cell and each computed value lies within
    eps of it, so the interval where lambda >= b - eps holds both the best
    stage-1 point and the computed maximum; every stage-1 point between them
    computes to at least b - 2 eps and is near, so the computed maximum lies
    in a gap between consecutive stage-1 points with a near end.  Where 4 eps
    reaches lambda itself no digit is right, and only the dense grid would
    reproduce its noise; in such a cell only its best point is near.

    Stage 2 evaluates the interior of every gap with a near end, less the
    gaps whose bound (:func:`_gap_bounds`) proves that no computed value in
    them reaches the largest stage-1 value, so the result has the bits the
    gaps give.  A gap without a valid bound (in a noise cell, beside a node
    hit, or in a cell of fewer than three stage-1 points) is kept.  Cell ends are always evaluated: each |w_j / (s - s_j)| is convex
    on a cell, so a term that overflows somewhere on it overflows at an end,
    and the dense grid's EvaluationError still fires.  If the nodes, sorted
    by image, do not increase (the chain does not increase on them), every
    point is evaluated.

    The grid is a sorted array or a :class:`_SweepGrid`; the search uses only
    its ``size``, ``searchsorted`` and ``take``.  The cells come from one
    binary search per node, and both stages' points are built cell by cell or
    gap by gap, so apart from the kernel the work and memory are
    O(n + points evaluated), not O(grid).
    """
    x = basis.nodes
    if not (np.diff(x) > 0).all():
        return float(_lebesgue_values(basis.map(_points(grid)), basis).max())
    # cell bounds: the first grid point past each node, sorted as the nodes
    # are; empty cells drop out
    past = grid.searchsorted(x, side="right")
    edges = np.concatenate(([0], past, [grid.size]))
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    starts = edges[:-1]
    last = np.diff(edges) - 1  # offset of each cell's last point
    k = int(np.ceil(np.sqrt(2.0 * (last.max() + 1))))
    # stage 1: offsets 0, k, 2k, ... in each cell, then its last point
    per_cell = last // k + 1 + (last % k > 0)
    cell = np.repeat(np.arange(starts.size), per_cell)
    head = np.cumsum(per_cell) - per_cell  # each cell's first stage-1 entry
    step = np.arange(cell.size) - head[cell]
    first = starts[cell] + np.minimum(step * k, last[cell])
    del step
    s = basis.map(grid.take(first))
    den = np.empty(s.size)
    lam = _lebesgue_values(s.copy(), basis, den)  # s stays, for the gap bounds
    # |computed - exact| <= eps = 4 (n+1) u lambda (lambda + 1) to first
    # order: the sums and quotients, and the weights' own rounding
    best = np.maximum.reduceat(lam, head)
    with np.errstate(over="ignore"):
        four_eps = 16.0 * x.size * _UNIT_ROUNDOFF * best * (best + 1.0)
    four_eps[four_eps >= best] = 0.0  # no correct digit: the best point alone
    near = lam >= (best - four_eps)[cell]
    top = lam.max()
    # stage 2: gap e lies between stage-1 entries e and e + 1 of one cell
    e = np.flatnonzero((cell[1:] == cell[:-1]) & (near[:-1] | near[1:]))
    # the cell's mapped nodes, -inf and inf past the first and last
    left = np.searchsorted(past, starts, side="right") - 1
    nodes = np.concatenate(([-np.inf], basis.mapped_nodes, [np.inf]))
    bounds = _gap_bounds(e, s, lam, den, cell, nodes[left + 1][cell[e]],
                         nodes[left + 2][cell[e]], x.size)
    e = e[~(bounds < top)]  # a NaN bound keeps its gap
    size = first[e + 1] - first[e] - 1  # each gap's interior
    second = np.repeat(first[e] + 1 - (np.cumsum(size) - size), size) + np.arange(size.sum())
    del cell, first, s, lam, den, near, e, size
    found = _lebesgue_values(basis.map(grid.take(second)), basis)
    return float(max(top, found.max(initial=-np.inf)))


def _gap_bounds(e, s, lam, den, cell, node_lo, node_hi, n) -> np.ndarray:
    """Upper bounds on the computed Lebesgue function inside the gaps e.

    Gap e holds the grid points between the stage-1 entries e and e + 1 of
    one cell: images s, computed values lam and den = D, where D(s) =
    sum_j w_j / (s - s_j).  Its cell lies between the mapped nodes node_lo
    and node_hi, and the basis has n nodes.  There lambda = N / |D| with
    N(s) = sum_j |w_j| / |s - s_j| convex, and -log |D(s)| = log |omega(s)|
    + const concave, omega the nodal polynomial.  So on [a, b] = [s_e,
    s_e+1], N <= max(N(a), N(b)), and -log |D| lies below the chord through
    the stage-1 points a' < a and a, extended past a, and below the one
    through b and b' > b, extended past b; their lower envelope peaks at an
    end or where they cross.

    Each input is widened by the relative margin rho = 16 n u (lambda + 1)
    of the stage-1 rule (4 eps / lambda), and the logarithm of the bound by
    32 u (1 + the chords' extension ratios) * 745, 745 bounding |log| of any
    finite double, for the rounding of the logs and the chords.  The gap is
    widened by delta = 16 u max |s|, since the chain's rounding may map a
    point inside it just past an end: there log N and -log |D| grow by at
    most (n + 1) delta / (distance to the nearest node).  The bound on
    lambda is widened once more by rho for the computed value.

    A gap gets inf beside a node hit, with a margin past 1/2, with both
    chords missing (a cell of fewer than three stage-1 points), or too close
    to a node for delta.  So does one whose points contradict the premise
    that D is c / omega up to rounding, as weights with more than their
    rounding error make it: c / omega keeps one sign on a cell, and each
    chord passes above the value at the gap's far end.
    """
    u = _UNIT_ROUNDOFF
    quad = np.minimum(np.maximum(e + _GAP_POINTS, 0), s.size - 1)  # a', a, b, b'
    inner, outer = quad[1:3], quad[::3]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rho = 16.0 * n * u * (lam + 1.0)
        g_hi = 2.0 * rho - np.log(np.abs(den))  # g_lo <= -log |D| <= g_hi
        g_lo = g_hi - 4.0 * rho
        log_n = np.log(lam) - g_lo  # log N <= log_n
        # points that share a key lie in one cell, where D has one sign, and
        # have no node hit and a margin of at most 1/2
        key = np.where(np.isfinite(den) & (rho <= 0.5), 2 * cell + (den > 0), -1)
        width = s[e + 1] - s[e]
        step = (s[inner] - s[outer]) * _OUTWARD  # a - a', b' - b
        has = (key[outer] == key[inner]) & (step > 0)  # each chord's outer point
        t = np.where(has, width / step, 0.0)
        # each chord at its own end of the gap and at the other (inf if none)
        own = np.where(has, g_hi[inner], np.inf)
        other = np.where(has, own + (own - g_lo[outer]) * t, np.inf)
        concave = (other >= g_lo[inner[::-1]]).all(0)  # above the far end's value
        (l0, r1), (l1, r0) = own, other
        peak = np.maximum(np.minimum(l0, r0), np.minimum(l1, r1))
        d0, d1 = l0 - r0, l1 - r1
        cross = d0 * d1 < 0  # the chords cross inside the gap
        peak[cross] = np.maximum(peak, l0 + (l1 - l0) * (d0 / (d0 - d1)))[cross]
        delta = 16.0 * u * np.abs(s).max()
        dist = np.minimum(s[e] - node_lo, node_hi - s[e + 1]) - delta
        bound = np.exp(log_n[inner].max(0) + peak + (n + 1) * delta / dist
                       + 32.0 * u * _MAX_LOG * (1.0 + t.sum(0)))
        bound *= 1.0 + 16.0 * n * u * (bound + 1.0) + 8.0 * u
    ends = key[inner]  # no chord leaves the peak inf
    valid = (ends[0] == ends[1]) & (ends[0] >= 0) & concave & (width > 0) & (dist > 0)
    return np.where(valid, bound, np.inf)


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
    kept = []
    for rows, t in _blocks(s, basis.node_factor):
        np.divide(basis.weights, t, out=t)
        np.divide(t, t.sum(axis=1)[:, None], out=t)
        mat[basis.order, rows] = np.abs(t, out=t).T  # row i is node order[i]
        _keep(kept, rows, np.isfinite(t).all(axis=1), s)
    t = None  # frees the block buffer
    hit_row, hit_col, misses, _ = _node_hits(kept, basis)
    if misses.size:
        raise EvaluationError("Lagrange matrix evaluation lost finiteness")
    mat[:, hit_row] = 0.0
    mat[basis.order[hit_col], hit_row] = 1.0
    return mat


def even_split_residual_sum(left_nodes, right_nodes, x) -> np.ndarray:
    """sum_i |r_i(x)| for a heavier node set and a lighter one: |left| = |right| + 1.

    The names are the even split's, but either set may lie left of the other:
    this is the residual of any heavier/lighter pair, the even split's and each
    cross term of :func:`limit_lebesgue_prediction`.  Each r_i is the nodal
    polynomial omega over the lighter set times the i-th barycentric weight of
    the heavier set, so the sum factorizes.  Those weights are the reciprocals
    of the capacity-scaled products behind :func:`barycentric_weights` (the
    capacity is a quarter of the heavier set's span), and omega's differences
    are divided by the same capacity, which cancels because the factor counts
    match.  Both products run through the block loop of ``interpolation``, so
    memory is O(m + block * n) for m points, not O(m * n); each block tracks
    exponents where one of its rows leaves the float range, and the two
    exponents are added before the result is formed, so EvaluationError is
    raised only where the sum itself is not a finite double; non-finite
    nodes or points raise ValueError before any product.
    The sum has only positive terms, so the weights need no span guard.
    """
    x1 = np.asarray(left_nodes, dtype=float)
    x2 = np.asarray(right_nodes, dtype=float)
    if x1.size != x2.size + 1:
        raise ValueError(
            f"even split needs |left| = |right| + 1, got {x1.size} and {x2.size}"
        )
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    if not (np.isfinite(x2).all() and np.isfinite(pts).all()):
        raise ValueError("right nodes and points must be finite")
    w, k = _capacity_weights(_node_array(x1), _node_factor(x1))
    w_sum = np.abs(w).sum()
    out = np.empty(pts.size)
    for rows, omega, omega_exp, diff in _nodal_products(pts.ravel(), _node_factor(x2),
                                                        (x1.max() - x1.min()) / 4.0):
        np.ldexp(np.abs(omega) * w_sum, omega_exp + (k or 0), out=out[rows])
    diff = None  # frees the block buffer
    if not np.all(np.isfinite(out)):
        raise EvaluationError("residual sum evaluation lost finiteness")
    return out.reshape(pts.shape)


def limit_lebesgue_prediction(partition: NodePartition, domain: PiecewiseDomain,
                              grid_spec="auto") -> LimitQuantities:
    """Infinite-shift Lebesgue constant: the grid maximum of lambda_inf.

    lambda_inf (module docstring) is taken one subinterval tau at a time: the
    classical side constant where no subinterval holds one node more than
    tau, else the maximum of lambda_tau plus the c-weighted residual sums of
    the heavier ones.  ``case`` names the counts: "odd" or "even" for one cut
    (equal, or either side heavier), "multi-equal" or "multi-balanced" for
    more.  A domain without cuts is refused, and so is a partition that is
    not ``balanced``, whose limit is unbounded; a partition that was not made
    for the domain raises ValueError.
    """
    parts, cards = partition.parts, partition.cardinalities
    if len(parts) != domain.n_subintervals or any(
            np.any(domain.subinterval_index(p) != tau) for tau, p in enumerate(parts, 1)):
        raise ValueError("partition does not match the domain: each subinterval needs "
                         "one part, holding its nodes")
    d = len(cards) - 1
    if d < 1:
        raise PredictionUnavailableError("the domain has no cuts; nothing to predict")
    if not partition.balanced:
        raise PredictionUnavailableError(
            f"per-subinterval counts {cards} differ by more than one; the limit "
            "is unbounded outside the balance condition")
    grid = _constant_grid(domain, np.concatenate(parts), grid_spec)
    # classical per-side Lebesgue functions are continuous, so the supremum
    # over a half-open subinterval equals the maximum over its closure; use
    # closed side grids (cut points count for both neighbours), each the
    # grid's run of points from its subinterval's start to its end
    bp = np.array(domain.breakpoints, dtype=float)
    starts, ends = grid.searchsorted(bp[:-1], "left"), grid.searchsorted(bp[1:], "right")
    if (ends <= starts).any():
        raise ValueError("empty subinterval grid")
    c_table = {(mu, tau): c_factor(mu, tau, cards) for mu in range(1, d + 2)
               for tau in range(1, d + 2) if mu != tau} if d >= 2 else {}
    side_constants, tops, samples = [], [], []
    for tau, (part, lo, hi) in enumerate(zip(parts, starts, ends)):  # one side at a time
        basis = mapped_basis(part)
        g = grid[lo:hi] if isinstance(grid, np.ndarray) else grid.side(tau)
        heavier = [mu for mu, k in enumerate(cards) if k == cards[tau] + 1]
        if not heavier:
            side_constants.append(_cell_search_max(basis, g))
            tops.append(side_constants[-1])
        else:
            # the integrand is returned, so this side is evaluated densely,
            # and its lambda_tau values hold the side constant
            integrand = _lebesgue_values(basis.map(g), basis)
            side_constants.append(float(integrand.max()))
            for mu in heavier:  # c is an exact 1.0 for one cut
                c = c_table.get((mu + 1, tau + 1), 1.0)
                integrand += c * even_split_residual_sum(parts[mu], part, g)
            tops.append(float(integrand.max()))
            samples.append(integrand)
        del g
    r_max = r_samples = None
    if samples:
        r_samples = np.concatenate(samples)
        r_samples.setflags(write=False)
        r_max = float(r_samples.max())
    names = ("odd", "even") if d == 1 else ("multi-equal", "multi-balanced")
    return LimitQuantities(names[len(set(cards)) > 1], max(tops), tuple(side_constants),
                           c_table, r_max, r_samples)


def c_factor(mu: int, tau: int, cardinalities) -> float:
    """Cross-subinterval amplification prod_{nu != mu, tau} |(tau-nu)/(mu-nu)|^k_nu.

    Indices are 1-based over the d+1 subintervals; needs d >= 2 and mu != tau.
    """
    mu, tau = _integer(mu, "mu"), _integer(tau, "tau")
    cards = [_integer(c, "a node count") for c in cardinalities]
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
    n_max = _integer(n_max, "N")
    if n_max < 1:
        raise ValueError("need N >= 1")
    return 4.0 / (np.pi * n_max * n_max * (2.0 + np.pi * np.log(n_max + 1.0)))
