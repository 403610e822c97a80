import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from graspa import (
    CHAIN_NAMES,
    Interval,
    MapChain,
    NodeSet,
    PiecewiseDomain,
    bg_chebyshev_nodes,
    c_factor,
    delta_bound,
    equispaced_nodes,
    even_split_residual_sum,
    graspa_chain,
    lagrange_matrix,
    lebesgue_constant,
    lebesgue_function,
    lebesgue_grid,
    lebesgue_max,
    limit_lebesgue_prediction,
    named_chain,
    partition_nodes,
    sgibbs_chain,
)
from graspa import experiments, interpolation, stability
from graspa.exceptions import EvaluationError, PredictionUnavailableError

DOM0 = PiecewiseDomain(Interval(-1, 1))
DOM1 = PiecewiseDomain(Interval(-1, 1), (0.0,))

# independent dense-grid oracle (direct Lagrange products, 1e5 points)
GOLDEN_EQUISPACED_N10 = 29.899955440644437


def test_lebesgue_is_one_at_nodes():
    nodes = equispaced_nodes(9)
    lam = lebesgue_function(nodes, None, nodes.nodes)
    assert np.max(np.abs(lam - 1.0)) == 0.0


def test_two_node_values():
    nodes = NodeSet([0.0, 1.0])
    assert lebesgue_function(nodes, None, 0.5) == 1.0
    assert_allclose(lebesgue_function(nodes, None, 2.0), 3.0, atol=1e-14)


def test_two_node_constant_is_one():
    nodes = NodeSet([-1.0, 1.0])
    rep = lebesgue_constant(nodes, None, DOM0)
    assert_allclose(rep.lebesgue_constant, 1.0, atol=1e-12)


def test_classical_equispaced_golden_value():
    rep = lebesgue_constant(equispaced_nodes(10), None, DOM0)
    assert abs(rep.lebesgue_constant - GOLDEN_EQUISPACED_N10) <= 1e-3 * GOLDEN_EQUISPACED_N10


def test_golden_value_against_direct_product_oracle():
    nodes = equispaced_nodes(10).nodes
    grid = np.linspace(-1, 1, 100001)
    lam = np.zeros_like(grid)
    for i in range(11):
        li = np.ones_like(grid)
        for j in range(11):
            if j != i:
                li *= (grid - nodes[j]) / (nodes[i] - nodes[j])
        lam += np.abs(li)
    assert abs(lam.max() - GOLDEN_EQUISPACED_N10) <= 1e-12 * GOLDEN_EQUISPACED_N10


def test_report_max_matches_values():
    rep = lebesgue_constant(equispaced_nodes(12), None, DOM0)
    assert rep.lebesgue_constant == rep.lebesgue_values.max()
    assert rep.grid.shape == rep.lebesgue_values.shape


@pytest.mark.parametrize("cuts, a, b", [
    ((), -1.0, 1.0), ((0.0,), -1.0, 1.0), ((-0.5, 0.0, 0.5), -1.0, 1.0),
    ((-3.1, 1.7), -7.3, 2.9), ((0.5, 0.5 + 2.0**-50), -1.0, 1.0),  # 8 ulps: too narrow
])
def test_grid_is_the_sorted_union_of_sweeps_and_midpoints(cuts, a, b):
    # the midpoints are merged into the sorted sweeps; the reference sorts
    # and deduplicates all of them at once.  The search's description of the
    # grid answers size, take and searchsorted as the materialised grid does;
    # only the too-narrow domain keeps its points in an array
    dom = PiecewiseDomain(Interval(a, b), cuts)
    narrow = cuts == (0.5, 0.5 + 2.0**-50)
    rng = np.random.default_rng(len(cuts))
    unit = [equispaced_nodes(41).nodes, bg_chebyshev_nodes(80, 0.1, 0.3).nodes,
            rng.uniform(-1, 1, 200), np.array([-0.5, 0.25, 0.25, 0.25, 0.75]), [0.3]]
    for x in unit:
        nodes = a + (b - a) * (np.asarray(x) + 1.0) / 2.0
        for spec in ("auto", 2, 7, 333):
            per = max(2000, 100 * nodes.size) if spec == "auto" else spec
            bp = dom.breakpoints
            pieces = [np.linspace(bp[i], bp[i + 1], per)[i > 0:]
                      for i in range(dom.n_subintervals)]
            ordered = np.sort(nodes)
            want = np.unique(np.concatenate(pieces + [(ordered[:-1] + ordered[1:]) / 2.0]))
            grid = lebesgue_grid(dom, nodes, spec)
            assert grid.tobytes() == want.tobytes()
            # lebesgue_constant sweeps the same points, built without a
            # description, the narrow domain's included
            if grid.size >= stability._MIN_GRID_POINTS:
                assert stability._constant_grid(
                    dom, nodes, spec, describe=False).tobytes() == grid.tobytes()
                if nodes.size == 1:
                    assert lebesgue_constant(nodes, None, dom, spec).grid.tobytes() \
                        == grid.tobytes()
            described = stability._search_grid(dom, nodes, spec)
            assert isinstance(described, np.ndarray) is narrow
            assert described.size == grid.size
            assert described.take(np.arange(grid.size)).tobytes() == grid.tobytes()
            picks = rng.integers(0, grid.size, 64)
            assert described.take(picks).tobytes() == grid[picks].tobytes()
            probes = np.concatenate((nodes, dom.breakpoints, grid[picks],
                                     np.nextafter(grid[picks], -np.inf),
                                     np.nextafter(grid[picks], np.inf)))
            for side in ("left", "right"):
                assert np.array_equal(described.searchsorted(probes, side=side),
                                      grid.searchsorted(probes, side=side))
            assert np.array_equal(described.searchsorted(nodes, side="right"),
                                  grid.searchsorted(nodes, side="right"))
            if narrow:
                continue
            # each closed subinterval, cut points included, as built on its own
            starts = grid.searchsorted(bp[:-1], "left")
            ends = grid.searchsorted(bp[1:], "right")
            for i, (lo, hi) in enumerate(zip(starts, ends)):
                assert described.side(i).tobytes() == grid[lo:hi].tobytes()


def test_grid_spec_validation():
    nodes = equispaced_nodes(5)
    with pytest.raises(ValueError):
        lebesgue_constant(nodes, None, DOM0, 3)  # resolves below 1000 points
    with pytest.raises(ValueError):
        lebesgue_grid(DOM0, nodes, np.array([]))
    with pytest.raises(ValueError):
        lebesgue_grid(DOM0, nodes, "fine")
    # a count is read as a degree is: an integral float or a numeric string
    # gives the integer count's grid, and a bool is no count
    grid = lebesgue_grid(DOM0, nodes, 2000).tobytes()
    for spec in (2000.0, "2000", np.float64(2000.0)):
        assert lebesgue_grid(DOM0, nodes, spec).tobytes() == grid, spec
    with pytest.raises(ValueError, match="must be a number"):
        lebesgue_grid(DOM0, nodes, True)


@pytest.mark.parametrize("compute, message", [
    (lambda: even_split_residual_sum([-1.0, -0.5], [0.5, 1.0], [0.7]), "even split needs"),
    (lambda: lebesgue_grid(DOM0, equispaced_nodes(5), 1), "at least 2 points"),
    (lambda: lebesgue_grid(DOM0, equispaced_nodes(5), [-1.5, 0.0]), "outside the domain"),
    (lambda: lebesgue_grid(DOM0, equispaced_nodes(5), [0.0, 1.5]), "outside the domain"),
    (lambda: limit_lebesgue_prediction(partition_nodes(equispaced_nodes(9), DOM1), DOM1,
                                       np.linspace(-1.0, -0.5, 2000)),
     "empty subinterval grid"),
    # two points gave 1.4576, where the default grid's maximum at the cut is 729.609
    (lambda: limit_lebesgue_prediction(partition_nodes(equispaced_nodes(23), DOM1), DOM1,
                                       np.array([-1.0, 0.5])),
     "grid resolves to 2 points"),
    (lambda: lebesgue_grid(DOM0, equispaced_nodes(5), [np.nan, 0.0]), "grid spec"),
    (lambda: lebesgue_grid(DOM0, equispaced_nodes(5), np.zeros((2, 3))), "grid spec"),
    # an integral float is a count (test_grid_spec_validation); a fraction is none
    (lambda: lebesgue_grid(DOM0, equispaced_nodes(5), 2000.5), "grid spec"),
    # a partition made for the cut at 0 was paired with f2's three cuts
    # (1.758e7, case "odd") and with a cut at 0.3 (1.136e6)
    (lambda: limit_lebesgue_prediction(partition_nodes(equispaced_nodes(23), DOM1),
                                       PiecewiseDomain(Interval(-1, 1), (-0.5, 0.0, 0.5))),
     "partition does not match the domain"),
    (lambda: limit_lebesgue_prediction(partition_nodes(equispaced_nodes(23), DOM1),
                                       PiecewiseDomain(Interval(-1, 1), (0.3,))),
     "partition does not match the domain"),
    # the nodes' midpoints reached x = 0.95, where lambda is 7391.69; its
    # maximum over [-0.5, 0.5] is 4.7311
    (lambda: lebesgue_constant(equispaced_nodes(20), None,
                               PiecewiseDomain(Interval(-0.5, 0.5))),
     "nodes must lie inside the domain"),
    (lambda: lebesgue_max(equispaced_nodes(20), None, PiecewiseDomain(Interval(-0.5, 0.5))),
     "nodes must lie inside the domain"),
], ids=["even-split-counts", "grid-count-below-2", "grid-below-a", "grid-above-b",
        "subinterval-without-grid-points", "limit-grid-too-coarse", "grid-with-nan",
        "grid-2d", "grid-float-count", "partition-with-fewer-parts",
        "partition-for-another-cut", "constant-nodes-outside", "max-nodes-outside"])
def test_malformed_grids_and_splits_are_refused(compute, message):
    with pytest.raises(ValueError, match=message):
        compute()


def test_mapped_equals_classical_of_mapped_data():
    # shift the basis, then compare against the classical constant of the
    # shifted nodes evaluated on the shifted grid
    rng = np.random.default_rng(7)
    count = 0
    while count < 12:
        d = int(rng.integers(0, 3))
        cuts = tuple(np.sort(rng.uniform(-0.6, 0.6, size=d))) if d else ()
        try:
            dom = PiecewiseDomain(Interval(-1, 1), cuts)
        except ValueError:
            continue
        n = int(rng.integers(5, 31))
        nodes = (equispaced_nodes(n) if rng.random() < 0.5
                 else bg_chebyshev_nodes(n, rng.uniform(0, 0.3), rng.uniform(0, 0.3)))
        if d and not partition_nodes(nodes, dom).balanced:
            continue
        kappa = 10.0 ** rng.uniform(1, 4)
        chain = (graspa_chain(kappa, dom) if d else MapChain())
        rep = lebesgue_constant(nodes, chain, dom)
        mapped = NodeSet(np.asarray(chain(nodes.nodes)), kind="mapped")
        classical = float(np.max(lebesgue_function(mapped, None,
                                                   np.asarray(chain(rep.grid)))))
        assert abs(rep.lebesgue_constant - classical) <= 1e-12 * rep.lebesgue_constant
        count += 1


def _outcome(compute):
    """The computed value, or the type of the error it raised."""
    try:
        return compute()
    except (EvaluationError, ValueError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lebesgue_max_matches_dense_grid(data):
    name = data.draw(st.sampled_from(CHAIN_NAMES))
    n = data.draw(st.integers(2, 120))
    if name == "graspa+vn":
        n = max(4, n - n % 2)
        dom = DOM1
    else:
        cuts = data.draw(st.lists(st.floats(-0.9, 0.9), max_size=3, unique=True))
        dom = PiecewiseDomain(Interval(-1, 1), tuple(sorted(cuts)))
    if data.draw(st.booleans()):
        nodes = equispaced_nodes(n)
    else:
        nodes = bg_chebyshev_nodes(n, data.draw(st.floats(0.0, 0.5)),
                                   data.draw(st.floats(0.0, 0.5)))
    kappa = 10.0 ** data.draw(st.floats(-1.0, 6.0))
    chain = named_chain(name, dom, kappa, data.draw(st.floats(0.05, 1.0)), n)
    spec = data.draw(st.one_of(
        st.just("auto"), st.integers(200, 3000),
        st.integers(0, 2**32 - 1).map(
            lambda seed: np.random.default_rng(seed).uniform(-1, 1, 2000))))
    dense = _outcome(lambda: lebesgue_constant(nodes, chain, dom, spec).lebesgue_constant)
    fast = _outcome(lambda: lebesgue_max(nodes, chain, dom, spec))
    if isinstance(fast, type) or dense is ValueError:
        assert fast is dense
        return
    # where (n+1) u lambda nears 1 the digits are noise on both paths: the
    # search may pick another grid point, or miss a dense sample that
    # cancelled to a non-finite value
    ill = (n + 1) * fast > 1e10
    if dense is EvaluationError:
        assert ill, fast
    elif ill or (n + 1) * dense > 1e10:
        lam = max(fast, dense)
        # Python floats: a bound past the float range is inf, with no warning
        assert abs(fast - dense) <= 4 * sys.float_info.epsilon / 2 * (n + 1) * lam * lam
    else:
        assert fast == dense


def test_lebesgue_max_flat_topped_cell():
    # no node in (0, 0.5]: its image sits on top of the wide bump between the
    # mapped nodes 0 and 2e5 + 1, flatter than rounding error, so the
    # computed values rise and fall several times within the cell
    dom = PiecewiseDomain(Interval(-1, 1), (0.0, 0.5))
    chain = sgibbs_chain(1e5, dom)
    nodes = equispaced_nodes(2)
    dense = lebesgue_constant(nodes, chain, dom).lebesgue_constant
    assert lebesgue_max(nodes, chain, dom) == dense


def test_lebesgue_max_falls_back_when_the_chain_reorders_the_nodes():
    # x + 2 sin(20x) shuffles the mapped nodes, so a cell between two nodes
    # maps across others and holds several maxima; a per-cell search would
    # stop at 1039.39, and the dense grid's maximum is 1039.56
    wave = MapChain((lambda x: np.asarray(x) + 2.0 * np.sin(20.0 * np.asarray(x)),))
    nodes = equispaced_nodes(10)
    assert np.any(np.diff(wave(nodes.nodes)) < 0)
    dense = lebesgue_constant(nodes, wave, DOM0).lebesgue_constant
    assert lebesgue_max(nodes, wave, DOM0) == dense


def _reference_gap_bounds(basis, grid, first, s):
    """_gap_bounds of every gap between consecutive stage-1 points (grid
    indices ``first``, images s) of one cell, with each cell's nodes found by
    a binary search of its points among the nodes; inf for gaps that cross
    a node.  Returns (bounds, stage-1 values)."""
    cell = np.searchsorted(basis.nodes, grid[first], side="left")
    den = np.empty(s.size)
    lam = stability._lebesgue_values(s.copy(), basis, den)  # it writes over its points
    nodes = np.concatenate(([-np.inf], basis.mapped_nodes, [np.inf]))
    e = np.arange(s.size - 1)
    bounds = stability._gap_bounds(e, s, lam, den, cell, nodes[cell[e]], nodes[cell[e] + 1],
                                   basis.nodes.size)
    return np.where(cell[1:] == cell[:-1], bounds, np.inf), lam


def _reference_search_points(basis, grid, mapped):
    """(stage-1, stage-2) grid indices by whole-grid bookkeeping: a cell index
    per grid point, stage-1 flags, and the stage-1 point at or before each
    point, which opens its gap.  A point is in stage 2 if its gap has a near
    end and the gap's bound does not prune it.  ``mapped`` maps grid points."""
    x = basis.nodes
    cell = np.searchsorted(x, grid, side="left")
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    sizes = np.diff(starts, append=grid.size)
    ends = starts + sizes
    k = int(np.ceil(np.sqrt(2.0 * sizes.max())))
    owner = np.repeat(np.arange(starts.size), sizes)
    coarse = (np.arange(grid.size) - starts[owner]) % k == 0
    coarse[ends - 1] = True
    first = np.flatnonzero(coarse)
    bounds, lam = _reference_gap_bounds(basis, grid, first, mapped(grid[first]))
    best = np.maximum.reduceat(lam, np.searchsorted(first, starts))
    with np.errstate(over="ignore"):
        four_eps = 8.0 * x.size * sys.float_info.epsilon * best * (best + 1.0)
    four_eps[four_eps >= best] = 0.0
    near = lam >= (best - four_eps)[owner[first]]
    gap = np.cumsum(coarse) - 1  # the stage-1 point at or before each point
    # a point that is not stage-1 lies inside gap[p], whose ends share its cell
    wanted = np.append(near[:-1] | near[1:], False)[gap]
    pruned = np.append(bounds, np.inf)[gap] < lam.max()
    return first, np.flatnonzero(wanted & ~coarse & ~pruned)


_RNG_GRID = np.random.default_rng(11)
_DOM_F2 = PiecewiseDomain(Interval(-1, 1), (-0.5, 0.0, 0.5))
_DOM_FLAT = PiecewiseDomain(Interval(-1, 1), (0.0, 0.5))
_SEARCH_CASES = [
    (equispaced_nodes(10), None, DOM0, "auto"),
    (equispaced_nodes(23), graspa_chain(1e4, DOM1), DOM1, "auto"),
    (equispaced_nodes(29), sgibbs_chain(1e4, _DOM_F2), _DOM_F2, 700),
    (equispaced_nodes(2), sgibbs_chain(1e5, _DOM_FLAT), _DOM_FLAT, "auto"),
    (equispaced_nodes(80), None, DOM0, 1500),
    (equispaced_nodes(10), None, DOM0, np.linspace(-1.0, 0.85, 1500)),
    (equispaced_nodes(12), None, DOM0, _RNG_GRID.uniform(-0.5, 0.5, 3000)),
    (equispaced_nodes(10), graspa_chain(1e3, DOM1), DOM1,
     np.round(_RNG_GRID.uniform(-1, 1, 3000), 1)),
    # about 30 points per cell, but 1529 in one: k = 56, so most cells hold
    # two stage-1 points and no gap of theirs has a bound
    (equispaced_nodes(10), graspa_chain(1e4, DOM1), DOM1,
     np.concatenate([np.linspace(-1, 1, 300), np.linspace(0.0, 0.1, 1500)])),
    # no node at the cut: the cell (-1/9, 1/9] maps across the shift's jump
    (equispaced_nodes(9), graspa_chain(1e4, DOM1), DOM1, "auto"),
    # a large shift: the grid's maximum is the first point of the cell right
    # of the cut, beside the one-sided supremum lambda(0+)
    (equispaced_nodes(50), sgibbs_chain(1e6, DOM1), DOM1, "auto"),
    # a gap's bound meets its end's value within a few ulps: without the
    # rounding margins some value lies above it
    (equispaced_nodes(17), sgibbs_chain(1e2, DOM1), DOM1, "auto"),
]
_SEARCH_IDS = ["classical", "graspa", "f2-sgibbs-counted", "flat-topped-cell",
               "no-correct-digit", "cell-cut-short-by-the-grid-end", "empty-end-cells",
               "repeated-points-and-node-hits", "cells-of-two-stage-1-points",
               "cell-spanning-the-cut", "supremum-at-the-cut", "rounding-margins"]


@pytest.mark.parametrize("nodes, chain, dom, spec", _SEARCH_CASES, ids=_SEARCH_IDS)
def test_cell_search_evaluates_the_reference_points(monkeypatch, nodes, chain, dom, spec):
    calls = []
    real = stability._lebesgue_values

    def spy(s, basis, den=None):
        calls.append((s.copy(), real(s, basis, den)))
        return calls[-1][1]

    monkeypatch.setattr(stability, "_lebesgue_values", spy)
    found = lebesgue_max(nodes, chain, dom, spec)
    monkeypatch.setattr(stability, "_lebesgue_values", real)
    grid = lebesgue_grid(dom, nodes, spec)
    mapped = chain if chain is not None else (lambda g: g)
    basis = interpolation.mapped_basis(nodes, chain)
    first, second = _reference_search_points(basis, grid, mapped)
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[0][0], mapped(grid[first]))
    np.testing.assert_array_equal(calls[1][0], mapped(grid[second]))
    assert found == max(calls[0][1].max(), calls[1][1].max(initial=-np.inf))
    if (nodes.nodes.size + 1) * found < 1e10:  # a correct digit: the dense maximum
        assert found == lebesgue_constant(nodes, chain, dom, spec).lebesgue_constant


@pytest.mark.parametrize("nodes, chain, dom, spec", _SEARCH_CASES, ids=_SEARCH_IDS)
def test_gap_bounds_lie_above_every_value_in_their_gap(nodes, chain, dom, spec):
    # every gap between consecutive stage-1 points, pruned or not: no value
    # the dense grid computes inside it exceeds its bound
    grid = lebesgue_grid(dom, nodes, spec)
    mapped = chain if chain is not None else (lambda g: g)
    basis = interpolation.mapped_basis(nodes, chain)
    cell = np.searchsorted(basis.nodes, grid, side="left")
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    k = int(np.ceil(np.sqrt(2.0 * np.diff(starts, append=grid.size).max())))
    stride = np.arange(grid.size) - np.repeat(starts, np.diff(starts, append=grid.size))
    first = np.flatnonzero((stride % k == 0) | (np.diff(cell, append=-1) != 0))
    bounds, _ = _reference_gap_bounds(basis, grid, first, mapped(grid[first]))
    dense = lebesgue_function(nodes, chain, grid)
    inside = np.maximum.reduceat(dense, first)[:-1]  # each gap with its left end
    assert (inside <= bounds).all()
    # with a correct digit and distinct points, some gap has a bound (repeated
    # points leave gaps of zero width, which get none)
    if (nodes.nodes.size + 1) * dense.max() < 1e10 and np.diff(grid).all():
        assert np.isfinite(bounds).any()


# the benchmark's sweep_highdeg traffic: its sweep cells (function, method,
# n) and its limit predictions (function, n), each with the float hex of its
# maximum and the number of points passed to the evaluator
_SEARCH_WORK = [
    (("f1", "classical", 51), "0x1.9db0a4b68b4f6p+42", 816),
    (("f1", "graspa", 23), "0x1.7aa07a35968a4p+1", 294),
    (("f1", "graspa", 89), "0x1.e89cd468dd9d8p+1", 1020),
    (("f1", "graspa", 151), "0x1.09b81ad161326p+2", 1702),
    # 4985 points before stage 2 was pruned, 1756 with it (k = 29 instead of
    # 15), and the same maximum
    (("f2", "graspa", 89), "0x1.eba6ebf664775p+4", 1756),
    (("f2", "graspa", 201), "0x1.304956c14c52ap+49", 8756),
    (("f1", 89), "0x1.5f9a00e34879ap+41", 1017),
    (("f1", 50), "0x1.ffffff81ff7d9p+25", 5481),
    (("f2", 87), "0x1.89a5d8e07470ep+20", 1407),
]


@pytest.mark.parametrize("case, found, points", _SEARCH_WORK, ids=[
    "_".join(map(str, c if len(c) == 3 else ("limit", *c))) for c, _, _ in _SEARCH_WORK])
def test_cell_search_point_count(monkeypatch, case, found, points):
    counts = []
    real = stability._lebesgue_values
    def counted(s, basis, den=None):
        counts.append(s.size)
        return real(s, basis, den)

    monkeypatch.setattr(stability, "_lebesgue_values", counted)
    dom = PiecewiseDomain(Interval(-1, 1), experiments.FUNCTIONS[case[0]][1])
    nodes = equispaced_nodes(case[-1])
    if len(case) == 3:
        value = lebesgue_max(nodes, experiments.method_chain(case[1], dom, 1e4, case[2]), dom)
    else:
        value = limit_lebesgue_prediction(partition_nodes(nodes, dom), dom).predicted
    assert value.hex() == found
    assert sum(counts) == points


def test_cell_search_forms_the_weights_once(monkeypatch):
    calls = []
    real = interpolation._weights  # what barycentric_weights and mapped_basis run
    monkeypatch.setattr(interpolation, "_weights",
                        lambda s, factor: calls.append(s.size) or real(s, factor))
    lebesgue_max(equispaced_nodes(23), graspa_chain(1e4, DOM1), DOM1)
    assert calls == [24]


def test_cell_search_memory_stays_below_twice_the_grid():
    # the bookkeeping is O(n + points evaluated): no per-grid-point index,
    # flag or window array; what remains is lebesgue_grid's sorted copy
    grid = np.linspace(-1.0, 1.0, 10**6)
    tracemalloc.start()
    try:
        lebesgue_max(equispaced_nodes(23), graspa_chain(1e4, DOM1), DOM1, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * grid.nbytes


def test_cell_search_never_holds_a_point_count_grid():
    # f2 GRASPA at n = 201: the auto grid has 80997 points (648 KB), and the
    # kernel's block buffer is its own floor; the search holds neither the
    # grid nor stage 1's per-point bookkeeping while stage 2 evaluates
    nodes, chain = equispaced_nodes(201), graspa_chain(1e4, _DOM_F2)
    grid_bytes = lebesgue_grid(_DOM_F2, nodes).nbytes
    lebesgue_max(nodes, chain, _DOM_F2)  # a first call may fill caches of its own
    tracemalloc.start()
    try:
        lebesgue_max(nodes, chain, _DOM_F2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid_bytes + interpolation._BLOCK_BYTES


def test_searches_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, which stays allocated
    code = (
        "import sys\n"
        "from graspa import PiecewiseDomain, Interval, equispaced_nodes, graspa_chain, "
        "lebesgue_max\n"
        "from graspa.cli import main\n"
        f"assert main(['experiment', 'fig2', '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "dom = PiecewiseDomain(Interval(-1, 1), (-0.5, 0.0, 0.5))\n"
        "lebesgue_max(equispaced_nodes(41), graspa_chain(1e4, dom), dom)\n"
        "print('numpy.ma' in sys.modules)\n")
    src = str(Path(stability.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines()[-1] == "False"


def test_limit_side_constants_equal_dense_side_maxima():
    f2_dom = PiecewiseDomain(Interval(-1, 1), (-0.5, 0.0, 0.5))
    two_cuts = PiecewiseDomain(Interval(-1, 1), (-1.0 / 3.0, 1.0 / 3.0))
    cases = [(DOM1, 23), (DOM1, 50), (DOM1, 89), (f2_dom, 87), (two_cuts, 17),
             (two_cuts, 29)]
    for dom, n in cases:
        nodes = equispaced_nodes(n)
        part = partition_nodes(nodes, dom)
        pred = limit_lebesgue_prediction(part, dom)
        grid = lebesgue_grid(dom, nodes)
        bp = dom.breakpoints
        dense = tuple(
            float(lebesgue_function(NodeSet(side), None,
                                    grid[(grid >= bp[i]) & (grid <= bp[i + 1])]).max())
            for i, side in enumerate(part.parts))
        assert pred.side_constants == dense, (n, dom.cuts)


def test_lagrange_matrix_identity_pattern():
    nodes = equispaced_nodes(6)
    mat = lagrange_matrix(nodes, None, nodes.nodes)
    assert_allclose(mat, np.eye(7), atol=0)


def test_lagrange_matrix_column_sums():
    nodes = equispaced_nodes(11)
    grid = np.linspace(-1.0, 1.0, 100)  # the 100-point reference grid
    chain = graspa_chain(1e4, DOM1)
    mat = lagrange_matrix(nodes, chain, grid)
    assert mat.shape == (12, 100)
    lam = lebesgue_function(nodes, chain, grid)
    assert_allclose(mat.sum(axis=0), lam, rtol=1e-12)


def test_odd_prediction_two_linear_sides():
    # each side is linear interpolation, but the subintervals extend past the
    # node hulls up to the cut, where the two-node basis reaches |l|-sum 3;
    # the large-shift brute force below confirms the closed form
    nodes = NodeSet([-1.0, -0.5, 0.5, 1.0])
    part = partition_nodes(nodes, DOM1)
    pred = limit_lebesgue_prediction(part, DOM1)
    assert pred.case == "odd"
    assert_allclose(pred.predicted, 3.0, atol=1e-10)
    brute = lebesgue_constant(nodes, sgibbs_chain(1e8, DOM1), DOM1)
    assert abs(brute.lebesgue_constant - pred.predicted) <= 1e-6 * pred.predicted


def test_odd_prediction_matches_per_side_constants():
    nodes = equispaced_nodes(23)
    part = partition_nodes(nodes, DOM1)
    pred = limit_lebesgue_prediction(part, DOM1)
    # independent per-side dense-grid evaluation over each closed subinterval
    for side, (lo, hi) in zip(range(2), ((-1.0, 0.0), (0.0, 1.0))):
        grid = np.linspace(lo, hi, 200001)
        lam = lebesgue_function(NodeSet(part.parts[side]), None, grid)
        assert abs(pred.side_constants[side] - lam.max()) <= 1e-3 * lam.max()
    assert pred.predicted == max(pred.side_constants)


def test_even_prediction_cross_checked_by_large_shift():
    for n in (4, 10):
        nodes = equispaced_nodes(n)
        part = partition_nodes(nodes, DOM1)
        pred = limit_lebesgue_prediction(part, DOM1)
        assert pred.case == "even"
        assert pred.r_max is not None and pred.r_samples is not None
        brute = lebesgue_constant(nodes, sgibbs_chain(1e8, DOM1), DOM1)
        assert abs(brute.lebesgue_constant - pred.predicted) <= 0.01 * pred.predicted


def test_odd_case_shift_convergence_rate():
    nodes = equispaced_nodes(23)
    part = partition_nodes(nodes, DOM1)
    grid = lebesgue_grid(DOM1, nodes)
    pred = limit_lebesgue_prediction(part, DOM1, grid)
    errs = []
    for kappa in (1e2, 1e3, 1e4, 1e5):
        rep = lebesgue_constant(nodes, sgibbs_chain(kappa, DOM1), DOM1, grid)
        errs.append(abs(rep.lebesgue_constant - pred.predicted))
    ratios = [errs[i + 1] / errs[i] for i in range(3)]
    # first-order decay in the shift: one decade of kappa shrinks the error 10x
    assert all(0.005 <= r <= 0.2 for r in ratios), ratios


def _exact_residual_sum(n, x):
    """sum_i |r_i(x)| for the exact f1 even split in 40 digits: the left
    set's absolute weights sum to 2^m / (h^m m!), with m = n/2 and h = 2/n,
    and the right nodes are j h, j = 1..m."""
    with mpmath.workdps(40):
        m, h = n // 2, mpmath.mpf(2) / n
        omega = mpmath.fprod(mpmath.mpf(x) - j * h for j in range(1, m + 1))
        return float(abs(omega) * 2**m / (h**m * mpmath.factorial(m)))


@pytest.mark.parametrize("n", [1600, 2000])
def test_even_split_residual_sum_matches_mpmath(n):
    # the left weight products pass through the subnormal range here when
    # scaled by the whole domain's capacity; the true sums reach 1e300
    part = partition_nodes(equispaced_nodes(n), DOM1)
    h = 2.0 / n
    xs = np.array([h / 2, 0.5 + h / 2])  # between nodes, away from rounding of one
    got = even_split_residual_sum(part.parts[0], part.parts[1], xs)
    want = [_exact_residual_sum(n, x) for x in xs]
    # each of the ~2n factors carries O(u) from rounding and the float nodes
    assert_allclose(got, want, rtol=4 * n * sys.float_info.epsilon / 2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2230, 2500, 3000])
def test_even_split_residual_sum_past_the_weights_range_matches_mpmath(n):
    # the left set's weight products leave the float range here, while the
    # sum near 0.5 stays small (0.0206 at n = 3000); x lies midway between
    # two right nodes, at 0.5 + 1/n where 4 divides n
    part = partition_nodes(equispaced_nodes(n), DOM1)
    x = (n // 4 + 0.5) * (2.0 / n)
    got = even_split_residual_sum(part.parts[0], part.parts[1], [x])
    assert_allclose(got, [_exact_residual_sum(n, x)],
                    rtol=4 * n * sys.float_info.epsilon / 2)


def test_even_split_residual_sum_forms_omega_in_row_blocks():
    # 5200 points at 25 lighter nodes: one unblocked difference matrix alone
    # would take 1.04 MB
    rng = np.random.default_rng(3)
    left, right = np.sort(rng.uniform(-1, 0, 26)), np.sort(rng.uniform(0, 1, 25))
    x = np.linspace(0.0, 1.0, 5200)
    even_split_residual_sum(left, right, x)
    tracemalloc.start()
    try:
        even_split_residual_sum(left, right, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.8e6


def test_even_split_residual_sum_keeps_the_shape_of_its_points():
    # 2-D points raised numpy's "could not broadcast" error
    left, right = [0.0, 1.0, 2.0], [0.5, 1.5]
    x = np.array([[0.25, 0.75], [1.25, 1.9]])
    got = even_split_residual_sum(left, right, x)
    assert got.shape == x.shape
    assert got.tobytes() == even_split_residual_sum(left, right, x.ravel()).tobytes()
    assert even_split_residual_sum(left, right, 0.25).shape == (1,)


def test_even_split_residual_sum_overflow_raises_without_warning():
    n = 3000
    part = partition_nodes(equispaced_nodes(n), DOM1)
    assert _exact_residual_sum(n, 1.0 / n) > sys.float_info.max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError):
            even_split_residual_sum(part.parts[0], part.parts[1], [1.0 / n])


def test_even_case_off_branch_quadratic_decay():
    # basis functions of the right-side nodes, restricted to the left side
    for n in (4, 10):
        nodes = equispaced_nodes(n)
        eta = n // 2
        grid = np.linspace(-1.0, 0.0, 3000)
        prev = None
        for kappa in (1e2, 1e3, 1e4):
            mat = lagrange_matrix(nodes, sgibbs_chain(kappa, DOM1), grid)
            peak = float(mat[eta + 1:, :].max())
            if prev is not None:
                assert 0.003 <= peak / prev <= 0.05, (n, kappa, peak / prev)
            prev = peak


def test_multi_cut_equal_cardinality_limit():
    cuts = (-1.0 / 3.0, 1.0 / 3.0)
    dom = PiecewiseDomain(Interval(-1, 1), cuts)
    for n in (17, 29):  # n + 1 divisible by 3
        nodes = equispaced_nodes(n)
        part = partition_nodes(nodes, dom)
        assert len(set(part.cardinalities)) == 1
        pred = limit_lebesgue_prediction(part, dom)
        assert pred.case == "multi-equal"
        rep = lebesgue_constant(nodes, sgibbs_chain(1e6, dom), dom)
        assert abs(rep.lebesgue_constant - pred.predicted) <= 0.01 * pred.predicted


def _large_shift_max(nodes, dom):
    """Largest sgibbs Lebesgue value at kappa = 1e8 over the grid and the
    points 1e-9 either side of each cut, where a one-sided supremum may sit."""
    cuts = np.asarray(dom.cuts)
    pts = np.concatenate([lebesgue_grid(dom, nodes), cuts - 1e-9, cuts + 1e-9])
    return float(lebesgue_function(nodes, sgibbs_chain(1e8, dom), pts).max())


@pytest.mark.parametrize("counts, cuts, case", [
    ((8, 7, 7, 8), (-0.5, 0.0, 0.5), "multi-balanced"),
    ((2, 3), (-0.1,), "even"),
    ((10, 11), (-0.05,), "even"),
    ((11, 10), (0.0,), "even"),
    ((7, 6, 7), None, "multi-balanced"),
    ((7, 6, 6), None, "multi-balanced"),
    ((8, 8, 7, 8), None, "multi-balanced"),
    ((6, 6, 6), None, "multi-equal"),
], ids=["8-7-7-8", "2-3", "10-11", "11-10", "7-6-7", "7-6-6", "8-8-7-8", "6-6-6"])
def test_balanced_layouts_match_a_large_shift(counts, cuts, case):
    # equispaced nodes; cuts midway between the nodes the counts separate
    # unless given.  (11, 10) at cut 0 peaks just right of the cut, 1.3%
    # above its grid maximum
    nodes = equispaced_nodes(sum(counts) - 1)
    if cuts is None:
        ends = np.cumsum(counts)[:-1]
        cuts = tuple((nodes.nodes[ends - 1] + nodes.nodes[ends]) / 2.0)
    dom = PiecewiseDomain(Interval(-1, 1), cuts)
    part = partition_nodes(nodes, dom)
    assert part.cardinalities == counts
    pred = limit_lebesgue_prediction(part, dom)
    assert pred.case == case
    assert (pred.r_samples is None) == (len(set(counts)) == 1)
    if pred.r_samples is not None:
        assert pred.r_max == pred.r_samples.max() <= pred.predicted
    assert abs(_large_shift_max(nodes, dom) - pred.predicted) <= 1e-6 * pred.predicted


_DOM_TWO = PiecewiseDomain(Interval(-1, 1), (-1.0 / 3.0, 1.0 / 3.0))


@pytest.mark.parametrize("dom, n, case, predicted, sides, r_max, r_sha256", [
    (DOM1, 4, "even", "0x1.c000000000000p+2",
     ("0x1.4000000000001p+0", "0x1.8000000000000p+1"), "0x1.c000000000000p+2",
     "b9db6d8e3640f0138c5274ac3e14f4cdc3655ba719a88d4a79e5aa3ac10760ab"),
    (DOM1, 10, "even", "0x1.f800000000009p+5",
     ("0x1.8d9b18ab164f9p+1", "0x1.f00000000000ap+4"), "0x1.f800000000009p+5",
     "1bd371f982cd157e49c8b95c2d6ae1551c5a15d64883a319528a6577833aacb6"),
    (DOM1, 23, "odd", "0x1.6cce0000001c7p+9",
     ("0x1.6cce0000001c7p+9", "0x1.6cce0000000a3p+9"), None, None),
    (DOM1, 50, "even", "0x1.ffffff81ff7d9p+25",
     ("0x1.fe5b5d20ec991p+17", "0x1.ffffff03fef98p+24"), "0x1.ffffff81ff7d9p+25",
     "7a2f4147f03c9789360ad770dced0a1f36403e4fdf1c2161f18ae0a0286c0b71"),
    (DOM1, 89, "odd", "0x1.5f9a00e34879ap+41",
     ("0x1.5f9a00e34879ap+41", "0x1.5f9004d0bff63p+41"), None, None),
    (_DOM_F2, 87, "multi-equal", "0x1.89a5d8e07470ep+20",
     ("0x1.89a5d8e00d54ep+20", "0x1.014fc5fecf16ep+19", "0x1.014fc5ff5403bp+19",
      "0x1.89a5d8e07470ep+20"), None, None),
    (_DOM_TWO, 17, "multi-equal", "0x1.d44d41ab04919p+4",
     ("0x1.d44d41ab04919p+4", "0x1.47980e0bf08b6p+3", "0x1.d44d41ab048e6p+4"), None, None),
    (_DOM_TWO, 29, "multi-equal", "0x1.783d92bc89f00p+8",
     ("0x1.783d92bc89e57p+8", "0x1.857efab5eea7ep+6", "0x1.783d92bc89f00p+8"), None, None),
], ids=["f1-4", "f1-10", "f1-23", "f1-50", "f1-89", "f2-87", "two-cuts-17", "two-cuts-29"])
def test_limit_predictions_keep_their_bits(dom, n, case, predicted, sides, r_max, r_sha256):
    # the odd, even and multi-equal splits as their own closed forms give
    # them: the one formula adds no term to the first and third, and an exact
    # 1.0 times the residual sum to the second
    pred = limit_lebesgue_prediction(partition_nodes(equispaced_nodes(n), dom), dom)
    assert pred.case == case
    assert pred.predicted.hex() == predicted
    assert tuple(c.hex() for c in pred.side_constants) == sides
    assert (None if pred.r_max is None else pred.r_max.hex()) == r_max
    samples = pred.r_samples
    assert (None if samples is None else hashlib.sha256(samples.tobytes()).hexdigest()
            ) == r_sha256


def test_limit_prediction_never_holds_the_whole_grid():
    # f1 at n = 50, the even split: each side's closed grid is taken from the
    # grid description one side at a time; materialising the whole grid and
    # a masked copy of each side peaked at 0.889 MB, above this bound
    part = partition_nodes(equispaced_nodes(50), DOM1)
    limit_lebesgue_prediction(part, DOM1)  # a first call may fill caches of its own
    tracemalloc.start()
    try:
        limit_lebesgue_prediction(part, DOM1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8e6


@pytest.mark.parametrize("dom, n", [
    (DOM1, 4), (DOM1, 10), (DOM1, 23), (DOM1, 50), (DOM1, 89), (_DOM_F2, 87),
    (_DOM_TWO, 17), (_DOM_TWO, 29),
], ids=["f1-4", "f1-10", "f1-23", "f1-50", "f1-89", "f2-87", "two-cuts-17", "two-cuts-29"])
def test_limit_predictions_at_the_materialised_grid_keep_their_bits(dom, n):
    # a sorted array's sides are sliced out of it, a description's built, with
    # the same bits
    nodes = equispaced_nodes(n)
    part = partition_nodes(nodes, dom)
    auto = limit_lebesgue_prediction(part, dom)
    array = limit_lebesgue_prediction(part, dom, lebesgue_grid(dom, nodes))
    assert array.case == auto.case
    assert [v.hex() for v in (array.predicted, *array.side_constants)] == [
        v.hex() for v in (auto.predicted, *auto.side_constants)]
    assert array.r_max == auto.r_max
    assert (None if array.r_samples is None else array.r_samples.tobytes()) == (
        None if auto.r_samples is None else auto.r_samples.tobytes())


@pytest.mark.parametrize("dom, n, bound", [(_DOM_F2, 87, 0.25e6), (DOM1, 89, 0.4e6)],
                         ids=["f2-87-multi-equal", "f1-89-odd"])
def test_limit_prediction_peak_memory_stays_under_its_bound(dom, n, bound):
    # each side's points are built once, as a sorted array, and searched
    # (no heavier neighbour) or evaluated densely: peaks of 0.21 and 0.35 MB,
    # where looking each point up in the grid description took 0.57 and 0.58
    part = partition_nodes(equispaced_nodes(n), dom)
    limit_lebesgue_prediction(part, dom)  # a first call may fill caches of its own
    tracemalloc.start()
    try:
        limit_lebesgue_prediction(part, dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_prediction_refusals():
    # unbalanced single cut
    dom = PiecewiseDomain(Interval(-1, 1), (0.9,))
    part = partition_nodes(equispaced_nodes(10), dom)
    with pytest.raises(PredictionUnavailableError, match="balance"):
        limit_lebesgue_prediction(part, dom)
    # unbalanced two cuts
    dom = PiecewiseDomain(Interval(-1, 1), (-0.5, 0.9))
    part = partition_nodes(equispaced_nodes(10), dom)
    assert part.cardinalities == (3, 7, 1)
    with pytest.raises(PredictionUnavailableError, match="balance"):
        limit_lebesgue_prediction(part, dom)
    # the mirrored even split (2, 3) and f2's (8, 7, 7, 8) at n = 29 are
    # balanced, so each has a limit
    for cuts, n, counts in (((-0.1,), 4, (2, 3)), ((-0.5, 0.0, 0.5), 29, (8, 7, 7, 8))):
        dom = PiecewiseDomain(Interval(-1, 1), cuts)
        nodes = equispaced_nodes(n)
        part = partition_nodes(nodes, dom)
        assert part.cardinalities == counts
        pred = limit_lebesgue_prediction(part, dom)
        assert abs(_large_shift_max(nodes, dom) - pred.predicted) <= 1e-6 * pred.predicted
    # no cuts at all
    part = partition_nodes(equispaced_nodes(4), DOM0)
    with pytest.raises(PredictionUnavailableError):
        limit_lebesgue_prediction(part, DOM0)


def test_c_factor_two_cut_closed_forms():
    cards = (9, 7, 5)
    assert c_factor(1, 2, cards) == 2.0 ** -5
    assert c_factor(3, 2, cards) == 2.0 ** -9
    assert c_factor(2, 1, cards) == 2.0 ** 5
    assert c_factor(2, 3, cards) == 2.0 ** 9
    assert c_factor(1, 3, cards) == 1.0
    assert c_factor(3, 1, cards) == 1.0


@settings(max_examples=50, deadline=None)
@given(cards=st.lists(st.integers(1, 25), min_size=4, max_size=5),
       data=st.data())
def test_c_factor_matches_product_oracle(cards, data):
    count = len(cards)
    mu = data.draw(st.integers(1, count))
    tau = data.draw(st.integers(1, count).filter(lambda t: t != mu))
    expected = 1.0
    for nu in range(1, count + 1):
        if nu == mu or nu == tau:
            continue
        expected *= (abs(tau - nu) / abs(mu - nu)) ** cards[nu - 1]
    assert_allclose(c_factor(mu, tau, cards), expected, rtol=1e-12)


def test_c_factor_rejects_bad_indices():
    with pytest.raises(ValueError):
        c_factor(2, 2, (3, 3, 3))
    with pytest.raises(ValueError):
        c_factor(1, 2, (3, 3))
    with pytest.raises(ValueError):
        c_factor(0, 2, (3, 3, 3))


@pytest.mark.parametrize("compute", [
    lambda: delta_bound(2.7),
    lambda: delta_bound(True),
    lambda: c_factor(1, 2, (3.5, 4, 5)),
    lambda: c_factor(1, 2, (3, True, 5)),
    lambda: c_factor(1.5, 2, (3, 4, 5)),
], ids=["delta-fraction", "delta-bool", "c-count-fraction", "c-count-bool",
        "c-index-fraction"])
def test_counts_and_indices_must_be_integral(compute):
    # delta_bound(2.7) gave the bound for N = 2, and True stood for N = 1
    with pytest.raises(ValueError, match="must be"):
        compute()
    assert delta_bound(10.0) == delta_bound(10)
    assert c_factor(1.0, 2, (9.0, 7, 5)) == c_factor(1, 2, (9, 7, 5))


def test_delta_bound_values():
    # direct arithmetic: 4 / (pi N^2 (2 + pi ln(N+1)))
    import math
    assert_allclose(delta_bound(1), 4.0 / (math.pi * (2.0 + math.pi * math.log(2.0))),
                    rtol=1e-15)
    assert_allclose(delta_bound(1), 0.30477876869860776, rtol=1e-12)
    assert_allclose(delta_bound(10), 1.3355832102891643e-3, rtol=1e-12)
    with pytest.raises(ValueError):
        delta_bound(0)


def test_delta_bound_monotone():
    vals = np.array([delta_bound(k) for k in range(1, 10001)])
    assert np.all(np.diff(vals) < 0)


def test_small_offsets_keep_logarithmic_growth():
    lams = {}
    for n in (8, 16, 32, 64, 128):
        offset = 0.9 * delta_bound(n + 1)
        nodes = bg_chebyshev_nodes(n, offset, offset)
        lams[n] = lebesgue_constant(nodes, None, DOM0).lebesgue_constant
    for n in (8, 16, 32, 64):
        assert lams[2 * n] / lams[n] < 1.5
