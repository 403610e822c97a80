import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from graspa import (
    Interval,
    PiecewiseDomain,
    NodeSet,
    bg_chebyshev_nodes,
    equispaced_nodes,
    lebesgue_grid,
    partition_nodes,
)


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, -1.0)


def test_domain_cut_validation():
    with pytest.raises(ValueError):
        PiecewiseDomain(Interval(-1, 1), (0.5, 0.5))
    with pytest.raises(ValueError):
        PiecewiseDomain(Interval(-1, 1), (-1.0,))
    with pytest.raises(ValueError):
        PiecewiseDomain(Interval(-1, 1), (1.5,))


@pytest.mark.parametrize("build, message", [
    (lambda: Interval(-np.inf, 1.0), "endpoints must be finite"),
    (lambda: Interval(-1.0, np.nan), "endpoints must be finite"),
    (lambda: PiecewiseDomain(Interval(-1, 1), (np.nan,)), "cut points must be finite"),
    (lambda: PiecewiseDomain(Interval(-1, 1), (0.0, np.inf)), "cut points must be finite"),
], ids=["interval-inf", "interval-nan", "cut-nan", "cut-inf"])
def test_non_finite_interval_or_cut_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_membership_cut_goes_left():
    dom = PiecewiseDomain(Interval(-1, 1), (0.0,))
    assert dom.subinterval_index(-0.3) == 1
    assert dom.subinterval_index(0.0) == 1
    assert dom.subinterval_index(0.3) == 2
    assert dom.subinterval_index(-1.0) == 1
    assert dom.subinterval_index(1.0) == 2
    with pytest.raises(ValueError):
        dom.subinterval_index(1.5)


def test_subinterval_bounds():
    dom = PiecewiseDomain(Interval(-1, 1), (-0.5, 0.0, 0.5))
    assert dom.n_subintervals == 4
    assert dom.subinterval_bounds(1) == (-1.0, -0.5)
    assert dom.subinterval_bounds(4) == (0.5, 1.0)
    with pytest.raises(ValueError):
        dom.subinterval_bounds(5)


def test_equispaced_examples():
    assert_allclose(equispaced_nodes(2).nodes, [-1.0, 0.0, 1.0], atol=0)
    assert_allclose(equispaced_nodes(1, Interval(0, 2)).nodes, [0.0, 2.0], atol=0)
    assert_allclose(equispaced_nodes(4).nodes, [-1.0, -0.5, 0.0, 0.5, 1.0], atol=0)


def test_equispaced_rejects_degree_zero():
    with pytest.raises(ValueError):
        equispaced_nodes(0)


@pytest.mark.parametrize("make", [
    lambda: equispaced_nodes(2.5),
    lambda: equispaced_nodes(True),
    lambda: bg_chebyshev_nodes(2.5, 0.0, 0.0),
    lambda: bg_chebyshev_nodes(True, 0.0, 0.0),
], ids=["equispaced-fraction", "equispaced-bool", "bg-chebyshev-fraction",
        "bg-chebyshev-bool"])
def test_degrees_must_be_integral(make):
    # bg_chebyshev_nodes(2.5, 0, 0) gave 4 nodes spaced for no degree, and
    # True stood for degree 1
    with pytest.raises(ValueError, match="must be"):
        make()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 200),
    a=st.floats(-100.0, 100.0),
    width=st.floats(1e-3, 200.0),
)
def test_equispaced_spacing_uniform(n, a, width):
    interval = Interval(a, a + width)
    x = equispaced_nodes(n, interval).nodes
    assert x[0] == interval.a and x[-1] == interval.b
    h = interval.width / n
    # spacing is uniform at the rounding resolution of the endpoint magnitudes
    tol = 4 * np.spacing(max(abs(interval.a), abs(interval.b), h))
    assert np.max(np.abs(np.diff(x) - h)) <= tol


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 200))
def test_equispaced_spacing_canonical_interval(n):
    x = equispaced_nodes(n).nodes
    assert np.max(np.abs(np.diff(x) - 2.0 / n)) <= 2 * np.spacing(1.0)


def test_bg_chebyshev_examples():
    assert_allclose(bg_chebyshev_nodes(2, 0, 0).nodes, [-1.0, 0.0, 1.0], atol=1e-16)
    assert_allclose(bg_chebyshev_nodes(3, 0, 0).nodes, [-1.0, -0.5, 0.5, 1.0],
                    atol=1e-15)
    # matches the standard 2-point Chebyshev set cos((2k-1)pi/4)
    root2half = np.sqrt(2.0) / 2.0
    assert_allclose(bg_chebyshev_nodes(1, 0.5, 0.5).nodes, [-root2half, root2half],
                    atol=1e-15)


def test_bg_chebyshev_rejects_bad_params():
    with pytest.raises(ValueError):
        bg_chebyshev_nodes(3, 1.5, 0.5)
    with pytest.raises(ValueError):
        bg_chebyshev_nodes(3, -0.1, 0.0)
    with pytest.raises(ValueError):
        bg_chebyshev_nodes(0, 0.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 120))
def test_bg_chebyshev_lobatto_special_case(n):
    lobatto = np.sort(np.cos(np.arange(n + 1) * np.pi / n))
    assert_allclose(bg_chebyshev_nodes(n, 0.0, 0.0).nodes, lobatto, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 120))
def test_bg_chebyshev_includes_chebyshev_points(n):
    k = np.arange(1, n + 2)
    cheb = np.sort(np.cos((2 * k - 1) * np.pi / (2 * (n + 1))))
    got = bg_chebyshev_nodes(n, 1.0 / (n + 1), 1.0 / (n + 1)).nodes
    assert_allclose(got, cheb, atol=1e-14)


def test_nodeset_rejects_duplicates():
    with pytest.raises(ValueError):
        NodeSet([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        NodeSet([1.0, 0.0])


def test_nodeset_immutable():
    nodes = equispaced_nodes(3)
    with pytest.raises(ValueError):
        nodes.nodes[0] = 5.0


def test_partition_examples():
    dom = PiecewiseDomain(Interval(-1, 1), (0.0,))
    part = partition_nodes(NodeSet([-1.0, 0.0, 1.0]), dom)
    assert_allclose(part.parts[0], [-1.0, 0.0])
    assert_allclose(part.parts[1], [1.0])
    assert part.balanced

    part = partition_nodes(equispaced_nodes(23), dom)
    assert part.cardinalities == (12, 12)
    assert part.balanced

    part = partition_nodes(NodeSet([-1.0, -0.9, -0.8, 1.0]), dom)
    assert part.cardinalities == (3, 1)
    assert not part.balanced


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 60),
    cut=st.floats(-0.9, 0.9),
)
def test_partition_covers_every_node_once(n, cut):
    dom = PiecewiseDomain(Interval(-1, 1), (cut,))
    nodes = equispaced_nodes(n)
    part = partition_nodes(nodes, dom)
    assert sum(part.cardinalities) == len(nodes)
    recombined = np.concatenate(part.parts)
    assert_allclose(recombined, nodes.nodes, atol=0)


def test_partition_rejects_outside_nodes():
    dom = PiecewiseDomain(Interval(-1, 1), (0.0,))
    with pytest.raises(ValueError):
        partition_nodes(NodeSet([-2.0, 0.0]), dom)


DOM1 = PiecewiseDomain(Interval(-1, 1), (0.0,))


# numbers are read as the configs read them: a number or a numeric string,
# never a bool; raw nodes are taken as every other nodes argument takes them,
# and need not be sorted, so the domain check looks at their least and largest
@pytest.mark.parametrize("build, want", [
    (lambda: Interval(True, 2), "an interval endpoint must be a number"),
    (lambda: Interval(-1, False), "an interval endpoint must be a number"),
    (lambda: Interval(None, 1), "an interval endpoint must be a number"),
    (lambda: Interval("-1", np.int64(2)).a, -1.0),
    (lambda: PiecewiseDomain(Interval(-1, 1), (True,)), "a cut point must be a number"),
    (lambda: PiecewiseDomain(Interval(-1, 1), ("x",)), "a cut point must be a number"),
    (lambda: PiecewiseDomain(Interval(-1, 1), ("0.25",)).cuts[0], 0.25),
    (lambda: bg_chebyshev_nodes(5, True, 0), "beta must be a number"),
    (lambda: bg_chebyshev_nodes(5, 0, None), "gamma must be a number"),
    (lambda: bg_chebyshev_nodes(5, "0", np.float32(0)).nodes[-1], 1.0),
    (lambda: partition_nodes(np.array([-1.0, 0.0, 1.0]), DOM1).parts[1][0], 1.0),
    (lambda: partition_nodes([0.5, -1.0, 0.0, -0.5], DOM1).cardinalities, (3, 1)),
    (lambda: partition_nodes([0.0, 1.5, -0.5], DOM1), "nodes must lie inside the domain"),
    (lambda: partition_nodes([0.5, -1.5, 0.0], DOM1), "nodes must lie inside the domain"),
    (lambda: partition_nodes([0.0, np.nan], DOM1), "nodes must be finite"),
    (lambda: partition_nodes(np.zeros((2, 2)), DOM1), "nonempty 1-D"),
    (lambda: lebesgue_grid(DOM1, [0.0, 1.5, -0.5]), "nodes must lie inside the domain"),
    (lambda: lebesgue_grid(DOM1, [0.5, -1.5, 0.0]), "nodes must lie inside the domain"),
], ids=["interval-bool", "interval-bool-b", "interval-none", "interval-numeric-string",
        "cut-bool", "cut-word", "cut-numeric-string", "bgcheb-beta-bool", "bgcheb-gamma-none",
        "bgcheb-numeric-string", "partition-raw-nodes", "partition-unsorted-raw-nodes",
        "partition-raw-above", "partition-raw-below", "partition-raw-nan", "partition-raw-2d",
        "grid-raw-above", "grid-raw-below"])
def test_domain_numbers_and_raw_nodes(build, want):
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            build()
    else:
        assert build() == want


def test_domain_roundtrips_through_dict():
    dom = PiecewiseDomain(Interval(-1, 1), (-0.5, 0.25))
    again = PiecewiseDomain.from_dict(dom.to_dict())
    assert again == dom
