import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from graspa import (
    Interval,
    KteMap,
    MapChain,
    NodeSet,
    PiecewiseDomain,
    bg_chebyshev_nodes,
    barycentric_weights,
    build_interpolant,
    equispaced_nodes,
    eval_monomial,
    f1,
    graspa_chain,
    vandermonde_coefficients,
)
from graspa.exceptions import EvaluationError
from graspa.interpolation import _node_images

DOM1 = PiecewiseDomain(Interval(-1, 1), (0.0,))


def test_quadratic_reproduction():
    nodes = NodeSet([-1.0, 0.0, 1.0])
    interp = build_interpolant(nodes, nodes.nodes**2)
    assert_allclose(interp(0.5), 0.25, atol=1e-15)


def test_constant_reproduction_any_map():
    nodes = equispaced_nodes(17)
    for chain in (MapChain(), MapChain((KteMap(1.0),)), graspa_chain(1e4, DOM1)):
        interp = build_interpolant(nodes, np.full(18, 3.25), chain)
        grid = np.linspace(-1, 1, 333)
        assert_allclose(interp(grid), 3.25, atol=1e-14)


def test_exact_at_nodes_with_graspa_map():
    nodes = equispaced_nodes(23)
    values = f1(nodes.nodes)
    interp = build_interpolant(nodes, values, graspa_chain(1e4, DOM1))
    got = interp(nodes.nodes)
    assert np.max(np.abs(got - values)) == 0.0


def test_rejects_mismatched_and_nonfinite_values():
    nodes = equispaced_nodes(3)
    with pytest.raises(ValueError):
        build_interpolant(nodes, [1.0, 2.0])
    with pytest.raises(ValueError):
        build_interpolant(nodes, [1.0, np.nan, 2.0, 3.0])


def test_rejects_noninjective_map():
    class Collapse:
        def __call__(self, x):
            return np.zeros_like(np.asarray(x, dtype=float))

        def to_dict(self):
            return {"kind": "collapse"}

    nodes = equispaced_nodes(3)
    with pytest.raises(ValueError, match="injective"):
        build_interpolant(nodes, np.ones(4), MapChain((Collapse(),)))


def test_evaluation_error_on_map_blowup():
    class Blowup:
        def __call__(self, x):
            xs = np.asarray(x, dtype=float)
            return np.where(np.abs(xs) > 0.9, np.inf, xs)

        def to_dict(self):
            return {"kind": "blowup"}

    nodes = NodeSet([-0.5, 0.0, 0.5])
    interp = build_interpolant(nodes, np.ones(3), MapChain())
    bad = dataclasses.replace(interp, chain=MapChain((Blowup(),)))
    with pytest.raises(EvaluationError):
        bad(0.95)


def test_vandermonde_examples():
    assert_allclose(vandermonde_coefficients(NodeSet([0.0, 1.0]), [1.0, 3.0]),
                    [1.0, 2.0], atol=1e-14)
    assert_allclose(vandermonde_coefficients(NodeSet([-1.0, 0.0, 1.0]), [1.0, 0.0, 1.0]),
                    [0.0, 0.0, 1.0], atol=1e-14)
    nodes = NodeSet([-1.0, 0.0, 1.0])
    assert_allclose(vandermonde_coefficients(nodes, 2.0 * nodes.nodes + 5.0),
                    [5.0, 2.0, 0.0], atol=1e-14)


def test_vandermonde_guard():
    nodes = equispaced_nodes(13)
    with pytest.raises(ValueError, match="barycentric"):
        vandermonde_coefficients(nodes, np.ones(14))


def test_barycentric_matches_vandermonde_low_degree():
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(30):
        n = int(rng.integers(1, 9))
        x = np.sort(rng.uniform(-1, 1, n + 1))
        while np.any(np.diff(x) < 1e-3):
            x = np.sort(rng.uniform(-1, 1, n + 1))
        values = rng.normal(size=n + 1)
        chain = MapChain() if trial % 2 == 0 else MapChain((KteMap(1.0),))
        interp = build_interpolant(NodeSet(x), values, chain)
        coeffs = vandermonde_coefficients(NodeSet(x), values, chain)
        pts = rng.uniform(-1, 1, 100)
        direct = eval_monomial(coeffs, np.asarray(chain(pts)))
        scale = np.max(np.abs(direct))
        worst = max(worst, float(np.max(np.abs(interp(pts) - direct)) / scale))
    assert worst <= 1e-9


def test_degree_reproduction_identity_map():
    rng = np.random.default_rng(11)
    for n in range(1, 21):
        for nodes in (equispaced_nodes(n), bg_chebyshev_nodes(n, 0.0, 0.0)):
            coeffs = rng.normal(size=n + 1)
            interp = build_interpolant(nodes, eval_monomial(coeffs, nodes.nodes))
            grid = np.linspace(-1, 1, 500)
            truth = eval_monomial(coeffs, grid)
            err = np.max(np.abs(interp(grid) - truth)) / np.max(np.abs(truth))
            assert err <= 1e-10, (n, nodes.kind, err)


def test_weights_alternate_in_sign():
    interp = build_interpolant(equispaced_nodes(15), np.ones(16))
    signs = np.sign(interp.weights)
    assert np.all(signs[:-1] * signs[1:] == -1)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(1e-3, 1e3))
def test_weight_scale_invariance(scale):
    nodes = equispaced_nodes(21)
    interp = build_interpolant(nodes, f1(nodes.nodes), graspa_chain(1e4, DOM1))
    pts = np.linspace(-1, 1, 311)
    base = interp(pts)
    scaled_w = interp.weights * scale
    scaled_w.setflags(write=False)
    rescaled = dataclasses.replace(interp, weights=scaled_w)
    dev = np.max(np.abs(rescaled(pts) - base)) / np.max(np.abs(base))
    assert dev <= 1e-14


def test_weight_overflow_control_extreme_case():
    # three cuts, shift 1e4, degree 89: raw difference products reach ~1e268,
    # the capacity-scaled ones must stay finite
    dom = PiecewiseDomain(Interval(-1, 1), (-0.5, 0.0, 0.5))
    nodes = equispaced_nodes(89)
    interp = build_interpolant(nodes, np.ones(90), graspa_chain(1e4, dom))
    assert np.all(np.isfinite(interp.weights))
    assert np.all(interp.weights != 0.0)


@pytest.mark.filterwarnings("error")
def test_subnormal_weight_products_raise():
    # cut at -0.84, shift 5e4, degree 79: most capacity-scaled products are
    # finite and nonzero but subnormal, so their reciprocals overflow to inf
    dom = PiecewiseDomain(Interval(-1, 1), (-0.84,))
    nodes = equispaced_nodes(79)
    chain = graspa_chain(5e4, dom)
    with pytest.raises(EvaluationError):
        barycentric_weights(_node_images(nodes, chain)[0])
    with pytest.raises(EvaluationError):
        build_interpolant(nodes, f1(nodes.nodes), chain)
