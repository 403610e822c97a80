"""The blocked barycentric quotient kernel and the functions routed through it."""

import tracemalloc

import numpy as np
import pytest

from graspa import (
    Interval,
    MapChain,
    PiecewiseDomain,
    build_interpolant,
    equispaced_nodes,
    eval_interpolant,
    f2,
    graspa_chain,
    lagrange_matrix,
    lebesgue_function,
)
from graspa.interpolation import _block_rows

DOM_F2 = PiecewiseDomain(Interval(-1, 1), (-0.5, 0.0, 0.5))
CHAIN_F2 = graspa_chain(10000.0, DOM_F2)


def _block_sizes(n_nodes):
    block = _block_rows(n_nodes)
    return block, (block - 1, block, block + 1, 3 * block + 1)


def test_block_rows_follow_the_byte_budget():
    assert _block_rows(1) == 65536
    assert _block_rows(90) == 728
    assert _block_rows(202) == 324
    assert _block_rows(10**7) == 1


@pytest.mark.parametrize("shape", [(2, 24), (3, 8), (24, 2), (2, 3, 4)])
def test_nd_input_matches_flattened(shape):
    nodes = equispaced_nodes(23)
    x = np.random.default_rng(1).uniform(-1, 1, shape)
    lam = lebesgue_function(nodes, None, x)
    assert lam.shape == shape
    np.testing.assert_array_equal(lam.ravel(), lebesgue_function(nodes, None, x.ravel()))
    assert lam.min() > 1.0  # not the node-hit value everywhere
    interp = build_interpolant(nodes, f2(nodes.nodes), CHAIN_F2)
    r = eval_interpolant(interp, x)
    assert r.shape == shape
    np.testing.assert_array_equal(r.ravel(), interp(x.ravel()))


def test_scalar_and_empty_input():
    nodes = equispaced_nodes(9)
    interp = build_interpolant(nodes, nodes.nodes**2)
    assert isinstance(lebesgue_function(nodes, None, 0.3), float)
    assert isinstance(interp(0.3), float)
    for empty in (np.empty(0), []):
        assert lebesgue_function(nodes, None, empty).shape == (0,)
        assert interp(empty).shape == (0,)


def test_lebesgue_blocks_match_pointwise_calls():
    nodes = equispaced_nodes(89)
    block, sizes = _block_sizes(90)
    x = np.random.default_rng(2).uniform(-1, 1, sizes[-1])
    x[[5, block + 3, 3 * block]] = nodes.nodes[[10, 50, 80]]
    single = np.array([lebesgue_function(nodes, CHAIN_F2, v) for v in x])
    assert np.all(single[[5, block + 3, 3 * block]] == 1.0)
    for m in sizes:
        np.testing.assert_array_equal(lebesgue_function(nodes, CHAIN_F2, x[:m]),
                                      single[:m])


def test_node_hits_in_last_partial_block():
    nodes = equispaced_nodes(89)
    values = f2(nodes.nodes)
    interp = build_interpolant(nodes, values, CHAIN_F2)
    block, sizes = _block_sizes(90)
    rng = np.random.default_rng(3)
    for m in sizes:
        x = rng.uniform(-1, 1, m)
        last = ((m - 1) // block) * block
        idx = np.arange(last, m)[:5]
        picks = rng.choice(nodes.nodes.size, idx.size, replace=False)
        x[idx] = nodes.nodes[picks]
        out = interp(x)
        np.testing.assert_array_equal(out[idx], values[picks])
        assert np.all(np.isfinite(out))


def test_lagrange_matrix_across_blocks():
    nodes = equispaced_nodes(89)
    block = _block_rows(90)
    grid = np.linspace(-1, 1, 2 * block + 7)
    grid[block + 2] = nodes.nodes[40]
    mat = lagrange_matrix(nodes, CHAIN_F2, grid)
    assert mat.shape == (90, grid.size)
    unit = np.zeros(90)
    unit[40] = 1.0
    np.testing.assert_array_equal(mat[:, block + 2], unit)
    np.testing.assert_allclose(mat.sum(axis=0), lebesgue_function(nodes, CHAIN_F2, grid),
                               rtol=1e-13)


def test_lebesgue_rejects_colliding_images():
    class Collapse:
        def __call__(self, x):
            return np.zeros_like(np.asarray(x, dtype=float))

        def to_dict(self):
            return {"kind": "collapse"}

    with pytest.raises(ValueError, match="injective"):
        lebesgue_function(equispaced_nodes(3), MapChain((Collapse(),)), [0.1])


def test_lebesgue_memory_is_flat_in_point_count():
    nodes = equispaced_nodes(89)
    x = np.linspace(-1, 1, 100_000)
    tracemalloc.start()
    try:
        lebesgue_function(nodes, CHAIN_F2, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unblocked 100000 x 90 float64 array alone would be 72 MB
    assert peak < 25e6
