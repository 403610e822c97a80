"""The blocked barycentric quotient kernel and the functions routed through it."""

import tracemalloc
import weakref
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspa import (
    Interval,
    MapChain,
    PiecewiseDomain,
    barycentric_weights,
    build_interpolant,
    equispaced_nodes,
    eval_interpolant,
    even_split_residual_sum,
    f1,
    f2,
    graspa_chain,
    lagrange_matrix,
    lebesgue_constant,
    lebesgue_function,
    lebesgue_grid,
    method_chain,
    sgibbs_chain,
)
from graspa import interpolation, stability
from graspa.exceptions import EvaluationError
from graspa.interpolation import _block_rows, _node_images

DOM_F1 = PiecewiseDomain(Interval(-1, 1), (0.0,))
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


def _peak_bytes(call, x):
    call(x)  # a first call may fill caches of its own
    tracemalloc.start()
    try:
        call(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graspa_chain_memory_is_a_few_arrays_of_its_points():
    # the images, and one chunk's subinterval index, scratch array and byte
    # masks (about 1.2 * 8m here; 3.4 * 8m when they spanned every point)
    m = 100_000
    x = np.random.default_rng(7).uniform(-1, 1, m)
    assert _peak_bytes(CHAIN_F2, x) <= 1.5 * 8 * m


def test_graspa_evaluation_memory_is_near_the_evaluators_own():
    # the evaluator holds the images, which its results overwrite, and its
    # 512 KiB block buffer (about 0.81 MB here; 1.05 MB when the results sat
    # beside the images); the chain's own peak stays below that
    nodes = equispaced_nodes(81)
    interp = build_interpolant(nodes, f1(nodes.nodes), graspa_chain(1e4, DOM_F1))
    x = np.random.default_rng(8).uniform(-1, 1, 32768)
    assert _peak_bytes(interp, x) <= 1.0e6


def _unblocked_weights(s):
    """The weights from one unblocked capacity-scaled product of all rows, with
    exponent tracking for every row once any row leaves the normal range: the
    reference for the blocked weights."""
    diff = (s[:, None] - s[None, :]) / ((s.max() - s.min()) / 4.0)
    np.fill_diagonal(diff, 1.0)
    with np.errstate(over="ignore"):
        prod = diff.prod(axis=1)
    size = np.abs(prod)
    if size.min() >= np.finfo(float).tiny and size.max() <= np.finfo(float).max:
        return 1.0 / prod
    mant, exp = np.frexp(diff)
    total = exp.sum(axis=1, dtype=np.int64)
    prod = np.ones(s.size)
    for lo in range(0, s.size, 512):
        prod, shift = np.frexp(prod * mant[:, lo:lo + 512].prod(axis=1))
        total += shift
    mant, w_exp = np.frexp(1.0 / prod)
    w_exp = w_exp - total
    return np.ldexp(mant, w_exp - w_exp.max())


def _f1_images(method, n):
    chain = method_chain(method, DOM_F1, 1e4)
    return np.sort(_node_images(equispaced_nodes(n).nodes, chain)[0])


@pytest.mark.parametrize("method", ["graspa", "classical"])
@pytest.mark.parametrize("n", [255, 257, 301, 513])
def test_blocked_weights_keep_the_bits_of_one_unblocked_product(method, n):
    # one block of 256 rows, then 2, 2 and 5 blocks (514 columns: two frexp
    # blocks); f1 GRASPA tracks exponents at these degrees, f1 classical not
    s = _f1_images(method, n)
    np.testing.assert_array_equal(_bits(barycentric_weights(s)),
                                  _bits(_unblocked_weights(s)))


@pytest.mark.parametrize("method, n", [("graspa", 277), ("sgibbs", 269)])
def test_plain_and_tracked_blocks_share_one_power_of_two(method, n):
    # f2 at these degrees: the first block's products leave the normal range
    # and the second's do not; the span guard refuses such weights, but the
    # residual sums take them unguarded
    chain = method_chain(method, DOM_F2, 1e4)
    s = np.sort(_node_images(equispaced_nodes(n).nodes, chain)[0])
    w, k = interpolation._capacity_weights(s, interpolation._node_factor(s))
    assert k is not None
    np.testing.assert_array_equal(_bits(w), _bits(_unblocked_weights(s)))


def test_weights_memory_is_one_block_of_products():
    # f1 GRASPA at degree 1499: the unblocked differences, mantissas and
    # exponents took 45 MB; one 43-row block of each takes about 1.4 MB
    s = _f1_images("graspa", 1499)
    assert _peak_bytes(barycentric_weights, s) < 3e6


def _interpolate(nodes, chain, x):
    return eval_interpolant(build_interpolant(nodes, f2(nodes.nodes), chain), x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "evaluate", (_interpolate, lebesgue_function, lagrange_matrix),
    ids=("eval_interpolant", "lebesgue_function", "lagrange_matrix"))
def test_quotient_overflow_raises_without_warning(evaluate):
    # sgibbs, cut at 0.6, shift 3.6e4, degree 89: the weights are finite, but
    # quotients w_j / (s - s_j) overflow; that is an EvaluationError, and no
    # RuntimeWarning escapes the kernel first
    nodes = equispaced_nodes(89)
    chain = sgibbs_chain(3.6e4, PiecewiseDomain(Interval(-1, 1), (0.6,)))
    with pytest.raises(EvaluationError):
        evaluate(nodes, chain, np.linspace(-1, 1, 332))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _points_with_every_node(nodes, m, seed):
    """m random points with the nodes spread over every block, and where they sit."""
    x = np.random.default_rng(seed).uniform(-1, 1, m)
    at = np.linspace(0, m - 1, nodes.size).astype(int)
    x[at] = nodes
    return x, at


def test_every_node_hit_returns_its_stored_value():
    nodes = equispaced_nodes(89)
    values = f2(nodes.nodes)
    interp = build_interpolant(nodes, values, CHAIN_F2)
    block, sizes = _block_sizes(90)
    x, at = _points_with_every_node(nodes.nodes, sizes[-1], 4)
    rest = np.delete(np.arange(x.size), at)
    out = interp(x)
    np.testing.assert_array_equal(_bits(out[at]), _bits(values))
    # the matrix product may round differently once the block boundaries move
    np.testing.assert_allclose(out[rest], interp(x[rest]), rtol=1e-14, atol=1e-15)
    lam = lebesgue_function(nodes, CHAIN_F2, x)
    np.testing.assert_array_equal(_bits(lam[at]), _bits(np.ones(90)))
    np.testing.assert_array_equal(_bits(lam[rest]),
                                  _bits(lebesgue_function(nodes, CHAIN_F2, x[rest])))
    assert lam[rest].min() > 1.0


def test_every_node_hit_gives_its_unit_column():
    # nodes passed unsorted: each hit column has its 1.0 in the row of that node
    nodes = equispaced_nodes(89).nodes
    shuffled = nodes[np.random.default_rng(5).permutation(90)]
    block, sizes = _block_sizes(90)
    x, at = _points_with_every_node(nodes, 2 * block + 7, 6)
    mat = lagrange_matrix(shuffled, CHAIN_F2, x)
    np.testing.assert_array_equal(_bits(mat[:, at]),
                                  _bits(shuffled[:, None] == nodes[None, :]))
    rest = np.delete(np.arange(x.size), at)
    np.testing.assert_array_equal(_bits(mat[:, rest]),
                                  _bits(lagrange_matrix(shuffled, CHAIN_F2, x[rest])))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "evaluate", (_interpolate, lebesgue_function, lagrange_matrix),
    ids=("eval_interpolant", "lebesgue_function", "lagrange_matrix"))
def test_node_hit_does_not_hide_a_quotient_overflow(evaluate):
    # the same overflowing setting as above, with node hits in the call too:
    # the hits are replaced, the overflowing rows still raise
    nodes = equispaced_nodes(89)
    chain = sgibbs_chain(3.6e4, PiecewiseDomain(Interval(-1, 1), (0.6,)))
    x = np.concatenate([nodes.nodes[[0, 45, 89]], np.linspace(-1, 1, 332)])
    with pytest.raises(EvaluationError, match="lost finiteness"):
        evaluate(nodes, chain, x)


def test_only_rows_that_miss_a_node_take_the_first_form(monkeypatch):
    # node hits are non-finite rows too; they alone never reach the
    # exponent-tracked products of the first form
    calls = []
    real = interpolation._row_products
    monkeypatch.setattr(interpolation, "_row_products",
                        lambda diff: calls.append(diff.shape) or real(diff))
    nodes = equispaced_nodes(89)
    values = f2(nodes.nodes)
    interp = build_interpolant(nodes, values, CHAIN_F2)
    calls.clear()  # the weights' products
    out = interp(np.concatenate([nodes.nodes[[0, 45, 89]], np.linspace(-0.9, 0.9, 5)]))
    np.testing.assert_array_equal(out[:3], values[[0, 45, 89]])
    assert calls == []
    # two nodes 1e-20 apart, seen from s = 1: both reciprocals round to 1, the
    # weights are exact negatives, and the denominator cancels to 0 in any
    # summation order; the first form gives the line through the two samples
    interp = build_interpolant([0.0, 1e-20], [0.0, 1.0])
    calls.clear()
    out = interp(np.array([0.5e-20, 1.0]))
    assert calls == [(2, 2)]
    np.testing.assert_allclose(out, [0.5, 1e20], rtol=1e-15)


def test_lebesgue_and_basis_matrix_keep_the_row_sum_quotient():
    # the interpolant takes its sums from a matrix product; the Lebesgue
    # function and the basis matrix keep numpy's row sums of the quotient
    # terms bit for bit, on which the cell search's equality with the dense
    # grid rests
    nodes = equispaced_nodes(89)
    x = np.random.default_rng(7).uniform(-1, 1, 2 * _block_rows(90) + 5)
    s_nodes = _node_images(nodes.nodes, CHAIN_F2)[0]
    t = barycentric_weights(s_nodes) / (CHAIN_F2(x)[:, None] - s_nodes[None, :])
    np.testing.assert_array_equal(_bits(lebesgue_function(nodes, CHAIN_F2, x)),
                                  _bits(np.abs(t).sum(axis=1) / np.abs(t.sum(axis=1))))
    np.testing.assert_array_equal(_bits(lagrange_matrix(nodes, CHAIN_F2, x)),
                                  _bits(np.abs(t / t.sum(axis=1)[:, None]).T))


# --- differences from one rank-2 product ----------------------------------------


def _subtracted(s, factor, out=None, left=None):
    """The broadcast subtraction s_i - x_j that ``_differences`` replaces, with
    x = -factor[1] (a negation, exact): the reference."""
    return np.subtract(np.asarray(s)[:, None], -factor[1], out=out)


def _same_differences(got, want):
    # a zero's sign may differ; a node hit is an exact zero either way
    return bool(((got == want) | (np.isnan(got) & np.isnan(want))).all())


@settings(max_examples=400, deadline=None)
@given(s=st.lists(st.floats(width=64), min_size=1, max_size=40),
       x=st.lists(st.floats(width=64), min_size=1, max_size=40),
       hits=st.integers(0, 40), flips=st.integers(0, 40))
def test_differences_have_the_bits_of_the_subtraction(s, x, hits, flips):
    # every double: subnormals, 1e308 and inf; x[:hits] are exact node hits,
    # and -x[:flips] give sums that overflow to +-inf where |x_j| is large
    s = np.array(s + x[:hits] + [-v for v in x[:flips]])
    x = np.array(x)
    factor = interpolation._node_factor(x)
    out = np.full((s.size, x.size), np.nan)
    with np.errstate(all="ignore"):
        want = _subtracted(s, factor)
        assert _same_differences(interpolation._differences(s, factor), want)
        interpolation._differences(s, factor, out)
    assert _same_differences(out, want)


def test_differences_have_the_bits_of_the_subtraction_at_blas_sizes():
    # large enough for the blocked BLAS kernels, with exponents from the
    # subnormal range to 2**1023
    rng = np.random.default_rng(11)

    def draw(k):
        return rng.choice((-1.0, 1.0), k) * np.ldexp(rng.uniform(0.5, 1.0, k),
                                                     rng.integers(-1074, 1024, k))

    x = draw(517)
    x[20:40] = np.ldexp(x[20:40], 1024 - np.frexp(x[20:40])[1])  # |x| above 9e307
    x[40:60] = np.ldexp(x[40:60], -1030 - np.frexp(x[40:60])[1])  # subnormal
    s = np.concatenate((draw(300), x[:20], -x[20:40], x[40:60] / 3))
    with np.errstate(all="ignore"):
        got = interpolation._differences(s, interpolation._node_factor(x))
        want = _subtracted(s, interpolation._node_factor(x))
    assert np.isinf(want).any() and (want == 0).any() and (np.abs(want) < 2.0**-1022).any()
    assert _same_differences(got, want)


def test_every_pairwise_site_keeps_the_bits_of_the_subtraction(monkeypatch):
    # points across two block boundaries, with node hits at both; each site
    # gives the bits it gives with the broadcast subtraction in its place
    nodes = equispaced_nodes(89)
    interp = build_interpolant(nodes, f2(nodes.nodes), CHAIN_F2)
    block = _block_rows(90)
    x = np.random.default_rng(13).uniform(-1, 1, 2 * block + 5)
    x[[block - 1, block, 2 * block]] = nodes.nodes[[3, 40, 77]]
    s = interp.map(x)
    s = s[~np.isin(s, interp.mapped_nodes)]
    left, right = np.linspace(-1, -0.01, 45), np.linspace(0.01, 1, 44)

    def sites():
        w, k = interpolation._capacity_weights(interp.mapped_nodes, interp.node_factor)
        return [w, [] if k is None else [k], interpolation._first_form(s, interp),
                even_split_residual_sum(left, right, x), interp(x),
                lebesgue_function(nodes, CHAIN_F2, x), lagrange_matrix(nodes, CHAIN_F2, x)]

    got = sites()
    monkeypatch.setattr(interpolation, "_differences", _subtracted)
    want = sites()
    assert np.isfinite(got[2]).all()  # the first form answers every point
    for a, b in zip(got, want):
        np.testing.assert_array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("end", ["finished", "broken", "raised"])
def test_block_loop_restores_the_error_state(end):
    # the loop's body runs with division by zero, overflow and invalid values
    # silenced; the caller's error state is back however the loop ends, also
    # while pytest.raises still holds the traceback of a body that raised
    before = np.geterr()
    s = np.linspace(-1.0, 1.0, 3 * _block_rows(5) + 1)
    factor = interpolation._node_factor(np.linspace(-1.0, 1.0, 5))

    def loop():
        for rows, _ in interpolation._blocks(s, factor):
            assert np.geterr()["divide"] == np.geterr()["invalid"] == "ignore"
            if end == "broken" and rows.start > 0:
                break
            if end == "raised":
                raise KeyError(rows.start)

    if end == "raised":
        with pytest.raises(KeyError) as info:
            loop()
        assert info.traceback and np.geterr() == before
    else:
        loop()
    assert np.geterr() == before


def test_block_loop_silences_its_body_alone():
    # a point on a node makes its difference 0: dividing by it passes in the
    # loop's body and raises, as RuntimeWarning is an error, right after it
    s = np.array([0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _, d in interpolation._blocks(s, interpolation._node_factor(s)):
            assert np.isinf(1.0 / d).all()
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            1.0 / d


@pytest.mark.parametrize("call", ["eval_interpolant", "lebesgue_function", "lagrange_matrix"])
def test_block_buffer_is_freed_before_the_node_hit_search(monkeypatch, call):
    # after the block loop, the caller's last block (a view of the buffer)
    # must not keep the buffer alive while the node-hit search allocates
    buffers, alive = [], []
    real_blocks, real_hits = interpolation._blocks, interpolation._node_hits

    def blocks(s, factor):
        for rows, d in real_blocks(s, factor):
            buffers.append(weakref.ref(d.base))
            yield rows, d

    def hits(kept, basis):
        alive.append(any(ref() is not None for ref in buffers))
        return real_hits(kept, basis)

    for module in (interpolation, stability):
        monkeypatch.setattr(module, "_blocks", blocks)
        monkeypatch.setattr(module, "_node_hits", hits)
    nodes = equispaced_nodes(20)
    x = np.linspace(-1.0, 1.0, 2 * _block_rows(21) + 1)  # three blocks, nodes among them
    if call == "eval_interpolant":
        eval_interpolant(build_interpolant(nodes, f1(nodes.nodes)), x)
        eval_interpolant(build_interpolant(nodes, f1(nodes.nodes)), x[:0])  # binds no block
    elif call == "lebesgue_function":
        lebesgue_function(nodes, None, x)
        lebesgue_function(nodes, None, x[:0])
    else:
        lagrange_matrix(nodes, None, x)
    assert buffers and alive and not any(alive)


def _separate_results(interp, x):
    """(images, quotients): each block's quotients written into an array of
    their own, beside the images, as the evaluator did before it wrote its
    results over the images; the reference for the in-place evaluation."""
    s = interp.chain(x)
    out = np.empty(s.size)
    for rows, t in interpolation._blocks(s, interp.node_factor):
        np.divide(*(np.divide(1.0, t, out=t) @ interp.columns).T, out=out[rows])
    return s, out


def test_in_place_evaluation_keeps_node_hits_and_first_form_rows():
    # f2 graspa n = 171: 1983 of 200001 grid points cancel or overflow in the
    # quotient and take the first form; 4 of them and 4 node hits go into each
    # of three blocks, among random points
    nodes = equispaced_nodes(171)
    values = f2(nodes.nodes)
    interp = build_interpolant(nodes, values, method_chain("graspa", DOM_F2, 1e4))
    grid = np.linspace(-1, 1, 200001)
    s, q = _separate_results(interp, grid)
    far = grid[~np.isfinite(q) & ~np.isin(s, interp.mapped_nodes)]
    assert far.size == 1983
    block = _block_rows(172)
    rng = np.random.default_rng(31)
    x = rng.uniform(-1, 1, 3 * block)
    at = np.concatenate([b * block + rng.choice(block, 8, replace=False) for b in range(3)])
    hit, miss = at.reshape(3, 2, 4).transpose(1, 0, 2).reshape(2, -1)
    picks = rng.choice(nodes.nodes.size, hit.size, replace=False)
    x[hit] = nodes.nodes[picks]
    x[miss] = rng.choice(far, miss.size, replace=False)
    kept = x.copy()
    got = interp(x)
    assert x.tobytes() == kept.tobytes()
    s, want = _separate_results(interp, x)
    bad = np.flatnonzero(~np.isfinite(want))
    assert np.isin(hit, bad).all() and np.isin(miss, bad).all()
    on_node = np.isin(s[bad], interp.mapped_nodes)
    want[hit] = values[picks]
    want[bad[~on_node]] = interpolation._first_form(s[bad[~on_node]], interp)
    assert np.isfinite(want).all()
    np.testing.assert_array_equal(_bits(got), _bits(want))


def test_in_place_lebesgue_still_raises_on_a_miss():
    # the overflowing sgibbs setting: 2184 points over three blocks that all
    # evaluate, then one that overflows placed in the third block
    nodes = equispaced_nodes(89)
    chain = sgibbs_chain(3.6e4, PiecewiseDomain(Interval(-1, 1), (0.6,)))
    grid = np.linspace(-1, 1, 332)
    finite = [v for v in grid if np.isfinite(_lebesgue_or_nan(nodes, chain, v))]
    assert len(finite) == 328
    x = np.resize(finite, 3 * _block_rows(90))
    assert np.isfinite(lebesgue_function(nodes, chain, x)).all()
    x[-5] = np.setdiff1d(grid, finite)[0]
    kept = x.copy()
    with pytest.raises(EvaluationError, match="lost finiteness"):
        lebesgue_function(nodes, chain, x)
    assert x.tobytes() == kept.tobytes()


def _lebesgue_or_nan(nodes, chain, v):
    try:
        return lebesgue_function(nodes, chain, v)
    except EvaluationError:
        return np.nan


class _Same:
    """A callable that returns the array it is given."""

    def __call__(self, x):
        return x


class _Stored:
    """An array-like whose ``__array__`` hands back the float array it stores."""

    def __init__(self, values):
        self.values = values

    def __array__(self, dtype=None, copy=None):
        return self.values


@pytest.mark.parametrize("chain", [None, MapChain((_Same(),))], ids=["identity", "callable"])
def test_no_evaluation_writes_the_callers_points(chain):
    # the evaluators write their results over the images, so the chain must
    # hand them a new array, never the caller's memory
    nodes = equispaced_nodes(20)
    interp = build_interpolant(nodes, f1(nodes.nodes), chain)
    x = np.linspace(-1.0, 1.0, 2 * _block_rows(21) + 1)  # three blocks, nodes among them
    kept = x.copy()
    for pts in (x, x[::2], x[:-1].reshape(2, -1), _Stored(x)):
        want = np.array(pts)
        values = interp(pts)
        lam = lebesgue_function(nodes, chain, pts)
        assert np.asarray(pts).tobytes() == want.tobytes()
        np.testing.assert_array_equal(values, interp(want.tolist()))
        np.testing.assert_array_equal(lam, lebesgue_function(nodes, chain, want.tolist()))
    assert x.tobytes() == kept.tobytes()
    x.setflags(write=False)
    interp(x)
    lebesgue_function(nodes, chain, x)


def test_lebesgue_constant_keeps_its_report_grid():
    # the classical chain is the identity, whose images are the grid itself
    nodes = equispaced_nodes(12)
    for grid_spec in ("auto", np.linspace(-1.0, 1.0, 1500)):
        report = lebesgue_constant(nodes, None, DOM_F1, grid_spec)
        assert report.grid.tobytes() == lebesgue_grid(DOM_F1, nodes, grid_spec).tobytes()
        assert report.lebesgue_values.max() == report.lebesgue_constant > 1.0


@pytest.mark.parametrize("method", ["graspa", "sgibbs"])
def test_large_evaluation_memory_is_its_result_and_a_little_more(method):
    # 10**6 points, f2 at n = 81: the chain works in chunks and the results
    # overwrite the images, so the peak is the 8 MB result plus the block
    # buffer and one chunk's scratch (27.0 and 17.0 MB when the chain held
    # its per-point arrays whole and the results sat beside the images)
    nodes = equispaced_nodes(81)
    interp = build_interpolant(nodes, f2(nodes.nodes), method_chain(method, DOM_F2, 1e4))
    x = np.random.default_rng(10).uniform(-1, 1, 10**6)
    assert _peak_bytes(interp, x) <= 8e6 + 1.5e6
