import dataclasses
import functools
import tracemalloc

import mpmath
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
    even_split_residual_sum,
    f1,
    graspa_chain,
    lagrange_matrix,
    lebesgue_function,
    lebesgue_max,
    method_chain,
    named_chain,
    vandermonde_coefficients,
)
from graspa import interpolation
from graspa.exceptions import EvaluationError
from graspa.experiments import FUNCTIONS
from graspa.interpolation import _block_rows, _node_images

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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vandermonde_refuses_non_finite_values(bad):
    # as build_interpolant does, rather than returning non-finite coefficients
    for fit in (vandermonde_coefficients, build_interpolant):
        with pytest.raises(ValueError, match="sample values must be finite"):
            fit([-1.0, 0.0, 1.0], [1.0, bad, 2.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_refused_before_any_product(bad):
    with pytest.raises(ValueError, match="must be finite"):
        barycentric_weights([0.0, bad, 2.0])
    with pytest.raises(ValueError, match="must be finite"):
        even_split_residual_sum([-1.0, bad, 0.0], [0.5, 1.0], [0.7])
    for right, x in (([bad, 1.0], [0.7]), ([0.5, 1.0], [bad]), ([], [0.3, bad])):
        with pytest.raises(ValueError, match="must be finite"):
            even_split_residual_sum([-1.0, -0.5, 0.0][:len(right) + 1], right, x)
    # evaluation points, through the identity chain's finiteness check
    nodes = equispaced_nodes(9)
    interp = build_interpolant(nodes, nodes.nodes**2)
    for evaluate in (interp, functools.partial(lebesgue_function, nodes, None),
                     functools.partial(lagrange_matrix, nodes, None)):
        with pytest.raises(ValueError, match="points must be finite"):
            evaluate([0.3, bad])


@pytest.mark.parametrize("points", [[0.5, 0.5], [0.0, 1.0, 1.0]],
                         ids=["zero-span", "repeated-point"])
def test_weights_refuse_points_that_are_not_distinct(points):
    # the first has no span to scale by; the second has a zero product
    with pytest.raises(ValueError, match="points must be distinct"):
        barycentric_weights(points)


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
        barycentric_weights(_node_images(nodes.nodes, chain)[0])
    with pytest.raises(EvaluationError):
        build_interpolant(nodes, f1(nodes.nodes), chain)


# --- exponent-tracked weights -------------------------------------------------

U = 2.0 ** -53
KAPPA = 1e4


def _capacity_product(s):
    """The plain capacity-scaled product, the weights' fast path: the reference."""
    s = np.asarray(s, dtype=float)
    diff = (s[:, None] - s[None, :]) / ((s.max() - s.min()) / 4.0)
    np.fill_diagonal(diff, 1.0)
    with np.errstate(over="ignore", under="ignore"):
        return diff.prod(axis=1)


def _leaves_normal_range(prod):
    size = np.abs(prod)
    return not np.all((size >= np.finfo(float).tiny) & (size <= np.finfo(float).max))


def _mapped(function, method, n):
    chain = method_chain(method, PiecewiseDomain(Interval(-1, 1), FUNCTIONS[function][1]),
                         KAPPA)
    nodes = equispaced_nodes(n)
    return nodes, chain, np.sort(_node_images(nodes.nodes, chain)[0])


def _mp_weights(s, digits):
    """The float nodes s as mpf values and their weights 1 / prod (s_i - s_j)
    in the given number of digits."""
    with mpmath.workdps(digits):
        sm = [mpmath.mpf(float(v)) for v in s]
        weights = []
        for i, si in enumerate(sm):
            d = [si - sj for sj in sm]
            d[i] = mpmath.mpf(1)
            weights.append(1 / mpmath.fprod(d))
    return sm, weights


@functools.lru_cache(maxsize=None)
def _exact_f1_graspa(n):
    """f1 GRASPA at degree n: nodes, chain, sorted mapped nodes and their
    50-digit weights."""
    nodes, chain, s = _mapped("f1", "graspa", n)
    return (nodes, chain, s, *_mp_weights(s, 50))


@pytest.mark.parametrize("function, method, ceiling", [
    ("f1", "graspa", 163), ("f2", "graspa", 165), ("f2", "sgibbs", 125),
    ("f1", "classical", 61)])
def test_weights_are_the_capacity_product_where_it_stays_normal(function, method,
                                                                ceiling):
    # every odd degree up to the highest one the plain product handled: its
    # products are normal floats, and the weights are their reciprocals, bit
    # for bit
    for n in range(1, ceiling + 1, 2):
        s = _mapped(function, method, n)[2]
        prod = _capacity_product(s)
        assert not _leaves_normal_range(prod), n
        np.testing.assert_array_equal(barycentric_weights(s), 1.0 / prod)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [165, 301])
def test_exponent_tracked_weights_match_50_digit_weights(n):
    _, _, s, _, exact = _exact_f1_graspa(n)
    assert _leaves_normal_range(_capacity_product(s))
    w = barycentric_weights(s)
    assert 0.5 <= np.abs(w).max() < 1.0  # one power of two taken out
    with mpmath.workdps(50):
        ratio = [mpmath.mpf(float(wi)) / ei for wi, ei in zip(w, exact)]
        dev = max(abs(r / ratio[0] - 1) for r in ratio)
    assert dev <= 4 * (n + 1) * U


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [301, 699])
def test_high_degree_f1_graspa_within_highams_bound(n):
    # Higham (IMA J. Numer. Anal. 2004): the second form's forward error is at
    # most (3n+4) u lambda(x) (max|f| + |p(x)|); one more rounding per factor
    # for the weights gives (4n+4)
    nodes, chain, s, sm, exact = _exact_f1_graspa(n)
    f = FUNCTIONS["f1"][0]
    interp = build_interpolant(nodes, f(nodes.nodes), chain)
    x = np.concatenate([np.random.default_rng(n).uniform(-1, 1, 6),
                        [-1e-3, 1e-3, -0.999, 0.999]])
    got = interp(x)
    with mpmath.workdps(50):
        fm = [mpmath.mpf(float(v)) for v in interp.values]
        fmax = max(abs(v) for v in fm)
        for xi, si, gi in zip(x, chain(x), got):
            t = [w / (mpmath.mpf(float(si)) - sj) for w, sj in zip(exact, sm)]
            total = mpmath.fsum(t)
            p = mpmath.fsum(tj * fj for tj, fj in zip(t, fm)) / total
            lam = mpmath.fsum(abs(tj) for tj in t) / abs(total)
            bound = (4 * n + 4) * U * lam * (fmax + abs(p))
            assert abs(mpmath.mpf(float(gi)) - p) <= bound, (xi, float(p), gi)


@pytest.mark.filterwarnings("error")
def test_f1_graspa_lebesgue_growth_is_logarithmic():
    # the paper's Lebesgue analysis: lambda grows like (2/pi) log n
    dom = PiecewiseDomain(Interval(-1, 1), FUNCTIONS["f1"][1])
    chain = method_chain("graspa", dom, KAPPA)
    rise = (lebesgue_max(equispaced_nodes(699), chain, dom)
            - lebesgue_max(equispaced_nodes(163), chain, dom))
    assert abs(rise / (2 / np.pi * np.log(699 / 163)) - 1) <= 0.1


def _reference_lebesgue(s_nodes, s_points):
    """First-form Lebesgue function |l(s)| sum_j |w_j| / |s - s_j| in 40 digits;
    every term is positive, so nothing cancels."""
    sm, weights = _mp_weights(s_nodes, 40)
    with mpmath.workdps(40):
        out = []
        for x in map(mpmath.mpf, map(float, s_points)):
            ell = abs(mpmath.fprod(x - sj for sj in sm))
            out.append(float(ell * mpmath.fsum(abs(w) / abs(x - sj)
                                               for w, sj in zip(weights, sm))))
    return np.array(out)


@pytest.mark.filterwarnings("error")
def test_property_scan_of_configs_whose_capacity_products_leave_the_range():
    # random sgibbs and graspa configs: 1-3 cuts, half of them placed so the
    # per-subinterval counts are balanced, kappa log-uniform in [0.1, 1e6], n
    # in [60, 300].  Where the capacity-scaled products leave the normal
    # range, lambda is either a typed error or within 4 (n+1) u lambda of a
    # 40-digit first-form value; some of them must come back as values.
    rng = np.random.default_rng(3)
    counts = {"in range": 0, "raised": 0, "right": 0}
    for _ in range(120):
        d, kappa = int(rng.integers(1, 4)), float(10 ** rng.uniform(-1, 6))
        n, method = int(rng.integers(60, 301)), ("sgibbs", "graspa")[rng.integers(0, 2)]
        if rng.integers(0, 2):  # each cut in the gap after its node
            ends = np.round(np.arange(1, d + 1) * (n + 1) / (d + 1)) - 1
            cuts = tuple(-1.0 + 2.0 / n * (ends + rng.uniform(0.05, 0.95, d)))
        else:
            cuts = tuple(np.sort(rng.uniform(-0.95, 0.95, d)))
        x = rng.uniform(-1, 1, 3)
        chain = named_chain(method, PiecewiseDomain(Interval(-1, 1), cuts), kappa)
        nodes = equispaced_nodes(n)
        s = np.sort(_node_images(nodes.nodes, chain)[0])
        if not _leaves_normal_range(_capacity_product(s)):
            counts["in range"] += 1
            continue
        try:
            lam = lebesgue_function(nodes, chain, x)
        except EvaluationError:
            counts["raised"] += 1
            continue
        ref = _reference_lebesgue(s, chain(x))
        assert np.all(np.abs(lam - ref) <= 4 * (n + 1) * U * ref * ref), (method, n, cuts,
                                                                         kappa)
        counts["right"] += 1
    assert counts["right"] >= 4, counts


# --- one matrix product per block, and the first form on lost rows -------------

# the interpolants of the benchmark's interp_stream workload
STREAM_INTERPOLANTS = (
    ("f1", "graspa", (23, 81, 161)), ("f1", "sgibbs", (23, 81, 155)),
    ("f1", "classical", (23, 41, 57)), ("f2", "graspa", (23, 81, 161)),
    ("f2", "sgibbs", (23, 81, 121)), ("f2", "classical", (23, 41, 57)),
)


def _fit(function, method, n):
    nodes, chain, _ = _mapped(function, method, n)
    return build_interpolant(nodes, FUNCTIONS[function][0](nodes.nodes), chain)


def _reference_errors(interp, x, got, digits, stored=False):
    """(|got - p|, lambda, |p|) as float arrays at the points x, none of them
    a node, over the interpolant's float nodes and values, in the given
    digits.  With the true weights w_j = 1 / prod_{k != j} (s_j - s_k), p and
    lambda are the first form l(s) sum_j w_j f_j / (s - s_j) and
    |l(s)| sum_j |w_j| / |s - s_j|.  With ``stored``, the interpolant's own
    float weights are taken exactly, and p and lambda are their quotient
    sums, as in the benchmark's oracle."""
    if stored:
        sm, weights = ([mpmath.mpf(float(v)) for v in a]
                       for a in (interp.mapped_nodes, interp.weights))
    else:
        sm, weights = _mp_weights(interp.mapped_nodes, digits)
    rows = []
    with mpmath.workdps(digits):
        fm = [mpmath.mpf(float(v)) for v in interp.values]
        for si, gi in zip(map(float, interp.chain(x)), got):
            t = [w / (si - sj) for w, sj in zip(weights, sm)]
            scale = 1 / mpmath.fsum(t) if stored else mpmath.fprod(si - sj for sj in sm)
            p = scale * mpmath.fsum(tj * fj for tj, fj in zip(t, fm))
            lam = abs(scale) * mpmath.fsum(abs(tj) for tj in t)
            rows.append((float(abs(mpmath.mpf(float(gi)) - p)), float(lam), float(abs(p))))
    return np.array(rows).T


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("function, method, n",
                         [(f, m, n) for f, m, ns in STREAM_INTERPOLANTS for n in ns])
def test_stream_interpolants_within_highams_bound(function, method, n):
    # seeded random points, and points on both sides of every cut.  The
    # reference takes the stored weights exactly: at f1 graspa 161 and f1
    # sgibbs 155 a partial weight product passes through the subnormal range,
    # so those weights are off the true ones by about 1e-9 relative before
    # any evaluation starts
    interp = _fit(function, method, n)
    x = np.concatenate([np.random.default_rng(n).uniform(-1, 1, 8),
                        [c + d for c in FUNCTIONS[function][1]
                         for d in (-1e-3, -1e-9, 1e-9, 1e-3)]])
    err, lam, p = _reference_errors(interp, x, interp(x), 50, stored=True)
    bound = (4 * n + 4) * U * lam * (np.abs(interp.values).max() + p)
    assert np.all(err <= bound), x[err > bound]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("function, method, n", [("f2", "sgibbs", 111),
                                                 ("f2", "graspa", 171)])
def test_cancelled_rows_are_finished_in_the_first_form(function, method, n, monkeypatch):
    # on the 332-point grid some quotient denominators cancel to an exact 0:
    # those rows are taken in the first form, whose forward error is at most
    # (5n+5) u lambda(x) max|f| (Higham, IMA J. Numer. Anal. 2004); the other
    # rows keep the second form's (4n+4) u lambda(x) (max|f| + |p(x)|)
    interp = _fit(function, method, n)
    finished = []
    first_form = interpolation._first_form

    def record(s, itp):
        finished.extend(s)
        return first_form(s, itp)

    monkeypatch.setattr(interpolation, "_first_form", record)
    x = np.linspace(-1, 1, 332)
    x = x[~np.isin(interp.chain(x), interp.mapped_nodes)]
    got = interp(x)
    on_first = np.isin(interp.chain(x), finished)
    assert on_first.any()
    err, lam, p = _reference_errors(interp, x, got, 60)
    fmax = np.abs(interp.values).max()
    assert np.all(err[on_first] <= (5 * n + 5) * U * lam[on_first] * fmax)
    rest = ~on_first
    assert np.all(err[rest] <= (4 * n + 4) * U * lam[rest] * (fmax + p[rest]))


@pytest.mark.filterwarnings("error")
def test_first_form_memory_does_not_grow_with_its_rows(monkeypatch):
    # 200001 points, 1983 of them on the first form: the unblocked differences,
    # mantissas and reciprocals of those rows took the evaluation to 10.2 MB;
    # a block at a time it stays near the evaluator's own floor (3.1 MB since
    # the results overwrite the images, 5.4 MB before)
    interp = _fit("f2", "graspa", 171)
    x = np.linspace(-1, 1, 200001)
    interp(x)  # a first call may fill caches of its own
    tracemalloc.start()
    try:
        got = interp(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0e6
    finished = []
    first_form = interpolation._first_form

    def record(s, itp):
        finished.append(s)
        return first_form(s, itp)

    monkeypatch.setattr(interpolation, "_first_form", record)
    np.testing.assert_array_equal(interp(x), got)
    rows = np.flatnonzero(np.isin(interp.chain(x), np.concatenate(finished)))
    assert rows.size == 1983
    # every 16th row, and the rows either side of each block boundary of the
    # first form's pass, where node 0's row comes first
    block = _block_rows(len(interp))
    edges = np.arange(block, rows.size + 1, block) - 1
    picked = rows[np.union1d(np.arange(0, rows.size, 16), np.r_[edges - 1, edges])]
    err, lam, _ = _reference_errors(interp, x[picked], got[picked], 60)
    assert np.all(err <= (5 * 171 + 5) * U * lam * np.abs(interp.values).max())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("function, method, ceiling, failure", [
    ("f2", "graspa", 275, "weight products left the float range"),
    ("f2", "sgibbs", 267, "weight products left the float range"),
    ("f1", "classical", 699, None)])
def test_every_degree_evaluates_up_to_the_ceiling(function, method, ceiling, failure):
    # the benchmark's degree-ceiling scan: build, then evaluate on the
    # 332-point grid, at every odd degree from 11 on
    grid = np.linspace(-1, 1, 332)
    for n in range(11, ceiling + 1, 2):
        assert np.all(np.isfinite(_fit(function, method, n)(grid))), n
    if failure is not None:
        with pytest.raises(EvaluationError, match=failure):
            _fit(function, method, ceiling + 2)(grid)
