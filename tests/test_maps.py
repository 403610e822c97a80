import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from graspa import (
    CHAIN_NAMES,
    METHODS,
    EvaluationError,
    Interval,
    KteMap,
    MapChain,
    MkteMap,
    PiecewiseDomain,
    SGibbsMap,
    VnMap,
    affine_from_reference,
    affine_to_reference,
    bg_chebyshev_nodes,
    equispaced_nodes,
    graspa_chain,
    graspa_map,
    kte,
    map_from_dict,
    method_chain,
    mkte,
    mkte_chain,
    named_chain,
    partition_nodes,
    sgibbs,
    sgibbs_chain,
    vn_correction,
)
from graspa import maps
from graspa.maps import _CHAINS

DOM1 = PiecewiseDomain(Interval(-1, 1), (0.0,))
DOM3 = PiecewiseDomain(Interval(-1, 1), (-0.5, 0.0, 0.5))


def test_affine_endpoints_and_midpoint():
    for sub in (1, 2, 3, 4):
        lo, hi = DOM3.subinterval_bounds(sub)
        assert affine_to_reference(lo, sub, DOM3) == -1.0
        assert affine_to_reference(hi, sub, DOM3) == 1.0
        assert abs(affine_to_reference((lo + hi) / 2, sub, DOM3)) < 1e-15
        assert abs(affine_from_reference(-1.0, sub, DOM3) - lo) <= 2 * np.spacing(abs(lo) + 1)
        assert abs(affine_from_reference(1.0, sub, DOM3) - hi) <= 2 * np.spacing(abs(hi) + 1)
        assert abs(affine_from_reference(0.0, sub, DOM3) - (lo + hi) / 2) < 1e-15


@settings(max_examples=50, deadline=None)
@given(u=st.floats(-1.0, 1.0), sub=st.integers(1, 4))
def test_affine_roundtrip(u, sub):
    x = affine_from_reference(u, sub, DOM3)
    back = affine_to_reference(x, sub, DOM3)
    assert abs(back - u) <= 4 * np.spacing(1.0)


def test_kte_values():
    assert kte(1.0, 0.0) == 0.0
    assert kte(1.0, 1.0) == 1.0
    assert kte(1.0, -1.0) == -1.0
    assert_allclose(kte(1.0, 0.5), np.sqrt(2) / 2, atol=1e-15)


def test_kte_rejects_bad_alpha():
    for alpha in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            kte(alpha, 0.3)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1e-6, 1.0))
def test_kte_strictly_increasing(alpha):
    x = np.linspace(-1.0, 1.0, 20001)
    assert np.all(np.diff(kte(alpha, x)) > 0)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(1e-6, 1.0), x=st.floats(-1.0, 1.0))
def test_kte_odd_and_bounded(alpha, x):
    assert abs(kte(alpha, -x) + kte(alpha, x)) < 1e-15
    assert -1.0 <= kte(alpha, x) <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 100),
    beta=st.floats(0.0, 0.95),
    gamma=st.floats(0.0, 0.95),
)
def test_kte_maps_equispaced_to_bg_chebyshev(n, beta, gamma):
    nodes = equispaced_nodes(n, Interval(-1.0 + beta, 1.0 - gamma))
    assert_allclose(kte(1.0, nodes.nodes), bg_chebyshev_nodes(n, beta, gamma).nodes,
                    atol=1e-13)


def test_sgibbs_examples():
    assert sgibbs(10000.0, DOM1, -0.3) == -0.3
    assert sgibbs(10000.0, DOM1, 0.3) == 10000.3
    assert sgibbs(10000.0, DOM1, 0.0) == 0.0  # the cut belongs to the left side


def test_sgibbs_rejects_nonpositive_kappa():
    for kappa in (0.0, np.inf):
        with pytest.raises(ValueError):
            sgibbs(kappa, DOM1, 0.3)
        with pytest.raises(ValueError):
            SGibbsMap(kappa, DOM1)


def test_mkte_reduces_to_kte_without_cuts():
    dom = PiecewiseDomain(Interval(-1, 1))
    x = np.linspace(-1, 1, 41)
    assert_allclose(mkte(1.0, dom, x), kte(1.0, x), atol=1e-15)


def test_mkte_fixed_points_and_midpoint():
    assert mkte(1.0, DOM1, -0.5) == -0.5
    assert mkte(1.0, DOM1, 0.0) == 0.0
    assert mkte(1.0, DOM1, -1.0) == -1.0
    assert mkte(1.0, DOM1, 1.0) == 1.0
    for c in DOM3.cuts:
        assert mkte(1.0, DOM3, c) == c


def test_mkte_monotone_across_boundaries():
    x = np.linspace(-1, 1, 2001)
    y = mkte(1.0, DOM3, x)
    assert np.all(np.diff(y) > 0)


def test_mkte_preserves_membership():
    # images stay in the source subinterval even right next to the open edges
    for c in DOM3.cuts:
        x = np.nextafter(c, 2.0)
        y = mkte(1.0, DOM3, x)
        assert DOM3.subinterval_index(y) == DOM3.subinterval_index(x)


def test_mkte_matches_bg_chebyshev_per_side():
    # equispaced nodes, pushed through the stretch, land on the
    # (beta, gamma)-Chebyshev family induced by each side's offsets
    for n in (11, 23, 51):
        part = partition_nodes(equispaced_nodes(n), DOM1)
        m = part.cardinalities[0]
        u1 = kte(1.0, affine_to_reference(part.parts[0], 1, DOM1))
        u2 = kte(1.0, affine_to_reference(part.parts[1], 2, DOM1))
        assert_allclose(np.sort(u1), bg_chebyshev_nodes(m - 1, 0.0, 2.0 / n).nodes,
                        atol=1e-12)
        assert_allclose(np.sort(u2), bg_chebyshev_nodes(m - 1, 2.0 / n, 0.0).nodes,
                        atol=1e-12)


def test_vn_examples():
    assert vn_correction(10, DOM1, -0.5) == -0.5
    assert_allclose(vn_correction(10, DOM1, 0.2), 1.0 / 9.0, atol=1e-16)
    assert vn_correction(10, DOM1, 1.0) == 1.0


def test_vn_continuous_at_breakpoints():
    for n in (4, 8, 10, 32):
        knee = 2.0 / n
        left = n * knee / (2.0 * (n - 1.0))
        right = (n * knee - 1.0) / (n - 1.0)
        assert abs(left - right) < 1e-15
        assert abs(vn_correction(n, DOM1, 0.0)) == 0.0


def test_vn_piecewise_linear():
    n = 10
    for lo, hi in ((-1.0, 0.0), (0.0, 2.0 / n), (2.0 / n, 1.0)):
        x = np.linspace(lo, hi, 9)[1:-1]  # interior of each branch
        y = vn_correction(n, DOM1, x)
        assert np.max(np.abs(np.diff(y, 2))) < 1e-15


def test_vn_rejects_misuse():
    with pytest.raises(ValueError):
        vn_correction(9, DOM1, 0.1)  # odd n
    with pytest.raises(ValueError):
        vn_correction(2, DOM1, 0.1)  # too small
    with pytest.raises(ValueError):
        vn_correction(8, DOM3, 0.1)  # unsupported domain
    with pytest.raises(ValueError):
        vn_correction(8, PiecewiseDomain(Interval(-2, 1), (0.0,)), 0.1)
    with pytest.raises(ValueError):
        VnMap(7, DOM1)


def test_graspa_examples():
    assert graspa_map(10000.0, DOM1, 0.0) == 0.0
    assert graspa_map(10000.0, DOM1, 1.0) == 10001.0
    assert graspa_map(10000.0, DOM1, -1.0) == -1.0


def test_graspa_is_shift_of_mkte():
    x = np.linspace(-1, 1, 501)
    tau = DOM3.subinterval_index(x)
    expected = mkte(1.0, DOM3, x) + (tau - 1) * 10000.0
    assert_allclose(graspa_map(10000.0, DOM3, x), expected, rtol=0, atol=0)


def test_graspa_with_vn_requires_degree():
    with pytest.raises(ValueError):
        graspa_map(10000.0, DOM1, 0.5, with_vn=True)
    got = graspa_map(10000.0, DOM1, 0.5, with_vn=True, n=10)
    assert got == sgibbs(10000.0, DOM1, mkte(1.0, DOM1, vn_correction(10, DOM1, 0.5)))


def test_chain_applies_left_to_right():
    chain = graspa_chain(10000.0, DOM1)
    x = np.linspace(-1, 1, 101)
    assert_allclose(chain(x), graspa_map(10000.0, DOM1, x), atol=0)
    chain_vn = graspa_chain(10000.0, DOM1, with_vn=True, n=10)
    assert_allclose(chain_vn(x), graspa_map(10000.0, DOM1, x, with_vn=True, n=10),
                    atol=0)


@st.composite
def _domain_and_points(draw, vn):
    """A domain with 0-3 cuts (the node correction's own for vn), its ends,
    its cuts and their float neighbours, and random points inside it."""
    if vn:
        dom = DOM1
    else:
        a = draw(st.floats(-10.0, 10.0))
        b = a + draw(st.floats(0.01, 20.0))
        fracs = draw(st.lists(st.floats(0.001, 0.999), max_size=3, unique=True))
        cuts = tuple(sorted(a + f * (b - a) for f in fracs))
        assume(all(a < c < b for c in cuts) and len(set(cuts)) == len(cuts))
        dom = PiecewiseDomain(Interval(a, b), cuts)
    a, b = dom.interval.a, dom.interval.b
    special = [a, b, np.nextafter(a, b), np.nextafter(b, a)]
    for c in dom.cuts:
        special += [c, np.nextafter(c, a), np.nextafter(c, b)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.concatenate([special, rng.uniform(a, b, draw(st.integers(0, 40)))])
    return dom, np.array(special), np.minimum(np.maximum(x, a), b)


def _atom_by_atom(chain, x):
    for m in chain.maps:
        x = m(x)
    return x


def _same_bits(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("name", ["sgibbs", "mkte", "graspa", "graspa+vn"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), kappa=st.floats(1e-3, 1e300), alpha=st.floats(0.05, 1.0),
       n=st.integers(2, 100))
def test_chain_is_its_atoms_composed(name, data, kappa, alpha, n):
    # the chain hands the subinterval index from atom to atom; the result must
    # be the atoms' public maps applied one after another, bit for bit
    dom, special, x = data.draw(_domain_and_points(name == "graspa+vn"))
    chain = named_chain(name, dom, kappa, alpha, 2 * n)
    for v in special:
        _same_bits(chain(float(v)), _atom_by_atom(chain, float(v)))
    _same_bits(chain(x), _atom_by_atom(chain, x))
    x2 = x[: x.size // 2 * 2].reshape(2, -1)
    _same_bits(chain(x2), _atom_by_atom(chain, x2))
    a, b = dom.interval.a, dom.interval.b
    for outside in (np.nextafter(a, -np.inf), np.append(x, np.nextafter(b, np.inf))):
        with pytest.raises(ValueError, match="outside the domain"):
            chain(outside)


def _reference_images(chain, x):
    """The chain's images by each atom's formulas as whole-array expressions:
    the reference that the in-place atoms must match bit for bit."""
    xs = np.asarray(x, dtype=float)
    for m in chain.maps:
        if isinstance(m, KteMap):
            if (xs < -1.0).any() or (xs > 1.0).any():
                raise ValueError("point outside the domain")
            half = m.alpha * np.pi / 2.0
            xs = np.sin(half * xs) / np.sin(half)
            continue
        idx = np.full(xs.shape, m.domain.n_subintervals, dtype=np.intp)
        for c in m.domain.cuts:
            idx -= xs <= c
        if isinstance(m, SGibbsMap):
            with np.errstate(over="ignore"):
                xs = xs + (idx - 1.0) * m.kappa
        elif isinstance(m, MkteMap):
            bp = np.asarray(m.domain.breakpoints)
            lo, hi = bp[idx - 1], bp[idx]
            u = 2.0 * (xs - lo) / (hi - lo) - 1.0
            half = m.alpha * np.pi / 2.0
            v = np.sin(half * np.minimum(np.maximum(u, -1.0), 1.0)) / np.sin(half)
            y = lo + (hi - lo) * (v + 1.0) / 2.0
            y = np.where(u >= 1.0, hi,
                         np.where(u <= -1.0, lo, np.minimum(np.maximum(y, lo), hi)))
            stuck = (xs > lo) & (y <= lo)
            xs = np.where(stuck, np.nextafter(lo, hi), y)
        else:
            n = m.n
            right = np.where(xs <= 2.0 / n, n * xs / (2.0 * (n - 1.0)),
                             (n * xs - 1.0) / (n - 1.0))
            xs = np.where(idx == 1, xs, right)
    return float(xs) if np.ndim(x) == 0 else xs


TINY = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320)  # +-0 and subnormals


@st.composite
def _bit_cases(draw, vn):
    """A domain with 0-3 cuts (the node correction's own for vn), its ends and
    cuts with their float neighbours, +-0 and subnormals inside it, and uniform
    draws."""
    dom = DOM1 if vn else draw(st.sampled_from(
        (PiecewiseDomain(Interval(-1, 1)), DOM1, DOM3,
         PiecewiseDomain(Interval(0.0, 3.0), (1.0,)), None)))
    if dom is None:
        a = draw(st.floats(-10.0, 10.0))
        b = a + draw(st.floats(0.01, 20.0))
        cuts = draw(st.lists(st.floats(0.001, 0.999), max_size=3, unique=True))
        cuts = tuple(sorted(a + f * (b - a) for f in cuts))
        assume(all(a < c < b for c in cuts) and len(set(cuts)) == len(cuts))
        dom = PiecewiseDomain(Interval(a, b), cuts)
    a, b = dom.interval.a, dom.interval.b
    special = [a, b, np.nextafter(a, b), np.nextafter(b, a)]
    for c in dom.cuts:
        special += [c, np.nextafter(c, a), np.nextafter(c, b)]
    special += [v for v in TINY if a <= v <= b]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.concatenate([special, rng.uniform(a, b, draw(st.integers(0, 60)))])
    return dom, special, np.minimum(np.maximum(x, a), b)


def _same_outcome(chain, x):
    try:
        want = _reference_images(chain, x)
    except ValueError:
        with pytest.raises(ValueError):
            chain(x)
        return
    _same_bits(chain(x), want)


@pytest.mark.parametrize("name", CHAIN_NAMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data(), kappa=st.floats(0.1, 1e8),
       alpha=st.floats(0.0, 1.0, exclude_min=True), half_n=st.integers(2, 60))
def test_chain_keeps_the_bits_of_its_formulas(name, data, kappa, alpha, half_n):
    # every atom works in place, yet each image must be the one that the
    # whole-array formulas give, and the caller's array must stay as it was
    dom, special, x = data.draw(_bit_cases(name == "graspa+vn"))
    chain = named_chain(name, dom, kappa, alpha, 2 * half_n)
    for v in special:
        _same_outcome(chain, float(v))
    for pts in (x, x[: x.size // 2 * 2].reshape(2, -1)):
        kept = pts.copy()
        _same_outcome(chain, pts)
        assert pts.tobytes() == kept.tobytes()
        kept.setflags(write=False)
        _same_outcome(chain, kept)
        assert pts.tobytes() == kept.tobytes()


def test_chain_serialization_roundtrip():
    named = tuple(named_chain(name, DOM1, 250.0, alpha=0.7, n=8) for name in CHAIN_NAMES)
    for chain in (MapChain(), MapChain((KteMap(0.7),)), graspa_chain(250.0, DOM3),
                  graspa_chain(10000.0, DOM1, with_vn=True, n=8)) + named:
        again = MapChain.from_dict(chain.to_dict())
        assert again == chain
        x = np.linspace(-1, 1, 17)
        assert_allclose(again(x), chain(x), atol=0)


def test_map_from_dict_rejects_unknown_kind():
    for kind in ("nope", "identity", "affine_to_reference"):
        with pytest.raises(ValueError):
            map_from_dict({"kind": kind})


# atoms and descriptors read their numbers as the configs do: a number or a
# numeric string is stored as a float, anything else is a ValueError, and a
# descriptor that is not an object or lacks a key is a ValueError naming it
_F2 = DOM3.to_dict()
_TYPED_BUILDS = [
    ("kte-numeric-string", lambda: KteMap("0.5"), ("alpha", 0.5)),
    ("mkte-numeric-string", lambda: MkteMap("0.5", DOM1), ("alpha", 0.5)),
    ("sgibbs-numeric-string", lambda: SGibbsMap("5", DOM1), ("kappa", 5.0)),
    ("sgibbs-int", lambda: SGibbsMap(5, DOM1), ("kappa", 5.0)),
    ("kte-from-dict-int", lambda: map_from_dict({"kind": "kte", "alpha": 1}), ("alpha", 1.0)),
    ("named-sgibbs-string", lambda: named_chain("sgibbs", DOM1, "1e4").maps[0],
     ("kappa", 1e4)),
    ("kte-bool", lambda: KteMap(True), "alpha must be a number"),
    ("mkte-bool", lambda: MkteMap(True, DOM1), "alpha must be a number"),
    ("sgibbs-bool", lambda: SGibbsMap(True, DOM1), "kappa must be a number"),
    ("kte-word", lambda: KteMap("half"), "alpha must be a number"),
    ("sgibbs-none", lambda: SGibbsMap(None, DOM1), "kappa must be a number"),
    ("named-kte-bool", lambda: named_chain("kte", DOM1, 1e4, True), "alpha must be a number"),
    ("kte-from-dict-bool", lambda: map_from_dict({"kind": "kte", "alpha": True}),
     "alpha must be a number"),
    ("sgibbs-from-dict-bool",
     lambda: map_from_dict({"kind": "sgibbs", "kappa": True, "domain": _F2}),
     "kappa must be a number"),
    ("descriptor-without-kind", lambda: map_from_dict({"alpha": 1}),
     "a map descriptor has no 'kind'"),
    ("descriptor-a-list", lambda: map_from_dict(["kte"]), "a map descriptor must be an object"),
    ("descriptor-kind-a-list", lambda: map_from_dict({"kind": ["kte"]}), "unknown map kind"),
    ("sgibbs-without-kappa", lambda: map_from_dict({"kind": "sgibbs", "domain": _F2}),
     "the sgibbs map descriptor has no 'kappa'"),
    ("mkte-without-domain", lambda: map_from_dict({"kind": "mkte"}),
     "the mkte map descriptor has no 'domain'"),
    ("vn-without-n", lambda: map_from_dict({"kind": "vn", "domain": DOM1.to_dict()}),
     "the vn map descriptor has no 'n'"),
    ("chain-without-maps", lambda: MapChain.from_dict({"atoms": []}),
     "a map chain descriptor has no 'maps'"),
    ("chain-a-list", lambda: MapChain.from_dict([]), "a map chain descriptor must be an object"),
    ("chain-maps-an-object", lambda: MapChain.from_dict({"maps": {"kind": "kte"}}),
     "maps must be a flat list"),
    ("chain-maps-an-empty-object", lambda: MapChain.from_dict({"maps": {}}),
     "maps must be a flat list"),
    ("chain-maps-a-number", lambda: MapChain.from_dict({"maps": 5}),
     "maps must be a flat list"),
    ("domain-interval-a-number", lambda: PiecewiseDomain.from_dict({"interval": 5}),
     "interval must be a flat list"),
    ("domain-interval-of-three", lambda: PiecewiseDomain.from_dict({"interval": [-1, 1, 2]}),
     "interval must hold two numbers"),
    ("domain-cuts-a-number", lambda: PiecewiseDomain.from_dict({"interval": [-1, 1], "cuts": 0}),
     "cuts must be a flat list"),
    ("domain-cuts-a-string",
     lambda: PiecewiseDomain.from_dict({"interval": [-1, 1], "cuts": "0"}),
     "cuts must be a flat list"),
    ("domain-built-with-cuts-a-number", lambda: PiecewiseDomain(Interval(-1, 1), 0.5),
     "cuts must be a flat list"),
    ("domain-built-with-cuts-a-string", lambda: PiecewiseDomain(Interval(-1, 1), "0"),
     "cuts must be a flat list"),
    ("domain-built-with-cuts-a-mapping", lambda: PiecewiseDomain(Interval(-1, 1), {0.0: 1}),
     "cuts must be a flat list"),
    ("domain-built-with-interval-a-tuple", lambda: PiecewiseDomain((-1, 1), (0,)),
     "interval must be an Interval"),
    ("equispaced-interval-a-tuple", lambda: equispaced_nodes(5, (-1, 1)),
     "interval must be an Interval"),
    ("domain-without-interval", lambda: PiecewiseDomain.from_dict({"cuts": [0.0]}),
     "a domain descriptor has no 'interval'"),
    ("domain-a-string", lambda: PiecewiseDomain.from_dict("[-1, 1]"),
     "a domain descriptor must be an object"),
    ("sgibbs-descriptor-domain-without-interval",
     lambda: map_from_dict({"kind": "sgibbs", "kappa": 1.0, "domain": {}}),
     "a domain descriptor has no 'interval'"),
]


@pytest.mark.parametrize("build, want", [case[1:] for case in _TYPED_BUILDS],
                         ids=[case[0] for case in _TYPED_BUILDS])
def test_atoms_and_descriptors_read_typed_values(build, want):
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            build()
        return
    atom = build()
    field, value = want
    stored = getattr(atom, field)
    assert type(stored) is float and stored == value
    assert type(atom.to_dict()[field]) is float
    assert map_from_dict(json.loads(json.dumps(atom.to_dict()))) == atom


def test_named_chain_table():
    assert CHAIN_NAMES == ("identity", "kte", "mkte", "sgibbs", "graspa", "graspa+vn")
    with pytest.raises(ValueError):
        named_chain("graspa+vn", DOM1, 1e4)  # needs the degree
    with pytest.raises(ValueError):
        named_chain("classical", DOM1, 1e4)  # a method name, not a map name
    # the methods and the older helpers are views of the same table
    for m in METHODS:
        name = "identity" if m == "classical" else m
        assert (method_chain(m, DOM1, 1e4, 8).to_dict()
                == named_chain(name, DOM1, 1e4, n=8).to_dict())
    assert named_chain("identity", DOM1, 1e4) == MapChain()
    assert sgibbs_chain(1e4, DOM3) == named_chain("sgibbs", DOM3, 1e4)
    assert mkte_chain(0.7, DOM3) == named_chain("mkte", DOM3, 1e4, alpha=0.7)
    assert graspa_chain(1e4, DOM3) == named_chain("graspa", DOM3, 1e4)
    assert (graspa_chain(1e4, DOM1, with_vn=True, n=8)
            == named_chain("graspa+vn", DOM1, 1e4, n=8))
    with pytest.raises(ValueError):
        method_chain("resample", DOM1, 1e4)


def test_only_the_alpha_chains_read_alpha():
    # the CLI refuses --alpha != 1 where the chain does not list alpha, so the
    # table's list and its atoms must agree
    for name in CHAIN_NAMES:
        moved = (named_chain(name, DOM1, 1e4, alpha=0.5, n=8)
                 != named_chain(name, DOM1, 1e4, alpha=1.0, n=8))
        assert moved == ("alpha" in _CHAINS[name][0]), name


def test_only_the_shifting_chains_read_kappa():
    # the CLI refuses --kappa where the chain does not list kappa, so the
    # table's list and its atoms must agree
    for name in CHAIN_NAMES:
        moved = named_chain(name, DOM1, 5.0, n=8) != named_chain(name, DOM1, 1e4, n=8)
        assert moved == ("kappa" in _CHAINS[name][0]), name


def test_only_the_listed_chains_read_cuts_and_n():
    # likewise for --cuts and --n; a chain that refuses a domain or a degree
    # reads it too
    def build(name, domain, n):
        try:
            return named_chain(name, domain, 1e4, n=n)
        except ValueError as exc:
            return str(exc)

    for name in CHAIN_NAMES:
        reads = _CHAINS[name][0]
        assert set(reads) <= {"alpha", "cuts", "kappa", "n"}, name
        assert (build(name, DOM1, 8) != build(name, DOM3, 8)) == ("cuts" in reads), name
        assert (build(name, DOM1, 8) != build(name, DOM1, None)) == ("n" in reads), name


def test_vn_degree_must_be_an_integer():
    # one atom, one answer: the atom alone and inside a chain read the same n
    for n in (8.0, np.int64(8), np.float64(8.0)):
        atom = VnMap(n, DOM1)
        assert atom.n == 8 and type(atom.n) is int
        assert atom == VnMap(8, DOM1)
        assert atom(0.2) == MapChain((atom,))(0.2) == vn_correction(8, DOM1, 0.2)
    for n in (8.5, 8.9, True, np.nan, np.inf):
        with pytest.raises(ValueError):
            VnMap(n, DOM1)
        with pytest.raises(ValueError):
            vn_correction(n, DOM1, 0.2)
        with pytest.raises(ValueError):
            named_chain("graspa+vn", DOM1, 1e4, n=n)
        with pytest.raises(ValueError):
            map_from_dict({"kind": "vn", "n": n, "domain": DOM1.to_dict()})


def test_kte_refuses_points_outside_its_domain():
    # outside [-1, 1] the sine folds back: 0.5 and 1.5 would share an image
    for x in (1.5, -1.0000000000000002, np.array([0.0, 3.0]), np.array([[0.2], [-2.0]])):
        with pytest.raises(ValueError, match="outside the domain"):
            kte(1.0, x)
        with pytest.raises(ValueError, match="outside the domain"):
            named_chain("kte", DOM1, 1e4)(x)
    with pytest.raises(ValueError, match="points must be finite"):
        kte(1.0, np.nan)
    with pytest.raises(ValueError, match="points must be finite"):
        named_chain("kte", DOM1, 1e4)(np.array([0.0, np.nan]))
    # MKTE clips the reference coordinate itself, on any interval
    dom = PiecewiseDomain(Interval(0.0, 3.0), (1.0,))
    assert mkte(1.0, dom, 3.0) == 3.0 and mkte(1.0, dom, 0.0) == 0.0


@pytest.mark.parametrize("name", ["graspa", "graspa+vn"])
def test_graspa_chain_maps_each_subinterval_once(monkeypatch, name):
    calls = []
    index = PiecewiseDomain.subinterval_index

    def counting(self, x):
        calls.append(1)
        return index(self, x)

    chain = named_chain(name, DOM1, 1e4, n=8)
    monkeypatch.setattr(PiecewiseDomain, "subinterval_index", counting)
    for x in (0.3, np.linspace(-1, 1, 33), np.linspace(-1, 1, 32).reshape(4, 8)):
        calls.clear()
        chain(x)
        assert len(calls) == 1


def test_every_named_chain_roundtrips_through_json():
    for dom in (DOM1, DOM3):
        for name in CHAIN_NAMES:
            if name == "graspa+vn" and dom is DOM3:
                continue  # the node correction has only the single-cut form
            chain = named_chain(name, dom, 250.0, alpha=0.7, n=8)
            text = json.dumps(chain.to_dict())
            again = MapChain.from_dict(json.loads(text))
            assert again == chain
            assert json.dumps(again.to_dict()) == text
            x = np.linspace(-1, 1, 17)
            assert again(x).tobytes() == chain(x).tobytes()


# Every public map entry, as f(kappa, points) on f2's cuts (DOM3) or, for the
# node correction, on its one domain; kappa is read by the shifting entries.
MAP_ENTRIES = {
    "KteMap": lambda kappa, x: KteMap(0.5)(x),
    "SGibbsMap": lambda kappa, x: SGibbsMap(kappa, DOM3)(x),
    "MkteMap": lambda kappa, x: MkteMap(0.5, DOM3)(x),
    "VnMap": lambda kappa, x: VnMap(8, DOM1)(x),
    "kte": lambda kappa, x: kte(0.5, x),
    "sgibbs": lambda kappa, x: sgibbs(kappa, DOM3, x),
    "mkte": lambda kappa, x: mkte(0.5, DOM3, x),
    "vn_correction": lambda kappa, x: vn_correction(8, DOM1, x),
    "graspa_map": lambda kappa, x: graspa_map(kappa, DOM3, x),
    "MapChain()": lambda kappa, x: MapChain()(x),
    **{f"named_chain:{name}": (lambda kappa, x, name=name: named_chain(
        name, DOM1 if name == "graspa+vn" else DOM3, kappa, 0.5, n=8)(x))
       for name in CHAIN_NAMES},
}
# the entries that shift by (tau - 1) kappa on DOM3, where 3e308 is past the float range
SHIFTING = {"SGibbsMap", "sgibbs", "graspa_map", "named_chain:sgibbs", "named_chain:graspa"}


@pytest.mark.parametrize("entry", MAP_ENTRIES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_map_entry_refuses_a_non_finite_point(entry, bad):
    # NaN is "points must be finite"; an atom refuses +-inf before that, as a
    # point outside its domain
    match = "points must be finite" if np.isnan(bad) or entry == "MapChain()" else None
    for x in (bad, [0.3, bad], np.array([[bad], [0.3]])):
        with pytest.raises(ValueError, match=match):
            MAP_ENTRIES[entry](1e4, x)


@pytest.mark.parametrize("entry", MAP_ENTRIES)
def test_every_map_entry_reports_an_image_past_the_float_range(entry):
    if entry not in SHIFTING:
        assert np.isfinite(MAP_ENTRIES[entry](1e308, [0.9, -1.0, 1.0])).all()
        return
    with pytest.raises(EvaluationError, match="non-finite"):
        MAP_ENTRIES[entry](1e308, [-0.3, 0.9])
    assert MAP_ENTRIES[entry](1e308, -0.3) < np.inf  # finite where no shift overflows


@pytest.mark.parametrize("entry", MAP_ENTRIES)
def test_every_map_entry_runs_the_chain_once(monkeypatch, entry):
    calls = []
    chain_call = vars(MapChain)["__call__"]

    def counting(self, x):
        calls.append(self)
        return chain_call(self, x)

    monkeypatch.setattr(MapChain, "__call__", counting)
    MAP_ENTRIES[entry](1e4, np.linspace(-1.0, 1.0, 9))
    assert len(calls) == 1


def test_kte_in_a_chain_keeps_the_bits_of_its_formula():
    x = np.linspace(-1.0, 1.0, 101)
    half = 0.7 * np.pi / 2.0
    expected = np.sin(x * half) / np.sin(half)
    for images in (kte(0.7, x), KteMap(0.7)(x), MapChain((KteMap(0.7),))(x)):
        assert images.tobytes() == expected.tobytes()
    # after an in-place atom, the stretch overwrites the chain's own array
    pre = MkteMap(0.5, DOM3)(x)
    chained = MapChain((MkteMap(0.5, DOM3), KteMap(0.7)))(x)
    assert chained.tobytes() == (np.sin(pre * half) / np.sin(half)).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_affine_helpers_refuse_non_finite_points(bad):
    for helper in (affine_to_reference, affine_from_reference):
        for x in (bad, [0.0, bad]):
            with pytest.raises(ValueError, match="points must be finite"):
                helper(x, 2, DOM3)


def _cube(x):
    """A callable that maps each point on its own and keeps [-1, 1]."""
    return np.asarray(x) ** 3


CHUNK = maps._CHUNK
# chains through which chunked calls must give the bits of one-point calls
CHUNKED_CHAINS = {
    "graspa": named_chain("graspa", DOM3, 1e4),
    "sgibbs": named_chain("sgibbs", DOM3, 1e4),
    "graspa+vn": named_chain("graspa+vn", DOM1, 1e4, n=8),
    "kte": named_chain("kte", DOM3, None, 0.7),
    "callable": MapChain((MkteMap(1.0, DOM3), _cube, SGibbsMap(1e4, DOM3))),
    "callable alone": MapChain((_cube,)),
    "identity": MapChain(),
}


@pytest.mark.parametrize("name", CHUNKED_CHAINS)
def test_chunked_chains_keep_the_bits_of_one_point_calls(name):
    # chunk - 1, chunk, chunk + 1 and 3 chunk + 1 points: each call's images
    # are the first images of the longest call, and those of one-point calls
    # at every chunk's ends and at every 97th point; every result is a new
    # array, the identity's too
    chain = CHUNKED_CHAINS[name]
    x = np.random.default_rng(29).uniform(-1, 1, 3 * CHUNK + 1)
    x[::1000] = np.array([-1.0, -0.5, 0.0, 0.5, 1.0] * 5)[:x[::1000].size]
    kept = x.copy()
    images = chain(x)
    assert x.tobytes() == kept.tobytes() and not np.may_share_memory(images, x)
    ends = (np.arange(CHUNK, x.size, CHUNK)[:, None] + np.arange(-2, 2)).ravel()
    for i in np.union1d(ends[ends < x.size], np.arange(0, x.size, 97)):
        assert images[i].tobytes() == np.float64(chain(float(x[i]))).tobytes()
    for m in (CHUNK - 1, CHUNK, CHUNK + 1):
        assert chain(x[:m]).tobytes() == images[:m].tobytes()
    assert chain(x.reshape(1, -1)).tobytes() == images.tobytes()


def test_a_chunked_call_raises_as_a_whole_call_does():
    # a point outside the domain in the last chunk is a ValueError even where
    # an earlier chunk's images leave the float range; a non-finite point
    # anywhere is "points must be finite"
    chain = named_chain("graspa", DOM3, 1e308)
    x = np.full(2 * CHUNK + 1, 0.9)
    with pytest.raises(EvaluationError, match="non-finite"):
        chain(x)
    x[-1] = 2.0
    with pytest.raises(ValueError, match="outside the domain"):
        chain(x)
    x[-1] = np.nan
    with pytest.raises(ValueError, match="points must be finite"):
        chain(x)
