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
from graspa.maps import _ALPHA_CHAINS, _SHIFTLESS_CHAINS

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
    # the CLI refuses --alpha != 1 outside _ALPHA_CHAINS, so the table and
    # the list must agree
    assert set(_ALPHA_CHAINS) <= set(CHAIN_NAMES)
    for name in CHAIN_NAMES:
        moved = (named_chain(name, DOM1, 1e4, alpha=0.5, n=8)
                 != named_chain(name, DOM1, 1e4, alpha=1.0, n=8))
        assert moved == (name in _ALPHA_CHAINS), name


def test_only_the_shifting_chains_read_kappa():
    # the CLI refuses --kappa outside the shifting chains, so the table and
    # the list must agree
    assert set(_SHIFTLESS_CHAINS) <= set(CHAIN_NAMES)
    for name in CHAIN_NAMES:
        moved = named_chain(name, DOM1, 5.0, n=8) != named_chain(name, DOM1, 1e4, n=8)
        assert moved == (name not in _SHIFTLESS_CHAINS), name


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
    assert np.isnan(kte(1.0, np.nan))
    with pytest.raises(EvaluationError):
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
