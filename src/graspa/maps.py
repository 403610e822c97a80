"""Injective maps on a partitioned interval, composable into chains.

Building blocks: per-subinterval affine reparameterizations, the
Kosloff-Tal-Ezer sine stretch ``M_a(x) = sin(a pi x / 2) / sin(a pi / 2)``,
the S-Gibbs shift that separates the subintervals by a large constant, their
piecewise conjugation (MKTE), and a node-correction map for the even
equispaced split.  The full GRASPA map is the shift composed with MKTE.

Each map is defined once, by its atom class, which checks its parameters
when built, and applied by one code path, :class:`MapChain`: an atom called
alone, as by :func:`kte`, :func:`sgibbs`, :func:`mkte` and
:func:`vn_correction`, runs its one-atom chain.  So no map call returns inf
or NaN: a non-finite point raises ValueError, a non-finite image of finite
points EvaluationError.  A chain is plain data (a tuple of atoms applied
left-to-right, empty for the identity) so that experiment configurations can
be serialized and logged; every atom is injective on its declared domain.
:func:`named_chain` is the one table from a map name (``CHAIN_NAMES``) to
its atoms; the GRASPA helpers and the experiment methods are views of it.

A chain maps m points in chunks of ``_CHUNK`` points, each in place: its
first atom writes the chunk's images into that chunk of one new array of m
floats, and every later one overwrites it, reading each point before it
writes the point's image.  The caller's array is never written, and the
result is always a new array (the identity copies the points).  Beside the
result, a call holds one chunk's subinterval index, at most one scratch
array of floats and a few byte masks, O(chunk) memory, so the GRASPA chain
peaks near 8m bytes (about 1.2 * 8m at m = 10^5).  The evaluators behind it
write their results over the images (see ``interpolation``), so an
evaluation needs the m images and a 512 KiB block buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Interval, PiecewiseDomain, _descriptor, _integer, _number, _vector
from .exceptions import EvaluationError

__all__ = [
    "affine_to_reference",
    "affine_from_reference",
    "kte",
    "sgibbs",
    "mkte",
    "vn_correction",
    "graspa_map",
    "KteMap",
    "SGibbsMap",
    "MkteMap",
    "VnMap",
    "MapChain",
    "CHAIN_NAMES",
    "named_chain",
    "sgibbs_chain",
    "mkte_chain",
    "graspa_chain",
    "map_from_dict",
]


_CHUNK = 8192  # points per chunk of a MapChain call


def _kappa(value) -> float:
    """A shift kappa as a float, read by :func:`domain._number`; it must be
    positive and finite."""
    kappa = _number(value, "kappa")
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    return kappa


def _unwrap(x, out: np.ndarray):
    """The images out of the points x in the shape of x; a scalar x gives a float."""
    out = out.reshape(np.shape(x))
    return float(out) if out.ndim == 0 else out


def _finite_points(x) -> np.ndarray:
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("points must be finite")
    return xs


def affine_to_reference(x, sub: int, domain: PiecewiseDomain):
    """F_sub: subinterval sub -> [-1, 1], sending its endpoints to -1 and 1."""
    lo, hi = domain.subinterval_bounds(sub)
    return _unwrap(x, 2.0 * (_finite_points(x) - lo) / (hi - lo) - 1.0)


def affine_from_reference(u, sub: int, domain: PiecewiseDomain):
    """G_sub, the inverse of :func:`affine_to_reference`."""
    lo, hi = domain.subinterval_bounds(sub)
    return _unwrap(u, lo + (hi - lo) * (_finite_points(u) + 1.0) / 2.0)


def kte(alpha: float, x):
    """Kosloff-Tal-Ezer stretch on [-1, 1]: odd, strictly increasing, fixes +-1.

    At alpha = 1 it sends equispaced points to Chebyshev-Lobatto-type points.
    """
    return KteMap(alpha)(x)


def sgibbs(kappa: float, domain: PiecewiseDomain, x):
    """S-Gibbs shift: adds (tau - 1) kappa on subinterval tau.

    Strictly increasing for every finite kappa > 0, since x grows and the
    added shift never falls; the images of adjacent subintervals lie kappa
    apart at the cut (the left-closed membership rule sends the cut itself
    left).
    """
    return SGibbsMap(kappa, domain)(x)


def mkte(alpha: float, domain: PiecewiseDomain, x):
    """Piecewise KTE: G_i o M_alpha o F_i on each subinterval.

    Maps [a, b] onto itself; continuous, strictly increasing, and fixes a, b
    and every cut point.  Every point stays in its own subinterval.
    """
    return MkteMap(alpha, domain)(x)


def vn_correction(n: int, domain: PiecewiseDomain, x):
    """Node-correction map for the even equispaced split on [-1, 1], cut at 0.

    Identity left of the cut; on the right, a two-slope contraction that
    halves the gap between the cut and the first node while keeping 1 fixed.
    Only this fixed form is implemented: even n >= 4, domain [-1, 1] with a
    single cut at 0; no generalization to other cut layouts is attempted.
    """
    return VnMap(n, domain)(x)


class _Atom:
    """A map that :class:`MapChain` applies: ``_apply(xs, idx, out)`` writes the
    images of the 1-D points xs into out and returns it; out may be xs, so an
    atom reads each point before its image.  idx is the subinterval index of xs
    in the atom's ``domain``, for the atoms that have one (all but KTE)."""

    keeps_subinterval = False  # True where every image stays in its point's subinterval

    def __call__(self, x):
        return MapChain((self,))(x)


@dataclass(frozen=True)
class KteMap(_Atom):
    alpha: float = 1.0

    def __post_init__(self) -> None:
        alpha = _number(self.alpha, "alpha")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        object.__setattr__(self, "alpha", alpha)
        half = alpha * np.pi / 2.0  # the half-angle and its sine, once
        object.__setattr__(self, "_half", half)
        object.__setattr__(self, "_sine", np.sin(half))

    def _apply(self, xs, idx, out):
        # idx is unused.  Outside [-1, 1] the sine folds back and the map stops
        # being injective; NaN passes, for the chain's finiteness rule to report
        if (xs < -1.0).any() or (xs > 1.0).any():
            raise ValueError("point outside the domain")
        return self._stretch(xs, out)

    def _stretch(self, xs, out):
        """sin(alpha pi xs / 2) / sin(alpha pi / 2) of the 1-D xs, written into
        out, which may be xs."""
        np.multiply(xs, self._half, out=out)
        np.sin(out, out=out)
        out /= self._sine
        return out

    def to_dict(self) -> dict:
        return {"kind": "kte", "alpha": self.alpha}


@dataclass(frozen=True)
class SGibbsMap(_Atom):
    kappa: float
    domain: PiecewiseDomain

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", _kappa(self.kappa))
        # a shift past the float range is inf, which the chain reports as an
        # EvaluationError; no overflow warning comes first
        with np.errstate(over="ignore"):
            shifts = (np.arange(self.domain.n_subintervals + 1) - 1.0) * self.kappa
        object.__setattr__(self, "_shifts", shifts)  # (tau - 1) kappa at index tau

    def _apply(self, xs, idx, out):
        # the shifts are gathered into out itself, unless out is xs
        shift = self._shifts.take(idx, out=None if out is xs else out, mode="clip")
        with np.errstate(over="ignore"):
            return np.add(xs, shift, out=out)

    def to_dict(self) -> dict:
        return {"kind": "sgibbs", "kappa": self.kappa, "domain": self.domain.to_dict()}


@dataclass(frozen=True)
class MkteMap(_Atom):
    alpha: float
    domain: PiecewiseDomain
    keeps_subinterval = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "_kte", KteMap(self.alpha))  # reads and checks alpha
        object.__setattr__(self, "alpha", self._kte.alpha)
        # the ends lo, hi of subinterval tau at index tau (entry 0 is unused),
        # its half-width and the float just inside its open left end; a cell one
        # subnormal ulp wide halves to zero, so the half-width is kept nonzero
        hi = np.array(self.domain.breakpoints)
        lo = np.append(hi[0], hi[:-1])
        half = np.maximum((hi - lo) / 2.0, np.finfo(float).smallest_subnormal)
        object.__setattr__(self, "_ends", (lo, half, hi, np.nextafter(lo, hi)))

    def _apply(self, xs, idx, out):
        lo, half, hi, inside = self._ends
        t = lo.take(idx)  # the one per-point scratch array, refilled by take
        above = xs > t  # read before out, which may be xs, is written
        # u = (x - lo) / h - 1 with h = (hi - lo) / 2, clipped to [-1, 1], so
        # the stretch needs no bounds check; then lo + (M(u) + 1) h.  Halving a
        # normal width is exact, so these round as 2 (x - lo) / (hi - lo) and
        # (M(u) + 1)(hi - lo) / 2; a subnormal cell's image is clipped to it below
        np.subtract(xs, t, out=out)
        out /= half.take(idx, out=t, mode="clip")
        out -= 1.0
        top, bottom = out >= 1.0, out <= -1.0
        np.maximum(out, -1.0, out=out)
        np.minimum(out, 1.0, out=out)
        self._kte._stretch(out, out)
        out += 1.0
        out *= t
        out += lo.take(idx, out=t, mode="clip")
        # The pins keep mkte's contract: each end maps to itself, and every other
        # image lies strictly inside its point's half-open cell.  A chain's shift
        # reads each point's own cell index, so none of them serves its dispatch.
        # - the upper clamp: an image just left of hi can round above it, into
        #   the next cell;
        # - top: lo + (hi - lo) can round below hi, so hi would miss itself;
        # - stuck: the sine flattens quadratically at lo, so a point just right
        #   of lo would take lo's image, which belongs to the cell before or to
        #   the closed end (test_mkte_preserves_membership); the public sgibbs
        #   would then shift that image as the cell before's
        #   (test_chain_is_its_atoms_composed);
        # - the lower clamp and bottom change no bit while M(-1) is exactly -1
        #   and M(u) >= -1; they keep lo's image from depending on the sine
        #   being odd and monotone to the last bit.
        np.maximum(out, t, out=out)
        np.minimum(out, hi.take(idx, out=t, mode="clip"), out=out)
        np.copyto(out, t, where=top)
        np.copyto(out, lo.take(idx, out=t, mode="clip"), where=bottom)
        stuck = np.less_equal(out, t, out=top)
        stuck &= above
        if stuck.any():
            out[stuck] = inside[idx[stuck]]
        return out

    def to_dict(self) -> dict:
        return {"kind": "mkte", "alpha": self.alpha, "domain": self.domain.to_dict()}


@dataclass(frozen=True)
class VnMap(_Atom):
    n: int
    domain: PiecewiseDomain
    keeps_subinterval = True  # the right side maps (0, 1] into itself

    def __post_init__(self) -> None:
        # a fraction or a bool names no degree; an integral float is stored as an int
        n = _integer(self.n, "the node correction's degree")
        if n < 4 or n % 2 != 0:
            raise ValueError(f"the node correction needs even n >= 4, got {n}")
        object.__setattr__(self, "n", n)
        if self.domain != PiecewiseDomain(Interval(-1.0, 1.0), (0.0,)):
            raise ValueError("the node correction is defined on [-1, 1] "
                             "with a single cut at 0")

    def _apply(self, xs, idx, out):
        # the identity left of the cut; right of it n x / (2 (n - 1)) up to
        # the knee 2 / n, and (n x - 1) / (n - 1) past it
        n = self.n
        right = idx != 1
        flat = xs <= 2.0 / n
        flat &= right
        np.copyto(out, xs)  # a no-op where out is xs
        np.multiply(out, n, out=out, where=right)
        steep = np.logical_xor(right, flat, out=right)
        np.divide(out, 2.0 * (n - 1.0), out=out, where=flat)
        np.subtract(out, 1.0, out=out, where=steep)
        np.divide(out, n - 1.0, out=out, where=steep)
        return out

    def to_dict(self) -> dict:
        return {"kind": "vn", "n": self.n, "domain": self.domain.to_dict()}


@dataclass(frozen=True)
class MapChain:
    """Composition of atomic maps, applied left-to-right; empty = identity.

    The one applier of the atoms (an atom called alone runs its one-atom
    chain).  It maps its points ``_CHUNK`` at a time, each chunk's atoms
    writing into that chunk of the one result array, so beside the result a
    call holds O(chunk) memory.  The subinterval index is computed for the
    atoms that read a partition and handed on past those that keep every
    point in its subinterval (MKTE, the node correction), so a GRASPA chain
    computes it once per chunk.  Any callable on a 1-D array of points may
    stand in the chain too, provided it maps each point on its own: it runs
    once per chunk.  After it, the index is recomputed, and the next atom
    writes into the result, since the callable's output may be the caller's
    array.  The result is a new array, the identity's too, with the shape of
    x (a float for scalar x).  A non-finite image raises ValueError("points
    must be finite") if a point is non-finite (the atoms refuse +-inf first,
    as outside their domain), else EvaluationError.
    """

    maps: tuple = ()

    def __call__(self, x):
        points = np.asarray(x, dtype=float).ravel()
        out, finite = np.empty(points.size) if self.maps else points.copy(), True
        # every chunk runs, so an atom's error anywhere comes before this one
        for lo in range(0, points.size, _CHUNK):
            chunk = out[lo:lo + _CHUNK]
            if self.maps:
                self._map_chunk(points[lo:lo + _CHUNK], chunk)
            finite = finite and np.isfinite(chunk).all()
        if not finite:
            _finite_points(points)  # the caller's points, which no atom writes
            raise EvaluationError("map chain produced non-finite values")
        return _unwrap(x, out)

    def _map_chunk(self, xs, out):
        """Write the images of the 1-D points xs into out."""
        idx = domain = None  # the subinterval index of xs in domain, while valid
        for m in self.maps:
            if not isinstance(m, _Atom):
                xs, idx = np.asarray(m(xs), dtype=float).ravel(), None
                continue
            if hasattr(m, "domain") and (idx is None or (
                    m.domain is not domain and m.domain != domain)):
                idx, domain = m.domain.subinterval_index(xs), m.domain
            xs = m._apply(xs, idx, out)
            if not m.keeps_subinterval:
                idx = None
        if xs is not out:  # a chain that ends in a callable
            out[...] = xs

    def to_dict(self) -> dict:
        return {"maps": [m.to_dict() for m in self.maps]}

    @classmethod
    def from_dict(cls, data: dict) -> "MapChain":
        maps = _descriptor(data, "a map chain descriptor", "maps")["maps"]
        return cls(tuple(map_from_dict(d) for d in _vector(maps, "maps")))


# map kind -> the keys its descriptor must hold beside "kind"
_REQUIRED = {"kte": (), "sgibbs": ("domain", "kappa"), "mkte": ("domain",),
             "vn": ("domain", "n")}


def map_from_dict(data: dict):
    """Rebuild an atomic map from its JSON descriptor; a malformed one raises
    ValueError."""
    kind = _descriptor(data, "a map descriptor", "kind")["kind"]
    if not (isinstance(kind, str) and kind in _REQUIRED):
        raise ValueError(f"unknown map kind {kind!r}")
    _descriptor(data, f"the {kind} map descriptor", *_REQUIRED[kind])
    if kind == "kte":
        return KteMap(data.get("alpha", 1.0))
    dom = PiecewiseDomain.from_dict(data["domain"])
    if kind == "sgibbs":
        return SGibbsMap(data["kappa"], dom)
    if kind == "mkte":
        return MkteMap(data.get("alpha", 1.0), dom)
    return VnMap(data["n"], dom)


# name -> (the parameters its atoms read, atoms(domain, kappa, alpha, n))
_CHAINS = {
    "identity": ((), lambda dom, kappa, alpha, n: ()),
    "kte": (("alpha",), lambda dom, kappa, alpha, n: (KteMap(alpha),)),
    "mkte": (("alpha", "cuts"), lambda dom, kappa, alpha, n: (MkteMap(alpha, dom),)),
    "sgibbs": (("cuts", "kappa"), lambda dom, kappa, alpha, n: (SGibbsMap(kappa, dom),)),
    "graspa": (("cuts", "kappa"),
               lambda dom, kappa, alpha, n: (MkteMap(1.0, dom), SGibbsMap(kappa, dom))),
    "graspa+vn": (("cuts", "kappa", "n"),
                  lambda dom, kappa, alpha, n: (VnMap(n, dom), MkteMap(1.0, dom),
                                                SGibbsMap(kappa, dom))),
}
CHAIN_NAMES = tuple(_CHAINS)


def named_chain(name: str, domain: PiecewiseDomain, kappa: float, alpha: float = 1.0,
                n: int | None = None) -> MapChain:
    """Map chain by name: the identity, a single stretch or shift, or GRASPA.

    ``kappa`` is the S-Gibbs shift and ``alpha`` the stretch parameter of
    ``kte``/``mkte`` (the other chains do not read it; GRASPA fixes alpha =
    1); graspa+vn prepends the even-split node correction and needs the
    degree ``n``.
    """
    if name not in CHAIN_NAMES:
        raise ValueError(f"unknown map {name!r}; expected one of {CHAIN_NAMES}")
    reads, atoms = _CHAINS[name]
    if "n" in reads and n is None:
        raise ValueError(f"{name} requires the degree n")
    return MapChain(atoms(domain, kappa, alpha, n))


def sgibbs_chain(kappa: float, domain: PiecewiseDomain) -> MapChain:
    return named_chain("sgibbs", domain, kappa)


def mkte_chain(alpha: float, domain: PiecewiseDomain) -> MapChain:
    return named_chain("mkte", domain, None, alpha)


def graspa_chain(kappa: float, domain: PiecewiseDomain, with_vn: bool = False,
                 n: int | None = None) -> MapChain:
    """S-Gibbs shift after MKTE(1), optionally preceded by the node correction."""
    return named_chain("graspa+vn" if with_vn else "graspa", domain, kappa, n=n)


def graspa_map(kappa: float, domain: PiecewiseDomain, x, with_vn: bool = False,
               n: int | None = None):
    """GRASPA map of x: :func:`graspa_chain` applied to x.

    With ``with_vn`` the node-correction map is applied first (requires the
    degree ``n`` and the correction's supported domain).
    """
    return graspa_chain(kappa, domain, with_vn, n)(x)
