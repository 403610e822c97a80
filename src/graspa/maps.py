"""Injective maps on a partitioned interval, composable into chains.

Building blocks: per-subinterval affine reparameterizations, the
Kosloff-Tal-Ezer sine stretch ``M_a(x) = sin(a pi x / 2) / sin(a pi / 2)``,
the S-Gibbs shift that separates the subintervals by a large constant, their
piecewise conjugation (MKTE), and a node-correction map for the even
equispaced split.  The full GRASPA map is the shift composed with MKTE.

Each map is defined once, by its atom class, which checks its parameters
when built; :func:`kte`, :func:`sgibbs`, :func:`mkte` and
:func:`vn_correction` build the atom and call it.  A :class:`MapChain` is
plain data (a tuple of atoms applied left-to-right, empty for the identity)
so that experiment configurations can be serialized and logged; every atom
is injective on its declared domain.  :func:`named_chain` is the one table
from a map name (``CHAIN_NAMES``) to its atoms; the GRASPA helpers and the
experiment methods are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Interval, PiecewiseDomain
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


def _check_kappa(kappa: float) -> None:
    if not 0.0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")


def _unwrap(x, out: np.ndarray):
    return float(out) if np.ndim(x) == 0 else out


def affine_to_reference(x, sub: int, domain: PiecewiseDomain):
    """F_sub: subinterval sub -> [-1, 1], sending its endpoints to -1 and 1."""
    lo, hi = domain.subinterval_bounds(sub)
    xs = np.asarray(x, dtype=float)
    return _unwrap(x, 2.0 * (xs - lo) / (hi - lo) - 1.0)


def affine_from_reference(u, sub: int, domain: PiecewiseDomain):
    """G_sub, the inverse of :func:`affine_to_reference`."""
    lo, hi = domain.subinterval_bounds(sub)
    us = np.asarray(u, dtype=float)
    return _unwrap(u, lo + (hi - lo) * (us + 1.0) / 2.0)


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


@dataclass(frozen=True)
class KteMap:
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        # outside [-1, 1] the sine folds back and the map stops being
        # injective; NaN passes, for a chain's finiteness check to report
        if (xs < -1.0).any() or (xs > 1.0).any():
            raise ValueError("point outside the domain")
        return _unwrap(x, self._stretch(xs))

    def _stretch(self, xs):
        half = self.alpha * np.pi / 2.0
        return np.sin(half * xs) / np.sin(half)

    def to_dict(self) -> dict:
        return {"kind": "kte", "alpha": self.alpha}


class _Piecewise:
    """An atom on ``domain`` whose ``_apply(xs, idx)`` takes the subinterval index of xs."""

    keeps_subinterval = False  # True where every image stays in its point's subinterval

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        return _unwrap(x, self._apply(xs, self.domain.subinterval_index(xs)))


@dataclass(frozen=True)
class SGibbsMap(_Piecewise):
    kappa: float
    domain: PiecewiseDomain

    def __post_init__(self) -> None:
        _check_kappa(self.kappa)

    def _apply(self, xs, idx):
        # a shift past the float range is inf, which the chain reports as an
        # EvaluationError; no overflow warning comes first
        with np.errstate(over="ignore"):
            return xs + (idx - 1.0) * self.kappa

    def to_dict(self) -> dict:
        return {"kind": "sgibbs", "kappa": self.kappa, "domain": self.domain.to_dict()}


@dataclass(frozen=True)
class MkteMap(_Piecewise):
    alpha: float
    domain: PiecewiseDomain
    keeps_subinterval = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "_kte", KteMap(self.alpha))  # checks alpha

    def _apply(self, xs, idx):
        bp = np.asarray(self.domain.breakpoints)
        lo = bp[idx - 1]
        hi = bp[idx]
        u = 2.0 * (xs - lo) / (hi - lo) - 1.0
        # clipped to [-1, 1], so the stretch needs no bounds check
        v = self._kte._stretch(np.minimum(np.maximum(u, -1.0), 1.0))
        y = lo + (hi - lo) * (v + 1.0) / 2.0
        # Pin subinterval ends exactly, and keep every interior image strictly
        # inside its half-open source cell: the sine flattens quadratically at the
        # ends, and an image rounded onto the open left edge would flip the
        # piecewise dispatch of any shift applied next.
        y = np.where(u >= 1.0, hi,
                     np.where(u <= -1.0, lo, np.minimum(np.maximum(y, lo), hi)))
        stuck = (xs > lo) & (y <= lo)
        if stuck.any():
            y = np.where(stuck, np.nextafter(lo, hi), y)
        return y

    def to_dict(self) -> dict:
        return {"kind": "mkte", "alpha": self.alpha, "domain": self.domain.to_dict()}


@dataclass(frozen=True)
class VnMap(_Piecewise):
    n: int
    domain: PiecewiseDomain
    keeps_subinterval = True  # the right side maps (0, 1] into itself

    def __post_init__(self) -> None:
        n = self.n
        # a fraction or a bool names no degree; an integral float is stored as an int
        if isinstance(n, bool) or not float(n).is_integer() or n < 4 or n % 2 != 0:
            raise ValueError(f"the node correction needs even n >= 4, got {n}")
        object.__setattr__(self, "n", int(n))
        if self.domain != PiecewiseDomain(Interval(-1.0, 1.0), (0.0,)):
            raise ValueError("the node correction is defined on [-1, 1] "
                             "with a single cut at 0")

    def _apply(self, xs, idx):
        n = self.n
        knee = 2.0 / n
        right = np.where(xs <= knee, n * xs / (2.0 * (n - 1.0)), (n * xs - 1.0) / (n - 1.0))
        return np.where(idx == 1, xs, right)

    def to_dict(self) -> dict:
        return {"kind": "vn", "n": self.n, "domain": self.domain.to_dict()}


@dataclass(frozen=True)
class MapChain:
    """Composition of atomic maps, applied left-to-right; empty = identity.

    The subinterval index is handed on past the atoms that keep every point
    in its subinterval (MKTE, the node correction), so a GRASPA chain computes
    it once per call.  Any other map (KTE, or any callable on an array of
    points) may stand in the chain too; after it, the index is recomputed.
    """

    maps: tuple = ()

    def __call__(self, x):
        out = np.asarray(x, dtype=float)
        idx = domain = None  # the subinterval index of out in domain, while valid
        for m in self.maps:
            if not isinstance(m, _Piecewise):
                out, idx = np.asarray(m(out), dtype=float), None
                continue
            if idx is None or m.domain != domain:
                idx, domain = m.domain.subinterval_index(out), m.domain
            out = m._apply(out, idx)
            if not m.keeps_subinterval:
                idx = None
        if not np.isfinite(out).all():
            raise EvaluationError("map chain produced non-finite values")
        return _unwrap(x, out)

    def to_dict(self) -> dict:
        return {"maps": [m.to_dict() for m in self.maps]}

    @classmethod
    def from_dict(cls, data: dict) -> "MapChain":
        return cls(tuple(map_from_dict(d) for d in data["maps"]))


def map_from_dict(data: dict):
    """Rebuild an atomic map from its JSON descriptor."""
    kind = data["kind"]
    if kind == "kte":
        return KteMap(float(data.get("alpha", 1.0)))
    if kind not in ("sgibbs", "mkte", "vn"):
        raise ValueError(f"unknown map kind {kind!r}")
    dom = PiecewiseDomain.from_dict(data["domain"])
    if kind == "sgibbs":
        return SGibbsMap(float(data["kappa"]), dom)
    if kind == "mkte":
        return MkteMap(float(data.get("alpha", 1.0)), dom)
    return VnMap(data["n"], dom)


# name -> atoms(domain, kappa, alpha, n); GRASPA itself is defined at alpha = 1
_CHAINS = {
    "identity": lambda dom, kappa, alpha, n: (),
    "kte": lambda dom, kappa, alpha, n: (KteMap(alpha),),
    "mkte": lambda dom, kappa, alpha, n: (MkteMap(alpha, dom),),
    "sgibbs": lambda dom, kappa, alpha, n: (SGibbsMap(kappa, dom),),
    "graspa": lambda dom, kappa, alpha, n: (MkteMap(1.0, dom), SGibbsMap(kappa, dom)),
    "graspa+vn": lambda dom, kappa, alpha, n: (VnMap(n, dom), MkteMap(1.0, dom),
                                               SGibbsMap(kappa, dom)),
}
CHAIN_NAMES = tuple(_CHAINS)
# the chains whose stretch takes alpha; the others do not read it
_ALPHA_CHAINS = ("kte", "mkte")
# the chains that never read the domain's cuts
_CUTLESS_CHAINS = ("identity", "kte")
# the chains without the S-Gibbs shift; they never read kappa
_SHIFTLESS_CHAINS = ("identity", "kte", "mkte")


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
    if name == "graspa+vn" and n is None:
        raise ValueError("graspa+vn requires the degree n")
    return MapChain(_CHAINS[name](domain, kappa, alpha, n))


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
