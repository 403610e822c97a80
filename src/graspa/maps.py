"""Injective maps on a partitioned interval, composable into chains.

Building blocks: per-subinterval affine reparameterizations, the
Kosloff-Tal-Ezer sine stretch ``M_a(x) = sin(a pi x / 2) / sin(a pi / 2)``,
the S-Gibbs shift that separates the subintervals by a large constant, their
piecewise conjugation (MKTE), and a node-correction map for the even
equispaced split.  The full GRASPA map is the shift composed with MKTE.

A :class:`MapChain` is plain data (a tuple of atomic maps applied
left-to-right, empty for the identity) so that experiment configurations can
be serialized and logged; every atom is injective on its declared domain.
:func:`named_chain` is the one table from a map name (``CHAIN_NAMES``) to
its atoms; the GRASPA helpers and the experiment methods are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import PiecewiseDomain
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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


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
    _check_alpha(alpha)
    xs = np.asarray(x, dtype=float)
    half = alpha * np.pi / 2.0
    return _unwrap(x, np.sin(half * xs) / np.sin(half))


def sgibbs(kappa: float, domain: PiecewiseDomain, x):
    """S-Gibbs shift: adds (tau - 1) kappa on subinterval tau.

    Strictly increasing for every finite kappa > 0, since x grows and the
    added shift never falls; the images of adjacent subintervals lie kappa
    apart at the cut (the left-closed membership rule sends the cut itself
    left).
    """
    _check_kappa(kappa)
    xs = np.asarray(x, dtype=float)
    tau = np.asarray(domain.subinterval_index(xs), dtype=float)
    return _unwrap(x, xs + (tau - 1.0) * kappa)


def mkte(alpha: float, domain: PiecewiseDomain, x):
    """Piecewise KTE: G_i o M_alpha o F_i on each subinterval.

    Maps [a, b] onto itself; continuous, strictly increasing, and fixes a, b
    and every cut point.
    """
    _check_alpha(alpha)
    xs = np.asarray(x, dtype=float)
    idx = np.asarray(domain.subinterval_index(xs))
    bp = np.asarray(domain.breakpoints)
    lo = bp[idx - 1]
    hi = bp[idx]
    u = 2.0 * (xs - lo) / (hi - lo) - 1.0
    v = kte(alpha, np.clip(u, -1.0, 1.0))
    y = lo + (hi - lo) * (np.asarray(v) + 1.0) / 2.0
    # Pin subinterval ends exactly, and keep every interior image strictly
    # inside its half-open source cell: the sine flattens quadratically at the
    # ends, and an image rounded onto the open left edge would flip the
    # piecewise dispatch of any shift applied next.
    y = np.where(u >= 1.0, hi, np.where(u <= -1.0, lo, np.clip(y, lo, hi)))
    stuck = (xs > lo) & (y <= lo)
    if np.any(stuck):
        y = np.where(stuck, np.nextafter(lo, hi), y)
    return _unwrap(x, y)


def vn_correction(n: int, domain: PiecewiseDomain, x):
    """Node-correction map for the even equispaced split on [-1, 1], cut at 0.

    Identity left of the cut; on the right, a two-slope contraction that
    halves the gap between the cut and the first node while keeping 1 fixed.
    Only this fixed form is implemented: even n >= 4, domain [-1, 1] with a
    single cut at 0; no generalization to other cut layouts is attempted.
    """
    n = int(n)
    if n < 4 or n % 2 != 0:
        raise ValueError(f"the node correction needs even n >= 4, got {n}")
    if domain.cuts != (0.0,) or (domain.interval.a, domain.interval.b) != (-1.0, 1.0):
        raise ValueError("the node correction is defined on [-1, 1] with a single cut at 0")
    xs = np.asarray(x, dtype=float)
    if np.any(xs < -1.0) or np.any(xs > 1.0):
        raise ValueError("point outside the domain")
    knee = 2.0 / n
    out = np.where(
        xs <= 0.0,
        xs,
        np.where(xs <= knee, n * xs / (2.0 * (n - 1.0)), (n * xs - 1.0) / (n - 1.0)),
    )
    return _unwrap(x, out)


# ---------------------------------------------------------------------------
# Atomic maps as data, and their composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KteMap:
    alpha: float = 1.0

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)

    def __call__(self, x):
        return kte(self.alpha, x)

    def to_dict(self) -> dict:
        return {"kind": "kte", "alpha": self.alpha}


@dataclass(frozen=True)
class SGibbsMap:
    kappa: float
    domain: PiecewiseDomain

    def __post_init__(self) -> None:
        _check_kappa(self.kappa)

    def __call__(self, x):
        return sgibbs(self.kappa, self.domain, x)

    def to_dict(self) -> dict:
        return {"kind": "sgibbs", "kappa": self.kappa, "domain": self.domain.to_dict()}


@dataclass(frozen=True)
class MkteMap:
    alpha: float
    domain: PiecewiseDomain

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)

    def __call__(self, x):
        return mkte(self.alpha, self.domain, x)

    def to_dict(self) -> dict:
        return {"kind": "mkte", "alpha": self.alpha, "domain": self.domain.to_dict()}


@dataclass(frozen=True)
class VnMap:
    n: int
    domain: PiecewiseDomain

    def __post_init__(self) -> None:
        vn_correction(self.n, self.domain, 0.0)  # validates n and the domain shape

    def __call__(self, x):
        return vn_correction(self.n, self.domain, x)

    def to_dict(self) -> dict:
        return {"kind": "vn", "n": self.n, "domain": self.domain.to_dict()}


@dataclass(frozen=True)
class MapChain:
    """Composition of atomic maps, applied left-to-right; empty = identity."""

    maps: tuple = ()

    def __call__(self, x):
        out = np.asarray(x, dtype=float)
        for m in self.maps:
            out = np.asarray(m(out), dtype=float)
        if not np.all(np.isfinite(out)):
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
    return VnMap(int(data["n"]), dom)


# name -> atoms(domain, kappa, alpha, n); GRASPA itself is defined at alpha = 1
_CHAINS = {
    "identity": lambda dom, kappa, alpha, n: (),
    "kte": lambda dom, kappa, alpha, n: (KteMap(alpha),),
    "mkte": lambda dom, kappa, alpha, n: (MkteMap(alpha, dom),),
    "sgibbs": lambda dom, kappa, alpha, n: (SGibbsMap(kappa, dom),),
    "graspa": lambda dom, kappa, alpha, n: (MkteMap(1.0, dom), SGibbsMap(kappa, dom)),
    "graspa+vn": lambda dom, kappa, alpha, n: (VnMap(int(n), dom), MkteMap(1.0, dom),
                                               SGibbsMap(kappa, dom)),
}
CHAIN_NAMES = tuple(_CHAINS)
# the chains whose stretch takes alpha; the others do not read it
_ALPHA_CHAINS = ("kte", "mkte")


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
