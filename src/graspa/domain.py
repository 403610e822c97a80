"""Interval partitions and the node families used for mapped-basis interpolation.

A :class:`PiecewiseDomain` splits ``[a, b]`` at known jump locations into
half-open subintervals; a point equal to a cut belongs to the subinterval on
its left.  Node generators produce the equispaced and (beta, gamma)-Chebyshev
families, and :func:`partition_nodes` assigns a node set to the subintervals.

The module also holds the one reader of each input value that a library call,
a JSON config and a command-line flag share: :func:`_integer` for a degree
(an int, an integral float or a string holding one), and for every point
count, which is read as a degree is; :func:`_cut_list` for a cut list; and
:func:`_interval_from` for an interval.  The command line hands the last two
the items of its comma lists as strings.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "PiecewiseDomain",
    "NodeSet",
    "NodePartition",
    "equispaced_nodes",
    "bg_chebyshev_nodes",
    "partition_nodes",
]


@dataclass(frozen=True)
class Interval:
    """Closed bounded interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _number(self.a, "an interval endpoint"))
        object.__setattr__(self, "b", _number(self.b, "an interval endpoint"))
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class PiecewiseDomain:
    """Interval [a, b] with interior cuts xi_1 < ... < xi_d.

    Subinterval 1 is ``[a, xi_1]`` and subinterval i is ``(xi_{i-1}, xi_i]``
    for i >= 2, so a point sitting exactly on a cut resolves to the left.
    Subinterval indices are 1-based, matching the shift convention of the
    piecewise maps.
    """

    interval: Interval
    cuts: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.interval, Interval):
            raise ValueError(f"interval must be an Interval, got {self.interval!r:.60}")
        cuts = _cut_list(self.cuts)
        object.__setattr__(self, "cuts", cuts)
        if cuts and not (self.interval.a < cuts[0] and cuts[-1] < self.interval.b):
            raise ValueError("cut points must lie strictly inside (a, b)")

    @property
    def n_subintervals(self) -> int:
        return len(self.cuts) + 1

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """(a, xi_1, ..., xi_d, b)."""
        return (self.interval.a, *self.cuts, self.interval.b)

    def subinterval_bounds(self, sub: int) -> tuple[float, float]:
        """Endpoints (xi_{sub-1}, xi_sub) of the 1-based subinterval."""
        if not 1 <= sub <= self.n_subintervals:
            raise ValueError(
                f"subinterval index {sub} out of range 1..{self.n_subintervals}"
            )
        bp = self.breakpoints
        return bp[sub - 1], bp[sub]

    def subinterval_index(self, x):
        """1-based subinterval index of x; cut points resolve to the left."""
        xs = np.asarray(x, dtype=float)
        mask = np.empty(xs.shape, dtype=bool)  # one comparison buffer for all tests
        if (np.less(xs, self.interval.a, out=mask).any()
                or np.greater(xs, self.interval.b, out=mask).any()):
            raise ValueError("point outside the domain")
        # one comparison per cut is several times faster than a binary search
        # on unsorted points; NaN compares false, so it lands in the last
        # subinterval, where a search would put it too
        idx = np.full(xs.shape, self.n_subintervals, dtype=np.intp)
        for c in self.cuts:
            idx -= np.less_equal(xs, c, out=mask)
        return int(idx) if xs.ndim == 0 else idx

    def to_dict(self) -> dict:
        return {"interval": [self.interval.a, self.interval.b], "cuts": list(self.cuts)}

    @classmethod
    def from_dict(cls, data: dict) -> "PiecewiseDomain":
        interval = _descriptor(data, "a domain descriptor", "interval")["interval"]
        return cls(_interval_from(interval), data.get("cuts", ()))


def _interval_from(ends) -> Interval:
    """The Interval of a flat list of its two endpoints, each a number or a
    string holding one."""
    ends = _vector(ends, "interval")
    if len(ends) != 2:
        raise ValueError(f"interval must hold two numbers, got {ends!r:.60}")
    return Interval(*ends)


def _cut_list(cuts) -> tuple[float, ...]:
    """A flat list of cut points, each a number or a string holding one, as
    floats: finite and strictly increasing (whether they lie inside an
    interval is the domain's check)."""
    cuts = tuple(_number(c, "a cut point") for c in _vector(cuts, "cuts"))
    if any(not np.isfinite(c) for c in cuts):
        raise ValueError("cut points must be finite")
    if any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])):
        raise ValueError("cut points must be strictly increasing")
    return cuts


def _descriptor(data, what: str, *keys) -> dict:
    """The JSON object data, refused with a ValueError naming ``what`` unless
    it is an object that holds every one of keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {data!r:.60}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} has no {key!r}")
    return data


def _vector(value, what: str) -> tuple:
    """The items of a flat list, tuple or 1-D array; a string, a mapping, a
    bare number or a nested list is refused with a ValueError naming ``what``."""
    try:
        flat = np.ndim(value) == 1
    except ValueError:  # numpy refuses ragged nesting such as [1, [2]]
        flat = False
    if not flat:
        raise ValueError(f"{what} must be a flat list, got {value!r:.60}")
    return tuple(value)


def _number(value, what: str) -> float:
    """A real number, or a string holding one; bools and None are refused."""
    if isinstance(value, (numbers.Real, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def _integer(value, what: str) -> int:
    """:func:`_number`, refused unless integral: fractions and bools name no count."""
    if type(value) is int:  # the common case, skipping the float round trip
        return value
    number = _number(value, what)
    if not number.is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(number)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Strictly increasing interpolation abscissae with a provenance tag."""

    nodes: np.ndarray
    kind: str = "custom"

    def __post_init__(self) -> None:
        arr = np.array(_node_array(self.nodes))  # a copy of its own
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise ValueError("nodes must be strictly increasing and distinct")
        object.__setattr__(self, "nodes", _frozen(arr))

    def __len__(self) -> int:
        return int(self.nodes.size)


def _node_array(nodes) -> np.ndarray:
    """The nodes as floats: a NodeSet's own, or raw ones, which must be
    nonempty, 1-D and finite; only a NodeSet also needs them increasing."""
    if isinstance(nodes, NodeSet):
        return nodes.nodes
    arr = np.asarray(nodes, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("nodes must form a nonempty 1-D sequence")
    if not np.isfinite(arr).all():
        raise ValueError("nodes must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class NodePartition:
    """Per-subinterval split of a node set under the left-closed rule."""

    parts: tuple[np.ndarray, ...]
    balanced: bool

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(int(p.size) for p in self.parts)


def equispaced_nodes(n: int, interval: Interval = Interval(-1.0, 1.0)) -> NodeSet:
    """n+1 uniformly spaced nodes a + (b-a) j/n, endpoints included.

    Parameters
    ----------
    n : int
        Polynomial degree; must be >= 1 (a single degree-0 node does not
        define a spacing and is left to the caller).
    interval : Interval
        Target interval [a, b].
    """
    n = _integer(n, "the degree")
    if n < 1:
        raise ValueError("need n >= 1; the single-node set is not generated here")
    if not isinstance(interval, Interval):
        raise ValueError(f"interval must be an Interval, got {interval!r:.60}")
    x = np.linspace(interval.a, interval.b, n + 1)
    x[0] = interval.a
    x[-1] = interval.b
    return NodeSet(x, kind="equispaced")


def bg_chebyshev_nodes(n: int, beta: float, gamma: float) -> NodeSet:
    """(beta, gamma)-Chebyshev points on [-1, 1], sorted increasing.

    cos((2 - beta - gamma) j pi / (2n) + gamma pi / 2) for j = 0..n.
    beta = gamma = 0 gives the Chebyshev-Lobatto points; beta = gamma =
    1/(n+1) gives the n+1 Chebyshev points.

    Parameters
    ----------
    n : int
        Degree (n + 1 points); must be >= 1.
    beta, gamma : float
        Nonnegative endpoint offsets with beta + gamma < 2.
    """
    n = _integer(n, "the degree")
    if n < 1:
        raise ValueError("need n >= 1")
    beta = _number(beta, "beta")
    gamma = _number(gamma, "gamma")
    if beta < 0 or gamma < 0:
        raise ValueError("beta and gamma must be nonnegative")
    if beta + gamma >= 2:
        raise ValueError("need beta + gamma < 2")
    j = np.arange(n + 1)
    theta = (2.0 - beta - gamma) * j * np.pi / (2.0 * n) + gamma * np.pi / 2.0
    return NodeSet(np.cos(theta)[::-1], kind="bg-chebyshev")


def _nodes_inside(nodes, domain: PiecewiseDomain) -> np.ndarray:
    """:func:`_node_array` of the nodes, refused unless all lie in the domain."""
    xs = _node_array(nodes)
    if xs.min() < domain.interval.a or xs.max() > domain.interval.b:
        raise ValueError("nodes must lie inside the domain")
    return xs


def partition_nodes(nodes, domain: PiecewiseDomain) -> NodePartition:
    """Assign each node to its subinterval (nodes on a cut go left).

    The nodes are a NodeSet or raw nodes; each part keeps their order.  The
    balance flag records whether all per-subinterval counts differ by at
    most one, the regime in which the large-shift Lebesgue constant stays
    bounded.
    """
    xs = _nodes_inside(nodes, domain)
    idx = domain.subinterval_index(xs)
    parts = tuple(
        _frozen(xs[idx == tau].copy()) for tau in range(1, domain.n_subintervals + 1)
    )
    cards = [p.size for p in parts]
    return NodePartition(parts, bool(max(cards) - min(cards) <= 1))
