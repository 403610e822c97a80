"""Benchmark functions, the RMAE metric, and the comparison sweep harness.

Two discontinuous targets are built in: a single-jump function mixing a
Runge-type bump with a trigonometric branch, and a three-jump variant adding
a kink.  ``run_comparison`` sweeps (method, degree) cells -- plain
interpolation, the bare S-Gibbs shift, and the GRASPA map with or without the
even-split node correction, each a chain from :func:`maps.named_chain` --
collecting the relative maximum absolute error and the Lebesgue constant for
each cell, or only the one of them a table writes.  Four builders make the
tables that the figures share with the command line, each the one
definition of its layout: :func:`sweep_table` turns a sweep into the table
that both the figures and JSON-config runs write, :func:`matrix_table` is the
basis-matrix table of fig4 and ``graspa lagmatrix``,
:func:`interpolant_table` the interpolant table of fig3, fig7 and ``graspa
interp``, and :func:`lebesgue_table` the Lebesgue-function table of fig1,
fig6 and ``graspa lebesgue``.  The last two take their columns as a
``{header: chain}`` mapping, one method per column in a figure and one
column on the command line.  Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Interval, PiecewiseDomain, _integer, _vector, equispaced_nodes
from .exceptions import EvaluationError, NodeCollisionError
from .interpolation import _interpolant, build_interpolant, mapped_basis
from .maps import MapChain, _kappa, named_chain
from .stability import (_cell_search_max, _constant_grid, _dense_enough, _grid_spec_from,
                        lebesgue_function, lebesgue_grid, lagrange_matrix)

__all__ = [
    "DEFAULT_KAPPA",
    "RMAE_GRID_SIZE",
    "METHODS",
    "FUNCTIONS",
    "f1",
    "f2",
    "rmae",
    "method_chain",
    "ExperimentConfig",
    "CellResult",
    "ExperimentResult",
    "run_comparison",
    "FigureOutput",
    "FIGURE_IDS",
    "FLOAT_FORMAT",
    "sweep_table",
    "matrix_table",
    "interpolant_table",
    "lebesgue_table",
    "build_figure",
]

DEFAULT_KAPPA = 10000.0
RMAE_GRID_SIZE = 332
METHODS = ("classical", "sgibbs", "graspa", "graspa+vn")


def f1(x):
    """Single jump at 0: Runge-type bump on the left, trigonometric right."""
    xs = np.asarray(x, dtype=float)
    left = 1.0 / (25.0 * (2.0 * xs + 1.0) ** 2 + 1.0) - 0.5
    right = np.sin(2.0 * xs) * np.cos(3.0 * xs) + 0.5
    out = np.where(xs <= 0.0, left, right)
    return float(out) if xs.ndim == 0 else out


def f2(x):
    """Jumps at -1/2, 0 and 1/2: Runge-type, kink, and trigonometric pieces."""
    xs = np.asarray(x, dtype=float)
    runge = 1.0 / (25.0 * (4.0 * xs + 3.0) ** 2 + 1.0) - 0.5
    kink = np.abs(4.0 * xs - 1.0)
    trig = np.sin(2.0 * xs) * np.cos(3.0 * xs) + 0.5
    out = np.where(xs <= -0.5, runge, np.where((xs > 0.0) & (xs <= 0.5), kink, trig))
    return float(out) if xs.ndim == 0 else out


FUNCTIONS = {
    "f1": (f1, (0.0,)),
    "f2": (f2, (-0.5, 0.0, 0.5)),
}


def rmae(interp, truth_samples, grid) -> float:
    """Relative maximum absolute error: max |f - R| / max |f| over the grid."""
    g = np.asarray(grid, dtype=float)
    if g.size == 0:
        raise ValueError("empty evaluation grid")
    truth = np.asarray(truth_samples, dtype=float)
    if truth.shape != g.shape:
        raise ValueError("truth samples and grid sizes differ")
    if not np.all(np.isfinite(truth)):
        raise ValueError("truth samples must be finite")
    denom = float(np.max(np.abs(truth)))
    if denom == 0.0:
        raise ValueError("all-zero truth samples: relative error undefined")
    return float(np.max(np.abs(truth - interp(g))) / denom)


def _chain_name(method: str) -> str:
    """The ``CHAIN_NAMES`` entry of a method: classical is the identity."""
    return "identity" if method == "classical" else method


def method_chain(method: str, domain: PiecewiseDomain, kappa: float,
                 n: int | None = None) -> MapChain:
    """Map chain for a named comparison method.

    classical = identity, sgibbs = bare shift on the raw nodes, graspa =
    shift after the piecewise stretch, graspa+vn = the same preceded by the
    even-split node correction (needs the degree).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return named_chain(_chain_name(method), domain, kappa, n=n)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep description on [-1, 1]; cuts default to the function's own jumps.

    Fields are normalised on construction by the library's own readers, the
    ones its calls and the command line use: degrees and grid sizes to ints,
    each read as a degree is (integral floats and numeric strings pass,
    fractions and bools do not), the shift and the cuts (read by the
    config's :class:`PiecewiseDomain`) to floats, the lists to tuples.
    ``lebesgue_grid`` is ``"auto"`` or a count, as :func:`lebesgue_grid`
    reads it.  A degree or method listed twice is refused.
    """

    function: str = "f1"
    cuts: tuple[float, ...] | None = None
    n_values: tuple[int, ...] = ()
    kappa: float = DEFAULT_KAPPA
    methods: tuple[str, ...] = ("classical", "sgibbs", "graspa")
    rmae_grid: int = RMAE_GRID_SIZE
    lebesgue_grid: str | int = "auto"

    def __post_init__(self) -> None:
        if self.function not in tuple(FUNCTIONS):
            raise ValueError(f"unknown function {self.function!r}")
        cuts = self.cuts if self.cuts is not None else FUNCTIONS[self.function][1]
        object.__setattr__(self, "cuts", PiecewiseDomain(Interval(-1.0, 1.0), cuts).cuts)
        n_values = tuple(_integer(n, "a degree") for n in _vector(self.n_values, "n"))
        if not n_values:
            n_values = (13, 29, 41) if self.function == "f2" else (11, 23, 51)
        if any(n < 1 for n in n_values):
            raise ValueError("all degrees must be >= 1")
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "kappa", _kappa(self.kappa))
        object.__setattr__(self, "methods", _vector(self.methods, "methods"))
        if not self.methods:
            raise ValueError("need at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
        # a repeated cell would run twice and write two columns or rows
        for key, values in (("n", n_values), ("methods", self.methods)):
            if len(set(values)) < len(values):
                raise ValueError(f"{key} lists a value twice: {list(values)}")
        object.__setattr__(self, "rmae_grid", _integer(self.rmae_grid, "rmae_grid"))
        if self.rmae_grid < 2:
            raise ValueError("the error grid needs at least 2 points")
        if np.ndim(self.lebesgue_grid):  # a config of grid points would not stay JSON
            raise ValueError("lebesgue_grid must be 'auto' or a point count, not a list")
        object.__setattr__(self, "lebesgue_grid",
                           _grid_spec_from(self.lebesgue_grid, "lebesgue_grid"))

    def domain(self) -> PiecewiseDomain:
        return PiecewiseDomain(Interval(-1.0, 1.0), self.cuts)

    # JSON key -> field
    _JSON_FIELDS = {"function": "function", "cuts": "cuts", "kappa": "kappa",
                    "n": "n_values", "methods": "methods", "rmae_grid": "rmae_grid",
                    "lebesgue_grid": "lebesgue_grid"}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a config must be a JSON object, got {data!r}")
        unknown = set(data) - set(cls._JSON_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{cls._JSON_FIELDS[key]: value for key, value in data.items()})

    def to_json_dict(self) -> dict:
        out = {key: getattr(self, name) for key, name in self._JSON_FIELDS.items()}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in out.items()}


@dataclass(frozen=True)
class CellResult:
    """One (method, n) cell; a field the sweep did not compute is None."""

    method: str
    n: int
    rmae: float | None
    lebesgue: float | None
    ok: bool = True
    note: str = ""


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: ExperimentConfig
    grid: np.ndarray
    truth: np.ndarray
    cells: tuple[CellResult, ...]
    samples: dict = field(default_factory=dict)

    def cell(self, method: str, n: int) -> CellResult:
        for c in self.cells:
            if c.method == method and c.n == n:
                return c
        raise KeyError(f"no cell for ({method!r}, {n})")


# sweep field -> its column-name prefix in a sweep table
_FIELD_TAG = {"lebesgue": "lambda", "rmae": "rmae"}


def run_comparison(config: ExperimentConfig,
                   fields=("rmae", "lebesgue")) -> ExperimentResult:
    """Run every (method, n) cell of the sweep, computing only ``fields``.

    ``fields`` holds the field names of :func:`sweep_table`: "rmae" builds
    each cell's interpolant and its error (kept in ``samples``), "lebesgue"
    builds each degree's Lebesgue grid and searches it.  A field that is not
    asked for is not computed, and reads None in every cell.  Numerical
    blowups in a computed field (EvaluationError, such as weight overflow,
    and NodeCollisionError, from shifts so large the mapped nodes collapse
    together) flag the cell, whose computed fields then read NaN, instead of
    aborting.  Every other error is a hard one: misuse of the node
    correction (odd degree or an unsupported domain), bad grid specs,
    unknown fields, and any other ValueError raised inside a cell.
    """
    fields = tuple(fields)
    unknown = [f for f in fields if f not in _FIELD_TAG]
    if unknown:
        raise ValueError(f"unknown sweep fields {unknown}; expected some of "
                         f"{tuple(_FIELD_TAG)}")
    want_rmae, want_lebesgue = "rmae" in fields, "lebesgue" in fields
    failed = (float("nan") if want_rmae else None,
              float("nan") if want_lebesgue else None)
    fn = FUNCTIONS[config.function][0]
    domain = config.domain()
    grid = np.linspace(domain.interval.a, domain.interval.b, config.rmae_grid)
    truth = fn(grid)
    cells = []
    samples = {}
    for n in config.n_values:
        nodes = equispaced_nodes(n, domain.interval)
        fvals = fn(nodes.nodes) if want_rmae else None
        # a grid too coarse for a Lebesgue constant is a config error, not a cell's
        lam_grid = (_constant_grid(domain, nodes, config.lebesgue_grid)
                    if want_lebesgue else None)
        for method in config.methods:
            chain = method_chain(method, domain, config.kappa, n)
            err = lam = approx = None
            try:
                basis = mapped_basis(nodes, chain)  # one basis for both fields
                if want_rmae:
                    approx = _interpolant(basis, fvals)(grid)
                    err = rmae(lambda _: approx, truth, grid)
                if want_lebesgue:
                    lam = _cell_search_max(basis, lam_grid)
            except (EvaluationError, NodeCollisionError) as exc:
                cells.append(CellResult(method, n, *failed, ok=False, note=str(exc)))
                continue
            cells.append(CellResult(method, n, err, lam))
            if want_rmae:
                samples[(method, n)] = approx
    return ExperimentResult(config, grid, truth, tuple(cells), samples)


# ---------------------------------------------------------------------------
# Figure tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FigureOutput:
    """One CSV-able table; kind "xy" tables plot as lines (column 0 is x)."""

    name: str
    header: tuple[str, ...]
    rows: np.ndarray
    kind: str = "xy"
    logy: bool = False


FLOAT_FORMAT = "%.17g"  # every float written: 17 significant digits round-trip

ODD_SWEEP = tuple(range(11, 52, 4))
EVEN_SWEEP = tuple(range(8, 49, 4))
F2_SWEEP = tuple(range(13, 50, 4))
F2_LONG_SWEEP = tuple(range(13, 90, 4))
MATRIX_GRID_SIZE = 100

_COLUMN_TAG = {"classical": "classical", "sgibbs": "sgibbs", "graspa": "graspa",
               "graspa+vn": "graspa_vn"}


def sweep_table(name: str, result: ExperimentResult, fields) -> FigureOutput:
    """One row per degree: ``n``, then for each field ("rmae" or "lebesgue")
    one column per method, in the config's order."""
    config = result.config
    header = ["n"]
    cols = [np.asarray(config.n_values, dtype=float)]
    for fieldname in fields:
        for m in config.methods:
            header.append(f"{_FIELD_TAG[fieldname]}_{_COLUMN_TAG[m]}")
            cols.append(np.array(
                [getattr(result.cell(m, n), fieldname) for n in config.n_values]))
    return FigureOutput(name, tuple(header), np.column_stack(cols), logy=True)


def matrix_table(name: str, nodes, chain: MapChain | None, grid) -> FigureOutput:
    """|l_i(x_j)| (see :func:`stability.lagrange_matrix`): one row per node,
    one column per grid point, headed by that point."""
    return FigureOutput(name, tuple(FLOAT_FORMAT % x for x in grid),
                        lagrange_matrix(nodes, chain, grid), kind="matrix")


def interpolant_table(name: str, fn, nodes, chains: dict, grid) -> FigureOutput:
    """Columns ``x`` (the grid), ``f`` (fn there), then, headed by each key of
    ``chains``, the interpolant of fn at the nodes through that key's chain."""
    fvals = fn(nodes.nodes)
    cols = [grid, fn(grid)]
    cols += [build_interpolant(nodes, fvals, chain)(grid) for chain in chains.values()]
    return FigureOutput(name, ("x", "f", *chains), np.column_stack(cols))


def lebesgue_table(name: str, domain: PiecewiseDomain, nodes, chains: dict,
                   grid_spec="auto") -> FigureOutput:
    """Columns ``x`` (:func:`stability.lebesgue_grid` of the nodes on the
    domain), then, headed by each key of ``chains``, the Lebesgue function
    through that key's chain there.  A grid of fewer than 1000 points raises
    ValueError, as :func:`stability.lebesgue_constant` does."""
    grid = _dense_enough(lebesgue_grid(domain, nodes, grid_spec))
    cols = [grid] + [lebesgue_function(nodes, chain, grid) for chain in chains.values()]
    return FigureOutput(name, ("x", *chains), np.column_stack(cols), logy=True)


def _sweep_figure(name, function, n_list, methods, fields):
    config = ExperimentConfig(function=function, n_values=tuple(n_list),
                              methods=tuple(methods))
    return sweep_table(name, run_comparison(config, fields), fields)


def _figure_setup(function, n, methods, prefix=""):
    """[-1, 1] cut at the function's jumps, its n + 1 equispaced nodes, and
    each method's chain at the default shift, headed prefix + its tag."""
    domain = PiecewiseDomain(Interval(-1.0, 1.0), FUNCTIONS[function][1])
    chains = {prefix + _COLUMN_TAG[m]: method_chain(m, domain, DEFAULT_KAPPA, n)
              for m in methods}
    return domain, equispaced_nodes(n), chains


def _interpolant_figure(name, function, n, methods):
    _, nodes, chains = _figure_setup(function, n, methods, "r_")
    return interpolant_table(name, FUNCTIONS[function][0], nodes, chains,
                             np.linspace(-1.0, 1.0, RMAE_GRID_SIZE))


def _matrix_figure(name, function, n, method):
    _, nodes, chains = _figure_setup(function, n, (method,))
    return matrix_table(name, nodes, *chains.values(),
                        np.linspace(-1.0, 1.0, MATRIX_GRID_SIZE))


_THREE = ("classical", "sgibbs", "graspa")

# figure id -> builder of its tables from the id (the first table's name)
_FIGURES = {
    "fig1": lambda name: (lebesgue_table(name, *_figure_setup("f1", 23, _THREE,
                                                              "lambda_")),),
    "fig2": lambda name: (_sweep_figure(name, "f1", ODD_SWEEP, _THREE, ("lebesgue",)),),
    "fig3": lambda name: (_interpolant_figure(name, "f1", 23, _THREE),),
    "fig3bis": lambda name: (_sweep_figure(name, "f1", ODD_SWEEP, _THREE, ("rmae",)),),
    "fig4": lambda name: (_matrix_figure(name, "f1", 50, "graspa"),
                          _matrix_figure(name + "_vn", "f1", 50, "graspa+vn")),
    "fig5": lambda name: (_sweep_figure(name, "f1", EVEN_SWEEP,
                                        ("classical", "sgibbs", "graspa+vn"),
                                        ("lebesgue", "rmae")),),
    "fig6": lambda name: (lebesgue_table(name, *_figure_setup("f2", 29, _THREE,
                                                              "lambda_")),),
    "fig7": lambda name: (_interpolant_figure(name, "f2", 29, _THREE),),
    "fig8": lambda name: (_sweep_figure(name, "f2", F2_SWEEP, _THREE, ("lebesgue",)),),
    "fig8bis": lambda name: (_sweep_figure(name, "f2", F2_SWEEP, _THREE, ("rmae",)),),
    "fig9": lambda name: (_sweep_figure(name, "f2", F2_LONG_SWEEP, ("graspa",),
                                        ("lebesgue",)),),
}
FIGURE_IDS = tuple(_FIGURES)


def build_figure(fig_id: str) -> tuple[FigureOutput, ...]:
    """Tables reproducing the numbered comparison figures.

    fig1/fig6: Lebesgue functions at a fixed degree.  fig2/fig5/fig8:
    Lebesgue-constant (and, for fig5, error) sweeps.  fig3/fig7: interpolant
    curves.  fig3bis/fig8bis: error sweeps.  fig4: the even-split basis
    matrices with and without the node correction.  fig9: the late
    fixed-shift divergence on the three-jump target.
    """
    if fig_id not in _FIGURES:
        raise ValueError(f"unknown figure id {fig_id!r}; expected one of {FIGURE_IDS}")
    return _FIGURES[fig_id](fig_id)
