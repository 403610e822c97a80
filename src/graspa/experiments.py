"""Benchmark functions, the RMAE metric, and the comparison sweep harness.

Two discontinuous targets are built in: a single-jump function mixing a
Runge-type bump with a trigonometric branch, and a three-jump variant adding
a kink.  ``run_comparison`` sweeps (method, degree) cells -- plain
interpolation, the bare S-Gibbs shift, and the GRASPA map with or without the
even-split node correction, each a chain from :func:`maps.named_chain` --
collecting the relative maximum absolute error and the Lebesgue constant for
each cell.  :func:`sweep_table` turns a sweep into the one CSV-able table
that both the figures and JSON-config runs write, and :func:`matrix_table`
is the basis-matrix table of both fig4 and ``graspa lagmatrix``.  Everything is
deterministic.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .domain import Interval, PiecewiseDomain, equispaced_nodes
from .exceptions import EvaluationError
from .interpolation import build_interpolant
from .maps import MapChain, named_chain
from .stability import (_constant_grid, lebesgue_function, lebesgue_grid,
                        lebesgue_max, lagrange_matrix)

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
    out = np.select([xs <= -0.5, (xs > 0.0) & (xs <= 0.5)], [runge, kink], default=trig)
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


def method_chain(method: str, domain: PiecewiseDomain, kappa: float,
                 n: int | None = None) -> MapChain:
    """Map chain for a named comparison method.

    classical = identity, sgibbs = bare shift on the raw nodes, graspa =
    shift after the piecewise stretch, graspa+vn = the same preceded by the
    even-split node correction (needs the degree).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return named_chain("identity" if method == "classical" else method, domain, kappa,
                       n=n)


def _number(value, what: str) -> float:
    """A real number, or a string holding one; bools and None are refused."""
    if isinstance(value, (numbers.Real, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def _integer(value, what: str) -> int:
    number = _number(value, what)
    if not number.is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(number)


def _vector(value, what: str) -> tuple:
    try:
        flat = np.ndim(value) == 1
    except ValueError:  # numpy refuses ragged nesting such as [1, [2]]
        flat = False
    if not flat:
        raise ValueError(f"{what} must be a flat list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep description on [-1, 1]; cuts default to the function's own jumps.

    Fields are normalised on construction: degrees and grid sizes to ints
    (integral floats and numeric strings pass, fractions and bools do not),
    the shift and the cuts to floats, the lists to tuples.
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
        object.__setattr__(self, "cuts",
                           tuple(_number(c, "a cut") for c in _vector(cuts, "cuts")))
        n_values = tuple(_integer(n, "a degree") for n in _vector(self.n_values, "n"))
        if not n_values:
            n_values = (13, 29, 41) if self.function == "f2" else (11, 23, 51)
        if any(n < 1 for n in n_values):
            raise ValueError("all degrees must be >= 1")
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "kappa", _number(self.kappa, "kappa"))
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        object.__setattr__(self, "methods", _vector(self.methods, "methods"))
        if not self.methods:
            raise ValueError("need at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
        object.__setattr__(self, "rmae_grid", _integer(self.rmae_grid, "rmae_grid"))
        if self.rmae_grid < 2:
            raise ValueError("the error grid needs at least 2 points")
        if self.lebesgue_grid != "auto":
            object.__setattr__(self, "lebesgue_grid",
                               _integer(self.lebesgue_grid, "lebesgue_grid"))
        self.domain()  # validates the cuts against the interval

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
    method: str
    n: int
    rmae: float
    lebesgue: float
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


def run_comparison(config: ExperimentConfig) -> ExperimentResult:
    """Run every (method, n) cell of the sweep.

    Numerical blowups (weight overflow, shifts so large the mapped nodes
    collapse together) are flagged per cell instead of aborting; misuse of
    the node correction (odd degree or an unsupported domain) and bad grid
    specs are hard errors.
    """
    fn = FUNCTIONS[config.function][0]
    domain = config.domain()
    grid = np.linspace(domain.interval.a, domain.interval.b, config.rmae_grid)
    truth = fn(grid)
    # reject grids too coarse for a Lebesgue constant up front, at the smallest
    # degree, where the grid has the fewest points
    _constant_grid(domain, equispaced_nodes(min(config.n_values), domain.interval),
                   config.lebesgue_grid)
    cells = []
    samples = {}
    for n in config.n_values:
        nodes = equispaced_nodes(n, domain.interval)
        fvals = fn(nodes.nodes)
        for method in config.methods:
            chain = method_chain(method, domain, config.kappa, n)
            try:
                approx = build_interpolant(nodes, fvals, chain)(grid)
                err = rmae(lambda _: approx, truth, grid)
                lam = lebesgue_max(nodes, chain, domain, config.lebesgue_grid)
                cells.append(CellResult(method, n, err, lam))
                samples[(method, n)] = approx
            except (EvaluationError, ValueError) as exc:
                cells.append(CellResult(method, n, float("nan"), float("nan"),
                                        ok=False, note=str(exc)))
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


def _lambda_function_table(name, function, n, methods):
    fn, cuts = FUNCTIONS[function]
    domain = PiecewiseDomain(Interval(-1.0, 1.0), cuts)
    nodes = equispaced_nodes(n)
    grid = lebesgue_grid(domain, nodes)
    cols = [grid]
    header = ["x"]
    for m in methods:
        chain = method_chain(m, domain, DEFAULT_KAPPA, n)
        cols.append(lebesgue_function(nodes, chain, grid))
        header.append(f"lambda_{_COLUMN_TAG[m]}")
    return FigureOutput(name, tuple(header), np.column_stack(cols), logy=True)


_FIELD_TAG = {"lebesgue": "lambda", "rmae": "rmae"}


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


def _sweep_figure(name, function, n_list, methods, fields):
    config = ExperimentConfig(function=function, n_values=tuple(n_list),
                              methods=tuple(methods))
    return sweep_table(name, run_comparison(config), fields)


def _interpolant_table(name, function, n, methods):
    config = ExperimentConfig(function=function, n_values=(n,),
                              methods=tuple(methods))
    result = run_comparison(config)
    header = ["x", "f"] + [f"r_{_COLUMN_TAG[m]}" for m in methods]
    cols = [result.grid, result.truth] + [result.samples[(m, n)] for m in methods]
    return FigureOutput(name, tuple(header), np.column_stack(cols))


def _matrix_figure(name, function, n, method):
    domain = PiecewiseDomain(Interval(-1.0, 1.0), FUNCTIONS[function][1])
    return matrix_table(name, equispaced_nodes(n),
                        method_chain(method, domain, DEFAULT_KAPPA, n),
                        np.linspace(-1.0, 1.0, MATRIX_GRID_SIZE))


_THREE = ("classical", "sgibbs", "graspa")

# figure id -> builder of its tables from the id (the first table's name)
_FIGURES = {
    "fig1": lambda name: (_lambda_function_table(name, "f1", 23, _THREE),),
    "fig2": lambda name: (_sweep_figure(name, "f1", ODD_SWEEP, _THREE, ("lebesgue",)),),
    "fig3": lambda name: (_interpolant_table(name, "f1", 23, _THREE),),
    "fig3bis": lambda name: (_sweep_figure(name, "f1", ODD_SWEEP, _THREE, ("rmae",)),),
    "fig4": lambda name: (_matrix_figure(name, "f1", 50, "graspa"),
                          _matrix_figure(name + "_vn", "f1", 50, "graspa+vn")),
    "fig5": lambda name: (_sweep_figure(name, "f1", EVEN_SWEEP,
                                        ("classical", "sgibbs", "graspa+vn"),
                                        ("lebesgue", "rmae")),),
    "fig6": lambda name: (_lambda_function_table(name, "f2", 29, _THREE),),
    "fig7": lambda name: (_interpolant_table(name, "f2", 29, _THREE),),
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
