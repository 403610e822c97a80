"""GRASPA: stable polynomial interpolation of discontinuous functions.

Interpolates samples taken at equispaced (or other) nodes as a polynomial in
a mapped variable.  The GRASPA map composes a per-subinterval
Kosloff-Tal-Ezer stretch, which tames the Runge phenomenon, with a large
piecewise S-Gibbs shift, which makes the basis discontinuous at known jump
locations and so suppresses the Gibbs phenomenon -- all without resampling
the function.  The package also provides Lebesgue-constant analysis of the
mapped bases, closed-form infinite-shift predictions, and the benchmark
experiment harness.
"""

from .domain import (
    Interval,
    NodePartition,
    NodeSet,
    PiecewiseDomain,
    bg_chebyshev_nodes,
    equispaced_nodes,
    partition_nodes,
)
from .exceptions import EvaluationError, NodeCollisionError, PredictionUnavailableError
from .experiments import (
    METHODS,
    ExperimentConfig,
    ExperimentResult,
    CellResult,
    build_figure,
    f1,
    f2,
    method_chain,
    rmae,
    run_comparison,
)
from .interpolation import (
    Interpolant,
    barycentric_weights,
    build_interpolant,
    eval_interpolant,
    eval_monomial,
    vandermonde_coefficients,
)
from .maps import (
    CHAIN_NAMES,
    KteMap,
    MapChain,
    MkteMap,
    SGibbsMap,
    VnMap,
    affine_from_reference,
    affine_to_reference,
    graspa_chain,
    graspa_map,
    kte,
    map_from_dict,
    mkte,
    mkte_chain,
    named_chain,
    sgibbs,
    sgibbs_chain,
    vn_correction,
)
from .stability import (
    LimitQuantities,
    StabilityReport,
    c_factor,
    delta_bound,
    even_split_residual_sum,
    lagrange_matrix,
    lebesgue_constant,
    lebesgue_function,
    lebesgue_grid,
    lebesgue_max,
    limit_lebesgue_prediction,
)

__version__ = "0.1.0"
