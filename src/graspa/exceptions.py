"""Exception types shared across the package."""


class EvaluationError(RuntimeError):
    """A map or interpolant evaluation lost finiteness (overflow/underflow)."""


class NodeCollisionError(ValueError):
    """Two mapped nodes coincide in floating point, so the basis does not exist."""


class PredictionUnavailableError(ValueError):
    """The closed-form limit prediction does not cover the requested split."""
