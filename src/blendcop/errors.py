"""Exception types shared across the package."""


class BlendcopError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(BlendcopError, ValueError):
    """A copula or weighting parameter lies outside its domain."""


class EvaluationError(BlendcopError):
    """A numerical evaluation produced a non-finite intermediate value."""


class SamplingError(BlendcopError):
    """Sampling failed (root-finder breakdown or persistent acceptance shortfall)."""


class FitError(BlendcopError):
    """Likelihood maximisation failed to produce a finite optimum."""


class UndefinedMeasureError(BlendcopError):
    """A dependence measure is undefined at the requested level (e.g. zero joint exceedances)."""


class InputError(BlendcopError, ValueError):
    """Outside input is malformed: pseudo-observations that are NaN or lie
    outside [0, 1], a model file that cannot be parsed, a dependence level
    outside (0, R_MAX], a quantile level outside (0, 1), a negative sample
    size, no fit start, or data with no Kendall's tau to start a fit from."""
