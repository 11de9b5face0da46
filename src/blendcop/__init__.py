"""Bivariate dependence modelling with dynamically weighted copula blends."""

__version__ = "0.1.0"

from .errors import (
    BlendcopError,
    EvaluationError,
    FitError,
    InputError,
    ParameterError,
    SamplingError,
    UndefinedMeasureError,
)
from .families import FAMILIES, Copula, make_copula, parse_copula
from .weighting import WEIGHTINGS, WeightingFunction, make_weighting, parse_weighting

__all__ = [
    "__version__",
    "BlendcopError",
    "Copula",
    "EvaluationError",
    "FAMILIES",
    "FitError",
    "InputError",
    "ParameterError",
    "SamplingError",
    "UndefinedMeasureError",
    "WeightingFunction",
    "WEIGHTINGS",
    "make_copula",
    "make_weighting",
    "parse_copula",
    "parse_weighting",
]
