"""The standard normal density.

The copula families need no bivariate distribution routine: the
Gaussian and the Student t take their CDF and joint survival by parts
from their conditional distributions (see ``families``).
"""
from __future__ import annotations

import numpy as np

_SQRT_TPI = np.sqrt(2.0 * np.pi)


def norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_TPI


__all__ = ["norm_pdf"]
