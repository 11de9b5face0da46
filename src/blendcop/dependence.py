"""Sub-asymptotic and limiting extremal-dependence measures.

chi(r) is the conditional exceedance probability P[V > r | U > r] written
through the copula diagonal, and eta(r) the residual tail dependence
coefficient log(1-r) / log P[U > r, V > r]. Both are evaluated from the
joint survival, never from 1 - 2r + C(r, r) directly, so levels within
1e-8 of one remain computable (the subtraction cancels catastrophically
there while the survival routines keep relative accuracy).

Kendall's tau is 4 E[C(U, V)] - 1 (Nelsen 2006, Thm 5.1.1), so tau =
4 int int C c - 1 on the corner-refined rule of order ``_TAU_ORDER``
over [``_TAU_INSET``, 1 - ``_TAU_INSET``]^2. The strips left out put the
tau of gumbel(2), clayton(1) and gaussian(0.6) 5.6e-6, 5.3e-6 and 7.9e-6
below their closed forms, and a blend of a family with itself reads its
family's within 1.1e-11. A model is read through the ``cdf``, ``pdf`` and
``survival`` of ``families.Model`` and its ``source``, which a blend
answers as a copula does; a blend's CDF reads the tensor it keeps, so
its tau takes a fraction of a second.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, UndefinedMeasureError
from .fitting import Dataset
from .quadrature import corner_refined

#: Ten levels log-spaced in 1-r from 0.7 up to the largest studied level.
R_MAX = 1.0 - 1.49e-8
DEFAULT_R_GRID = 1.0 - np.geomspace(0.3, 1.49e-8, 10)
#: Order of ``kendall_tau``'s corner-refined rule (112 nodes per axis) and
#: the distance from each end of the interval it covers.
_TAU_ORDER = 8
_TAU_INSET = 1e-6


@dataclass
class DependenceCurve:
    r: np.ndarray
    values: np.ndarray
    measure: str  # "chi" | "eta"
    source: str  # "empirical" | "single-copula" | "blended"
    label: str = ""


def _level(r):
    """r as a float; NaN or a level outside (0, R_MAX] raises ``InputError``."""
    r = float(r)
    if not 0.0 < r <= R_MAX:
        raise InputError(f"dependence level must lie in (0, {R_MAX}]; got {r}")
    return r


def chi_eta(obj, r):
    """(chi(r), eta(r)) for a copula or a blended model. A level
    outside (0, R_MAX], NaN included, raises ``InputError``."""
    r = _level(r)
    sf = float(obj.survival(r, r))
    if sf <= 0.0:
        raise UndefinedMeasureError(f"joint survival nonpositive at r={r}")
    return float(sf / (1.0 - r)), float(np.log1p(-r) / np.log(sf))


def _curves(pair, of, grid, source, label):
    """The chi and eta ``DependenceCurve``s of ``of`` over a level grid
    (default: the ten log-spaced study levels from 0.7 up to
    1 - 1.49e-8), each level's (chi, eta) from ``pair(of, r)``."""
    grid = DEFAULT_R_GRID if grid is None else np.asarray(grid, dtype=float)
    chis = np.empty(len(grid))
    etas = np.empty(len(grid))
    for i, r in enumerate(grid):
        chis[i], etas[i] = pair(of, r)
    return (
        DependenceCurve(grid, chis, "chi", source, label),
        DependenceCurve(grid, etas, "eta", source, label),
    )


def dependence_curves(obj, grid=None, label=""):
    """chi(r) and eta(r) curves of a copula or a blended model over a
    level grid (default ``DEFAULT_R_GRID``)."""
    return _curves(chi_eta, obj, grid, obj.source, label)


def kendall_tau(obj):
    """Kendall's tau of a copula or a blended model,
    4 int int C c du dv - 1 on the corner-refined rule of order
    ``_TAU_ORDER``."""
    x, w = corner_refined(_TAU_ORDER, _TAU_INSET, 1.0 - _TAU_INSET)
    u, v = x[:, None], x[None, :]
    return float(4.0 * (w @ (obj.cdf(u, v) * obj.pdf(u, v)) @ w) - 1.0)


def empirical_chi_eta(u, v, r):
    """Plug-in estimates from pseudo-observations.

    chi uses the empirical copula diagonal in the defining ratio; eta
    uses the empirical joint survival. Zero joint exceedances leave eta
    undefined and raise, reporting the count. Where every pair exceeds r
    the joint survival is 1, so eta = log(1 - r) / log 1 is undefined and
    returned as NaN while chi stands. NaN, a value outside [0, 1], arrays
    of unequal length or a level outside (0, R_MAX] raise ``InputError``.
    """
    data = Dataset(u, v)
    return _empirical_chi_eta(data.u, data.v, r)


def _empirical_chi_eta(u, v, r):
    r = _level(r)
    n = len(u)
    joint_below = np.count_nonzero((u <= r) & (v <= r))
    joint_above = np.count_nonzero((u > r) & (v > r))
    if joint_above == 0:
        raise UndefinedMeasureError(
            f"no joint exceedances above r={r} (n={n}); chi/eta undefined"
        )
    chi = (1.0 - 2.0 * r + joint_below / n) / (1.0 - r)
    eta = np.log1p(-r) / np.log(joint_above / n) if joint_above < n else np.nan
    return float(chi), float(eta)


def empirical_curves(u, v, grid=None, label="empirical"):
    """Empirical chi/eta curves; undefined levels become NaN. The
    pseudo-observations are checked once, and each level, as
    ``empirical_chi_eta`` checks them."""
    return _curves(_empirical_or_nan, Dataset(u, v), grid, "empirical", label)


def _empirical_or_nan(data, r):
    """``_empirical_chi_eta`` of a ``Dataset``, (NaN, NaN) where it is
    undefined."""
    try:
        return _empirical_chi_eta(data.u, data.v, r)
    except UndefinedMeasureError:
        return np.nan, np.nan
