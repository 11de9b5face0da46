"""Sub-asymptotic and limiting extremal-dependence measures.

chi(r) is the conditional exceedance probability P[V > r | U > r] written
through the copula diagonal, and eta(r) the residual tail dependence
coefficient log(1-r) / log P[U > r, V > r]. Both are evaluated from the
joint survival, never from 1 - 2r + C(r, r) directly, so levels within
1e-8 of one remain computable (the subtraction cancels catastrophically
there while the survival routines keep relative accuracy).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr
from scipy.stats import kendalltau

from .blend import BlendedModel
from .errors import UndefinedMeasureError
from .families import CLAMP, Copula, Gaussian, Frank, Gumbel, HuslerReiss
from .fitting import Dataset
from .quadrature import corner_refined, gauss_legendre
from .sampling import sample_blended_copula

#: Ten levels log-spaced in 1-r from 0.7 up to the largest studied level.
R_MAX = 1.0 - 1.49e-8
DEFAULT_R_GRID = 1.0 - np.geomspace(0.3, 1.49e-8, 10)


@dataclass
class DependenceCurve:
    r: np.ndarray
    values: np.ndarray
    measure: str  # "chi" | "eta"
    source: str  # "empirical" | "single-copula" | "blended" | "theoretical"
    label: str = ""


def chi_r(cdf, r):
    """(1 - 2r + C(r, r)) / (1 - r) for a plain CDF callable.

    Fine at moderate levels; model objects route through survival-based
    evaluation instead (see ``chi_eta``).
    """
    r = float(r)
    if not 0.0 < r < 1.0 - CLAMP:
        raise ValueError(f"chi(r) needs r in (0, 1); got {r}")
    return (1.0 - 2.0 * r + float(cdf(r, r))) / (1.0 - r)


def eta_r(cdf, r):
    """log(1 - r) / log(1 - 2r + C(r, r)) for a plain CDF callable."""
    r = float(r)
    if not 0.0 < r < 1.0 - CLAMP:
        raise ValueError(f"eta(r) needs r in (0, 1); got {r}")
    joint_sf = 1.0 - 2.0 * r + float(cdf(r, r))
    if joint_sf <= 0.0:
        raise UndefinedMeasureError(f"joint survival nonpositive ({joint_sf:.3g}) at r={r}")
    return np.log1p(-r) / np.log(joint_sf)


def _joint_survival(obj, r: float) -> float:
    if isinstance(obj, BlendedModel):
        x = obj.marginal_quantile(0, r)
        y = obj.marginal_quantile(1, r)
        return obj.joint_upper_survival(x, y)
    return float(obj.survival(r, r))


def chi_eta(obj, r):
    """(chi(r), eta(r)) for a copula or a built blended model."""
    r = float(r)
    if not 0.0 < r <= R_MAX:
        raise ValueError(f"dependence level must lie in (0, {R_MAX}]; got {r}")
    sf = _joint_survival(obj, r)
    if sf <= 0.0:
        raise UndefinedMeasureError(f"joint survival nonpositive at r={r}")
    return float(sf / (1.0 - r)), float(np.log1p(-r) / np.log(sf))


def dependence_curves(obj, grid=None, label=""):
    """chi(r) and eta(r) curves over a level grid (default: the ten
    log-spaced study levels from 0.7 up to 1 - 1.49e-8)."""
    grid = DEFAULT_R_GRID if grid is None else np.asarray(grid, dtype=float)
    source = "blended" if isinstance(obj, BlendedModel) else "single-copula"
    chis = np.empty(len(grid))
    etas = np.empty(len(grid))
    for i, r in enumerate(grid):
        chis[i], etas[i] = chi_eta(obj, r)
    return (
        DependenceCurve(grid, chis, "chi", source, label),
        DependenceCurve(grid, etas, "eta", source, label),
    )


def kendall_tau(obj, method="monte-carlo", n=100_000, rng=None):
    """Kendall's tau, by the concordance estimator on model draws
    (default) or by quadrature of 4 E[C(U,V)] - 1."""
    if method == "monte-carlo":
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        if isinstance(obj, BlendedModel):
            uv = sample_blended_copula(obj, n, rng)
        else:
            uv = obj.sample(n, rng)
        return float(kendalltau(uv[:, 0], uv[:, 1]).statistic)
    if method == "quadrature":
        if isinstance(obj, BlendedModel):
            x, w = corner_refined(8, 1e-6, 1.0 - 1e-6)
            pdf = obj.copula_pdf(x[:, None], x[None, :])
            cdf = obj.copula_cdf(x[:, None], x[None, :])
        else:
            x, w = gauss_legendre(96, 1e-9, 1.0 - 1e-9)
            pdf = obj.pdf(x[:, None], x[None, :])
            cdf = obj.cdf(x[:, None], x[None, :])
        return float(4.0 * (w @ (cdf * pdf) @ w) - 1.0)
    raise ValueError(f"unknown kendall_tau method {method!r}")


def empirical_chi_eta(u, v, r):
    """Plug-in estimates from pseudo-observations.

    chi uses the empirical copula diagonal in the defining ratio; eta
    uses the empirical joint survival. Zero joint exceedances leave eta
    undefined and raise, reporting the count. Where every pair exceeds r
    the joint survival is 1, so eta = log(1 - r) / log 1 is undefined and
    returned as NaN while chi stands. The pseudo-observations are checked
    as ``Dataset`` checks them: NaN, a value outside [0, 1] or arrays of
    unequal length raise ``InputError``.
    """
    data = Dataset(u, v)
    return _empirical_chi_eta(data.u, data.v, r)


def _empirical_chi_eta(u, v, r):
    r = float(r)
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
    pseudo-observations are checked once, as ``empirical_chi_eta``
    checks them."""
    data = Dataset(u, v)
    grid = DEFAULT_R_GRID if grid is None else np.asarray(grid, dtype=float)
    chis = np.full(len(grid), np.nan)
    etas = np.full(len(grid), np.nan)
    for i, r in enumerate(grid):
        try:
            chis[i], etas[i] = _empirical_chi_eta(data.u, data.v, r)
        except UndefinedMeasureError:
            pass
    return (
        DependenceCurve(grid, chis, "chi", "empirical", label),
        DependenceCurve(grid, etas, "eta", "empirical", label),
    )


def theoretical_limits(cop: Copula):
    """Closed-form limiting (chi, eta) where known; (None, None) otherwise."""
    if isinstance(cop, Gaussian):
        return 0.0, (1.0 + cop.rho) / 2.0
    if isinstance(cop, Frank):
        return 0.0, 0.5
    if isinstance(cop, Gumbel):
        a = cop.params[0]
        return 2.0 - 2.0 ** (1.0 / a), 1.0
    if isinstance(cop, HuslerReiss):
        a = cop.params[0]
        return 2.0 - 2.0 * float(ndtr(1.0 / a)), 1.0
    return None, None
