"""Independent numerical oracles used to freeze expected test values.

These deliberately avoid the package's production code paths: midpoint
rules instead of Gauss-Legendre panels, finite differences instead of
closed-form densities, nested trapezoids instead of cached grids,
adaptive quadrature of the bivariate normal and t densities reduced to
one dimension instead of the package's by-parts rule. ``unit_nodes`` and
``tensor_integrate`` are plain helpers of the quadrature tests and do
use the package's rules.
"""
import numpy as np
from scipy import stats
from scipy.integrate import quad
from scipy.special import ndtr


def mixed_fd(cdf, u, v, h=1e-4):
    """Central second mixed difference of a bivariate CDF (density oracle)."""
    return (
        cdf(u + h, v + h) - cdf(u + h, v - h) - cdf(u - h, v + h) + cdf(u - h, v - h)
    ) / (4.0 * h * h)


def fd_du(cdf, u, v, h=1e-6):
    """Central difference in u (conditional-CDF oracle)."""
    return (cdf(u + h, v) - cdf(u - h, v)) / (2.0 * h)


def midpoint_2d(f, n=512, eps=0.0):
    """Midpoint-rule integral of f over (eps, 1-eps)^2."""
    x = eps + (1.0 - 2.0 * eps) * (np.arange(n) + 0.5) / n
    U, V = np.meshgrid(x, x, indexing="ij")
    return float(np.sum(f(U, V))) * ((1.0 - 2.0 * eps) / n) ** 2


def trapezoid_marginal_cdf(density2d, x, n=2048, eps=1e-6):
    """F(x) = int_eps^x int_eps^(1-eps) c(u, v) dv du by nested trapezoids."""
    us = np.linspace(eps, x, n)
    vs = np.linspace(eps, 1.0 - eps, n)
    inner = np.trapezoid(density2d(us[:, None], vs[None, :]), vs, axis=1)
    return float(np.trapezoid(inner, us))


def trapezoid_marginal_pdf(density2d, x, n=2048, eps=1e-6):
    """f(x) = int_eps^(1-eps) c(x, v) dv by a trapezoid rule."""
    vs = np.linspace(eps, 1.0 - eps, n)
    return float(np.trapezoid(density2d(np.asarray([[x]]), vs[None, :])[0], vs))


def gl_2d(f, n=128, eps=1e-9):
    """Plain tensor Gauss-Legendre integral of f over (eps, 1-eps)^2."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (1.0 - 2.0 * eps) * x + 0.5
    w = 0.5 * (1.0 - 2.0 * eps) * w
    U, V = np.meshgrid(x, x, indexing="ij")
    return float(w @ f(U, V) @ w)


def bvn_orthant_tail(a: float, b: float, rho: float) -> float:
    """P[X > a, Y > b] for a standard bivariate normal, with relative
    accuracy at extreme quantiles.

    Conditional reduction: integrates phi(t) * Phibar((b - rho t)/sqrt(1-rho^2))
    over t in (a, inf). The integrand is positive, so adaptive quadrature
    keeps relative error even when the probability is far below 1e-15.
    """
    sq = np.sqrt((1.0 - rho) * (1.0 + rho))

    def f(t):
        return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi) * ndtr(-(b - rho * t) / sq)

    hi = max(a, b, 0.0) + 14.0
    val, _ = quad(f, a, hi, epsabs=0.0, epsrel=1e-11, limit=200)
    return max(val, 0.0)


def _t_cond_scale(t, nu):
    return np.sqrt((nu + t * t) / (nu + 1.0))


def bvt_cdf(a: float, b: float, rho: float, nu: float) -> float:
    """P[X <= a, Y <= b] for a standard bivariate t (correlation rho, df nu).

    Quadrature of the density reduced to one dimension through the
    conditional law Y | X=t ~ rho*t + sqrt(1-rho^2) * s(t) * T_{nu+1}.
    """
    sq = np.sqrt((1.0 - rho) * (1.0 + rho))
    tdist = stats.t(nu)
    cond = stats.t(nu + 1.0)

    def f(t):
        z = (b - rho * t) / (sq * _t_cond_scale(t, nu))
        return tdist.pdf(t) * cond.cdf(z)

    lo = min(tdist.ppf(1e-14), a - 1.0)
    val, _ = quad(f, lo, a, epsabs=1e-14, epsrel=1e-10, limit=200)
    return min(max(val, 0.0), 1.0)


def bvt_orthant_tail(a: float, b: float, rho: float, nu: float) -> float:
    """P[X > a, Y > b] for a standard bivariate t, with relative accuracy.

    Intended for the deep joint tail (a, b well above zero); the
    polynomial decay is tamed by the substitution t = a * exp(z).
    """
    sq = np.sqrt((1.0 - rho) * (1.0 + rho))
    tdist = stats.t(nu)
    cond = stats.t(nu + 1.0)

    def f(t):
        z = (b - rho * t) / (sq * _t_cond_scale(t, nu))
        return tdist.pdf(t) * cond.sf(z)

    if a <= 0.5:
        hi = max(b, 1.0) + 50.0 * max(1.0, np.sqrt(nu))
        val, _ = quad(f, a, hi, epsabs=1e-300, epsrel=1e-10, limit=200)
    else:
        zmax = 80.0 / min(nu, 40.0)
        val, _ = quad(
            lambda z: f(a * np.exp(z)) * a * np.exp(z),
            0.0,
            zmax,
            epsabs=1e-300,
            epsrel=1e-10,
            limit=200,
        )
    return max(val, 0.0)


def unit_nodes(order):
    """Corner-refined rule of the given panel order on the inset interval
    [1e-6, 1 - 1e-6]."""
    from blendcop.quadrature import corner_refined

    return corner_refined(order, 1e-6, 1.0 - 1e-6)


def tensor_integrate(f, x, w):
    """Integrate f(u, v) over the tensor grid defined by 1-D nodes/weights."""
    from blendcop.errors import EvaluationError

    U, V = np.meshgrid(x, x, indexing="ij")
    vals = f(U, V)
    if not np.all(np.isfinite(vals)):
        i, j = np.argwhere(~np.isfinite(vals))[0]
        raise EvaluationError(
            f"non-finite integrand at node (u={U[i, j]:.6g}, v={V[i, j]:.6g})"
        )
    return float(w @ vals @ w)


def kendall_tau_concordance(u, v):
    """O(n log n) concordance estimator of Kendall's tau."""
    from scipy.stats import kendalltau

    return float(kendalltau(u, v).statistic)
