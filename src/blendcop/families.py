"""Ten parametric bivariate copula families.

Each family exposes the distribution function, density, log-density,
conditional distribution h(u, v) = P[V <= v | U = u], its inverse,
exact sampling, and a joint survival function P[U > u, V > v] that keeps
relative accuracy arbitrarily deep into the upper corner (needed by the
extremal-dependence diagnostics, where absolute-accuracy formulas like
1 - u - v + C(u, v) cancel catastrophically).

The joint survival has one of two sources. Eight families write it in
closed form. The Gaussian and Student t take the default of ``Copula``:
S by parts, S(u, v) = int_u^1 hbar(s, v) ds with the conditional
survival hbar = P[V > v | U = s], on the order-12 corner-refined rule
(168 nodes) mapped onto [u, 1], and C = u + v - 1 + S. Both write hbar
as the reflected conditional distribution, which does not round to 0
where h rounds to 1, so negatively correlated tails keep their relative
accuracy too. Against adaptive quadrature of the bivariate orthant at
every level down to 1 - r = 1.49e-8, S stays within 4.8e-8 relative for
the Gaussian (rho from -0.9 to 0.95, on and off the diagonal) and
within 1.1e-9 for student_t(+-0.5, 4).

Each family lists its parameters once, as (name, ``Domain``) pairs in
``param_domains``. The four domains (``CORRELATION``, ``POSITIVE``,
``ABOVE_ONE``, ``NONZERO``) are the one place that states a parameter's
range, checked on construction (NaN and inf fail), and the map the fit
searches it through.

Public entry points clamp their arguments to [CLAMP, 1 - CLAMP]; the
underscore methods assume arguments strictly inside (0, 1) and are used
by internal machinery that must reach closer to the corner than the
public clamp allows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats
from scipy.special import betainc, gammaln, ndtr, ndtri

from . import special
from .errors import EvaluationError, InputError, ParameterError, SamplingError
from .quadrature import toward_one

CLAMP = 1e-10
_NORMAL_MIN = np.finfo(float).tiny
#: Order of the corner-refined rule (168 nodes) of the by-parts ``_surv``.
#: On the chi of gaussian(0.5) down to 1 - r = 1.49e-8, orders 8, 10 and
#: 12 err by 2.2e-7, 1.3e-7 and 4.8e-8 relative.
_SURV_ORDER = 12


def clamp_unit(x):
    """Pull values into the open unit interval used for all evaluations."""
    return np.clip(np.asarray(x, dtype=float), CLAMP, 1.0 - CLAMP)


def _bisect_conditional(hfun, u, w):
    """Solve h(u, v) = w for v in [CLAMP, 1 - CLAMP] by 90 steps of
    vectorised bisection (h nondecreasing in v)."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    a = np.full(np.broadcast_shapes(u.shape, w.shape), CLAMP)
    b = np.full(a.shape, 1.0 - CLAMP)
    for _ in range(90):
        mid = 0.5 * (a + b)
        less = hfun(u, mid) < w
        a = np.where(less, mid, a)
        b = np.where(less, b, mid)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class Domain:
    """A parameter's range: its error text, a membership test
    (``p in domain``) and the fit's maps ``forward`` onto the real line
    and ``backward`` from it."""

    text: str
    holds: Callable[[float], bool]
    forward: Callable
    backward: Callable

    def __contains__(self, p):
        # each test is positive and comes after isfinite, so NaN and inf fail
        return math.isfinite(p) and self.holds(p)


CORRELATION = Domain("must lie in (-1, 1)", lambda p: -1.0 < p < 1.0, np.arctanh, np.tanh)
POSITIVE = Domain("must be positive", lambda p: p > 0.0, np.log, np.exp)
ABOVE_ONE = Domain(
    "must exceed 1", lambda p: p > 1.0, lambda p: np.log(p - 1.0), lambda z: 1.0 + np.exp(z)
)
NONZERO = Domain("must be nonzero", lambda p: p != 0.0, lambda p: p, lambda z: z)


class Copula:
    """Base class; subclasses define the closed forms of one family."""

    tag: str = ""
    #: (name, domain) of each parameter, in order.
    param_domains: tuple = ()
    #: C(u, v) = C(v, u), true of every family but coles_tawn with
    #: alpha != beta. A blend of two exchangeable families builds one
    #: margin for both axes.
    exchangeable: bool = True
    source = "single-copula"  # of its dependence curves

    def __init__(self, *params):
        if len(params) != len(self.param_domains):
            names = tuple(name for name, _ in self.param_domains)
            raise ParameterError(
                f"{self.tag} takes {len(names)} parameter(s) {names}, got {len(params)}"
            )
        self.params = tuple(float(p) for p in params)
        for (name, domain), p in zip(self.param_domains, self.params):
            if p not in domain:
                raise ParameterError(f"{self.tag} {name} {domain.text}, got {p}")

    # -- public API (clamped) -------------------------------------------
    def cdf(self, u, v):
        c = self._cdf(clamp_unit(u), clamp_unit(v))
        return np.clip(c, 0.0, 1.0)

    def pdf(self, u, v):
        return np.exp(self.logpdf(u, v))

    def logpdf(self, u, v):
        with np.errstate(divide="ignore", over="ignore"):
            out = self._logpdf(clamp_unit(u), clamp_unit(v))
        if np.any(np.isnan(out)):
            flat = int(np.argmax(np.isnan(np.ravel(np.atleast_1d(out)))))
            uu = np.ravel(np.broadcast_to(np.asarray(u, dtype=float), np.shape(out)))
            vv = np.ravel(np.broadcast_to(np.asarray(v, dtype=float), np.shape(out)))
            raise EvaluationError(
                f"{self.tag} density produced NaN at (u={uu[flat]:.6g}, v={vv[flat]:.6g})"
            )
        return out

    def cond_cdf(self, u, v):
        """h(u, v) = P[V <= v | U = u]."""
        return np.clip(self._h(clamp_unit(u), clamp_unit(v)), 0.0, 1.0)

    def cond_quantile(self, u, w):
        """Inverse of ``cond_cdf`` in its second argument."""
        u = clamp_unit(u)
        w = np.clip(np.asarray(w, dtype=float), 1e-14, 1.0 - 1e-14)
        return self._hinv(u, w)

    def survival(self, u, v):
        """P[U > u, V > v] with deep-corner relative accuracy."""
        return np.maximum(self._surv(clamp_unit(u), clamp_unit(v)), 0.0)

    def sample(self, n, rng):
        """n exact draws; a negative n raises ``InputError``."""
        if n < 0:
            raise InputError(f"sample size must be nonnegative, got {n}")
        return self._sample(n, rng)

    # -- internals (unclamped) -------------------------------------------
    def _sample(self, n, rng):
        """n draws by conditional inversion; a family with a cheaper
        latent representation overrides it."""
        u = rng.random(n)
        w = rng.random(n)
        v = self._hinv(clamp_unit(u), np.clip(w, 1e-14, 1 - 1e-14))
        return np.column_stack([u, v])

    def _cdf(self, u, v):
        """C = u + v - 1 + S, with S from ``_surv``. C inherits the
        absolute error of S, so it is accurate in absolute terms only:
        in the lower corner, where C itself is tiny, its relative error
        grows."""
        return u + v - 1.0 + self._surv(u, v)

    def _logpdf(self, u, v):
        raise NotImplementedError

    def _h(self, u, v):
        raise NotImplementedError

    def _h2(self, u, v):
        """P[U <= u | V = v]; the default h(v, u) holds where
        ``exchangeable`` does, and a family that is not overrides it."""
        return self._h(v, u)

    def _hinv(self, u, w):
        v = _bisect_conditional(self._h, u, w)
        if np.any(~np.isfinite(v)):
            bad = np.ravel(np.broadcast_to(u, np.shape(v)))[
                int(np.argmax(~np.isfinite(np.ravel(v))))
            ]
            raise SamplingError(f"{self} conditional inversion failed at u={bad}")
        return v

    def _hbar(self, u, v):
        """P[V > v | U = u]. A family overrides it where 1 - h would
        round to 0 while the conditional survival itself does not."""
        return 1.0 - self._h(u, v)

    def _surv(self, u, v):
        """S(u, v) = int_u^1 hbar(s, v) ds, by parts, on the order-12
        corner-refined rule mapped onto [u, 1], for all points at once.
        An exchangeable family integrates along the larger coordinate,
        since S(u, v) = S(v, u). The integrand is bounded, so S keeps its
        relative accuracy deep in the upper corner; ``_cdf`` built on it
        keeps only absolute accuracy."""
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        shape = u.shape
        if self.exchangeable:
            u, v = np.maximum(u, v), np.minimum(u, v)
        d = 1.0 - u.ravel()
        s, w = toward_one(d, _SURV_ORDER)
        # h at a node that underflows to 0 or 1 takes its limit value
        with np.errstate(divide="ignore", over="ignore"):
            cond_sf = self._hbar(s, v.ravel()[:, None])
        return (d * (cond_sf @ w)).reshape(shape)[()]

    # -- plumbing ----------------------------------------------------------
    def __repr__(self):
        inner = ",".join(format(p, ".12g") for p in self.params)
        return f"{self.tag}({inner})"

    def __eq__(self, other):
        return isinstance(other, Copula) and self.tag == other.tag and self.params == other.params

    def __hash__(self):
        return hash((self.tag, self.params))

    @property
    def n_params(self):
        return len(self.params)


# ---------------------------------------------------------------------------
# elliptical families
# ---------------------------------------------------------------------------
class Gaussian(Copula):
    tag = "gaussian"
    param_domains = (("rho", CORRELATION),)

    @property
    def rho(self):
        return self.params[0]

    def _logpdf(self, u, v):
        r = self.rho
        x = ndtri(u)
        y = ndtri(v)
        om = (1.0 - r) * (1.0 + r)
        return -0.5 * np.log(om) - (r * r * (x * x + y * y) - 2.0 * r * x * y) / (2.0 * om)

    def _cond_z(self, u, v):
        """Standardised v given U = u: h(u, v) = Phi(z), hbar = Phi(-z)."""
        r = self.rho
        return (ndtri(v) - r * ndtri(u)) / np.sqrt((1.0 - r) * (1.0 + r))

    def _h(self, u, v):
        return ndtr(self._cond_z(u, v))

    def _hbar(self, u, v):
        return ndtr(-self._cond_z(u, v))

    def _hinv(self, u, w):
        r = self.rho
        return ndtr(r * ndtri(u) + np.sqrt((1.0 - r) * (1.0 + r)) * ndtri(w))

    def _sample(self, n, rng):
        z = rng.standard_normal((n, 2))
        y = self.rho * z[:, 0] + np.sqrt(1.0 - self.rho**2) * z[:, 1]
        return np.column_stack([ndtr(z[:, 0]), ndtr(y)])


class StudentT(Copula):
    tag = "student_t"
    param_domains = (("rho", CORRELATION), ("nu", POSITIVE))

    def _logpdf(self, u, v):
        rho, nu = self.params
        x = stats.t.ppf(u, nu)
        y = stats.t.ppf(v, nu)
        om = (1.0 - rho) * (1.0 + rho)
        lognum = (nu + 1.0) / 2.0 * (np.log1p(x * x / nu) + np.log1p(y * y / nu))
        logden = (nu + 2.0) / 2.0 * np.log1p((x * x + y * y - 2.0 * rho * x * y) / (nu * om))
        const = (
            gammaln((nu + 2.0) / 2.0)
            + gammaln(nu / 2.0)
            - 2.0 * gammaln((nu + 1.0) / 2.0)
            - 0.5 * np.log(om)
        )
        return const + lognum - logden

    def _cond_z(self, u, v):
        """Standardised v given U = u, a t variate with nu + 1 degrees
        of freedom: h(u, v) = T(z), hbar = T(-z)."""
        rho, nu = self.params
        x = stats.t.ppf(u, nu)
        y = stats.t.ppf(v, nu)
        scale = np.sqrt((nu + x * x) / (nu + 1.0) * (1.0 - rho) * (1.0 + rho))
        return (y - rho * x) / scale

    def _h(self, u, v):
        return stats.t.cdf(self._cond_z(u, v), self.params[1] + 1.0)

    def _hbar(self, u, v):
        return stats.t.cdf(-self._cond_z(u, v), self.params[1] + 1.0)

    def _hinv(self, u, w):
        rho, nu = self.params
        x = stats.t.ppf(u, nu)
        scale = np.sqrt((nu + x * x) / (nu + 1.0) * (1.0 - rho) * (1.0 + rho))
        y = rho * x + scale * stats.t.ppf(w, nu + 1.0)
        return stats.t.cdf(y, nu)

    def _sample(self, n, rng):
        rho, nu = self.params
        z = rng.standard_normal((n, 2))
        y = rho * z[:, 0] + np.sqrt(1.0 - rho**2) * z[:, 1]
        s = np.sqrt(rng.chisquare(nu, n) / nu)
        return np.column_stack([stats.t.cdf(z[:, 0] / s, nu), stats.t.cdf(y / s, nu)])


# ---------------------------------------------------------------------------
# Archimedean families
# ---------------------------------------------------------------------------
class Frank(Copula):
    tag = "frank"
    param_domains = (("alpha", NONZERO),)

    def _parts(self, u, v):
        a = self.params[0]
        return -np.expm1(-a * u), -np.expm1(-a * v), -np.expm1(-a)

    def _cdf(self, u, v):
        a = self.params[0]
        eu, ev, D = self._parts(u, v)
        return -np.log1p(-eu * ev / D) / a

    def _logpdf(self, u, v):
        a = self.params[0]
        eu, ev, D = self._parts(u, v)
        return np.log(a * D) - a * (u + v) - 2.0 * np.log(np.abs(D - eu * ev))

    def _h(self, u, v):
        a = self.params[0]
        eu, ev, D = self._parts(u, v)
        return np.exp(-a * u) * ev / (D - eu * ev)

    def _hinv(self, u, w):
        a = self.params[0]
        eu = -np.expm1(-a * u)
        D = -np.expm1(-a)
        ev = w * D / (np.exp(-a * u) + w * eu)
        return -np.log1p(-ev) / a

    def _surv(self, u, v):
        # Frank is radially symmetric: P[U>u, V>v] = C(1-u, 1-v)
        return self._cdf(1.0 - u, 1.0 - v)


class Clayton(Copula):
    tag = "clayton"
    param_domains = (("alpha", POSITIVE),)

    def _wm1(self, u, v):
        # w - 1 where w = u^-a + v^-a - 1, computed without cancellation
        a = self.params[0]
        return np.expm1(-a * np.log(u)) + np.expm1(-a * np.log(v))

    def _cdf(self, u, v):
        a = self.params[0]
        return np.exp(-np.log1p(self._wm1(u, v)) / a)

    def _logpdf(self, u, v):
        a = self.params[0]
        return (
            np.log1p(a)
            - (a + 1.0) * (np.log(u) + np.log(v))
            - (2.0 + 1.0 / a) * np.log1p(self._wm1(u, v))
        )

    def _h(self, u, v):
        a = self.params[0]
        return np.exp(-(a + 1.0) * np.log(u) - (1.0 + 1.0 / a) * np.log1p(self._wm1(u, v)))

    def _hinv(self, u, w):
        a = self.params[0]
        t = np.exp(-a * np.log(u)) * np.expm1(-a / (1.0 + a) * np.log(w))
        return np.exp(-np.log1p(t) / a)

    def _surv(self, u, v):
        return (1.0 - u) + (1.0 - v) - (-np.expm1(-np.log1p(self._wm1(u, v)) / self.params[0]))


class Joe(Copula):
    tag = "joe"
    param_domains = (("alpha", ABOVE_ONE),)

    def _A(self, x, y):
        a = self.params[0]
        xa = x**a
        ya = y**a
        return xa + ya - xa * ya

    def _cdf(self, u, v):
        a = self.params[0]
        return -np.expm1(np.log(self._A(1.0 - u, 1.0 - v)) / a)

    def _logpdf(self, u, v):
        a = self.params[0]
        x = 1.0 - u
        y = 1.0 - v
        A = self._A(x, y)
        return (1.0 / a - 2.0) * np.log(A) + (a - 1.0) * (np.log(x) + np.log(y)) + np.log(a - 1.0 + A)

    def _h(self, u, v):
        a = self.params[0]
        x = 1.0 - u
        y = 1.0 - v
        A = self._A(x, y)
        return A ** (1.0 / a - 1.0) * x ** (a - 1.0) * (1.0 - y**a)

    def _surv(self, u, v):
        a = self.params[0]
        return (1.0 - u) + (1.0 - v) - self._A(1.0 - u, 1.0 - v) ** (1.0 / a)


# ---------------------------------------------------------------------------
# extreme-value families: C = exp(-ell(x, y)) with x = -log u, y = -log v
# ---------------------------------------------------------------------------
class _ExtremeValue(Copula):
    """Shared survival arithmetic for exponent-function copulas."""

    def _ell(self, x, y):
        raise NotImplementedError

    def _ell_slope(self, x, y, given):
        """(ell, d ell / d xy[given]) at (x, y), where xy = (x, y): the two
        share most of their arithmetic, which is done once."""
        raise NotImplementedError

    def _cdf(self, u, v):
        return np.exp(-self._ell(-np.log(u), -np.log(v)))

    def _h(self, u, v):
        return self._conditional(u, v, 0)

    def _h2(self, u, v):
        return self._conditional(u, v, 1)

    def _conditional(self, u, v, given):
        """``_h`` (``given`` = 0) or ``_h2`` (1): C dell/dx_given / u_given,
        0 where the given coordinate is 1 and 1 where the other one is."""
        xy = (-np.log(np.asarray(u, dtype=float)), -np.log(np.asarray(v, dtype=float)))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ell, slope = self._ell_slope(*xy, given)
            out = np.exp(-ell + xy[given]) * slope
        out = np.where(xy[given] == 0.0, 0.0, out)
        out = np.where(xy[1 - given] == 0.0, 1.0, out)
        return out if np.ndim(out) else float(out)

    def _surv(self, u, v):
        x = -np.log(np.asarray(u, dtype=float))
        y = -np.log(np.asarray(v, dtype=float))
        return np.expm1(-self._ell(x, y)) - np.expm1(-x) - np.expm1(-y)


class Gumbel(_ExtremeValue):
    tag = "gumbel"
    param_domains = (("alpha", ABOVE_ONE),)

    def _power_sum(self, x, y):
        """(m, q) with x^a + y^a = m^a q, so that ell = m q^(1/a).

        m is 1 where the sum is a normal number. Near (1, 1) it underflows
        once alpha exceeds about 40, and far from it it overflows; there
        m = max(x, y) and q = 1 + (min(x, y) / m)^a lies in [1, 2]. Only
        those entries are scaled: elsewhere x^a and y^a stay apart, so on
        a grid each is computed once per row or column."""
        a = self.params[0]
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):
            q = np.asarray(x**a + y**a)
        odd = ~((q >= _NORMAL_MIN) & (q < np.inf))
        if not np.any(odd):
            return 1.0, q
        m = np.ones_like(q)
        xs, ys = (np.broadcast_to(z, q.shape)[odd] for z in (x, y))
        m[odd] = big = np.maximum(xs, ys)
        ratio = np.divide(np.minimum(xs, ys), big, out=np.zeros(big.shape), where=big > 0.0)
        q[odd] = 1.0 + ratio**a
        return m, q

    def _ell(self, x, y):
        m, q = self._power_sum(x, y)
        return m * q ** (1.0 / self.params[0])

    def _ell_slope(self, x, y, given):
        # d ell / dx = (x / ell)^(a - 1) = (x / m)^(a - 1) q^(1/a - 1)
        a = self.params[0]
        m, q = self._power_sum(x, y)
        return m * q ** (1.0 / a), ((x, y)[given] / m) ** (a - 1.0) * q ** (1.0 / a - 1.0)

    def _logpdf(self, u, v):
        a = self.params[0]
        x = -np.log(u)
        y = -np.log(v)
        s = self._ell(x, y)
        return (
            -s
            + x
            + y
            + (a - 1.0) * (np.log(x) + np.log(y))
            + (1.0 - 2.0 * a) * np.log(s)
            + np.log(s + a - 1.0)
        )


class InvertedGumbel(Copula):
    tag = "inverted_gumbel"
    param_domains = (("alpha", ABOVE_ONE),)

    def __init__(self, *params):
        super().__init__(*params)
        self._base = Gumbel(*params)

    def _cdf(self, u, v):
        x = -np.log1p(-u)
        y = -np.log1p(-v)
        return u + v + np.expm1(-self._base._ell(x, y))

    def _logpdf(self, u, v):
        return self._base._logpdf(1.0 - u, 1.0 - v)

    def _h(self, u, v):
        return 1.0 - self._base._h(1.0 - u, 1.0 - v)

    def _surv(self, u, v):
        return self._base._cdf(1.0 - u, 1.0 - v)


class HuslerReiss(_ExtremeValue):
    tag = "husler_reiss"
    param_domains = (("alpha", POSITIVE),)

    def _z(self, x, y):
        a = self.params[0]
        return 1.0 / a + 0.5 * a * np.log(x / y)

    def _ell(self, x, y):
        return self._ell_slope(x, y, 0)[0]

    def _ell_slope(self, x, y, given):
        # ell = x Phi(z(x, y)) + y Phi(z(y, x)), whose slopes are the Phi
        slopes = ndtr(self._z(x, y)), ndtr(self._z(y, x))
        return x * slopes[0] + y * slopes[1], slopes[given]

    def _logpdf(self, u, v):
        a = self.params[0]
        x = -np.log(u)
        y = -np.log(v)
        z1 = self._z(x, y)
        p1, p2 = ndtr(z1), ndtr(self._z(y, x))
        bracket = p1 * p2 + 0.5 * a / y * special.norm_pdf(z1)
        return -(x * p1 + y * p2) + x + y + np.log(bracket)


class Galambos(_ExtremeValue):
    tag = "galambos"
    param_domains = (("alpha", POSITIVE),)

    def _logG(self, x, y):
        a = self.params[0]
        return np.logaddexp(-a * np.log(x), -a * np.log(y))

    def _ell(self, x, y):
        a = self.params[0]
        return x + y - np.exp(-self._logG(x, y) / a)

    def _ell_slope(self, x, y, given):
        a = self.params[0]
        log_g = self._logG(x, y)
        slope = 1.0 - np.exp(-(1.0 + 1.0 / a) * log_g - (a + 1.0) * np.log((x, y)[given]))
        return x + y - np.exp(-log_g / a), slope

    def _logpdf(self, u, v):
        a = self.params[0]
        x = -np.log(u)
        y = -np.log(v)
        logG = self._logG(x, y)
        A1 = np.exp(-(1.0 + 1.0 / a) * logG - (a + 1.0) * np.log(x))
        A2 = np.exp(-(1.0 + 1.0 / a) * logG - (a + 1.0) * np.log(y))
        T = (1.0 + a) * np.exp(-(2.0 + 1.0 / a) * logG - (a + 1.0) * (np.log(x) + np.log(y)))
        return -self._ell(x, y) + x + y + np.log((1.0 - A1) * (1.0 - A2) + T)


class ColesTawn(_ExtremeValue):
    """Asymmetric extreme-value family driven by a Dirichlet spectral density.

    The exponent mixes regularised incomplete beta functions evaluated at
    q = alpha*y / (alpha*y + beta*x); at beta = alpha it reduces to a
    symmetric model.
    """

    tag = "coles_tawn"
    param_domains = (("alpha", POSITIVE), ("beta", POSITIVE))

    @property
    def exchangeable(self):
        a, b = self.params
        return a == b

    def _q(self, x, y):
        a, b = self.params
        den = a * y + b * x
        return a * y / den, b * x / den

    def _ell(self, x, y):
        return self._ell_slope(x, y, 0)[0]

    def _ell_slope(self, x, y, given):
        # ell = x W1 + y W2, whose slopes are W1 and W2
        a, b = self.params
        q, _ = self._q(x, y)
        slopes = 1.0 - betainc(a + 1.0, b, q), betainc(a, b + 1.0, q)
        return x * slopes[0] + y * slopes[1], slopes[given]

    def _logpdf(self, u, v):
        a, b = self.params
        x = -np.log(u)
        y = -np.log(v)
        q, one_m_q = self._q(x, y)
        W1 = 1.0 - betainc(a + 1.0, b, q)
        W2 = betainc(a, b + 1.0, q)
        log_t = (
            np.log(a * b)
            + gammaln(a + b + 1.0)
            - gammaln(a)
            - gammaln(b)
            + (a - 1.0) * np.log(q)
            + (b - 1.0) * np.log(one_m_q)
            + np.log(x)
            + np.log(y)
            - 3.0 * np.log(a * y + b * x)
        )
        return -(x * W1 + y * W2) + x + y + np.log(W1 * W2 + np.exp(log_t))


FAMILIES = {
    cls.tag: cls
    for cls in (
        Gaussian,
        StudentT,
        Frank,
        Clayton,
        Joe,
        Gumbel,
        InvertedGumbel,
        HuslerReiss,
        Galambos,
        ColesTawn,
    )
}


def family_class(tag: str) -> type[Copula]:
    """The family registered under ``tag``; an unknown tag raises
    ``ParameterError`` listing the valid ones."""
    if tag not in FAMILIES:
        raise ParameterError(
            f"unknown copula family {tag!r}; valid tags: {', '.join(sorted(FAMILIES))}"
        )
    return FAMILIES[tag]


def make_copula(tag: str, params) -> Copula:
    return family_class(tag)(*params)


def parse_copula(text: str) -> Copula:
    """Parse interface strings like ``gumbel(2)`` or ``student_t(0.5,4)``."""
    text = text.strip()
    if not text.endswith(")") or "(" not in text:
        raise ParameterError(
            f"cannot parse copula spec {text!r}; expected tag(p1[,p2]) with tag in "
            f"{', '.join(sorted(FAMILIES))}"
        )
    tag, argstr = text[:-1].split("(", 1)
    try:
        params = [float(s) for s in argstr.split(",")] if argstr.strip() else []
    except ValueError as exc:
        raise ParameterError(f"bad numeric parameter in {text!r}") from exc
    return make_copula(tag.strip(), params)
