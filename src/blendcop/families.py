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
survival hbar = P[V > v | U = s], on an order-12 rule mapped onto
[u, 1] by ``quadrature.toward_one`` (u the larger coordinate), and
C = u + v - 1 + S. Where u >= 1/2 the rule is refined toward the corner
only (96 nodes), elsewhere toward both ends (168 nodes). Both write hbar
as the reflected conditional distribution, which does not round to 0
where h rounds to 1, so negatively correlated tails keep their relative
accuracy too. Against adaptive quadrature of the bivariate orthant at
every level down to 1 - r = 1.49e-8, S stays within 4.8e-8 relative for
the Gaussian (rho from -0.9 to 0.95, on and off the diagonal) and
within 1.1e-9 for student_t(+-0.5, 4); the two-sided rule alone gives
the same two figures.

Each family, and each weighting of ``weighting``, lists its parameters
once, as (name, ``Domain``) pairs in ``param_domains`` of its
``Parametric`` base. The four domains (``CORRELATION``, ``POSITIVE``,
``ABOVE_ONE``, ``NONZERO``) are the one place that states a parameter's
range, checked on construction (NaN and inf fail), and the map the fit
searches it through. Beside them a class states its fit's default
``start`` for the data's Kendall's tau. ``Parametric`` also gives both
kinds their repr, equality and hash, and ``lookup`` and ``parse_spec``
their registry lookup and their ``tag(p1[,p2])`` spec parser.

Every model, a family here or a blend of ``blend``, answers through one
base, ``Model``: ``pdf``, ``logpdf``, ``cdf``, ``survival`` and
``sample``. It rejects a point argument that is NaN or lies outside
[0, 1] with ``InputError`` (``unit_points``), clamps the others to
[CLAMP, 1 - CLAMP] and hands them to the model's underscore methods,
which assume arguments strictly inside (0, 1) and are used by internal
machinery that must reach closer to the corner than the public clamp
allows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import betainc, betaincinv, betaln, gammaln, ndtr, ndtri, stdtr, stdtrit

from . import special
from .errors import EvaluationError, InputError, ParameterError
from .quadrature import NORMAL_MIN, toward_one

CLAMP = 1e-10
#: Order of the mapped rules of the by-parts ``_surv``: 96 nodes refined
#: toward the corner only, 168 on the two-sided rule. On the chi of
#: gaussian(0.5) down to 1 - r = 1.49e-8, orders 8, 10 and 12 err by
#: 2.2e-7, 1.3e-7 and 4.8e-8 relative, as on the two-sided rule alone.
_SURV_ORDER = 12


def unit_points(x, name="point"):
    """x as a float array; NaN or a value outside [0, 1] raises
    ``InputError`` naming ``name``, how many there are and the first."""
    x = np.asarray(x, dtype=float)
    # NaN passes through min and max, and fails both tests
    if not (0.0 <= x.min(initial=0.0) and x.max(initial=1.0) <= 1.0):
        bad = ~((x >= 0.0) & (x <= 1.0))
        raise InputError(
            f"{name} must lie in [0, 1]: {np.count_nonzero(bad)} value(s) NaN or "
            f"outside, the first {first_bad(bad, x)[0]!r}"
        )
    return x


def first_bad(bad, *coords):
    """The values of ``coords``, each broadcast to the shape of the mask
    ``bad``, at its first True in C order, as floats: the point that an
    error message names."""
    i = int(np.argmax(np.ravel(bad)))
    return tuple(float(np.broadcast_to(c, np.shape(bad)).flat[i]) for c in coords)


def whole_number(n, least, need):
    """n if it is an integer >= ``least``, else ``InputError`` saying ``need``."""
    if isinstance(n, (int, np.integer)) and n >= least:
        return n
    raise InputError(f"{need}, a whole number, got {n!r}")


def clamp_unit(x, name="point"):
    """``unit_points``, pulled into the open unit interval used for all
    evaluations."""
    return np.clip(unit_points(x, name), CLAMP, 1.0 - CLAMP)


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


class Parametric:
    """A tagged object with a fixed list of parameters, each in its
    ``Domain``: a copula family or a weighting. Its tag and parameters
    make its repr, which ``parse_spec`` reads back, and its identity."""

    tag: str = ""
    #: (name, domain) of each parameter, in order.
    param_domains: tuple = ()
    #: Each parameter's default fit start, unless ``start`` is overridden.
    _start = 1.0

    def __init__(self, *params):
        if len(params) != len(self.param_domains):
            names = tuple(name for name, _ in self.param_domains)
            raise ParameterError(
                f"{self.tag} takes {len(names)} parameter(s) {names}, got {len(params)}"
            )
        try:
            self.params = tuple(float(p) for p in params)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"{self.tag} parameters must be numbers, got {params!r}") from exc
        for (name, domain), p in zip(self.param_domains, self.params):
            if p not in domain:
                raise ParameterError(f"{self.tag} {name} {domain.text}, got {p}")

    @classmethod
    def start(cls, tau):
        """The default start of a fit to data of Kendall's tau ``tau``."""
        return (cls._start,) * len(cls.param_domains)

    @property
    def n_params(self):
        return len(self.params)

    def __repr__(self):
        inner = ",".join(format(p, ".12g") for p in self.params)
        return f"{self.tag}({inner})"

    def __eq__(self, other):
        return isinstance(other, Parametric) and self.tag == other.tag and self.params == other.params

    def __hash__(self):
        return hash((self.tag, self.params))


def lookup(registry, kind, tag):
    """The class registered under ``tag`` in ``registry``, a dict of
    ``kind`` ("copula family" or "weighting"); an unknown tag raises
    ``ParameterError`` listing the valid ones."""
    if tag not in registry:
        raise ParameterError(f"unknown {kind} {tag!r}; valid tags: {', '.join(sorted(registry))}")
    return registry[tag]


def parse_spec(registry, kind, text):
    """Build the ``kind`` that a spec like ``gumbel(2)``,
    ``student_t(0.5,4)`` or ``power(1.5)`` names in ``registry``."""
    text = text.strip()
    if not text.endswith(")") or "(" not in text:
        raise ParameterError(
            f"cannot parse {kind} spec {text!r}; expected tag(p1[,p2]) with tag in "
            f"{', '.join(sorted(registry))}"
        )
    tag, argstr = text[:-1].split("(", 1)
    try:
        params = [float(s) for s in argstr.split(",")] if argstr.strip() else []
    except ValueError as exc:
        raise ParameterError(f"bad numeric parameter in {text!r}") from exc
    return lookup(registry, kind, tag.strip())(*params)


class Model:
    """The public answers of every model, a copula family or a blend: the
    density, the log-density, the CDF, the joint survival P[U > u, V > v]
    and draws. Each checks and clamps its points (``clamp_unit``) or its
    sample size (``whole_number``) and calls the private method that the
    model states, ``_clamped_logpdf``, ``_cdf``, ``_surv`` or
    ``_sample``; the CDF is clipped to [0, 1] and the survival floored
    at 0."""

    def pdf(self, u, v):
        """The copula density c(u, v), exp of ``logpdf``."""
        return np.exp(self.logpdf(u, v))

    def logpdf(self, u, v):
        """log c(u, v)."""
        return self._clamped_logpdf(clamp_unit(u), clamp_unit(v))

    def cdf(self, u, v):
        """C(u, v) = P[U <= u, V <= v]."""
        return np.clip(self._cdf(clamp_unit(u), clamp_unit(v)), 0.0, 1.0)

    def survival(self, u, v):
        """P[U > u, V > v] with deep-corner relative accuracy."""
        return np.maximum(self._surv(clamp_unit(u), clamp_unit(v)), 0.0)

    def sample(self, n, rng):
        """n draws, an (n, 2) array; an n that is not a whole number >= 0
        raises ``InputError``."""
        return self._sample(whole_number(n, 0, "the sample size must be nonnegative"), rng)


class Copula(Parametric, Model):
    """Base class; subclasses define the closed forms of one family."""

    source = "single-copula"  # of its dependence curves

    def transposed(self) -> "Copula":
        """The copula of (V, U), C^T(u, v) = C(v, u) (Nelsen 2006, 2.7),
        whose ``_h(v, u)`` is P[U <= u | V = v]: all but coles_tawn with
        alpha != beta are their own."""
        return self

    @property
    def exchangeable(self) -> bool:
        """C(u, v) = C(v, u); a blend of two such builds one margin."""
        return self.transposed() == self

    # -- conditional answers (clamped), which a blend does not give yet --
    def cond_cdf(self, u, v):
        """h(u, v) = P[V <= v | U = u]."""
        return np.clip(self._h(clamp_unit(u), clamp_unit(v)), 0.0, 1.0)

    def cond_quantile(self, u, w):
        """Inverse of ``cond_cdf`` in its second argument."""
        u = clamp_unit(u)
        w = np.clip(unit_points(w, "conditional level"), 1e-14, 1.0 - 1e-14)
        return self._hinv(u, w)

    # -- internals (unclamped) -------------------------------------------
    def _clamped_logpdf(self, u, v):
        """``logpdf`` at points already in [CLAMP, 1 - CLAMP], as a
        ``Dataset``'s are, which it does not check again; a NaN density
        raises ``EvaluationError``."""
        with np.errstate(divide="ignore", over="ignore"):
            out = self._logpdf(u, v)
        if np.isnan(out).any():
            uu, vv = first_bad(np.isnan(out), u, v)
            raise EvaluationError(f"{self.tag} density produced NaN at (u={uu:.6g}, v={vv:.6g})")
        return out

    def _sample(self, n, rng):
        """n draws by conditional inversion; a family with a cheaper
        latent representation overrides it."""
        u = rng.random(n)
        v = self.cond_quantile(u, rng.random(n))
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

    def _hinv(self, u, w):
        """Solve h(u, v) = w for v in [CLAMP, 1 - CLAMP] by 90 steps of
        vectorised bisection, h being nondecreasing in v; a family with a
        closed form overrides it. Every step halves a bracket of finite
        ends, so v is finite."""
        a = np.full(np.broadcast_shapes(np.shape(u), np.shape(w)), CLAMP)
        b = np.full(a.shape, 1.0 - CLAMP)
        for _ in range(90):
            mid = 0.5 * (a + b)
            less = self._h(u, mid) < w
            a = np.where(less, mid, a)
            b = np.where(less, b, mid)
        return 0.5 * (a + b)

    def _hbar(self, u, v):
        """P[V > v | U = u]. A family overrides it where 1 - h would
        round to 0 while the conditional survival itself does not."""
        return 1.0 - self._h(u, v)

    def _surv(self, u, v):
        """S(u, v) = int_u^1 hbar(s, v) ds, by parts, on an order-12 rule
        mapped onto [u, 1] by ``toward_one``: refined toward the corner
        only where u >= 1/2, toward both ends elsewhere. An exchangeable
        family integrates along the larger coordinate, since S(u, v) =
        S(v, u). Points are grouped by rule and each point's sum is its
        own product, so its value does not depend on its batch. The
        integrand is bounded, so S keeps its relative accuracy deep in the
        upper corner; ``_cdf`` built on it keeps only absolute accuracy."""
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        shape = u.shape
        if self.exchangeable:
            u, v = np.maximum(u, v), np.minimum(u, v)
        d, v = 1.0 - u.ravel(), v.ravel()
        out = np.empty(d.size)
        # h at a node that underflows to 0 or 1 takes its limit value
        with np.errstate(divide="ignore", over="ignore"):
            for i, s, w in toward_one(d, _SURV_ORDER):
                cond_sf = self._hbar(s[:, None, :], v[i, None, None])
                # one product per point, so a point's value does not depend on its batch
                out[i] = d[i] * (cond_sf @ w)[:, 0]
        return out.reshape(shape)[()]


# ---------------------------------------------------------------------------
# elliptical families
# ---------------------------------------------------------------------------
class Gaussian(Copula):
    tag = "gaussian"
    param_domains = (("rho", CORRELATION),)

    @classmethod
    def start(cls, tau):
        # the inverse of tau = 2 arcsin(rho) / pi (Lindskog, McNeil & Schmock
        # 2003), clipped to +-0.95 so that it lies in the domain at |tau| = 1
        return (float(np.clip(np.sin(0.5 * np.pi * tau), -0.95, 0.95)),)

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

    @classmethod
    def start(cls, tau):
        return (*Gaussian.start(tau), 5.0)  # tau(rho) does not depend on nu

    # The t CDF and quantile are scipy.special's stdtr and stdtrit, the
    # kernels under scipy.stats.t, with the same values strictly inside
    # (0, 1) down to ``_T_LOWER_TAIL``. scipy.stats.t's argument handling costs more than the
    # kernels on the small grids that a blend's outer-panel root
    # evaluates: on a 2-core VM, t.ppf at 32 nodes took about 107 us and
    # stdtrit 3 us.

    def _logpdf(self, u, v):
        rho, nu = self.params
        x = _t_quantile(nu, u)
        y = _t_quantile(nu, v)
        om = (1.0 - rho) * (1.0 + rho)
        const = (
            gammaln((nu + 2.0) / 2.0)
            + gammaln(nu / 2.0)
            - 2.0 * gammaln((nu + 1.0) / 2.0)
            - 0.5 * np.log(om)
        )
        # beyond |c| = _T_SQUARE_MAX a square would overflow: there
        # log1p(c^2 / nu) is 2 log |c| - log nu, and the joint term divides
        # x and y by s = max(|x|, |y|). A quantile beyond the doubles
        # (nu < 2) takes log |c| from ``_t_log_far`` and its ratio to s
        # from logs
        s = np.maximum(np.abs(x), np.abs(y))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_x, log_y = (
                np.where(np.isinf(c), _t_log_far(nu, p), np.log(np.abs(c))) for c, p in ((x, u), (y, v))
            )
            lx, ly = (
                np.where(np.abs(c) > _T_SQUARE_MAX, 2.0 * log_c - np.log(nu), np.log1p(c * c / nu))
                for c, log_c in ((x, log_x), (y, log_y))
            )
            log_s = np.maximum(log_x, log_y)
            a, b = (
                np.where(np.isinf(s), np.sign(c) * np.exp(log_c - log_s), c / s)
                for c, log_c in ((x, log_x), (y, log_y))
            )
            far = (nu + 2.0) * log_s + (nu + 2.0) / 2.0 * np.log(
                (a * a + b * b - 2.0 * rho * a * b) / (nu * om)
            )
            logden = (nu + 2.0) / 2.0 * np.log1p((x * x + y * y - 2.0 * rho * x * y) / (nu * om))
        return const + (nu + 1.0) / 2.0 * (lx + ly) - np.where(s > _T_SQUARE_MAX, far, logden)

    def _cond_frame(self, x):
        """(m, s, r) such that, given U's t quantile x, V's t quantile is
        r (m + s z) with z a t variate of nu + 1 degrees of freedom.
        Beyond |x| = ``_T_SQUARE_MAX`` x * x would overflow, and nu is
        negligible beside it, so r = |x| is factored out there; elsewhere
        r = 1. Where x is -inf (nu < 2 at the smallest levels), m and s
        keep their limits."""
        rho, nu = self.params
        big = np.abs(x) > _T_SQUARE_MAX
        near = np.where(big, 0.0, x)
        return (
            np.where(big, rho * np.sign(x), rho * near),
            np.where(
                big,
                np.sqrt((1.0 - rho) * (1.0 + rho) / (nu + 1.0)),
                np.sqrt((nu + near * near) / (nu + 1.0) * (1.0 - rho) * (1.0 + rho)),
            ),
            np.where(big, np.abs(x), 1.0),
        )

    def _cond_z(self, u, v):
        """Standardised v given U = u, a t variate with nu + 1 degrees
        of freedom: h(u, v) = T(z), hbar = T(-z)."""
        m, s, r = self._cond_frame(_t_quantile(self.params[1], u))
        with np.errstate(divide="ignore", invalid="ignore"):
            return (_t_quantile(self.params[1], v) / r - m) / s

    def _h(self, u, v):
        return stdtr(self.params[1] + 1.0, self._cond_z(u, v))

    def _hbar(self, u, v):
        return stdtr(self.params[1] + 1.0, -self._cond_z(u, v))

    def _hinv(self, u, w):
        nu = self.params[1]
        m, s, r = self._cond_frame(_t_quantile(nu, u))
        with np.errstate(over="ignore", invalid="ignore"):
            return _t_cdf(nu, r * (m + s * _t_quantile(nu + 1.0, w)))

    def _sample(self, n, rng):
        rho, nu = self.params
        z = rng.standard_normal((n, 2))
        y = rho * z[:, 0] + np.sqrt(1.0 - rho**2) * z[:, 1]
        s = np.sqrt(rng.chisquare(nu, n) / nu)
        return np.column_stack([stdtr(nu, z[:, 0] / s), stdtr(nu, y / s)])


#: Below this level the t quantile comes from the lower tail's
#: incomplete-beta form, not ``stdtrit``, which stops near -1e53 from
#: about 1e-136 at nu = 2.5 and turns +inf below 1.2e-270 at nu = 5.
#: Against 40-digit mpmath, for nu from 2 to 100, T(x) / p - 1 stays
#: within 3.4e-13 for ``stdtrit`` above it and within 1.5e-14 for the
#: beta form below it, down to the smallest normal double.
_T_LOWER_TAIL = 1e-100
#: For nu < 2 the t quantile passes -1e153 at normal levels, where
#: ``stdtrit`` stops (at -4.74e153 for nu = 0.5, from p = 1e-80) or turns
#: -inf (nu = 1, from p = 1e-200), and z = nu / (nu + x^2) of the beta
#: form underflows. Beyond -1e100 it comes from log z instead: there
#: 2 p = I_z(nu / 2, 1 / 2) is z^(nu/2) / (nu/2 B(nu/2, 1/2)) to within
#: z < 1e-199 relative. Against 40-digit mpmath, for nu in {0.3, 0.5, 1,
#: 1.5, 1.9, 1.99}, T(x) / p - 1 stays within 2.1e-13 beyond it, down to
#: the smallest normal double, and within 6.7e-16 for ``stdtrit`` short
#: of it.
_T_FAR = 1e100
#: Beyond this |x| the t quantile is not squared (``StudentT._logpdf`` and
#: ``StudentT._cond_frame``).
_T_SQUARE_MAX = 1e150


def _t_quantile(nu, p):
    """Quantile of Student's t with nu degrees of freedom at levels p in
    [0, 1]. Below ``_T_LOWER_TAIL``, x solves 2 p = I_z(nu / 2, 1 / 2)
    with z = nu / (nu + x^2); for nu < 2, x beyond -``_T_FAR`` comes from
    that equation's leading term in logs, and beyond ``_T_FAR`` from the
    same at 1 - p, where ``stdtrit`` stops too (6.7e152 for nu = 0.01 at
    p = 0.999, against 3.96e268). Either also gives p = 0 the
    quantile's -inf, where ``stdtrit`` gives +inf: a power weighting of
    small theta has v-nodes that underflow to 0."""
    p = np.asarray(p, dtype=float)
    x = np.asarray(stdtrit(nu, p))
    if nu < 2.0:
        log_x = _t_log_far(nu, p)
        far = log_x > np.log(_T_FAR)
        # beyond the doubles x = -inf, or +inf
        with np.errstate(over="ignore"):
            x[far] = np.copysign(np.exp(log_x[far]), p[far] - 0.5)
        return x
    tiny = p < _T_LOWER_TAIL
    if tiny.any():
        # z is 0 at p = 0, and underflows where the quantile is beyond
        # the doubles: x = -inf
        with np.errstate(divide="ignore", over="ignore"):
            z = betaincinv(0.5 * nu, 0.5, 2.0 * p[tiny])
            x[tiny] = -np.sqrt(nu * (1.0 / z - 1.0))
    return x


def _t_log_far(nu, p):
    """log |x| of the t quantile x at levels p from the leading term of
    2 q = I_z(nu / 2, 1 / 2), q = min(p, 1 - p) and z = nu / (nu + x^2),
    in logs: (log nu - log z) / 2 with 1 - z rounding to 1. Finite where
    x is beyond the doubles, and +inf at p = 0 and 1; 1 - p is exact
    where it is the smaller."""
    a = 0.5 * nu
    with np.errstate(divide="ignore"):
        log_z = (np.log(2.0 * np.minimum(p, 1.0 - p)) + np.log(a) + betaln(a, 0.5)) / a
    return 0.5 * (np.log(nu) - log_z)


def _t_cdf(nu, x):
    """CDF of Student's t with nu degrees of freedom: ``stdtr``, which is 0
    beyond x = -1.34e154, where x^2 overflows. Beyond -``_T_SQUARE_MAX``
    it comes from log z, z = nu / (nu + x^2), as in ``_t_quantile``:
    p = z^(nu/2) / (nu B(nu/2, 1/2)) to within z < 1e-299 relative."""
    a = 0.5 * nu
    with np.errstate(divide="ignore", over="ignore"):
        far = np.exp(a * (np.log(nu) - 2.0 * np.log(np.abs(x))) - np.log(nu) - betaln(a, 0.5))
    return np.where(x < -_T_SQUARE_MAX, far, stdtr(nu, x))[()]


# ---------------------------------------------------------------------------
# Archimedean families
# ---------------------------------------------------------------------------
class Frank(Copula):
    tag = "frank"
    param_domains = (("alpha", NONZERO),)

    @classmethod
    def start(cls, tau):
        # NONZERO's map is the identity, so z = 0 is alpha = 0 and scores
        # -inf. No continuous map of the real line onto the nonzero reals
        # reaches both signs; a search lands on 0 only by hitting it exactly.
        return (9.0 * tau if abs(tau) > 0.06 else (0.5 if tau >= 0 else -0.5),)

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
    _start = 1.5

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
    _start = 1.5

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
        """ell(x, y); a family with a cheaper form overrides it."""
        return self._ell_slope(x, y)[0]

    def _ell_slope(self, x, y):
        """(ell, d ell / dx) at (x, y): the two share most of their
        arithmetic, which is done once."""
        raise NotImplementedError

    def _cdf(self, u, v):
        return np.exp(-self._ell(-np.log(u), -np.log(v)))

    def _h(self, u, v):
        """C dell/dx / u, 0 where u is 1 and 1 where v is."""
        x, y = -np.log(np.asarray(u, dtype=float)), -np.log(np.asarray(v, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ell, slope = self._ell_slope(x, y)
            out = np.exp(-ell + x) * slope
        # the ends are found on the coordinates, before a pass over the grid
        for coord, end in ((x, 0.0), (y, 1.0)):
            at_end = coord == 0.0
            if at_end.any():
                out = np.where(at_end, end, out)
        return out if np.ndim(out) else float(out)

    def _surv(self, u, v):
        x = -np.log(np.asarray(u, dtype=float))
        y = -np.log(np.asarray(v, dtype=float))
        return np.expm1(-self._ell(x, y)) - np.expm1(-x) - np.expm1(-y)


class Gumbel(_ExtremeValue):
    tag = "gumbel"
    param_domains = (("alpha", ABOVE_ONE),)
    _start = 1.5

    def _power_sum(self, x, y):
        """(m, q) with x^a + y^a = m^a q, so that ell = m q^(1/a).

        m is 1 where the sum is a normal number. Near (1, 1) it underflows
        once alpha exceeds about 40, and far from it it overflows; there
        m = max(x, y) and q = 1 + (min(x, y) / m)^a lies in [1, 2]. Only
        those entries are scaled: elsewhere x^a and y^a stay apart, so on
        a grid each is computed once per row or column. Its callers
        (``_ell``, and ``_ell_slope`` under ``_h``) ignore the overflow,
        so a call of ``_h`` sets the error state once."""
        a = self.params[0]
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        q = np.asarray(x**a + y**a)
        # two reductions decide; NaN fails them, as it fails the mask
        if q.min(initial=1.0) >= NORMAL_MIN and q.max(initial=1.0) < np.inf:
            return 1.0, q
        odd = ~((q >= NORMAL_MIN) & (q < np.inf))
        m = np.ones_like(q)
        xs, ys = (np.broadcast_to(z, q.shape)[odd] for z in (x, y))
        m[odd] = big = np.maximum(xs, ys)
        ratio = np.divide(np.minimum(xs, ys), big, out=np.zeros(big.shape), where=big > 0.0)
        q[odd] = 1.0 + ratio**a
        return m, q

    def _ell(self, x, y):
        with np.errstate(over="ignore"):
            m, q = self._power_sum(x, y)
        return m * q ** (1.0 / self.params[0])

    def _ell_slope(self, x, y):
        # d ell / dx = (x / ell)^(a - 1) = (x / m)^(a - 1) q^(1/a - 1)
        a = self.params[0]
        m, q = self._power_sum(x, y)
        return m * q ** (1.0 / a), (x / m) ** (a - 1.0) * q ** (1.0 / a - 1.0)

    def _logpdf(self, u, v):
        return self._logpdf_at(-np.log(u), -np.log(v))

    def _logpdf_at(self, x, y):
        """log c at u = exp(-x), v = exp(-y)."""
        a = self.params[0]
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
    """The survival copula of Gumbel, C(u, v) = u + v - 1 + C_G(1 - u,
    1 - v), with lower-tail dependence. Its density is Gumbel's at
    (1 - u, 1 - v), read at x = -log1p(-u) and y = -log1p(-v), as its CDF
    is: -log(1 - u) would lose u's digits near 0."""

    tag = "inverted_gumbel"
    param_domains = (("alpha", ABOVE_ONE),)
    _start = 1.5

    def __init__(self, *params):
        super().__init__(*params)
        self._base = Gumbel(*params)

    def _cdf(self, u, v):
        x = -np.log1p(-u)
        y = -np.log1p(-v)
        return u + v + np.expm1(-self._base._ell(x, y))

    def _logpdf(self, u, v):
        return self._base._logpdf_at(-np.log1p(-u), -np.log1p(-v))

    def _h(self, u, v):
        return 1.0 - self._base._h(1.0 - u, 1.0 - v)

    def _hbar(self, u, v):
        # Gumbel's own h, not 1 - h: 1 - (1 - h) would lose h's digits
        return self._base._h(1.0 - u, 1.0 - v)

    def _surv(self, u, v):
        return self._base._cdf(1.0 - u, 1.0 - v)


class HuslerReiss(_ExtremeValue):
    tag = "husler_reiss"
    param_domains = (("alpha", POSITIVE),)

    def _z(self, x, y):
        a = self.params[0]
        return 1.0 / a + 0.5 * a * np.log(x / y)

    def _ell_slope(self, x, y):
        # ell = x Phi(z(x, y)) + y Phi(z(y, x)), whose slope in x is the first Phi
        slope = ndtr(self._z(x, y))
        return x * slope + y * ndtr(self._z(y, x)), slope

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

    def _ell_slope(self, x, y):
        a = self.params[0]
        log_g = self._logG(x, y)
        slope = 1.0 - np.exp(-(1.0 + 1.0 / a) * log_g - (a + 1.0) * np.log(x))
        return x + y - np.exp(-log_g / a), slope

    def _logpdf(self, u, v):
        a = self.params[0]
        x = -np.log(u)
        y = -np.log(v)
        logG = self._logG(x, y)
        # 1 - A1 with A1 = (1 + (x/y)^a)^(-1 - 1/a), and 1 - A2 with x and
        # y swapped, from expm1: near a corner A1 rounds to 1, and 1 - A1
        # would come out 0 or negative
        log_ratio = a * (np.log(x) - np.log(y))
        one_m_a1 = -np.expm1(-(1.0 + 1.0 / a) * np.logaddexp(0.0, log_ratio))
        one_m_a2 = -np.expm1(-(1.0 + 1.0 / a) * np.logaddexp(0.0, -log_ratio))
        T = (1.0 + a) * np.exp(-(2.0 + 1.0 / a) * logG - (a + 1.0) * (np.log(x) + np.log(y)))
        return -self._ell(x, y) + x + y + np.log(one_m_a1 * one_m_a2 + T)


class ColesTawn(_ExtremeValue):
    """Asymmetric extreme-value family driven by a Dirichlet spectral density.

    The exponent is ell(x, y) = x W1 + y W2, whose slopes in x and y are
    the weights W1 = I_{1-q}(beta, alpha + 1) and W2 = I_q(alpha, beta + 1),
    regularised incomplete beta functions at q = alpha y / (alpha y +
    beta x); at beta = alpha it reduces to a symmetric model. ``_weights``
    is the one place that states them, for the conditional CDF and the
    density alike.
    """

    tag = "coles_tawn"
    param_domains = (("alpha", POSITIVE), ("beta", POSITIVE))

    def transposed(self):
        # ell(y, x) swaps alpha and beta: q becomes 1 - q, and W1 and W2 swap
        a, b = self.params
        return ColesTawn(b, a)

    def _weights(self, x, y):
        """(q, 1 - q, W1, W2) at (x, y). W1 is I_{1-q}(b, a + 1), not
        1 - I_q(a + 1, b) (DLMF 8.17.4), which cancels where W1 is small:
        W1 is W2 of the transpose."""
        a, b = self.params
        den = a * y + b * x
        q, one_m_q = a * y / den, b * x / den
        return q, one_m_q, betainc(b, a + 1.0, one_m_q), betainc(a, b + 1.0, q)

    def _ell_slope(self, x, y):
        _, _, w1, w2 = self._weights(x, y)
        return x * w1 + y * w2, w1

    def _logpdf(self, u, v):
        a, b = self.params
        x = -np.log(u)
        y = -np.log(v)
        q, one_m_q, w1, w2 = self._weights(x, y)
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
        return -(x * w1 + y * w2) + x + y + np.log(w1 * w2 + np.exp(log_t))


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
    return lookup(FAMILIES, "copula family", tag)


def make_copula(tag: str, params) -> Copula:
    return family_class(tag)(*params)


def parse_copula(text: str) -> Copula:
    return parse_spec(FAMILIES, "copula family", text)
