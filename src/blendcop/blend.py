"""The blended dependence model.

Two copula densities, one tailored to the body and one to the joint upper
tail, are mixed through a pointwise weight and renormalised:

    cstar(u, v) = [pi(u, v) c_tail(u, v) + (1 - pi(u, v)) c_body(u, v)] / K.

Because the weight depends on the coordinates, cstar has non-uniform
margins; the object actually fitted to data is the copula induced by
cstar, obtained by dividing out the margins after a quantile transform.
All marginal quantities are numerical. A model is built when it is
constructed, so a new parameter vector is a new model. Integrating K
cstar over the other coordinate gives

    K f(x) = 1 + Pi_tail(x) - Pi_body(x),   Pi_c(x) = E_c[pi | coord = x],

and each Pi_c integrates the component's conditional CDF by parts, so no
density spike near a corner is ever sampled.

One rule serves K and both margins: the corner-refined Gauss-Legendre
rule of order ``_BUILD_ORDER`` over the whole unit interval. ``build``
evaluates Pi_tail and Pi_body at its nodes on axis 0, where the same
values give K_tail = int Pi_tail and K_body = 1 - int Pi_body. Every
weighting is symmetric, pi(u, v) = pi(v, u), so when both components are
exchangeable cstar is symmetric too and axis 1 shares axis 0's margin;
otherwise a second pass evaluates Pi_tail and Pi_body on axis 1.

Each Pi_c reduces a grid of the component's conditional CDF at points t
and the weighting's ``v_nodes``; ``_pi_expectations`` computes both, on
grids from ``_component_grid``, which names the component of a grid that
is not finite. Every grid, the build's and each step of the root below,
is kept in one ``quadrature.Kept`` store of the last ``_GRID_CACHE``,
read-only, so a fit's next evaluation reads back those its step did not
change: a gradient probe of one component reuses the other's grid, and a
probe of theta reuses both under ``exp_complement``, whose v-nodes do
not depend on theta (and whose dpi/dv grid ``weighting`` keeps per
theta). A root step shares its grid between components that are equal,
and a level that comes back reads its steps back. The values are the
same whether computed or read back.

On each panel the node values of f fix a polynomial interpolant, whose
exact integrals give the CDF (summed up from 0) and the survival function
(summed down from 1, so levels near 1 keep their relative accuracy) at
every node and panel end, and whose derivative gives the slope of f
there. The pdf, CDF and quantile are cubic Hermite steps between
neighbouring entries of that table, each with exact slopes. Quantiles
inside the two outermost panels, within 2e-6 of an end, are roots of the
exact mass within d of that end instead, since no polynomial follows the
margin's power-law behaviour at the end itself. That mass, ``_end_mass``
on a 32-point Gauss rule, is the one exact marginal integral, and the
same grid, one point longer, gives the density at the interval's inner
end, the mass's derivative. Only this root uses them, solved once per
distinct level by Newton's method in log d: it starts from the power law
through the table's mass and density at the outermost panel's inner end,
bisects a known bracket where a step would leave it, and costs one
grid per step, two to four at the chi/eta levels. Its points are
capped below 1, as ``toward_one``'s are, and raised to the smallest
normal double near 0, so subnormal levels have quantiles too.
The build evaluates no density; a component density that is not finite
at a point where cstar is evaluated raises ``EvaluationError``.

Rectangle probabilities have one primitive, the joint upper survival
S(x, y) = P[U* > x, V* > y] of cstar, which integrates the conditional
CDFs by parts in the same way (see ``joint_upper_survival``). At the
marginal quantiles it is the induced copula's ``survival``, which chi and
eta read and which gives its CDF u + v - 1 + survival(u, v). A model
answers ``logpdf``, ``pdf`` and ``survival`` as a ``Copula`` does.

One routine, ``_lookup``, maps levels to points: x = F^-1(q) and
log f(x), from the table's quantile step or, inside the outermost
panels, the root. It looks levels up in sorted order, and the ``Kept``
store ``_orders`` keeps the order of the last ``_ORDER_CACHE`` level
arrays sorted, found again by their bytes, so the evaluations of a fit
sort their data once. ``marginal_quantile`` reads its x. ``logpdf`` and
``survival`` read both axes through ``_pair``, which looks u and v up
together, in one sorted pass, where the axes share one margin, so a
level on both solves its root once. The values, and the order in which
a log-likelihood sums them, are those of the points taken one at a time.
A margin makes its CDF's interpolant on first use, since a likelihood
never reads it.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import EvaluationError, InputError
from .families import Copula, clamp_unit, parse_copula, unit_points
from .quadrature import (
    BELOW_ONE,
    NORMAL_MIN,
    UNIT_BREAKS,
    Kept,
    corner_refined,
    gauss_legendre,
    panel_calculus,
    toward_one,
)
from .weighting import WeightingFunction, parse_weighting

_GL32 = gauss_legendre(32, 0.0, 1.0)
#: The 32 nodes and the inner end of ``_end_mass``'s interval, per unit
#: length.
_END_POINTS = np.append(_GL32[0], 1.0)
#: Steps of the outer-panel root before it gives up.
_ROOT_STEPS = 60
#: Order of the corner-refined rule (224 nodes) on which ``build`` computes
#: K and both margins.
_BUILD_ORDER = 16
#: Order of the corner-refined rule (84 nodes) of ``joint_upper_survival``,
#: and its points per batch: a (batch, 84, 84) temporary takes about 1 MB.
_RECT_ORDER = 6
_RECT_BATCH = 16
#: Component grids kept by ``_component_grid``. A build's grid holds
#: 224 x 66 doubles, about 118 KB, so the store holds under 1 MB; eight
#: grids are the last four builds of a blend of exchangeable components.
_GRID_CACHE = 8
_grids = Kept(_GRID_CACHE)
#: Level arrays whose sort order ``_lookup`` keeps: the two axes' data of
#: a blend whose axes have their own margins.
_ORDER_CACHE = 2
_orders = Kept(_ORDER_CACHE)


class _Levels(bytes):
    """The bytes of a level array, as a key of ``_orders`` that hashes its
    length and its first and last 64 bytes: a fit's levels take 32 KB,
    whose full hash costs 14-20 us and a comparison 1 us. Equal keys are
    still equal byte for byte."""

    def __hash__(self):
        return hash((len(self), self[:64], self[-64:]))


class _Cubic:
    """Cubic Hermite interpolant of (values, slopes) at increasing knots,
    stored in power form per interval so that a lookup is one search and
    a Horner step."""

    __slots__ = ("inner", "left", "c0", "c1", "c2", "c3")

    def __init__(self, knots, values, slopes):
        h = np.diff(knots)
        delta = np.diff(values) / h
        m0, m1 = slopes[:-1], slopes[1:]
        self.inner = knots[1:-1]
        self.left = knots[:-1]
        self.c0 = values[:-1]
        self.c1 = m0
        self.c2 = (3.0 * delta - 2.0 * m0 - m1) / h
        self.c3 = (m0 + m1 - 2.0 * delta) / (h * h)

    def __call__(self, t, i=None):
        """Values at t, in the intervals ``i`` if given (a search of an
        interpolant on the same knots), else in those that hold t."""
        if i is None:
            i = self._interval(t)
        dt = t - self.left[i]
        return self.c0[i] + dt * (self.c1[i] + dt * (self.c2[i] + dt * self.c3[i]))

    def _interval(self, t):
        return np.searchsorted(self.inner, t, side="right")


class _Margin:
    """One margin of cstar tabulated at the panel ends and nodes of the
    corner-refined rule on (0, 1).

    ``x`` holds the abscissae in increasing order; ``pdf``, ``cdf`` and
    ``sf`` the density, the CDF and the survival function there.
    ``level`` is the CDF up to the median and 1 - ``sf`` beyond it: the
    knots of the quantile function, which near 1 then carry the relative
    accuracy of the survival summed from 1. ``inner`` is the range of
    levels outside the two outermost panels, and ``outer`` the (mass,
    density) at the inner end of the panel next to 0 and of the one next
    to 1. ``pdf_at``, ``cdf_at`` and ``quantile_at`` interpolate between
    neighbouring entries; interval i of ``level`` is interval i of ``x``.
    ``cdf_at`` is made on first use.
    """

    __slots__ = (
        "x", "pdf", "cdf", "sf", "level", "inner", "outer", "pdf_at", "_cdf_at", "quantile_at"
    )

    def __init__(self, pdf):
        n_panels = UNIT_BREAKS.size - 1
        p = pdf.size // n_panels
        f = pdf.reshape(n_panels, p)
        half = 0.5 * np.diff(UNIT_BREAKS)[:, None]
        g = f @ _panel_maps(p)
        below, above = half * g[:, :p], half * g[:, p : 2 * p]
        ends, slope, end_slopes = g[:, 2 * p : 2 * p + 2], g[:, 2 * p + 2 : 3 * p + 2], g[:, 3 * p + 2 : -1]
        mass = half[:, 0] * g[:, -1]
        cdf_ends = np.concatenate([[0.0], np.cumsum(mass)])
        sf_ends = np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]])
        # rows pdf, slope, cdf, sf; per panel its left end, then its nodes
        at_ends = np.vstack([_joined(ends), _joined(end_slopes / half), cdf_ends, sf_ends])
        tab = np.empty((4, n_panels, p + 1))
        tab[:, :, 0] = at_ends[:, :-1]
        tab[0, :, 1:] = f
        tab[1, :, 1:] = slope / half
        tab[2, :, 1:] = cdf_ends[:-1, None] + below
        tab[3, :, 1:] = sf_ends[1:, None] + above
        tab = np.concatenate([tab.reshape(4, -1), at_ends[:, -1:]], axis=1)
        self.x = _abscissae(p)
        self.pdf, slope, self.cdf, self.sf = tab
        median = np.searchsorted(self.cdf, 0.5)
        self.level = np.concatenate([self.cdf[:median], 1.0 - self.sf[median:]])
        self.inner = (cdf_ends[1], 1.0 - sf_ends[-2])
        self.outer = ((cdf_ends[1], at_ends[0, 1]), (sf_ends[-2], at_ends[0, -2]))
        self.pdf_at = _Cubic(self.x, self.pdf, slope)
        self._cdf_at = None
        self.quantile_at = _Cubic(self.level, self.x, 1.0 / self.pdf)

    @property
    def cdf_at(self):
        """The CDF's interpolant; a likelihood reads only ``pdf_at`` and
        ``quantile_at``."""
        if self._cdf_at is None:
            self._cdf_at = _Cubic(self.x, self.cdf, self.pdf)
        return self._cdf_at


def _checked_margin(axis, x, pdf):
    """The ``_Margin`` of node values ``pdf`` at ``x``, which must be
    positive and give an increasing CDF."""
    if not np.all(pdf > 0.0):
        bad = x[np.argmin(pdf > 0.0)]
        raise EvaluationError(
            f"non-finite or nonpositive marginal density on axis {axis} at {bad:.6g}"
        )
    margin = _Margin(pdf)
    if not np.all(np.diff(margin.level) > 0.0):
        raise EvaluationError(f"marginal CDF on axis {axis} is not increasing")
    return margin


def _component_grid(name, copula, axis, t, v):
    """h of ``copula`` on ``axis`` (its ``_h``, or ``_h2`` with the
    arguments swapped) at a column t and a row v, read-only, kept in
    ``_grids`` under the family, its parameters, the axis, t and v. A
    value that is not finite raises ``EvaluationError`` naming the
    component (``name``)."""

    def make():
        # h at a node that underflows to 0 or 1 takes its limit value
        with np.errstate(divide="ignore", over="ignore"):
            grid = copula._h(t, v) if axis == 0 else copula._h2(v, t)
        bad = ~np.isfinite(grid)
        if np.any(bad):
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise EvaluationError(
                f"non-finite conditional CDF of the {name} {copula!r} on axis {axis} "
                f"at (t={t[i, 0]:.6g}, v={v[0, j]:.6g})"
            )
        return grid

    return _grids.get((type(copula), copula.params, axis, t.tobytes(), v.tobytes()), make)


def _joined(at_ends):
    """Values at the panel ends from each panel's (left, right) values:
    f is continuous, so an inner end takes the mean of its two panels'."""
    left, right = at_ends[:, 0], at_ends[:, 1]
    return np.concatenate([left[:1], 0.5 * (right[:-1] + left[1:]), right[-1:]])


@lru_cache(maxsize=8)
def _panel_maps(p):
    """Node values of f on [-1, 1] -> its interpolant's integrals from -1
    to each node (p columns) and from each node to 1 (p), values at -1 and
    1 (2), slopes at the nodes (p) and at -1 and 1 (2), and integral (1)."""
    pc = panel_calculus(p)
    maps = np.column_stack([pc.below.T, pc.above.T, pc.ends.T, pc.slope.T, pc.end_slopes.T, pc.weights])
    maps.flags.writeable = False
    return maps


@lru_cache(maxsize=8)
def _abscissae(p):
    """Panel ends and nodes of the order-p corner-refined rule, in order."""
    nodes, _ = corner_refined(p)
    x = np.append(np.column_stack([UNIT_BREAKS[:-1], nodes.reshape(-1, p)]).ravel(), 1.0)
    x.flags.writeable = False
    return x


#: Keys of a model file.
_MODEL_KEYS = ("tail", "body", "weighting")


class BlendedModel:
    """A (tail, body, weighting) triple with K and its margins, built on
    construction."""

    source = "blended"  # of its dependence curves

    def __init__(self, tail: Copula, body: Copula, weighting: WeightingFunction):
        self.tail = tail
        self.body = body
        self.weighting = weighting
        self.build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self) -> "BlendedModel":
        """Compute K, ``norm_constants`` = (K, K_tail, K_body) and the
        margins of the current parameters; construction calls it."""
        x, w = corner_refined(_BUILD_ORDER)
        e_t, e_b = self._pi_expectations(0, x)
        k_t, k_b = float(e_t @ w), float(1.0 - e_b @ w)
        self.K = K = k_t + k_b
        self.norm_constants = (K, k_t, k_b)
        margin = _checked_margin(0, x, (1.0 + e_t - e_b) / K)
        if self.tail.exchangeable and self.body.exchangeable:
            # cstar(u, v) = cstar(v, u), the weighting being symmetric too
            self._axes = (margin, margin)
        else:
            e_t, e_b = self._pi_expectations(1, x)
            self._axes = (margin, _checked_margin(1, x, (1.0 + e_t - e_b) / K))
        return self

    def _unnorm_density(self, u, v):
        """pi c_tail + (1 - pi) c_body; a non-finite component density at
        any of the points raises ``EvaluationError``."""
        pi = self.weighting(u, v)
        with np.errstate(divide="ignore", over="ignore"):
            ct = np.exp(self.tail._logpdf(u, v))
            cb = np.exp(self.body._logpdf(u, v))
        for name, fam, c in (("tail", self.tail, ct), ("body", self.body, cb)):
            if not np.isfinite(c).all():
                bad = ~np.isfinite(c)
                i = np.argmax(bad.ravel())
                uu, vv = (np.broadcast_to(a, bad.shape).flat[i] for a in (u, v))
                raise EvaluationError(
                    f"non-finite {name} density {fam!r} at (x={uu:.6g}, y={vv:.6g})"
                )
        return pi * ct + (1.0 - pi) * cb

    # ------------------------------------------------------------------
    # densities and margins
    # ------------------------------------------------------------------
    def cstar_pdf(self, u, v):
        """Normalised blended density at interior points."""
        return self._unnorm_density(clamp_unit(u), clamp_unit(v)) / self.K

    def marginal_pdf(self, axis, x):
        return self._axes[axis].pdf_at(unit_points(x))

    def marginal_cdf(self, axis, x):
        out = np.clip(self._axes[axis].cdf_at(unit_points(x)), 0.0, 1.0)
        return out if np.ndim(x) else float(out)

    def marginal_quantile(self, axis, q):
        """Inverse marginal CDF at levels q of any shape, by ``_lookup``:
        a Hermite step on the tabulated levels (slope 1 / pdf), the exact
        root inside the outermost panels, solved once per distinct level."""
        q = np.asarray(q, dtype=float)
        x, _ = self._lookup(axis, q.ravel())
        return x.reshape(q.shape) if q.ndim else float(x[0])

    def _lookup(self, axis, q):
        """(x, log f(x)) at x = F^-1(q) for a flat array q, in the order
        of q: the one place that maps levels to points. The table is
        searched once, in sorted order, several times faster than in
        random order; the order is kept in ``_orders`` under the bytes of
        q, so the evaluations of a fit sort their data once, and an edit
        or a permutation of the levels sorts them anew. Levels in the
        outermost panels take the exact root, solved once per distinct
        level, and f there is looked up anew; elsewhere f takes the
        interval that the level's search found."""
        m = self._axes[axis]
        # 1/2 joins the range so that an empty q passes
        lo, hi = q.min(initial=0.5), q.max(initial=0.5)
        if not (0.0 < lo and hi < 1.0):
            raise InputError("quantile level must lie strictly inside (0, 1)")
        order = _orders.get(_Levels(q.tobytes()), lambda: np.argsort(q))
        qs = q[order]
        i = m.quantile_at._interval(qs)
        xs = m.quantile_at(qs, i)
        fs = m.pdf_at(xs, i)
        if lo < m.inner[0] or hi > m.inner[1]:
            outer = (qs < m.inner[0]) | (qs > m.inner[1])
            levels, index = np.unique(qs[outer], return_inverse=True)
            xs[outer] = np.array([self._quantile_exact(axis, float(p)) for p in levels])[index]
            fs[outer] = m.pdf_at(xs[outer])
        x, log_f = np.empty_like(q), np.empty_like(q)
        x[order] = xs
        with np.errstate(divide="ignore"):
            log_f[order] = np.log(fs)
        return x, log_f

    def _pair(self, u, v):
        """(x, y, log f(x), log g(y)) at x = F^-1(u), y = G^-1(v) for flat
        u and v. Axes that share one margin look u and v up together, so a
        level on both solves its root once."""
        if self._axes[0] is self._axes[1]:
            x, log_f = self._lookup(0, np.concatenate([u, v]))
            return x[: u.size], x[u.size :], log_f[: u.size], log_f[u.size :]
        (x, log_fx), (y, log_fy) = self._lookup(0, u), self._lookup(1, v)
        return x, y, log_fx, log_fy

    def pdf(self, u, v):
        return np.exp(self.logpdf(u, v))

    def logpdf(self, u, v):
        """Log-density of the copula induced by cstar."""
        u, v = np.broadcast_arrays(clamp_unit(u), clamp_unit(v))
        x, y, log_fx, log_fy = self._pair(u.ravel(), v.ravel())
        with np.errstate(divide="ignore"):
            out = np.log(self._unnorm_density(x, y)) - np.log(self.K) - log_fx - log_fy
        return out.reshape(u.shape)[()]

    def survival(self, u, v):
        """P[U > u, V > v] under the induced copula: the joint upper
        survival of cstar at x = F^-1(u), y = G^-1(v)."""
        u, v = np.broadcast_arrays(clamp_unit(u), clamp_unit(v))
        x, y, _, _ = self._pair(u.ravel(), v.ravel())
        return self.joint_upper_survival(x.reshape(u.shape), y.reshape(u.shape))

    def copula_cdf(self, u, v):
        """CDF of the induced copula, C(u, v) = u + v - 1 + S(u, v) with S
        from ``survival``, clipped to the Frechet bounds."""
        u, v = np.broadcast_arrays(clamp_unit(u), clamp_unit(v))
        lower = u + v - 1.0
        out = np.clip(lower + self.survival(u, v), np.maximum(lower, 0.0), np.minimum(u, v))
        return out if out.ndim else float(out)

    # ------------------------------------------------------------------
    # the exact marginal mass near an end, and the joint tail
    # ------------------------------------------------------------------
    def _pi_expectations(self, axis, t):
        """(Pi_tail(t), Pi_body(t)) where Pi_c(t) = E[pi | coord = t] under c,
        from the components' grids of ``_component_grid``.

        Integrating the unnormalised density over the other coordinate
        gives 1 + Pi_tail(t) - Pi_body(t), the marginal pdf times K.
        """
        w = self.weighting
        t = np.asarray(t, dtype=float)[:, None]
        v = w.v_nodes[None, :]
        parts = (("tail", self.tail), ("body", self.body))
        return w.expectation(t, [_component_grid(name, c, axis, t, v) for name, c in parts])

    def _end_mass(self, axis, logd, top):
        """(log M, f): M is the marginal mass within d = exp(logd) of 1
        (``top``) or of 0, by a 32-point Gauss rule on that interval,
        accurate for tiny d, and f the marginal density at the interval's
        inner end, 1 - d or d, which is dM/dd. One grid gives both, at the
        32 nodes and the inner end. Points that would round to 1 are capped
        below it, and points below the smallest normal double are raised
        to it, so d may be subnormal; M is returned in logs, as d times
        the mean density, so it keeps its relative accuracy there too."""
        _, w = _GL32
        x = np.exp(logd) * _END_POINTS
        x = np.minimum(1.0 - x, BELOW_ONE) if top else np.maximum(x, NORMAL_MIN)
        e_t, e_b = self._pi_expectations(axis, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_mass = logd + np.log((1.0 + (e_t[:-1] - e_b[:-1]) @ w) / self.K)
        return float(log_mass), float((1.0 + e_t[-1] - e_b[-1]) / self.K)

    def _quantile_exact(self, axis, q):
        """Quantile from the exact mass below (q < 1/2) or above (q >= 1/2)
        it, for levels whose quantile lies in an outermost panel.

        Newton's method solves log M(d) = log(target) in log d, where the
        slope of log M is d f / M, so each step costs one grid of
        ``_end_mass``. It starts from the power law M = m (d / b)^(b g / m)
        through the table's mass m and density g at the outermost panel's
        inner end, b = 2e-6 from the end. A step that leaves the bracket
        known to hold the root, or a slope that is not finite and
        positive, bisects the bracket instead. The root stops at a step
        below 1e-12; a NaN mass, or no convergence in ``_ROOT_STEPS``
        steps, raises ``EvaluationError``.
        """
        top = bool(q >= 0.5)
        log_target = float(np.log(1.0 - q if top else q))
        mass, density = self._axes[axis].outer[top]
        b = UNIT_BREAKS[1]
        # the marginal pdf is at most 2 / K, so less than the target lies
        # within target K / 4 of the end; the outermost panel holds more
        lo = log_target + np.log(0.25 * self.K)
        hi = np.log(2.0 * b)
        logd = np.log(b) + (log_target - np.log(mass)) * mass / (b * density)
        if not lo < logd < hi:
            logd = 0.5 * (lo + hi)
        for _ in range(_ROOT_STEPS):
            log_mass, f = self._end_mass(axis, logd, top)
            gap = log_mass - log_target
            if np.isnan(gap):
                break
            if gap < 0.0:
                lo = logd
            else:
                hi = logd
            slope = f * np.exp(logd - log_mass)
            step = -gap / slope if 0.0 < slope < np.inf else np.nan
            if not lo <= logd + step <= hi:
                step = 0.5 * (lo + hi) - logd
            logd += step
            if abs(step) < 1e-12:
                d = float(np.exp(logd))
                return 1.0 - d if top else d
        raise EvaluationError(
            f"marginal quantile of {q!r} on axis {axis}: "
            + ("NaN mass" if np.isnan(gap) else f"no root within {_ROOT_STEPS} steps")
        )

    def joint_upper_survival(self, x, y):
        """P[U* > x, V* > y] under cstar, at broadcast arrays of points.

        Integrating each component's density by parts in v leaves only
        its conditional CDF h and conditional survival hbar = 1 - h, both
        bounded, so no density spike is ever sampled:
          K S = int_x^1 [pi hbar_tail + (1 - pi) hbar_body](s, y) ds
                + int_x^1 int_y^1 dpi/dv (s, t) [h_body - h_tail](s, t) dt ds,
        on the order-6 corner-refined rule mapped onto [x, 1] and [y, 1].
        Each family's ``_hbar`` keeps hbar's relative accuracy where 1 - h
        would round to 0.
        """
        x, y = np.broadcast_arrays(unit_points(x), unit_points(y))
        dx, dy, yy = 1.0 - x.ravel(), 1.0 - y.ravel(), y.ravel()
        out = np.empty(dx.size)
        # h at a node that underflows to 0 or 1 takes its limit value
        with np.errstate(divide="ignore", over="ignore"):
            for b in (slice(i, i + _RECT_BATCH) for i in range(0, dx.size, _RECT_BATCH)):
                s, aw = toward_one(dx[b], _RECT_ORDER)
                t, _ = toward_one(dy[b], _RECT_ORDER)
                s, t, yb = s[:, :, None], t[:, None, :], yy[b, None, None]
                pi = self.weighting(s, yb)
                edge = pi * self.tail._hbar(s, yb) + (1.0 - pi) * self.body._hbar(s, yb)
                inner = self.weighting.dv(s, t) * (self.body._h(s, t) - self.tail._h(s, t))
                # sums along rows, so a point's value does not depend on its batch
                edge_sum = np.sum(edge[:, :, 0] * aw, axis=1)
                inner_sum = np.sum((inner @ aw) * aw, axis=1)
                out[b] = dx[b] * (edge_sum + dy[b] * inner_sum)
        return np.maximum(out / self.K, 0.0).reshape(x.shape)[()]

    # ------------------------------------------------------------------
    # parameters and serialisation
    # ------------------------------------------------------------------
    @property
    def params(self) -> tuple:
        """(theta, *tail.params, *body.params): ``fitting.fit``'s start order."""
        return (self.weighting.theta, *self.tail.params, *self.body.params)

    def spec_strings(self):
        parts = (self.tail, self.body, self.weighting)
        return {
            key: f"{part.tag}({','.join(format(p, '.17g') for p in part.params)})"
            for key, part in zip(_MODEL_KEYS, parts)
        }

    def save(self, path):
        lines = ["# blendcop model"]
        for key, val in self.spec_strings().items():
            lines.append(f"{key} = {val}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "BlendedModel":
        """Read a file written by ``save``: one ``key = value`` line for
        each of ``tail``, ``body`` and ``weighting``."""
        fields = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, val = line.partition("=")
                key = key.strip()
                if not sep or key not in _MODEL_KEYS:
                    raise InputError(f"model file {path}, line {lineno}: cannot parse {line!r}")
                fields[key] = val.strip()
        missing = set(_MODEL_KEYS) - set(fields)
        if missing:
            raise InputError(f"model file {path} missing keys: {sorted(missing)}")
        try:
            parts = (
                parse_copula(fields["tail"]),
                parse_copula(fields["body"]),
                parse_weighting(fields["weighting"]),
            )
        except ValueError as exc:
            raise InputError(f"model file {path}: {exc}") from exc
        return cls(*parts)

    def __repr__(self):
        return f"BlendedModel(tail={self.tail!r}, body={self.body!r}, weighting={self.weighting!r})"
