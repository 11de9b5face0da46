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
rule of order ``_BUILD_ORDER`` over the whole unit interval, made once at
import with its panel maps and abscissae (``_RULE``). ``build``
evaluates Pi_tail and Pi_body at its nodes on axis 0, where the same
values give K_tail = int Pi_tail and K_body = 1 - int Pi_body. Every
weighting is symmetric, pi(u, v) = pi(v, u), so cstar(v, u) is the blend
of the transposed components, C^T(u, v) = C(v, u), with the same weighting
and K: axis 1 is axis 0 of that blend, which is cstar itself, sharing
its margin, when both components are exchangeable.

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

Rectangle probabilities rest on the joint upper survival S(x, y) =
P[U* > x, V* > y] of cstar, which integrates the conditional CDFs by
parts in the same way: an edge term, and an inner integrand G = dpi/dv
(h_body - h_tail), each written once (``_edge``, ``_inner``). Two rules
integrate them. ``joint_upper_survival`` maps an order-6 rule onto
[x, 1] x [y, 1] (``quadrature.toward_one``), so its panels shrink with
1 - x and 1 - y and S keeps its relative accuracy down to the corner on
and near the diagonal; at the marginal quantiles it is the induced
copula's ``survival``, which chi and eta read. A point within 1/2 of 1 on
both axes, as every chi/eta level's is, takes the rule refined toward
the corner only, 48 x 48 nodes; any other point the two-sided rule,
84 x 84, whose panels refined toward x and y are needed once an interval
reaches below 1/2. The outer integral runs along the coordinate nearer
to 1: a point with y > x is the transposed blend's S at (y, x), so S
keeps its accuracy off the diagonal too.
``copula_cdf`` = u + v - 1 + S needs only absolute accuracy, so it
integrates on the build's own rule instead, from G on the rule's
224 x 224 tensor and its sums over the s-panels above each panel, made
on the first call and kept on the model. The rule's weights integrate
whole panels, and ``quadrature.to_panel_end``'s the part of x's and of
y's own panel above them, so a query costs its lookup, those weights,
the edge term on the s-panels from the lowest x-panel up for each
distinct y, table reads and the 16 x 16 block of G where the point's two
panels meet. A model answers ``logpdf``, ``pdf`` and ``survival`` as a
``Copula`` does.

One routine, ``_lookup``, maps levels to points: x = F^-1(q) and
log f(x), from the table's quantile step or, inside the outermost
panels, the root. It looks levels up in sorted order, and the ``Kept``
store ``_orders`` keeps the order of the last ``_ORDER_CACHE`` level
arrays sorted, found again by their bytes, so the evaluations of a fit
sort their data once. A few levels are each searched among the table's
knots; many, as a fit's, cost less the other way round: each knot is
searched among the sorted levels, 239 searches however many levels
there are, which splits them into one run per interval. Both find the
same intervals. ``marginal_quantile`` reads its x. ``logpdf``,
``survival`` and ``copula_cdf`` read both axes through ``_pair``, which
looks u and v up together, in one sorted pass, where the axes share one
margin, so a level on both solves its root once. The values, and the
order in which a log-likelihood sums them, are those of the points taken
one at a time. A likelihood reads a ``Dataset``'s points, checked once
when it was made, through ``_clamped_logpdf``, which ``logpdf`` calls
after its own check. A margin makes its CDF's interpolant on first use,
and a model its ``copula_cdf`` tensor, since a likelihood reads neither.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, InputError
from .families import Copula, clamp_unit, first_bad, parse_copula, unit_points
from .quadrature import (
    BELOW_ONE,
    NORMAL_MIN,
    UNIT_BREAKS,
    Kept,
    corner_refined,
    gauss_legendre,
    panel_calculus,
    to_panel_end,
    toward_one,
)
from .weighting import WeightingFunction, parse_weighting

_GL32 = gauss_legendre(32, 0.0, 1.0)
#: The 32 nodes and the inner end of ``_end_mass``'s interval, per unit
#: length.
_END_POINTS = np.append(_GL32[0], 1.0)
#: Steps of the outer-panel root before it gives up.
_ROOT_STEPS = 60
#: A Newton step of the outer-panel root below this, in log d, is its
#: last: on the traced roots each step was at most 1e-3 times the square
#: of the one before, so the next would be below 1e-15. A bisection step
#: stops the root only below 1e-12.
_NEWTON_STOP = 1e-6
#: Order of the corner-refined rule (224 nodes) on which ``build`` computes
#: K and both margins, and ``copula_cdf`` integrates.
_BUILD_ORDER = 16
#: Order of the mapped rules of ``joint_upper_survival``: 48 nodes on the
#: rule refined toward the corner only, 84 on the two-sided rule. And its
#: points per batch: a (batch, 48, 48) temporary takes about 0.3 MB, a
#: (batch, 84, 84) one about 0.9 MB.
_RECT_ORDER = 6
_RECT_BATCH = 16
#: Points per batch of ``copula_cdf``: its largest temporaries are the
#: (batch, 16, 16) blocks of G, 128 KB, and the edge term at up to
#: (batch, 224) nodes, 112 KB.
_CDF_BATCH = 64
#: Component grids kept by ``_component_grid``. A build's grid holds
#: 224 x 66 doubles, about 118 KB, so the store holds under 1 MB; eight
#: grids are the last four builds of a blend of exchangeable components.
_GRID_CACHE = 8
_grids = Kept(_GRID_CACHE)
#: Level arrays whose sort order ``_lookup`` keeps: the two axes' data of
#: a blend whose axes have their own margins.
_ORDER_CACHE = 2
_orders = Kept(_ORDER_CACHE)
#: Levels per knot of a margin's table beyond which ``_lookup`` walks the
#: knots through the sorted levels instead of searching each level among
#: the knots: the two cost the same near 800 levels for 239 knots.
_WALK_PER_KNOT = 4
#: Half the width of each panel of ``UNIT_BREAKS``, as a column.
_HALF_WIDTHS = 0.5 * np.diff(UNIT_BREAKS)[:, None]
_HALF_WIDTHS.flags.writeable = False


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
        h = knots[1:] - knots[:-1]
        delta = (values[1:] - values[:-1]) / h
        m0, m1 = slopes[:-1], slopes[1:]
        self.inner = knots[1:-1]
        self.left = knots[:-1]
        self.c0 = values[:-1]
        self.c1 = m0
        self.c2 = (3.0 * delta - 2.0 * m0 - m1) / h
        self.c3 = (m0 + m1 - 2.0 * delta) / (h * h)

    def __call__(self, t, take=None):
        """Values at t. ``take`` maps an array of one entry per interval
        to its entries at t (found for an interpolant on the same knots);
        by default t's intervals are searched and the entries gathered."""
        if take is None:
            i = self._interval(t)
            take = lambda c: c[i]
        dt = t - take(self.left)
        return take(self.c0) + dt * (take(self.c1) + dt * (take(self.c2) + dt * take(self.c3)))

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
        p = _RULE.order
        f = pdf.reshape(-1, p)
        half = _HALF_WIDTHS
        g = f @ _RULE.maps
        below, above = half * g[:, :p], half * g[:, p : 2 * p]
        ends, slope, end_slopes = g[:, 2 * p : 2 * p + 2], g[:, 2 * p + 2 : 3 * p + 2], g[:, 3 * p + 2 : -1]
        mass = half[:, 0] * g[:, -1]
        cdf_ends = np.concatenate([[0.0], np.cumsum(mass)])
        sf_ends = np.concatenate([np.cumsum(mass[::-1])[::-1], [0.0]])
        # rows pdf, slope, cdf, sf; per panel its left end, then its nodes
        at_ends = np.vstack([_joined(ends), _joined(end_slopes / half), cdf_ends, sf_ends])
        tab = np.empty((4, f.shape[0], p + 1))
        tab[:, :, 0] = at_ends[:, :-1]
        tab[0, :, 1:] = f
        tab[1, :, 1:] = slope / half
        tab[2, :, 1:] = cdf_ends[:-1, None] + below
        tab[3, :, 1:] = sf_ends[1:, None] + above
        tab = np.concatenate([tab.reshape(4, -1), at_ends[:, -1:]], axis=1)
        self.x = _RULE.abscissae
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
    if not (pdf > 0.0).all():
        (bad,) = first_bad(~(pdf > 0.0), x)
        raise EvaluationError(
            f"non-finite or nonpositive marginal density on axis {axis} at {bad:.6g}"
        )
    margin = _Margin(pdf)
    if not (margin.level[1:] > margin.level[:-1]).all():
        raise EvaluationError(f"marginal CDF on axis {axis} is not increasing")
    return margin


def _component_grid(model, name, t, v):
    """h of ``model``'s ``name`` component ("tail" or "body") at a column
    t and a row v, read-only, kept in ``_grids`` under the family, its
    parameters, t and v. A value that is not finite raises
    ``EvaluationError`` naming the component and the model's axis."""
    copula = getattr(model, name)

    def make():
        # h at a node that underflows to 0 or 1 takes its limit value
        with np.errstate(divide="ignore", over="ignore"):
            grid = copula._h(t, v)
        if not np.isfinite(grid).all():
            tt, vv = first_bad(~np.isfinite(grid), t, v)
            raise EvaluationError(
                f"non-finite conditional CDF of the {name} {copula!r} on axis {model._axis} "
                f"at (t={tt:.6g}, v={vv:.6g})"
            )
        return grid

    return _grids.get((type(copula), copula.params, t.tobytes(), v.tobytes()), make)


def _joined(at_ends):
    """Values at the panel ends from each panel's (left, right) values:
    f is continuous, so an inner end takes the mean of its two panels'."""
    left, right = at_ends[:, 0], at_ends[:, 1]
    return np.concatenate([left[:1], 0.5 * (right[:-1] + left[1:]), right[-1:]])


def _sums_above(per_panel):
    """Sums of ``per_panel``'s rows from each row to the last, summed from
    the last row down, and a row of zeros after them."""
    out = np.zeros((per_panel.shape[0] + 1, *per_panel.shape[1:]))
    out[:-1] = per_panel
    return np.cumsum(out[::-1], axis=0)[::-1]


class _CdfTensor(NamedTuple):
    """G = dpi/dv (h_body - h_tail) on the build rule's tensor of nodes,
    read-only: s-node i of panel p, t-node j of panel q, the panels
    numbered 0 to 13 from 0 to 1. A sum from panel 14 up, where no panel
    is left, is a row of zeros."""

    by_panel: np.ndarray  # (14, 16, 14, 16): [q, j, p, i] G at (s_pi, t_qj)
    tails: np.ndarray  # (15, 14, 16): [q, p, i] int from panel q's left end to 1 over t
    above: np.ndarray  # (15, 14, 16): [p, q, j] sum of w G over the s-nodes of panels >= p
    above_tails: np.ndarray  # (15, 15): [p, q] sum of w ``tails[q]`` over those s-nodes


class _Rule(NamedTuple):
    """The build rule, ``corner_refined(order)``, and what is read from
    it, all read-only: its nodes and weights, flat and one row per panel
    of ``UNIT_BREAKS``; the panel ends and nodes in order, a margin's
    abscissae; and the panel maps, which take f's values at a panel's
    nodes on [-1, 1] to its interpolant's integrals from -1 to each node
    (order columns) and from each node to 1 (order), its values at -1
    and 1 (2), its slopes at the nodes (order) and at -1 and 1 (2), and
    its integral (1)."""

    order: int
    x: np.ndarray  # (224,)
    w: np.ndarray  # (224,)
    nodes: np.ndarray  # (14, 16)
    weights: np.ndarray  # (14, 16)
    abscissae: np.ndarray  # (239,)
    maps: np.ndarray  # (16, 53)


def _build_rule(order):
    """The ``_Rule`` of the corner-refined rule of ``order``: made once,
    at import, as ``_RULE``."""
    x, w = corner_refined(order)
    nodes, weights = x.reshape(-1, order), w.reshape(-1, order)
    pc = panel_calculus(order)
    maps = np.column_stack([pc.below.T, pc.above.T, pc.ends.T, pc.slope.T, pc.end_slopes.T, pc.weights])
    abscissae = np.append(np.column_stack([UNIT_BREAKS[:-1], nodes]).ravel(), 1.0)
    for a in (maps, abscissae):
        a.flags.writeable = False
    return _Rule(order, x, w, nodes, weights, abscissae, maps)


_RULE = _build_rule(_BUILD_ORDER)


#: Keys of a model file.
_MODEL_KEYS = ("tail", "body", "weighting")


class BlendedModel:
    """A (tail, body, weighting) triple with K and its margins, built on
    construction."""

    source = "blended"  # of its dependence curves
    _axis = 0  # the blend's axis that this model's axis 0 is; a transpose's is 1

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
        margins of the current parameters; construction calls it. Axis 1
        is axis 0 of ``_transpose``, None where cstar is symmetric."""
        x, w = _RULE.x, _RULE.w
        e_t, e_b = self._pi_expectations(x)
        k_t, k_b = float(e_t @ w), float(1.0 - e_b @ w)
        self.K = K = k_t + k_b
        self.norm_constants = (K, k_t, k_b)
        self._margin = _checked_margin(0, x, (1.0 + e_t - e_b) / K)
        self._tensor = self._transpose = None
        tail, body = self.tail.transposed(), self.body.transposed()
        if (tail, body) != (self.tail, self.body):
            t = self._transpose = object.__new__(BlendedModel)
            t.tail, t.body, t.weighting, t.K, t._axis = tail, body, self.weighting, K, 1
            e_t, e_b = t._pi_expectations(x)
            t._margin = _checked_margin(1, x, (1.0 + e_t - e_b) / K)
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
                uu, vv = first_bad(~np.isfinite(c), u, v)
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

    def _axis_model(self, axis):
        """The model whose axis 0 is ``axis``, an integer 0 or 1, else
        ``InputError``: the blend itself, or its transpose."""
        if not (isinstance(axis, (int, np.integer)) and 0 <= axis <= 1):
            raise InputError(f"axis must be 0 or 1, got {axis!r}")
        return self._transpose if axis and self._transpose is not None else self

    def marginal_pdf(self, axis, x):
        return self._axis_model(axis)._margin.pdf_at(unit_points(x))

    def marginal_cdf(self, axis, x):
        out = np.clip(self._axis_model(axis)._margin.cdf_at(unit_points(x)), 0.0, 1.0)
        return out if np.ndim(x) else float(out)

    def marginal_quantile(self, axis, q):
        """Inverse marginal CDF at levels q of any shape, by ``_lookup``:
        a Hermite step on the tabulated levels (slope 1 / pdf), the exact
        root inside the outermost panels, solved once per distinct level."""
        q = np.asarray(q, dtype=float)
        x, _ = self._axis_model(axis)._lookup(q.ravel())
        return x.reshape(q.shape) if q.ndim else float(x[0])

    def _lookup(self, q):
        """(x, log f(x)) at x = F^-1(q) for a flat array q, in the order
        of q: the one place that maps levels to points. The levels are
        looked up in sorted order; the order is kept in ``_orders`` under
        the bytes of q, so the evaluations of a fit sort their data once,
        and an edit or a permutation of the levels sorts them anew.

        A level's interval of the table is found one of two ways. Up to
        ``_WALK_PER_KNOT`` levels per knot, as chi/eta's 2 and a
        ``copula_cdf`` call's 32, each level is searched among the knots
        and the coefficients of both interpolants are gathered at its
        interval. Beyond it, as a fit's 2000 or 4000, each knot's place
        among the sorted levels is searched instead, 239 searches however
        many levels there are, which splits the levels into runs, one per
        interval, and the coefficients are repeated by run length. Best of
        15 x 200 calls on a 2-core VM, at 4000 levels the walk took 80 us
        and the search 138; at 2 and 32 levels the walk took about 40 us
        and the search 18. The two give the same intervals, so the same
        values. Levels in the outermost panels take the exact root,
        solved once per distinct level, and f there is looked up anew;
        elsewhere f takes the interval of the level."""
        m = self._margin
        # 1/2 joins the range so that an empty q passes
        lo, hi = q.min(initial=0.5), q.max(initial=0.5)
        if not (0.0 < lo and hi < 1.0):
            raise InputError("quantile level must lie strictly inside (0, 1)")
        order = _orders.get(_Levels(q.tobytes()), lambda: np.argsort(q))
        qs = q[order]
        if qs.size > _WALK_PER_KNOT * m.level.size:
            # the levels below knot j + 1 and not below knot j are the run
            # of interval j; the first knot is 0 and the last 1
            ends = np.searchsorted(qs, m.level, side="left")
            runs = ends[1:] - ends[:-1]
            take = lambda c: np.repeat(c, runs)
        else:
            i = m.quantile_at._interval(qs)
            take = lambda c: c[i]
        xs = m.quantile_at(qs, take)
        fs = m.pdf_at(xs, take)
        if lo < m.inner[0] or hi > m.inner[1]:
            outer = (qs < m.inner[0]) | (qs > m.inner[1])
            levels, index = np.unique(qs[outer], return_inverse=True)
            xs[outer] = np.array([self._quantile_exact(float(p)) for p in levels])[index]
            fs[outer] = m.pdf_at(xs[outer])
        x, log_f = np.empty_like(q), np.empty_like(q)
        x[order] = xs
        with np.errstate(divide="ignore"):
            log_f[order] = np.log(fs)
        return x, log_f

    def _pair(self, u, v):
        """(x, y, log f(x), log g(y)) at x = F^-1(u), y = G^-1(v) for flat
        u and v, v looked up by the transpose. Axes that share one margin
        look u and v up together, so a level on both solves its root once."""
        if self._transpose is None:
            x, log_f = self._lookup(np.concatenate([u, v]))
            return x[: u.size], x[u.size :], log_f[: u.size], log_f[u.size :]
        (x, log_fx), (y, log_fy) = self._lookup(u), self._transpose._lookup(v)
        return x, y, log_fx, log_fy

    def pdf(self, u, v):
        return np.exp(self.logpdf(u, v))

    def logpdf(self, u, v):
        """Log-density of the copula induced by cstar."""
        return self._clamped_logpdf(clamp_unit(u), clamp_unit(v))

    def _clamped_logpdf(self, u, v):
        """``logpdf`` at points already in [CLAMP, 1 - CLAMP], as a
        ``Dataset``'s are, which it does not check again; ``_lookup``
        still checks the levels."""
        u, v = np.broadcast_arrays(u, v)
        x, y, log_fx, log_fy = self._pair(u.ravel(), v.ravel())
        with np.errstate(divide="ignore"):
            out = np.log(self._unnorm_density(x, y)) - np.log(self.K) - log_fx - log_fy
        return out.reshape(u.shape)[()]

    def survival(self, u, v):
        """P[U > u, V > v] under the induced copula: the joint upper
        survival of cstar at x = F^-1(u), y = G^-1(v), on the mapped rule
        of ``joint_upper_survival``, which keeps its relative accuracy
        near (1, 1), where chi and eta read it, and off the diagonal."""
        u, v = np.broadcast_arrays(clamp_unit(u), clamp_unit(v))
        x, y, _, _ = self._pair(u.ravel(), v.ravel())
        return self.joint_upper_survival(x.reshape(u.shape), y.reshape(u.shape))

    def copula_cdf(self, u, v):
        """CDF of the induced copula, C(u, v) = u + v - 1 + S(x, y) at
        x = F^-1(u), y = G^-1(v), clipped to the Frechet bounds.

        K S is the integral over s in [x, 1] of the integrands of
        ``joint_upper_survival`` on the build's own rule: at each s-node,
        the edge term at (s, y) plus the integral over t in [y, 1] of
        G = dpi/dv (h_body - h_tail). The rule's weights integrate whole
        panels, and ``to_panel_end``'s the part of x's and of y's own panel
        above them, so every s-panel above x's and every t-panel above y's
        is read from ``_cdf_tensor``'s sums over panels: the inner term is
        three table reads and the 16 x 16 block of G where x's and y's
        panels meet. The edge term is evaluated once per distinct y, on the
        s-panels at or above the batch's lowest x-panel, and summed per
        panel and then from the top panel down. S is within a few 1e-9 of
        the mapped rule at order 16, which is as much as a CDF needs, but
        carries no relative accuracy near (1, 1), where ``survival`` keeps
        the mapped rule. Every sum runs over one point's own values in a
        fixed order, with no BLAS call, so a point's value does not depend
        on its batch.
        """
        u, v = np.broadcast_arrays(clamp_unit(u), clamp_unit(v))
        x, y, _, _ = self._pair(u.ravel(), v.ravel())
        g = self._cdf_tensor
        s, w = _RULE.nodes, _RULE.weights
        k_s = np.empty(x.size)
        for b in (slice(i, i + _CDF_BATCH) for i in range(0, x.size, _CDF_BATCH)):
            n = x[b].size
            panel, part = to_panel_end(np.concatenate([x[b], y[b]]), _RULE.order)
            px, py, part_x, part_y = panel[:n], panel[n:], part[:n], part[n:]
            # int_y^1 G(s, t) dt at the s-nodes of x's panel: the t-panels
            # above y's, and the part of its own
            block = g.by_panel[py, :, px]
            inner = g.tails[py + 1, px] + np.einsum("kji,kj->ki", block, part_y)
            # the same integral integrated over the s-panels above x's
            inner_above = g.above_tails[px + 1, py + 1] + np.einsum(
                "kj,kj->k", g.above[px + 1, py], part_y
            )
            levels, j = np.unique(y[b], return_inverse=True)
            low = px.min()
            # h at a node that underflows to 0 or 1 takes its limit value
            with np.errstate(divide="ignore", over="ignore"):
                edge = self._edge(s[None, low:], levels[:, None, None])
            # its sums over the s-panels from each panel up
            edge_above = _sums_above(np.einsum("lqi,qi->ql", edge, w[low:]))
            own = np.einsum("ki,ki->k", part_x, edge[j, px - low] + inner)
            k_s[b] = own + (edge_above[px + 1 - low, j] + inner_above)
        lower = u + v - 1.0
        surv = np.maximum(k_s / self.K, 0.0).reshape(u.shape)
        out = np.clip(lower + surv, np.maximum(lower, 0.0), np.minimum(u, v))
        return out if out.ndim else float(out)

    @property
    def _cdf_tensor(self):
        """G = dpi/dv (h_body - h_tail) on the build rule's 224 x 224
        tensor of nodes, and its sums over panels, as a ``_CdfTensor``
        made on the first ``copula_cdf`` call and kept on the model, about
        460 KB, as a margin's ``cdf_at`` is: a fit never reads it."""
        if self._tensor is None:
            x, w = _RULE.x, _RULE.weights
            with np.errstate(divide="ignore", over="ignore"):
                g = self._inner(x[:, None], x[None, :])
            by_panel = np.ascontiguousarray(g.T).reshape(*w.shape, *w.shape)
            tails = _sums_above(np.einsum("qjpi,qj->qpi", by_panel, w))
            # sums over the s-panels of each panel, then from each one up
            above = _sums_above(np.einsum("qjpi,pi->pqj", by_panel, w))
            above_tails = _sums_above(np.einsum("qpi,pi->pq", tails, w))
            for a in (by_panel, tails, above, above_tails):
                a.flags.writeable = False
            self._tensor = _CdfTensor(by_panel, tails, above, above_tails)
        return self._tensor

    # ------------------------------------------------------------------
    # the exact marginal mass near an end, and the joint tail
    # ------------------------------------------------------------------
    def _pi_expectations(self, t):
        """(Pi_tail(t), Pi_body(t)) where Pi_c(t) = E[pi | coord = t] under c,
        from the components' grids of ``_component_grid``.

        Integrating the unnormalised density over the other coordinate
        gives 1 + Pi_tail(t) - Pi_body(t), the marginal pdf times K.
        """
        w = self.weighting
        t = np.asarray(t, dtype=float)[:, None]
        v = w.v_nodes[None, :]
        return w.expectation(t, [_component_grid(self, name, t, v) for name in ("tail", "body")])

    def _end_mass(self, logd, top):
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
        e_t, e_b = self._pi_expectations(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_mass = logd + np.log((1.0 + (e_t[:-1] - e_b[:-1]) @ w) / self.K)
        return float(log_mass), float((1.0 + e_t[-1] - e_b[-1]) / self.K)

    def _quantile_exact(self, q):
        """Quantile from the exact mass below (q < 1/2) or above (q >= 1/2)
        it, for levels whose quantile lies in an outermost panel.

        Newton's method solves log M(d) = log(target) in log d, where the
        slope of log M is d f / M, so each step costs one grid of
        ``_end_mass``. It starts from the power law M = m (d / b)^(b g / m)
        through the table's mass m and density g at the outermost panel's
        inner end, b = 2e-6 from the end. A step that leaves the bracket
        known to hold the root, or a slope that is not finite and
        positive, bisects the bracket instead. The root stops at a Newton
        step below ``_NEWTON_STOP`` or a bisection step below 1e-12,
        without evaluating the mass again; a NaN mass, or no convergence
        in ``_ROOT_STEPS`` steps, raises ``EvaluationError``.
        """
        top = bool(q >= 0.5)
        log_target = float(np.log(1.0 - q if top else q))
        mass, density = self._margin.outer[top]
        b = UNIT_BREAKS[1]
        # the marginal pdf is at most 2 / K, so less than the target lies
        # within target K / 4 of the end; the outermost panel holds more
        lo = log_target + np.log(0.25 * self.K)
        hi = np.log(2.0 * b)
        logd = np.log(b) + (log_target - np.log(mass)) * mass / (b * density)
        if not lo < logd < hi:
            logd = 0.5 * (lo + hi)
        for _ in range(_ROOT_STEPS):
            log_mass, f = self._end_mass(logd, top)
            gap = log_mass - log_target
            if np.isnan(gap):
                break
            if gap < 0.0:
                lo = logd
            else:
                hi = logd
            slope = f * np.exp(logd - log_mass)
            step = -gap / slope if 0.0 < slope < np.inf else np.nan
            newton = lo <= logd + step <= hi
            if not newton:
                step = 0.5 * (lo + hi) - logd
            logd += step
            if abs(step) < (_NEWTON_STOP if newton else 1e-12):
                d = float(np.exp(logd))
                return 1.0 - d if top else d
        raise EvaluationError(
            f"marginal quantile of {q!r} on axis {self._axis}: "
            + ("NaN mass" if np.isnan(gap) else f"no root within {_ROOT_STEPS} steps")
        )

    def _edge(self, s, y):
        """pi hbar_tail + (1 - pi) hbar_body at (s, y): the edge term of
        K S (see ``joint_upper_survival``)."""
        pi = self.weighting(s, y)
        return pi * self.tail._hbar(s, y) + (1.0 - pi) * self.body._hbar(s, y)

    def _inner(self, s, t):
        """dpi/dv (h_body - h_tail) at (s, t): the inner integrand of K S."""
        return self.weighting.dv(s, t) * (self.body._h(s, t) - self.tail._h(s, t))

    def joint_upper_survival(self, x, y):
        """P[U* > x, V* > y] under cstar, at broadcast arrays of points.

        Integrating each component's density by parts in v leaves only
        its conditional CDF h and conditional survival hbar = 1 - h, both
        bounded, so no density spike is ever sampled:
          K S = int_x^1 [pi hbar_tail + (1 - pi) hbar_body](s, y) ds
                + int_x^1 int_y^1 dpi/dv (s, t) [h_body - h_tail](s, t) dt ds,
        whose integrands are ``_edge`` and ``_inner``, on an order-6 rule
        mapped onto [x, 1] and [y, 1] by ``quadrature.toward_one``, which
        chooses it by the point: refined toward the corner only (48 x 48
        nodes) where x and y are both at least 1/2, or toward both ends
        (84 x 84). Points are grouped by rule and every sum runs along one
        point's own rows, so a point's value does not depend on its batch.
        The panels shrink toward 1 with 1 - x and 1 - y, so S keeps its
        relative accuracy down to the corner on and near the diagonal, as
        chi and eta at 1 - r = 1.49e-8 need; the build's fixed rule, whose
        outermost panel is 2e-6 wide, cannot, and serves only
        ``copula_cdf``. Off the diagonal the s-panels stop at 2e-6 (1 - x),
        coarser than the scale 1 - y on which the edge term changes when
        y > x. Such a point takes the transposed blend's rule at (y, x) (a
        tie keeps its order), where S keeps its accuracy: within 3.5e-7
        relative of a rule refined toward 1 on both axes, as far off as
        (0.5, 1 - 1e-8). Each family's ``_hbar`` keeps hbar's relative
        accuracy where 1 - h would round to 0.
        """
        x, y = np.broadcast_arrays(unit_points(x), unit_points(y))
        shape, x, y = x.shape, x.ravel(), y.ravel()
        swap = y > x
        x, y = np.maximum(x, y), np.minimum(x, y)
        d = 1.0 - np.stack([x, y])
        out = np.empty(y.size)
        # h at a node that underflows to 0 or 1 takes its limit value
        with np.errstate(divide="ignore", over="ignore"):
            for model, group in ((self, ~swap), (self._axis_model(1), swap)):
                index = np.flatnonzero(group)
                if not index.size:
                    continue  # so the diagonal's points make one call
                for i, (s, t), aw in toward_one(d[:, index], _RECT_ORDER, _RECT_BATCH):
                    i = index[i]
                    s, t, yi = s[:, :, None], t[:, None, :], y[i, None, None]
                    edge = model._edge(s, yi)
                    inner = model._inner(s, t)
                    # sums along rows, so a point's value does not depend on its batch
                    edge_sum = np.sum(edge[:, :, 0] * aw, axis=1)
                    inner_sum = np.sum((inner @ aw) * aw, axis=1)
                    out[i] = d[0, i] * (edge_sum + d[1, i] * inner_sum)
        return np.maximum(out / self.K, 0.0).reshape(shape)[()]

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
