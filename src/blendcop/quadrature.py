"""Gauss-Legendre rules on the unit interval, and the calculus of the
interpolant they define on a panel.

Copula densities are integrable but can diverge at corners of the unit
square (Clayton at the origin, Gumbel-type families at (1,1)), so the
integration rules used for normalising constants and margins are
composite: panels refined geometrically toward both endpoints, with a
Gauss-Legendre rule inside each panel. A plain single-panel rule is kept
for smooth integrands. Integrals from a point up to 1, which the joint
survival takes, are on ``toward_one``'s rules: an interval within 1/2 of
1 holds only the corner at 1, so its rule is refined toward that end
alone, in 8 panels instead of 14. ``panel_calculus`` integrates and
differentiates the interpolant through a panel's nodes, and
``to_panel_end`` finds the panel that holds a point of the unit
interval and gives the weights of the interpolant's integral from the
point to that panel's end; with the rule's weights on the panels above,
they integrate from the point up to 1.

``Kept`` is the one store of arrays that calls share: a blend's grids and
the sort order of a fit's data.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import eval_legendre

#: Innermost distance (relative to interval length) of the geometric panels.
_PANEL_INNER = 0.1
#: Number of geometric panels per endpoint.
_PANEL_GEO = 5


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(n: int, a: float = 0.0, b: float = 1.0):
    """Plain n-point Gauss-Legendre nodes and weights on (a, b)."""
    x, w = _leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _unit_breaks():
    d = np.geomspace(2e-6, _PANEL_INNER, _PANEL_GEO + 1)
    return np.concatenate([[0.0], d, [0.5], 1.0 - d[::-1], [1.0]])


#: Panel ends of the corner-refined rule on (0, 1); the outermost panels
#: are [0, 2e-6] and [1 - 2e-6, 1].
UNIT_BREAKS = _unit_breaks()
UNIT_BREAKS.flags.writeable = False


def _readonly(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class Kept:
    """Arrays kept across calls: the values of ``make()`` for the last
    ``size`` keys, found by key equality and read-only. A read makes its
    entry the last to be evicted; a ``make`` that raises stores nothing."""

    def __init__(self, size: int):
        self.size = size
        self._entries = {}

    def get(self, key, make):
        value = self._entries.pop(key, None)
        if value is None:
            (value,) = _readonly(make())
        self._entries[key] = value
        if len(self._entries) > self.size:
            del self._entries[next(iter(self._entries))]
        return value

    def values(self):
        """The kept arrays, the next to be evicted first."""
        return list(self._entries.values())

    def clear(self):
        self._entries.clear()


def _composite(n_per_panel, breaks):
    xg, wg = _leggauss(n_per_panel)
    lo, hi = breaks[:-1, None], breaks[1:, None]
    half = 0.5 * (hi - lo)
    return _readonly((half * xg + 0.5 * (lo + hi)).ravel(), (half * wg).ravel())


@lru_cache(maxsize=16)
def _unit_rule(n_per_panel: int):
    return _composite(n_per_panel, UNIT_BREAKS)


#: Panel ends, per unit length of the distance from 1, of the rule that
#: ``toward_one`` maps onto an interval within 1/2 of 1: those of
#: ``UNIT_BREAKS`` up to 1/2, refined toward the corner at 1, and one
#: panel [1/2, 1] toward the interval's inner end.
CORNER_BREAKS = np.append(UNIT_BREAKS[UNIT_BREAKS <= 0.5], 1.0)
CORNER_BREAKS.flags.writeable = False


@lru_cache(maxsize=16)
def _corner_rule(n_per_panel: int):
    return _composite(n_per_panel, CORNER_BREAKS)


@lru_cache(maxsize=16)
def skewed_refined(n_per_panel: int):
    """Composite Gauss-Legendre on (0, 1) refined to 2e-6 toward 1 but only
    to 1.3e-3 toward 0: the panels of ``UNIT_BREAKS``, with those below
    1e-3 merged into one. The returned arrays are read-only."""
    return _composite(n_per_panel, np.concatenate([[0.0], UNIT_BREAKS[UNIT_BREAKS >= 1e-3]]))


def corner_refined(n_per_panel: int, a: float = 0.0, b: float = 1.0):
    """Composite Gauss-Legendre on (a, b), refined toward both endpoints.

    Geometric panels shrink by roughly a decade per step toward each end,
    which resolves the corner mass of every family in the zoo to well
    below the 1e-5 grid-stability budget (the tail ridge of a Gumbel- or
    Husler-Reiss-type density is the binding case). Nodes are ordered
    panel by panel, ``n_per_panel`` to a panel, with the panels of
    ``UNIT_BREAKS`` mapped onto (a, b). The rule on (0, 1) is built once
    per order; the returned arrays are read-only.
    """
    x, w = _unit_rule(n_per_panel)
    if a == 0.0 and b == 1.0:
        return x, w
    return _readonly(a + (b - a) * x, (b - a) * w)


#: The largest double below 1, and the smallest normal double.
BELOW_ONE = np.nextafter(1.0, 0.0)
NORMAL_MIN = np.finfo(float).tiny


def toward_one(d, n_per_panel: int, batch: int | None = None):
    """Rules on [1 - d, 1] for points whose intervals end at 1, grouped
    by the rule that each point takes; d holds the intervals' lengths,
    one row per axis that is integrated, or a flat array for one axis.

    A point within 1/2 of 1 on every axis takes the rule refined toward
    the corner only (``_corner_rule``, on ``CORNER_BREAKS``: 8 panels);
    any other point takes ``corner_refined``'s two-sided rule (14
    panels), whose panels refined toward the inner end are needed once
    an interval reaches below 1/2. Yields (index, nodes, w) for at most
    ``batch`` points of one rule at a time: their positions in d, the
    rule's nodes mapped onto their intervals, shaped as ``d[..., index]``
    plus an axis of nodes, and the rule's weights on (0, 1), to be scaled
    by d. A point's rule depends on its own lengths alone, so its value
    does not depend on the other points. A node within 1e-16 of 1 would
    round to 1, where some conditional CDFs are NaN, so the nodes are
    capped below 1."""
    d = np.asarray(d, dtype=float)
    near = (d <= 0.5).all(axis=0) if d.ndim > 1 else d <= 0.5
    step = max(near.size if batch is None else batch, 1)
    for rule, index in ((_corner_rule, np.flatnonzero(near)), (_unit_rule, np.flatnonzero(~near))):
        a, w = rule(n_per_panel)
        for i in range(0, index.size, step):
            b = index[i : i + step]
            yield b, np.minimum(1.0 - d[..., b, None] * a, BELOW_ONE), w


class PanelCalculus(NamedTuple):
    """Linear maps from the values of a function at the n Gauss-Legendre
    nodes of [-1, 1] to the calculus of its degree n-1 interpolant.
    Each is an (m, n) matrix applied to the node values; all are
    read-only."""

    weights: np.ndarray  # (n,) integral over [-1, 1]
    below: np.ndarray  # (n, n) integral from -1 to each node
    above: np.ndarray  # (n, n) integral from each node to 1
    slope: np.ndarray  # (n, n) derivative at each node
    ends: np.ndarray  # (2, n) value at -1 and at 1
    end_slopes: np.ndarray  # (2, n) derivative at -1 and at 1


@lru_cache(maxsize=16)
def _legendre_maps(n: int):
    """Node values of f at the n Gauss-Legendre nodes of [-1, 1] -> the
    Legendre coefficients of their degree n-1 interpolant (n, n), and of
    its integral from -1 (n + 1, n). The n-point rule is exact to degree
    2n - 1, so the coefficients are (k + 1/2) sum_i w_i f_i P_k(x_i)."""
    leg = np.polynomial.legendre
    x, w = _leggauss(n)
    coef = (np.arange(n) + 0.5)[:, None] * leg.legvander(x, n - 1).T * w
    return _readonly(coef, leg.legint(coef, lbnd=-1.0, axis=0))


@lru_cache(maxsize=16)
def panel_calculus(n: int) -> PanelCalculus:
    """Integrals, derivatives and end values of the interpolant through n
    Gauss-Legendre nodes, from a discrete Legendre transform
    (``_legendre_maps``); antiderivatives and derivatives are taken
    coefficient-wise.
    """
    leg = np.polynomial.legendre
    x, w = _leggauss(n)
    coef, anti = _legendre_maps(n)
    der = leg.legder(coef, axis=0)
    ends = np.array([-1.0, 1.0])
    below = leg.legvander(x, n) @ anti
    return PanelCalculus(
        *_readonly(
            w.copy(),
            below,
            w - below,
            leg.legvander(x, n - 2) @ der,
            leg.legvander(ends, n - 1) @ coef,
            leg.legvander(ends, n - 2) @ der,
        )
    )


def to_panel_end(t, n_per_panel: int):
    """The panel of ``corner_refined(n_per_panel)`` that holds each t in
    [0, 1], and the weights of the integral from t to that panel's end.

    Row i gives a @ f = the integral from t_i to its panel's right end of
    the interpolant of f's values at the panel's ``n_per_panel`` nodes,
    from the Legendre antiderivative; the rule's own weights integrate the
    panels above. Each row is computed from its own t alone, by
    elementwise kernels that call no BLAS, so a point's row does not
    depend on the other points.
    """
    _, anti = _legendre_maps(n_per_panel)
    _, w = _leggauss(n_per_panel)
    n_panels = UNIT_BREAKS.size - 1
    panel = np.clip(np.searchsorted(UNIT_BREAKS, t, side="right") - 1, 0, n_panels - 1)
    lo = UNIT_BREAKS[panel]
    half = 0.5 * (UNIT_BREAKS[panel + 1] - lo)
    legendre = eval_legendre(np.arange(n_per_panel + 1), ((t - lo) / half - 1.0)[:, None])
    below = np.einsum("kl,lj->kj", legendre, anti)
    return panel, half[:, None] * (w - below)
