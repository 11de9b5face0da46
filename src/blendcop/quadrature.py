"""Gauss-Legendre rules on the unit interval, and the calculus of the
interpolant they define on a panel.

Copula densities are integrable but can diverge at corners of the unit
square (Clayton at the origin, Gumbel-type families at (1,1)), so the
integration rules used for normalising constants and margins are
composite: panels refined geometrically toward both endpoints, with a
Gauss-Legendre rule inside each panel. A plain single-panel rule is kept
for smooth integrands.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

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


def _composite(n_per_panel, breaks):
    xg, wg = _leggauss(n_per_panel)
    lo, hi = breaks[:-1, None], breaks[1:, None]
    half = 0.5 * (hi - lo)
    return _readonly((half * xg + 0.5 * (lo + hi)).ravel(), (half * wg).ravel())


@lru_cache(maxsize=16)
def _unit_rule(n_per_panel: int):
    return _composite(n_per_panel, UNIT_BREAKS)


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


#: The largest double below 1.
BELOW_ONE = np.nextafter(1.0, 0.0)


def toward_one(d, n_per_panel: int):
    """Nodes of ``corner_refined(n_per_panel)`` mapped onto [1 - d, 1],
    one row per length in the flat array d, and the weights on (0, 1),
    to be scaled by d. A node within 1e-16 of 1 would round to 1, where
    some conditional CDFs are NaN, so the nodes are capped below 1."""
    a, w = corner_refined(n_per_panel)
    return np.minimum(1.0 - d[:, None] * a, BELOW_ONE), w


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
def panel_calculus(n: int) -> PanelCalculus:
    """Integrals, derivatives and end values of the interpolant through n
    Gauss-Legendre nodes, from a discrete Legendre transform.

    The n-point rule is exact to degree 2n - 1, so the Legendre
    coefficients of the interpolant are (k + 1/2) sum_i w_i f_i P_k(x_i);
    antiderivatives and derivatives are then taken coefficient-wise.
    """
    leg = np.polynomial.legendre
    x, w = _leggauss(n)
    coef = (np.arange(n) + 0.5)[:, None] * leg.legvander(x, n - 1).T * w
    anti = leg.legint(coef, lbnd=-1.0, axis=0)
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
