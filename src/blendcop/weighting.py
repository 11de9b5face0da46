"""Dynamic weighting functions that shift mass between the two copulas.

A weighting pi(u, v; theta) maps the open unit square into (0, 1) and is
nondecreasing in each argument, so the tail component dominates toward
the upper corner. Every weighting must be symmetric, pi(u, v) = pi(v, u):
a blend's axis 1 is then axis 0 of the blend of the transposed copulas,
so ``expectation`` takes axis 0's coordinate first, and a blend of
exchangeable copulas shares one margin between the axes. ``WEIGHTINGS`` holds the two
forms. A new form is a subclass added there: it must be symmetric and
provide the partial derivative in v, which the joint survival uses, and
the conditional expectation, which the margins use. That expectation
comes in two parts: ``v_nodes``, where the caller evaluates the
conditional CDF, and ``expectation``, which reduces a grid of its values.
A blend's build keeps the grids of its components, so a new theta that
leaves ``v_nodes`` alone reuses them.

A weighting is a ``families.Parametric`` of one parameter, theta: its
range and the map the fit searches it through are stated once, in
``param_domains``, and its repr, equality, registry lookup and spec
parsing are those of a copula family.
"""
from __future__ import annotations

import numpy as np

from .families import POSITIVE, Parametric, lookup, parse_spec
from .quadrature import Kept, skewed_refined

# Given a coordinate t, a conditional CDF steps up within about 1 - t of
# v = 1 (upper tail dependence) or within about t of v = 0 (lower tail
# dependence), closer to the end than a plain rule's outer nodes. The rule
# over v is therefore refined toward both ends: to 2e-6 toward 1, which
# deep upper quantiles need, and to 1.3e-3 toward 0, beyond which a step
# moves the expectation by less than 4e-6 relative.
_GLW_X, _GLW_W = skewed_refined(6)
#: dpi/dv grids that ``expectation`` keeps under the form, theta and t: at
#: the build rule's 224 nodes a grid holds 224 x 66 doubles, about 118 KB,
#: and a fit's steps move among two or three values of theta (a fourth
#: grid is not read back).
_DV_CACHE = 3
_dv_grids = Kept(_DV_CACHE)


class WeightingFunction(Parametric):
    param_domains = (("theta", POSITIVE),)
    #: The v at which the caller evaluates the conditional CDF;
    #: ``expectation`` reduces the values there.
    v_nodes = _GLW_X

    @property
    def theta(self):
        return self.params[0]

    def __call__(self, u, v):
        raise NotImplementedError

    def dv(self, u, v):
        """Partial derivative of the weight in its second argument."""
        raise NotImplementedError

    def expectation(self, t, grids):
        """[E[pi(t_i, V)] for each grid], where grid[i, j] is the
        conditional CDF H(t_i, ``v_nodes[j]``) of V given the first
        coordinate, for a column t of shape (n, 1). The terms that depend
        only on t are computed once.

        Integration by parts removes the conditional density, so this
        stays accurate even where that density concentrates into a spike:
        E[pi] = pi(t, 1) - int_0^1 dpi/dv (t, v) H(t, v) dv.
        t is always pi's first argument, so this also gives the second
        coordinate's E[pi(U, t) | V = t] only because the weighting must
        satisfy pi(u, v) = pi(v, u).
        """
        dv = _dv_grids.get(
            (type(self), self.theta, t.tobytes()), lambda: self.dv(t, self.v_nodes[None, :])
        )
        top = np.ravel(self(t, 1.0))
        return [top - (dv * grid) @ _GLW_W for grid in grids]


class PowerProduct(WeightingFunction):
    """pi(u, v) = (u v)^theta."""

    tag = "power"

    def __call__(self, u, v):
        return (np.asarray(u, dtype=float) * v) ** self.theta

    def dv(self, u, v):
        th = self.theta
        return th * np.asarray(u, dtype=float) ** th * np.asarray(v, dtype=float) ** (th - 1.0)

    # substitute w = v^theta so the theta < 1 endpoint singularity of
    # dpi/dv disappears: int th t^th v^(th-1) H(v) dv = t^th int H(w^(1/th)) dw,
    # with H evaluated at v = w^(1/th)
    def __init__(self, *params):
        super().__init__(*params)
        self.v_nodes = _GLW_X ** (1.0 / self.theta)
        self.v_nodes.flags.writeable = False

    def expectation(self, t, grids):
        scale = np.ravel(t**self.theta)
        return [scale * (1.0 - grid @ _GLW_W) for grid in grids]


class ExpComplement(WeightingFunction):
    """pi(u, v) = exp(-theta (1-u)(1-v))."""

    tag = "exp_complement"

    def __call__(self, u, v):
        return np.exp(-self.theta * (1.0 - np.asarray(u, dtype=float)) * (1.0 - v))

    def dv(self, u, v):
        du = 1.0 - np.asarray(u, dtype=float)
        return self.theta * du * np.exp(-self.theta * du * (1.0 - v))


WEIGHTINGS = {cls.tag: cls for cls in (PowerProduct, ExpComplement)}


def weighting_class(tag: str) -> type[WeightingFunction]:
    return lookup(WEIGHTINGS, "weighting", tag)


def make_weighting(tag: str, theta: float) -> WeightingFunction:
    return weighting_class(tag)(theta)


def parse_weighting(text: str) -> WeightingFunction:
    return parse_spec(WEIGHTINGS, "weighting", text)
