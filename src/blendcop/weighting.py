"""Dynamic weighting functions that shift mass between the two copulas.

A weighting pi(u, v; theta) maps the open unit square into (0, 1) and is
nondecreasing in each argument, so the tail component dominates toward
the upper corner. Every weighting must be symmetric, pi(u, v) = pi(v, u):
the blend's margin on either axis is computed from ``expectation`` with
that axis's coordinate as the first argument, and a blend of exchangeable
copulas shares one margin between the axes. ``WEIGHTINGS`` holds the two
forms. A new form is a subclass added there: it must be symmetric and
provide the partial derivative in v, which the joint survival uses, and
the conditional expectation, which the margins use. That expectation
comes in two parts: ``v_nodes``, where the caller evaluates the
conditional CDF, and ``expectation``, which reduces a grid of its values.
A blend's build keeps the grids of its components, so a new theta that
leaves ``v_nodes`` alone reuses them.

Theta's range and the map the fit searches it through are stated once,
by the ``families.Domain`` in ``WeightingFunction.domain``.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .families import POSITIVE
from .quadrature import skewed_refined

# Given a coordinate t, a conditional CDF steps up within about 1 - t of
# v = 1 (upper tail dependence) or within about t of v = 0 (lower tail
# dependence), closer to the end than a plain rule's outer nodes. The rule
# over v is therefore refined toward both ends: to 2e-6 toward 1, which
# deep upper quantiles need, and to 1.3e-3 toward 0, beyond which a step
# moves the expectation by less than 4e-6 relative.
_GLW_X, _GLW_W = skewed_refined(6)


class WeightingFunction:
    tag: str = ""
    #: Domain of theta.
    domain = POSITIVE
    #: The v at which the caller evaluates the conditional CDF;
    #: ``expectation`` reduces the values there.
    v_nodes = _GLW_X

    def __init__(self, theta: float):
        theta = float(theta)
        if theta not in self.domain:
            raise ParameterError(f"weighting theta {self.domain.text}, got {theta}")
        self.theta = theta

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
        dv = self.dv(t, self.v_nodes[None, :])
        top = np.ravel(self(t, 1.0))
        return [top - (dv * grid) @ _GLW_W for grid in grids]

    def __repr__(self):
        return f"{self.tag}({format(self.theta, '.12g')})"

    def __eq__(self, other):
        return (
            isinstance(other, WeightingFunction)
            and self.tag == other.tag
            and self.theta == other.theta
        )

    def __hash__(self):
        return hash((self.tag, self.theta))


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
    def __init__(self, theta: float):
        super().__init__(theta)
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
    """The weighting registered under ``tag``; an unknown tag raises
    ``ParameterError`` listing the valid ones."""
    if tag not in WEIGHTINGS:
        raise ParameterError(
            f"unknown weighting {tag!r}; valid tags: {', '.join(sorted(WEIGHTINGS))}"
        )
    return WEIGHTINGS[tag]


def make_weighting(tag: str, theta: float) -> WeightingFunction:
    return weighting_class(tag)(theta)


def parse_weighting(text: str) -> WeightingFunction:
    """Parse interface strings like ``power(1.5)`` or ``exp_complement(2)``."""
    text = text.strip()
    if not text.endswith(")") or "(" not in text:
        raise ParameterError(
            f"cannot parse weighting spec {text!r}; expected tag(theta) with tag in "
            f"{', '.join(sorted(WEIGHTINGS))}"
        )
    tag, argstr = text[:-1].split("(", 1)
    try:
        theta = float(argstr)
    except ValueError as exc:
        raise ParameterError(f"bad numeric theta in {text!r}") from exc
    return make_weighting(tag.strip(), theta)
