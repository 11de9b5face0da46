"""Bivariate normal distribution functions.

``bvn_upper`` is a vectorised port of Genz's hybrid of the Drezner-
Wesolowsky quadrature (absolute accuracy ~1e-15, deterministic), used for
Gaussian copula CDF values. For joint tail probabilities at extreme
quantiles the absolute-accuracy routine is useless (the answer itself can
be far below 1e-15), so the orthant probability is also exposed through a
one-dimensional conditional integral evaluated with adaptive quadrature,
which preserves relative accuracy. The Student t copula needs no routine
here: its CDF and survival come by parts from its conditional CDF (see
``families``).
"""
from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

_SQRT_TPI = np.sqrt(2.0 * np.pi)

# 20-point Gauss-Legendre rule on [0, 1] used by the Drezner-Wesolowsky part.
_GLX, _GLW = np.polynomial.legendre.leggauss(20)
_GLX = 0.5 * (_GLX + 1.0)
_GLW = 0.5 * _GLW


def norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_TPI


def _bvn_upper_moderate(h, k, r):
    # P[X>h, Y>k], |r| <= 0.925: Drezner-Wesolowsky integral over asin(r)
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    asr = np.arcsin(r)
    sn = np.sin(asr[..., None] * _GLX)
    vals = np.exp((sn * hk[..., None] - hs[..., None]) / (1.0 - sn * sn))
    return (vals @ _GLW) * asr / (2.0 * np.pi) + ndtr(-h) * ndtr(-k)


def _bvn_upper_extreme(h, k, r):
    # |r| > 0.925 scalar branch, Genz's expansion about |r| = 1
    if r < 0:
        k, hk = -k, -h * k
    else:
        hk = h * k
    bvn = 0.0
    if abs(r) < 1.0:
        a_s = (1.0 - r) * (1.0 + r)
        a = np.sqrt(a_s)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -0.5 * (bs / a_s + hk)
        if asr > -100.0:
            bvn = a * np.exp(asr) * (1.0 - c * (bs - a_s) * (1.0 - d * bs / 5.0) / 3.0
                                     + c * d * a_s * a_s / 5.0)
        if -hk < 100.0:
            b = np.sqrt(bs)
            bvn -= np.exp(-0.5 * hk) * _SQRT_TPI * ndtr(-b / a) * b * (
                1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        a *= 0.5
        for x, w in zip(_GLX, _GLW):
            for sgn in (-1.0, 1.0):
                xs = (a * (sgn * (2.0 * x - 1.0) + 1.0)) ** 2
                rs = np.sqrt(1.0 - xs)
                asr = -0.5 * (bs / xs + hk)
                if asr > -100.0:
                    bvn += a * w * np.exp(asr) * (
                        np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                        - (1.0 + c * xs * (1.0 + d * xs)))
        bvn = -bvn / (2.0 * np.pi)
    if r > 0:
        bvn += ndtr(-max(h, k))
    else:
        bvn = -bvn
        if k > h:
            bvn += ndtr(k) - ndtr(h)
    return min(max(bvn, 0.0), 1.0)


def bvn_upper(h, k, rho):
    """P[X > h, Y > k] for a standard bivariate normal with correlation rho."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    r = np.broadcast_to(np.asarray(rho, dtype=float), np.broadcast_shapes(h.shape, k.shape))
    h, k = np.broadcast_arrays(h, k)
    out = np.empty(r.shape, dtype=float)
    mod = np.abs(r) <= 0.925
    if mod.any():
        out[mod] = _bvn_upper_moderate(h[mod], k[mod], r[mod])
    if (~mod).any():
        idx = np.argwhere(~mod)
        for ix in map(tuple, idx):
            out[ix] = _bvn_upper_extreme(float(h[ix]), float(k[ix]), float(r[ix]))
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def bvn_cdf(a, b, rho):
    """P[X <= a, Y <= b] for a standard bivariate normal with correlation rho."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    val = ndtr(a) + ndtr(b) - 1.0 + bvn_upper(a, b, rho)
    val = np.clip(val, 0.0, 1.0)
    return val if val.ndim else float(val)


def bvn_orthant_tail(a: float, b: float, rho: float) -> float:
    """P[X > a, Y > b] with relative accuracy, for use at extreme quantiles.

    Conditional reduction: integrates phi(t) * Phibar((b - rho t)/sqrt(1-rho^2))
    over t in (a, inf). The integrand is positive, so adaptive quadrature
    keeps relative error even when the probability is far below 1e-15.
    """
    sq = np.sqrt((1.0 - rho) * (1.0 + rho))

    def f(t):
        return norm_pdf(t) * ndtr(-(b - rho * t) / sq)

    hi = max(a, b, 0.0) + 14.0
    val, _ = quad(f, a, hi, epsabs=0.0, epsrel=1e-11, limit=200)
    return max(val, 0.0)


__all__ = [
    "bvn_cdf",
    "bvn_upper",
    "bvn_orthant_tail",
    "norm_pdf",
    "ndtr",
    "ndtri",
]
