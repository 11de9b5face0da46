"""Independent reference values for the benchmark's correctness checks.

Nothing here comes from the package under test: the copula densities are
textbook closed forms written out below, the blended model's margins and
rectangle probabilities are nested adaptive ``scipy.integrate.quad``
integrals of those densities, and the single-copula tail measures are
``mpmath`` evaluations at 30 significant digits. For a blend

    cstar(s, t) = [pi c_tail + (1 - pi) c_body](s, t) / K,

the margins are f_X(x) = int_0^1 K cstar(x, t) dt / K, quantiles come from
Newton steps on the integrated margin (on the survival side above 1/2, so
levels within 1e-8 of one keep relative accuracy), and the induced copula
is C(u, v) = P[X <= F_X^-1(u), Y <= F_Y^-1(v)].

Every blend quantity is computed twice, at a quad tolerance ``TOL`` and at
``TOL / 2``; the largest relative change between the two is stored next to
the values as their error bound. Component densities are checked to
integrate to one before they are used.

Run from the repository root (about 13 minutes on one core):

    python3 bench/reference.py

It rewrites ``bench/reference.json``, which ``bench/run.py`` loads.
"""
from __future__ import annotations

import json
import math
import sys
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import betainc, betaln, gammaln, ndtr, ndtri, stdtrit

OUT = Path(__file__).resolve().parent / "reference.json"
TOL = 1e-9

#: The ten study levels 1 - r, log-spaced from 0.3 to 1.49e-8.
LEVELS = [1.0 - d for d in np.geomspace(0.3, 1.49e-8, 10)]

#: Fit workload: generating blends and the fixed anchor points that every
#: fit dataset contains; the anchor log-likelihood is checked to 1e-3.
FIT_MODELS = [
    ("gumbel(2)", "clayton(1)", "power(0.8)"),
    ("husler_reiss(2)", "frank(1)", "exp_complement(1)"),
]
ANCHOR_SEED = 20220913
N_ANCHORS = 40

#: Sample workload: K, K_tail and P[U > r, V > r] of the induced copula.
SAMPLE_MODELS = [
    ("gumbel(2)", "clayton(1)", "power(0.8)"),
    ("husler_reiss(2)", "frank(1)", "exp_complement(1)"),
    ("coles_tawn(0.5,0.8)", "gaussian(0.6)", "power(1.5)"),
    ("gaussian(0.6)", "frank(2)", "power(1.5)"),
]
EXCEEDANCE_LEVELS = [0.5, 0.9, 0.99]

#: Diagnose workload: chi/eta of blends at LEVELS, chi/eta of single
#: copulas, and copula_cdf on a lattice of query levels.
DIAGNOSE_BLENDS = [
    ("gumbel(2)", "gaussian(0.5)", "power(1.5)"),
    ("gumbel(2)", "clayton(1)", "power(0.8)"),
    ("husler_reiss(2)", "frank(1)", "exp_complement(1)"),
    ("student_t(0.5,4)", "clayton(1)", "power(1)"),
    ("gumbel(2)", "gumbel(2)", "power(1)"),
]
DIAGNOSE_SINGLES = [
    "gumbel(2)",
    "gaussian(0.5)",
    "gaussian(0.95)",
    "clayton(1)",
    "husler_reiss(2)",
    "frank(1)",
    "student_t(0.5,4)",
]
CDF_MODELS = DIAGNOSE_BLENDS[:3]
CDF_LEVELS = [0.005, 0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.97, 0.995]


def parse(text):
    """'tag(p1,p2)' -> ('tag', (p1, p2))."""
    tag, args = text.strip()[:-1].split("(", 1)
    return tag, tuple(float(a) for a in args.split(","))


def model_key(model):
    return "/".join(model)


# ---------------------------------------------------------------------------
# closed-form copula densities on the open unit square. Each takes the
# coordinates and their complements ub = 1 - u, vb = 1 - v: near the upper
# corner the complement is the accurate variable, so a point 1e-8 from the
# corner is not blurred by the rounding of u itself.
# ---------------------------------------------------------------------------
def _log(u, ub):
    return math.log1p(-ub) if u > 0.5 else math.log(u)


def _ppf_norm(u, ub):
    return -float(ndtri(ub)) if u > 0.5 else float(ndtri(u))


def gumbel(a):
    def pdf(u, v, ub, vb):
        x, y = -_log(u, ub), -_log(v, vb)
        s = (x**a + y**a) ** (1.0 / a)
        return math.exp(
            -s + x + y + (a - 1.0) * math.log(x * y) + (1.0 - 2.0 * a) * math.log(s)
            + math.log(s + a - 1.0)
        )

    return pdf


def clayton(a):
    def pdf(u, v, ub, vb):
        lu, lv = _log(u, ub), _log(v, vb)
        w = math.expm1(-a * lu) + math.expm1(-a * lv)
        return math.exp(math.log1p(a) - (a + 1.0) * (lu + lv) - (2.0 + 1.0 / a) * math.log1p(w))

    return pdf


def frank(a):
    D = -math.expm1(-a)

    def pdf(u, v, ub, vb):
        eu, ev = -math.expm1(-a * u), -math.expm1(-a * v)
        return a * D * math.exp(-a * (u + v)) / (D - eu * ev) ** 2

    return pdf


def gaussian(rho):
    om = (1.0 - rho) * (1.0 + rho)

    def pdf(u, v, ub, vb):
        x, y = _ppf_norm(u, ub), _ppf_norm(v, vb)
        return math.exp(-(rho * rho * (x * x + y * y) - 2.0 * rho * x * y) / (2.0 * om)) / math.sqrt(om)

    return pdf


def student_t(rho, nu):
    om = (1.0 - rho) * (1.0 + rho)
    # log of the bivariate t normaliser over the product of univariate ones
    const = (
        gammaln((nu + 2.0) / 2.0) + gammaln(nu / 2.0) - 2.0 * gammaln((nu + 1.0) / 2.0)
        - 0.5 * math.log(om)
    )

    def ppf(u, ub):
        return -float(stdtrit(nu, ub)) if u > 0.5 else float(stdtrit(nu, u))

    def pdf(u, v, ub, vb):
        x, y = ppf(u, ub), ppf(v, vb)
        q = (x * x + y * y - 2.0 * rho * x * y) / (nu * om)
        return math.exp(
            const + (nu + 1.0) / 2.0 * (math.log1p(x * x / nu) + math.log1p(y * y / nu))
            - (nu + 2.0) / 2.0 * math.log1p(q)
        )

    return pdf


def husler_reiss(a):
    # C = exp(-l(x, y)), l = x Phi(z1) + y Phi(z2), z1 = 1/a + a/2 log(x/y);
    # c = C/(u v) (l_x l_y - l_xy), l_x = Phi(z1), -l_xy = a phi(z1) / (2 y)
    def pdf(u, v, ub, vb):
        x, y = -_log(u, ub), -_log(v, vb)
        z1 = 1.0 / a + 0.5 * a * math.log(x / y)
        z2 = 1.0 / a - 0.5 * a * math.log(x / y)
        p1, p2 = float(ndtr(z1)), float(ndtr(z2))
        phi1 = math.exp(-0.5 * z1 * z1) / math.sqrt(2.0 * math.pi)
        return math.exp(-(x * p1 + y * p2) + x + y) * (p1 * p2 + 0.5 * a * phi1 / y)

    return pdf


def coles_tawn(a, b):
    # Dirichlet model: l = x (1 - I_q(a+1, b)) + y I_q(a, b+1), q = a y/(a y + b x);
    # l_xy = -beta_pdf(q; a+1, b) dq/dy with dq/dy = a b x / (a y + b x)^2
    log_b = betaln(a + 1.0, b)

    def pdf(u, v, ub, vb):
        x, y = -_log(u, ub), -_log(v, vb)
        den = a * y + b * x
        q, one_m_q = a * y / den, b * x / den
        lx = 1.0 - float(betainc(a + 1.0, b, q))
        ly = float(betainc(a, b + 1.0, q))
        if q > 0.0 and one_m_q > 0.0:
            log_dens = a * math.log(q) + (b - 1.0) * math.log(one_m_q) - log_b
            minus_lxy = math.exp(log_dens) * a * b * x / (den * den)
        else:  # q underflowed at the edge of the square, where l_xy vanishes
            minus_lxy = 0.0
        return math.exp(-(x * lx + y * ly) + x + y) * (lx * ly + minus_lxy)

    return pdf


DENSITIES = {
    "gumbel": gumbel,
    "clayton": clayton,
    "frank": frank,
    "gaussian": gaussian,
    "student_t": student_t,
    "husler_reiss": husler_reiss,
    "coles_tawn": coles_tawn,
}


def weight(text):
    tag, (th,) = parse(text)
    if tag == "power":
        return lambda u, v, ub, vb: (u * v) ** th
    if tag == "exp_complement":
        return lambda u, v, ub, vb: math.exp(-th * ub * vb)
    raise ValueError(f"unknown weighting {text}")


def density(text):
    tag, params = parse(text)
    return DENSITIES[tag](*params)


# ---------------------------------------------------------------------------
# nested adaptive quadrature of the blended density. Every integral over a
# whole coordinate is split at 1/2 and its upper half taken in the
# complement coordinate, so quad places nodes next to the corner exactly.
# ---------------------------------------------------------------------------
def _near(c, hi=0.5):
    """Break points at c/10, c and every decade above c up to hi: a density
    ridge at distance c from a corner decays like a power over the decades
    beyond it, which a single Gauss-Kronrod panel would step over."""
    pts = [c / 10.0]
    while pts[-1] * 10.0 < hi:
        pts.append(pts[-1] * 10.0)
    return [p for p in pts if 0.0 < p < hi]


_CORNER = [1e-3, 1e-2, 1e-1]


class Blend:
    def __init__(self, model, tol):
        tail, body, w = model
        self.ct, self.cb, self.pi = density(tail), density(body), weight(w)
        # inner integrals are resolved 10x finer, so their error stays
        # below what the outer rule is asked to resolve
        self.outer = dict(epsabs=0.0, epsrel=tol, limit=400)
        self.inner = dict(epsabs=0.0, epsrel=tol * 0.1, limit=400)
        self.K_tail = self._square(lambda *p: self.pi(*p) * self.ct(*p))
        self.K_body = self._square(lambda *p: (1.0 - self.pi(*p)) * self.cb(*p))
        self.K = self.K_tail + self.K_body

    def _quad(self, f, lo, hi, pts, inner=False):
        val, _ = quad(f, lo, hi, points=pts or None, **(self.inner if inner else self.outer))
        return val

    def _halves(self, f, c, cb, inner):
        """int_0^1 f(t, 1 - t) dt, the upper half in tb = 1 - t."""
        lo = self._quad(lambda t: f(t, 1.0 - t), 0.0, 0.5, _near(c), inner)
        hi = self._quad(lambda tb: f(1.0 - tb, tb), 0.0, 0.5, _near(cb), inner)
        return lo + hi

    def dens(self, s, t, sb, tb):
        p = self.pi(s, t, sb, tb)
        return p * self.ct(s, t, sb, tb) + (1.0 - p) * self.cb(s, t, sb, tb)

    def _square(self, g):
        inner = lambda s, sb: self._halves(lambda t, tb: g(s, t, sb, tb), s, sb, True)
        lo = self._quad(lambda s: inner(s, 1.0 - s), 0.0, 0.5, _CORNER)
        hi = self._quad(lambda sb: inner(1.0 - sb, sb), 0.0, 0.5, _CORNER)
        return lo + hi

    def line(self, axis, x, xb):
        """int_0^1 K cstar over the other coordinate, this one fixed at x."""
        if axis == 0:
            return self._halves(lambda t, tb: self.dens(x, t, xb, tb), x, xb, True)
        return self._halves(lambda t, tb: self.dens(t, x, tb, xb), x, xb, True)

    def mass(self, axis, a, b):
        """Signed int_a^b of the unnormalised margin."""
        return self._quad(lambda s: self.line(axis, s, 1.0 - s), a, b, None) if a != b else 0.0

    def upper_mass(self, axis, da, db):
        """Signed int over s = 1 - sb, sb from da to db, of the margin."""
        return self._quad(lambda sb: self.line(axis, 1.0 - sb, sb), da, db, None) if da != db else 0.0

    def quantile(self, axis, q):
        """F^-1(q) as (x, 1 - x); the complement is the solved variable for q > 1/2."""
        if q <= 0.5:
            x = q
            m = self.mass(axis, 0.0, x)
            for _ in range(60):
                step = (m - q * self.K) / self.line(axis, x, 1.0 - x)
                x_new = min(max(x - step, 0.5 * x), x + 0.5 * (1.0 - x))
                m += self.mass(axis, x, x_new)
                done = abs(x_new - x) <= 1e-15 * x
                x = x_new
                if done:
                    break
            return x, 1.0 - x
        target = (1.0 - q) * self.K
        d = 1.0 - q
        sv = self.upper_mass(axis, 0.0, d)
        for _ in range(60):
            step = (sv - target) / self.line(axis, 1.0 - d, d)
            d_new = min(max(d - step, 0.5 * d), 2.0 * d, 0.75)
            sv += self.upper_mass(axis, d, d_new)
            done = abs(d_new - d) <= 1e-14 * d
            d = d_new
            if done:
                break
        return 1.0 - d, d

    def joint_survival(self, dx, dy):
        """P[X > 1 - dx, Y > 1 - dy], integrated in complement coordinates."""
        def inner(sb):
            pts = _near(sb * dy / dx, dy)
            return self._quad(lambda tb: self.dens(1.0 - sb, 1.0 - tb, sb, tb), 0.0, dy, pts, True)

        return self._quad(inner, 0.0, dx, [dx * c for c in _CORNER]) / self.K

    def joint_cdf(self, x, y):
        """P[X <= x, Y <= y] for x, y away from one."""
        def inner(s):
            # the lower-corner ridge decays over decades above s; the
            # upper-corner one sits within 1 - s of the diagonal
            upper = (s, 1.0 - 10.0 * (1.0 - s), 1.0 - 0.1 * (1.0 - s))
            pts = sorted(set(_near(s, y)) | {p for p in upper if 0.0 < p < y})
            return self._quad(lambda t: self.dens(s, t, 1.0 - s, 1.0 - t), 0.0, y, pts, True)

        pts = sorted({p for p in (*_CORNER, y / 10.0, y) if 0.0 < p < x})
        return self._quad(inner, 0.0, x, pts) / self.K

    def log_copula_density(self, x, y):
        """log of the induced copula density at the margins' quantiles (x, y),
        each given as a (value, complement) pair."""
        (x, xb), (y, yb) = x, y
        return (
            math.log(self.dens(x, y, xb, yb)) + math.log(self.K)
            - math.log(self.line(0, x, xb)) - math.log(self.line(1, y, yb))
        )


def check_component(text, tol):
    """A component density must integrate to one; a wrong closed form
    would otherwise pass through every blend value unnoticed."""
    b = Blend((text, text, "power(1)"), tol)
    if abs(b.K - 1.0) > 1e-7:
        raise AssertionError(f"{text} integrates to {b.K!r}, not 1")


# ---------------------------------------------------------------------------
# the three sections of reference.json
# ---------------------------------------------------------------------------
def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def fit_section(tol):
    rng = np.random.default_rng(ANCHOR_SEED)
    anchors = rng.random((N_ANCHORS, 2))
    out = {}
    for model in FIT_MODELS:
        b = Blend(model, tol)
        terms = [
            b.log_copula_density(b.quantile(0, float(u)), b.quantile(1, float(v)))
            for u, v in anchors
        ]
        out[model_key(model)] = {"K": b.K, "terms": terms, "loglik": float(np.sum(terms))}
    return anchors, out


def sample_section(tol):
    out = {}
    for model in SAMPLE_MODELS:
        b = Blend(model, tol)
        exc = []
        for r in EXCEEDANCE_LEVELS:
            dx = b.quantile(0, r)[1]
            dy = b.quantile(1, r)[1]
            exc.append(b.joint_survival(dx, dy))
        out[model_key(model)] = {
            "K": b.K,
            "K_tail": b.K_tail,
            "K_body": b.K_body,
            "joint_exceedance": exc,
        }
    return out


def blend_chi_eta(model, tol):
    b = Blend(model, tol)
    chi, eta = [], []
    for r in LEVELS:
        dx = b.quantile(0, r)[1]
        dy = b.quantile(1, r)[1]
        sf = b.joint_survival(dx, dy)
        chi.append(sf / (1.0 - r))
        eta.append(math.log1p(-r) / math.log(sf))
    return chi, eta


def cdf_lattice(model, tol):
    b = Blend(model, tol)
    xs = [b.quantile(0, q)[0] for q in CDF_LEVELS]
    ys = [b.quantile(1, q)[0] for q in CDF_LEVELS]
    return [[b.joint_cdf(x, y) for y in ys] for x in xs]


def _tbar(x, nu):
    """Student t survival function with nu degrees of freedom."""
    x, nu = mp.mpf(x), mp.mpf(nu)
    tail = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + x * x), regularized=True) / 2
    return tail if x >= 0 else 1 - tail


def single_survival(text, r):
    """P[U > r, V > r] of a single copula, in closed form or by mpmath quad."""
    tag, p = parse(text)
    r = mp.mpf(1) - mp.mpf(1.0 - r)  # 1 - r exactly as the float level has it
    d = mp.mpf(1) - r
    if tag == "gumbel":
        return 1 - 2 * r + r ** (mp.mpf(2) ** (1 / mp.mpf(p[0])))
    if tag == "clayton":
        a = mp.mpf(p[0])
        return 1 - 2 * r + (2 * r ** (-a) - 1) ** (-1 / a)
    if tag == "frank":
        a = mp.mpf(p[0])
        # radial symmetry: P[U > r, V > r] = C(1 - r, 1 - r)
        return -mp.log(1 + mp.expm1(-a * d) ** 2 / mp.expm1(-a)) / a
    if tag == "husler_reiss":
        a = mp.mpf(p[0])
        return 1 - 2 * r + r ** (2 * mp.ncdf(1 / a))
    if tag == "gaussian":
        rho = mp.mpf(p[0])
        z = -mp.sqrt(2) * mp.erfinv(2 * d - 1)
        sq = mp.sqrt(1 - rho * rho)
        f = lambda t: mp.npdf(t) * mp.ncdf(-(z - rho * t) / sq)
        return mp.quad(f, [z, z + 1, z + 4, mp.inf])
    if tag == "student_t":
        rho, nu = mp.mpf(p[0]), mp.mpf(p[1])
        z = mp.findroot(lambda x: _tbar(x, nu) - d, float(stdtrit(float(nu), 1.0 - float(d))))
        sq = mp.sqrt(1 - rho * rho)
        lognorm = mp.loggamma((nu + 1) / 2) - mp.loggamma(nu / 2) - mp.log(mp.sqrt(nu * mp.pi))
        dens = lambda t: mp.exp(lognorm - (nu + 1) / 2 * mp.log1p(t * t / nu))
        f = lambda t: dens(t) * _tbar((z - rho * t) / (sq * mp.sqrt((nu + t * t) / (nu + 1))), nu + 1)
        return mp.quad(f, [z, 2 * z, 10 * z, 100 * z, mp.inf])
    raise ValueError(text)


def single_chi_eta(text):
    chi, eta = [], []
    for r in LEVELS:
        with mp.workdps(30):
            sf = single_survival(text, r)
            chi.append(float(sf / mp.mpf(1.0 - r)))
            eta.append(float(mp.log(mp.mpf(1.0 - r)) / mp.log(sf)))
    return chi, eta


def twice(fn, *args):
    """(value at TOL / 2, value at TOL)."""
    coarse = fn(*args, TOL)
    fine = fn(*args, TOL / 2.0)
    return fine, coarse


def main():
    t0 = time.perf_counter()
    # quad warns where rounding stops it short of TOL on a negligible
    # piece; the halved-tolerance comparison bounds what that costs
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        for fam in sorted({m for ms in (FIT_MODELS, SAMPLE_MODELS, DIAGNOSE_BLENDS) for mod in ms for m in mod[:2]}):
            check_component(fam, TOL)
        print(f"components integrate to one ({time.perf_counter() - t0:.0f} s)", flush=True)

        anchors, fit_fine = fit_section(TOL / 2.0)
        _, fit_coarse = fit_section(TOL)
        for key, val in fit_fine.items():
            val["error"] = abs(val["loglik"] - fit_coarse[key]["loglik"])
        print(f"fit section done ({time.perf_counter() - t0:.0f} s)", flush=True)

        samp_fine, samp_coarse = twice(sample_section)
        for key, val in samp_fine.items():
            c = samp_coarse[key]
            val["error"] = max(_rel(val["K"], c["K"]), _rel(val["joint_exceedance"], c["joint_exceedance"]))
        print(f"sample section done ({time.perf_counter() - t0:.0f} s)", flush=True)

        blends = {}
        for model in DIAGNOSE_BLENDS:
            (chi, eta), (chi_c, eta_c) = twice(blend_chi_eta, model)
            blends[model_key(model)] = {"chi": chi, "eta": eta, "error": max(_rel(chi, chi_c), _rel(eta, eta_c))}
            print(f"  chi/eta {model_key(model)} ({time.perf_counter() - t0:.0f} s)", flush=True)
        cdf = {}
        for model in CDF_MODELS:
            fine, coarse = twice(cdf_lattice, model)
            cdf[model_key(model)] = {"values": fine, "error": float(np.max(np.abs(np.subtract(fine, coarse))))}
            print(f"  cdf {model_key(model)} ({time.perf_counter() - t0:.0f} s)", flush=True)

    singles = {}
    for text in DIAGNOSE_SINGLES:
        chi, eta = single_chi_eta(text)
        singles[text] = {"chi": chi, "eta": eta}

    ref = {
        "generator": "bench/reference.py",
        "tolerance": TOL,
        "quad_warnings": sum(issubclass(w.category, IntegrationWarning) for w in caught),
        "levels": LEVELS,
        "fit": {"anchor_seed": ANCHOR_SEED, "anchors": anchors.tolist(), "models": fit_fine},
        "sample": {"levels": EXCEEDANCE_LEVELS, "models": samp_fine},
        "diagnose": {
            "blends": blends,
            "singles": singles,
            "cdf_levels": CDF_LEVELS,
            "cdf": cdf,
        },
    }
    OUT.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT} in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
