"""Generate DEEP_QUANTILE_ORACLE, DEEP_LOWER_QUANTILE_ORACLE and
DEEP_CHI_ETA_ORACLE for tests/test_blend.py.

Two blends, each with a Gumbel(2) tail and the power weight
pi(u, v) = (u v)^theta,

    gumbel(2) / gaussian(0.5) / power(1.5),
    gumbel(2) / clayton(1) / power(0.8),

blended as cstar = [pi c_tail + (1 - pi) c_body] / K. For each, the upper
value is the distance 1 - x of the marginal quantile x = F^-1(1 - d) from
1, and the lower value the quantile x = F^-1(d) itself, at d = 1.7e-4,
4.1e-6 and 1.49e-8: the roots of

    int_x^1 f(s) ds = d   and   int_0^x f(s) ds = d,
    K f(s) = int_0^1 [pi c_tail + (1 - pi) c_body](s, v) dv.

Both blends are exchangeable, so one margin serves both coordinates.

Only textbook closed-form copula densities are used and nothing is
imported from the package under test:

* K f(s) by adaptive ``scipy.integrate.quad`` over log v below 1/2 and
  over log(1 - v) above, with break points where the conditional density
  concentrates (near v = s, and near 1 - v = 1 - s);
* K = int_0^1 K f(s) ds by ``quad``;
* the mass within t of 1 by ``quad`` of K f(1 - r) over r in (0, t), so
  the distance to 1 is never formed by a subtraction near 1, and the
  mass within t of 0 by ``quad`` of K f over (0, t);
* each root by Newton steps on that mass.

The chi/eta values are at r = 1 - d as a double, whose distance to 1 is
d' = 1 - (1 - d), as ``dependence.chi_eta`` sees it:

    chi = S / d',   eta = log d' / log S,   S = P[U* > x, V* > x],

with x = F^-1(r) the script's own root at d'. S is K^-1 times the
integral of the blended density over the square (x, 1)^2, in distances
p = 1 - u and q = 1 - v to 1: cstar is symmetric, so twice the integral
over 0 < q < p < 1 - x, each coordinate over its log and the inner one
with break points around log p, where the tail's density concentrates.
These quads are relative (``epsabs = 0``), since S is as small as 1e-8.

Everything is computed twice, at a loose and a tight quad tolerance; the
difference bounds the error of the printed values.

Run: ``python tests/oracle_deep_quantiles.py`` (about two minutes).
"""
import math
import warnings

from scipy.integrate import IntegrationWarning, quad
from scipy.special import ndtri

LEVELS = (1.7e-4, 4.1e-6, 1.49e-8)
#: quad tolerances (absolute and relative) of the two passes
LOOSE, TIGHT = 1e-10, 1e-13


# Each density takes both coordinates and their distances to 1, so that
# nothing near the corner (1, 1) is computed from a rounded 1 - u.


def _neg_log(u, ubar):
    return -math.log1p(-ubar) if ubar < 0.5 else -math.log(u)


def gumbel_pdf(u, v, ubar, vbar, a=2.0):
    x = _neg_log(u, ubar)
    y = _neg_log(v, vbar)
    s = (x**a + y**a) ** (1.0 / a)
    return math.exp(-s) / (u * v) * (x * y) ** (a - 1.0) * s ** (1.0 - 2.0 * a) * (s + a - 1.0)


def gaussian_pdf(u, v, ubar, vbar, rho=0.5):
    a = -ndtri(ubar) if ubar < 0.5 else ndtri(u)
    b = -ndtri(vbar) if vbar < 0.5 else ndtri(v)
    q = (rho * rho * (a * a + b * b) - 2.0 * rho * a * b) / (2.0 * (1.0 - rho * rho))
    return math.exp(-q) / math.sqrt(1.0 - rho * rho)


def clayton_pdf(u, v, ubar, vbar, a=1.0):
    # log form: (u v)^(-a-1) alone overflows where the product does not
    return math.exp(
        math.log1p(a)
        - (a + 1.0) * (math.log(u) + math.log(v))
        - (2.0 + 1.0 / a) * math.log(u**-a + v**-a - 1.0)
    )


MODELS = {
    "gumbel(2)/gaussian(0.5)/power(1.5)": (gumbel_pdf, gaussian_pdf, 1.5),
    "gumbel(2)/clayton(1)/power(0.8)": (gumbel_pdf, clayton_pdf, 0.8),
}


class Margin:
    def __init__(self, tail, body, theta, epsabs, epsrel):
        self.tail, self.body, self.theta = tail, body, theta
        self.tol = dict(epsabs=epsabs, epsrel=epsrel, limit=400)

    def blended(self, u, v, ubar, vbar):
        pi = (u * v) ** self.theta
        return pi * self.tail(u, v, ubar, vbar) + (1.0 - pi) * self.body(u, v, ubar, vbar)

    def pdf_unnorm(self, x, xbar):
        """int_0^1 blended(x, v) dv: over log v below 1/2 and over
        log(1 - v) above, where the spikes at v ~ x and at 1 - v ~ 1 - x
        are smooth bumps of unit width."""
        return self._half(x, lambda v: (x, v, xbar, 1.0 - v)) + self._half(
            xbar, lambda w: (x, 1.0 - w, xbar, w)
        )

    def _half(self, end, point):
        """int_0^(1/2) blended(*point(w)) dw over log w, with break points
        around log(end); w below exp(-40) end holds a negligible share of
        the mass."""
        lo, hi = math.log(end) - 40.0, math.log(0.5)
        pts = [p for p in (math.log(end) + k for k in (-3.0, 0.0, 3.0, 6.0)) if lo < p < hi]

        def integrand(s):
            w = math.exp(s)
            return w * self.blended(*point(w))

        val, _ = quad(integrand, lo, hi, points=pts or None, **self.tol)
        return val

    def end_pdf(self, r, top):
        """pdf_unnorm at distance r from 1 (``top``) or from 0."""
        return self.pdf_unnorm(1.0 - r, r) if top else self.pdf_unnorm(r, 1.0 - r)

    def end_mass(self, t, top):
        """K P[coord > 1 - t] (``top``) or K P[coord < t]: the integral of
        end_pdf over r in (0, t)."""
        val, _ = quad(lambda r: self.end_pdf(r, top), 0.0, t, **self.tol)
        return val

    def corner_mass(self, t):
        """K P[U* > 1 - t, V* > 1 - t]: twice the integral of the blended
        density over 0 < q < p < t in distances to 1, over log q and log
        p; below exp(-40) times the upper end lies a negligible share."""
        rel = dict(self.tol, epsabs=0.0)

        def inner(p):
            lp = math.log(p)

            def integrand(s):
                q = math.exp(s)
                return q * self.blended(1.0 - p, 1.0 - q, p, q)

            val, _ = quad(integrand, lp - 40.0, lp, points=(lp - 6.0, lp - 3.0, lp - 1.0), **rel)
            return val

        def outer(r):
            p = math.exp(r)
            return p * inner(p)

        lt = math.log(t)
        val, _ = quad(outer, lt - 40.0, lt, **rel)
        return 2.0 * val

    def norm_constant(self):
        return self.end_mass(0.5, False) + self.end_mass(0.5, True)

    def end_distance(self, d, K, top):
        """t with P[coord > 1 - t] = d (``top``) or P[coord < t] = d, by
        safeguarded Newton steps."""
        t = d
        for _ in range(50):
            step = (self.end_mass(t, top) - d * K) / self.end_pdf(t, top)
            t_new = min(max(t - step, 0.5 * t), 2.0 * t)
            if abs(t_new - t) < 1e-13 * t:
                return t_new
            t = t_new
        raise RuntimeError(f"Newton did not converge at d = {d}")


def distances(key, epsabs, epsrel):
    """K and {"upper": [1 - x], "lower": [x]} at LEVELS."""
    marg = Margin(*MODELS[key], epsabs, epsrel)
    K = marg.norm_constant()
    return K, {
        end: [marg.end_distance(d, K, end == "upper") for d in LEVELS] for end in ("upper", "lower")
    }


def chi_eta(key, epsabs, epsrel):
    """[(chi, eta)] at r = 1 - d for d in LEVELS, r a double."""
    marg = Margin(*MODELS[key], epsabs, epsrel)
    K = marg.norm_constant()
    out = []
    for d in LEVELS:
        d = 1.0 - (1.0 - d)
        sf = marg.corner_mass(marg.end_distance(d, K, True)) / K
        out.append((sf / d, math.log(d) / math.log(sf)))
    return out


def main():
    tables = {"upper": {}, "lower": {}, "chi_eta": {}}
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for key in MODELS:
            K_loose, loose = distances(key, LOOSE, LOOSE)
            K, tight = distances(key, TIGHT, TIGHT)
            print(f"{key}: K = {K:.12f}   (|tight - loose| = {abs(K - K_loose):.1e})")
            for end in ("upper", "lower"):
                tables[end][key] = tight[end]
                for d, a, b in zip(LEVELS, loose[end], tight[end]):
                    print(f"  {end} d = {d:.3g}: distance = {b:.10e}"
                          f"   (relative |tight - loose| = {abs(b / a - 1):.1e})")
            loose, tight = chi_eta(key, LOOSE, LOOSE), chi_eta(key, TIGHT, TIGHT)
            tables["chi_eta"][key] = tight
            for d, a, b in zip(LEVELS, loose, tight):
                print(f"  1 - r = {d:.3g}: chi = {b[0]:.10e}, eta = {b[1]:.10e}"
                      f"   (relative |tight - loose| = {abs(b[0] / a[0] - 1):.1e},"
                      f" {abs(b[1] / a[1] - 1):.1e})")
    for name, end in (("DEEP_QUANTILE_ORACLE", "upper"), ("DEEP_LOWER_QUANTILE_ORACLE", "lower")):
        print(f"{name} = {{")
        for key, tight in tables[end].items():
            print(f'    "{key}": ({", ".join(f"{t:.9e}" for t in tight)}),')
        print("}")
    print("DEEP_CHI_ETA_ORACLE = {")
    for key, tight in tables["chi_eta"].items():
        print(f'    "{key}": ({", ".join(f"({c:.9e}, {e:.9e})" for c, e in tight)}),')
    print("}")


if __name__ == "__main__":
    main()
