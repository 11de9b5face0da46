"""Generate DEEP_QUANTILE_ORACLE for tests/test_blend.py.

Two blends, each with a Gumbel(2) tail and the power weight
pi(u, v) = (u v)^theta,

    gumbel(2) / gaussian(0.5) / power(1.5),
    gumbel(2) / clayton(1) / power(0.8),

blended as cstar = [pi c_tail + (1 - pi) c_body] / K. For each, the value
is the distance 1 - x of the marginal quantile x = F^-1(1 - d) from 1, at
d = 1.7e-4, 4.1e-6 and 1.49e-8: the root of

    int_x^1 f(s) ds = d,   K f(s) = int_0^1 [pi c_tail + (1 - pi) c_body](s, v) dv.

Both blends are exchangeable, so one margin serves both coordinates.

Only textbook closed-form copula densities are used and nothing is
imported from the package under test:

* K f(s) by adaptive ``scipy.integrate.quad`` over v below 1/2 and over
  log(1 - v) above, with break points where the conditional density
  concentrates (near v = s, and near 1 - v = 1 - s);
* K = int_0^1 K f(s) ds by ``quad``;
* the mass within t of 1 by ``quad`` of K f(1 - t) over t in (0, d'), so
  the distance to 1 is never formed by a subtraction near 1;
* the root by Newton steps on that mass.

Everything is computed twice, at a loose and a tight quad tolerance; the
difference bounds the error of the printed values.

Run: ``python tests/oracle_deep_quantiles.py`` (about a minute).
"""
import math
import warnings

from scipy.integrate import IntegrationWarning, quad
from scipy.special import ndtri

LEVELS = (1.7e-4, 4.1e-6, 1.49e-8)


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
        """int_0^1 blended(x, v) dv: over v below 1/2, with break points
        around the spike at v ~ x, and over log(1 - v) above, where the
        spike at 1 - v ~ 1 - x is a smooth bump of unit width."""
        lower_pts = [p for p in (x / 10, x, 10 * x) if p < 0.5]
        lower, _ = quad(
            lambda v: self.blended(x, v, xbar, 1.0 - v), 0.0, 0.5, points=lower_pts or None, **self.tol
        )
        # 1 - v below exp(-40) (1 - x) holds a negligible share of the mass
        lo, hi = math.log(xbar) - 40.0, math.log(0.5)
        upper_pts = [p for p in (math.log(xbar) + k for k in (-3.0, 0.0, 3.0, 6.0)) if lo < p < hi]

        def upper_integrand(s):
            w = math.exp(s)
            return w * self.blended(x, 1.0 - w, xbar, w)

        upper, _ = quad(upper_integrand, lo, hi, points=upper_pts or None, **self.tol)
        return lower + upper

    def norm_constant(self):
        lower, _ = quad(lambda s: self.pdf_unnorm(s, 1.0 - s), 0.0, 0.5, **self.tol)
        upper, _ = quad(lambda t: self.pdf_unnorm(1.0 - t, t), 0.0, 0.5, **self.tol)
        return lower + upper

    def mass_above(self, t):
        """K P[coord > 1 - t] = int_0^t pdf_unnorm(1 - r) dr."""
        val, _ = quad(lambda r: self.pdf_unnorm(1.0 - r, r), 0.0, t, **self.tol)
        return val

    def upper_quantile_distance(self, d, K):
        """t with P[coord > 1 - t] = d, by safeguarded Newton steps."""
        t = d
        for _ in range(50):
            step = (self.mass_above(t) - d * K) / self.pdf_unnorm(1.0 - t, t)
            t_new = min(max(t - step, 0.5 * t), 2.0 * t)
            if abs(t_new - t) < 1e-13 * t:
                return t_new
            t = t_new
        raise RuntimeError(f"Newton did not converge at d = {d}")


def distances(key, epsabs, epsrel):
    marg = Margin(*MODELS[key], epsabs, epsrel)
    K = marg.norm_constant()
    return K, [marg.upper_quantile_distance(d, K) for d in LEVELS]


def main():
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for key in MODELS:
            K_loose, loose = distances(key, 1e-10, 1e-10)
            K, tight = distances(key, 1e-13, 1e-13)
            print(f"{key}: K = {K:.12f}   (|tight - loose| = {abs(K - K_loose):.1e})")
            for d, a, b in zip(LEVELS, loose, tight):
                print(f"  d = {d:.3g}: 1 - x = {b:.10e}   (relative |tight - loose| = {abs(b / a - 1):.1e})")
    print("DEEP_QUANTILE_ORACLE = {")
    for key in MODELS:
        _, tight = distances(key, 1e-13, 1e-13)
        print(f'    "{key}": ({", ".join(f"{t:.9e}" for t in tight)}),')
    print("}")


if __name__ == "__main__":
    main()
