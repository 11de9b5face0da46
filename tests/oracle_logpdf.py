"""Generate LOGPDF_ORACLE for tests/test_families.py.

For each copula of ``SPECS`` the script evaluates the log-density log c
with ``mpmath`` at every point of a corner lattice and prints the values,
one tuple per copula, in the order of ``lattice()``. Nothing is imported
from the package under test. Each point is a double, formed in double
arithmetic as the test forms it, and read into ``mpmath`` exactly, so
1 - u is exact for every u.

The densities, with x = -log u and y = -log v for the extreme-value
families, and the exponent ell of C = exp(-ell(x, y)):

* gaussian(rho) and student_t(rho, nu): the bivariate density at the
  margins' quantiles over the product of the marginal densities. The
  normal quantile is ``mpmath.erfinv``'s; the t quantile solves
  2 p = I_z(nu / 2, 1 / 2), z = nu / (nu + x^2), for p <= 1/2 by
  bisection in log |x|, and is odd about p = 1/2;
* frank(a): a (1 - e^-a) e^(-a (u + v)) / [(1 - e^-a) - (1 - e^-au)(1 - e^-av)]^2;
* clayton(a): (1 + a) (u v)^(-a - 1) (u^-a + v^-a - 1)^(-2 - 1/a);
* joe(a): A^(1/a - 2) (s t)^(a - 1) (a - 1 + A), with s = 1 - u, t = 1 - v
  and A = s^a + t^a - s^a t^a;
* gumbel(a): C / (u v) (x y)^(a - 1) S^(1 - 2a) (S + a - 1), with
  S = (x^a + y^a)^(1/a);
* inverted_gumbel(a): gumbel's density at (1 - u, 1 - v);
* husler_reiss(a): C / (u v) [Phi(z1) Phi(z2) + a / (2 y) phi(z1)], with
  z1 = 1/a + a/2 log(x / y) and z2 = 1/a + a/2 log(y / x);
* galambos(a): C / (u v) [(1 - A1)(1 - A2) + T], as in
  ``tests/oracle_galambos.py``;
* coles_tawn(a, b): C / (u v) [W1 W2 + T], with q = a y / (a y + b x),
  W1 = I_{1-q}(b, a + 1) and W2 = I_q(a, b + 1) the slopes of
  ell = x W1 + y W2, and T = a b Gamma(a + b + 1) / (Gamma(a) Gamma(b))
  q^(a - 1) (1 - q)^(b - 1) x y / (a y + b x)^3 minus its mixed derivative.

Every family but the two elliptical ones has a CDF in closed form, and
each of their values is checked against log of the CDF's mixed
derivative d^2 C / du dv, taken by ``mpmath.diff`` at 250 digits (the
density can be 1e-110 times C, which the differences cancel), so the
closed form is checked too. The values are formed at 60 digits, the
incomplete beta functions and the differences of 1 - A with 90 more.

Run: ``python tests/oracle_logpdf.py`` (about a minute). It prints the
dictionary that the test freezes.
"""
import mpmath as mp

mp.mp.dps = 60

LEVELS = (1e-10, 1e-6, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9)
SPECS = (
    ("gaussian", (0.5,)),
    ("gaussian", (-0.9,)),
    ("student_t", (0.5, 4.0)),
    ("student_t", (-0.9, 1.5)),
    ("frank", (5.0,)),
    ("frank", (-10.0,)),
    ("clayton", (1.0,)),
    ("clayton", (5.0,)),
    ("joe", (2.0,)),
    ("gumbel", (2.0,)),
    ("gumbel", (5.0,)),
    ("inverted_gumbel", (2.0,)),
    ("husler_reiss", (2.0,)),
    ("galambos", (1.5,)),
    ("coles_tawn", (0.5, 0.8)),
    ("coles_tawn", (0.3, 3.0)),
    ("coles_tawn", (2.0, 1.0)),
)


def lattice():
    """The (u, v) points as doubles, u slowest, in the order of the values."""
    return [(u, v) for u in LEVELS for v in LEVELS]


def normal_quantile(p):
    return mp.sqrt(2) * mp.erfinv(2 * p - 1)


def t_lower(nu, x):
    """P[T <= x] for x <= 0."""
    return mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + x * x), regularized=True) / 2


def t_quantile(nu, p):
    if p > mp.mpf(1) / 2:
        return -t_quantile(nu, 1 - p)
    if p == mp.mpf(1) / 2:
        return mp.mpf(0)
    lo, hi = mp.mpf(-40), mp.mpf(800)  # log |x|; t_lower falls as it grows
    for _ in range(260):
        mid = (lo + hi) / 2
        if t_lower(nu, -mp.exp(mid)) > p:
            lo = mid
        else:
            hi = mid
    return -mp.exp((lo + hi) / 2)


def t_density(nu, x):
    return (
        mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
        * (1 + x * x / nu) ** (-(nu + 1) / 2)
    )


def log_gaussian(rho, u, v):
    x, y = normal_quantile(u), normal_quantile(v)
    om = 1 - rho * rho
    joint = mp.exp(-(x * x - 2 * rho * x * y + y * y) / (2 * om)) / (2 * mp.pi * mp.sqrt(om))
    return mp.log(joint) - mp.log(mp.npdf(x)) - mp.log(mp.npdf(y))


def log_student_t(rho, nu, u, v):
    x, y = t_quantile(nu, u), t_quantile(nu, v)
    om = 1 - rho * rho
    joint = (
        mp.gamma((nu + 2) / 2) / (mp.gamma(nu / 2) * nu * mp.pi * mp.sqrt(om))
        * (1 + (x * x - 2 * rho * x * y + y * y) / (nu * om)) ** (-(nu + 2) / 2)
    )
    return mp.log(joint) - mp.log(t_density(nu, x)) - mp.log(t_density(nu, y))


def frank(a):
    d = -mp.expm1(-a)

    def cdf(u, v):
        return -mp.log(1 - mp.expm1(-a * u) * mp.expm1(-a * v) / d) / a

    def log_pdf(u, v):
        den = d - mp.expm1(-a * u) * mp.expm1(-a * v)
        return mp.log(a * d) - a * (u + v) - 2 * mp.log(abs(den))

    return cdf, log_pdf


def clayton(a):
    def cdf(u, v):
        return (u ** -a + v ** -a - 1) ** (-1 / a)

    def log_pdf(u, v):
        return mp.log(1 + a) - (a + 1) * mp.log(u * v) - (2 + 1 / a) * mp.log(u ** -a + v ** -a - 1)

    return cdf, log_pdf


def joe(a):
    def big_a(u, v):
        s, t = (1 - u) ** a, (1 - v) ** a
        return s + t - s * t

    def cdf(u, v):
        return 1 - big_a(u, v) ** (1 / a)

    def log_pdf(u, v):
        A = big_a(u, v)
        return (1 / a - 2) * mp.log(A) + (a - 1) * mp.log((1 - u) * (1 - v)) + mp.log(a - 1 + A)

    return cdf, log_pdf


def gumbel(a):
    def ell(x, y):
        return (x ** a + y ** a) ** (1 / a)

    def cdf(u, v):
        return mp.exp(-ell(-mp.log(u), -mp.log(v)))

    def log_pdf(u, v):
        x, y = -mp.log(u), -mp.log(v)
        s = ell(x, y)
        return -s + x + y + (a - 1) * mp.log(x * y) + (1 - 2 * a) * mp.log(s) + mp.log(s + a - 1)

    return cdf, log_pdf


def inverted_gumbel(a):
    base_cdf, base_log_pdf = gumbel(a)

    def cdf(u, v):
        return u + v - 1 + base_cdf(1 - u, 1 - v)

    def log_pdf(u, v):
        return base_log_pdf(1 - u, 1 - v)

    return cdf, log_pdf


def husler_reiss(a):
    def z(x, y):
        return 1 / a + a / 2 * mp.log(x / y)

    def cdf(u, v):
        x, y = -mp.log(u), -mp.log(v)
        return mp.exp(-(x * mp.ncdf(z(x, y)) + y * mp.ncdf(z(y, x))))

    def log_pdf(u, v):
        x, y = -mp.log(u), -mp.log(v)
        z1, z2 = z(x, y), z(y, x)
        ell = x * mp.ncdf(z1) + y * mp.ncdf(z2)
        return -ell + x + y + mp.log(mp.ncdf(z1) * mp.ncdf(z2) + a / (2 * y) * mp.npdf(z1))

    return cdf, log_pdf


def galambos(a):
    def cdf(u, v):
        x, y = -mp.log(u), -mp.log(v)
        return mp.exp(-(x + y - (x ** -a + y ** -a) ** (-1 / a)))

    def log_pdf(u, v):
        # 1 - A1 and 1 - A2 cancel by up to 40 digits at the corners
        with mp.extradps(90):
            x, y = -mp.log(u), -mp.log(v)
            g = x ** -a + y ** -a
            a1 = (1 + (x / y) ** a) ** (-1 - 1 / a)
            a2 = (1 + (y / x) ** a) ** (-1 - 1 / a)
            t = (1 + a) * g ** (-2 - 1 / a) * (x * y) ** (-a - 1)
            return +(-(x + y - g ** (-1 / a)) + x + y + mp.log((1 - a1) * (1 - a2) + t))

    return cdf, log_pdf


def coles_tawn(a, b):
    def weights(x, y):
        with mp.extradps(90):
            q = a * y / (a * y + b * x)
            w1 = mp.betainc(b, a + 1, 0, 1 - q, regularized=True)
            w2 = mp.betainc(a, b + 1, 0, q, regularized=True)
        return q, +w1, +w2

    def cdf(u, v):
        x, y = -mp.log(u), -mp.log(v)
        _, w1, w2 = weights(x, y)
        return mp.exp(-(x * w1 + y * w2))

    def log_pdf(u, v):
        x, y = -mp.log(u), -mp.log(v)
        q, w1, w2 = weights(x, y)
        t = (
            a * b * mp.gamma(a + b + 1) / (mp.gamma(a) * mp.gamma(b))
            * q ** (a - 1) * (1 - q) ** (b - 1) * x * y / (a * y + b * x) ** 3
        )
        return -(x * w1 + y * w2) + x + y + mp.log(w1 * w2 + t)

    return cdf, log_pdf


CLOSED_FORMS = {
    "frank": frank,
    "clayton": clayton,
    "joe": joe,
    "gumbel": gumbel,
    "inverted_gumbel": inverted_gumbel,
    "husler_reiss": husler_reiss,
    "galambos": galambos,
    "coles_tawn": coles_tawn,
}


def log_density(tag, params, u, v):
    """log c at the double point (u, v), and the check's value or None."""
    params = [mp.mpf(p) for p in params]
    u, v = mp.mpf(u), mp.mpf(v)
    if tag == "gaussian":
        return log_gaussian(*params, u, v), None
    if tag == "student_t":
        return log_student_t(*params, u, v), None
    cdf, log_pdf = CLOSED_FORMS[tag](*params)
    with mp.workdps(250):
        check = mp.log(mp.diff(cdf, (u, v), (1, 1)))
    return log_pdf(u, v), check


def name(tag, params):
    return f"{tag}({','.join(format(p, 'g') for p in params)})"


def main():
    print("LOGPDF_ORACLE = {")
    for tag, params in SPECS:
        values = []
        for u, v in lattice():
            value, check = log_density(tag, params, u, v)
            if check is not None:
                assert abs(value - check) < mp.mpf("1e-30") * max(1, abs(value)), (tag, params, u, v)
            values.append(float(value))
        print(f"    {name(tag, params)!r}: (")
        for i in range(0, len(values), 4):
            print("        " + " ".join(f"{x!r}," for x in values[i : i + 4]))
        print("    ),")
    print("}")


if __name__ == "__main__":
    main()
