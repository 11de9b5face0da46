"""Generate GALAMBOS_LOGPDF_ORACLE for tests/test_families.py.

The Galambos copula with parameter a > 0 is

    C(u, v) = exp(-l(x, y)),   l(x, y) = x + y - (x^-a + y^-a)^(-1/a),

with x = -log u and y = -log v. Its density is

    c(u, v) = C(u, v) / (u v) * [(1 - A1)(1 - A2) + T],
    A1 = (1 + (x/y)^a)^(-1 - 1/a),   A2 = (1 + (y/x)^a)^(-1 - 1/a),
    T = (1 + a) (x^-a + y^-a)^(-2 - 1/a) (x y)^(-a - 1),

where 1 - A1 and 1 - A2 are the slopes of l and T is minus its mixed
derivative. The script evaluates log c with ``mpmath`` at each point of
a corner lattice, to 50 digits (formed with 150, since 1 - A1 and 1 - A2
cancel up to 40), and checks every value against log of the mixed
derivative d^2 C / du dv taken by ``mpmath.diff``, so that the closed
form is checked too. Nothing is imported from the package under
test. Each point is a double, formed in double arithmetic as the test
forms it, and read into ``mpmath`` exactly.

The lattice, for each a in ``ALPHAS``:

* 1 - u in ``NEAR_ONE`` against v in ``NEAR_ZERO``;
* its mirror, u in ``NEAR_ZERO`` against 1 - v in ``NEAR_ONE``;
* the upper corner, 1 - u and 1 - v in ``UPPER``.

Near the first two corners 1 - A1 or 1 - A2 is far below the double
precision of A1 or A2, which is where a form that subtracts from 1 fails.

Run: ``python tests/oracle_galambos.py`` (about 6 s). It prints the
dictionary that the test freezes.
"""
import mpmath as mp

mp.mp.dps = 50

ALPHAS = (0.5, 1.0, 1.5, 2.2, 2.5, 3.0)
NEAR_ONE = (1e-10, 1e-8, 1e-6, 1e-4)
NEAR_ZERO = (1e-10, 1e-7, 1e-4, 1e-3)
UPPER = (1e-10, 1e-7, 1e-5, 1e-3)


def lattice():
    """The (u, v) points as doubles, in the order of the printed values."""
    points = [(1.0 - d, v) for d in NEAR_ONE for v in NEAR_ZERO]
    points += [(u, 1.0 - d) for u in NEAR_ZERO for d in NEAR_ONE]
    points += [(1.0 - d, 1.0 - e) for d in UPPER for e in UPPER]
    return points


def log_density(a, u, v):
    # 1 - A1 and 1 - A2 lose up to 40 digits to cancellation at the
    # lattice's corners, so they are formed with 150 digits
    with mp.workdps(150):
        a, u, v = mp.mpf(a), mp.mpf(u), mp.mpf(v)
        x, y = -mp.log(u), -mp.log(v)
        g = x ** (-a) + y ** (-a)
        a1 = (1 + (x / y) ** a) ** (-1 - 1 / a)
        a2 = (1 + (y / x) ** a) ** (-1 - 1 / a)
        t = (1 + a) * g ** (-2 - 1 / a) * (x * y) ** (-a - 1)
        log_c = -(x + y - g ** (-1 / a))
        value = log_c + x + y + mp.log((1 - a1) * (1 - a2) + t)
    return +value


def log_mixed_derivative(a, u, v):
    a = mp.mpf(a)

    def cdf(s, t):
        x, y = -mp.log(s), -mp.log(t)
        return mp.exp(-(x + y - (x ** (-a) + y ** (-a)) ** (-1 / a)))

    with mp.workdps(200):
        return mp.log(mp.diff(cdf, (mp.mpf(u), mp.mpf(v)), (1, 1)))


def main():
    print("GALAMBOS_LOGPDF_ORACLE = {")
    for a in ALPHAS:
        values = []
        for u, v in lattice():
            value = log_density(a, u, v)
            check = log_mixed_derivative(a, u, v)
            assert abs(value - check) < mp.mpf("1e-40") * max(1, abs(value)), (a, u, v)
            values.append(float(value))
        print(f"    {a!r}: (")
        for i in range(0, len(values), 4):
            print("        " + " ".join(f"{x!r}," for x in values[i : i + 4]))
        print("    ),")
    print("}")


if __name__ == "__main__":
    main()
