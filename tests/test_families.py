import itertools

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chisquare, ks_2samp, kstest
from scipy.special import gammaln, ndtri
from scipy.stats import beta as beta_dist
from scipy.stats import t as tdist

from blendcop.blend import BlendedModel
from blendcop.dependence import DEFAULT_R_GRID
from blendcop.errors import InputError, ParameterError
from blendcop.families import CLAMP, FAMILIES, NONZERO, _t_quantile, make_copula, parse_copula
from blendcop.quadrature import BELOW_ONE, NORMAL_MIN
from blendcop.weighting import WEIGHTINGS, make_weighting
from oracles import bvn_orthant_tail, bvt_cdf, bvt_orthant_tail, gl_2d, fd_du, mixed_fd

# Gumbel alpha=2 at (0.5, 0.5): exp(-sqrt(2) log 2), frozen at 30 digits via mpmath
GUMBEL2_CDF_HALF = 0.37521422724648177

REPRESENTATIVE = [
    make_copula("gaussian", [0.6]),
    make_copula("gaussian", [-0.5]),
    make_copula("student_t", [0.5, 4.0]),
    make_copula("frank", [2.0]),
    make_copula("frank", [-3.0]),
    make_copula("clayton", [1.0]),
    make_copula("clayton", [3.0]),
    make_copula("joe", [2.0]),
    make_copula("gumbel", [2.0]),
    make_copula("gumbel", [3.5]),
    make_copula("inverted_gumbel", [2.0]),
    make_copula("husler_reiss", [2.0]),
    make_copula("galambos", [1.5]),
    make_copula("coles_tawn", [0.5, 0.8]),
    make_copula("coles_tawn", [2.0, 1.0]),
]
IDS = [repr(c) for c in REPRESENTATIVE]

GRID = np.linspace(0.05, 0.95, 21)


@pytest.mark.parametrize(
    "cop", REPRESENTATIVE + [make_copula("coles_tawn", [1.3, 1.3])],
    ids=IDS + ["coles_tawn(1.3,1.3)"],
)
def test_exchangeable_flag_matches_density_symmetry(cop):
    # a blend shares one margin between the axes when both components say so
    U, V = np.meshgrid(GRID, GRID, indexing="ij")
    symmetric = np.allclose(cop.logpdf(U, V), cop.logpdf(V, U), rtol=1e-12, atol=0.0)
    assert cop.exchangeable == symmetric


@pytest.mark.parametrize(
    "cop", REPRESENTATIVE + [make_copula("coles_tawn", [2.0, 0.3])],
    ids=IDS + ["coles_tawn(2,0.3)"],
)
def test_the_transposed_family_is_the_copula_of_v_and_u(cop):
    # C^T(u, v) = C(v, u): the CDF bit for bit, the density to rounding
    # (measured: at most 8.0e-15 apart, at coles_tawn(2,1)), and h of the
    # transpose is P[U <= u | V = v], a central difference of C in v, to
    # the bounds of test_cond_cdf_matches_cdf_finite_difference
    t = cop.transposed()
    assert t.transposed() == cop
    assert cop.exchangeable == (t == cop)
    U, V = np.meshgrid(GRID, GRID, indexing="ij")
    assert np.array_equal(t.cdf(V, U), cop.cdf(U, V))
    assert_allclose(t.logpdf(V, U), cop.logpdf(U, V), rtol=0.0, atol=2e-14)
    for u, v in [(0.3, 0.6), (0.5, 0.5), (0.8, 0.3), (0.9, 0.95)]:
        approx = fd_du(lambda a, b: cop.cdf(b, a), v, u, h=1e-6)
        assert_allclose(t.cond_cdf(v, u), approx, rtol=2e-4, atol=1e-6)


@pytest.mark.parametrize("cop", REPRESENTATIVE, ids=IDS)
def test_frechet_bounds(cop):
    U, V = np.meshgrid(GRID, GRID, indexing="ij")
    C = cop.cdf(U, V)
    assert np.all(C <= np.minimum(U, V) + 1e-9)
    assert np.all(C >= np.maximum(U + V - 1.0, 0.0) - 1e-9)


@pytest.mark.parametrize("cop", REPRESENTATIVE, ids=IDS)
def test_uniform_margins(cop):
    top = 1.0 - CLAMP
    assert_allclose(cop.cdf(GRID, np.full_like(GRID, top)), GRID, atol=1e-6)
    assert_allclose(cop.cdf(np.full_like(GRID, top), GRID), GRID, atol=1e-6)


@pytest.mark.parametrize("cop", REPRESENTATIVE, ids=IDS)
def test_pdf_matches_cdf_finite_difference(cop):
    pts = [(0.3, 0.4), (0.5, 0.5), (0.7, 0.2), (0.9, 0.9), (0.2, 0.8)]
    for u, v in pts:
        approx = mixed_fd(lambda a, b: cop.cdf(a, b), u, v, h=1e-4)
        assert_allclose(cop.pdf(u, v), approx, rtol=1e-4)


@pytest.mark.parametrize("cop", REPRESENTATIVE, ids=IDS)
def test_cond_cdf_matches_cdf_finite_difference(cop):
    for u, v in [(0.3, 0.6), (0.5, 0.5), (0.8, 0.3), (0.9, 0.95)]:
        approx = fd_du(lambda a, b: cop.cdf(a, b), u, v, h=1e-6)
        assert_allclose(cop.cond_cdf(u, v), approx, rtol=2e-4, atol=1e-6)


@pytest.mark.parametrize("cop", REPRESENTATIVE, ids=IDS)
def test_pdf_integrates_to_one(cop):
    total = gl_2d(lambda u, v: cop.pdf(u, v), n=256, eps=1e-7)
    assert_allclose(total, 1.0, atol=1e-3)


@pytest.mark.parametrize("cop", REPRESENTATIVE, ids=IDS)
def test_cond_quantile_round_trip(cop):
    u = np.linspace(0.1, 0.9, 9)
    w = np.linspace(0.05, 0.95, 9)
    v = cop.cond_quantile(u, w)
    assert np.all((v > 0.0) & (v < 1.0))
    assert_allclose(cop.cond_cdf(u, v), w, atol=1e-8)


@pytest.mark.parametrize("cop", REPRESENTATIVE, ids=IDS)
def test_survival_matches_cdf_identity(cop):
    for u, v in [(0.3, 0.6), (0.5, 0.5), (0.9, 0.8)]:
        assert_allclose(cop.survival(u, v), 1.0 - u - v + cop.cdf(u, v), atol=5e-10)


@pytest.mark.parametrize("cop", REPRESENTATIVE, ids=IDS)
def test_sampler_matches_cdf(cop, rng):
    n = 100_000
    uv = cop.sample(n, rng)
    assert uv.shape == (n, 2)
    for q in (0.25, 0.5, 0.75):
        emp = np.mean((uv[:, 0] <= q) & (uv[:, 1] <= q))
        c = cop.cdf(q, q)
        se = np.sqrt(c * (1.0 - c) / n)
        assert abs(emp - c) < 3.0 * se + 1e-12, f"{cop} at ({q},{q}): {emp} vs {c}"


@pytest.mark.parametrize("cop", REPRESENTATIVE, ids=IDS)
def test_negative_sample_size_raises_input_error(cop, rng):
    with pytest.raises(InputError, match="sample size"):
        cop.sample(-1, rng)


@pytest.mark.parametrize("cop", REPRESENTATIVE, ids=IDS)
def test_public_methods_reject_points_outside_the_unit_interval(cop):
    # NaN and values outside [0, 1] are not clipped; 0 and 1 still clamp
    ends = (np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0]))
    for name in ("cdf", "pdf", "logpdf", "cond_cdf", "cond_quantile", "survival"):
        method = getattr(cop, name)
        for bad in (np.nan, -0.1, 1.1):
            for args in ((bad, 0.5), (0.5, bad), ([0.5, bad], [0.5, 0.5])):
                with pytest.raises(InputError, match=rf"must lie in \[0, 1\].* the first {bad!r}"):
                    method(*args)
        assert not np.any(np.isnan(method(*ends))), name


def test_sampler_uniform_margins(rng):
    uv = make_copula("galambos", [1.5]).sample(50_000, rng)
    assert kstest(uv[:, 0], "uniform").pvalue > 1e-3
    assert kstest(uv[:, 1], "uniform").pvalue > 1e-3


def test_gaussian_independence_examples():
    cop = make_copula("gaussian", [0.0])
    assert_allclose(cop.cdf(0.3, 0.7), 0.21, atol=1e-9)
    assert_allclose(cop.pdf(0.5, 0.8), 1.0, rtol=1e-9)


def test_gumbel_cdf_frozen_value():
    assert_allclose(make_copula("gumbel", [2.0]).cdf(0.5, 0.5), GUMBEL2_CDF_HALF, atol=1e-10)


@pytest.mark.parametrize("alpha", [45.0, 100.0, 300.0])
def test_steep_gumbel_against_mpmath(alpha):
    # x^alpha + y^alpha underflows near (1, 1) and overflows far from it
    import mpmath as mp

    mp.mp.dps = 40
    cop = make_copula("gumbel", [alpha])
    for u, v in ((1 - 6e-8, 1 - 1e-7), (1 - 1e-9, 1 - 3e-9), (1e-10, 2e-10), (0.3, 0.8)):
        x, y = -mp.log(mp.mpf(u)), -mp.log(mp.mpf(v))
        ell = (x**alpha + y**alpha) ** (1 / mp.mpf(alpha))
        h = mp.exp(-ell + x) * (x / ell) ** (alpha - 1)
        assert_allclose(cop._h(u, v), float(h), rtol=1e-9, atol=1e-300)
        assert_allclose(cop._cdf(u, v), float(mp.exp(-ell)), rtol=1e-9)
        assert np.isfinite(cop._logpdf(np.array([u]), np.array([v]))[0])


def test_inverted_gumbel_conditional_survival_against_mpmath():
    # hbar(u, v) = P[V > v | U = u] is Gumbel's h at (1 - u, 1 - v), whose
    # arguments are exact here; 1 - (1 - h_G) lost h_G's digits, 1.1e-3
    # relative at the first point. Measured: within 5.2e-15
    cop = make_copula("inverted_gumbel", [2.0])
    with mpmath.workdps(50):
        for u, v in ((0.9, 1 - 1e-14), (0.5, 1 - 1e-12), (0.1, 1 - 1e-10), (0.99, 1 - 1e-8), (0.3, 0.6)):
            x, y = -mpmath.log(1 - mpmath.mpf(u)), -mpmath.log(1 - mpmath.mpf(v))
            ell = mpmath.sqrt(x**2 + y**2)
            h = mpmath.exp(-ell + x) * x / ell
            assert_allclose(cop._hbar(u, v), float(h), rtol=1e-13)


@pytest.mark.parametrize("cop", ["gumbel(2)", "husler_reiss(2)", "galambos(1.5)", "coles_tawn(0.5,0.8)"])
def test_extreme_value_conditionals_are_exact_at_the_ends(cop):
    # h(u, v) = P[V <= v | U = u] is 0 at u = 1 and 1 at v = 1, and so is
    # the transposed family's, P[U <= v | V = u]; where both are 1 the second
    # rule holds. Scalar, 1-d and broadcast-grid inputs.
    cop = parse_copula(cop)
    inner = np.array([1e-9, 0.3, 0.9])
    for at in (cop._h, cop.transposed()._h):
        assert at(1.0, 0.3) == 0.0 and isinstance(at(1.0, 0.3), float)
        assert at(0.3, 1.0) == 1.0 and at(1.0, 1.0) == 1.0
        assert np.array_equal(at(np.ones(3), inner), np.zeros(3))
        assert np.array_equal(at(inner, np.ones(3)), np.ones(3))
        assert np.array_equal(at(np.array([1.0, 0.3]), np.array([0.3, 1.0])), [0.0, 1.0])
        ends = np.append(inner, 1.0)
        grid = at(ends[:, None], ends[None, :])
        assert np.array_equal(grid[-1, :-1], np.zeros(3))
        assert np.array_equal(grid[:, -1], np.ones(4))
        interior = at(inner[:, None], inner[None, :])
        assert np.array_equal(grid[:-1, :-1], interior)
        assert np.all((interior > 0.0) & (interior < 1.0))


def test_a_steep_gumbel_grid_takes_the_scaled_branch():
    # at alpha 60, x^a + y^a underflows near (1, 1) and overflows far from
    # it; the scan must scale exactly those entries, written out here as
    # the reference
    a = 60.0
    cop = make_copula("gumbel", [a])
    coords = -np.log(np.array([1e-100, 0.3, 0.99, 1.0 - 1e-6, 1.0 - 1e-9]))
    x, y = coords[:, None], coords[None, :]
    m, q = cop._power_sum(x, y)
    with np.errstate(over="ignore"):
        plain = x**a + y**a
    odd = ~((plain >= NORMAL_MIN) & (plain < np.inf))
    assert odd.any() and not odd.all()
    big = np.maximum(x, y)
    assert np.array_equal(m, np.where(odd, big, 1.0))
    assert np.array_equal(q, np.where(odd, 1.0 + (np.minimum(x, y) / big) ** a, plain))
    # a grid with no odd entry: the scan finds none, so m is 1 and q the sum
    tame = -np.log(np.array([0.3, 0.9, 0.99]))
    m, q = cop._power_sum(tame[:, None], tame[None, :])
    assert m == 1.0 and np.array_equal(q, tame[:, None] ** a + tame[None, :] ** a)


def test_gumbel_sampler_against_cdf(rng):
    uv = make_copula("gumbel", [2.0]).sample(100_000, rng)
    emp = np.mean((uv[:, 0] <= 0.5) & (uv[:, 1] <= 0.5))
    assert abs(emp - GUMBEL2_CDF_HALF) < 0.005


def test_frank_small_alpha_tends_to_independence():
    assert_allclose(make_copula("frank", [1e-8]).cdf(0.4, 0.6), 0.24, atol=1e-6)


def test_clayton_analytic_vs_bisection_sampler(rng):
    from blendcop.families import Copula

    cop = make_copula("clayton", [1.0])
    analytic = cop.sample(100_000, rng)
    u = rng.random(100_000)
    w = rng.random(100_000)
    bisected = np.column_stack([u, Copula._hinv(cop, u, w)])
    assert ks_2samp(analytic[:, 1], bisected[:, 1]).pvalue > 1e-3
    lo, hi = 0.45, 0.55
    sa = analytic[(analytic[:, 0] > lo) & (analytic[:, 0] < hi), 1]
    sb = bisected[(bisected[:, 0] > lo) & (bisected[:, 0] < hi), 1]
    assert ks_2samp(sa, sb).pvalue > 1e-3


def test_student_t_sampler_against_quadrature_cdf(rng):
    cop = make_copula("student_t", [0.5, 4.0])
    uv = cop.sample(100_000, rng)
    for q in (0.25, 0.5, 0.75):
        emp = np.mean((uv[:, 0] <= q) & (uv[:, 1] <= q))
        c = cop.cdf(q, q)
        se = np.sqrt(c * (1 - c) / 100_000)
        assert abs(emp - c) < 3.5 * se


def _t_ppf(p, nu):
    """scipy.stats.t.ppf down to 1e-100, where it is accurate; below, where
    it fails (+inf below 1.2e-270 at nu = 5), the lower tail's
    incomplete-beta form, 2 p = I_z(nu / 2, 1 / 2) with z = nu / (nu + x^2),
    through scipy.stats.beta."""
    tiny = p < 1e-100
    z = beta_dist.ppf(2.0 * np.where(tiny, p, 0.25), 0.5 * nu, 0.5)
    return np.where(tiny, -np.sqrt(nu * (1.0 / z - 1.0)), tdist.ppf(p, nu))


def _student_t_by_scipy_stats(cop, u, v):
    """(log c, h, hbar, hinv(u, v)) of student_t through scipy.stats."""
    rho, nu = cop.params
    x, y = _t_ppf(u, nu), _t_ppf(v, nu)
    om = (1.0 - rho) * (1.0 + rho)
    lognum = (nu + 1.0) / 2.0 * (np.log1p(x * x / nu) + np.log1p(y * y / nu))
    logden = (nu + 2.0) / 2.0 * np.log1p((x * x + y * y - 2.0 * rho * x * y) / (nu * om))
    const = (
        gammaln((nu + 2.0) / 2.0) + gammaln(nu / 2.0) - 2.0 * gammaln((nu + 1.0) / 2.0)
        - 0.5 * np.log(om)
    )
    scale = np.sqrt((nu + x * x) / (nu + 1.0) * (1.0 - rho) * (1.0 + rho))
    z = (y - rho * x) / scale
    hinv = tdist.cdf(rho * x + scale * _t_ppf(v, nu + 1.0), nu)
    return const + lognum - logden, tdist.cdf(z, nu + 1.0), tdist.cdf(-z, nu + 1.0), hinv


@pytest.mark.parametrize("params", [(0.5, 4.0), (-0.7, 30.0)])
def test_student_t_kernels_equal_scipy_stats_t(params):
    # scipy.special's stdtr/stdtrit are the kernels under scipy.stats.t,
    # so the values agree bit for bit, down to 1e-300 and up to BELOW_ONE
    # (at 1e-300 both take the t quantile from the lower tail's beta form)
    cop = make_copula("student_t", list(params))
    pts = np.array([1e-300, 1e-10, 0.5, 1.0 - 1e-10, BELOW_ONE])
    u, v = pts[:, None], pts[None, :]
    logc, h, hbar, hinv = _student_t_by_scipy_stats(cop, u, v)
    assert np.array_equal(cop._logpdf(u, v), logc)
    assert np.array_equal(cop._h(u, v), h)
    assert np.array_equal(cop._hbar(u, v), hbar)
    assert np.array_equal(cop._hinv(u, v), hinv)


def _t_lower_tail(nu, x):
    """P[T <= x] of Student's t for x < 0, at 40 digits."""
    with mpmath.workdps(40):
        z = nu / (nu + mpmath.mpf(x) ** 2)
        return float(mpmath.betainc(nu / 2.0, 0.5, 0, z, regularized=True) / 2)


@pytest.mark.parametrize("nu", [0.3, 0.5, 1.0, 1.5, 2.5, 4.0, 5.0, 6.0, 10.0, 30.0])
def test_student_t_quantile_at_tiny_levels(nu):
    # stdtrit stops near -1e53 at nu = 2.5 from about 1e-136 and turns
    # +inf below 1.2e-270 at nu = 5; below nu = 2 it stops near -1e153
    # (nu = 0.5 from 1e-80) or turns -inf (nu = 1 from 1e-200). The
    # family's quantile keeps its relative accuracy down to the smallest
    # normal double, so a student_t blend has lower quantiles; where the
    # quantile is beyond the doubles it is -inf
    levels = np.array([1e-200, 1e-250, 1e-280, 1e-300, 1e-307, NORMAL_MIN])
    rtol = 1e-13
    if nu < 2.0:
        levels = np.concatenate([[1e-20, 1e-40, 1e-60, 1e-80, 1e-100, 1e-150], levels])
        rtol = 1e-12
    x = _t_quantile(nu, levels)
    beyond = _t_lower_tail(nu, -np.finfo(float).max) > levels
    assert np.all(x[beyond] == -np.inf)
    assert np.all(x[~beyond] < 0.0) and np.all(np.isfinite(x[~beyond]))
    for xi, p in zip(x[~beyond], levels[~beyond]):
        assert abs(_t_lower_tail(nu, xi) / p - 1.0) < rtol, p


def test_student_t_conditional_beyond_a_squarable_quantile():
    # at nu = 0.5 the quantile of 1e-100 is -1.03e199, whose square
    # overflows; h given that u still matches 40-digit mpmath. At the
    # smallest normal double the quantile is -inf, and h takes its limit
    rho, nu = 0.5, 0.5
    cop = make_copula("student_t", [rho, nu])
    u, v = 1e-100, np.array([1e-100, 1e-3, 0.5, 0.999])
    x, y = _t_quantile(nu, u), _t_quantile(nu, v)
    assert np.abs(x) > 1e154
    with mpmath.workdps(40):
        mx = mpmath.mpf(float(x))
        scale = mpmath.sqrt((nu + mx**2) / (nu + 1) * (1 - rho) * (1 + rho))
        z = [float((mpmath.mpf(float(yi)) - rho * mx) / scale) for yi in y]
    assert_allclose(cop._h(u, v), tdist.cdf(z, nu + 1.0), rtol=1e-13)
    limit = tdist.cdf(rho * np.sqrt((nu + 1.0) / ((1.0 - rho) * (1.0 + rho))), nu + 1.0)
    assert _t_quantile(nu, NORMAL_MIN) == -np.inf
    assert_allclose(cop._h(np.array([[NORMAL_MIN], [u]]), v), [[limit] * 4, cop._h(u, v)], rtol=1e-15)


# a level, per nu, whose t quantile is beyond 1e154, where its square
# overflows: about -1.1e160, -1.0e199, -3.2e199 and -2.2e166
_UNSQUARABLE = {0.06: 1e-10, 0.5: 1e-100, 1.0: 1e-200, 1.5: 1e-250}


def _mp_t_copula_logpdf(rho, nu, x, y):
    """log c of the t copula at t quantiles (x, y), floats or mpmath
    numbers, in 40-digit mpmath."""
    with mpmath.workdps(40):
        rho, nu, x, y = (mpmath.mpf(a) for a in (rho, nu, x, y))
        om = 1 - rho**2
        log_f2 = (
            mpmath.loggamma((nu + 2) / 2) - mpmath.loggamma(nu / 2) - mpmath.log(nu * mpmath.pi)
            - mpmath.log(om) / 2
            - (nu + 2) / 2 * mpmath.log(1 + (x * x + y * y - 2 * rho * x * y) / (nu * om))
        )

        def log_f1(t):
            return (
                mpmath.loggamma((nu + 1) / 2) - mpmath.loggamma(nu / 2)
                - mpmath.log(nu * mpmath.pi) / 2 - (nu + 1) / 2 * mpmath.log(1 + t * t / nu)
            )

        return float(log_f2 - log_f1(x) - log_f1(y))


@pytest.mark.parametrize("nu", sorted(_UNSQUARABLE))
def test_student_t_density_and_inverse_beyond_a_squarable_quantile(nu):
    rho, u = 0.5, _UNSQUARABLE[nu]
    cop = make_copula("student_t", [rho, nu])
    us = np.array([u, u, u, u, 0.3, 1e-3 * u])
    vs = np.array([0.5, 1e-3, 0.999, u, u, u])
    x, y = _t_quantile(nu, us), _t_quantile(nu, vs)
    assert np.abs(x[0]) > 1e154 and np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    want = [_mp_t_copula_logpdf(rho, nu, a, b) for a, b in zip(x, y)]
    assert_allclose(cop._logpdf(us, vs), want, rtol=1e-13)
    # the public density at the clamp's level: nu = 0.06 raised there
    assert np.all(np.isfinite(cop.logpdf([1e-10, 0.3], [0.5, 0.5])))
    # the conditional quantile inverts h; these w keep v near 0
    w = np.array([0.05, 0.3, 0.6])
    v = cop._hinv(u, w)
    assert np.all((v > 0.0) & (v < 1e-9))
    assert_allclose(cop._h(u, v), w, rtol=1e-12)


def _mp_t_quantile(nu, p):
    """The t quantile at level p in 40-digit mpmath, solved from p itself
    (the double may be -inf): 2 min(p, 1 - p) = I_z(nu / 2, 1 / 2) for
    log z, z = nu / (nu + x^2), from the leading term's root."""
    with mpmath.workdps(40):
        nu, p = mpmath.mpf(nu), mpmath.mpf(p)
        tail, a = min(p, 1 - p), nu / 2
        if tail == mpmath.mpf(0.5):
            return mpmath.mpf(0)
        log_z = mpmath.findroot(
            lambda t: mpmath.log(mpmath.betainc(a, 0.5, 0, mpmath.exp(t), regularized=True) / 2)
            - mpmath.log(tail),
            (mpmath.log(2 * tail) + mpmath.log(a) + mpmath.log(mpmath.beta(a, 0.5))) / a,
        )
        x = mpmath.sqrt(nu * (1 / mpmath.exp(log_z) - 1))
        return -x if p < 0.5 else x


def test_student_t_density_where_a_quantile_is_beyond_the_doubles():
    # at nu = 0.01 the t quantile of the public clamp's level 1e-10 is
    # about -1e968, a double -inf; the density is finite, and its far form
    # takes log |x| from the level. It raised "produced NaN" before.
    rho, nu, u = 0.5, 0.01, 1e-10
    cop = make_copula("student_t", [rho, nu])
    vs = np.array([0.5, 1e-3, 0.999, 1e-10])
    assert _t_quantile(nu, u) == -np.inf
    with mpmath.workdps(40):
        x = _mp_t_quantile(nu, u)
        want = [_mp_t_copula_logpdf(rho, nu, x, _mp_t_quantile(nu, v)) for v in vs]
    assert_allclose(cop.logpdf(u, vs), want, rtol=1e-13)
    assert_allclose(cop.logpdf(vs, u), want, rtol=1e-13)


def test_student_t_level_zero_is_the_lower_end():
    # stdtrit(nu, 0) is +inf; the family's quantile takes -inf there, so
    # h(u, 0) = 0 as under scipy.stats.t. A power weighting of small theta
    # has v-nodes that underflow to 0, and with h(u, 0) = 1 this blend's
    # K read 0.53 instead of 1 - 1.6e-7.
    cop = make_copula("student_t", [0.5, 4.0])
    u = np.array([1e-10, 0.5, BELOW_ONE])
    assert np.array_equal(cop._h(u, 0.0), [0.0, 0.0, 0.0])
    assert np.array_equal(cop._hbar(u, 0.0), [1.0, 1.0, 1.0])
    weighting = make_weighting("power", 1e-3)
    assert np.any(weighting.v_nodes == 0.0)
    model = BlendedModel(cop, make_copula("clayton", [1.0]), weighting)
    assert abs(model.norm_constants[0] - 1.0) < 1e-6


def test_student_t_draws_at_a_seed_are_fixed():
    # the sampler's t CDF is stdtr, which scipy.stats.t.cdf calls
    rho, nu = 0.5, 4.0
    draws = make_copula("student_t", [rho, nu]).sample(500, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    z = rng.standard_normal((500, 2))
    y = rho * z[:, 0] + np.sqrt(1.0 - rho**2) * z[:, 1]
    s = np.sqrt(rng.chisquare(nu, 500) / nu)
    expected = np.column_stack([tdist.cdf(z[:, 0] / s, nu), tdist.cdf(y / s, nu)])
    assert np.array_equal(draws, expected)


def test_student_t_survival_against_orthant_oracle():
    # by parts on the corner-refined rule vs adaptive quadrature of the
    # bivariate t density, at every study level down to 1 - r = 1.49e-8,
    # and for rho = -0.5 also off the diagonal
    R = DEFAULT_R_GRID
    off_diagonal = [(R[i], R[i + 3]) for i in range(R.size - 3)]
    off_diagonal += [(v, u) for u, v in off_diagonal]
    nu = 4.0
    for rho, pairs in ((0.5, []), (-0.5, off_diagonal)):
        cop = make_copula("student_t", [rho, nu])
        for u, v in [(r, r) for r in R] + pairs:
            ref = bvt_orthant_tail(tdist.isf(1.0 - u, nu), tdist.isf(1.0 - v, nu), rho, nu)
            assert_allclose(cop.survival(u, v), ref, rtol=1e-7)


def test_student_t_cdf_against_oracle():
    rho, nu = 0.5, 4.0
    cop = make_copula("student_t", [rho, nu])
    pts = np.linspace(0.05, 0.95, 7)
    U, V = np.meshgrid(pts, pts, indexing="ij")
    ref = [
        bvt_cdf(tdist.ppf(u, nu), tdist.ppf(v, nu), rho, nu) for u, v in zip(U.ravel(), V.ravel())
    ]
    assert_allclose(cop.cdf(U, V).ravel(), ref, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("rho", [-0.9, -0.5, 0.5, 0.95])
def test_gaussian_survival_against_orthant_oracle(rho):
    # by parts on the corner-refined rule vs adaptive quadrature of the
    # bivariate normal orthant, on and off the diagonal, down to 1 - r = 1.49e-8
    cop = make_copula("gaussian", [rho])
    R = DEFAULT_R_GRID
    pairs = [(r, r) for r in R] + [(R[i], R[i + 3]) for i in range(R.size - 3)]
    pairs += [(v, u) for u, v in pairs[R.size :]]
    u, v = np.array(pairs).T
    ref = [bvn_orthant_tail(-ndtri(1.0 - a), -ndtri(1.0 - b), rho) for a, b in pairs]
    assert_allclose(cop.survival(u, v), ref, rtol=1e-7)


def test_deep_corner_survival_relative_accuracy():
    # against direct 50-digit evaluation of 1 - u - v + C(u, v)
    import mpmath as mp

    mp.mp.dps = 50
    d = mp.mpf("1e-8")
    u = 1 - d

    a = mp.mpf(2)
    x = -mp.log(u)
    ell = (x**a + x**a) ** (1 / a)
    ref = float(1 - u - u + mp.e**-ell)
    got = make_copula("gumbel", [2.0]).survival(1.0 - 1e-8, 1.0 - 1e-8)
    assert_allclose(got, ref, rtol=1e-7)

    # Frank: radial symmetry route
    al = mp.mpf(2)
    C = -mp.log(1 - (1 - mp.e ** (-al * u)) * (1 - mp.e ** (-al * u)) / (1 - mp.e**-al)) / al
    ref = float(1 - u - u + C)
    got = make_copula("frank", [2.0]).survival(1.0 - 1e-8, 1.0 - 1e-8)
    assert_allclose(got, ref, rtol=1e-6)

    # Joe: exact survival expression
    al = mp.mpf(2)
    A = d**al + d**al - d ** (2 * al)
    ref = float(2 * d - A ** (1 / al))
    got = make_copula("joe", [2.0]).survival(1.0 - 1e-8, 1.0 - 1e-8)
    assert_allclose(got, ref, rtol=1e-7)


# log c of galambos(alpha) on a corner lattice, printed by
# tests/oracle_galambos.py: the closed form in mpmath to 50 digits, checked
# against the mixed derivative of the CDF; nothing is imported from
# blendcop. The lattice: 1 - u in NEAR_ONE against v in NEAR_ZERO, its
# mirror, and 1 - u, 1 - v in UPPER, in that order.
GALAMBOS_NEAR_ONE = (1e-10, 1e-8, 1e-6, 1e-4)
GALAMBOS_NEAR_ZERO = (1e-10, 1e-7, 1e-4, 1e-3)
GALAMBOS_UPPER = (1e-10, 1e-7, 1e-5, 1e-3)
GALAMBOS_LOGPDF_ORACLE = {
    0.5: (
        -11.961143842571136, -11.773739956697803, -11.471618938334206, -11.310760896774191,
        -9.658597084223414, -9.471201073138234, -9.169096235177625, -9.008248937071725,
        -7.356393784645802, -7.169076497268597, -6.867133399869318, -6.706393484210184,
        -5.057510378673132, -4.870978013998035, -4.57064619477651, -4.410975046767146,
        -11.961143842571136, -9.658597084223414, -7.356393784645802, -5.057510378673132,
        -11.773739956697803, -9.471201073138234, -7.169076497268597, -4.870978013998035,
        -11.471618938334206, -9.169096235177625, -6.867133399869318, -4.57064619477651,
        -11.310760896774191, -9.008248937071725, -6.706393484210184, -4.410975046767146,
        20.65872723386014, 12.945151002965282, 6.149311387015109, -0.7458418402217124,
        12.945151002965282, 13.750972829019432, 9.234582523234169, 2.6695477861350296,
        6.149311387015109, 9.234582523234169, 9.145881014575258, 4.6311687271124855,
        -0.7458418402217124, 2.6695477861350296, 4.6311687271124855, 4.548519134322442,
    ),
    1.0: (
        -25.426808370231903, -25.052452725921267, -24.449956310504675, -24.13014917552351,
        -20.82163824778119, -20.447282603773928, -19.844786189152423, -19.524979054822637,
        -16.216466648965508, -15.842111035295884, -15.239614700182681, -14.919807630991308,
        -11.611154674400629, -11.236802094829304, -10.634313711390364, -10.314513156697078,
        -25.426808370231903, -20.82163824778119, -16.216466648965508, -11.611154674400629,
        -25.052452725921267, -20.447282603773928, -15.842111035295884, -11.236802094829304,
        -24.449956310504675, -19.844786189152423, -15.239614700182681, -10.634313711390364,
        -24.13014917552351, -19.524979054822637, -14.919807630991308, -10.314513156697078,
        21.6395564863052, 9.900489135529952, 0.6931172638652592, -8.51719382497614,
        9.900489135529952, 14.731801515364772, 7.571051911982485, -1.6097378648813163,
        0.6931172638652592, 7.571051911982485, 10.126653603718433, 2.9659254064444225,
        -8.51719382497614, -1.6097378648813163, 2.9659254064444225, 5.523709555333776,
    ),
    1.5: (
        -38.66976679118484, -38.10888059678346, -37.207557998060686, -36.730407954232994,
        -31.762011611451133, -31.201125417049756, -30.299802818327013, -29.82265277449936,
        -24.85425460747498, -24.29336841308315, -23.392045814392397, -22.91489577059687,
        -17.946326083205715, -17.385439898359113, -16.48411733166258, -16.006967319999916,
        -38.66976679118484, -31.762011611451133, -24.85425460747498, -17.946326083205715,
        -38.10888059678346, -31.201125417049756, -24.29336841308315, -17.385439898359113,
        -37.207557998060686, -30.299802818327013, -23.392045814392397, -16.48411733166258,
        -36.730407954232994, -29.82265277449936, -22.91489577059687, -16.006967319999916,
        22.093749097713236, 6.672669205555, -4.840177794014836, -16.35368108464932,
        6.672669205555, 15.185994034044285, 5.51878995302808, -5.9920507799444644,
        -4.840177794014836, 5.51878995302808, 10.580836933219162, 0.9130620075448596,
        -16.35368108464932, -5.9920507799444644, 0.9130620075448596, 5.976975308452982,
    ),
    2.2: (
        -57.09148523729723, -56.27010531129986, -54.95270420011352, -54.2575152836783,
        -46.96011097830776, -46.13873105231039, -44.821329941124056, -44.12614102468884,
        -36.82873450112421, -36.00735457512684, -34.689953463940505, -33.99476454750529,
        -26.69715218243306, -25.87577225643837, -24.558371145264772, -23.863182228846398,
        -57.09148523729723, -46.96011097830776, -36.82873450112421, -26.69715218243306,
        -56.27010531129986, -46.13873105231039, -36.00735457512684, -25.87577225643837,
        -54.95270420011352, -44.821329941124056, -34.689953463940505, -24.558371145264772,
        -54.2575152836783, -44.12614102468884, -33.99476454750529, -23.863182228846398,
        22.48764039572343, 2.0841842998270894, -12.652371020529493, -27.390050158647572,
        2.0841842998270894, 15.579885291988203, 2.5445929058721, -12.192988522168681,
        -12.652371020529493, 2.5445929058721, 10.974724220657881, -2.0616909049149608,
        -27.390050158647572, -12.192988522168681, -2.0616909049149608, 6.37046581348317,
    ),
    2.5: (
        -64.96662456438781, -64.03381996898153, -62.53882645947578, -61.75087707105524,
        -53.45369927143161, -52.52089467602533, -51.025901166519574, -50.23795177809903,
        -41.94077159145037, -41.00796699604409, -39.512973486538336, -38.72502409811779,
        -30.4276233663444, -29.494818770938195, -27.99982526143288, -27.211875873012982,
        -64.96662456438781, -53.45369927143161, -41.94077159145037, -30.4276233663444,
        -64.03381996898153, -52.52089467602533, -41.00796699604409, -29.494818770938195,
        -62.53882645947578, -51.025901166519574, -39.512973486538336, -27.99982526143288,
        -61.75087707105524, -50.23795177809903, -38.72502409811779, -27.211875873012982,
        22.615060582435543, 0.10147042002183611, -16.016638521929803, -32.13607128237213,
        0.10147042002183611, 15.70730547059029, 1.2527256925987267, -14.86668306854824,
        -16.016638521929803, 1.2527256925987267, 11.102143595566698, -3.3537592924032866,
        -32.13607128237213, -14.86668306854824, -3.3537592924032866, 6.497804847730859,
    ),
    3.0: (
        -78.07725031126442, -76.95900554329398, -75.16889453014308, -74.22713159257634,
        -64.26173996169697, -63.14349519372653, -61.353384180575624, -60.411621243008895,
        -50.44622694371959, -49.32798217574914, -47.537871162598236, -46.59610822503151,
        -36.630468874592324, -35.51222410662188, -33.72211309347098, -32.78035015590425,
        -78.07725031126442, -64.26173996169697, -50.44622694371959, -36.630468874592324,
        -76.95900554329398, -63.14349519372653, -49.32798217574914, -35.51222410662188,
        -75.16889453014308, -61.353384180575624, -47.537871162598236, -33.72211309347098,
        -74.22713159257634, -60.411621243008895, -46.59610822503151, -32.78035015590425,
        22.794801787088645, -3.218875743291682, -21.63957298707015, -40.06190445362312,
        -3.218875743291682, 15.887046666502702, -0.9163094834675877, -19.3386386167292,
        -21.63957298707015, -0.9163094834675877, 11.28188392528647, -5.523105636571255,
        -40.06190445362312, -19.3386386167292, -5.523105636571255, 6.677458578371843,
    ),
}


def galambos_lattice():
    points = [(1.0 - d, v) for d in GALAMBOS_NEAR_ONE for v in GALAMBOS_NEAR_ZERO]
    points += [(u, 1.0 - d) for u in GALAMBOS_NEAR_ZERO for d in GALAMBOS_NEAR_ONE]
    points += [(1.0 - d, 1.0 - e) for d in GALAMBOS_UPPER for e in GALAMBOS_UPPER]
    return np.array(points).T


@pytest.mark.parametrize("alpha", sorted(GALAMBOS_LOGPDF_ORACLE))
def test_galambos_logpdf_against_oracle_at_the_corners(alpha):
    # 1 - A1 and 1 - A2 from expm1: subtracted from 1 they came out 0 or
    # negative near the corners (not finite at 10 of these 48 points at alpha
    # 2.5), or lost digits. Measured: at most 4.3e-14 absolute apart
    u, v = galambos_lattice()
    got = make_copula("galambos", [alpha])._logpdf(u, v)
    want = np.array(GALAMBOS_LOGPDF_ORACLE[alpha])
    assert np.isfinite(got).all()
    assert_allclose(got, want, rtol=0.0, atol=1e-9)
    if alpha == 2.5:
        # u = 1 - 1e-6, v = 1e-4: the old form gave -41.06
        assert_allclose(got[10], -39.51, atol=5e-3)


# log c of every family on LOGPDF_LEVELS x LOGPDF_LEVELS, u slowest, printed
# by tests/oracle_logpdf.py: each density in mpmath, checked against the
# mixed derivative of its CDF where that is in closed form; nothing is
# imported from blendcop.
LOGPDF_LEVELS = (1e-10, 1e-6, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9)
LOGPDF_ORACLE = {
    'gaussian(0.5)': (
        13.63272706175884, 9.79232590163923, 4.913156183882692, -6.600601976540585,
        -21.297538705658276, -30.525210741256032, -38.032280229616404, 9.79232590163923,
        7.675521922795375, 4.579201551292562, -3.621999407058852, -15.00637893410468,
        -22.451201623454942, -28.624362038857996, 4.913156183882692, 4.579201551292562,
        3.327019604920305, -1.4477482481213166, -9.405694669857352, -15.0063789340835,
        -19.799774434273807, -6.600601976540585, -3.621999407058852, -1.4477482481213166,
        0.14384103622589045, -1.4477482481213164, -3.6219994070496444, -5.851773804504556,
        -21.297538705658276, -15.00637893410468, -9.405694669857352, -1.4477482481213164,
        3.3270196049203045, 4.579201551289797, 4.913048256570282, -30.525210741256032,
        -22.451201623454942, -15.0063789340835, -3.6219994070496444, 4.579201551289797,
        7.6755219227769595, 9.38913354326537, -38.032280229616404, -28.624362038857996,
        -19.799774434273807, -5.851773804504556, 4.913048256570282, 9.38913354326537,
        12.135070717686784,
    ),
    'gaussian(-0.9)': (
        -363.36955708597895, -276.8239819343872, -198.90004246199135, -85.4275108230236,
        -12.666157720515999, 9.642725791630816, 18.62165519640418, -276.8239819343872,
        -202.5250183339653, -137.26869263758277, -47.332751644915106, 1.8920108112924072,
        11.533280547470167, 11.034434960178363, -198.90004246199135, -137.26869263758277,
        -85.11545575133839, -19.52522366481925, 5.35382988523973, 1.8920108113251073,
        -8.41042759458358, -85.4275108230236, -47.332751644915106, -19.52522366481925,
        0.8303656034108255, -19.525223664819247, -47.33275164479734, -75.85039262277333,
        -12.666157720515999, 1.8920108112924072, 5.35382988523973, -19.525223664819247,
        -85.11545575133837, -137.26869263737993, -184.0015361874232, 9.642725791630816,
        11.533280547470167, 1.8920108113251073, -47.33275164479734, -137.26869263737993,
        -202.5250183334681, -259.061454702094, 18.62165519640418, 11.034434960178363,
        -8.41042759458358, -75.85039262277333, -184.0015361874232, -259.061454702094,
        -322.9328357960333,
    ),
    'student_t(0.5,4)': (
        20.75647577338918, 9.52717900018675, 0.6910473254134498, -5.933376969627216,
        0.5876537762262959, 8.931737604369616, 15.986798141833528, 9.52717900018675,
        11.548612474647767, 3.405150337595284, -3.629267940901612, 2.3920989152049357,
        8.256242378386554, 9.250269924832933, 0.6910473254134498, 3.405150337595284,
        4.717706901600913, -1.8554663029981011, 1.5341280352422297, 2.3920989152079954,
        1.1221754875935872, -5.933376969627216, -3.629267940901612, -1.8554663029981011,
        0.26762247583999743, -1.855466302998101, -3.629267940894401, -5.35769741324918,
        0.5876537762262959, 2.3920989152049357, 1.5341280352422297, -1.855466302998101,
        4.717706901600912, 3.405150337605324, 1.3059563202337252, 8.931737604369616,
        8.256242378386554, 2.3920989152079954, -3.629267940894401, 3.405150337605324,
        11.548612474619048, 10.293972569371139, 15.986798141833528, 9.250269924832933,
        1.1221754875935872, -5.35769741324918, 1.3059563202337252, 10.293972569371139,
        18.45394480586147,
    ),
    'student_t(-0.9,1.5)': (
        17.64972571900074, 4.628628883278802, -6.877386363603242, -16.258135899308623,
        -6.877250660909413, 4.642201826551002, 16.8791570343594, 4.628628883278802,
        8.439385450360456, -0.768477130133067, -10.117908914475947, -0.7054890151037944,
        13.592153577167382, 6.202075777344878, -6.877386363603242, -0.768477130133067,
        1.5326635327130131, -5.512036928932296, 6.684564444259626, -0.7054890150840145,
        -5.341946854050749, -16.258135899308623, -10.117908914475947, -5.512036928932296,
        1.1457891066652617, -5.512036928932296, -10.117908914456777, -14.723079189493856,
        -6.877250660909413, -0.7054890151037944, 6.684564444259626, -5.512036928932296,
        1.5326635327130123, -0.7684771301144975, -5.342576730147733, 4.642201826551002,
        13.592153577167382, -0.7054890150840145, -10.117908914456777, -0.7684771301144975,
        8.4393854503317, 6.139075275812762, 16.8791570343594, 6.202075777344878,
        -5.341946854050749, -14.723079189493856, -5.342576730147733, 6.139075275812762,
        15.34714065429848,
    ),
    'frank(5)': (
        1.616198660883589, 1.6161936613835939, 1.6111986613886102, -0.8838013376922692,
        -3.378801337616445, -3.383796337616411, -3.3838013326164114, 1.6161936613835939,
        1.6161886619339279, 1.6111937120970083, -0.8837970966999639, -3.378796338456444,
        -3.38379133811675, -3.3837963331164116, 1.6111986613886102, 1.6111937120970083,
        1.606248750730181, -0.8795616749894796, -3.3738016789999983, -3.3787963384564437,
        -3.3788013331167512, -0.8838013376922692, -0.8837970966999639, -0.8795616749894796,
        0.38768376934879756, -0.8795616749894796, -0.8837970966999638, -0.883801333874993,
        -3.378801337616445, -3.378796338456444, -3.3738016789999983, -0.8795616749894796,
        1.606248750730181, 1.6111937120970081, 1.6111986569338026, -3.383796337616411,
        -3.38379133811675, -3.3787963384564437, -0.8837970966999638, 1.6111937120970081,
        1.6161886619339276, 1.6161936568836393, -3.3838013326164114, -3.3837963331164116,
        -3.3788013331167512, -0.883801333874993, 1.6111986569338026, 1.6161936568836393,
        1.6161986518835894,
    ),
    'frank(-10)': (
        -7.697369504045584, -7.697359505045584, -7.687369505045584, -2.6973695050589694,
        2.2926304929743173, 2.302620492954436, 2.3026304829544166, -7.697359505045584,
        -7.697349506045593, -7.68735950605471, -2.6973596399032673, 2.2926206929657913,
        2.3026104941544228, 2.3026204839546165, -7.687369505045584, -7.68735950605471,
        -7.677369515217318, -2.6875040300614215, 2.2828285243650637, 2.292620692965791,
        2.292630484153429, -2.6973695050589694, -2.6973596399032673, -2.6875040300614215,
        0.9297668298127617, -2.6875040300614215, -2.697359639903267, -2.697369496179441,
        2.2926304929743173, 2.2926206929657913, 2.2828285243650637, -2.6875040300614215,
        -7.677369515217318, -7.68735950605471, -7.687369496045593, 2.302620492954436,
        2.3026104941544228, 2.292620692965791, -2.697359639903267, -7.68735950605471,
        -7.697349506045592, -7.697359496045584, 2.3026304829544166, 2.3026204839546165,
        2.292630484153429, -2.697369496179441, -7.687369496045593, -7.697359496045584,
        -7.697369486045584,
    ),
    'clayton(1)': (
        21.639556568970566, 5.298017381847007, -8.517193491116222, -20.94640938856062,
        -22.330702748713644, -22.332701749379513, -22.33270374738051, 5.298017381847007,
        12.42921769684476, 0.6901516765651886, -11.736072016282938, -13.120362379740165,
        -13.122361377406328, -13.122363375404332, -8.517193491116222, 0.6901516765651886,
        5.5229612929872935, -4.831312238301551, -6.212610100756525, -6.214606101421195,
        -6.2146080964251915, -20.94640938856062, -11.736072016282938, -4.831312238301551,
        0.16989903679539747, 0.0004998747914633606, 4.999998750141695e-07, 4.999999857340342e-10,
        -22.330702748713644, -13.120362379740165, -6.212610100756525, 0.0004998747914633606,
        0.6911491798942783, 0.6921456832258618, 0.6921466792293618, -22.332701749379513,
        -13.122361377406328, -6.214606101421195, 4.999998750141695e-07, 0.6921456832258618,
        0.6931451805619453, 0.6931461795594483, -22.33270374738051, -13.122363375404332,
        -6.2146080964251915, 4.999999857340342e-10, 0.6921466792293618, 0.6931461795594483,
        0.6931471785599453,
    ),
    'clayton(5)': (
        23.292686601936634, -30.444431832688583, -71.8909635065814, -109.17861209711455,
        -113.33149217847273, -113.33748918047122, -113.33749517447423, -30.444431832688583,
        14.08234622996045, -25.839261646700496, -63.126910237233645, -67.27979031859182,
        -67.28578732059032, -67.28579331459332, -71.8909635065814, -25.839261646700496,
        7.174590950978313, -28.58813384232303, -32.74101392368113, -32.74701092567963,
        -32.74701691968263, -109.17861209711455, -63.126910237233645, -28.58813384232303,
        0.9946292378860268, -1.6683181882168427, -1.6739707773196757, -1.6739764279154217,
        -113.33149217847273, -67.27979031859182, -32.74101392368113, -1.6683181882168427,
        1.7818092470137035, 1.786752022447638, 1.7867569626150275, -113.33748918047122,
        -67.28578732059032, -32.74701092567963, -1.6739707773196757, 1.786752022447638,
        1.7917494692780545, 1.79175446422561, -113.33749517447423, -67.28579331459332,
        -32.74701691968263, -1.6739764279154217, 1.7867569626150275, 1.79175446422561,
        1.7917594592280552,
    ),
    'joe(2)': (
        0.6931471803599453, 0.6931461804594458, 0.6921466801267616, 5.00000000015625e-11,
        -6.214608098322191, -13.122363377275573, -20.030118684568397, 0.6931461804594458,
        0.6931451805629453, 0.6921456842238598, 5.000001562498073e-07, -6.2146070984231905,
        -13.122362377374573, -20.0301176846674, 0.6921466801267616, 0.6921456842238598,
        0.6911501759037583, 0.0005001560568918044, -6.213607099592238, -13.121362376541617,
        -20.02911768383444, 5.00000000015625e-11, 5.000001562498073e-07, 0.0005001560568918044,
        0.21662899234617974, -5.298321266541466, -12.206072645505317, -19.113827952794242,
        -6.214608098322191, -6.2146070984231905, -6.213607099592238, -5.298321266541466,
        5.868037258139406, -4.999684962017701e-07, -6.907754307266071, -13.122363377275573,
        -13.122362377374573, -13.121362376541617, -12.206072645505317, -4.999684962017701e-07,
        12.77578978709835, 6.907753750644529, -20.030118684568397, -20.0301176846674,
        -20.02911768383444, -19.113827952794242, -6.907754307266071, 6.907753750644529,
        19.683545094388425,
    ),
    'gumbel(2)': (
        12.82533117362225, 9.20708911025406, 4.644517519336649, -2.7788256121825317,
        -10.00035929758886, -16.909613761669807, -23.817370567463318, 9.20708911025406,
        7.44970686938032, 4.423496117578047, -2.2492510002570554, -9.462163798127504,
        -16.371418244223342, -23.279175050016836, 4.644517519336649, 4.423496117578047,
        3.4507793143544, -1.5161510005524734, -8.703700173958138, -15.612954566943808,
        -22.520711372737246, -2.7788256121825317, -2.2492510002570554, -1.5161510005524734,
        0.41605557909055346, -5.646643115666463, -12.555894182635853, -19.46365098842597,
        -10.00035929758886, -9.462163798127504, -8.703700173958138, -5.646643115666463,
        5.869534300293271, -4.152220450256987e-07, -6.907755722515702, -16.909613761669807,
        -16.371418244223342, -15.612954566943808, -12.555894182635853, -4.152220450256987e-07,
        12.775791287095393, 6.90775375214461, -23.817370567463318, -23.279175050016836,
        -22.520711372737246, -19.46365098842597, -6.907755722515702, 6.90775375214461,
        19.683545095888427,
    ),
    'gumbel(5)': (
        18.633740327642116, 11.462913372062472, 2.2369055583394837, -13.15919849730153,
        -40.014313623172406, -67.64833307315187, -95.2793572993245, 11.462913372062472,
        10.876913746494404, 4.253543538348526, -11.021796017930551, -37.876909896613235,
        -65.51092934659269, -93.14195357276533, 2.2369055583394837, 4.253543538348526,
        5.179742927190528, -8.04668521844282, -34.9017694216134, -62.535788871592864,
        -90.1668130977655, -13.15919849730153, -11.021796017930551, -8.04668521844282,
        1.276752818231301, -24.249351780810755, -51.8833712307902, -79.51439545696283,
        -40.014313623172406, -37.876909896613235, -34.9017694216134, -24.249351780810755,
        7.04702351121936, -19.33921942419494, -46.97024365036757, -67.64833307315187,
        -65.51092934659269, -62.535788871592864, -51.8833712307902, -19.33921942419494,
        13.95414063252406, -12.429218557116839, -95.2793572993245, -93.14195357276533,
        -90.1668130977655, -79.51439545696283, -46.97024365036757, -12.429218557116839,
        20.86189530197881,
    ),
    'inverted_gumbel(2)': (
        21.98613015925054, 4.60517017113769, -9.21034078857633, -21.766236054488083,
        -24.82329643879936, -25.581760116076726, -26.00998113180664, 4.60517017113769,
        12.775791287124148, -4.152507989576975e-07, -12.55589418266461, -15.612954566972563,
        -16.371418244249877, -16.799639259979777, -9.21034078857633, -4.152507989576975e-07,
        5.869534300293272, -5.646643115666464, -8.703700173958138, -9.462163798125284,
        -9.890384798742456, -21.766236054488083, -12.55589418266461, -5.646643115666464,
        0.41605557909055346, -1.5161510005524732, -2.2492510002548807, -2.670228675256263,
        -24.82329643879936, -15.612954566972563, -8.703700173958138, -1.5161510005524732,
        3.4507793143543997, 4.423496117576361, 4.627569846431053, -25.581760116076726,
        -16.371418244249877, -9.462163798125284, -2.2492510002548807, 4.423496117576361,
        7.449706869363577, 8.898686105894734, -26.00998113180664, -16.799639259979777,
        -9.890384798742456, -2.670228675256263, 4.627569846431053, 8.898686105894734,
        11.479813081019547,
    ),
    'husler_reiss(2)': (
        13.502264623902937, 9.729698913829449, 4.8502824561679825, -5.791692764272232,
        -48.37737140540429, -138.51865175666256, -276.2125657112872, 9.729698913829449,
        7.839241565166029, 4.680947020238486, -4.182604873224757, -43.420879637426474,
        -129.9849464408397, -264.11226807298624, 4.8502824561679825, 4.680947020238486,
        3.626001246283299, -2.3642707356884065, -37.03044315508018, -118.73237364947299,
        -248.02286736707765, -5.791692764272232, -4.182604873224757, -2.3642707356884065,
        0.4136687750351225, -18.690701170872018, -84.33884033769239, -197.6635173279657,
        -48.37737140540429, -43.420879637426474, -37.03044315508018, -18.690701170872018,
        5.865291722756442, -14.544395892554261, -82.66968048178032, -138.51865175666256,
        -129.9849464408397, -118.73237364947299, -84.33884033769239, -14.544395892554261,
        12.771573499850152, -7.633095561505545, -276.2125657112872, -264.11226807298624,
        -248.02286736707765, -197.6635173279657, -82.66968048178032, -7.633095561505545,
        19.67932733349879,
    ),
    'galambos(1.5)': (
        13.784553092380918, 9.842802487260773, 4.7599705888650705, -3.997529505124971,
        -14.490873031463321, -24.85425460747498, -35.21588931665222, 9.842802487260773,
        8.005570615706329, 4.684200546932923, -3.203396853905056, -13.684671093658904,
        -24.048052172507802, -34.409686881669344, 4.7599705888650705, 4.684200546932923,
        3.7096335255391346, -2.114050733087829, -12.551516529189538, -22.91489577059687,
        -33.276530479700384, -3.997529505124971, -3.203396853905056, -2.114050733087829,
        0.47325496885428336, -8.147559784367836, -18.510818584590886, -28.87245328989034,
        -14.490873031463321, -13.684671093658904, -12.551516529189538, -8.147559784367836,
        5.976975308452982, -2.538253135688916, -12.899803612696244, -24.85425460747498,
        -24.048052172507802, -22.91489577059687, -18.510818584590886, -2.538253135688916,
        12.883410130102897, 4.370083421310556, -35.21588931665222, -34.409686881669344,
        -33.276530479700384, -28.87245328989034, -12.899803612696244, 4.370083421310556,
        19.791164116931096,
    ),
    'coles_tawn(0.5,0.8)': (
        8.896901526424015, 6.452900844218048, 3.6517295382055535, -1.031428907561397,
        -4.88842645773377, -8.34352675117497, -11.797405631740627, 6.679631595391289,
        5.169912986166649, 3.1921029685632396, -0.7995278417090229, -4.618961239588074,
        -8.074044583251867, -11.527923448372539, 3.9155911049216336, 3.353840925488705,
        2.3887285603465944, -0.49719294532739866, -4.238101263007757, -7.693139995884415,
        -11.147018819327045, -1.451213549514599, -1.0784731671339627, -0.6087669157505053,
        0.17495195307458558, -2.6165200294459394, -6.070337663522047, -9.524215295244012,
        -7.277959920956015, -6.8472143298338555, -6.239547264546876, -3.746081224369791,
        5.212369004295955, 2.8715996813793496, -0.5808461887894516, -12.805489055546944,
        -12.374690818200879, -11.766882364900962, -9.269743166214347, 1.8771441626174867,
        12.116752531384485, 9.778103677524081, -18.33169462604178, -17.90089633627445,
        -17.29308774210957, -14.795944874656184, -3.645392477816261, 8.784544526442273,
        19.02450446263629,
    ),
    'coles_tawn(0.3,3)': (
        8.732805448280493, 6.05899563189799, 3.29673399034024, -0.6966351635163628,
        -3.1925917995143687, -5.266031739288838, -7.3383594718662515, 6.90669081401543,
        5.072392909146183, 2.9452567650478088, -0.5640538773682654, -3.0308152154825057,
        -5.104246427453499, -7.176574156140959, 4.3245592694522506, 3.5549683981755575,
        2.3396722427165293, -0.38689771260283334, -2.8018587022171837, -4.875271766518646,
        -6.94759948535463, -3.1687950143645685, -2.069116771388764, -0.8983771104282559,
        0.1435426363651941, -1.795328240373025, -3.8684010716203727, -5.940728511036353,
        -22.60440769987863, -20.99891243567371, -18.757972608566813, -10.601755092798944,
        5.104396452503898, 3.440368257047689, 1.3684689113081732, -43.328718804958065,
        -41.72220593125745, -39.47860377173168, -31.268865961518358, -5.356133061837383,
        12.008368631717858, 10.345444727318242, -64.05198577137627, -62.445471879956855,
        -60.20186705637365, -51.99207531534903, -26.03668288697885, 1.5532605295748843,
        18.916120150285096,
    ),
    'coles_tawn(2,1)': (
        12.165023357961461, 8.995499996974843, 4.778100305182142, -3.908879274386648,
        -17.51878726572787, -31.336055993869724, -45.15156836581796, 8.677204615297795,
        7.064100972720203, 4.414331420934133, -2.9471292234053377, -16.445398214983953,
        -30.26249748057561, -44.078009683123994, 4.529394634419143, 4.195932375956246,
        3.2652160841257882, -1.7235986529594407, -14.94047395485388, -28.757125249616458,
        -42.57263700430748, -2.409006610570167, -1.9033307940149184, -1.2291710050842912,
        0.33244778484242393, -9.248893590887578, -23.055873790370878, -36.87137586212756,
        -9.594939458792732, -9.056776011061269, -8.298398238018917, -5.243471079081924,
        5.693174171963436, -3.7386866375004715, -17.546220556112655, -16.504148698798737,
        -15.965953213383228, -15.207489621907262, -12.150431369299964, 0.403468687724495,
        12.599117048425242, 3.170060770594672, -23.41190545940039, -22.87370994198594,
        -22.115246264792155, -19.05818588261258, -6.502292612406318, 7.311220862137764,
        19.506870542718666,
    ),
}


def test_the_logpdf_oracle_covers_every_family():
    assert {parse_copula(spec).tag for spec in LOGPDF_ORACLE} == set(FAMILIES)


@pytest.mark.parametrize("spec", list(LOGPDF_ORACLE))
def test_logpdf_against_oracle_at_the_corners(spec):
    # every point above the likelihood's floor, log(1e-300). Measured: at
    # most 5.7e-14 absolute apart. Coles-Tawn's W1 as 1 - I_q(a + 1, b) was
    # 2.16 off at coles_tawn(0.3,3), (1 - 1e-6, 1e-10), and inverted_gumbel's
    # -log(1 - u) 8.3e-8 off at (1e-10, 0.999)
    u, v = np.array([(u, v) for u in LOGPDF_LEVELS for v in LOGPDF_LEVELS]).T
    want = np.array(LOGPDF_ORACLE[spec])
    keep = want > np.log(1e-300)
    got = parse_copula(spec)._logpdf(u, v)
    assert_allclose(got[keep], want[keep], rtol=0.0, atol=1e-9)


def test_parameter_domain_errors():
    bad = [
        ("gaussian", [1.0]),
        ("gaussian", [0.2, 3.0]),
        ("student_t", [0.2, -1.0]),
        ("frank", [0.0]),
        ("clayton", [-0.5]),
        ("joe", [1.0]),
        ("gumbel", [0.99]),
        ("inverted_gumbel", [1.0]),
        ("husler_reiss", [0.0]),
        ("galambos", [-2.0]),
        ("coles_tawn", [1.0]),
        ("coles_tawn", [1.0, -1.0]),
        ("nope", [1.0]),
        # NaN and inf fall outside every domain
        ("gaussian", [np.nan]),
        ("student_t", [0.2, np.nan]),
        ("frank", [np.nan]),
        ("clayton", [np.nan]),
        ("joe", [np.nan]),
        ("joe", [np.inf]),
        ("gumbel", [np.nan]),
        ("inverted_gumbel", [np.nan]),
        ("husler_reiss", [np.nan]),
        ("galambos", [np.nan]),
        ("coles_tawn", [np.nan, 1.0]),
    ]
    for tag, params in bad:
        with pytest.raises(ParameterError):
            make_copula(tag, params)


def test_domain_error_names_family_parameter_and_value():
    with pytest.raises(ParameterError, match=r"^gumbel alpha must exceed 1, got 0\.99$"):
        make_copula("gumbel", [0.99])
    with pytest.raises(ParameterError, match=r"^coles_tawn beta must be positive, got -1\.0$"):
        make_copula("coles_tawn", [1.0, -1.0])


#: Every unconstrained value the fit may try for one parameter.
Z_GRID = np.linspace(-10.0, 10.0, 21)


#: Every class the fit searches, copula family or weighting, by tag.
PARAMETRIC = {**FAMILIES, **WEIGHTINGS}
WEIGHTING_REPRESENTATIVE = [
    make_weighting(tag, theta) for tag in sorted(WEIGHTINGS) for theta in (0.4, 1.5, 3.0)
]


@pytest.mark.parametrize("tag", sorted(PARAMETRIC))
def test_family_domains_map_the_real_line_into_the_domain(tag):
    # the fit searches z and builds the family or weighting at
    # backward(z): backward must invert forward at the representative
    # parameters, and every z must give a valid object
    cls = PARAMETRIC[tag]
    domains = [domain for _, domain in cls.param_domains]
    objs = [c for c in REPRESENTATIVE + WEIGHTING_REPRESENTATIVE if c.tag == tag]
    assert objs, f"no representative parameters for {tag}"
    for obj in objs:
        for domain, p in zip(domains, obj.params):
            assert_allclose(domain.backward(domain.forward(p)), p, rtol=1e-12)
    for zs in itertools.product(Z_GRID, repeat=len(domains)):
        params = [domain.backward(z) for domain, z in zip(domains, zs)]
        if NONZERO in domains and 0.0 in zs:
            # the identity map of a nonzero parameter sends z = 0 to 0,
            # outside the domain; the objective scores that point -inf
            with pytest.raises(ParameterError):
                cls(*params)
            continue
        assert cls(*params).params == tuple(params)


def test_parse_and_repr_round_trip():
    for text in ["gaussian(0.6)", "student_t(0.5,4)", "coles_tawn(0.5,0.8)", "gumbel(2)"]:
        cop = parse_copula(text)
        again = parse_copula(repr(cop))
        assert again == cop
    with pytest.raises(ParameterError):
        parse_copula("gumbel2")
    with pytest.raises(ParameterError):
        parse_copula("gumbel(x)")


def test_all_ten_families_registered():
    assert sorted(FAMILIES) == [
        "clayton",
        "coles_tawn",
        "frank",
        "galambos",
        "gaussian",
        "gumbel",
        "husler_reiss",
        "inverted_gumbel",
        "joe",
        "student_t",
    ]
