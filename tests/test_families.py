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
