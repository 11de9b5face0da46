import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chisquare, ks_2samp, kstest
from scipy.special import ndtri
from scipy.stats import t as tdist

from blendcop.dependence import DEFAULT_R_GRID
from blendcop.errors import InputError, ParameterError
from blendcop.families import CLAMP, FAMILIES, NONZERO, make_copula, parse_copula
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


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_family_domains_map_the_real_line_into_the_domain(tag):
    # the fit searches z and builds the family at backward(z): backward
    # must invert forward at the representative parameters, and every z
    # must give a valid copula
    domains = [domain for _, domain in FAMILIES[tag].param_domains]
    cops = [c for c in REPRESENTATIVE if c.tag == tag]
    assert cops, f"no representative parameters for {tag}"
    for cop in cops:
        for domain, p in zip(domains, cop.params):
            assert_allclose(domain.backward(domain.forward(p)), p, rtol=1e-12)
    for zs in itertools.product(Z_GRID, repeat=len(domains)):
        params = [domain.backward(z) for domain, z in zip(domains, zs)]
        if NONZERO in domains and 0.0 in zs:
            # the identity map of a nonzero parameter sends z = 0 to 0,
            # outside the domain; the objective scores that point -inf
            with pytest.raises(ParameterError):
                make_copula(tag, params)
            continue
        assert make_copula(tag, params).params == tuple(params)


@pytest.mark.parametrize("tag", sorted(WEIGHTINGS))
def test_weighting_domain_maps_the_real_line_into_the_domain(tag):
    domain = WEIGHTINGS[tag].domain
    for theta in (0.4, 1.5, 3.0):
        assert_allclose(domain.backward(domain.forward(theta)), theta, rtol=1e-12)
    for z in Z_GRID:
        assert make_weighting(tag, domain.backward(z)).theta == domain.backward(z)


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
