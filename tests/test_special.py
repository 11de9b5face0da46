import numpy as np
from numpy.testing import assert_allclose
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from blendcop.families import make_copula
from oracles import bvn_orthant_tail, bvt_cdf, bvt_orthant_tail


def _bvn(rho):
    return multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])


def _bvn_upper(a, b, rho):
    """P[X > a, Y > b] from scipy's bivariate normal CDF."""
    return 1.0 - ndtr(a) - ndtr(b) + _bvn(rho).cdf([a, b])


def test_bvn_cdf_against_scipy():
    # the Gaussian copula CDF at (Phi(a), Phi(b)) is the bivariate normal CDF at (a, b)
    rhos = [-0.99, -0.95, -0.6, 0.0, 0.3, 0.6, 0.925, 0.93, 0.99]
    pts = [(0.5, 0.3), (0.0, 0.0), (-1.5, 2.0), (2.5, 2.5), (-3.0, -3.0)]
    for rho in rhos:
        cop = make_copula("gaussian", [rho])
        for a, b in pts:
            assert_allclose(cop.cdf(ndtr(a), ndtr(b)), _bvn(rho).cdf([a, b]), atol=1e-7)


def test_bvn_cdf_vectorised():
    a = np.linspace(-2, 2, 7)
    cop = make_copula("gaussian", [0.4])
    got = cop.cdf(ndtr(a), ndtr(a[::-1]))
    ref = [cop.cdf(ndtr(x), ndtr(y)) for x, y in zip(a, a[::-1])]
    assert_allclose(got, ref, rtol=1e-13)
    assert_allclose(got, _bvn(0.4).cdf(np.column_stack([a, a[::-1]])), atol=1e-7)


def test_bvn_upper_complements_cdf():
    for rho in (-0.4, 0.6):
        cop = make_copula("gaussian", [rho])
        for a, b in [(0.3, -0.7), (1.0, 2.0)]:
            assert_allclose(cop.survival(ndtr(a), ndtr(b)), _bvn_upper(a, b, rho), atol=1e-7)


def test_orthant_tail_matches_moderate_region():
    for rho in (0.3, 0.6):
        for a in (0.5, 1.5):
            assert_allclose(bvn_orthant_tail(a, a, rho), _bvn_upper(a, a, rho), rtol=1e-9)


def test_orthant_tail_deep_values_positive_and_decreasing():
    vals = [bvn_orthant_tail(a, a, 0.5) for a in (4.0, 5.5, 7.0)]
    assert all(v > 0.0 for v in vals)
    assert vals[0] > vals[1] > vals[2]
    # frozen from a 30-digit mpmath double quadrature
    assert_allclose(vals[1], 2.1037e-11, rtol=5e-4)


def test_bvt_cdf_symmetry_and_margins():
    # exchangeability and reduction to the univariate t at the far corner
    from scipy.stats import t as tdist

    assert_allclose(bvt_cdf(0.7, -0.2, 0.5, 4.0), bvt_cdf(-0.2, 0.7, 0.5, 4.0), rtol=1e-9)
    assert_allclose(bvt_cdf(0.7, 60.0, 0.5, 4.0), tdist.cdf(0.7, 4.0), atol=1e-5)


def test_bvt_orthant_matches_cdf_identity():
    from scipy.stats import t as tdist

    rho, nu = 0.5, 4.0
    for a in (0.8, 1.5):
        ident = 1.0 - 2.0 * tdist.cdf(a, nu) + bvt_cdf(a, a, rho, nu)
        assert_allclose(bvt_orthant_tail(a, a, rho, nu), ident, rtol=1e-7)
