import numpy as np
import pytest
from numpy.testing import assert_allclose

from blendcop.errors import ParameterError
from blendcop.families import make_copula
from blendcop.weighting import (
    WEIGHTINGS,
    ExpComplement,
    PowerProduct,
    make_weighting,
    parse_weighting,
)


def test_power_value():
    assert_allclose(PowerProduct(2.0)(0.5, 0.5), 0.0625, rtol=1e-14)


def test_exp_complement_origin_limit():
    eps = 1e-9
    assert_allclose(ExpComplement(2.0)(eps, eps), np.exp(-2.0), rtol=1e-6)


def test_power_upper_corner_limit():
    eps = 1e-9
    assert PowerProduct(1.5)(1.0 - eps, 1.0 - eps) > 1.0 - 1e-8


@pytest.mark.parametrize("w", [PowerProduct(0.4), PowerProduct(2.0), ExpComplement(3.0)])
def test_monotone_and_in_range(w):
    grid = np.linspace(1e-6, 1.0 - 1e-6, 101)
    for v in (0.2, 0.5, 0.9):
        vals = w(grid, np.full_like(grid, v))
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals > 0.0) & (vals < 1.0))
        vals_t = w(np.full_like(grid, v), grid)
        assert np.all(np.diff(vals_t) >= 0.0)


@pytest.mark.parametrize("tag", sorted(WEIGHTINGS))
@pytest.mark.parametrize("theta", [0.4, 1.0, 3.0])
def test_every_weighting_is_symmetric(tag, theta):
    # the blend's axis-1 margin relies on pi(u, v) = pi(v, u)
    w = make_weighting(tag, [theta])
    grid = np.concatenate([[1e-9, 1e-4], np.linspace(0.01, 0.99, 33), [1.0 - 1e-4, 1.0 - 1e-9]])
    U, V = np.meshgrid(grid, grid, indexing="ij")
    assert_allclose(w(U, V), w(V, U), rtol=1e-14, atol=0.0)


def test_theta_ordering_power():
    u = v = 0.6
    assert PowerProduct(0.5)(u, v) > PowerProduct(2.0)(u, v) > PowerProduct(5.0)(u, v)


@pytest.mark.parametrize("w", [PowerProduct(0.4), PowerProduct(1.5), ExpComplement(2.0)])
def test_dv_matches_finite_difference(w):
    h = 1e-7
    for u, v in [(0.3, 0.4), (0.8, 0.9), (0.5, 0.2)]:
        fd = (w(u, v + h) - w(u, v - h)) / (2.0 * h)
        assert_allclose(w.dv(u, v), fd, rtol=1e-6)


@pytest.mark.parametrize("w", [PowerProduct(0.4), PowerProduct(1.5), ExpComplement(2.0)])
def test_conditional_expectation_against_sampling(w):
    # E[pi(t, V) | U = t] versus a direct conditional Monte Carlo estimate
    cop = make_copula("gumbel", [2.0])
    rng = np.random.default_rng(5)
    for t in (0.3, 0.9):
        column = np.array([[t]])
        got = w.expectation(column, [cop._h(column, w.v_nodes[None, :])])[0][0]
        v = cop.cond_quantile(np.full(200_000, t), rng.random(200_000))
        mc = np.mean(w(t, v))
        assert abs(got - mc) < 4.0 * np.std(w(t, v)) / np.sqrt(200_000.0)


def test_invalid_theta():
    with pytest.raises(ParameterError):
        PowerProduct(0.0)
    with pytest.raises(ParameterError):
        ExpComplement(-1.0)
    for cls in (PowerProduct, ExpComplement):
        for theta in (np.nan, np.inf):
            with pytest.raises(ParameterError, match="theta must be positive"):
                cls(theta)


def test_parse_and_registry():
    w = parse_weighting("power(1.5)")
    assert w == PowerProduct(1.5)
    assert parse_weighting("exp_complement(2)") == ExpComplement(2.0)
    for w in (PowerProduct(0.8), ExpComplement(2.5), PowerProduct(1 / 3)):
        assert parse_weighting(repr(w)) == w
    assert repr(PowerProduct(1 / 3)) == "power(0.3333333333333333)"
    for text in ("power", "power(1,2)", "power()"):
        with pytest.raises(ParameterError):
            parse_weighting(text)
    with pytest.raises(ParameterError):
        parse_weighting("nope(1)")
    with pytest.raises(ParameterError):
        make_weighting("power", [float("nan")])
