import dataclasses

import numpy as np
import pytest
from scipy.stats import chisquare, ks_2samp, kstest

from blendcop.blend import BlendedModel
from blendcop.errors import InputError, SamplingError
from blendcop.families import make_copula
from blendcop.quadrature import gauss_legendre
from blendcop.sampling import BODY, TAIL, SampleRequest, rejection_round, sample_cstar
from blendcop.weighting import make_weighting


def build(ttag, tp, btag, bp, wtag, theta):
    return BlendedModel(
        make_copula(ttag, tp), make_copula(btag, bp), make_weighting(wtag, [theta])
    )


@pytest.fixture(scope="module")
def model():
    return build("gumbel", [2.0], "gaussian", [0.6], "power", 1.5)


def test_degenerate_weight_all_tail():
    m = build("gumbel", [2.0], "gaussian", [0.6], "power", 1e-12)
    pts, origins = sample_cstar(SampleRequest(m, 2000, seed=1))
    assert len(pts) == 2000
    assert np.all(origins == TAIL)


def test_round_matches_documented_algorithm(model):
    n = 10_000
    got_t, got_b = rejection_round(model, n, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    prop_t = model.tail.sample(n, rng)
    mask_t = rng.random(n) < model.weighting(prop_t[:, 0], prop_t[:, 1])
    prop_b = model.body.sample(n, rng)
    mask_b = rng.random(n) < 1.0 - model.weighting(prop_b[:, 0], prop_b[:, 1])
    np.testing.assert_array_equal(got_t, prop_t[mask_t])
    np.testing.assert_array_equal(got_b, prop_b[mask_b])


def test_expected_acceptance_counts(model, rng):
    n = 100_000
    K, Kt, Kb = model.norm_constants
    acc_t, acc_b = rejection_round(model, n, rng)
    se_t = np.sqrt(n * Kt * (1.0 - Kt))
    se_b = np.sqrt(n * Kb * (1.0 - Kb))
    assert abs(len(acc_t) - n * Kt) < 4.0 * se_t
    assert abs(len(acc_b) - n * Kb) < 4.0 * se_b
    # pooled totals and mixture proportions
    total = len(acc_t) + len(acc_b)
    assert abs(total - n * K) < 3.0 * np.sqrt(n * K)
    frac_tail = len(acc_t) / total
    assert abs(frac_tail - Kt / K) < 3.0 * np.sqrt((Kt / K) * (Kb / K) / total)


def test_sample_histogram_matches_quadrature(model):
    n = 100_000
    pts, _ = sample_cstar(SampleRequest(model, n, seed=11))
    edges = np.linspace(0.0, 1.0, 11)
    counts = np.histogram2d(pts[:, 0], pts[:, 1], bins=[edges, edges])[0].ravel()
    x16, w16 = gauss_legendre(64, 0.0, 1.0)
    probs = np.empty((10, 10))
    for i in range(10):
        xs = edges[i] + 0.1 * x16
        for j in range(10):
            ys = edges[j] + 0.1 * x16
            vals = model.cstar_pdf(xs[:, None], ys[None, :])
            probs[i, j] = 0.01 * (w16 @ vals @ w16)
    probs = probs.ravel() / probs.sum()
    res = chisquare(counts, n * probs)
    assert res.pvalue > 0.001, f"chi-square p={res.pvalue}"


def test_blended_copula_sample_uniform_margins(model):
    uv = model.sample(100_000, np.random.default_rng(3))
    assert kstest(uv[:, 0], "uniform").pvalue > 0.001
    assert kstest(uv[:, 1], "uniform").pvalue > 0.001


def test_identical_components_sample_matches_component(rng):
    m = build("gaussian", [0.6], "gaussian", [0.6], "power", 1.3)
    uv = m.sample(60_000, rng)
    direct = make_copula("gaussian", [0.6]).sample(60_000, rng)
    assert ks_2samp(uv[:, 1], direct[:, 1]).pvalue > 0.001
    sl = (uv[:, 0] > 0.45) & (uv[:, 0] < 0.55)
    sd = (direct[:, 0] > 0.45) & (direct[:, 0] < 0.55)
    assert ks_2samp(uv[sl, 1], direct[sd, 1]).pvalue > 0.001


def test_zero_draws(model):
    pts, origins = sample_cstar(SampleRequest(model, 0, seed=5))
    assert pts.shape == (0, 2) and origins.shape == (0,)
    assert model.sample(0, np.random.default_rng(0)).shape == (0, 2)


def test_both_origins_present(model):
    _, origins = sample_cstar(SampleRequest(model, 2000, seed=9))
    assert set(origins) == {TAIL, BODY}


def test_seed_reproducibility(model):
    a = sample_cstar(SampleRequest(model, 500, seed=42))
    b = sample_cstar(SampleRequest(model, 500, seed=42))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_shortfall_error(model, monkeypatch):
    # force tiny proposal rounds so two doublings cannot reach the target
    import blendcop.sampling as sampling

    real = sampling.rejection_round

    def tiny_round(m, n, rng):
        return real(m, min(n, 5), rng)

    monkeypatch.setattr(sampling, "rejection_round", tiny_round)
    with pytest.raises(SamplingError, match="shortfall"):
        sampling.sample_cstar(SampleRequest(model, 1000, seed=2))


def test_request_validation(model):
    with pytest.raises(InputError, match="n_target"):
        SampleRequest(model, -1)


@pytest.mark.parametrize("seed", ["x", 2.5, -1])
def test_a_seed_that_is_not_a_seed_fails_when_the_request_is_made(model, seed):
    with pytest.raises(InputError, match="rng must be a seed, None or a numpy Generator"):
        SampleRequest(model, 10, seed=seed)
    # nor can it be set once the request is made
    with pytest.raises(dataclasses.FrozenInstanceError):
        SampleRequest(model, 10, seed=1).seed = seed


def test_a_request_draws_from_its_generator_or_a_fresh_one_per_call(model):
    gen = np.random.default_rng(3)
    assert SampleRequest(model, 10, seed=gen).rng() is gen
    req = SampleRequest(model, 10, seed=3)
    first, second = req.rng(), req.rng()
    assert first is not second
    assert first.random() == second.random() == np.random.default_rng(3).random()


@pytest.mark.parametrize("n", [2.5, -1, "3"])
def test_a_sample_size_that_is_not_a_whole_number_fails_before_any_draw(model, n):
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(InputError, match="sample size"):
        model.tail.sample(n, rng)
    with pytest.raises(InputError, match="n_target"):
        sample_cstar(SampleRequest(model, n, seed=rng))
    assert rng.bit_generator.state == state
