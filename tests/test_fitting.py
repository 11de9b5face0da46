import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from blendcop import blend, families
from blendcop.blend import BlendedModel
from blendcop.errors import BlendcopError, EvaluationError, FitError, InputError, ParameterError
from blendcop.families import (
    CORRELATION,
    FAMILIES,
    NONZERO,
    POSITIVE,
    Gaussian,
    Gumbel,
    StudentT,
    make_copula,
    parse_copula,
    unit_points,
)
from blendcop import fitting
from blendcop.fitting import (
    Dataset,
    FitResult,
    _Objective,
    aic,
    fit,
    log_likelihood,
    log_likelihood_detail,
)
from blendcop.weighting import WEIGHTINGS, make_weighting, parse_weighting

# Full-pipeline oracle for gumbel(2) tail / clayton(1) body / power(0.8) on
# 50 iid uniform pairs from default_rng(42), printed by
# tests/oracle_loglik_seed42.py: closed-form component densities, K and the
# margins by nested adaptive scipy quad on the unit square, quantiles by
# Newton steps on F; nothing is imported from blendcop.
LOGLIK_ORACLE_SEED42 = -7.622542


def build(ttag, tp, btag, bp, wtag, theta):
    return BlendedModel(
        make_copula(ttag, tp), make_copula(btag, bp), make_weighting(wtag, theta)
    )


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([0.5]), np.array([0.5]))
    with pytest.raises(ValueError):
        Dataset(np.array([0.1, 0.2]), np.array([0.1]))
    d = Dataset(np.array([0.0, 1.0, 0.5]), np.array([0.2, 0.4, 0.6]))
    assert d.n == 3
    assert d.u.min() > 0.0 and d.u.max() < 1.0


#: Coordinate arrays of a wrong shape or length, keyed by test id.
BAD_SHAPES = {
    "one-observation": (np.array([0.5]), np.array([0.5])),
    "unequal-lengths": (np.array([0.1, 0.2]), np.array([0.1])),
    "two-dimensional": (np.full((2, 2), 0.5), np.full((2, 2), 0.5)),
}

#: Arrays that ``Dataset.from_array`` must reject, as not (n, 2).
BAD_ARRAYS = {
    "array-1d": np.full(4, 0.5),
    "array-one-column": np.full((4, 1), 0.5),
    "array-three-columns": np.full((4, 3), 0.5),
}


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.7, *BAD_SHAPES, *BAD_ARRAYS])
def test_dataset_rejects_nan_and_out_of_range(bad):
    if bad in BAD_SHAPES:
        with pytest.raises(InputError, match="dataset needs"):
            Dataset(*BAD_SHAPES[bad])
        return
    if bad in BAD_ARRAYS:
        with pytest.raises(InputError, match="dataset needs an \\(n, 2\\) array"):
            Dataset.from_array(BAD_ARRAYS[bad])
        return
    with pytest.raises(InputError, match="in \\[0, 1\\]"):
        Dataset(np.array([0.2, bad]), np.array([0.3, 0.4]))
    with pytest.raises(ValueError):  # InputError is also a ValueError
        Dataset(np.array([0.2, 0.5]), np.array([bad, 0.4]))


def test_objective_scores_package_errors_and_propagates_faults():
    def evaluate(params):
        if params[0] > 1.0:
            raise EvaluationError("density overflow")
        if params[0] > 0.9:
            raise ZeroDivisionError
        if params[0] < 0.5:
            raise KeyError("a fault in the evaluation")
        return -params[0], f"model at {params[0]}"

    obj = _Objective(evaluate, (POSITIVE,))
    assert obj(np.log([2.0])) == np.inf
    assert obj(np.log([3.0])) == np.inf
    assert obj(np.log([0.95])) == np.inf
    assert obj(np.log([0.7])) == pytest.approx(0.7)
    assert obj.best[2] == "model at 0.7"
    with pytest.raises(KeyError):
        obj(np.log([0.1]))
    assert obj.failures == {
        "EvaluationError": [2, "density overflow"],
        "ZeroDivisionError": [1, ""],
    }


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("role", ["tail", "body"])
def test_nonfinite_density_at_a_data_point_scores_minus_inf(monkeypatch, role, bad):
    m = build("gumbel", [2.0], "clayton", [1.0], "power", 0.8)
    data = Dataset(np.array([0.2, 0.5, 0.95]), np.array([0.3, 0.6, 0.9]))
    assert np.isfinite(log_likelihood(m, data))
    fam = getattr(m, role)
    logpdf = fam._logpdf
    # poison the component density at the one data point with u > 0.8
    monkeypatch.setattr(fam, "_logpdf", lambda u, v: np.where(u > 0.8, bad, logpdf(u, v)))
    with pytest.raises(EvaluationError, match=f"non-finite {role} density"):
        m.logpdf(data.u, data.v)
    obj = _Objective(lambda params: (log_likelihood(m, data), m), (POSITIVE,))
    assert obj(np.zeros(1)) == np.inf
    assert obj.trace[-1][1] == -np.inf


def test_fit_result_derives_k_aic_and_evaluations():
    fields = dict(model=None, label="x", loglik=1.0, converged=True,
                  trace=[((0.5, 1.0), -3.0), ((0.6, 1.1), 1.0)], warnings=[], seconds=0.0,
                  cov=np.full((2, 2), np.nan))
    res = FitResult(**fields)
    assert (res.k, res.aic, res.evaluations) == (2, 2.0, 2)
    assert res.aic == aic(res.loglik, res.k)
    # none of the three can be set apart from what it is derived from
    for name, value in (("k", 2), ("aic", 2.0), ("evaluations", 2)):
        with pytest.raises(TypeError):
            FitResult(**fields, **{name: value})


def test_aic_examples():
    assert aic(0.0, 3) == 6.0
    assert aic(100.0, 2) == -196.0
    with pytest.raises(ValueError):
        aic(1.0, 0)


def test_loglik_identical_independence_is_zero(rng):
    m = build("gaussian", [0.0], "gaussian", [0.0], "power", 1.3)
    data = Dataset(rng.random(200), rng.random(200))
    assert abs(log_likelihood(m, data)) < 200 * 2e-5


def test_loglik_collapse_identity(rng):
    m = build("gumbel", [2.0], "gumbel", [2.0], "power", 1.7)
    cop = make_copula("gumbel", [2.0])
    uv = cop.sample(300, rng)
    data = Dataset.from_array(uv)
    single = float(np.sum(cop.logpdf(data.u, data.v)))
    assert abs(log_likelihood(m, data) - single) < 1e-4 * data.n


def test_loglik_against_full_pipeline_oracle():
    m = build("gumbel", [2.0], "clayton", [1.0], "power", 0.8)
    rng = np.random.default_rng(42)
    data = Dataset.from_array(rng.random((50, 2)))
    assert_allclose(log_likelihood(m, data), LOGLIK_ORACLE_SEED42, atol=1e-3)


def test_loglik_detail_counts_clamped():
    # gaussian(0.99) has density far below 1e-300 at (1e-9, 1 - 1e-9): the
    # floor holds it at log(1e-300) for the copula and its blend alike
    cop = make_copula("gaussian", [0.99])
    m = build("gaussian", [0.99], "gaussian", [0.99], "power", 1.0)
    data = Dataset(np.array([1e-9, 0.5, 0.2]), np.array([1.0 - 1e-9, 0.5, 0.3]))
    others = float(np.sum(cop.logpdf(data.u[1:], data.v[1:])))
    results = [log_likelihood_detail(model, data) for model in (cop, m)]
    for ll, clamped in results:
        assert clamped == 1
        assert_allclose(ll, np.log(1e-300) + others, rtol=0, atol=1e-6 * data.n)
    assert_allclose(results[0][0], results[1][0], rtol=0, atol=1e-6 * data.n)
    assert log_likelihood(cop, data) == results[0][0]


@pytest.mark.parametrize(
    "spec",
    ["gumbel(2)/clayton(1)/power(0.8)", "coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5)", "gumbel(2)"],
    ids=["shared-margin", "coles_tawn", "gumbel"],
)
def test_the_likelihood_reads_the_datasets_points_once(spec, monkeypatch):
    # an evaluation reads the Dataset's checked points through the model's
    # private log-density: logpdf's values, without its second range check
    parts = spec.split("/")
    model = parse_copula(spec) if len(parts) == 1 else BlendedModel(
        parse_copula(parts[0]), parse_copula(parts[1]), parse_weighting(parts[2])
    )
    data = Dataset.from_array(np.random.default_rng(8).random((2000, 2)))
    want = np.sum(np.maximum(model.logpdf(data.u, data.v), np.log(1e-300)))
    checked = []
    spy = lambda x, name="point": checked.append(name) or unit_points(x, name)
    # fitting checks through families.clamp_unit, so through the first
    for module in (families, blend):
        monkeypatch.setattr(module, "unit_points", spy)
    assert log_likelihood(model, data) == want
    assert checked == []
    model.logpdf(data.u, data.v)
    assert checked == ["point", "point"]  # the spy sees the public path's check


def test_a_nan_density_still_scores_minus_inf_in_a_fit(monkeypatch):
    # the private log-density keeps logpdf's NaN check: a fit counts each
    # NaN evaluation as an EvaluationError and goes on
    data = Dataset.from_array(Gumbel(2.5).sample(500, np.random.default_rng(9)))
    logpdf = Gumbel._logpdf
    monkeypatch.setattr(
        Gumbel, "_logpdf", lambda c, u, v: np.where(c.params[0] > 1.8, np.nan, logpdf(c, u, v))
    )
    res = fit("gumbel", data, restarts=1)
    assert res.params[0] <= 1.8
    assert any(
        re.fullmatch(r"\d+ evaluations scored -inf on EvaluationError, the first: gumbel density "
                     r"produced NaN at .*", w)
        for w in res.warnings
    ), res.warnings


def test_a_fit_with_no_finite_log_likelihood_is_a_fit_error(rng, monkeypatch):
    # every evaluation scores -inf, so no restart has a best point
    data = Dataset.from_array(rng.random((50, 2)))
    monkeypatch.setattr(fitting, "log_likelihood", lambda model, data: -np.inf)
    monkeypatch.setattr(fitting, "_MAX_EVALUATIONS", 30)
    with pytest.raises(FitError, match="no restart produced a finite log-likelihood"):
        fit("gumbel", data, restarts=2)


def test_a_fit_with_many_densities_at_the_floor_warns(monkeypatch):
    # the points with u > 0.95 have density 1e-1000 at every parameter, so
    # more than 1 % of the data sits at the 1e-300 floor at the optimum too
    data = Dataset.from_array(Gumbel(2.0).sample(400, np.random.default_rng(5)))
    logpdf = Gumbel._logpdf
    monkeypatch.setattr(Gumbel, "_logpdf", lambda c, u, v: np.where(u > 0.95, -1000.0, logpdf(c, u, v)))
    res = fit("gumbel", data, restarts=1)
    clamped = np.count_nonzero(data.u > 0.95)
    assert clamped > 0.01 * data.n
    assert f"ill-conditioned likelihood: {clamped}/{data.n} densities at the 1e-300 floor" in res.warnings


def test_a_datasets_points_cannot_be_changed():
    u, v = np.array([0.2, 0.5, 0.9]), np.array([0.3, 0.6, 0.8])
    data = Dataset(u, v)
    with pytest.raises(ValueError, match="read-only"):
        data.u[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.v = np.array([0.1, 0.2, 0.3])
    u[0] = 0.4  # the caller's arrays stay its own
    assert data.u[0] == 0.2


def test_fit_single_gaussian_independent(rng):
    data = Dataset(rng.random(100_000), rng.random(100_000))
    res = fit("gaussian", data, restarts=1)
    assert abs(res.params[0]) < 0.01
    assert res.k == 1
    assert res.converged


def test_fit_single_gumbel_recovers(rng):
    uv = make_copula("gumbel", [2.0]).sample(10_000, rng)
    res = fit("gumbel", Dataset.from_array(uv), restarts=2)
    assert abs(res.params[0] - 2.0) < 0.1
    assert res.aic == aic(res.loglik, 1)


def test_fit_single_frank_magnitude(rng):
    uv = make_copula("frank", [0.92]).sample(827, rng)
    res = fit("frank", Dataset.from_array(uv), restarts=2)
    assert abs(res.params[0] - 0.92) < 0.5


def test_fit_single_student_t(rng):
    uv = make_copula("student_t", [0.5, 4.0]).sample(4000, rng)
    res = fit("student_t", Dataset.from_array(uv), restarts=1)
    assert abs(res.params[0] - 0.5) < 0.05
    assert 2.0 < res.params[1] < 9.0


def test_fit_matches_golden_section(rng):
    uv = make_copula("gaussian", [0.45]).sample(3000, rng)
    data = Dataset.from_array(uv)
    res = fit("gaussian", data, restarts=2)

    def neg_ll(rho):
        cop = make_copula("gaussian", [float(np.clip(rho, -0.999, 0.999))])
        return -float(np.sum(cop.logpdf(data.u, data.v)))

    golden = minimize_scalar(neg_ll, bracket=(0.1, 0.45, 0.8), method="golden", tol=1e-10)
    assert abs(res.params[0] - golden.x) < 1e-4


@pytest.mark.parametrize("rho", [0.3, 0.7])
def test_fit_stderr_matches_gaussian_fisher_information(rho):
    # the Fisher information of the bivariate normal correlation gives
    # SE = (1 - rho^2) / sqrt(n (1 + rho^2))
    n = 2000
    uv = make_copula("gaussian", [rho]).sample(n, np.random.default_rng(7))
    res = fit("gaussian", Dataset.from_array(uv), restarts=1)
    rho_hat = res.params[0]
    assert res.cov.shape == (1, 1) and not res.warnings
    fisher_se = (1.0 - rho_hat**2) / np.sqrt(n * (1.0 + rho_hat**2))
    assert_allclose(res.stderr[0], fisher_se, rtol=0.05)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hessian_reuses_its_axis_probes(k):
    # a quadratic in the identity-mapped coordinates: every difference is
    # exact up to rounding, in k^2 + k evaluations (not 2k^2)
    hess = np.array([[2.0, 0.3, -0.1], [0.3, 1.5, 0.2], [-0.1, 0.2, 1.0]])[:k, :k]
    z = np.array([0.1, -0.2, 0.3])[:k]
    objective = _Objective(lambda p: (-0.5 * np.asarray(p) @ hess @ p, None), (NONZERO,) * k)
    cov, trouble = fitting._covariance(objective, z, 0.5 * z @ hess @ z)
    assert trouble is None and objective.evaluations == k * k + k
    assert_allclose(cov, np.linalg.inv(hess), rtol=1e-6)


def test_blend_fit_hessian_costs_twelve_evaluations(rng, monkeypatch):
    spent = []
    inner = fitting._covariance

    def counted(objective, z, fun):
        before = objective.evaluations
        out = inner(objective, z, fun)
        spent.append(objective.evaluations - before)
        return out

    monkeypatch.setattr(fitting, "_covariance", counted)
    uv = build("gumbel", [2.0], "gaussian", [0.3], "power", 1.0).sample(200, rng)
    res = fit("gumbel+gaussian:power", Dataset.from_array(uv), restarts=1)
    assert spent == [12] and res.cov.shape == (3, 3)


def test_unidentified_theta_gives_nan_stderr_and_a_warning():
    # on negatively dependent data the best gumbel is the independence
    # copula: the fit drives the tail and the body towards it, or switches
    # the tail off, and either way theta no longer moves the likelihood
    uv = make_copula("gaussian", [-0.5]).sample(300, np.random.default_rng(0))
    res = fit("gumbel+gumbel:power", Dataset.from_array(uv), restarts=1)
    assert np.isfinite(res.loglik)
    assert res.cov.shape == (3, 3)
    assert np.isnan(res.stderr[0])
    hessian_warning = "no standard errors: the log-likelihood's Hessian"
    assert any(w.startswith(hessian_warning) for w in res.warnings)


@pytest.mark.parametrize("flip", [False, True], ids=["start+0.5", "start-0.5"])
def test_fit_frank_to_independent_data(flip):
    # alpha = 0 (z = 0) is outside frank's domain and scores -inf; a fit
    # whose optimum lies next to it must still end finite
    uv = np.random.default_rng(3).random((5000, 2))
    if flip:
        uv[:, 1] = 1.0 - uv[:, 1]
    data = Dataset.from_array(uv)
    assert abs(data.kendall_tau()) <= 0.06  # the start is +-0.5
    res = fit("frank", data, restarts=1)
    assert np.isfinite(res.loglik)
    assert abs(res.params[0]) < 0.5


def test_fit_counts_objective_failures_by_type(rng):
    uv = make_copula("gaussian", [0.5]).sample(500, rng)

    def make(params):
        if abs(np.arctanh(params[0])) > 0.7:
            raise EvaluationError(f"rho {params[0]:.3f} beyond reach")
        return make_copula("gaussian", params)

    # from z = 0.1 the first BFGS step has length about 1 in z
    res = fitting._fit("gaussian", (CORRELATION,), (0.1,), make, Dataset.from_array(uv), 1)
    failed = sum(np.isneginf(ll) for _, ll in res.trace)
    assert failed > 0 and np.isfinite(res.loglik)
    assert [w for w in res.warnings if "-inf" in w] == [
        f"{failed} evaluations scored -inf on EvaluationError, the first: "
        + next(f"rho {p[0]:.3f} beyond reach" for p, ll in res.trace if np.isneginf(ll))
    ]


def test_spent_budget_ends_at_the_best_traced_point(rng, monkeypatch):
    uv = build("gumbel", [2.0], "gaussian", [0.3], "power", 1.0).sample(60, rng)
    monkeypatch.setattr(fitting, "_MAX_EVALUATIONS", 30)
    res = fit("gumbel+gaussian:power", Dataset.from_array(uv), restarts=1)
    assert res.evaluations == 30 and not res.converged
    assert res.loglik == pytest.approx(max(ll for _, ll in res.trace), abs=1e-9)
    assert np.all(np.isnan(res.stderr))
    assert "no standard errors: the budget of 30 evaluations ran out" in res.warnings


def test_fit_mle_reproducible_trace(rng, monkeypatch):
    uv = build("gumbel", [2.0], "gaussian", [0.3], "power", 1.0).sample(80, rng)
    data = Dataset.from_array(uv)
    monkeypatch.setattr(fitting, "_MAX_EVALUATIONS", 40)
    r1 = fit("gumbel+gaussian:power", data, restarts=2)
    r2 = fit("gumbel+gaussian:power", data, restarts=2)
    assert r1.evaluations == r2.evaluations
    assert len(r1.trace) == len(r2.trace)
    for (p1, l1), (p2, l2) in zip(r1.trace, r2.trace):
        assert p1 == p2
        assert (l1 == l2) or (np.isneginf(l1) and np.isneginf(l2))


def test_fit_mle_initial_override_and_result_fields(rng, monkeypatch):
    uv = build("gumbel", [2.0], "gaussian", [0.3], "power", 1.0).sample(120, rng)
    data = Dataset.from_array(uv)
    monkeypatch.setattr(fitting, "_MAX_EVALUATIONS", 150)
    res = fit("gumbel+gaussian:power", data, (0.9, 1.8, 0.25), restarts=1)
    assert res.k == 3 and len(res.params) == res.k
    assert res.label == "gumbel+gaussian:power"
    assert res.aic == aic(res.loglik, 3)
    assert res.seconds > 0.0
    assert isinstance(res.model, BlendedModel)
    assert res.evaluations <= 150
    # collapse identity through the public objects
    assert_allclose(
        log_likelihood(res.model, data),
        res.loglik,
        atol=1e-9,
    )


def test_fit_mle_blend_recovery_smoke(monkeypatch):
    true = build("gumbel", [2.0], "clayton", [1.0], "power", 0.8)
    uv = true.sample(500, np.random.default_rng(123))
    monkeypatch.setattr(fitting, "_MAX_EVALUATIONS", 400)
    res = fit("gumbel+clayton:power", Dataset.from_array(uv), restarts=1)
    assert res.loglik >= log_likelihood(true, Dataset.from_array(uv)) - 1e-6
    assert abs(res.params[1] - 2.0) < 0.8
    assert abs(res.params[2] - 1.0) < 0.8
    assert 0.3 < res.params[0] < 2.5


def test_fit_mle_calls_log_likelihood_once_per_evaluation(rng, monkeypatch):
    # the benchmark times a blend fit split at each return of the module-level
    # log_likelihood, so the objective must look it up at call time, once
    # per evaluation, and the result's own log-likelihood must not call it
    uv = build("gumbel", [2.0], "gaussian", [0.3], "power", 1.0).sample(60, rng)
    calls = []
    inner = fitting.log_likelihood

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(fitting, "log_likelihood", counted)
    monkeypatch.setattr(fitting, "_MAX_EVALUATIONS", 30)
    res = fit("gumbel+gaussian:power", Dataset.from_array(uv), restarts=1)
    assert 0 < res.evaluations <= 30
    assert len(calls) == res.evaluations


@pytest.mark.parametrize(
    "spec", ["gumbel+gaussian:power", "gumbel"], ids=["fit_mle", "fit_single_copula"]
)
def test_a_fit_makes_one_model_per_evaluation(spec, rng, monkeypatch):
    # the result's model is the one the best evaluation made, not a second
    # build; every evaluation still scores its model through the
    # module-level log_likelihood, where the benchmark splits a fit's time
    uv = build("gumbel", [2.0], "gaussian", [0.3], "power", 1.0).sample(100, rng)
    data = Dataset.from_array(uv)
    made, scored = [], []

    blend = spec != "gumbel"

    class Counted(BlendedModel if blend else Gumbel):
        def __init__(self, *params):
            made.append(self)
            super().__init__(*params)

    inner = fitting.log_likelihood

    def counted(model, data):
        scored.append(model)
        return inner(model, data)

    monkeypatch.setattr(fitting, "log_likelihood", counted)
    if blend:
        monkeypatch.setattr(fitting, "BlendedModel", Counted)
        res = fit(spec, data, restarts=1)
    else:
        monkeypatch.setattr(fitting, "family_class", lambda tag: Counted)
        res = fit(spec, data)
    assert res.converged and len(made) == res.evaluations
    assert len(scored) == len(made) and all(s is m for s, m in zip(scored, made))
    assert res.model is made[int(np.argmax([ll for _, ll in res.trace]))]
    assert res.loglik == max(ll for _, ll in res.trace)


@pytest.mark.parametrize(
    "call",
    [
        lambda data: fit("nope+clayton:power", data, (1.0, 2.0, 1.0)),
        lambda data: fit("gumbel+nope:power", data),
        lambda data: fit("gumbel+clayton:powr", data),
        lambda data: fit("nope", data),
    ],
    ids=["tail-with-initial", "body", "weighting", "single"],
)
def test_unknown_tag_fails_before_the_first_evaluation(call, monkeypatch):
    monkeypatch.setattr(fitting, "log_likelihood", None)  # not to be called
    data = Dataset(np.array([0.2, 0.5, 0.9]), np.array([0.3, 0.6, 0.8]))
    with pytest.raises(ParameterError, match="valid tags"):
        call(data)


@pytest.mark.parametrize(
    "initial,message",
    [
        ((1.0, 2.0, 3.0, 1.0), r"gumbel\+clayton:power takes 3 parameter\(s\), got \(1.0, 2.0, 3.0"),
        ((1.0, 0.5, 1.0), "gumbel alpha must exceed 1, got 0.5"),
        ((0.0, 2.0, 1.0), "power theta must be positive, got 0.0"),
        ((1.0, 2.0), r"gumbel\+clayton:power takes 3 parameter\(s\), got \(1.0, 2.0\)"),
        (2.0, r"gumbel\+clayton:power takes 3 parameter\(s\), got 2.0"),
    ],
    ids=["tail-length", "tail-domain", "theta-domain", "short", "scalar"],
)
def test_bad_initial_fails_before_the_first_evaluation(initial, message, monkeypatch):
    monkeypatch.setattr(fitting, "log_likelihood", None)  # not to be called
    data = Dataset(np.array([0.2, 0.5, 0.9]), np.array([0.3, 0.6, 0.8]))
    with pytest.raises(ParameterError, match=message):
        fit("gumbel+clayton:power", data, initial)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda data: make_copula("gumbel", ["a"]), r"gumbel parameters must be numbers, got \('a',\)"),
        (lambda data: fit("gumbel", data, ("a",)), r"gumbel parameters must be numbers, got \('a',\)"),
        (
            lambda data: fit("gumbel+clayton:power", data, [1.0, (2.0,), 1.0]),
            r"gumbel\+clayton:power takes 3 parameter\(s\), got \[1.0, \(2.0,\), 1.0\]",
        ),
    ],
    ids=["make_copula", "fit", "ragged-start"],
)
def test_a_parameter_that_is_not_a_number_is_a_parameter_error(call, message, monkeypatch):
    # caught as the package's own error, not as a bare ValueError from
    # float() or from numpy's shape check
    monkeypatch.setattr(fitting, "log_likelihood", None)  # not to be called
    data = Dataset(np.array([0.2, 0.5, 0.9]), np.array([0.3, 0.6, 0.8]))
    with pytest.raises(BlendcopError, match=message) as caught:
        call(data)
    assert caught.type is ParameterError


@pytest.mark.parametrize(
    "call",
    [
        lambda data: fit("gaussian", data),
        lambda data: fit("gumbel+gaussian:power", data),
    ],
    ids=["single", "blend"],
)
def test_undefined_tau_fails_before_the_first_evaluation(call, monkeypatch):
    # a constant coordinate leaves Kendall's tau, and so the default start, undefined
    monkeypatch.setattr(fitting, "log_likelihood", None)  # not to be called
    data = Dataset(np.array([0.5, 0.5, 0.5]), np.array([0.3, 0.6, 0.8]))
    with pytest.raises(InputError, match="Kendall's tau of the data is nan"):
        call(data)


@pytest.mark.parametrize(
    "call",
    [
        lambda data: fit("gaussian", data, restarts=0),
        lambda data: fit("gumbel+gaussian:power", data, restarts=-1),
        lambda data: fit("gaussian", data, restarts=1.5),
        lambda data: fit("gumbel+gaussian:power", data, restarts=1.5),
    ],
    ids=["single", "blend", "single-1.5", "blend-1.5"],
)
def test_fewer_than_one_start_fails_before_the_first_evaluation(call, monkeypatch):
    monkeypatch.setattr(fitting, "log_likelihood", None)  # not to be called
    data = Dataset(np.array([0.2, 0.5, 0.9]), np.array([0.3, 0.6, 0.8]))
    with pytest.raises(InputError, match="at least one start"):
        call(data)


@pytest.mark.parametrize(
    "spec", ["gumbel+clayton", "gumbel:power", "gumbel+clayton+frank:power", "", 2.0]
)
def test_a_spec_that_does_not_parse_fails_before_the_first_evaluation(spec, monkeypatch):
    monkeypatch.setattr(fitting, "log_likelihood", None)  # not to be called
    data = Dataset(np.array([0.2, 0.5, 0.9]), np.array([0.3, 0.6, 0.8]))
    with pytest.raises(ParameterError, match="cannot parse model spec"):
        fit(spec, data, (1.0, 2.0, 1.0))


def test_the_adapters_are_fit(rng):
    # the benchmark calls fit_mle(FitSpec(...)) and fit_single_copula: the
    # same fits as ``fit``'s, bit for bit
    model = build("gumbel", [2.0], "clayton", [1.0], "power", 0.8)
    data = Dataset.from_array(model.sample(200, rng))
    spec = fitting.FitSpec("gumbel", "clayton", "power", initial=model.params, restarts=1)
    pairs = [
        (fitting.fit_mle(spec, data), fit("gumbel+clayton:power", data, model.params, 1)),
        (fitting.fit_single_copula("gumbel", data, 1), fit("gumbel", data, restarts=1)),
    ]
    for old, new in pairs:
        assert old.label == new.label and old.trace == new.trace and old.loglik == new.loglik
        assert old.cov.tobytes() == new.cov.tobytes() and old.params == new.params
    assert len(pairs[0][1].params) == pairs[0][1].k == 3


def test_fit_is_the_one_door():
    # every model is fitted through ``fit``: the adapters the benchmark
    # calls only forward to it, and no module keeps the former
    # (theta, tail, body) parameter record
    src = Path(fitting.__file__).parent
    tree = ast.parse((src / "fitting.py").read_text(encoding="utf-8"))
    offenders = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        calls = [n for n in ast.walk(node) if isinstance(n, ast.Call)]
        if node.name != "fit" and any(ast.unparse(c.func) == "_fit" for c in calls):
            offenders.append(f"{node.name} calls _fit")
        if node.name in ("fit_mle", "fit_single_copula"):
            body = node.body[1:] if ast.get_docstring(node) else node.body
            forwards = (
                len(body) == 1
                and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Call)
                and ast.unparse(body[0].value.func) == "fit"
            )
            if not forwards:
                offenders.append(f"{node.name} is not one return fit(...)")
    offenders += [
        f"ModelParams in {path.name}"
        for path in sorted(src.glob("*.py"))
        if "ModelParams" in path.read_text(encoding="utf-8")
    ]
    assert not offenders, offenders


START_TAUS = [-1.0, -0.9, -0.06, 0.0, 0.06, 0.5, 0.9, 1.0]


@pytest.mark.parametrize("cls", [*FAMILIES.values(), *WEIGHTINGS.values()], ids=lambda c: c.tag)
def test_every_default_start_lies_in_its_domains(cls):
    # a fit from the default start checks it nowhere else, so it must
    # construct at every tau, the ends included
    for tau in START_TAUS:
        params = cls.start(tau)
        assert cls(*params).params == params, tau


def test_the_gaussian_start_is_the_inverse_of_tau():
    for tau in START_TAUS:
        want = np.clip(np.sin(np.pi * tau / 2.0), -0.95, 0.95)
        assert Gaussian.start(tau) == (want,)
        assert StudentT.start(tau) == (want, 5.0)
    # off the clamp, tau = 2 arcsin(rho) / pi holds
    assert_allclose(2.0 * np.arcsin(Gaussian.start(0.37)[0]) / np.pi, 0.37, rtol=1e-15)


def test_fitting_names_no_family_or_weighting():
    # each class states its own start and domains, so no tag is spelled
    # in the module that fits them
    tree = ast.parse(Path(fitting.__file__).read_text(encoding="utf-8"))
    tags = set(FAMILIES) | set(WEIGHTINGS)
    named = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in tags
    ]
    assert not named, named
