import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import blendcop
from blendcop.blend import BlendedModel
from blendcop.dependence import (
    DEFAULT_R_GRID,
    R_MAX,
    chi_eta,
    dependence_curves,
    empirical_chi_eta,
    empirical_curves,
    kendall_tau,
)
from blendcop.errors import InputError, UndefinedMeasureError
from blendcop.families import make_copula, parse_copula
from blendcop.weighting import make_weighting, parse_weighting
from oracles import kendall_tau_concordance

# frozen closed-form limits (30-digit mpmath evaluation)
CHI_GUMBEL3 = 0.740078950105
TAU_GAUSS06 = 0.409665529398  # 2 asin(0.6)/pi; concordance oracle agrees to ~1e-3


def build(ttag, tp, btag, bp, wtag="power", theta=1.0):
    return BlendedModel(
        make_copula(ttag, tp), make_copula(btag, bp), make_weighting(wtag, theta)
    )


def test_single_copula_chi_eta_limits():
    gum = make_copula("gumbel", [3.0])
    chi, eta = chi_eta(gum, R_MAX)
    assert_allclose(chi, CHI_GUMBEL3, atol=1e-4)
    assert eta > 0.97
    gau = make_copula("gaussian", [0.6])
    chi, eta = chi_eta(gau, R_MAX)
    assert chi < 0.02
    assert_allclose(eta, 0.8, atol=0.04)
    frank = make_copula("frank", [2.0])
    chi, eta = chi_eta(frank, R_MAX)
    assert chi < 1e-6
    # eta(r) = 1/(2 + log(c)/log(1-r)) with c = alpha/(1-e^-alpha); the
    # slowly-varying correction still contributes ~0.012 at 1-r = 1.49e-8
    assert_allclose(eta, 0.5, atol=0.02)


@pytest.mark.parametrize("r", [0.0, -0.2, 1.0, R_MAX + 1e-12, float("nan")])
@pytest.mark.parametrize("blended", [False, True], ids=["copula", "blend"])
def test_chi_eta_rejects_levels_outside_its_range(r, blended):
    model = build("gumbel", [2.0], "clayton", [1.0]) if blended else make_copula("gumbel", [2.0])
    with pytest.raises(InputError, match="dependence level"):
        chi_eta(model, r)


def test_blended_identical_components_match_single():
    m = build("gaussian", [0.5], "gaussian", [0.5])
    single = make_copula("gaussian", [0.5])
    for r in (0.7, 0.9, 0.99):
        cm, em = chi_eta(m, r)
        cs, es = chi_eta(single, r)
        assert abs(cm - cs) < 2e-3
        assert abs(em - es) < 2e-3


def test_blended_curves_shape_and_monotone_levels():
    m = build("gumbel", [2.0], "gaussian", [0.6], "power", 1.5)
    chi_curve, eta_curve = dependence_curves(m, label="demo")
    assert chi_curve.measure == "chi" and eta_curve.measure == "eta"
    assert chi_curve.source == "blended"
    assert len(chi_curve.r) == len(DEFAULT_R_GRID)
    assert np.all(np.isfinite(chi_curve.values))
    assert np.all((eta_curve.values > 0) & (eta_curve.values <= 1.0 + 1e-9))


def test_blended_limits_tend_to_tail_copula():
    # gaussian(0.5) tail over gumbel(1.2) body: eta -> (1+rho)/2, chi -> 0
    m = build("gaussian", [0.5], "gumbel", [1.2], "power", 1.0)
    chi, eta = chi_eta(m, R_MAX)
    assert abs(chi - 0.0) < 0.05
    assert abs(eta - 0.75) < 0.05
    m2 = build("gaussian", [0.5], "gumbel", [1.2], "exp_complement", 1.0)
    chi2, eta2 = chi_eta(m2, R_MAX)
    assert abs(chi2) < 0.05 and abs(eta2 - 0.75) < 0.05


@pytest.mark.parametrize("wtag,slack", [("power", 5e-4), ("exp_complement", 0.0)])
def test_blended_theta_monotonicity_toward_body(wtag, slack):
    # Larger theta pulls the sub-asymptotic measures toward the body values.
    # For the power weighting the distance overshoots zero near theta~2 and
    # wiggles at the ~3e-4 scale (converged at 4x quadrature resolution), so
    # the ordering is asserted with that slack; exponential-complement is
    # strictly monotone.
    body = make_copula("gumbel", [1.2])
    chi_b, eta_b = chi_eta(body, 0.9)
    gaps_chi, gaps_eta = [], []
    for theta in (0.2, 1.0, 5.0, 15.0):
        m = build("gaussian", [0.5], "gumbel", [1.2], wtag, theta)
        c, e = chi_eta(m, 0.9)
        gaps_chi.append(abs(c - chi_b))
        gaps_eta.append(abs(e - eta_b))
    for gaps in (gaps_chi, gaps_eta):
        assert all(b <= a + slack for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < gaps[0]


def _tau_of_draws(uv):
    return kendall_tau_concordance(uv[:, 0], uv[:, 1])


def test_kendall_tau_monte_carlo_and_quadrature():
    gau = make_copula("gaussian", [0.6])
    tau_mc = _tau_of_draws(gau.sample(100_000, np.random.default_rng(3)))
    assert abs(tau_mc - TAU_GAUSS06) < 0.01
    tau_quad = kendall_tau(gau)
    assert abs(tau_quad - TAU_GAUSS06) < 2e-3
    # 2 asin(rho) / pi holds for every elliptical copula
    tau_t = kendall_tau(make_copula("student_t", [0.5, 4.0]))
    assert abs(tau_t - 1.0 / 3.0) < 2e-3
    gum = make_copula("gumbel", [2.0])
    assert abs(_tau_of_draws(gum.sample(100_000, np.random.default_rng(4))) - 0.5) < 0.01
    indep = make_copula("gaussian", [0.0])
    tau_indep = _tau_of_draws(indep.sample(100_000, np.random.default_rng(5)))
    assert abs(tau_indep) < 3.0 * 2.0 / (3.0 * np.sqrt(100_000.0))


# tau = 2 asin(rho) / pi (elliptical), 1 - 1/alpha (gumbel), alpha / (alpha + 2) (clayton)
CLOSED_FORM_TAU = {
    "gaussian(0.6)": TAU_GAUSS06,
    "student_t(0.5,4)": 1.0 / 3.0,
    "gumbel(2)": 0.5,
    "clayton(1)": 1.0 / 3.0,
    "gaussian(0)": 0.0,
}


@pytest.mark.parametrize("text", list(CLOSED_FORM_TAU))
def test_kendall_tau_matches_closed_form(text):
    assert abs(kendall_tau(parse_copula(text)) - CLOSED_FORM_TAU[text]) < 1e-4


@pytest.mark.parametrize("weighting", ["power(1)", "exp_complement(1)"])
@pytest.mark.parametrize("text", ["gumbel(2)", "clayton(1)", "gaussian(0.6)"])
def test_kendall_tau_of_a_blend_whose_tail_is_its_body(text, weighting):
    # tail = body makes cstar = c, with uniform margins: the blend's tau,
    # read through its cdf, is its family's. Measured 5.6e-6, 5.3e-6 and
    # 7.9e-6 below the closed form, as for the single copula
    cop = parse_copula(text)
    m = BlendedModel(cop, cop, parse_weighting(weighting))
    assert abs(kendall_tau(m) - CLOSED_FORM_TAU[text]) < 1e-4


def test_kendall_tau_against_concordance_oracle(rng):
    z = rng.standard_normal((1_000_000, 2))
    y = 0.6 * z[:, 0] + np.sqrt(1 - 0.36) * z[:, 1]
    oracle = kendall_tau_concordance(z[:, 0], y)
    assert abs(oracle - TAU_GAUSS06) < 2e-3
    gau = make_copula("gaussian", [0.6])
    tau_mc = _tau_of_draws(gau.sample(100_000, rng))
    assert abs(tau_mc - oracle) < 0.01
    assert abs(kendall_tau(gau) - oracle) < 0.01


def test_kendall_tau_blended_quadrature_vs_mc():
    m = build("gumbel", [2.0], "gaussian", [0.6], "power", 1.5)
    tau_mc = _tau_of_draws(m.sample(100_000, np.random.default_rng(8)))
    tau_quad = kendall_tau(m)
    assert abs(tau_mc - tau_quad) < 0.01


def test_empirical_chi_eta_comonotone():
    n = 5000
    u = (np.arange(n) + 1.0) / (n + 1.0)
    for r in (0.3, 0.7, 0.9):
        chi, eta = empirical_chi_eta(u, u, r)
        assert abs(chi - 1.0) < 2.0 / (n * (1.0 - r))
        assert_allclose(eta, 1.0, atol=0.02)


def test_empirical_chi_independent_uniforms(rng):
    n = 100_000
    u, v = rng.random(n), rng.random(n)
    chi, eta = empirical_chi_eta(u, v, 0.8)
    se = np.sqrt(0.04 * 0.96 / n) / 0.2
    assert abs(chi - 0.2) < 3.0 * se
    assert abs(eta - 0.5) < 0.02


def test_empirical_chi_matches_model_curve(rng):
    gum = make_copula("gumbel", [2.0])
    uv = gum.sample(100_000, rng)
    chi_hat, _ = empirical_chi_eta(uv[:, 0], uv[:, 1], 0.95)
    chi_model, _ = chi_eta(gum, 0.95)
    sf = gum.survival(0.95, 0.95)
    se = np.sqrt(sf * (1 - sf) / 100_000) / 0.05
    assert abs(chi_hat - chi_model) < 3.0 * se


def test_empirical_undefined_raises_with_count():
    u = np.array([0.1, 0.2, 0.3])
    with pytest.raises(UndefinedMeasureError, match="n=3"):
        empirical_chi_eta(u, u, 0.9)
    # every pair exceeds 0.05: eta = log(0.95) / log 1 is undefined, chi is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chi, eta = empirical_chi_eta(u, u, 0.05)
        chi_c, eta_c = empirical_curves(u, u, grid=np.array([0.05, 0.9]))
    assert np.isfinite(chi) and np.isnan(eta)
    assert np.isfinite(chi_c.values[0]) and np.isnan(chi_c.values[1])
    assert np.all(np.isnan(eta_c.values))


def test_chi_eta_where_the_survival_underflows_is_undefined():
    # gaussian(-0.99) puts far less than the smallest double above (R_MAX,
    # R_MAX), so its survival there is 0 and eta's log is not defined
    cop = parse_copula("gaussian(-0.99)")
    assert cop.survival(R_MAX, R_MAX) == 0.0
    with pytest.raises(UndefinedMeasureError, match="joint survival nonpositive at r=0.9999999851"):
        chi_eta(cop, R_MAX)


@pytest.mark.parametrize(
    "call",
    [
        lambda u, v: empirical_chi_eta(u, v, -0.5),  # read chi = 1.333
        lambda u, v: empirical_chi_eta(u, v, float("nan")),  # read "no joint exceedances"
        lambda u, v: empirical_curves(u, v, [-0.5, 1.5, float("nan")]),  # read [1.333, nan, nan]
    ],
    ids=["negative", "nan", "curves"],
)
def test_empirical_rejects_levels_outside_the_range_of_chi_eta(call):
    rng = np.random.default_rng(3)
    with pytest.raises(InputError, match="dependence level"):
        call(rng.random(1000), rng.random(1000))


def _bad_pseudo_observations(case):
    rng = np.random.default_rng(3)
    u, v = rng.random(1000), rng.random(1000)
    if case == "nan":
        u[:300] = np.nan  # chi(0.5) read 0.36 against 0.50 when NaN passed
    elif case == "out-of-range":
        v[7] = 1.5
    else:
        v = v[:-1]
    return u, v


@pytest.mark.parametrize("case", ["nan", "out-of-range", "unequal-lengths"])
def test_empirical_rejects_bad_pseudo_observations(case):
    u, v = _bad_pseudo_observations(case)
    with pytest.raises(InputError):
        empirical_chi_eta(u, v, 0.5)
    with pytest.raises(InputError):
        empirical_curves(u, v)


def test_blended_student_t_chi_eta_at_deepest_level():
    # the exact quantile root inside the outermost panel once bracketed
    # levels where 1 - d rounds to 1, where the student_t h-function is NaN
    m = build("student_t", [0.5, 4.0], "clayton", [1.0], "power", 1.0)
    chi, eta = chi_eta(m, R_MAX)
    assert np.isfinite(chi) and 0.0 < chi < 1.0
    assert np.isfinite(eta) and 0.0 < eta <= 1.0


@pytest.mark.parametrize(
    "text",
    [
        "gaussian(-0.9)",
        "student_t(-0.9,30)",
        "blend:gaussian(-0.9)",
        "blend:student_t(-0.9,30)",
        "blend:gaussian(-0.5)",
    ],
)
def test_negative_correlation_chi_eta_defined_at_every_level(text):
    # the joint survival of a negatively correlated elliptical copula is
    # tiny but positive; 1 - u - v + C or 1 - h would round it to 0. A
    # blend of the copula with itself is the copula, so its chi matches.
    blended = text.startswith("blend:")
    cop = parse_copula(text.removeprefix("blend:"))
    model = BlendedModel(cop, cop, make_weighting("power", 1.0)) if blended else cop
    for r in DEFAULT_R_GRID:
        chi, eta = chi_eta(model, r)
        assert np.isfinite(chi) and chi > 0.0, r
        assert np.isfinite(eta) and eta > 0.0, r
        if blended:
            assert_allclose(chi, chi_eta(cop, r)[0], rtol=1e-5, err_msg=str(r))


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_no_module_of_the_package_branches_on_the_blend_type():
    # a built blend answers as a copula, so no caller asks which it has
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(blendcop.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and "BlendedModel" in _names(node.args[1])
    ]
    assert not offenders, f"isinstance(..., BlendedModel) at {offenders}"


def test_only_families_holds_the_parametric_plumbing():
    # a copula family and a weighting share one base for repr, equality,
    # hash, registry lookup and spec parsing, so no other module has its own
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(blendcop.__file__).parent.glob("*.py"))
    }
    bases = {
        node.name: _names(ast.Tuple(elts=node.bases))
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    derived = {"Parametric"}
    while True:
        grown = derived | {name for name, names in bases.items() if names & derived}
        if grown == derived:
            break
        derived = grown
    assert {"Copula", "WeightingFunction", "PowerProduct", "ColesTawn"} <= derived
    offenders = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        if name != "families.py"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name in derived
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in {"__eq__", "__hash__", "__repr__"}
    ] + [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        if name != "families.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and any(
            isinstance(c, ast.Constant) and isinstance(c.value, str) and "valid tags" in c.value
            for c in ast.walk(node)
        )
    ]
    assert not offenders, f"parametric plumbing outside families.py at {offenders}"


def test_dependence_imports_neither_blend_nor_sampling():
    tree = ast.parse(Path(blendcop.__file__).with_name("dependence.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.add(base)
            imported |= {f"{base}.{alias.name}".lstrip(".") for alias in node.names}
    imported = {name.removeprefix("blendcop.") for name in imported}
    assert not imported & {"blend", "sampling"}, sorted(imported)
