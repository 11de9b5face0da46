import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from blendcop import blend
from blendcop.blend import _BUILD_ORDER, BlendedModel, _component_grid, _Margin
from blendcop.dependence import R_MAX, chi_eta
from blendcop.errors import EvaluationError, InputError
from blendcop.families import Copula, Frank, Galambos, Gumbel, HuslerReiss, make_copula
from blendcop.quadrature import UNIT_BREAKS, corner_refined, gauss_legendre
from blendcop.weighting import make_weighting
from oracles import gl_2d

# Frozen oracle values. K values come from the midpoint rule at 1024/2048
# with Richardson extrapolation in 1/n (plain refinement stalls at ~1e-4 on
# the corner ridge); margins from nested trapezoids on a corner-packed grid.
K_POW_ORACLE = 1.01126017  # gumbel(2) tail / gaussian(0.6) body / power(1.5)
F_HALF_ORACLE = 0.49195686  # F_U(0.5) of the same model
Q95_ORACLE = 0.95486492  # F_U^-1(0.95) of the same model
K_EXP_ORACLE = 0.99220406  # gumbel(2)/gaussian(0.6)/exp_complement(1.5)
F09_PDF_ORACLE = 1.01735395  # f_U(0.9) of the exp_complement model
GUMBEL2_CDF_HALF = 0.37521422724648177
# 1 - F^-1(1 - d) and F^-1(d) at d = 1.7e-4, 4.1e-6, 1.49e-8, printed by
# tests/oracle_deep_quantiles.py: closed-form component densities, the
# margin by nested adaptive scipy quad, each root by Newton steps on the
# mass within 1 - x of 1 or within x of 0; nothing is imported from blendcop.
DEEP_LEVELS = (1.7e-4, 4.1e-6, 1.49e-8)
DEEP_QUANTILE_ORACLE = {
    ("gumbel", 2.0, "gaussian", 0.5, 1.5): (1.573656700e-04, 3.961990725e-06, 1.486469525e-08),
    ("gumbel", 2.0, "clayton", 1.0, 0.8): (1.339619706e-04, 3.229671110e-06, 1.173694765e-08),
}
DEEP_LOWER_QUANTILE_ORACLE = {
    ("gumbel", 2.0, "gaussian", 0.5, 1.5): (1.734320624e-04, 4.182773302e-06, 1.520081029e-08),
    ("gumbel", 2.0, "clayton", 1.0, 0.8): (1.721604767e-04, 4.152370006e-06, 1.509035992e-08),
}

TABLE4_CASES = [
    ("gaussian(0.6) tail / frank(2) body", "gaussian", [0.6], "frank", [2.0]),
    ("gumbel(3) tail / frank(1) body", "gumbel", [3.0], "frank", [1.0]),
    ("gaussian(0.5) tail / gumbel(1.2) body", "gaussian", [0.5], "gumbel", [1.2]),
    ("husler_reiss(2) tail / gumbel(2) body", "husler_reiss", [2.0], "gumbel", [2.0]),
]


def build(tail, tparams, body, bparams, wtag="power", theta=1.5):
    return BlendedModel(
        make_copula(tail, tparams), make_copula(body, bparams), make_weighting(wtag, theta)
    )


@pytest.fixture(scope="module")
def power_model():
    return build("gumbel", [2.0], "gaussian", [0.6], "power", 1.5)


@pytest.fixture(scope="module")
def exp_model():
    return build("gumbel", [2.0], "gaussian", [0.6], "exp_complement", 1.5)


def test_constructed_model_answers_without_build():
    # no .build(): construction builds K and the margins
    m = BlendedModel(
        make_copula("gumbel", [2.0]), make_copula("gaussian", [0.6]), make_weighting("power", 1.5)
    )
    u, v = np.array([1e-7, 0.3, 0.9, 1.0 - 1e-7]), np.array([0.5, 0.8, 0.95, 0.999])
    answers = lambda: [m.logpdf(u, v), m.survival(u, v), m.copula_cdf(u, v), m.marginal_quantile(1, u)]
    before, constants = answers(), m.norm_constants
    assert_allclose(constants[0], K_POW_ORACLE, atol=1e-4)
    assert np.all(np.isfinite(before))
    # a second build recomputes the same tables
    m.build()
    assert m.norm_constants == constants
    assert_array_equal(answers(), before)


def test_outer_panel_root_solved_once_per_distinct_level(power_model, monkeypatch):
    levels = []
    solve = BlendedModel._quantile_exact
    monkeypatch.setattr(
        BlendedModel, "_quantile_exact", lambda m, axis, q: levels.append(q) or solve(m, axis, q)
    )
    # both axes share one margin, so chi/eta at the deepest level solves once
    chi_eta(power_model, R_MAX)
    assert levels == [R_MAX]
    levels.clear()
    q = np.tile([1e-9, 0.5, 1.0 - 1e-9], (50, 1))
    x = power_model.marginal_quantile(0, q)
    assert sorted(levels) == [1e-9, 1.0 - 1e-9]
    # the same numbers as one lookup per point
    lo, hi = solve(power_model, 0, 1e-9), solve(power_model, 0, 1.0 - 1e-9)
    assert np.all(x == [lo, power_model.marginal_quantile(0, 0.5), hi])
    assert power_model.survival(1e-9, 1.0 - 1e-9) == power_model.joint_upper_survival(lo, hi)


def test_norm_constants_against_oracle(power_model, exp_model):
    assert_allclose(power_model.norm_constants[0], K_POW_ORACLE, atol=1e-4)
    assert_allclose(exp_model.norm_constants[0], K_EXP_ORACLE, atol=1e-4)


def test_K_additivity(power_model):
    K, Kt, Kb = power_model.norm_constants
    assert abs(K - (Kt + Kb)) <= 1e-10 * K


def test_degenerate_weight_reduces_to_tail():
    m = build("gumbel", [2.0], "gaussian", [0.6], "power", 1e-12)
    K, Kt, Kb = m.norm_constants
    assert_allclose(Kt, 1.0, atol=1e-5)
    assert abs(Kb) < 1e-5
    tail = make_copula("gumbel", [2.0])
    grid = np.linspace(0.1, 0.9, 7)
    U, V = np.meshgrid(grid, grid, indexing="ij")
    # K spans the whole square and pi = (uv)^1e-12 is 1 up to ~1e-12 |log(uv)|,
    # so cstar matches the tail density well inside the 1e-5 slack
    assert_allclose(m.cstar_pdf(U, V), tail.pdf(U, V), rtol=1e-5)
    assert_allclose(m.pdf(U, V), tail.pdf(U, V), rtol=2e-4, atol=1e-4)
    assert_allclose(m.copula_cdf(0.5, 0.5), GUMBEL2_CDF_HALF, atol=1e-3)


def test_identical_components_collapse():
    m = build("gaussian", [0.6], "gaussian", [0.6], "power", 1.7)
    comp = make_copula("gaussian", [0.6])
    assert_allclose(m.norm_constants[0], 1.0, atol=1e-5)
    xs = np.linspace(0.05, 0.95, 19)
    assert_allclose(m.marginal_cdf(0, xs), xs, atol=1e-5)
    assert_allclose(m.marginal_pdf(1, xs), np.ones_like(xs), atol=1e-5)
    assert_allclose(m.marginal_quantile(0, 0.73), 0.73, atol=1e-5)
    U, V = np.meshgrid(xs[::3], xs[::3], indexing="ij")
    assert_allclose(m.pdf(U, V), comp.pdf(U, V), rtol=1e-4)
    assert_allclose(m.copula_cdf(0.3, 0.7), comp.cdf(0.3, 0.7), atol=1e-3)


def test_identical_independence_cdf_example():
    m = build("gaussian", [0.0], "gaussian", [0.0], "power", 1.5)
    assert_allclose(m.copula_cdf(0.3, 0.7), 0.21, atol=1e-3)


def test_cstar_density_formula(power_model):
    K = power_model.norm_constants[0]
    tail = make_copula("gumbel", [2.0])
    body = make_copula("gaussian", [0.6])
    w = make_weighting("power", 1.5)
    pt = (0.5, 0.5)
    pi = w(*pt)
    expected = (pi * tail.pdf(*pt) + (1 - pi) * body.pdf(*pt)) / K_POW_ORACLE
    assert_allclose(power_model.cstar_pdf(*pt), expected, rtol=2e-4)
    assert_allclose(K, K_POW_ORACLE, atol=1e-4)


def test_cstar_integrates_to_one(power_model, exp_model):
    for m in (power_model, exp_model):
        total = gl_2d(lambda u, v: m.cstar_pdf(u, v), n=256, eps=1e-7)
        assert_allclose(total, 1.0, atol=2e-3)


def test_marginal_cdf_against_oracle(power_model):
    assert_allclose(power_model.marginal_cdf(0, 0.5), F_HALF_ORACLE, atol=1e-4)
    assert power_model.marginal_cdf(0, 1e-6) < 1e-4
    assert power_model.marginal_cdf(0, 1.0 - 1e-6) > 1.0 - 1e-4
    xs = np.linspace(0.01, 0.99, 50)
    F = power_model.marginal_cdf(0, xs)
    assert np.all(np.diff(F) > 0)


def test_marginal_pdf_against_oracle(exp_model):
    assert_allclose(exp_model.marginal_pdf(0, 0.9), F09_PDF_ORACLE, atol=1e-4)
    xs = np.linspace(0.02, 0.98, 33)
    assert np.all(exp_model.marginal_pdf(0, xs) > 0.0)
    # trapezoid of the tabulated pdf reproduces the tabulated cdf
    ax = exp_model._axes[0]
    F_trap = np.concatenate([[0.0], np.cumsum(0.5 * (ax.pdf[1:] + ax.pdf[:-1]) * np.diff(ax.x))])
    assert np.max(np.abs(F_trap - ax.cdf)) < 1e-4


def test_marginal_quantile_against_oracle(power_model):
    assert_allclose(power_model.marginal_quantile(0, 0.95), Q95_ORACLE, atol=2e-4)
    qs = np.linspace(0.01, 0.99, 99)
    x = power_model.marginal_quantile(0, qs)
    back = power_model.marginal_cdf(0, x)
    assert np.max(np.abs(back - qs)) < 1e-4
    with pytest.raises(ValueError):
        power_model.marginal_quantile(0, 1.5)
    with pytest.raises(InputError, match="strictly inside"):
        power_model.marginal_quantile(0, np.nan)
    # a NaN level reaches the quantile through the copula interface too
    for method in (power_model.logpdf, power_model.survival):
        with pytest.raises(InputError, match="strictly inside"):
            method(np.nan, 0.5)


@pytest.mark.parametrize("axis", [0, 1])
def test_deep_quantile_of_a_student_t_blend(axis):
    # within 1e-13 of 1 the exact root's nodes would round to 1, where the
    # student_t conditional CDF is NaN; the density is flat there, so 1 - x
    # keeps the ratio to 1 - q it has at 1e-11, to the spacing of doubles
    m = build("student_t", [0.5, 4.0], "clayton", [1.0], "power", 1.0)
    ratio = (1.0 - m.marginal_quantile(axis, 1.0 - 1e-11)) / (1.0 - (1.0 - 1e-11))
    for d in (1e-13, 1e-14, 1e-15, 4.4e-16, 2.2e-16):
        q = 1.0 - d
        x = m.marginal_quantile(axis, q)
        assert x < 1.0
        assert abs((1.0 - x) - ratio * (1.0 - q)) <= 2.3e-16, d


def test_marginal_quantile_out_of_grid_fallback(power_model):
    # levels whose quantile lies in an outermost panel are exact roots
    lo, hi = power_model._axes[0].inner
    q = 0.5 * (hi + 1.0)
    x = power_model.marginal_quantile(0, q)
    assert UNIT_BREAKS[-2] <= x < 1.0
    assert_allclose(power_model._end_mass(0, 1.0 - x, True), 1.0 - q, rtol=1e-8)
    q = 0.5 * lo
    x = power_model.marginal_quantile(0, q)
    assert 0.0 < x <= UNIT_BREAKS[1]
    assert_allclose(power_model._end_mass(0, x, False), q, rtol=1e-8)


def test_marginal_cdf_resolves_corner_mass():
    # the clayton body's conditional density at u ~ 1e-4 concentrates
    # within ~u of v = 0; margins and K must still cover the whole square
    m = build("gumbel", [2.0], "clayton", [1.0], "power", 0.8)
    for axis in (0, 1):
        for x in (1e-4, 0.05, 0.5, 0.95):
            assert abs(m.marginal_cdf(axis, x) - m._end_mass(axis, x, False)) <= 3e-6
        # the table spans [0, 1], so the mass next to either end is counted
        ax = m._axes[axis]
        assert ax.x[0] == 0.0 and ax.cdf[0] == 0.0 and ax.cdf[1] > 0.0
        assert ax.x[-1] == 1.0 and ax.sf[-1] == 0.0 and ax.sf[-2] > 0.0


@pytest.mark.parametrize("case", sorted(DEEP_QUANTILE_ORACLE))
def test_deep_tail_quantile_against_oracle(case):
    tt, tp, bt, bp, theta = case
    m = build(tt, [tp], bt, [bp], "power", theta)
    for axis in (0, 1):
        got = [1.0 - m.marginal_quantile(axis, 1.0 - d) for d in DEEP_LEVELS]
        assert_allclose(got, DEEP_QUANTILE_ORACLE[case], rtol=1e-5)
        got = [m.marginal_quantile(axis, d) for d in DEEP_LEVELS]
        assert_allclose(got, DEEP_LOWER_QUANTILE_ORACLE[case], rtol=1e-5)


def test_exact_integrals_match_cache(power_model):
    for x in (0.2, 0.5, 0.9):
        assert_allclose(
            power_model._end_mass(0, x, False), power_model.marginal_cdf(0, x), atol=1e-4
        )
        assert_allclose(
            power_model._end_mass(0, 1.0 - x, True),
            1.0 - power_model.marginal_cdf(0, x),
            atol=1e-4,
        )


def test_copula_pdf_normalises(power_model):
    total = gl_2d(lambda u, v: power_model.pdf(u, v), n=128, eps=1e-6)
    assert_allclose(total, 1.0, atol=2e-3)


def test_copula_uniform_margins(power_model):
    x, w = gauss_legendre(64, 1e-6, 1.0 - 1e-6)
    for u in np.linspace(0.01, 0.99, 99):
        row = power_model.pdf(np.full_like(x, u), x) @ w
        assert abs(row - 1.0) < 5e-3, f"margin at u={u}: {row}"
    for v in np.linspace(0.05, 0.95, 10):
        col = power_model.pdf(x, np.full_like(x, v)) @ w
        assert abs(col - 1.0) < 5e-3


def test_copula_cdf_frechet_and_monotone(power_model):
    grid = np.linspace(0.1, 0.9, 5)
    U, V = np.meshgrid(grid, grid, indexing="ij")
    C = power_model.copula_cdf(U, V)
    assert np.all(C <= np.minimum(U, V) + 1e-6)
    assert np.all(C >= np.maximum(U + V - 1, 0.0) - 1e-6)
    assert np.all(np.diff(C, axis=0) > -1e-9)
    assert np.all(np.diff(C, axis=1) > -1e-9)


def test_joint_upper_survival_matches_brute_force(power_model):
    for r in (0.7, 0.9, 0.99):
        x = power_model.marginal_quantile(0, r)
        xs, xw = corner_refined(16, x, 1.0 - 1e-12)
        vals = power_model.cstar_pdf(xs[:, None], xs[None, :])
        brute = float(xw @ vals @ xw)
        got = power_model.joint_upper_survival(x, x)
        assert_allclose(got, brute, rtol=5e-4)


@pytest.mark.parametrize("label,tt,tp,bt,bp", TABLE4_CASES)
@pytest.mark.parametrize("wtag", ["power", "exp_complement"])
def test_grid_refinement_stability(label, tt, tp, bt, bp, wtag, monkeypatch):
    coarse = build(tt, tp, bt, bp, wtag, 1.0)
    monkeypatch.setattr(blend, "_BUILD_ORDER", 2 * _BUILD_ORDER)
    fine = build(tt, tp, bt, bp, wtag, 1.0)
    assert abs(coarse.norm_constants[0] - fine.norm_constants[0]) < 1e-5
    grid = np.linspace(0.15, 0.85, 5)
    U, V = np.meshgrid(grid, grid, indexing="ij")
    c0 = coarse.pdf(U, V)
    c1 = fine.pdf(U, V)
    assert np.max(np.abs(c0 / c1 - 1.0)) < 1e-3


def test_save_load_round_trip(tmp_path, power_model):
    path = tmp_path / "model.txt"
    power_model.save(path)
    again = BlendedModel.load(path)
    assert again.tail == power_model.tail
    assert again.body == power_model.body
    assert again.weighting == power_model.weighting
    assert "nodes" not in path.read_text()
    pts = (np.array([0.3, 0.7]), np.array([0.6, 0.8]))
    assert_allclose(again.pdf(*pts), power_model.pdf(*pts), rtol=1e-12)


@pytest.mark.parametrize(
    "line", ["grid_size = 200", "eps = 1e-6", "nodes = 128"], ids=["grid_size", "eps", "nodes"]
)
def test_load_rejects_resolution_keys(tmp_path, power_model, line):
    # the rules' orders are constants, so a resolution setting would be ignored
    path = tmp_path / "old.txt"
    power_model.save(path)
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(InputError, match=f"line 5: cannot parse {line!r}"):
        BlendedModel.load(path)


@pytest.mark.parametrize(
    "text",
    [
        "tail = gumbel(2)\nbody = gaussian(0.6)\n",
        "tail = gumbel(2)\nbody = gaussian(0.6)\nweighting = power(many)\n",
        "tail = gumbel(2)\nbody = gaussian(2)\nweighting = power(1.5)\n",
        "tail = gumbel(2)\nbody = gaussian(0.6)\nweighting = power(1.5)\nsize 3\n",
        "tail = gumbel(2)\nbody = gaussian(0.6)\nweighting = power(1.5)\ncolour = red\n",
        "tail = gumbel(nan)\nbody = gaussian(0.6)\nweighting = power(1.5)\n",
    ],
)
def test_load_rejects_malformed_file(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InputError):
        BlendedModel.load(path)


def test_copula_cdf_batch_matches_single_points(power_model):
    u = np.array([1e-7, 0.2, 0.5, 0.97, 1.0 - 1e-7])
    v = np.array([0.3, 5e-7, 0.5, 0.99, 0.999])
    batch = power_model.copula_cdf(u, v)
    assert np.all(np.maximum(u + v - 1.0, 0.0) <= batch) and np.all(batch <= np.minimum(u, v))
    for i in range(u.size):
        assert power_model.copula_cdf(u[i], v[i]) == batch[i]


@pytest.mark.parametrize(
    "tail,tp,body,bp,theta",
    [("gumbel", [2.0], "gaussian", [0.6], 1.5), ("student_t", [0.5, 4.0], "clayton", [1.0], 1.0)],
)
def test_copula_cdf_uniform_margins(tail, tp, body, bp, theta):
    # C(u, 1) = u and C(1, v) = v with no mass missing near either end;
    # at 1 the quantile lies within 1e-10 of 1, where the rule's nodes
    # would round to 1 and the student_t h-function is NaN
    m = build(tail, tp, body, bp, "power", theta)
    q = np.array([1e-9, 1e-6, 0.005, 0.3, 0.5, 0.8, 0.995, 1.0 - 1e-6, 1.0 - 1e-9])
    one = np.ones_like(q)
    assert np.max(np.abs(m.copula_cdf(q, one) - q)) <= 1e-8
    assert np.max(np.abs(m.copula_cdf(one, q) - q)) <= 1e-8


# every exchangeable family of the zoo (coles_tawn only with alpha = beta);
# each is the tail of one blend and the body of the next
EXCHANGEABLE = [
    ("gaussian", [0.6]),
    ("student_t", [0.5, 4.0]),
    ("frank", [-3.0]),
    ("clayton", [1.0]),
    ("joe", [2.0]),
    ("gumbel", [2.0]),
    ("inverted_gumbel", [2.0]),
    ("husler_reiss", [2.0]),
    ("galambos", [1.5]),
    ("coles_tawn", [1.3, 1.3]),
]


@pytest.mark.parametrize("wtag", ["power", "exp_complement"])
@pytest.mark.parametrize("i", range(len(EXCHANGEABLE)), ids=[t for t, _ in EXCHANGEABLE])
def test_exchangeable_blend_shares_its_margin(i, wtag):
    (tt, tp), (bt, bp) = EXCHANGEABLE[i], EXCHANGEABLE[(i + 1) % len(EXCHANGEABLE)]
    m = build(tt, tp, bt, bp, wtag, 1.2)
    shared, other = m._axes
    assert shared is other
    # the axis-1 margin as the second pass would compute it
    x, _ = corner_refined(_BUILD_ORDER)
    e_t, e_b = m._pi_expectations(1, x)
    axis1 = _Margin((1.0 + e_t - e_b) / m.norm_constants[0])
    for name in ("pdf", "cdf", "sf", "level"):
        assert_allclose(getattr(shared, name), getattr(axis1, name), rtol=1e-12, err_msg=name)


def test_asymmetric_blend_builds_two_margins():
    m = build("coles_tawn", [0.5, 0.8], "gaussian", [0.6], "power", 1.5)
    assert not m.tail.exchangeable and m.body.exchangeable
    ax0, ax1 = m._axes
    assert ax0 is not ax1
    K = m.norm_constants[0]
    for y in (0.05, 0.5, 0.95):
        # f_V(y) = int_0^1 cstar(u, y) du from the component densities
        integrand = lambda u: (
            m.weighting(u, y) * m.tail.pdf(u, y) + (1.0 - m.weighting(u, y)) * m.body.pdf(u, y)
        ) / K
        direct, _ = quad(integrand, 0.0, 1.0, points=(y,), epsabs=0.0, epsrel=1e-10, limit=200)
        assert_allclose(m.marginal_pdf(1, y), direct, rtol=1e-6)
        # axis 0 differs by over 100 times that, so sharing would be wrong
        assert abs(m.marginal_pdf(0, y) / direct - 1.0) > 1e-4


# ----------------------------------------------------------------------
# the component grids that ``build`` reads from ``_component_grid``
# ----------------------------------------------------------------------
def _count_h(monkeypatch, *classes):
    """Record the tag of every ``_h`` call of these families."""
    calls = []
    for cls in classes:
        def counted(self, u, v, inner=cls._h):
            calls.append(self.tag)
            return inner(self, u, v)

        monkeypatch.setattr(cls, "_h", counted)
    return calls


@pytest.mark.parametrize(
    "step,wtag,recomputed",
    [
        ("tail", "power", ["gumbel"]),
        ("body", "power", ["frank"]),
        ("theta", "power", ["gumbel", "frank"]),
        ("theta", "exp_complement", []),
    ],
)
def test_a_step_recomputes_only_the_grids_it_changed(step, wtag, recomputed, monkeypatch):
    calls = _count_h(monkeypatch, Gumbel, Frank)
    params = {"tail": 2.0 + 1e-7, "body": 1.25 + 1e-7, "theta": 0.9 + 1e-7}
    parts = lambda p: (Gumbel(p["tail"]), Frank(p["body"]), make_weighting(wtag, p["theta"]))
    BlendedModel(*parts(params))
    calls.clear()
    BlendedModel(*parts({**params, step: params[step] + 1e-3}))
    assert calls == recomputed


def test_a_cached_build_matches_a_cold_build_byte_for_byte():
    # coles_tawn(0.5, 0.8) is not exchangeable, so both axes have grids
    parts = (make_copula("coles_tawn", [0.5, 0.8]), make_copula("gaussian", [0.6]),
             make_weighting("power", 1.5))
    blend._grids.clear()
    cold = BlendedModel(*parts)
    grids = list(blend._grids.values())
    warm = BlendedModel(*parts)
    assert len(grids) == 4 and all(a is b for a, b in zip(grids, blend._grids.values()))
    assert repr(cold.norm_constants) == repr(warm.norm_constants)
    x, _ = corner_refined(_BUILD_ORDER)
    for axis in (0, 1):
        # the uncached path gives the same node values
        e_t, e_b = cold._pi_expectations(axis, x)
        plain = _Margin((1.0 + e_t - e_b) / cold.K)
        for name in ("x", "pdf", "cdf", "sf", "level"):
            got = [getattr(m._axes[axis], name).tobytes() for m in (cold, warm)]
            assert got == [getattr(plain, name).tobytes()] * 2, (axis, name)


def test_grids_are_keyed_by_family_and_axis_and_read_only():
    v = make_weighting("exp_complement", 1.0).v_nodes
    t = corner_refined(_BUILD_ORDER)[0][:, None]
    hr, ga = HuslerReiss(2.0), Galambos(2.0)
    ct = make_copula("coles_tawn", [0.5, 0.8])
    grids = [
        _component_grid("tail", hr, 0, t, v[None, :]),
        _component_grid("tail", ga, 0, t, v[None, :]),
        _component_grid("tail", ct, 0, t, v[None, :]),
        _component_grid("tail", ct, 1, t, v[None, :]),
    ]
    with np.errstate(divide="ignore", over="ignore"):
        direct = [hr._h(t, v[None, :]), ga._h(t, v[None, :]), ct._h(t, v[None, :]),
                  ct._h2(v[None, :], t)]
    for grid, want in zip(grids, direct):
        assert_array_equal(grid, want)
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 0.5
    # equal parameters, different families; one family, different axes
    assert not np.array_equal(grids[0], grids[1])
    assert not np.array_equal(grids[2], grids[3])


class _NaNNearOne(Copula):
    """Independence, with a conditional CDF that is NaN within ``gap`` of u = 1."""

    tag = "nan_near_one"
    gap = 1e-6

    def _logpdf(self, u, v):
        return np.zeros(np.broadcast(u, v).shape)

    def _h(self, u, v):
        return np.where(u > 1.0 - self.gap, np.nan, v + 0.0 * u)


class _NaNVeryNearOne(_NaNNearOne):
    tag = "nan_very_near_one"
    gap = 1e-12


def test_a_nonfinite_grid_names_its_component():
    named = r"conditional CDF of the body nan_near_one\(\) on axis 0 at \(t=0\.9999"
    with pytest.raises(EvaluationError, match=named):
        BlendedModel(make_copula("frank", [1.0]), _NaNNearOne(), make_weighting("power", 1.0))


def test_a_nonfinite_grid_in_the_outermost_panel_names_its_component():
    # the build's nodes stay about 5e-9 from 1, so the blend builds; the
    # exact root within 1e-11 of 1 meets the NaN
    m = BlendedModel(_NaNVeryNearOne(), make_copula("frank", [1.0]), make_weighting("power", 1.0))
    assert np.isfinite(m.K)
    named = r"conditional CDF of the tail nan_very_near_one\(\) on axis 0 at \(t=1,"
    with pytest.raises(EvaluationError, match=named):
        m.marginal_quantile(0, 1.0 - 1e-11)


@pytest.mark.parametrize("alpha", [45.0, 100.0])
def test_a_steep_gumbel_tail_builds(alpha):
    # x^alpha + y^alpha underflows on the build grid beyond alpha of about 40
    m = BlendedModel(Gumbel(alpha), Gumbel(1.5), make_weighting("power", 1.0))
    assert np.isfinite(m.K)
    gentle = BlendedModel(Gumbel(39.0), Gumbel(1.5), make_weighting("power", 1.0))
    assert abs(m.K - gentle.K) < 1e-3
