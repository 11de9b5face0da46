import ast
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from blendcop import blend, weighting
from blendcop.blend import _BUILD_ORDER, BlendedModel, _component_grid, _Margin
from blendcop.dependence import DEFAULT_R_GRID, R_MAX, chi_eta
from blendcop.errors import EvaluationError, InputError
from blendcop.families import (
    Clayton,
    Copula,
    Frank,
    Galambos,
    Gaussian,
    Gumbel,
    HuslerReiss,
    StudentT,
    make_copula,
    parse_copula,
)
from blendcop.quadrature import (
    BELOW_ONE,
    UNIT_BREAKS,
    corner_refined,
    gauss_legendre,
    to_panel_end,
)
from blendcop.weighting import make_weighting, parse_weighting
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
# chi and eta at r = 1 - d (a double) for d in DEEP_LEVELS, printed by the
# same script: the joint survival at its own quantiles by nested quad of
# the closed-form blended density in distances to 1 (about 18 s; its
# loose-vs-tight differences are at most 8.7e-7 relative).
DEEP_CHI_ETA_ORACLE = {
    ("gumbel", 2.0, "gaussian", 0.5, 1.5): (
        (5.314669856e-01, 9.321170545e-01),
        (5.548649194e-01, 9.546674778e-01),
        (5.728337253e-01, 9.700114185e-01),
    ),
    ("gumbel", 2.0, "clayton", 1.0, 0.8): (
        (4.557750736e-01, 9.169871101e-01),
        (4.556173163e-01, 9.404044916e-01),
        (4.556117036e-01, 9.582032345e-01),
    ),
}

TABLE4_CASES = [
    ("gaussian(0.6) tail / frank(2) body", "gaussian", [0.6], "frank", [2.0]),
    ("gumbel(3) tail / frank(1) body", "gumbel", [3.0], "frank", [1.0]),
    ("gaussian(0.5) tail / gumbel(1.2) body", "gaussian", [0.5], "gumbel", [1.2]),
    ("husler_reiss(2) tail / gumbel(2) body", "husler_reiss", [2.0], "gumbel", [2.0]),
]


def end_mass(model, axis, d, top):
    """The exact marginal mass within d of 1 (``top``) or of 0."""
    log_mass, _ = model._axis_model(axis)._end_mass(np.log(d), top)
    return np.exp(log_mass)


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
        BlendedModel, "_quantile_exact", lambda m, q: levels.append(q) or solve(m, q)
    )
    # both axes share one margin, so chi/eta at the deepest level solves once
    chi_eta(power_model, R_MAX)
    assert levels == [R_MAX]
    levels.clear()
    q = np.tile([1e-9, 0.5, 1.0 - 1e-9], (50, 1))
    x = power_model.marginal_quantile(0, q)
    assert sorted(levels) == [1e-9, 1.0 - 1e-9]
    # the same numbers as one lookup per point
    lo, hi = solve(power_model, 1e-9), solve(power_model, 1.0 - 1e-9)
    assert np.all(x == [lo, power_model.marginal_quantile(0, 0.5), hi])
    assert power_model.survival(1e-9, 1.0 - 1e-9) == power_model.joint_upper_survival(lo, hi)


@pytest.mark.parametrize(
    "triple",
    [("gumbel", [2.0], "clayton", [1.0], 0.8), ("coles_tawn", [0.5, 0.8], "gaussian", [0.5], 1.5)],
    ids=["shared-margin", "coles_tawn"],
)
def test_outer_panel_root_solved_once_per_axis_and_level(triple, monkeypatch):
    # logpdf and survival look their levels up through one pair routine:
    # a level solves its root once per axis, or once for both where the
    # axes share one margin, and the values are those of the points one
    # at a time
    tail, tp, body, bp, theta = triple
    m = build(tail, tp, body, bp, "power", theta)
    shared = m._transpose is None
    solved = []
    solve = BlendedModel._quantile_exact
    monkeypatch.setattr(
        BlendedModel, "_quantile_exact",
        lambda m, q: solved.append((m._axis, q)) or solve(m, q),
    )
    deep = (1e-9, 1.0 - 1e-9)
    u = np.tile([1e-9, 0.5, 1.0 - 1e-9], 20)
    v = np.roll(u, 1)
    # and a lattice whose points lie on both sides of 1/2 on each axis, so
    # that survival's two rules, and their batches, mix
    levels = [1e-9, 0.3, 0.5, 0.7, 1.0 - 1e-9]
    lattice = np.meshgrid(levels, levels, indexing="ij")
    u, v = np.concatenate([u, lattice[0].ravel()]), np.concatenate([v, lattice[1].ravel()])
    want = sorted((axis, q) for axis in ((0,) if shared else (0, 1)) for q in deep)
    for answer in (m.logpdf, m.survival):
        solved.clear()
        got = answer(u, v)
        assert sorted(solved) == want, answer.__name__
        apart = [answer(a, b) for a, b in zip(u, v)]
        assert repr(got.tolist()) == repr([float(a) for a in apart]), answer.__name__
    x, y, _, _ = m._pair(u, v)
    assert x.min() < 0.5 < x.max() and y.min() < 0.5 < y.max()
    for spec in ("gaussian(0.5)", "student_t(0.5,4)"):
        c = parse_copula(spec)
        apart = [c.survival(a, b) for a, b in zip(u, v)]
        assert repr(c.survival(u, v).tolist()) == repr([float(a) for a in apart]), spec


def test_norm_constants_against_oracle(power_model, exp_model):
    assert_allclose(power_model.norm_constants[0], K_POW_ORACLE, atol=1e-4)
    assert_allclose(exp_model.norm_constants[0], K_EXP_ORACLE, atol=1e-4)


@pytest.mark.parametrize(
    "triple",
    [("gumbel", [2.0], "clayton", [1.0], 0.8), ("coles_tawn", [0.5, 0.8], "gaussian", [0.5], 1.5)],
    ids=["shared-margin", "coles_tawn"],
)
def test_a_reused_data_order_cannot_go_stale(triple):
    # logpdf reuses the sort order of levels it has seen; nothing it
    # reuses may outlive the data: the same arrays, edited in place and
    # then permuted, give the values of their points taken one at a time.
    # Two levels lie in the outermost panels, where the quantile is a
    # root. The point-by-point calls come last, so they evict nothing.
    # The order kept last is that of the levels just evaluated; under
    # coles_tawn the edit of v[9] changes none of the bytes that the key
    # of v's levels hashes.
    tail, tp, body, bp, theta = triple
    m = build(tail, tp, body, bp, "power", theta)
    shared = m._transpose is None
    assert shared == (tail == "gumbel")

    def logpdf(u, v):
        out = m.logpdf(u, v)
        levels = np.concatenate([u, v]) if shared else v
        assert np.array_equal(blend._orders.values()[-1], np.argsort(levels))
        return out

    rng = np.random.default_rng(3)
    u, v = rng.random(150), rng.random(150)
    u[0], v[1] = 1e-7, 1.0 - 1e-7
    seen = [(u.copy(), v.copy(), logpdf(u, v), logpdf(u, v))]
    u[5], v[9] = 0.999, 0.002
    seen.append((u.copy(), v.copy(), logpdf(u, v)))
    order = rng.permutation(u.size)
    u[:], v[:] = u[order], v[order]
    seen.append((u.copy(), v.copy(), logpdf(u, v)))
    assert np.array_equal(seen[0][2], seen[0][3])
    assert np.array_equal(seen[2][2], seen[1][2][order])
    for uu, vv, got, *_ in seen:
        assert np.array_equal(got, [m.logpdf(a, b) for a, b in zip(uu, vv)])


def searched(model, axis, q):
    """(x, log f) at sorted levels q, each searched among the inner knots
    of the quantile table and every coefficient gathered at its interval;
    the outermost panels' levels take the root, and f there a search."""
    model = model._axis_model(axis)
    m = model._margin
    i = np.searchsorted(m.quantile_at.inner, q, side="right")

    def gathered(cubic, t):
        dt = t - cubic.left[i]
        return cubic.c0[i] + dt * (cubic.c1[i] + dt * (cubic.c2[i] + dt * cubic.c3[i]))

    x = gathered(m.quantile_at, q)
    f = gathered(m.pdf_at, x)
    outer = (q < m.inner[0]) | (q > m.inner[1])
    x[outer] = [model._quantile_exact(float(p)) for p in q[outer]]
    f[outer] = m.pdf_at(x[outer])
    return x, np.log(f)


def sorted_levels(case, knots, n):
    """n sorted levels of kind ``case`` for a table of ``knots``."""
    inner = knots[1:-1]
    if case == "knots":
        return np.sort(np.resize(inner, n))
    if case == "repeated":
        return np.full(n, inner[100])
    if case == "one-interval":
        return np.linspace(inner[100], inner[101], n + 2)[1:-1]
    if case == "ends":
        # below the first and above the last inner knot: the root's levels
        return np.sort(np.resize([1e-9, 0.5 * inner[0], 1.0 - 1e-9, 0.5 * (1.0 + inner[-1])], n))
    return np.sort(np.random.default_rng(n).random(n))


@pytest.mark.parametrize("case", ["knots", "repeated", "one-interval", "ends", "random", "empty"])
def test_the_walk_and_the_search_give_the_same_intervals(case):
    # _lookup searches each level among the knots up to _WALK_PER_KNOT
    # levels per knot and walks the knots through the levels beyond it;
    # either way it gives the values of one search per level. Sizes lie
    # on both sides of the knot count and of the switch
    m = build("gumbel", [2.0], "clayton", [1.0], "power", 0.8)
    knots = m._margin.level
    switch = blend._WALK_PER_KNOT * knots.size
    for n in (0,) if case == "empty" else (knots.size - 1, knots.size + 1, switch, switch + 1):
        q = sorted_levels(case, knots, n)
        assert q.size == n and np.all(q[1:] >= q[:-1])
        got, want = m._lookup(q), searched(m, 0, q)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), (case, n)


@pytest.mark.parametrize(
    "triple",
    [("gumbel", [2.0], "clayton", [1.0], 0.8), ("coles_tawn", [0.5, 0.8], "gaussian", [0.5], 1.5)],
    ids=["shared-margin", "coles_tawn"],
)
def test_a_walked_logpdf_is_that_of_its_points_one_at_a_time(triple):
    # 4000 points walk the knots on each axis, one point searches them
    tail, tp, body, bp, theta = triple
    m = build(tail, tp, body, bp, "power", theta)
    u, v = np.random.default_rng(5).random((2, 4000))
    assert u.size > blend._WALK_PER_KNOT * m._axis_model(1)._margin.level.size
    got = m.logpdf(u, v)
    assert repr(got.tolist()) == repr([float(m.logpdf(a, b)) for a, b in zip(u, v)])


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
    ax = exp_model._margin
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
    # a NaN point is rejected before it reaches the quantile
    for method in (power_model.logpdf, power_model.survival):
        with pytest.raises(InputError, match=r"must lie in \[0, 1\].*the first nan"):
            method(np.nan, 0.5)


def test_public_methods_reject_points_outside_the_unit_interval(power_model):
    # NaN and values outside [0, 1] are not clipped; 0 and 1 still clamp
    m = power_model
    two = ("cstar_pdf", "pdf", "logpdf", "survival", "copula_cdf", "joint_upper_survival")
    methods = [(name, getattr(m, name)) for name in two] + [
        (f"{name}[{axis}]", lambda x, f=getattr(m, name), a=axis: f(a, x))
        for name in ("marginal_pdf", "marginal_cdf")
        for axis in (0, 1)
    ]
    ends = (np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0]))
    for name, method in methods:
        for bad in (np.nan, -0.1, 1.1):
            cases = ((bad, 0.5), (0.5, bad), ([0.5, bad], [0.5, 0.5]))
            for args in cases if name in two else ((bad,), ([0.5, bad],)):
                with pytest.raises(InputError, match=rf"must lie in \[0, 1\].* the first {bad!r}"):
                    method(*args)
        assert not np.any(np.isnan(method(*ends[: 2 if name in two else 1]))), name
    for bad in (np.nan, -0.1, 1.1, 0.0, 1.0):
        with pytest.raises(InputError, match="strictly inside"):
            m.marginal_quantile(0, bad)


@pytest.mark.parametrize("axis", [-1, 2, 0.5, 1.0, "1", None])
def test_marginal_methods_reject_an_axis_other_than_0_or_1(power_model, axis):
    # -1 answered axis 1, 2 raised IndexError and 0.5 TypeError
    for name in ("marginal_pdf", "marginal_cdf", "marginal_quantile"):
        with pytest.raises(InputError, match=rf"axis must be 0 or 1, got {re.escape(repr(axis))}"):
            getattr(power_model, name)(axis, 0.5)
    # a numpy integer is an integer
    assert power_model.marginal_cdf(np.int64(1), 0.3) == power_model.marginal_cdf(1, 0.3)


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


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize(
    "triple",
    [
        ("gumbel", [2.0], "clayton", [1.0], "power", 0.8),
        ("student_t", [0.5, 4.0], "clayton", [1.0], "power", 1.0),
        ("student_t", [0.5, 5.0], "clayton", [1.0], "power", 1.0),
    ],
    ids=["gumbel-clayton", "student_t-clayton", "student_t5-clayton"],
)
def test_subnormal_lower_levels(triple, axis):
    # the density is flat near 0, so x keeps its ratio to q at 1e-300 into
    # the subnormal range; the root's nodes below the smallest normal
    # double are raised to it, where a component's h is finite (at nu = 5,
    # only through the t quantile's lower-tail form below 1.2e-270)
    tt, tp, bt, bp, wtag, theta = triple
    m = build(tt, tp, bt, bp, wtag, theta)
    ratio = m.marginal_quantile(axis, 1e-300) / 1e-300
    for q in (1e-310, 1e-320, 5e-324):
        x = m.marginal_quantile(axis, q)
        assert x > 0.0
        assert abs(x - ratio * q) <= max(1e-9 * ratio * q, 1e-322), q


# each root's grids (``_pi_expectations`` calls) at the three deepest
# chi/eta levels; one root per level, as both axes share one margin
_ROOT_TRIPLES = [
    ("gumbel", [2.0], "gaussian", [0.5], "power", 1.5),
    ("gumbel", [2.0], "clayton", [1.0], "power", 0.8),
    ("husler_reiss", [2.0], "frank", [1.0], "exp_complement", 1.0),
    ("student_t", [0.5, 4.0], "clayton", [1.0], "power", 1.0),
    ("gumbel", [2.0], "gumbel", [2.0], "power", 1.0),
]


def test_outer_panel_roots_take_few_grids(monkeypatch):
    models = [build(*triple) for triple in _ROOT_TRIPLES]
    grids = []
    solve = BlendedModel._pi_expectations
    monkeypatch.setattr(
        BlendedModel, "_pi_expectations", lambda m, *a, **k: grids.append(1) or solve(m, *a, **k)
    )
    counts = []
    for m in models:
        for r in DEFAULT_R_GRID[-3:]:
            grids.clear()
            chi_eta(m, r)
            counts.append(len(grids))
    # one grid per Newton step; brentq took 4 to 7 a root, 81 in all
    assert all(1 <= n <= 4 for n in counts), counts
    assert sum(counts) <= 40, counts


def test_end_mass_density_is_its_slope(power_model):
    # the density at the inner end, from the same grid, is dM/dd
    for top in (True, False):
        for d in (1e-9, 1e-7, 1e-6):
            _, f = power_model._end_mass(np.log(d), top)
            above, below = (end_mass(power_model, 0, d * (1.0 + s), top) for s in (1e-4, -1e-4))
            assert_allclose(f, (above - below) / (2e-4 * d), rtol=1e-6)


def test_outer_panel_root_failures_name_the_level(power_model, monkeypatch):
    # a NaN mass, or no convergence within the step budget, names q and the
    # axis of the margin it solves; axes that share one margin solve axis 0's.
    # One Newton step solves the true mass at 1e-9, so the budget is spent on
    # a mass of 1 at every d, which no step solves
    asymmetric = build("coles_tawn", [0.5, 0.8], "gaussian", [0.5], "power", 1.5)
    with monkeypatch.context() as patch:
        patch.setattr(blend, "_ROOT_STEPS", 1)
        patch.setattr(BlendedModel, "_end_mass", lambda m, logd, top: (0.0, 1.0))
        with pytest.raises(EvaluationError, match=r"marginal quantile of 1e-09 on axis 0: no root"):
            power_model.marginal_quantile(1, 1e-9)
        with pytest.raises(EvaluationError, match=r"marginal quantile of 1e-09 on axis 1: no root"):
            asymmetric.marginal_quantile(1, 1e-9)
    monkeypatch.setattr(BlendedModel, "_end_mass", lambda m, logd, top: (np.nan, 1.0))
    named = r"marginal quantile of 0.999999999 on axis 0: NaN mass"
    with pytest.raises(EvaluationError, match=named):
        power_model._quantile_exact(1.0 - 1e-9)


def test_marginal_quantile_out_of_grid_fallback(power_model):
    # levels whose quantile lies in an outermost panel are exact roots
    lo, hi = power_model._margin.inner
    q = 0.5 * (hi + 1.0)
    x = power_model.marginal_quantile(0, q)
    assert UNIT_BREAKS[-2] <= x < 1.0
    assert_allclose(end_mass(power_model, 0, 1.0 - x, True), 1.0 - q, rtol=1e-8)
    q = 0.5 * lo
    x = power_model.marginal_quantile(0, q)
    assert 0.0 < x <= UNIT_BREAKS[1]
    assert_allclose(end_mass(power_model, 0, x, False), q, rtol=1e-8)


def test_the_outer_root_bisects_where_the_power_law_start_leaves_the_bracket(monkeypatch):
    # under power(0.05), pi = (u v)^0.05 still changes by half within the
    # outermost panel, [0, 2e-6], and the margin's density rises toward 0
    # there: the power law through the panel's inner end falls below the
    # bracket at 1e-300, so the root starts from the bracket's midpoint
    m = build("frank", [1.0], "clayton", [5.0], "power", 0.05)
    q = 1e-300
    logds = []
    end_mass_of = m._end_mass
    monkeypatch.setattr(m, "_end_mass", lambda logd, top: logds.append(logd) or end_mass_of(logd, top))
    x = m.marginal_quantile(0, q)
    lo, hi = np.log(q) + np.log(0.25 * m.K), np.log(2.0 * UNIT_BREAKS[1])
    assert logds[0] == pytest.approx(0.5 * (lo + hi), rel=1e-15)
    assert_allclose(end_mass(m, 0, x, False), q, rtol=1e-8)


def test_marginal_cdf_resolves_corner_mass():
    # the clayton body's conditional density at u ~ 1e-4 concentrates
    # within ~u of v = 0; margins and K must still cover the whole square
    m = build("gumbel", [2.0], "clayton", [1.0], "power", 0.8)
    for axis in (0, 1):
        for x in (1e-4, 0.05, 0.5, 0.95):
            assert abs(m.marginal_cdf(axis, x) - end_mass(m, axis, x, False)) <= 3e-6
        # the table spans [0, 1], so the mass next to either end is counted
        ax = m._axis_model(axis)._margin
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


@pytest.mark.parametrize("case", sorted(DEEP_CHI_ETA_ORACLE))
def test_deep_tail_chi_eta_against_oracle(case):
    tt, tp, bt, bp, theta = case
    m = build(tt, [tp], bt, [bp], "power", theta)
    got = [chi_eta(m, 1.0 - d) for d in DEEP_LEVELS]
    assert_allclose(got, DEEP_CHI_ETA_ORACLE[case], rtol=1e-5)


def test_exact_integrals_match_cache(power_model):
    for x in (0.2, 0.5, 0.9):
        assert_allclose(
            end_mass(power_model, 0, x, False), power_model.marginal_cdf(0, x), atol=1e-4
        )
        assert_allclose(
            end_mass(power_model, 0, 1.0 - x, True),
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


#: The five blends whose chi/eta the benchmark's ``diagnose`` workload times.
DIAGNOSE_BLENDS = (
    "gumbel(2)/gaussian(0.5)/power(1.5)",
    "gumbel(2)/clayton(1)/power(0.8)",
    "husler_reiss(2)/frank(1)/exp_complement(1)",
    "student_t(0.5,4)/clayton(1)/power(1)",
    "gumbel(2)/gumbel(2)/power(1)",
)


def parsed(key):
    tail, body, weight = key.split("/")
    return BlendedModel(parse_copula(tail), parse_copula(body), parse_weighting(weight))


def two_sided_survival(m, x, y, order):
    """S(x, y) from the integrands of ``joint_upper_survival``, on the
    two-sided rule ``corner_refined(order)`` mapped onto [x, 1] x [y, 1]."""
    a, w = corner_refined(order)
    s, t = (np.minimum(1.0 - (1.0 - z) * a, BELOW_ONE) for z in (x, y))
    with np.errstate(divide="ignore", over="ignore"):
        edge, inner = m._edge(s, y), m._inner(s[:, None], t[None, :])
    return (1.0 - x) * (edge @ w + (1.0 - y) * (w @ inner @ w)) / m.K


@pytest.mark.parametrize("key", DIAGNOSE_BLENDS)
def test_chi_eta_agree_with_the_two_sided_rule_at_order_16(key):
    # every level's points lie within 1/2 of 1, where survival takes the
    # rule refined toward the corner only. Measured: chi at most 3.45e-7
    # relative from the order-16 two-sided rule, at
    # student_t(0.5,4)/clayton(1)/power(1), as is the order-6 two-sided rule
    m = parsed(key)
    for r in DEFAULT_R_GRID:
        (x,), (y,), _, _ = m._pair(np.array([r]), np.array([r]))
        assert min(x, y) >= 0.5
        sf = two_sided_survival(m, x, y, 16)
        want = (sf / (1.0 - r), np.log1p(-r) / np.log(sf))
        assert_allclose(chi_eta(m, r), want, rtol=5e-7, err_msg=f"r = {r}")


def refined_survival(m, x, y, order=16, floor=1e-14):
    """S(x, y) from the integrands of ``joint_upper_survival`` on [x, 1] x
    [y, 1], each interval of length L split at L times the panel ends of
    ``UNIT_BREAKS``, measured from 1, and below L * 2e-6 further toward 1,
    a decade per panel, down to ``floor``: a rule refined toward 1 on both
    axes, whatever the other axis's scale."""
    xg, wg = np.polynomial.legendre.leggauss(order)

    def rule(z):
        d = (1.0 - z) * UNIT_BREAKS
        decades = max(int(np.ceil(np.log10(d[1] / floor))), 0)
        ends = np.concatenate([[0.0], np.geomspace(floor, d[1], decades + 1)[:-1], d[1:]])
        lo, hi = ends[:-1, None], ends[1:, None]
        nodes = (0.5 * (hi - lo) * xg + 0.5 * (hi + lo)).ravel()
        return np.minimum(1.0 - nodes, BELOW_ONE), (0.5 * (hi - lo) * wg).ravel()

    (s, ws), (t, wt) = rule(x), rule(y)
    with np.errstate(divide="ignore", over="ignore"):
        edge, inner = m._edge(s, y), m._inner(s[:, None], t[None, :])
    return (edge @ ws + ws @ inner @ wt) / m.K


#: Off-diagonal points of the survival tests, and two near it.
OFF_DIAGONAL = (
    (0.5, 1.0 - 1e-8), (0.7, 1.0 - 1e-9), (0.2, 1.0 - 1e-6), (0.8, 1.0 - 1e-7),
    (0.9999, 1.0 - 1e-9), (0.9, 0.95), (0.3, 0.6),
)


@pytest.mark.parametrize(
    "key",
    [
        "gumbel(2)/clayton(1)/power(0.8)",
        "gumbel(2)/gaussian(0.5)/power(1.5)",
        "student_t(0.5,4)/clayton(1)/power(1)",
    ],
)
def test_exchangeable_survival_off_the_diagonal_against_a_rule_refined_toward_one(key):
    # the axes share one margin, so the point is swapped to integrate along
    # the coordinate nearer to 1: at (0.5, 1 - 1e-8) survival was 52-59 %
    # low. Measured: at most 3.5e-7 relative from the refined rule, at
    # gumbel(2)/gaussian(0.5)/power(1.5), (0.2, 1 - 1e-6); the refined rule
    # at orders 16 and 24 is at most 4.8e-9 apart at these points
    m = parsed(key)
    for u, v in OFF_DIAGONAL:
        (x,), (y,), _, _ = m._pair(np.array([u]), np.array([v]))
        want = refined_survival(m, max(x, y), min(x, y))
        got = m.survival(np.array([u, v]), np.array([v, u]))
        assert_allclose(got, want, rtol=5e-7, err_msg=f"({u}, {v})")


#: Blends of a non-exchangeable component, whose axes have their own margins.
ASYMMETRIC_BLENDS = (
    "coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5)",
    "coles_tawn(2,1)/clayton(1)/exp_complement(1)",
    "gumbel(2)/coles_tawn(0.3,3)/power(0.8)",
)


@pytest.mark.parametrize("key", ASYMMETRIC_BLENDS)
def test_non_exchangeable_survival_off_the_diagonal_against_a_rule_refined_toward_one(key):
    # a point with y > x goes to the transposed blend as (y, x): when every
    # point took this blend's rule, survival was 69 %, 96 % and 93 % off at
    # worst, each at (0.7, 1 - 1e-9). Measured: at most 3.5e-7 relative
    # from the refined rule, at coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5),
    # (1 - 1e-6, 0.2)
    m = parsed(key)
    assert m._transpose is not None
    for u, v in OFF_DIAGONAL:
        for a, b in ((u, v), (v, u)):
            (x,), (y,), _, _ = m._pair(np.array([a]), np.array([b]))
            want = refined_survival(m, x, y)
            assert_allclose(m.survival(a, b), want, rtol=5e-7, err_msg=f"({a}, {b})")


@pytest.mark.parametrize("key", ASYMMETRIC_BLENDS)
def test_survival_is_the_transposed_blends_at_the_swapped_point(key):
    # the copula of (V*, U*) is the blend of the transposed components.
    # Built on its own, its K is its own orientation's quadrature, up to
    # 5.5e-10 relative from this blend's. Measured: at most 6.0e-10
    # relative apart, at coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5)
    m = parsed(key)
    t = BlendedModel(m.tail.transposed(), m.body.transposed(), m.weighting)
    u, v = (np.array(a) for a in zip(*OFF_DIAGONAL))
    u, v = np.concatenate([u, v]), np.concatenate([v, u])
    assert_allclose(m.survival(u, v), t.survival(v, u), rtol=1e-9)


def test_survival_of_a_galambos_blend_far_off_the_diagonal():
    # at (1e-5, 1 - 1e-9) the order-6 rule along [x, 1] gave 5.7e-12
    m = parsed("galambos(1.459)/inverted_gumbel(4.771)/power(0.471)")
    (x,), (y,), _, _ = m._pair(np.array([1e-5]), np.array([1.0 - 1e-9]))
    got = m.survival(1e-5, 1.0 - 1e-9)
    assert_allclose(got, refined_survival(m, y, x), rtol=5e-7)
    assert_allclose(got, 1.0e-9, rtol=1e-3)


@pytest.mark.parametrize(
    "key",
    [
        "gumbel(2)/clayton(1)/power(0.8)",
        "student_t(0.5,4)/clayton(1)/power(1)",
        "galambos(1.459)/inverted_gumbel(4.771)/power(0.471)",
    ],
)
def test_exchangeable_survival_is_symmetric_bit_for_bit(key):
    # a lattice that holds every point in both orientations, ties included
    m = parsed(key)
    u, v = np.meshgrid(CDF_LEVELS, CDF_LEVELS, indexing="ij")
    assert_array_equal(m.survival(u, v), m.survival(v, u))


def test_identical_gumbel_components_give_the_closed_form_chi():
    # tail = body gives cstar = c and uniform margins, so chi(r) is
    # gumbel(2)'s (1 - 2r + r^sqrt(2)) / (1 - r). Measured: at most 1.1e-10
    # relative apart at the ten levels
    m = parsed("gumbel(2)/gumbel(2)/power(1)")
    d = 1.0 - DEFAULT_R_GRID
    want = (np.expm1(np.sqrt(2.0) * np.log1p(-d)) + 2.0 * d) / d
    assert_allclose([chi_eta(m, r)[0] for r in DEFAULT_R_GRID], want, rtol=1e-9)


def test_upper_half_points_take_the_rule_refined_toward_the_corner(monkeypatch):
    # a point within 1/2 of 1 on every axis it integrates takes 8 panels,
    # any other point 14: 48 x 48 nodes or 84 x 84 in joint_upper_survival,
    # and 96 or 168 in Copula._surv, which integrates along the larger
    # coordinate of an exchangeable family
    grids = []
    spied = ((BlendedModel, "_inner"), (Copula, "_hbar"), (Gaussian, "_hbar"), (StudentT, "_hbar"))
    for cls, name in spied:
        def spy(self, s, t, method=getattr(cls, name)):
            grids.append(np.broadcast_shapes(np.shape(s), np.shape(t))[-2:])
            return method(self, s, t)

        monkeypatch.setattr(cls, name, spy)
    m = build("gumbel", [2.0], "clayton", [1.0], "power", 0.8)
    for x, y, n in ((0.5, 0.9, 48), (0.9, 1.0 - 1e-9, 48), (0.3, 0.9, 84), (0.9, 0.49, 84)):
        grids.clear()
        m.joint_upper_survival(x, y)
        # the inner integrand's grid, and each component's hbar in the edge term
        assert sorted(grids) == [(n, 1), (n, 1), (n, n)], (x, y)
    for spec in ("gaussian(0.5)", "student_t(0.5,4)"):
        c = parse_copula(spec)
        for u, v, n in ((0.6, 0.9, 96), (0.3, 0.9, 96), (0.3, 0.4, 168), (1e-9, 0.49, 168)):
            grids.clear()
            c.survival(u, v)
            assert grids == [(1, n)], (spec, u, v)


@pytest.mark.parametrize("label,tt,tp,bt,bp", TABLE4_CASES)
@pytest.mark.parametrize("wtag", ["power", "exp_complement"])
def test_grid_refinement_stability(label, tt, tp, bt, bp, wtag, monkeypatch):
    coarse = build(tt, tp, bt, bp, wtag, 1.0)
    monkeypatch.setattr(blend, "_RULE", blend._build_rule(2 * _BUILD_ORDER))
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
    # every part's parameters at 17 digits, so a load gives the same doubles
    assert path.read_text() == (
        "# blendcop model\ntail = gumbel(2)\nbody = gaussian(0.59999999999999998)\n"
        "weighting = power(1.5)\n"
    )
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


#: Levels of the rectangle tests, down to 1e-9 from either end.
CDF_LEVELS = np.array([1e-9, 1e-7, 0.005, 0.2, 0.5, 0.8, 0.995, 1.0 - 1e-7, 1.0 - 1e-9])


@pytest.mark.parametrize(
    "tail,tp,body,bp,theta",
    [
        ("gumbel", [2.0], "clayton", [1.0], 0.8),
        ("coles_tawn", [0.5, 0.8], "gaussian", [0.5], 1.5),
        ("student_t", [0.5, 4.0], "clayton", [1.0], 1.0),
    ],
    ids=["gumbel-clayton", "coles_tawn-gaussian", "student_t-clayton"],
)
def test_copula_cdf_matches_the_mapped_rule(tail, tp, body, bp, theta, monkeypatch):
    # copula_cdf on the build rule's tensor against u + v - 1 + survival on
    # the mapped rule at order 16. Measured: at most 7.0e-10 apart on this
    # lattice (coles_tawn's axes have their own margins); at the mapped
    # rule's own order 6, survival is up to 1.2e-6 from both
    m = build(tail, tp, body, bp, "power", theta)
    u, v = np.meshgrid(CDF_LEVELS, CDF_LEVELS, indexing="ij")
    cdf = m.copula_cdf(u, v)
    monkeypatch.setattr(blend, "_RECT_ORDER", 16)
    assert_array_equal(m.copula_cdf(u, v), cdf)  # the mapped rule is not read
    lower = u + v - 1.0
    mapped = np.clip(lower + m.survival(u, v), np.maximum(lower, 0.0), np.minimum(u, v))
    assert np.max(np.abs(cdf - mapped)) <= 1e-9


@pytest.mark.parametrize(
    "triple",
    [("gumbel", [2.0], "clayton", [1.0], 0.8), ("coles_tawn", [0.5, 0.8], "gaussian", [0.5], 1.5)],
    ids=["shared-margin", "coles_tawn"],
)
def test_copula_cdf_of_a_shuffled_lattice_matches_single_points(triple):
    # every point of the lattice twice, in random order, over several batches
    m = build(*triple[:4], "power", triple[4])
    u, v = (np.tile(a.ravel(), 2) for a in np.meshgrid(CDF_LEVELS, CDF_LEVELS, indexing="ij"))
    order = np.random.default_rng(5).permutation(u.size)
    u, v = u[order], v[order]
    batch = m.copula_cdf(u, v)
    assert batch.size > 2 * blend._CDF_BATCH
    assert np.array_equal(batch, [m.copula_cdf(a, b) for a, b in zip(u, v)])


def test_the_cdf_tensor_is_made_once_and_only_by_copula_cdf(monkeypatch):
    shapes = []
    for cls in (Gumbel, Clayton):
        def counted(self, u, v, inner=cls._h):
            shapes.append(np.broadcast_shapes(np.shape(u), np.shape(v)))
            return inner(self, u, v)

        monkeypatch.setattr(cls, "_h", counted)
    n = corner_refined(_BUILD_ORDER)[0].size
    tensors = lambda: shapes.count((n, n))
    u, v = np.array([1e-9, 0.3, 0.9]), np.array([0.5, 0.8, 1.0 - 1e-9])
    m = build("gumbel", [2.0], "clayton", [1.0], "power", 0.8)
    m.build()
    m.logpdf(u, v)
    assert shapes and tensors() == 0
    first = m.copula_cdf(u, v)
    assert tensors() == 2  # h_tail and h_body, once each
    assert_array_equal(m.copula_cdf(u, v), first)
    assert tensors() == 2
    # kept on the model, not in the stores that a fit's builds share
    kept = blend._grids.values() + weighting._dv_grids.values()
    assert all(a.size < n * n for a in kept)


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


def full_weights(t):
    """Each t's 224 weights of the integral from t to 1 on the build rule:
    none below t's panel, ``to_panel_end``'s on its own, the rule's above."""
    x, w = corner_refined(_BUILD_ORDER)
    panel, part = to_panel_end(t, _BUILD_ORDER)
    block = np.arange(x.size) // _BUILD_ORDER
    rows = np.where(block > panel[:, None], w, 0.0)
    rows[block == panel[:, None]] = part.ravel()
    return rows


@pytest.mark.parametrize(
    "key",
    [
        "gumbel(2)/clayton(1)/power(0.8)",
        "husler_reiss(2)/frank(1)/exp_complement(1)",
        "coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5)",
    ],
)
def test_copula_cdf_tables_give_the_plain_double_sum(key):
    # K S = a_x . E(., y) + a_x' G a_y over all 224 nodes of each axis, with
    # G read from the kept tensor, against copula_cdf's sums over panels.
    # Measured: at most 2.2e-16 apart on the shuffled lattice
    m = parsed(key)
    u, v = (a.ravel() for a in np.meshgrid(CDF_LEVELS, CDF_LEVELS, indexing="ij"))
    order = np.random.default_rng(5).permutation(u.size)
    u, v = u[order], v[order]
    got = m.copula_cdf(u, v)
    x, y, _, _ = m._pair(u, v)
    s, _ = corner_refined(_BUILD_ORDER)
    g = m._cdf_tensor.by_panel.reshape(s.size, s.size).T  # [s-node, t-node]
    a_x, a_y = full_weights(x), full_weights(y)
    with np.errstate(divide="ignore", over="ignore"):
        edge = m._edge(s[None, :], y[:, None])
    k_s = np.sum(a_x * edge, axis=1) + np.einsum("ki,ij,kj->k", a_x, g, a_y)
    lower = u + v - 1.0
    want = np.clip(lower + np.maximum(k_s / m.K, 0.0), np.maximum(lower, 0.0), np.minimum(u, v))
    assert_allclose(got, want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("spec", ["gumbel(2)", "gaussian(0.6)", "clayton(1)"])
def test_copula_cdf_of_identical_components_is_the_family_cdf(spec):
    # tail = body gives cstar = c and uniform margins. Measured: at most
    # 8.7e-10 apart on the lattice, for gumbel(2)
    m = parsed(f"{spec}/{spec}/power(1.7)")
    u, v = np.meshgrid(CDF_LEVELS, CDF_LEVELS, indexing="ij")
    assert_allclose(m.copula_cdf(u, v), parse_copula(spec).cdf(u, v), rtol=0.0, atol=2e-9)


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
    assert m._transpose is None and m._axis_model(1) is m
    shared = m._margin
    # the axis-1 margin as a blend of the transposed components computes it
    x, _ = corner_refined(_BUILD_ORDER)
    transposed = BlendedModel(m.tail.transposed(), m.body.transposed(), m.weighting)
    e_t, e_b = transposed._pi_expectations(x)
    axis1 = _Margin((1.0 + e_t - e_b) / m.norm_constants[0])
    for name in ("pdf", "cdf", "sf", "level"):
        assert_allclose(getattr(shared, name), getattr(axis1, name), rtol=1e-12, err_msg=name)


def test_asymmetric_blend_builds_two_margins():
    m = build("coles_tawn", [0.5, 0.8], "gaussian", [0.6], "power", 1.5)
    assert not m.tail.exchangeable and m.body.exchangeable
    ax0, ax1 = m._margin, m._axis_model(1)._margin
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
    # coles_tawn(0.5, 0.8) is not exchangeable, so both axes have grids of
    # it; the gaussian body is its own transpose, so both axes share its grid
    parts = (make_copula("coles_tawn", [0.5, 0.8]), make_copula("gaussian", [0.6]),
             make_weighting("power", 1.5))
    blend._grids.clear()
    cold = BlendedModel(*parts)
    grids = list(blend._grids.values())
    warm = BlendedModel(*parts)
    assert len(grids) == 3 and all(a is b for a, b in zip(grids, blend._grids.values()))
    assert repr(cold.norm_constants) == repr(warm.norm_constants)
    x, _ = corner_refined(_BUILD_ORDER)
    for axis in (0, 1):
        # grids made anew, from an empty store, give the same node values
        blend._grids.clear()
        e_t, e_b = cold._axis_model(axis)._pi_expectations(x)
        plain = _Margin((1.0 + e_t - e_b) / cold.K)
        for name in ("x", "pdf", "cdf", "sf", "level"):
            got = [getattr(m._axis_model(axis)._margin, name).tobytes() for m in (cold, warm)]
            assert got == [getattr(plain, name).tobytes()] * 2, (axis, name)


def test_grids_are_keyed_by_family_and_axis_and_read_only():
    # axis 1 is axis 0 of the transposed blend, so its grid is keyed by the
    # transposed family
    w = make_weighting("exp_complement", 1.0)
    v = w.v_nodes
    t = corner_refined(_BUILD_ORDER)[0][:, None]
    hr, ga = HuslerReiss(2.0), Galambos(2.0)
    ct = make_copula("coles_tawn", [0.5, 0.8])
    blend._grids.clear()
    m, asymmetric = BlendedModel(hr, ga, w), BlendedModel(ct, ga, w)
    grids = [
        _component_grid(m, "tail", t, v[None, :]),
        _component_grid(m, "body", t, v[None, :]),
        _component_grid(asymmetric, "tail", t, v[None, :]),
        _component_grid(asymmetric._axis_model(1), "tail", t, v[None, :]),
    ]
    with np.errstate(divide="ignore", over="ignore"):
        direct = [hr._h(t, v[None, :]), ga._h(t, v[None, :]), ct._h(t, v[None, :]),
                  ct.transposed()._h(t, v[None, :])]
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


def test_a_grid_that_fails_is_not_kept(monkeypatch):
    # the failed grid is made again, and only the finite grid is kept
    calls = _count_h(monkeypatch, _NaNNearOne)
    blend._grids.clear()
    named = r"conditional CDF of the body nan_near_one\(\)"
    for _ in range(2):
        with pytest.raises(EvaluationError, match=named):
            BlendedModel(make_copula("frank", [1.0]), _NaNNearOne(), make_weighting("power", 1.0))
    assert calls == ["nan_near_one"] * 2
    kept = blend._grids.values()
    assert len(kept) == 1 and np.all(np.isfinite(kept[0]))


@pytest.mark.parametrize(
    "triple",
    [
        ("husler_reiss", [2.0], "frank", [1.0], "exp_complement", 1.0),
        ("gumbel", [2.0], "gumbel", [2.0], "power", 1.0),
        ("coles_tawn", [0.5, 0.8], "gaussian", [0.5], "power", 1.5),
    ],
    ids=["shared-margin", "equal-components", "coles_tawn"],
)
def test_a_deep_root_reads_back_the_grids_it_would_make(triple):
    # each level is solved from an empty store, again with its steps'
    # grids kept, and after the other levels' roots
    m = build(*triple)
    levels = (1e-300, 1e-9, 1.0 - 1e-9, 1.0 - 1e-13)
    for axis in (0, 1):
        for q in levels:
            blend._grids.clear()
            weighting._dv_grids.clear()
            cold = m.marginal_quantile(axis, q)
            kept = [id(a) for a in blend._grids.values()]
            warm = m.marginal_quantile(axis, q)
            # the second root made no grid
            assert [id(a) for a in blend._grids.values()] == kept
            assert repr(warm) == repr(cold), (axis, q)
        # one call solves the levels in turn, each after the others' roots
        apart = [m.marginal_quantile(axis, q) for q in levels]
        assert repr(m.marginal_quantile(axis, np.array(levels)).tolist()) == repr(apart)


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


def test_only_the_lookup_maps_levels_to_points():
    # one routine maps levels to points (the table's quantile step and the
    # outer-panel root), and one looks both axes up together where they
    # share a margin; only the build transposes a component, and no module
    # states a second conditional, since axis 1 is axis 0 of the transpose
    tree = ast.parse(Path(blend.__file__).read_text(encoding="utf-8"))
    (model,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "BlendedModel")
    offenders = set()
    for method in model.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in {"quantile_at", "_quantile_exact"}
                and method.name != "_lookup"
            ):
                offenders.add(f"{method.name} reads .{node.attr}")
            if (
                isinstance(node, ast.Compare)
                and "self._transpose" in map(ast.unparse, [node.left, *node.comparators])
                and method.name not in {"_pair", "_axis_model"}
            ):
                offenders.add(f"{method.name} asks whether the axes share a margin")

    def transposes(node):
        return [
            n for n in ast.walk(node)
            if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "transposed"
        ]

    (build,) = (m for m in model.body if isinstance(m, ast.FunctionDef) and m.name == "build")
    if not transposes(build) or len(transposes(tree)) != len(transposes(build)):
        offenders.add("a transpose is made outside build")
    for path in sorted(Path(blend.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.FunctionDef) and node.name == "_h2") or (
                isinstance(node, ast.Attribute) and node.attr == "_h2"
            ):
                offenders.add(f"{path.name} line {node.lineno} names _h2")
    assert not offenders, sorted(offenders)


def test_each_formula_is_stated_once():
    # the build rule is made once, at import: in ``blend`` only
    # ``_build_rule`` calls corner_refined and panel_calculus, and no
    # function calls it, so only the module's own statements do; the
    # bisection is ``Copula._hinv``'s, and Coles-Tawn states its weights in
    # one method
    src = Path(blend.__file__).parent

    def tree(name):
        return ast.parse((src / name).read_text(encoding="utf-8"))

    def calls(node, name):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call) and ast.unparse(n.func) == name]

    offenders = set()
    for f in (n for n in ast.walk(tree("blend.py")) if isinstance(n, ast.FunctionDef)):
        for name in ("corner_refined", "panel_calculus", "_build_rule"):
            if calls(f, name) and (f.name, name) not in {
                ("_build_rule", "corner_refined"),
                ("_build_rule", "panel_calculus"),
            }:
                offenders.add(f"blend.{f.name} calls {name}")
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(tree(path.name)):
            if isinstance(node, ast.FunctionDef) and node.name in {
                "_bisect_conditional", "_abscissae", "_panel_maps"
            }:
                offenders.add(f"{path.name} line {node.lineno} defines {node.name}")
    (coles_tawn,) = (
        n for n in ast.walk(tree("families.py")) if isinstance(n, ast.ClassDef) and n.name == "ColesTawn"
    )
    users = [m.name for m in coles_tawn.body if isinstance(m, ast.FunctionDef) and calls(m, "betainc")]
    if len(users) != 1:
        offenders.add(f"ColesTawn calls betainc in {users}")
    assert not offenders, sorted(offenders)
