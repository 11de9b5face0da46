import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import blendcop
from blendcop.quadrature import (
    CORNER_BREAKS,
    UNIT_BREAKS,
    Kept,
    corner_refined,
    gauss_legendre,
    panel_calculus,
    skewed_refined,
    to_panel_end,
    toward_one,
)
from oracles import tensor_integrate, unit_nodes


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(8, 0.0, 2.0)
    for k in range(0, 16):
        assert_allclose(np.sum(w * x**k), 2.0 ** (k + 1) / (k + 1), rtol=1e-12)


def test_corner_refined_integrates_near_singular_integrands():
    # corner singularities sit at 0 and 1, outside the inset interval
    eps = 1e-6
    x, w = corner_refined(16, eps, 1.0 - eps)
    exact = 2.0 * (np.sqrt(1.0 - eps) - np.sqrt(eps))
    assert_allclose(np.sum(w * x**-0.5), exact, rtol=1e-9)
    assert_allclose(np.sum(w * (1.0 - x) ** -0.5), exact, rtol=1e-9)
    assert_allclose(np.sum(w), 1.0 - 2.0 * eps, rtol=1e-12)


def test_tensor_integrate_and_error_reporting():
    x, w = unit_nodes(16)
    exact = (((1.0 - 1e-6) ** 2 - 1e-12) / 2.0) ** 2
    assert_allclose(tensor_integrate(lambda u, v: u * v, x, w), exact, rtol=1e-9)
    from blendcop.errors import EvaluationError

    with pytest.raises(EvaluationError, match="non-finite"):
        tensor_integrate(lambda u, v: np.where(u > 0.5, np.nan, 1.0), x, w)


def test_corner_refined_is_memoised_and_read_only():
    x, w = corner_refined(16)
    assert corner_refined(16, 0.0, 1.0)[0] is x
    assert x.size == 16 * (UNIT_BREAKS.size - 1) and np.all(np.diff(x) > 0)
    with pytest.raises(ValueError):
        x[0] = 0.5
    # other intervals are the unit rule mapped affinely
    xa, wa = corner_refined(16, 0.2, 0.7)
    assert_allclose(xa, 0.2 + 0.5 * x, rtol=1e-15)
    assert_allclose(wa, 0.5 * w, rtol=1e-15)
    assert not xa.flags.writeable


def test_toward_one_maps_each_row_onto_its_interval():
    d = np.array([0.5, 1e-3, 1e-15, 0.9])
    for index, s, w in toward_one(d, 8):
        dd = d[index]
        assert s.shape == (dd.size, w.size) and np.all(s < 1.0)
        # int_{1-d}^1 sqrt(1 - s) ds = 2/3 d^1.5, whose slope is singular at 1
        big = dd > 1e-14
        assert_allclose(
            dd[big] * (np.sqrt(1.0 - s[big]) @ w), 2.0 / 3.0 * dd[big] ** 1.5, rtol=1e-8
        )
        # nodes closer to 1 than one ulp are capped at the largest double below 1
        assert np.all((s.max(axis=1) == np.nextafter(1.0, 0.0)) == (dd < 1e-14))


def test_toward_one_refines_toward_the_inner_end_only_below_one_half():
    # a point within 1/2 of 1 on every axis takes CORNER_BREAKS' 8 panels,
    # any other point UNIT_BREAKS' 14; each group comes in batches, in order
    assert_allclose(CORNER_BREAKS, np.append(UNIT_BREAKS[:8], 1.0), rtol=0, atol=0)
    assert CORNER_BREAKS[-2] == 0.5 and not CORNER_BREAKS.flags.writeable
    d = np.array([[0.5, 0.9, 1e-3, 0.2, 0.25], [0.1, 0.1, 0.6, 0.5, 0.01]])
    groups = list(toward_one(d, 6, batch=2))
    points = lambda i, n=d.shape[1]: np.arange(n)[i].tolist()
    assert [points(i) for i, _, _ in groups] == [[0, 3], [4], [1, 2]]
    for (i, s, w), panels in zip(groups, (8, 8, 14)):
        assert s.shape == (2, len(i), 6 * panels) and w.size == 6 * panels
        assert_allclose(w.sum(), 1.0, rtol=1e-14)
        # the nodes on (0, 1): corner_refined's, or those of its panels
        # within 1/2 of 0 (of 1 once mapped) and 6 more in [1/2, 1]
        a = (1.0 - s) / d[:, i, None]
        unit = corner_refined(6)[0]
        assert_allclose(a[..., :42], np.broadcast_to(unit[:42], a[..., :42].shape), atol=1e-13)
        assert np.all(a[..., 42:48] > 0.5) if panels == 8 else np.all(a[..., 42:] > 0.1)
    # where one rule serves every point, and a flat d of one axis
    (i, s, w), = toward_one(d[:, [0, 3, 4]], 6)
    assert points(i, 3) == [0, 1, 2] and s.shape == (2, 3, 48)
    assert [points(i, 2) for i, _, _ in toward_one(d[0, [1, 2]], 6, batch=1)] == [[1], [0]]
    assert [points(i, 2) for i, _, _ in toward_one(d[:, [1, 2]], 6, batch=1)] == [[0], [1]]
    assert list(toward_one(np.empty(0), 6)) == []


def test_skewed_refined_resolves_boundary_layer_at_one():
    # a unit mass within ~d of 1, as a conditional CDF given u = 1 - d has
    x, w = skewed_refined(6)
    assert_allclose(np.sum(w), 1.0, rtol=1e-14)
    for d in (1e-3, 1e-4, 1e-5):
        assert abs(w @ (np.exp(-(1.0 - x) / d) / d) - 1.0) < 1e-4
    xg, wg = gauss_legendre(x.size)
    assert abs(wg @ (np.exp(-(1.0 - xg) / 1e-4) / 1e-4) - 1.0) > 0.5


@pytest.mark.parametrize("n", [6, 16])
def test_panel_calculus_exact_on_polynomials(n):
    pc = panel_calculus(n)
    x, _ = np.polynomial.legendre.leggauss(n)
    ends = np.array([-1.0, 1.0])
    for k in range(n):
        f = x**k
        assert_allclose(pc.weights @ f, (1.0 - (-1.0) ** (k + 1)) / (k + 1), atol=1e-14)
        assert_allclose(pc.below @ f, (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1), atol=1e-14)
        assert_allclose(pc.above @ f, (1.0 - x ** (k + 1)) / (k + 1), atol=1e-14)
        assert_allclose(pc.ends @ f, ends**k, atol=1e-13)
        slope = k * x ** max(k - 1, 0)
        assert_allclose(pc.slope @ f, slope, atol=1e-10 * max(1, k * k))
        assert_allclose(pc.end_slopes @ f, k * ends ** max(k - 1, 0), atol=1e-10 * max(1, k * k))


def test_to_panel_end_with_the_panels_above_integrates_the_interpolant_to_one():
    # exact on polynomials of degree n - 1, from a point in any panel, at
    # the panel ends and at 0 and 1: the rule's weights on the panels above
    # t's, and to_panel_end's on t's own
    n = 8
    x, w = corner_refined(n)
    t = np.array([0.0, 1e-9, 2e-6, 1e-3, 0.3, 0.5, 0.97, 1.0 - 1e-9, 1.0])
    panel, part = to_panel_end(t, n)
    assert part.shape == (t.size, n)
    assert np.all(UNIT_BREAKS[panel] <= t) and np.all(t <= UNIT_BREAKS[panel + 1])
    own = np.arange(x.size) // n == panel[:, None]
    rows = np.where(np.arange(x.size) // n > panel[:, None], w, 0.0)
    rows[own] = part.ravel()
    for k in range(n):
        assert_allclose(rows @ x**k, (1.0 - t ** (k + 1)) / (k + 1), rtol=0, atol=1e-15)
    # a point's weights do not depend on the others
    for i in range(t.size):
        one_panel, one = to_panel_end(t[i : i + 1], n)
        assert one_panel[0] == panel[i] and np.array_equal(one[0], part[i])


def test_no_module_of_the_package_imports_scipy_integrate():
    # every integral of the package is a fixed rule: adaptive quadrature
    # runs one point at a time and belongs to the test oracles only. Nor
    # does a module but fitting (its kendalltau) import scipy.stats: the
    # families call the scipy.special kernels under its distributions
    offenders = []
    for path in sorted(Path(blendcop.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            forbidden = ("scipy.integrate",) + (() if path.name == "fitting.py" else ("scipy.stats",))
            offenders += [
                f"{path.name}:{node.lineno}" for name in names if name.startswith(forbidden)
            ]
    assert not offenders, f"scipy.integrate or scipy.stats imported at {offenders}"


def test_kept_evicts_the_least_recently_read_and_keeps_what_it_made_read_only():
    made = []

    def make(key):
        def value():
            made.append(key)
            return np.full(3, float(key))

        return value

    kept = Kept(2)
    one = kept.get(1, make(1))
    kept.get(2, make(2))
    # a read makes 1 the last to be evicted, so 3 evicts 2
    assert kept.get(1, make(1)) is one
    kept.get(3, make(3))
    assert made == [1, 2, 3]
    assert [a[0] for a in kept.values()] == [1.0, 3.0]
    assert kept.get(1, make(1)) is one and made == [1, 2, 3]
    kept.get(2, make(2))
    assert made == [1, 2, 3, 2]
    assert [a[0] for a in kept.values()] == [1.0, 2.0]
    for a in kept.values():
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.5

    def fails():
        made.append("failed")
        raise RuntimeError("no value")

    # a make that raises stores nothing, so the next read makes it again
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no value"):
            kept.get(4, fails)
    assert made[-2:] == ["failed", "failed"]
    assert [a[0] for a in kept.values()] == [1.0, 2.0]
    kept.clear()
    assert kept.values() == []


def test_only_the_store_keeps_arrays_across_calls():
    # every array kept from one call to the next lives in a ``Kept``: no
    # other module imports OrderedDict or binds a module-level name to an
    # empty list or dict, the makings of a hand-written cache
    empty_calls = {"dict", "list", "OrderedDict", "defaultdict", "deque"}

    def empty(node):
        if isinstance(node, ast.List):
            return not node.elts
        if isinstance(node, ast.Dict):
            return not node.keys
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            return name in empty_calls and not node.args and not node.keywords
        return False

    offenders = []
    for path in sorted(Path(blendcop.__file__).parent.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [
            f"{path.name}:{node.lineno} imports OrderedDict"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any(alias.name.endswith("OrderedDict") for alias in node.names)
        ]
        for node in tree.body:
            if isinstance(node, ast.Assign) and empty(node.value):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None and empty(node.value):
                targets = [node.target]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {ast.unparse(t)}" for t in targets]
    assert not offenders, f"arrays kept outside quadrature.Kept: {offenders}"
