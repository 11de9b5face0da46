"""Every model, a copula family or a blend, answers through ``families.Model``."""
import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import blendcop
from blendcop.blend import BlendedModel
from blendcop.errors import InputError
from blendcop.families import Model, parse_copula
from blendcop.sampling import sample_blended_copula
from blendcop.weighting import parse_weighting

ANSWERS = ("pdf", "logpdf", "cdf", "survival")
#: An interior lattice of the identity C = u + v - 1 + S.
LATTICE = np.array([0.05, 0.2, 0.4, 0.6, 0.8, 0.95])


def model(spec):
    parts = spec.split("/")
    if len(parts) == 1:
        return parse_copula(spec)
    return BlendedModel(parse_copula(parts[0]), parse_copula(parts[1]), parse_weighting(parts[2]))


# A copula's cdf and survival share one formula, so they agree to rounding.
# A blend's cdf integrates on the build's order-16 rule and its survival on
# the order-6 mapped rule, whose absolute error on this lattice is about
# 1e-8: measured 7.7e-9 apart for gumbel/clayton and 1.5e-8 for
# coles_tawn/gaussian, whose axes have their own margins (1.7e-10 and
# 1.1e-10 with the mapped rule at order 16).
@pytest.mark.parametrize(
    "spec,atol",
    [
        ("gumbel(2)", 1e-9),
        ("gaussian(0.6)", 1e-9),
        ("gumbel(2)/clayton(1)/power(0.8)", 3e-8),
        ("coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5)", 3e-8),
    ],
)
def test_every_model_answers_the_protocol_alike(spec, atol):
    m = model(spec)
    for name in ANSWERS:
        answer = getattr(m, name)
        for bad in (np.nan, 1.5):
            for args in ((bad, 0.5), (0.5, bad)):
                with pytest.raises(InputError, match=r"must lie in \[0, 1\]"):
                    answer(*args)
        assert np.isscalar(answer(0.3, 0.7)), name
    u, v = np.meshgrid(LATTICE, LATTICE, indexing="ij")
    assert np.max(np.abs(m.cdf(u, v) - (u + v - 1.0 + m.survival(u, v)))) <= atol

    rng = np.random.default_rng(3)
    draws = m.sample(50, rng)
    assert draws.shape == (50, 2) and np.all((draws >= 0.0) & (draws <= 1.0))
    assert m.sample(0, rng).shape == (0, 2)
    for n in (2.5, -1):
        state = rng.bit_generator.state
        with pytest.raises(InputError, match="sample size"):
            m.sample(n, rng)
        assert rng.bit_generator.state == state  # refused before any draw
    if isinstance(m, BlendedModel):
        # sample_blended_copula is kept only because the benchmark calls it
        assert_array_equal(
            m.sample(200, np.random.default_rng(7)),
            sample_blended_copula(m, 200, np.random.default_rng(7)),
        )


def test_copula_cdf_is_the_blends_cdf():
    # copula_cdf is kept only because the benchmark calls it
    assert BlendedModel.copula_cdf is Model.cdf
    m = model("coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5)")
    u, v = np.meshgrid(LATTICE, LATTICE[::-1], indexing="ij")
    assert_array_equal(m.copula_cdf(u, v), m.cdf(u, v))


def test_the_public_answers_are_stated_once():
    # Model states pdf, logpdf, cdf, survival and sample for every model;
    # no src/ module calls the names kept for the benchmark
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(blendcop.__file__).parent.glob("*.py"))
    }
    names = (*ANSWERS, "sample")
    defined = {name: [] for name in names}
    for file, tree in trees.items():
        owner = {
            id(node): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in names:
                defined[node.name].append(f"{file}:{owner.get(id(node), 'a function')}")
    assert defined == {name: ["families.py:Model"] for name in defined}, defined
    calls = [
        f"{file}:{node.lineno}"
        for file, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None))
        in ("copula_cdf", "sample_blended_copula")
    ]
    assert not calls, f"a bench-only adapter is called at {calls}"
