"""Print one SHA-256 per group of the package's numbers, so that two
versions of ``src/`` can be checked for bit-identical results.

Run from the repository root against the source tree to be checked:

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 tests/fingerprint.py

pytest does not collect this file. Each group hashes the exact text of its
numbers (``repr`` of Python floats, the bytes of arrays):

* ``fits``: on five n = 2000 datasets per model, drawn at seeds 11 and 41
  from gumbel(2)/clayton(1)/power(0.8) and
  husler_reiss(2)/frank(1)/exp_complement(1), the ``fitting.fit`` result
  of each component, and the blend's from the generating parameters with
  ``restarts=1`` and from the default start with ``restarts=3``; each
  ``FitResult`` as its ``repr`` without ``seconds``, with its ``params``
  and the bytes of ``cov``;
* ``margins``: K, K_tail, K_body and both margin tables of five blends;
* ``chi_eta``: chi and eta at ``DEFAULT_R_GRID`` of those blends and of
  seven single copulas;
* ``copula_cdf``: each blend's ``copula_cdf`` on a 10 x 10 lattice;
* ``quantiles``: both axes' ``marginal_quantile`` of those blends and of
  coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5), whose axes have their own
  margins, at levels within 2e-6 of either end, where the quantile is
  the outer-panel root;
* ``draws``: 500 draws of each family and 2000 draws of each blend at a
  seed;
* ``points``: ``logpdf``, ``survival`` and ``copula_cdf`` of
  gumbel(2)/clayton(1)/power(0.8), whose axes share one margin, and of
  coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5), whose axes have their
  own, on a 6 x 6 lattice whose outer levels lie within 2e-6 of either
  end, where the quantile is the outer-panel root.

A group whose computation raises hashes the exception's type and text
instead, so a failure changes the hash too. Nothing is imported from the
benchmark.
"""
from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from blendcop import dependence, fitting
from blendcop.blend import BlendedModel
from blendcop.families import FAMILIES, parse_copula
from blendcop.sampling import sample_blended_copula
from blendcop.weighting import parse_weighting

FIT_MODELS = ("gumbel(2)/clayton(1)/power(0.8)", "husler_reiss(2)/frank(1)/exp_complement(1)")
FIT_SEEDS = (11, 41)
FIT_DATASETS = 5
FIT_N = 2000
BLENDS = (
    "gumbel(2)/gaussian(0.5)/power(1.5)",
    "gumbel(2)/clayton(1)/power(0.8)",
    "husler_reiss(2)/frank(1)/exp_complement(1)",
    "student_t(0.5,4)/clayton(1)/power(1)",
    "gumbel(2)/gumbel(2)/power(1)",
)
SINGLES = (
    "gumbel(2)", "gaussian(0.5)", "gaussian(0.95)", "clayton(1)",
    "husler_reiss(2)", "frank(1)", "student_t(0.5,4)",
)
#: A parameter vector per family for its draws.
FAMILY_SPECS = (
    "gaussian(0.6)", "student_t(0.5,4)", "frank(2)", "clayton(1)", "joe(2)", "gumbel(2)",
    "inverted_gumbel(2)", "husler_reiss(2)", "galambos(1.5)", "coles_tawn(0.5,0.8)",
)
QUANTILE_BLENDS = BLENDS + ("coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5)",)
QUANTILE_LEVELS = np.array(
    [5e-324, 1e-300, 1e-100, 1e-20, 1e-9, 1e-7]
    + [1.0 - d for d in (1e-7, 1e-9, 1e-13, 2.2e-16)]
)
POINT_BLENDS = ("gumbel(2)/clayton(1)/power(0.8)", "coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5)")
POINT_LEVELS = np.array([1e-9, 1e-7, 0.3, 0.7, 1.0 - 1e-7, 1.0 - 1e-9])
LATTICE = np.array([0.005, 0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.97, 0.995])
DRAW_SEED = 7


def blend(key):
    tail, body, weight = key.split("/")
    return BlendedModel(parse_copula(tail), parse_copula(body), parse_weighting(weight))


def fit_text(res):
    # the model's repr rounds its parameters; ``params`` holds them exactly.
    # A blend's flat params are written as the former
    # ``ModelParams(theta=..., tail=(...), body=(...))`` repr, so that the
    # hash compares with the one printed before a blend's params were flat.
    text = repr(dataclasses.replace(res, seconds=0.0, cov=None))
    p = res.params
    if isinstance(res.model, BlendedModel):
        n = 1 + res.model.tail.n_params
        text += f"ModelParams(theta={p[0]!r}, tail={p[1:n]!r}, body={p[n:]!r})"
    else:
        text += repr(p)
    return text + res.cov.tobytes().hex()


def fits():
    for seed in FIT_SEEDS:
        for i, key in enumerate(FIT_MODELS):
            model = blend(key)
            spec = f"{model.tail.tag}+{model.body.tag}:{model.weighting.tag}"
            for j in range(FIT_DATASETS):
                rng = np.random.default_rng([seed, i, j])
                data = fitting.Dataset.from_array(sample_blended_copula(model, FIT_N, rng))
                for comp in (model.tail, model.body):
                    yield fit_text(fitting.fit(comp.tag, data))
                yield fit_text(fitting.fit(spec, data, model.params, restarts=1))
                yield fit_text(fitting.fit(spec, data, restarts=3))


def margins():
    for key in BLENDS:
        model = blend(key)
        yield repr(model.norm_constants)
        for m in model._axes:
            for table in (m.x, m.pdf, m.cdf, m.sf, m.level):
                yield table.tobytes().hex()


def chi_eta():
    for obj in [blend(key) for key in BLENDS] + [parse_copula(text) for text in SINGLES]:
        for r in dependence.DEFAULT_R_GRID:
            yield repr(dependence.chi_eta(obj, r))


def copula_cdf():
    u, v = np.meshgrid(LATTICE, LATTICE, indexing="ij")
    for key in BLENDS:
        yield blend(key).copula_cdf(u, v).tobytes().hex()


def quantiles():
    for key in QUANTILE_BLENDS:
        model = blend(key)
        for axis in (0, 1):
            yield model.marginal_quantile(axis, QUANTILE_LEVELS).tobytes().hex()


def draws():
    for text in FAMILY_SPECS:
        yield parse_copula(text).sample(500, np.random.default_rng(DRAW_SEED)).tobytes().hex()
    for key in BLENDS:
        yield sample_blended_copula(blend(key), 2000, np.random.default_rng(DRAW_SEED)).tobytes().hex()


def points():
    u, v = np.meshgrid(POINT_LEVELS, POINT_LEVELS, indexing="ij")
    for key in POINT_BLENDS:
        model = blend(key)
        for answer in (model.logpdf, model.survival, model.copula_cdf):
            yield answer(u, v).tobytes().hex()


def digest(group):
    h = hashlib.sha256()
    try:
        for text in group():
            h.update(text.encode())
            h.update(b"\n")
    except Exception as exc:  # a failure is part of the fingerprint
        h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def main():
    if sorted(parse_copula(text).tag for text in FAMILY_SPECS) != sorted(FAMILIES):
        raise SystemExit("FAMILY_SPECS must name every family once")
    for group in (fits, margins, chi_eta, copula_cdf, draws, quantiles, points):
        print(f"{group.__name__:<11} {digest(group)}", flush=True)


if __name__ == "__main__":
    main()
