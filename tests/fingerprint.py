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
* ``fits.families``: the ``fitting.fit`` result of each of the ten
  families, from its default start, on 1000 of its own draws at a seed;
* ``margins``: K, K_tail, K_body and both margin tables of five blends;
* ``chi_eta``: chi and eta at ``DEFAULT_R_GRID`` of those blends and of
  seven single copulas;
* ``copula_cdf``: each blend's ``cdf`` on a 10 x 10 lattice (the
  group keeps the name of the method it read before, ``copula_cdf``, so
  that a dump of an older version still compares);
* ``quantiles``: both axes' ``marginal_quantile`` of those blends and of
  coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5), whose axes have their own
  margins, at levels within 2e-6 of either end, where the quantile is
  the outer-panel root;
* ``draws``: 500 draws of each family and 2000 draws of each blend at a
  seed;
* ``points.logpdf``, ``points.survival`` and ``points.copula_cdf`` (of
  ``cdf``): one group per answer, so that a change to one answer moves
  one hash; each
  of gumbel(2)/clayton(1)/power(0.8), whose axes share one margin, and of
  coles_tawn(0.5,0.8)/gaussian(0.5)/power(1.5), whose axes have their
  own, on a 6 x 6 lattice whose outer levels lie within 2e-6 of either
  end, where the quantile is the outer-panel root;
* ``points.families``: ``logpdf``, ``cdf``, ``survival``, ``cond_cdf``
  and ``cond_quantile`` of each family of ``FAMILY_SPECS`` on that
  lattice, one named entry per family and answer.

A group whose computation raises hashes the exception's type and text
instead, so a failure changes the hash too. Nothing is imported from the
benchmark.

A moved hash says that a group changed, not by how much. Two options
measure it: ``--dump PATH`` writes each group's numbers as JSON, and
``--compare PATH`` prints, after each hash, the group's largest absolute
and relative change against such a file, written by another version, and
how many of its entries moved:

    PYTHONPATH=<old>/src OMP_NUM_THREADS=1 python3 tests/fingerprint.py --dump old.json
    PYTHONPATH=src OMP_NUM_THREADS=1 python3 tests/fingerprint.py --compare old.json

``--compare`` exits with status 1, after printing every line, when an
entry of any group moved or a group does not compare, and with 0 when
every number is bit-identical; so a claim of bit-identity is one
command's exit status.

An entry is one array, number or fit. A fit's numbers come in three
parts, its params, its log-likelihood and its ``cov``. ``fits.families``
and ``points.families`` name their entries, so ``--compare`` prints a
line for each entry that moved, with the largest change of each part. A
failed group has no numbers, and compares with no other.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json

import numpy as np

from blendcop import dependence, fitting
from blendcop.blend import BlendedModel
from blendcop.families import FAMILIES, parse_copula
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
#: Draws per family in ``fits.families``.
FAMILY_FIT_N = 1000


def blend(key):
    tail, body, weight = key.split("/")
    return BlendedModel(parse_copula(tail), parse_copula(body), parse_weighting(weight))


def array(a):
    """An array's (text, numbers): its bytes, and its values."""
    return a.tobytes().hex(), a


def value(x):
    """A Python number's or tuple's (text, numbers): its repr, and itself."""
    return repr(x), x


def fit(res):
    """A ``FitResult``'s (text, numbers), its numbers in named parts."""
    return fit_text(res), {"params": res.params, "loglik": res.loglik, "cov": res.cov}


def fit_text(res):
    # the repr, then ``params``, which were appended when the repr rounded
    # them. A blend's flat params are written as the former
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
                data = fitting.Dataset.from_array(model.sample(FIT_N, rng))
                for comp in (model.tail, model.body):
                    yield fit(fitting.fit(comp.tag, data))
                yield fit(fitting.fit(spec, data, model.params, restarts=1))
                yield fit(fitting.fit(spec, data, restarts=3))


def fits_families():
    for text in FAMILY_SPECS:
        cop = parse_copula(text)
        draws = cop.sample(FAMILY_FIT_N, np.random.default_rng(DRAW_SEED))
        yield fit(fitting.fit(cop.tag, fitting.Dataset.from_array(draws)))


fits_families.__name__ = "fits.families"
#: Its entries' names, which ``--compare`` prints for each entry that moved.
fits_families.labels = FAMILY_SPECS


def margins():
    for key in BLENDS:
        model = blend(key)
        yield value(model.norm_constants)
        for m in (model._axis_model(axis)._margin for axis in (0, 1)):
            for table in (m.x, m.pdf, m.cdf, m.sf, m.level):
                yield array(table)


def chi_eta():
    for obj in [blend(key) for key in BLENDS] + [parse_copula(text) for text in SINGLES]:
        for r in dependence.DEFAULT_R_GRID:
            yield value(dependence.chi_eta(obj, r))


def copula_cdf():
    u, v = np.meshgrid(LATTICE, LATTICE, indexing="ij")
    for key in BLENDS:
        yield array(blend(key).cdf(u, v))


def quantiles():
    for key in QUANTILE_BLENDS:
        model = blend(key)
        for axis in (0, 1):
            yield array(model.marginal_quantile(axis, QUANTILE_LEVELS))


def draws():
    for text in FAMILY_SPECS:
        yield array(parse_copula(text).sample(500, np.random.default_rng(DRAW_SEED)))
    for key in BLENDS:
        yield array(blend(key).sample(2000, np.random.default_rng(DRAW_SEED)))


def points(answer, name=None):
    """The group, ``points.{name}``, of the method ``answer`` of each of
    ``POINT_BLENDS``; ``name`` defaults to ``answer``."""

    def group():
        u, v = np.meshgrid(POINT_LEVELS, POINT_LEVELS, indexing="ij")
        for key in POINT_BLENDS:
            yield array(getattr(blend(key), answer)(u, v))

    group.__name__ = f"points.{name or answer}"
    return group


FAMILY_ANSWERS = ("logpdf", "cdf", "survival", "cond_cdf", "cond_quantile")


def points_families():
    u, v = np.meshgrid(POINT_LEVELS, POINT_LEVELS, indexing="ij")
    for text in FAMILY_SPECS:
        cop = parse_copula(text)
        for answer in FAMILY_ANSWERS:
            yield array(getattr(cop, answer)(u, v))


points_families.__name__ = "points.families"
points_families.labels = [f"{text} {answer}" for text in FAMILY_SPECS for answer in FAMILY_ANSWERS]


def digest(group, numbers):
    """The group's hash; each entry's numbers are appended to ``numbers``
    as a dict of named parts, and a failure replaces them with the
    exception's text."""
    h = hashlib.sha256()
    try:
        for text, values in group():
            h.update(text.encode())
            h.update(b"\n")
            parts = values if isinstance(values, dict) else {"values": values}
            numbers.append({k: np.ravel(v).astype(float).tolist() for k, v in parts.items()})
    except Exception as exc:  # a failure is part of the fingerprint
        h.update(f"{type(exc).__name__}: {exc}".encode())
        numbers[:] = [f"{type(exc).__name__}: {exc}"]
    return h.hexdigest()


def gaps(now, then):
    """The largest absolute and relative change of the numbers ``now``
    against ``then``; NaN in both places is no change."""
    a, b = np.array(now, dtype=float), np.array(then, dtype=float)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    gap = np.where(same, 0.0, np.abs(a - b))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(same, 0.0, gap / np.abs(b))
    return gap.max(initial=0.0), rel.max(initial=0.0)


def change(now, then, labels=None):
    """(text, same): the change of a group's entries ``now`` against
    ``then``, as text, the largest over the group and how many entries
    moved, then, where the entries have ``labels``, one line per entry
    that moved with the largest change of each of its parts; and whether
    every entry compares and none moved."""
    def sizes(entries):
        return [{k: len(x) for k, x in e.items()} if isinstance(e, dict) else e for e in entries]

    if sizes(now) != sizes(then) or any(isinstance(e, str) for e in now):
        return "does not compare: a failure or another count of numbers", False

    def flat(entries):
        return [x for e in entries for part in e.values() for x in part]

    def text(pair):
        return "%.3g absolute, %.3g relative" % pair

    moved = [i for i, (a, b) in enumerate(zip(now, then)) if gaps(flat([a]), flat([b])) != (0.0, 0.0)]
    lines = [f"largest change {text(gaps(flat(now), flat(then)))}; {len(moved)} of {len(now)} entries moved"]
    for i in moved if labels else ():
        parts = (f"{k} {text(gaps(now[i][k], then[i][k]))}" for k in now[i])
        lines.append(f"    {labels[i]}: " + "; ".join(parts))
    return "\n".join(lines), not moved


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--dump", metavar="PATH", help="write each group's numbers as JSON")
    p.add_argument("--compare", metavar="PATH", help="print each group's change against a dump")
    args = p.parse_args()
    if sorted(parse_copula(text).tag for text in FAMILY_SPECS) != sorted(FAMILIES):
        raise SystemExit("FAMILY_SPECS must name every family once")
    then = {}
    if args.compare:
        with open(args.compare) as f:
            then = json.load(f)
    answers = [points("logpdf"), points("survival"), points("cdf", "copula_cdf")]
    dumped = {}
    identical = True
    groups = (fits, fits_families, margins, chi_eta, copula_cdf, draws, quantiles, *answers,
              points_families)
    for group in groups:
        numbers = dumped[group.__name__] = []
        line = f"{group.__name__:<17} {digest(group, numbers)}"
        if args.compare:
            text, same = change(numbers, then.get(group.__name__, ["missing"]),
                                getattr(group, "labels", None))
            line += "  " + text
            identical &= same
        print(line, flush=True)
    if args.dump:
        with open(args.dump, "w") as f:
            json.dump(dumped, f)
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
