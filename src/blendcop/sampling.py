"""Exact sampling from the blended density and its induced copula.

The blended density is a two-component mixture whose components are the
weight-tilted copula densities; each is simulated by rejection from the
corresponding copula with acceptance probability equal to the weight (or
its complement), so no envelope constants beyond the normalising
integrals are needed. Acceptance bookkeeping keeps the originating
component of every point. A blend's ``sample`` pushes these draws
through its marginal CDFs, so it draws from the induced copula. This
module does not import ``blend``, which calls it: ``BlendedModel`` in
its annotations, which are never evaluated, names that class.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SamplingError
from .families import generator, whole_number

TAIL, BODY = "tail", "body"
#: Proposals per stream in the first round, as a multiple of n_target / K.
_OVERSAMPLE = 1.3


@dataclass(frozen=True)
class SampleRequest:
    """``n_target`` draws of ``model``'s blended density from ``seed``: a
    seed, None or a numpy Generator. Both are checked on construction, and
    any other ``n_target`` or ``seed`` raises ``InputError``; the fields
    cannot be reassigned, so they stay checked. ``rng``
    takes ``seed`` through ``families.generator`` at each call, so a seed
    gives a fresh Generator each time and a Generator is drawn from as it
    is."""

    model: BlendedModel
    n_target: int
    seed: int | np.random.Generator | None = None

    def __post_init__(self):
        whole_number(self.n_target, 0, "n_target must be nonnegative")
        generator(self.seed)

    def rng(self) -> np.random.Generator:
        return generator(self.seed)


def rejection_round(model: BlendedModel, n: int, rng: np.random.Generator):
    """One round of the two-stream rejection step.

    Draws n proposals from the tail copula, keeping each where a uniform
    falls strictly below the weight, and n proposals from the body
    copula, keeping each where a uniform falls strictly below the
    complement. Returns the two accepted arrays.
    """
    proposals_t = model.tail.sample(n, rng)
    keep_t = rng.random(n) < model.weighting(proposals_t[:, 0], proposals_t[:, 1])
    proposals_b = model.body.sample(n, rng)
    keep_b = rng.random(n) < 1.0 - model.weighting(proposals_b[:, 0], proposals_b[:, 1])
    return proposals_t[keep_t], proposals_b[keep_b]


def sample_cstar(req: SampleRequest):
    """Exactly ``n_target`` draws from the blended density with origin tags.

    Proposal count starts at ceil(_OVERSAMPLE * n_target / K) per stream
    and doubles on shortfall; after two doublings a persistent shortfall
    is an error. The pooled accepted draws are cut to size by taking the
    prefix of a random permutation, preserving exchangeability.
    """
    model = req.model
    rng = req.rng()
    K, _, _ = model.norm_constants
    if req.n_target == 0:
        return np.empty((0, 2)), np.empty(0, dtype=object)
    n = int(np.ceil(_OVERSAMPLE * req.n_target / K))
    pool = []
    tags = []
    for _ in range(3):
        acc_t, acc_b = rejection_round(model, n, rng)
        pool.append(acc_t)
        tags.append(np.full(len(acc_t), TAIL, dtype=object))
        pool.append(acc_b)
        tags.append(np.full(len(acc_b), BODY, dtype=object))
        total = sum(len(p) for p in pool)
        if total >= req.n_target:
            break
        n *= 2
    else:
        raise SamplingError(
            f"rejection sampler shortfall: {total} accepted draws after two doublings, "
            f"needed {req.n_target}"
        )
    points = np.vstack(pool)
    origins = np.concatenate(tags)
    keep = rng.permutation(len(points))[: req.n_target]
    return points[keep], origins[keep]


def sample_blended_copula(model: BlendedModel, n: int, rng: np.random.Generator):
    """``model.sample(n, rng)``, kept only because bench/ calls it."""
    return model.sample(n, rng)
