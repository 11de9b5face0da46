"""Maximum-likelihood fitting of single copulas and blended models.

The likelihood of a blended model depends on its parameters through
numerically built normalising constants and marginal tables. Every rule
behind them is fixed, so the log-likelihood is smooth in the parameters,
though no closed-form gradient exists. It is maximised by BFGS (Nocedal &
Wright, *Numerical Optimization*, 2006, ch. 6) on forward-difference
gradients over an unconstrained reparameterisation, restarted from
jittered initial points. Each ``families.Parametric`` class states its
parameters' domains, whose maps lead onto the real line, and its default
``start`` for the data's Kendall's tau, so this module names no family.

Standard errors come from a central-difference Hessian of the
log-likelihood in the unconstrained coordinates at the optimum, in k^2 + k
evaluations for k parameters, mapped to the parameters by the delta
method.

``fit`` fits every model, blend or single copula, from one flat vector
through one core, ``_fit``, and one likelihood, ``log_likelihood``: each
log-density is floored at log(1e-300) either way, so the AICs of blended
and single-copula fits to the same data are comparable.
"""
from __future__ import annotations

import re
import time
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.optimize import minimize
from scipy.stats import kendalltau

from .blend import BlendedModel
from .errors import BlendcopError, FitError, InputError, ParameterError
from .families import Model, clamp_unit, family_class, generator, is_vector, whole_number
from .quadrature import readonly
from .weighting import weighting_class

#: Floor of every log-density in the likelihood, blend or single copula.
_LOG_FLOOR = np.log(1e-300)
#: Budget of objective evaluations of one fit: every start, gradient
#: probe and Hessian probe counts against it.
_MAX_EVALUATIONS = 2000
#: BFGS stops once no gradient entry in the unconstrained coordinates
#: exceeds this (``gtol``).
_GTOL = 1e-3
#: Step in the unconstrained coordinates of the central-difference Hessian
#: and of the delta method's derivative of each ``Domain.backward``.
_HESSIAN_STEP = 1e-3
#: Half-width of the uniform jitter added to the unconstrained start
#: point to make each restart after the first.
_JITTER = 0.3
#: Seed of the jitter, so a fit is reproducible.
_SEED = 0


@dataclass(frozen=True)
class Dataset:
    """Pseudo-observations on (0, 1) margins.

    Values must lie in [0, 1]; they are clamped to [CLAMP, 1 - CLAMP].
    NaN, a value outside [0, 1], coordinate arrays that are not 1-d and
    of equal length, or fewer than two observations raise ``InputError``.
    ``u`` and ``v`` are the checked copies, read-only, and a dataset's
    fields cannot be reassigned, so its points stay checked: the
    likelihood hands them to each model's private log-density, which
    does not check them again.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = clamp_unit(self.u, "pseudo-observations u")
        v = clamp_unit(self.v, "pseudo-observations v")
        if np.shape(u) != np.shape(v) or np.ndim(u) != 1:
            raise InputError("dataset needs two equal-length 1-d coordinate arrays")
        if u.size < 2:
            raise InputError("dataset needs at least two observations")
        readonly(u, v)
        # the fields are frozen, so the checked arrays are set here once
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return len(self.u)

    @classmethod
    def from_array(cls, arr) -> "Dataset":
        """Dataset from an (n, 2) array; any other shape raises
        ``InputError``."""
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InputError(f"dataset needs an (n, 2) array, got shape {arr.shape}")
        return cls(arr[:, 0], arr[:, 1])

    def kendall_tau(self) -> float:
        return float(kendalltau(self.u, self.v).statistic)


#: A blend spec, ``tail+body:weighting``, or a copula family's tag.
_SPEC = re.compile(r"([^+:]+)\+([^+:]+):([^+:]+)|[^+:]+")


@dataclass
class FitResult:
    """A fitted model. ``k``, ``aic`` and ``evaluations`` are derived from
    ``cov``, ``loglik`` and ``trace``, so they cannot disagree with them."""

    model: Model  # fitted BlendedModel or Copula
    label: str
    loglik: float
    converged: bool
    #: (params, log-likelihood) of every objective evaluation, in order
    trace: list
    warnings: list
    seconds: float
    #: (k, k) covariance of the parameters in ``params`` order; NaN when it
    #: could not be estimated.
    cov: np.ndarray

    @property
    def params(self):
        return self.model.params

    @property
    def k(self) -> int:
        return len(self.cov)

    @property
    def aic(self) -> float:
        return aic(self.loglik, self.k)

    @property
    def evaluations(self) -> int:
        return len(self.trace)

    @property
    def stderr(self) -> np.ndarray:
        """Standard errors of the parameters, in ``cov``'s order."""
        return np.sqrt(np.diag(self.cov))


def aic(loglik: float, k: int) -> float:
    """Akaike information criterion 2k - 2*loglik; a k that is not a
    whole number >= 1 raises ``InputError``."""
    return 2.0 * whole_number(k, 1, "AIC needs k >= 1 parameters") - 2.0 * float(loglik)


def log_likelihood(model: Model, data: Dataset) -> float:
    """Sum of log copula densities over the observations, each floored
    at log(1e-300)."""
    return log_likelihood_detail(model, data)[0]


def log_likelihood_detail(model: Model, data: Dataset):
    """(loglik, number of floor-clamped densities) of a blend or a single
    copula. The data's points were checked and clamped once, by
    ``Dataset``, so each evaluation reads them through the model's
    ``_clamped_logpdf``: the values of ``logpdf`` without its second
    check."""
    vals = model._clamped_logpdf(data.u, data.v)
    clamped = int(np.count_nonzero(vals < _LOG_FLOOR))
    return float(np.sum(np.maximum(vals, _LOG_FLOOR))), clamped


class _BudgetSpent(Exception):
    """An evaluation was asked for after the fit's budget ran out."""


class _Objective:
    """Negative log-likelihood over the unconstrained parameter vector,
    with a shared evaluation counter, trace and best point.

    ``evaluate(params)`` returns (log-likelihood, model); the model of the
    best point is kept, and only that one. A parameter vector the model
    cannot evaluate (a package error or a floating-point failure) scores
    -inf log-likelihood and is counted in ``failures`` under its exception
    type's name, with the first message; any other exception is a fault
    and propagates. An evaluation past ``budget`` raises ``_BudgetSpent``.
    """

    def __init__(self, evaluate, domains, budget=np.inf):
        self._eval = evaluate
        self.domains = domains
        self.budget = budget
        #: (params, log-likelihood) of every evaluation
        self.trace = []
        self.failures = {}
        #: (value, z, model) of the lowest value seen; the first of equals
        self.best = (np.inf, None, None)

    @property
    def evaluations(self) -> int:
        return len(self.trace)

    def __call__(self, z):
        if self.evaluations >= self.budget:
            raise _BudgetSpent
        params = tuple(float(d.backward(zi)) for d, zi in zip(self.domains, z))
        try:
            ll, model = self._eval(params)
            failure = None if np.isfinite(ll) else ("non-finite", f"log-likelihood {ll!r}")
        except (BlendcopError, ArithmeticError) as exc:
            failure = (type(exc).__name__, str(exc))
        if failure is not None:
            ll = -np.inf
            self.failures.setdefault(failure[0], [0, failure[1]])[0] += 1
        self.trace.append((params, ll))
        if -ll < self.best[0]:
            self.best = (-ll, np.array(z, dtype=float), model)
        return -ll


def _covariance(objective, z, fun):
    """Covariance of the parameters at the optimum ``z`` of ``objective``,
    whose value there is ``fun``: the inverse of a central-difference
    Hessian in the unconstrained coordinates, mapped to the parameters by
    the delta method. Returns (covariance, None), or a NaN covariance and
    the reason when the budget runs out or the Hessian is not finite and
    positive definite.

    The Hessian costs k^2 + k evaluations: the 2k axis probes f(z +- h e_i)
    give the diagonal, and each pair i, j adds f(z + h e_i + h e_j) and
    f(z - h e_i - h e_j) to them in the symmetric 7-point formula
      H_ij = [f_ij^+ - f_i^+ - f_j^+ + 2 f - f_i^- - f_j^- + f_ij^-] / 2h^2,
    whose error is O(h^2) like the diagonal's."""
    k = len(z)
    h = _HESSIAN_STEP
    e = h * np.eye(k)
    hess = np.empty((k, k))
    try:
        plus = [objective(z + e[i]) for i in range(k)]
        minus = [objective(z - e[i]) for i in range(k)]
        for i in range(k):
            hess[i, i] = (plus[i] - 2.0 * fun + minus[i]) / h**2
            for j in range(i):
                pp, mm = objective(z + e[i] + e[j]), objective(z - e[i] - e[j])
                axes = plus[i] + plus[j] - 2.0 * fun + minus[i] + minus[j]
                hess[i, j] = hess[j, i] = (pp - axes + mm) / (2.0 * h**2)
    except _BudgetSpent:
        return np.full((k, k), np.nan), f"the budget of {objective.budget} evaluations ran out"
    if not np.all(np.isfinite(hess)) or np.linalg.eigvalsh(hess)[0] <= 0.0:
        return np.full((k, k), np.nan), (
            "the log-likelihood's Hessian at the optimum is not finite and negative "
            "definite, so some parameter is not identified there"
        )
    slopes = np.array([(d.backward(zi + h) - d.backward(zi - h)) / (2.0 * h)
                       for d, zi in zip(objective.domains, z)])
    return np.linalg.inv(hess) * np.outer(slopes, slopes), None


def _fit(label, domains, init, make, data, restarts):
    """Maximise the log-likelihood of ``make(params)`` over the
    unconstrained parameters by BFGS, from ``init`` and ``restarts - 1``
    jittered copies of it, then estimate the covariance at the best point
    evaluated. The result's model is the one that point's evaluation
    made, not a second one; ``log_likelihood_detail`` of it gives the
    log-likelihood and the floor count. A spent evaluation budget ends the
    search early, not converged."""
    whole_number(restarts, 1, "a fit needs at least one start (restarts)")
    t0 = time.perf_counter()

    def evaluate(params):
        # looks the module-level ``log_likelihood`` up at each evaluation,
        # so a replacement of that name sees every evaluation
        model = make(params)
        return log_likelihood(model, data), model

    objective = _Objective(evaluate, domains, _MAX_EVALUATIONS)
    z0 = np.array([d.forward(p) for d, p in zip(domains, init)], dtype=float)
    rng = generator(_SEED)
    starts = [z0] + [z0 + rng.uniform(-_JITTER, _JITTER, size=len(z0)) for _ in range(restarts - 1)]
    try:
        # a -inf score is counted in ``failures``; numdiff's difference of
        # two of them, inf - inf, would only repeat it as a RuntimeWarning
        with np.errstate(invalid="ignore"):
            runs = [
                minimize(objective, start, method="BFGS", jac="2-point", options={"gtol": _GTOL})
                for start in starts
            ]
        converged = bool(min(runs, key=lambda res: res.fun).success)
    except _BudgetSpent:
        converged = False
    fun, z, model = objective.best
    if not np.isfinite(fun):
        raise FitError("no restart produced a finite log-likelihood")
    cov, trouble = _covariance(objective, z, fun)
    warnings = [
        f"{count} evaluations scored -inf on {name}, the first: {message}"
        for name, (count, message) in objective.failures.items()
    ]
    if trouble:
        warnings.append(f"no standard errors: {trouble}")
    ll, clamped = log_likelihood_detail(model, data)
    if clamped > 0.01 * data.n:
        warnings.append(
            f"ill-conditioned likelihood: {clamped}/{data.n} densities at the 1e-300 floor"
        )
    return FitResult(
        model=model,
        label=label,
        loglik=ll,
        converged=converged,
        trace=objective.trace,
        warnings=warnings,
        seconds=time.perf_counter() - t0,
        cov=cov,
    )


def fit(spec: str, data: Dataset, start=None, restarts: int = 3) -> FitResult:
    """Maximum-likelihood fit of a copula family named by its tag
    (``"gumbel"``) or of a blend named ``tail+body:weighting``
    (``"gumbel+clayton:power"``), from ``start`` in ``params`` order (a
    blend's theta, then its tail's parameters, then its body's), or else
    from each class's ``start`` for the data's Kendall's tau. A bad spec,
    tag or start raises ``ParameterError``, and data without a Kendall's
    tau ``InputError``, before the first evaluation."""
    match = _SPEC.fullmatch(spec) if isinstance(spec, str) else None
    if match is None:
        raise ParameterError(f"cannot parse model spec {spec!r}; expected tag or tail+body:weighting")
    tail_tag, body_tag, weighting_tag = match.groups()
    if weighting_tag is None:
        classes = (family_class(spec),)
    else:
        classes = (weighting_class(weighting_tag), family_class(tail_tag), family_class(body_tag))
    domains = tuple(domain for cls in classes for _, domain in cls.param_domains)
    ends = list(accumulate(len(cls.param_domains) for cls in classes))
    runs = [slice(i, j) for i, j in zip([0, *ends], ends)]

    def parts(params):
        return [cls(*params[run]) for cls, run in zip(classes, runs)]

    def make(params):
        made = parts(params)
        return made[0] if len(made) == 1 else BlendedModel(made[1], made[2], made[0])

    if start is None:
        tau_hat = data.kendall_tau()
        if not np.isfinite(tau_hat):
            raise InputError(f"no default start for {spec}: Kendall's tau of the data is {tau_hat!r}")
        start = tuple(p for cls in classes for p in cls.start(tau_hat))
    else:
        # a given start of the wrong length or outside a domain fails here,
        # not as NaN in the unconstrained start; its parts check it without
        # the build a blend would run. A default start is in its domains.
        if not (is_vector(start) and len(start) == len(domains)):
            raise ParameterError(f"{spec} takes {len(domains)} parameter(s), got {start!r}")
        parts(start)
    return _fit(spec, domains, start, make, data, restarts)


#: The spec of ``fit_mle``. It, ``fit_mle`` and ``fit_single_copula`` are
#: kept only because the benchmark's workloads call them.
FitSpec = namedtuple("FitSpec", "tail_tag body_tag weighting_tag initial restarts", defaults=(None, 3))


def fit_mle(spec: FitSpec, data: Dataset) -> FitResult:
    """``fit`` of the blend ``spec`` names; kept only for the benchmark,
    whose layer metrics read the ``fitting.fit_mle`` span."""
    return fit(f"{spec.tail_tag}+{spec.body_tag}:{spec.weighting_tag}", data, spec.initial, spec.restarts)


def fit_single_copula(tag: str, data: Dataset, restarts: int = 3) -> FitResult:
    """``fit`` of the copula family ``tag``; kept only for the benchmark."""
    return fit(tag, data, restarts=restarts)
