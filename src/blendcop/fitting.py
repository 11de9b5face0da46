"""Maximum-likelihood fitting of single copulas and blended models.

The likelihood of a blended model depends on its parameters through
numerically built normalising constants and marginal tables. Every rule
behind them is fixed, so the log-likelihood is smooth in the parameters,
though no closed-form gradient exists. It is maximised by BFGS (Nocedal &
Wright, *Numerical Optimization*, 2006, ch. 6) on forward-difference
gradients over an unconstrained reparameterisation, restarted from
jittered initial points. Each parameter's map onto the real line is read
from its ``families.Domain``, the one place that also states its range.
Tags are resolved through the registries before the first evaluation.

Standard errors come from a central-difference Hessian of the
log-likelihood in the unconstrained coordinates at the optimum, in k^2 + k
evaluations for k parameters, mapped to the parameters by the delta
method.

``fit_mle`` and ``fit_single_copula`` share one core, ``_fit``, and one
likelihood, ``log_likelihood``: each log-density is floored at
log(1e-300) whether the model is a blend or a single copula, so the AICs
of blended and single-copula fits to the same data are comparable.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.stats import kendalltau

from .blend import BlendedModel, ModelParams
from .errors import BlendcopError, FitError, InputError
from .families import CLAMP, Copula, family_class
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

# coarse inversion table for the elliptical tau(rho) map
_RHO_TABLE = np.linspace(-0.95, 0.95, 39)
_TAU_TABLE = 2.0 * np.arcsin(_RHO_TABLE) / np.pi


@dataclass
class Dataset:
    """Pseudo-observations on (0, 1) margins.

    Values must lie in [0, 1]; they are clamped to [CLAMP, 1 - CLAMP].
    NaN, a value outside [0, 1], coordinate arrays that are not 1-d and
    of equal length, or fewer than two observations raise ``InputError``.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        for name, arr in (("u", u), ("v", v)):
            bad = ~((arr >= 0.0) & (arr <= 1.0))
            if np.any(bad):
                raise InputError(
                    f"pseudo-observations must lie in [0, 1]: {name} has "
                    f"{np.count_nonzero(bad)} values that are NaN or outside, "
                    f"the first {float(arr[bad].flat[0])!r}"
                )
        self.u = np.clip(u, CLAMP, 1.0 - CLAMP)
        self.v = np.clip(v, CLAMP, 1.0 - CLAMP)
        if self.u.shape != self.v.shape or self.u.ndim != 1:
            raise InputError("dataset needs two equal-length 1-d coordinate arrays")
        if self.n < 2:
            raise InputError("dataset needs at least two observations")

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


@dataclass
class FitSpec:
    tail_tag: str
    body_tag: str
    weighting_tag: str
    initial: ModelParams | None = None
    restarts: int = 3


@dataclass
class FitResult:
    """A fitted model. ``k``, ``aic`` and ``evaluations`` are derived from
    ``cov``, ``loglik`` and ``trace``, so they cannot disagree with them."""

    model: object  # fitted BlendedModel or Copula
    label: str
    loglik: float
    converged: bool
    #: (params, log-likelihood) of every objective evaluation, in order
    trace: list
    warnings: list
    seconds: float
    #: (k, k) covariance of the parameters in ``params.flatten()`` order
    #: (a copula's ``params`` order); NaN when it could not be estimated.
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
    """Akaike information criterion 2k - 2*loglik."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return 2.0 * k - 2.0 * float(loglik)


def log_likelihood(model: BlendedModel | Copula, data: Dataset) -> float:
    """Sum of log copula densities over the observations, each floored
    at log(1e-300)."""
    return log_likelihood_detail(model, data)[0]


def log_likelihood_detail(model: BlendedModel | Copula, data: Dataset):
    """(loglik, number of floor-clamped densities) of a blend or a single
    copula."""
    vals = model.logpdf(data.u, data.v)
    clamped = int(np.count_nonzero(vals < _LOG_FLOOR))
    return float(np.sum(np.maximum(vals, _LOG_FLOOR))), clamped


def _to_unconstrained(domains, params):
    return np.asarray([d.forward(p) for d, p in zip(domains, params)], dtype=float)


def _from_unconstrained(domains, z):
    return tuple(float(d.backward(zi)) for d, zi in zip(domains, z))


def _domains(family):
    return tuple(domain for _, domain in family.param_domains)


def _rho_from_tau(tau_hat: float) -> float:
    return float(np.interp(tau_hat, _TAU_TABLE, _RHO_TABLE))


def _default_family_params(tag: str, tau_hat: float):
    if not np.isfinite(tau_hat):
        raise InputError(f"no default start for {tag}: Kendall's tau of the data is {tau_hat!r}")
    if tag == "gaussian":
        return (_rho_from_tau(tau_hat),)
    if tag == "student_t":
        return (_rho_from_tau(tau_hat), 5.0)
    if tag == "frank":
        # frank's map (families.NONZERO) is the identity, so z = 0 is alpha = 0,
        # outside the domain, and scores -inf. It stays: no continuous map of
        # the real line onto the nonzero reals reaches both signs, and a
        # search that crosses 0 lands on it only by hitting it exactly.
        return (9.0 * tau_hat if abs(tau_hat) > 0.06 else (0.5 if tau_hat >= 0 else -0.5),)
    if tag in ("joe", "gumbel", "inverted_gumbel"):
        return (1.5,)
    if tag == "clayton":
        return (1.5,)
    if tag in ("husler_reiss", "galambos"):
        return (1.0,)
    if tag == "coles_tawn":
        return (1.0, 1.0)
    raise ValueError(f"no default initial for family {tag!r}")


class _BudgetSpent(Exception):
    """An evaluation was asked for after the fit's budget ran out."""


class _Objective:
    """Negative log-likelihood over the unconstrained parameter vector,
    with a shared evaluation counter, trace and best point.

    A parameter vector the model cannot evaluate (a package error or a
    floating-point failure) scores -inf log-likelihood and is counted in
    ``failures`` under its exception type's name, with the first message;
    any other exception is a fault and propagates. An evaluation past
    ``budget`` raises ``_BudgetSpent``.
    """

    def __init__(self, build_and_loglik, domains, budget=np.inf):
        self._eval = build_and_loglik
        self.domains = domains
        self.budget = budget
        #: (params, log-likelihood) of every evaluation
        self.trace = []
        self.failures = {}
        #: (value, z) of the lowest value seen; the first of equals
        self.best = (np.inf, None)

    @property
    def evaluations(self) -> int:
        return len(self.trace)

    def __call__(self, z):
        if self.evaluations >= self.budget:
            raise _BudgetSpent
        params = _from_unconstrained(self.domains, z)
        try:
            ll = self._eval(params)
            failure = None if np.isfinite(ll) else ("non-finite", f"log-likelihood {ll!r}")
        except (BlendcopError, ArithmeticError) as exc:
            failure = (type(exc).__name__, str(exc))
        if failure is not None:
            ll = -np.inf
            self.failures.setdefault(failure[0], [0, failure[1]])[0] += 1
        self.trace.append((params, ll))
        if -ll < self.best[0]:
            self.best = (-ll, np.array(z, dtype=float))
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
    evaluated and refit that point through ``log_likelihood_detail``. A
    spent evaluation budget ends the search early, not converged."""
    if restarts < 1:
        raise InputError(f"a fit needs at least one start, got restarts = {restarts!r}")
    t0 = time.perf_counter()
    # looks the module-level ``log_likelihood`` up at each evaluation, so a
    # replacement of that name sees every evaluation
    objective = _Objective(
        lambda params: log_likelihood(make(params), data), domains, _MAX_EVALUATIONS
    )
    z0 = _to_unconstrained(domains, init)
    rng = np.random.default_rng(_SEED)
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
    fun, z = objective.best
    if not np.isfinite(fun):
        raise FitError("no restart produced a finite log-likelihood")
    cov, trouble = _covariance(objective, z, fun)
    warnings = [
        f"{count} evaluations scored -inf on {name}, the first: {message}"
        for name, (count, message) in objective.failures.items()
    ]
    if trouble:
        warnings.append(f"no standard errors: {trouble}")
    params = _from_unconstrained(domains, z)
    model = make(params)
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


def fit_mle(spec: FitSpec, data: Dataset) -> FitResult:
    """Maximum-likelihood fit of a blended model."""
    tail = family_class(spec.tail_tag)
    body = family_class(spec.body_tag)
    weighting = weighting_class(spec.weighting_tag)
    init = spec.initial
    if init is None:
        tau_hat = data.kendall_tau()
        init = ModelParams(
            1.0,
            _default_family_params(spec.tail_tag, tau_hat),
            _default_family_params(spec.body_tag, tau_hat),
        )
    # a start point of the wrong length or outside a domain fails here,
    # not as NaN in the unconstrained start
    tail(*init.tail), body(*init.body), weighting(init.theta)
    n_tail = len(init.tail)

    def make(params):
        return BlendedModel(
            tail(*params[1 : 1 + n_tail]), body(*params[1 + n_tail :]), weighting(params[0])
        )

    domains = (weighting.domain,) + _domains(tail) + _domains(body)
    label = f"{spec.tail_tag}+{spec.body_tag}:{spec.weighting_tag}"
    return _fit(label, domains, init.flatten(), make, data, spec.restarts)


def fit_single_copula(tag: str, data: Dataset, restarts: int = 3) -> FitResult:
    """Maximum-likelihood fit of one copula family."""
    family = family_class(tag)
    init = _default_family_params(tag, data.kendall_tau())
    return _fit(tag, _domains(family), init, lambda params: family(*params), data, restarts)
