"""Maximum-likelihood fitting of single copulas and blended models.

The likelihood of a blended model depends on its parameters through
numerically built normalising constants and marginal tables, so no
gradients are available; optimisation is Nelder-Mead over
an unconstrained reparameterisation (logs for positive parameters and
the weight, log(alpha - 1) for families needing alpha > 1, Fisher-z for
correlations), restarted from jittered initial points.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.stats import kendalltau

from .blend import BlendedModel, ModelParams
from .errors import BlendcopError, FitError, InputError
from .families import CLAMP, Copula, make_copula
from .weighting import make_weighting

_LOG_FLOOR = np.log(1e-300)

#: Unconstrained reparameterisation per family, one entry per parameter.
_TRANSFORMS = {
    "gaussian": ("fisher",),
    "student_t": ("fisher", "log"),
    "frank": ("identity",),
    "clayton": ("log",),
    "joe": ("log_shift1",),
    "gumbel": ("log_shift1",),
    "inverted_gumbel": ("log_shift1",),
    "husler_reiss": ("log",),
    "galambos": ("log",),
    "coles_tawn": ("log", "log"),
}

_FORWARD = {
    "identity": lambda x: x,
    "log": np.log,
    "log_shift1": lambda x: np.log(x - 1.0),
    "fisher": np.arctanh,
}
_BACKWARD = {
    "identity": lambda z: z,
    "log": np.exp,
    "log_shift1": lambda z: 1.0 + np.exp(z),
    "fisher": np.tanh,
}

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
                    f"the first {arr[bad].flat[0]!r}"
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
        arr = np.asarray(arr, dtype=float)
        return cls(arr[:, 0], arr[:, 1])

    def kendall_tau(self) -> float:
        return float(kendalltau(self.u, self.v).statistic)


@dataclass
class FitSpec:
    tail_tag: str
    body_tag: str
    weighting_tag: str
    initial: ModelParams | None = None
    max_evaluations: int = 2000
    xtol: float = 1e-4
    restarts: int = 3
    jitter: float = 0.3
    seed: int = 0


@dataclass
class FitResult:
    model: object  # fitted BlendedModel or Copula
    label: str
    loglik: float
    k: int
    aic: float
    evaluations: int
    converged: bool
    trace: list
    warnings: list
    seconds: float

    def __post_init__(self):
        if not abs(self.aic - (2.0 * self.k - 2.0 * self.loglik)) < 1e-9 * max(1.0, abs(self.aic)):
            raise ValueError(
                f"AIC identity violated: aic = {self.aic!r}, k = {self.k}, loglik = {self.loglik!r}"
            )

    @property
    def params(self):
        return self.model.params


def aic(loglik: float, k: int) -> float:
    """Akaike information criterion 2k - 2*loglik."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return 2.0 * k - 2.0 * float(loglik)


def log_likelihood(model: BlendedModel, data: Dataset) -> float:
    """Sum of log copula densities over the observations."""
    return log_likelihood_detail(model, data)[0]


def log_likelihood_detail(model: BlendedModel, data: Dataset):
    """(loglik, number of floor-clamped densities)."""
    vals = model.copula_logpdf(data.u, data.v)
    clamped = int(np.count_nonzero(vals < _LOG_FLOOR))
    return float(np.sum(np.maximum(vals, _LOG_FLOOR))), clamped


def _to_unconstrained(tags, params):
    out = []
    for tag, p in zip(tags, params):
        out.append(_FORWARD[tag](p))
    return np.asarray(out, dtype=float)


def _from_unconstrained(tags, z):
    return tuple(float(_BACKWARD[tag](zi)) for tag, zi in zip(tags, z))


def _rho_from_tau(tau_hat: float) -> float:
    return float(np.interp(tau_hat, _TAU_TABLE, _RHO_TABLE))


def _default_family_params(tag: str, tau_hat: float):
    if tag == "gaussian":
        return (_rho_from_tau(tau_hat),)
    if tag == "student_t":
        return (_rho_from_tau(tau_hat), 5.0)
    if tag == "frank":
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


class _Objective:
    """Negative log-likelihood over the unconstrained parameter vector,
    with a shared evaluation counter and trace.

    A parameter vector the model cannot evaluate (a package error or a
    floating-point failure) scores -inf log-likelihood; any other
    exception is a fault and propagates.
    """

    def __init__(self, build_and_loglik, tags):
        self._eval = build_and_loglik
        self.tags = tags
        self.evaluations = 0
        self.trace = []

    def __call__(self, z):
        self.evaluations += 1
        params = _from_unconstrained(self.tags, z)
        try:
            ll = self._eval(params)
        except (BlendcopError, ArithmeticError):
            ll = -np.inf
        if not np.isfinite(ll):
            ll = -np.inf
        self.trace.append((params, ll))
        return -ll


def _run_restarts(objective, z0, spec_seed, restarts, jitter, max_evaluations, xtol):
    rng = np.random.default_rng(spec_seed)
    starts = [np.asarray(z0, dtype=float)]
    for _ in range(max(0, restarts - 1)):
        starts.append(starts[0] + rng.uniform(-jitter, jitter, size=len(z0)))
    best = None
    converged = False
    for start in starts:
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "maxfev": max_evaluations,
                "xatol": xtol,
                "fatol": 1e-6,
                "initial_simplex": None,
            },
        )
        if best is None or res.fun < best.fun:
            best = res
            converged = bool(res.success)
    if best is None or not np.isfinite(best.fun):
        raise FitError("no restart produced a finite log-likelihood")
    return best, converged


def fit_mle(spec: FitSpec, data: Dataset) -> FitResult:
    """Maximum-likelihood fit of a blended model."""
    t0 = time.perf_counter()
    tau_hat = data.kendall_tau()
    template = BlendedModel(
        make_copula(spec.tail_tag, _default_family_params(spec.tail_tag, tau_hat)),
        make_copula(spec.body_tag, _default_family_params(spec.body_tag, tau_hat)),
        make_weighting(spec.weighting_tag, 1.0),
    )
    if spec.initial is not None:
        init = spec.initial
    else:
        init = ModelParams(1.0, template.tail.params, template.body.params)
    tags = (
        ("log",)
        + _TRANSFORMS[spec.tail_tag]
        + _TRANSFORMS[spec.body_tag]
    )
    n_tail = len(template.tail.params)

    def build_and_loglik(params):
        theta = params[0]
        tail_p = params[1 : 1 + n_tail]
        body_p = params[1 + n_tail :]
        model = template.with_params(theta, tail_p, body_p).build()
        return log_likelihood(model, data)

    objective = _Objective(build_and_loglik, tags)
    z0 = _to_unconstrained(tags, init.flatten())
    best, converged = _run_restarts(
        objective, z0, spec.seed, spec.restarts, spec.jitter, spec.max_evaluations, spec.xtol
    )
    params = _from_unconstrained(tags, best.x)
    model = template.with_params(params[0], params[1 : 1 + n_tail], params[1 + n_tail :]).build()
    ll, clamped = log_likelihood_detail(model, data)
    warnings = []
    if clamped > 0.01 * data.n:
        warnings.append(
            f"ill-conditioned likelihood: {clamped}/{data.n} densities at the 1e-300 floor"
        )
    k = 1 + len(template.tail.params) + len(template.body.params)
    label = f"{spec.tail_tag}+{spec.body_tag}:{spec.weighting_tag}"
    return FitResult(
        model=model,
        label=label,
        loglik=ll,
        k=k,
        aic=aic(ll, k),
        evaluations=objective.evaluations,
        converged=converged,
        trace=objective.trace,
        warnings=warnings,
        seconds=time.perf_counter() - t0,
    )


def fit_single_copula(
    tag: str,
    data: Dataset,
    initial=None,
    max_evaluations: int = 2000,
    xtol: float = 1e-4,
    restarts: int = 3,
    jitter: float = 0.3,
    seed: int = 0,
) -> FitResult:
    """Maximum-likelihood fit of one copula family."""
    t0 = time.perf_counter()
    tags = _TRANSFORMS[tag]
    init = tuple(initial) if initial is not None else _default_family_params(tag, data.kendall_tau())

    def loglik(params):
        cop = make_copula(tag, params)
        return float(np.sum(cop.logpdf(data.u, data.v)))

    objective = _Objective(loglik, tags)
    z0 = _to_unconstrained(tags, init)
    best, converged = _run_restarts(objective, z0, seed, restarts, jitter, max_evaluations, xtol)
    params = _from_unconstrained(tags, best.x)
    cop = make_copula(tag, params)
    ll = loglik(params)
    k = len(params)
    return FitResult(
        model=cop,
        label=tag,
        loglik=ll,
        k=k,
        aic=aic(ll, k),
        evaluations=objective.evaluations,
        converged=converged,
        trace=objective.trace,
        warnings=[],
        seconds=time.perf_counter() - t0,
    )
