"""The benchmark's three workloads: fit, sample and diagnose.

Each workload has a ``setup`` (model builds, seeded input generation and
reference loading) and a ``run_round`` that performs a fixed list of
operations. An operation is one call into blendcop plus the checks of its
output; only the call is timed. Every round of a run repeats the same
operations on the same inputs, so a run attempts whole rounds and its
share of failed operations never changes.

Checks compare against ``reference.json``, written by ``reference.py``
without the package, or against a property the method must have.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats

# calls go through the module attributes, so the traced run sees them
from blendcop import blend, dependence, families, fitting, sampling, weighting

#: Binomial standard errors allowed between a Monte Carlo share and its
#: reference; at 6 the chance of a false failure is 2e-9 per comparison.
N_SE = 6.0
#: Smallest Kolmogorov-Smirnov p-value accepted for a uniform margin.
KS_P_MIN = 1e-8
#: Relative tolerance on chi and eta. Tight enough that the interpolation
#: error of the marginal quantile near the top of the grid (F2) shows.
CHI_RTOL = 2e-3
#: Absolute tolerance on copula_cdf; the rule behind it ignores the mass
#: below eps = 1e-6 on each axis.
CDF_ATOL = 1e-5
#: Absolute tolerance on the anchor log-likelihood at the generating model.
LOGLIK_ATOL = 1e-3

#: About the gauge's time, taken as run.py takes it, in calm runs on the
#: 2-core 2.0 GHz VM the bounds were set on. Timings are scaled by it over the
#: gauge's time in the run, so that they read as seconds on that machine
#: at its usual speed.
GAUGE_REF_S = 0.002
_GAUGE_X = np.linspace(0.01, 0.99, 64)
_GAUGE_U = np.linspace(0.001, 0.999, 2000)
_GAUGE_T = (stats.t(4.0), stats.t(5.0))


def _gauge_work():
    # the kinds of work blendcop spends its time in: scalar calls to
    # frozen scipy.stats distributions (as inside a quad integrand),
    # numpy arithmetic on a few dozen and on 2000 points, interpreted loops
    s = 0.0
    for t in (-1.5, 0.3, 2.0):
        s += _GAUGE_T[0].pdf(t) * _GAUGE_T[1].cdf(0.5 * t + 0.3)
    for _ in range(15):
        y = special.ndtri(_GAUGE_X)
        s += float(np.sum(np.exp(-y * y) * _GAUGE_X))
    y = special.ndtri(_GAUGE_U)
    s += float(np.sum(np.log1p(np.exp(-y * y))))
    for i in range(1500):
        s += i * i % 7
    return s


def gauge():
    """Time a fixed piece of work, in blendcop's own mix of interpreted
    Python, small numpy arithmetic and scipy.stats calls but calling none
    of it. Run before every timed call to gauge the machine's speed.

    On the machines this benchmark runs on, other tenants slow execution
    itself by up to 1.8x for half a minute or more, so a whole run can fall
    in a slow spell; the gauge slows with it, to within about 10 %. The
    work runs twice and both runs are timed: the first meets the caches as
    the program left them, so the gauge also slows when other tenants crowd
    the caches; the second finds them warm, which halves how much what the
    program left there can move the figure."""
    t0 = time.perf_counter()
    _gauge_work()
    _gauge_work()
    return time.perf_counter() - t0


#: Operations that fail every time because of a named fault in blendcop.
#: F1: ``BlendedModel.marginal_quantile`` raises ValueError for a blend with
#: a student_t component beyond the grid: ``_quantile_exact`` brackets d
#: down to target * 1e-10, where 1 - d rounds to 1 and ``StudentT._h``
#: returns NaN. F2: the grid CDF of ``marginal_quantile`` is off by about
#: 6e-7 in absolute terms near the top of ``marginal_grid``, so 1 - x is
#: wrong by about 6e-7 / (1 - q) relative: 0.4 % at 1 - q = 1.7e-4, 18 %
#: at 4e-6, 120 % at 6.3e-7 (chi), and 0.3 % at the anchor point
#: v = 0.999762, which moves the anchor log-likelihood by 2e-3 and 1.3e-2.
_F2_LEVELS = {
    "gumbel(2)/gaussian(0.5)/power(1.5)": (5, 6),
    "gumbel(2)/clayton(1)/power(0.8)": (4, 5, 6, 7),
    "husler_reiss(2)/frank(1)/exp_complement(1)": (4, 5, 6),
    "student_t(0.5,4)/clayton(1)/power(1)": (4, 5, 6, 7),
}
KNOWN_FAULTS = {
    **{f"diagnose/{key}/level{i}": "F2" for key, levels in _F2_LEVELS.items() for i in levels},
    **{f"diagnose/student_t(0.5,4)/clayton(1)/power(1)/level{i}": "F1" for i in (8, 9)},
    "fit/gumbel(2)/clayton(1)/power(0.8)/anchor-loglik": "F2",
    "fit/husler_reiss(2)/frank(1)/exp_complement(1)/anchor-loglik": "F2",
}


def _model(key):
    tail, body, weight = key.split("/")
    return blend.BlendedModel(
        families.parse_copula(tail), families.parse_copula(body), weighting.parse_weighting(weight)
    )


def _close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b)


@dataclass
class Op:
    """One operation: its timed call and the problems its checks found."""

    name: str
    problems: list = field(default_factory=list)
    seconds: float = 0.0  # the call alone
    segments: tuple = ()  # the call's time split where ``timed`` was told to
    gauge: float = 0.0  # time of gauge() run just before the call
    in_pass: bool = False  # counted in pass_s
    work: int = 0  # evaluations, draws or query points counted in throughput_per_s

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    @property
    def failed(self):
        return bool(self.problems)


def timed(op, fn, *args, in_pass=True, split_at=None):
    """Call fn, recording its wall time on op; return its result, or the
    exception it raised (a failing call is a failed operation).

    ``split_at`` is a (module, name) pair of a blendcop function that the
    call reaches many times. While the call runs, that function is replaced
    by one that also notes the time of each return, and ``op.segments``
    gets the call's time split at those returns. The call looks the name
    up in its module, so it reaches the replacement."""
    op.in_pass = in_pass
    op.gauge = gauge()
    marks = []
    if split_at is not None:
        module, name = split_at
        inner = getattr(module, name)

        def marked(*a, **kw):
            try:
                return inner(*a, **kw)
            finally:
                marks.append(time.perf_counter())

        setattr(module, name, marked)
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:
        out = exc
    finally:
        t1 = time.perf_counter()
        if split_at is not None:
            setattr(module, name, inner)
    op.seconds = t1 - t0
    if split_at is not None:
        op.segments = tuple(np.diff([t0, *marks, t1]))
    return out


def _raised(op, out):
    if isinstance(out, Exception):
        op.check(False, f"raised {type(out).__name__}: {out}")
        return True
    return False


# ---------------------------------------------------------------------------
class Fit:
    """fit_mle of known blends on seeded draws, with the single-copula
    fits of each component for the AIC comparison."""

    name = "fit"
    #: Datasets per model. How long Nelder-Mead walks depends on the data,
    #: so a pass averages over several datasets.
    DATASETS = 5

    def __init__(self, ref, seed, quick=False):
        self.ref = ref["fit"]
        self.seed = seed
        self.n = 300 if quick else 2000
        self.datasets = 1 if quick else self.DATASETS

    def setup(self):
        anchors = np.asarray(self.ref["anchors"])
        state = []
        for i, key in enumerate(self.ref["models"]):
            model = _model(key).build()
            data = []
            for j in range(self.datasets):
                rng = np.random.default_rng([self.seed, i, j])
                draws = sampling.sample_blended_copula(model, self.n - len(anchors), rng)
                d = fitting.Dataset.from_array(np.vstack([draws, anchors]))
                data.append((d, fitting.log_likelihood(model, d)))
            state.append((key, model, fitting.Dataset.from_array(anchors), data))
        return state

    def run_round(self, state):
        ops = []
        for key, model, anchors, datasets in state:
            ref = self.ref["models"][key]
            op = Op(f"fit/{key}/anchor-loglik")
            ll = fitting.log_likelihood(model, anchors)
            op.check(abs(ll - ref["loglik"]) <= LOGLIK_ATOL,
                     f"anchor loglik {ll:.6f} vs reference {ref['loglik']:.6f}")
            ops.append(op)
            for j, (data, loglik_true) in enumerate(datasets):
                ops += self._fits(f"fit/{key}/{j}", model, data, loglik_true)
        return ops

    def _fits(self, name, model, data, loglik_true):
        ops = []
        singles = []
        for comp in (model.tail, model.body):
            op = Op(f"{name}/single/{comp.tag}")
            res = timed(op, fitting.fit_single_copula, comp.tag, data)
            if not _raised(op, res):
                at_truth = float(np.sum(comp.logpdf(data.u, data.v)))
                op.check(res.k == comp.n_params, f"k = {res.k}")
                op.check(_aic_ok(res), f"AIC {res.aic} != 2k - 2 loglik")
                op.check(res.loglik >= at_truth,
                         f"fitted loglik {res.loglik:.4f} below {at_truth:.4f} at {comp!r}")
                singles.append(res)
            ops.append(op)

        op = Op(f"{name}/blend")
        # One Nelder-Mead start from the generating parameters keeps a call
        # short, so a run holds several repeats of it. The simplex keeps its
        # best vertex, so the fit can end no lower than the truth unless the
        # refit of the best point disagrees with the objective.
        spec = fitting.FitSpec(
            model.tail.tag, model.body.tag, model.weighting.tag, initial=model.params, restarts=1
        )
        # A fit takes seconds, over which the machine's speed swings, so it
        # is timed split at each objective evaluation (a build, then
        # log_likelihood): pieces of a few milliseconds.
        res = timed(op, fitting.fit_mle, spec, data, split_at=(fitting, "log_likelihood"))
        if not _raised(op, res):
            op.work = res.evaluations
            k = 1 + model.tail.n_params + model.body.n_params
            op.check(res.k == k, f"k = {res.k}, expected {k}")
            op.check(_aic_ok(res), f"AIC {res.aic} != 2k - 2 loglik")
            op.check(res.loglik >= loglik_true,
                     f"fitted loglik {res.loglik:.4f} below {loglik_true:.4f} at truth")
            for single in singles:
                op.check(res.aic < single.aic,
                         f"blend AIC {res.aic:.2f} does not beat {single.label} {single.aic:.2f}")
        ops.append(op)
        return ops


def _aic_ok(res):
    return abs(res.aic - (2.0 * res.k - 2.0 * res.loglik)) <= 1e-9 * max(1.0, abs(res.aic))


# ---------------------------------------------------------------------------
#: Induced draws per operation: bisection-inverted families (gumbel,
#: husler_reiss, coles_tawn tails) and a closed-form pair.
DRAWS = {
    "gumbel(2)/clayton(1)/power(0.8)": 20_000,
    "husler_reiss(2)/frank(1)/exp_complement(1)": 20_000,
    "coles_tawn(0.5,0.8)/gaussian(0.6)/power(1.5)": 4_000,
    "gaussian(0.6)/frank(2)/power(1.5)": 100_000,
}


class Sample:
    """sample_blended_copula and sample_cstar from built blends."""

    name = "sample"

    def __init__(self, ref, seed, quick=False):
        self.ref = ref["sample"]
        self.seed = seed
        self.scale = 0.05 if quick else 1.0

    def setup(self):
        if set(DRAWS) != set(self.ref["models"]):
            raise RuntimeError("reference.json sample models differ from DRAWS")
        return [(key, _model(key).build(), max(200, int(n * self.scale))) for key, n in DRAWS.items()]

    def run_round(self, state):
        ops = []
        levels = self.ref["levels"]
        for i, (key, model, n) in enumerate(state):
            ref = self.ref["models"][key]

            op = Op(f"sample/{key}/induced")
            rng = np.random.default_rng([self.seed, i, 0])
            uv = timed(op, sampling.sample_blended_copula, model, n, rng)
            if not _raised(op, uv):
                op.work = n
                op.check(uv.shape == (n, 2) and np.all((uv >= 0) & (uv <= 1)), "draws off the unit square")
                for axis in (0, 1):
                    p = stats.kstest(uv[:, axis], "uniform").pvalue
                    op.check(p >= KS_P_MIN, f"margin {axis} not uniform: KS p = {p:.2e}")
                for r, p_ref in zip(levels, ref["joint_exceedance"]):
                    p_hat = np.count_nonzero((uv[:, 0] > r) & (uv[:, 1] > r)) / n
                    se = math.sqrt(p_ref * (1.0 - p_ref) / n)
                    op.check(abs(p_hat - p_ref) <= N_SE * se,
                             f"P[U>{r},V>{r}] = {p_hat:.5f} vs reference {p_ref:.5f} (se {se:.1e})")
            ops.append(op)

            op = Op(f"sample/{key}/origins")
            req = sampling.SampleRequest(model, n, seed=np.random.default_rng([self.seed, i, 1]))
            out = timed(op, sampling.sample_cstar, req)
            if not _raised(op, out):
                op.work = n
                points, origins = out
                K = model.norm_constants[0]
                op.check(_close(K, ref["K"], 1e-6), f"K = {K!r} vs reference {ref['K']!r}")
                share_ref = ref["K_tail"] / ref["K"]
                share = np.count_nonzero(origins == "tail") / n
                se = math.sqrt(share_ref * (1.0 - share_ref) / n)
                op.check(points.shape == (n, 2), f"shape {points.shape}")
                op.check(abs(share - share_ref) <= N_SE * se,
                         f"tail-origin share {share:.4f} vs K_tail/K {share_ref:.4f} (se {se:.1e})")
            ops.append(op)
        return ops


# ---------------------------------------------------------------------------
class Diagnose:
    """chi/eta curves of blends and single copulas, empirical curves of a
    sample, and copula_cdf queries."""

    name = "diagnose"
    #: Blend whose draws feed empirical_curves.
    EMPIRICAL_MODEL = "gumbel(2)/clayton(1)/power(0.8)"
    #: copula_cdf points per call. Each call is then a few milliseconds,
    #: short against the machine's slow spells, and still a batch.
    CDF_BATCH = 16

    def __init__(self, ref, seed, quick=False):
        self.ref = ref["diagnose"]
        self.levels = np.asarray(ref["levels"])
        self.seed = seed
        self.n_emp = 2_000 if quick else 20_000
        self.n_cdf = 8 if quick else 96

    def setup(self):
        if not np.array_equal(self.levels, dependence.DEFAULT_R_GRID):
            raise RuntimeError("reference.json levels differ from dependence.DEFAULT_R_GRID")
        blends = {key: _model(key).build() for key in self.ref["blends"]}
        singles = {text: families.parse_copula(text) for text in self.ref["singles"]}
        uv = sampling.sample_blended_copula(
            blends[self.EMPIRICAL_MODEL], self.n_emp, np.random.default_rng([self.seed, 99])
        )
        q = np.asarray(self.ref["cdf_levels"])
        queries = {}
        for i, key in enumerate(self.ref["cdf"]):
            pick = np.random.default_rng([self.seed, i]).choice(q.size * q.size, self.n_cdf, replace=False)
            iu, iv = np.divmod(pick, q.size)
            expect = np.asarray(self.ref["cdf"][key]["values"])[iu, iv]
            queries[key] = (q[iu], q[iv], expect)
        return dict(blends=blends, singles=singles, uv=uv, queries=queries)

    def run_round(self, state):
        ops = []
        single_chi = {}
        for text, cop in state["singles"].items():
            single_chi[text] = chi = np.full(len(self.levels), np.nan)
            for i, r in enumerate(self.levels):
                op = Op(f"diagnose/{text}/level{i}")
                out = timed(op, dependence.dependence_curves, cop, [r])
                if not _raised(op, out):
                    chi[i] = out[0].values[0]
                    self._check_curve(op, out, self.ref["singles"][text], [i])
                ops.append(op)

        for key, model in state["blends"].items():
            ref = self.ref["blends"][key]
            for i, r in enumerate(self.levels):
                op = Op(f"diagnose/{key}/level{i}")
                out = timed(op, dependence.dependence_curves, model, [r])
                if not _raised(op, out):
                    self._check_curve(op, out, ref, [i])
                    tail, body, _ = key.split("/")
                    if tail == body and tail in single_chi and not np.isnan(single_chi[tail][i]):
                        # identical components: the blend is the single copula
                        op.check(_close(out[0].values[0], single_chi[tail][i], 1e-9),
                                 f"identical-component chi {out[0].values[0]:.15g} "
                                 f"!= single {single_chi[tail][i]:.15g}")
                ops.append(op)

        op = Op("diagnose/empirical")
        u, v = state["uv"][:, 0], state["uv"][:, 1]
        out = timed(op, dependence.empirical_curves, u, v)
        if not _raised(op, out):
            self._check_empirical(op, out, u, v)
        ops.append(op)

        for key, (qu, qv, expect) in state["queries"].items():
            model = state["blends"][key]
            for c in range(0, qu.size, self.CDF_BATCH):
                op = Op(f"diagnose/{key}/cdf{c // self.CDF_BATCH}")
                part = slice(c, c + self.CDF_BATCH)
                out = timed(op, model.copula_cdf, qu[part], qv[part], in_pass=False)
                if not _raised(op, out):
                    op.work = out.size
                    err = np.abs(out - expect[part])
                    j = int(np.argmax(err))
                    op.check(err[j] <= CDF_ATOL,
                             f"copula_cdf({qu[part][j]}, {qv[part][j]}) = {out[j]:.9g} "
                             f"vs reference {expect[part][j]:.9g}")
                ops.append(op)
        return ops

    def _check_curve(self, op, out, ref, idx):
        chi, eta = out
        for j, i in enumerate(idx):
            for curve, name in ((chi, "chi"), (eta, "eta")):
                got, want = curve.values[j], ref[name][i]
                op.check(_close(got, want, CHI_RTOL),
                         f"{name}(1 - {1 - self.levels[i]:.3g}) = {got:.9g} vs reference {want:.9g}")

    def _check_empirical(self, op, out, u, v):
        chi, eta = out
        n = u.size
        ref = self.ref["blends"][self.EMPIRICAL_MODEL]["chi"]
        for i, r in enumerate(self.levels):
            below = np.count_nonzero((u <= r) & (v <= r))
            above = np.count_nonzero((u > r) & (v > r))
            if above == 0:
                op.check(np.isnan(chi.values[i]) and np.isnan(eta.values[i]),
                         f"level {i}: no joint exceedance but values given")
                continue
            want_chi = (1.0 - 2.0 * r + below / n) / (1.0 - r)
            want_eta = math.log1p(-r) / math.log(above / n)
            op.check(_close(chi.values[i], want_chi, 1e-12) and _close(eta.values[i], want_eta, 1e-12),
                     f"level {i}: empirical ({chi.values[i]}, {eta.values[i]}) vs counts "
                     f"({want_chi}, {want_eta})")
            if 1.0 - r > 0.01:
                # the sample comes from the model, so its chi estimates the model's
                c = 2.0 * r - 1.0 + ref[i] * (1.0 - r)  # C(r, r) of the model
                se = math.sqrt(c * (1.0 - c) / n) / (1.0 - r)
                op.check(abs(want_chi - ref[i]) <= N_SE * se,
                         f"level {i}: empirical chi {want_chi:.4f} vs model {ref[i]:.4f} (se {se:.1e})")


WORKLOADS = {cls.name: cls for cls in (Fit, Sample, Diagnose)}
