"""Per-layer metrics of the traced run, read from recorded spans.

``definitions`` is the single list of per-layer metrics: the names in
BENCHMARK.json and the values printed by ``run.py --trace 1`` both come
from it. Call timings are the mean inclusive time per call over the traced
round (build times: over the set-up); ``*.self_s`` is a layer's self time
over the traced round. Labels name the model (tail-body) or family.
"""
from __future__ import annotations


def _label(key):
    """'gumbel(2)/clayton(1)/power(0.8)' -> 'gumbel-clayton'."""
    tail, body, _ = key.split("/")
    return f"{tail.split('(')[0]}-{body.split('(')[0]}"


def _tags(keys, parts=(0, 1)):
    return sorted({key.split("/")[p].split("(")[0] for key in keys for p in parts})


def _ratio(a, b):
    """a / b, or 0 where the layer made no calls (a function a change removed)."""
    return a / b if b else 0.0


def _mean_s(spans, exclude=None, tracer=None):
    if not spans:
        return 0.0
    total = sum(s.seconds for s in spans)
    if exclude:
        index = {id(s): i for i, s in enumerate(tracer.spans)}
        inside = {index[id(s)] for s in spans}
        total -= sum(c.seconds for c in tracer.spans if c.name == exclude and c.parent in inside)
    return total / len(spans)


def _calls(name, label=None, scale=1e3, exclude=None, setup=False):
    def fn(tr, mark):
        since, until = (0, mark) if setup else (mark, None)
        return scale * _mean_s(tr.select(name, label, since, until), exclude, tr)

    return fn


def _cond_cdf(label):
    def fn(tr, mark):
        spans = [
            s for s in tr.spans[mark:]
            if s.label == label and s.name in ("families._h", "families._h2")
            and not (s.name == "families._h" and s.parent >= 0 and tr.spans[s.parent].name == "families._h2")
        ]
        return 1e6 * _mean_s(spans)

    return fn


def _under(name, label, ancestor):
    """Spans called ``name`` inside an ``ancestor`` span with this label."""
    def pick(tr, mark):
        return [
            s for s in tr.select(name, None, mark)
            if (a := tr.ancestor(s, ancestor)) is not None and a.label == label
        ]

    return pick


def _objective_evals(label):
    pick = _under("fitting.__call__", label, "fitting.fit_mle")
    return lambda tr, mark: float(len(pick(tr, mark)))


def _build_share(label):
    pick = _under("blend.build", label, "fitting.fit_mle")

    def fn(tr, mark):
        fit = sum(s.seconds for s in tr.select("fitting.fit_mle", label, mark))
        return _ratio(sum(s.seconds for s in pick(tr, mark)), fit)

    return fn


def _accept(label, which):
    def fn(tr, mark):
        info = [s.info for s in tr.select("sampling.rejection_round", label, mark)]
        return _ratio(sum(i[which] for i in info), sum(i[0] for i in info))

    return fn


def _proposals_per_draw(label):
    def fn(tr, mark):
        proposed = sum(2 * s.info[0] for s in tr.select("sampling.rejection_round", label, mark))
        wanted = sum(s.info for s in tr.select("sampling.sample_cstar", label, mark))
        return _ratio(proposed, wanted)

    return fn


def _per_point(name, label):
    def fn(tr, mark):
        spans = tr.select(name, label, mark)
        return 1e3 * _ratio(sum(s.seconds for s in spans), sum(s.info for s in spans))

    return fn


def _fallback_levels(label):
    def fn(tr, mark):
        levels = set()
        for s in tr.select("blend._quantile_exact", label, mark):
            a = tr.ancestor(s, "dependence.chi_eta")
            if a is not None:
                levels.add(id(a))
        return float(len(levels))

    return fn


def _self(layer):
    return lambda tr, mark: tr.self_seconds(mark).get(layer, 0.0)


def definitions(workload, ref):
    """[(name, unit, better, fn(tracer, setup_end))] for one workload."""
    out = []

    def add(name, unit, better, fn):
        out.append((f"{workload}.{name}", unit, better, fn))

    if workload == "fit":
        keys = list(ref["fit"]["models"])
        for key in keys:
            m = _label(key)
            add(f"blend.build_ms.{m}", "ms", "lower", _calls("blend.build", m))
            add(f"blend.copula_logpdf_us.{m}", "us", "lower", _calls("blend.copula_logpdf", m, 1e6))
            add(f"blend.marginal_quantile_us.{m}", "us", "lower",
                _calls("blend.marginal_quantile", m, 1e6, exclude="blend._quantile_exact"))
            add(f"fitting.objective_evals.{m}", "count", "lower", _objective_evals(m))
            add(f"fitting.build_share.{m}", "ratio", "lower", _build_share(m))
        for w in _tags(keys, (2,)):
            add(f"weighting.cond_expectation_us.{w}", "us", "lower",
                _calls("weighting.conditional_expectation", w, 1e6))
        for fam in _tags(keys):
            add(f"families.cond_cdf_us.{fam}", "us", "lower", _cond_cdf(fam))
            add(f"families.logpdf_us.{fam}", "us", "lower", _calls("families._logpdf", fam, 1e6))
        layers = ("families", "special", "weighting", "quadrature", "blend", "fitting")
    elif workload == "sample":
        keys = list(ref["sample"]["models"])
        for key in keys:
            m = _label(key)
            add(f"blend.build_ms.{m}", "ms", "lower", _calls("blend.build", m, setup=True))
            add(f"sampling.rejection_round_ms.{m}", "ms", "lower", _calls("sampling.rejection_round", m))
            add(f"sampling.accept_tail.{m}", "ratio", "higher", _accept(m, 1))
            add(f"sampling.accept_body.{m}", "ratio", "higher", _accept(m, 2))
            add(f"sampling.proposals_per_draw.{m}", "ratio", "lower", _proposals_per_draw(m))
            add(f"blend.marginal_cdf_us.{m}", "us", "lower", _calls("blend.marginal_cdf", m, 1e6))
        for fam in _tags(keys):
            add(f"families.sample_us.{fam}", "us", "lower", _calls("families.sample", fam, 1e6))
        layers = ("families", "weighting", "blend", "sampling")
    else:
        diag = ref["diagnose"]
        keys = list(diag["blends"])
        singles = sorted({text.split("(")[0] for text in diag["singles"]})
        for key in keys:
            m = _label(key)
            add(f"blend.build_ms.{m}", "ms", "lower", _calls("blend.build", m, setup=True))
            add(f"blend.joint_upper_survival_ms.{m}", "ms", "lower", _calls("blend.joint_upper_survival", m))
            add(f"blend.quantile_fallback_ms.{m}", "ms", "lower", _calls("blend._quantile_exact", m))
            add(f"dependence.chi_eta_ms.{m}", "ms", "lower", _calls("dependence.chi_eta", m))
            add(f"dependence.fallback_levels.{m}", "count", "lower", _fallback_levels(m))
        for key in diag["cdf"]:
            m = _label(key)
            add(f"blend.copula_cdf_ms.{m}", "ms", "lower", _per_point("blend.copula_cdf", m))
        for fam in singles:
            add(f"dependence.chi_eta_ms.{fam}", "ms", "lower", _calls("dependence.chi_eta", fam))
            add(f"families.survival_ms.{fam}", "ms", "lower", _calls("families._surv", fam))
        add("special.bvn_upper_us", "us", "lower",
            _calls("special.bvn_upper", None, 1e6, exclude="special._bvn_upper_extreme"))
        add("special.bvn_upper_extreme_us", "us", "lower", _calls("special._bvn_upper_extreme", None, 1e6))
        add("special.bvt_cdf_ms", "ms", "lower", _calls("special.bvt_cdf"))
        add("special.bvt_orthant_tail_ms", "ms", "lower", _calls("special.bvt_orthant_tail"))
        layers = ("families", "special", "weighting", "quadrature", "blend", "dependence")
    for layer in layers:
        add(f"{layer}.self_s", "s", "lower", _self(layer))
    add("trace.overhead_ratio", "ratio", "lower", None)
    return out


def collect(workload, ref, tracer, setup_end):
    """{name: (value, unit)} for the traced round of one workload."""
    return {
        name: (fn(tracer, setup_end), unit)
        for name, unit, _, fn in definitions(workload, ref)
        if fn is not None
    }
