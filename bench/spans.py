"""Span recording around the public entry points of every blendcop layer.

The program is not edited: ``Tracer.install`` replaces functions and
methods of the layer modules with wrappers, in every blendcop module
namespace that holds them, and ``Tracer.uninstall`` puts the originals
back. Each call records a span (name, label, start, end, parent, info).
The label names the model or family the call serves, taken from its first
argument; ``info`` keeps the few counts read at the boundary (proposals
and acceptances of a rejection round, draws asked of ``sample_cstar``,
points of a ``copula_cdf`` query).

A layer's self time is its spans' duration minus the part covered by
their child spans.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = (
    "families",
    "special",
    "weighting",
    "quadrature",
    "blend",
    "fitting",
    "sampling",
    "dependence",
)

#: Internal methods traced in addition to the public ones: the issue-level
#: per-layer metrics name them (conditional CDF, density, inversion and
#: survival of a family; the out-of-grid quantile; the |rho| > 0.925 branch
#: of the bivariate normal; one evaluation of the fitting objective).
PRIVATE = {
    "families": {"_h", "_h2", "_hinv", "_logpdf", "_surv"},
    "special": {"_bvn_upper_extreme"},
    "blend": {"_quantile_exact"},
    "fitting": {"__call__"},
    "weighting": {"__call__"},
}


def label_of(obj):
    """Model or family tag of a call's first argument, if it has one."""
    if hasattr(getattr(obj, "tail", None), "tag"):
        return f"{obj.tail.tag}-{obj.body.tag}"
    if hasattr(obj, "tail_tag"):
        return f"{obj.tail_tag}-{obj.body_tag}"
    if hasattr(obj, "model"):
        return label_of(obj.model)
    if isinstance(obj, str):
        return obj
    return getattr(obj, "tag", None) or None


def _info(name, args, result):
    if name == "sampling.rejection_round":
        return (args[1], len(result[0]), len(result[1]))
    if name == "sampling.sample_cstar":
        return args[0].n_target
    if name == "blend.copula_cdf":
        return int(np.size(args[-1]))
    return None


@dataclass
class Span:
    name: str
    label: str | None
    start: float
    end: float = 0.0
    parent: int = -1
    info: object = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def seconds(self):
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    # -- patching ----------------------------------------------------------
    def install(self):
        modules = {layer: importlib.import_module(f"blendcop.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            extra = PRIVATE.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_") or attr in extra):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_")
                        if inspect.isfunction(fn) and (public or meth in extra):
                            self._saved.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(fn, f"{layer}.{meth}"))
        # rebind every module-level name that refers to a wrapped function,
        # so calls through ``from .x import f`` are traced too
        for mod in [importlib.import_module("blendcop"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, label_of(args[0]) if args else None, 0.0)
            span.parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            span.info = _info(name, args, result)
            return result

        return wrapper

    def write(self, fh, **tags):
        """One JSON line per span: name, label, start, end, parent, tags."""
        for s in self.spans:
            rec = dict(name=s.name, label=s.label, start=s.start, end=s.end, parent=s.parent, **tags)
            fh.write(json.dumps(rec) + "\n")

    # -- reading -----------------------------------------------------------
    def mark(self):
        return len(self.spans)

    def select(self, name, label=None, since=0, until=None):
        chosen = self.spans[since:until]
        return [s for s in chosen if s.name == name and (label is None or s.label == label)]

    def ancestor(self, span, name):
        """Nearest enclosing span called ``name``, or None."""
        i = span.parent
        while i >= 0:
            if self.spans[i].name == name:
                return self.spans[i]
            i = self.spans[i].parent
        return None

    def child_seconds(self, since=0, until=None):
        """Seconds covered by direct children, per parent index."""
        covered = {}
        for s in self.spans[since:until]:
            if s.parent >= 0:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
        return covered

    def self_seconds(self, since=0, until=None):
        """Self time summed per layer over spans in [since, until)."""
        covered = self.child_seconds(since, until)
        out = {}
        for i, s in enumerate(self.spans[since:until], since):
            out[s.layer] = out.get(s.layer, 0.0) + s.seconds - covered.get(i, 0.0)
        return out
