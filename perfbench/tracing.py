"""Span tracing of hyperbessel's layers, installed from outside the package.

``install(tracer)`` wraps every public function of the modules in ``LAYERS``
and rebinds the name in every ``hyperbessel`` module (and module-level
dict, such as ``verify.REPRODUCERS``) that holds it, so calls between layers
are seen whichever module made them.  ``PowerSeries1OverS.__mul__``,
``__rmul__`` and ``exp`` are wrapped on the class.  Spans stay in memory as
``[name, start, end, parent, request, info]`` and are written when the run
ends; ``layer_metrics`` turns them into the per-layer table.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("precision", "params", "powerseries", "coeffs", "reference", "asym", "verify", "cli")
CLASS_METHODS = ("powerseries", "PowerSeries1OverS", ("__mul__", "__rmul__", "exp"))

#: environment variable naming the file a traced ``tables_cli.py`` run writes
SPANS_ENV = "PERFBENCH_SPANS"

ROOT = "request"
STIRLING = "coeffs.stirling_matching_coeffs"
COMPOUND = "asym.compound_eval"
LEVEL_SUMS = ("asym.dominant_series", "asym.subdominant_series", "asym.intermediate_series_n5")


class Tracer:
    """Collects nested spans; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._seen_params = set()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark itself opens, such as a request's root."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name, fn):
        before, after = _INFO_HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            if before is not None:
                span[5] = before(self, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                span[5] = after(result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _stirling_info(tracer, args, kwargs):
    params = args[0]
    M = args[1] if len(args) > 1 else kwargs["M"]
    key = (params.n, tuple(sorted(params.b_list)), params.dps)
    repeat = key in tracer._seen_params
    tracer._seen_params.add(key)
    return [int(M), repeat]


def _series_info(result):
    return [int(result.terms_used), float(result.digits_lost)]


_INFO_HOOKS = {
    STIRLING: (_stirling_info, None),
    "reference.series_eval": (None, _series_info),
    "precision.auto_series_dps": (None, int),
}


def install(tracer):
    """Wrap the public functions of every layer and rebind them everywhere."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"hyperbessel.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))

    def rebound(obj):
        hit = wrapped.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    for name, mod in list(sys.modules.items()):
        if name != "hyperbessel" and not name.startswith("hyperbessel."):
            continue
        for attr, obj in list(vars(mod).items()):
            new = rebound(obj)
            if new is not None:
                setattr(mod, attr, new)
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    new = rebound(value)
                    if new is not None:
                        obj[key] = new

    layer, cls_name, methods = CLASS_METHODS
    cls = getattr(importlib.import_module(f"hyperbessel.{layer}"), cls_name)
    for method in methods:
        setattr(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - child_time[i] for i, span in enumerate(spans)]


def _has_ancestor(spans, index, name):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, requests):
    """Per-layer metrics from one traced run of ``requests`` requests.

    Times and counts are per request (``s/req``, ``1/req``); means and
    fractions are over the calls they describe.
    """
    own = self_times(spans)
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for span, self_time in zip(spans, own):
        total[span[0]] += span[2] - span[1]
        self_s[span[0]] += self_time
        calls[span[0]] += 1
    stirling = [s[5] for s in spans if s[0] == STIRLING]
    series = [s[5] for s in spans if s[0] == "reference.series_eval" and s[5]]
    dps = [s[5] for s in spans if s[0] == "precision.auto_series_dps" and s[5]]
    under_compound = sum(1 for i, s in enumerate(spans)
                         if s[0] == STIRLING and _has_ancestor(spans, i, COMPOUND))
    per = 1.0 / max(requests, 1)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    mul = ("powerseries.PowerSeries1OverS.__mul__", "powerseries.PowerSeries1OverS.__rmul__")
    metrics = {
        "powerseries.mul.s": (sum(total[m] for m in mul) * per, "s/req"),
        "powerseries.mul.calls": (sum(calls[m] for m in mul) * per, "1/req"),
        "powerseries.exp.s": (total["powerseries.PowerSeries1OverS.exp"] * per, "s/req"),
        "powerseries.reciprocal_linear.s": (total["powerseries.reciprocal_linear"] * per, "s/req"),
        "coeffs.stirling.self_s": (self_s[STIRLING] * per, "s/req"),
        "coeffs.stirling.calls": (calls[STIRLING] * per, "1/req"),
        "coeffs.stirling.coeffs_built": (sum(m for m, _ in stirling) * per, "1/req"),
        "coeffs.stirling.repeat_params_frac": (mean([float(r) for _, r in stirling]), "frac"),
        "coeffs.riney.s": (total["coeffs.riney_coeffs"] * per, "s/req"),
        "reference.series_eval.self_s": (self_s["reference.series_eval"] * per, "s/req"),
        "reference.series_eval.calls": (calls["reference.series_eval"] * per, "1/req"),
        "reference.series_eval.terms": (sum(t for t, _ in series) * per, "1/req"),
        "reference.series_eval.digits_lost_mean": (mean([d for _, d in series]), "digits"),
        "precision.auto_series_dps.mean_dps": (mean(dps), "digits"),
        "reference.humbert_J.s": (total["reference.humbert_J"] * per, "s/req"),
        "asym.level_sums.s": (sum(total[m] for m in LEVEL_SUMS) * per, "s/req"),
        "asym.optimal_truncation.s": (total["asym.optimal_truncation_index"] * per, "s/req"),
        "asym.compound_eval.self_s": (self_s[COMPOUND] * per, "s/req"),
        "asym.table_retries": ((under_compound - calls[COMPOUND]) * per, "1/req"),
        "asym.residual_F.self_s": (self_s["asym.residual_F"] * per, "s/req"),
        "params.derive_params.s": (total["params.derive_params"] * per, "s/req"),
        "cli.main.s": (total["cli.main"] * per, "s/req"),
        "cli.process_overhead_s": ((total[ROOT] - total["cli.main"]) * per
                                   if calls["cli.main"] else 0.0, "s/req"),
    }
    for k in range(1, 5):
        metrics[f"verify.table{k}.s"] = (total[f"verify.reproduce_table{k}"] * per, "s/req")
    return metrics
