"""Span tracing of the causalest layers, and the per-layer metrics drawn from it.

A layer is a module of ``src/causalest``. ``install`` wraps each layer's
public functions (and the few private ones a metric needs) at every name
where a caller looks them up: ``from .regress import fit_ols`` binds
``fit_ols`` in the importing module, so the wrapper replaces the function in
every ``causalest`` module that holds it, not only where it is defined.
Each call records a span (name, start, end, parent, info) in memory; the
spans are written out when the workload ends and ``layer_metrics`` derives
the per-layer figures from them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "simulate", "core", "regress", "propensity",
    "estimators", "panel", "quasi", "variance",
)

# private functions a per-layer metric needs, beside the public ones
_PRIVATE = {
    "cli": ("_read_columns",),
    "regress": ("_svd_solve",),
    "simulate": ("_draw_cs1", "_draw_panel", "_draw_cs4", "_draw_cs5", "_draw_cs6"),
}
_METHODS = {"core": (("ObservationalDataset", "take"), ("PanelDataset", "take_units"))}


def _info(name: str, result):
    """The count a metric needs from a call's result, or None."""
    if name in ("regress.fit_ols", "regress.fit_logistic"):
        return [int(result.residuals.shape[0]), int(result.iterations)]
    if name == "cli._read_columns":
        return int(next(iter(result.values())).shape[0])
    if name == "panel.fit_re":
        return int("re_fallback" in result.diagnostics)
    if name == "variance.bootstrap_variance":
        return [int(result.n_ok), int(result.n_failed)]
    return None


class Tracer:
    """Records one span per call of a wrapped function, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, None if result is None else _info(name, result))

        return traced

    def install(self) -> None:
        """Wrap the layer functions wherever a causalest module binds them."""
        modules = {k: v for k, v in sys.modules.items() if k == "causalest" or k.startswith("causalest.")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"causalest.{layer}"]
            for attr, value in vars(mod).items():
                public = not attr.startswith("_") and callable(value) and not isinstance(value, type)
                if getattr(value, "__module__", None) == mod.__name__ and (
                    public or attr in _PRIVATE.get(layer, ())
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
            for cls_name, meth in _METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def write_spans(path, rounds: list[list]) -> None:
    """One JSON line per span: [round, id, name, start, end, parent, info]."""
    with open(path, "w") as handle:
        for r, spans in enumerate(rounds):
            for sid, (name, start, end, parent, info) in enumerate(spans):
                handle.write(json.dumps([r, sid, name, start, end, parent, info]) + "\n")


def read_spans(path) -> list[list]:
    rounds: dict[int, list] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            r, _sid, name, start, end, parent, info = json.loads(line)
            rounds[r].append((name, start, end, parent, info))
    return [rounds[r] for r in sorted(rounds)]


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer figures of one traced round.

    A span's self time is its duration minus the time its child spans
    cover; a layer's ``self_s`` is the sum over its spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    for sid, (name, start, end, _parent, _) in enumerate(spans):
        self_time[name] += end - start - child[sid]
        total[name] += end - start
        calls[name] += 1

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    def named(table, *names):
        return sum(table.get(n, 0) for n in names)

    def info_sum(name, pos=None):
        return sum(
            (info if pos is None else info[pos])
            for n, _s, _e, _p, info in spans
            if n == name and info is not None
        )

    draws = [k for k in calls if k.startswith("simulate._draw_")]
    checks = ("simulate.compare_to_reference", "simulate.load_reference",
              "simulate.load_tolerances", "simulate.read_reference_csv")
    fits = ("regress.fit_ols", "regress.fit_logistic")
    m = {
        "cli.self_s": layer_sum(self_time, "cli"),
        "cli.rows_read": info_sum("cli._read_columns"),
        "simulate.draw_s": named(self_time, *draws),
        "simulate.draw_calls": named(calls, *draws),
        "simulate.self_s": layer_sum(self_time, "simulate"),
        "simulate.check_s": named(self_time, *checks),
        "core.validate_s": named(self_time, "core.validate", "core.validate_panel"),
        "core.validate_calls": named(calls, "core.validate", "core.validate_panel"),
        "core.take_s": named(total, "core.ObservationalDataset.take", "core.PanelDataset.take_units"),
        "core.take_calls": named(calls, "core.ObservationalDataset.take", "core.PanelDataset.take_units"),
        "regress.self_s": layer_sum(self_time, "regress"),
        "regress.fit_ols_calls": calls.get("regress.fit_ols", 0),
        "regress.fit_logistic_calls": calls.get("regress.fit_logistic", 0),
        "regress.irls_iterations": info_sum("regress.fit_logistic", 1),
        "regress.rows_fitted": sum(info_sum(f, 0) for f in fits),
        "propensity.self_s": layer_sum(self_time, "propensity"),
        "propensity.calls": layer_sum(calls, "propensity"),
        "estimators.self_s": layer_sum(self_time, "estimators"),
        "estimators.calls": layer_sum(calls, "estimators"),
        "estimators.matching_s": total.get("estimators.ate_matching", 0.0),
        "panel.self_s": layer_sum(self_time, "panel"),
        "panel.calls": layer_sum(calls, "panel"),
        "panel.re_fallbacks": info_sum("panel.fit_re"),
        "quasi.self_s": layer_sum(self_time, "quasi"),
        "quasi.calls": layer_sum(calls, "quasi"),
        "quasi.sc_fit_s": total.get("quasi.sc_fit", 0.0),
        "quasi.sc_weights_calls": calls.get("quasi.sc_weights", 0),
        "variance.self_s": layer_sum(self_time, "variance"),
        "variance.replicates": info_sum("variance.bootstrap_variance", 0)
        + info_sum("variance.bootstrap_variance", 1),
        "variance.replicates_failed": info_sum("variance.bootstrap_variance", 1),
        "trace.spans": len(spans),
    }
    return m
