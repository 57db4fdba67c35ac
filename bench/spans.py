"""In-memory span tracing for the benchmark's traced passes.

Every traced public function of rupsim is replaced, in each rupsim module
that holds a reference to it, by a wrapper that records one span per call:
name, start, end and parent span, plus work counters taken from the call's
arguments or result. Spans stay in memory; `summary` turns them into
per-layer metrics once the pass has ended. Nothing under src/ is edited.

A target that no longer exists in rupsim is reported as missing (its metrics
are None), never as zero, so a refactor that moves or renames a traced
function cannot silently shift its time into a parent's self time.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _size(x) -> int:
    return int(np.size(x))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


@dataclass(frozen=True)
class Target:
    """A traced callable: span name, where it is defined, and its counters.

    Each counter is (name, fn) with fn(args, kwargs, result) giving the work
    count of one call that returned. `on_error` is (exception class name,
    counter name): a raised exception of that class increments the counter.
    """

    name: str
    module: str
    attr: str
    counters: tuple[tuple[str, Callable], ...] = ()
    on_error: tuple[str, str] | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def counter_names(self) -> list[str]:
        names = [c for c, _ in self.counters]
        return names + [self.on_error[1]] if self.on_error else names


def _points(a, k, r) -> int:
    return _size(r)


TARGETS = (
    Target("streams.substream", "rupsim.streams", "substream"),
    Target("streams.map_indexed", "rupsim.streams", "map_indexed"),
    Target("baseline.f", "rupsim.baseline", "RegressionFunction.__call__",
           (("points", _points),)),
    Target("kernels", "rupsim.kernels", "Kernel.__call__", (("points", _points),)),
    Target("perturbation.draw_perturbation", "rupsim.perturbation", "draw_perturbation"),
    Target("perturbation.sample_perturbed", "rupsim.perturbation", "sample_perturbed",
           (("points", lambda a, k, r: len(r.xs)),)),
    Target("local_poly.predict_grid", "rupsim.local_poly", "predict_grid",
           (("points", _points), ("nan_points", lambda a, k, r: int(np.isnan(r).sum())))),
    Target("local_poly.fit_predict", "rupsim.local_poly", "fit_predict",
           on_error=("NoLocalSupport", "no_support")),
    Target("local_poly.equivalent_kernel_weights", "rupsim.local_poly",
           "equivalent_kernel_weights"),
    Target("risk.mise_mc", "rupsim.risk", "mise_mc",
           (("failed_h", lambda a, k, r: len(r.meta["failed_h"])),)),
    Target("risk.pointwise_risk_mc", "rupsim.risk", "pointwise_risk_mc",
           (("failed_fits", lambda a, k, r: r.diagnostics["failed_fits"]),
            ("dropped_rows", lambda a, k, r: r.diagnostics["dropped_rows"]))),
    Target("risk.dist_var_weight_oracle", "rupsim.risk", "dist_var_weight_oracle"),
    Target("bandwidth.domain_cv_bandwidth", "rupsim.bandwidth", "domain_cv_bandwidth",
           (("inf_scores", lambda a, k, r: sum(not np.isfinite(s) for _, s in r.diagnostics)),)),
    Target("bandwidth.argmin_prefer_larger", "rupsim.bandwidth", "argmin_prefer_larger"),
    Target("bandwidth.within_bucket_noise_variance", "rupsim.bandwidth",
           "within_bucket_noise_variance"),
    Target("bandwidth.estimate_tau_from_summaries", "rupsim.bandwidth",
           "estimate_tau_from_summaries"),
    Target("klscale.correlated_noise_kl_suite", "rupsim.klscale", "correlated_noise_kl_suite"),
    Target("klscale.kl_mc", "rupsim.klscale", "kl_mc"),
    Target("klscale.conditional_kl", "rupsim.klscale", "conditional_kl",
           (("points", lambda a, k, r: _size(_arg(a, k, 0, "design_xs"))),)),
    Target("klscale.block_precision_apply", "rupsim.klscale", "block_precision_apply"),
    Target("config.load_yaml", "rupsim.config", "load_yaml"),
    Target("cli.main", "rupsim.cli", "main"),
    Target("cli.write_csv", "rupsim.cli", "write_csv",
           (("bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),)),
    Target("svgplot.line_chart", "rupsim.svgplot", "line_chart"),
)

# Derived per-call and per-point costs use the span's inclusive duration,
# which is the cost a caller of that function sees; 0 when it was not called.
PER_UNIT = (
    ("perturbation.sample_perturbed.us_per_point", "perturbation.sample_perturbed", "points"),
    ("local_poly.predict_grid.us_per_point", "local_poly.predict_grid", "points"),
    ("local_poly.fit_predict.us_per_call", "local_poly.fit_predict", "calls"),
)


class Tracer:
    """Records spans for the wrapped targets of one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counts]
        self.missing: list[str] = []
        self._found: set[str] = set()
        self._stack: list[int] = []

    def install(self) -> None:
        for target in TARGETS:
            owner, leaf, original = _resolve(target)
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = self._wrapper(target, original)
            if owner is not None:  # a method: patch the class attribute
                setattr(owner, leaf, wrapper)
            else:
                _rebind(original, wrapper)
            self._found.add(target.name)

    def _wrapper(self, target: Target, fn):
        spans, stack = self.spans, self._stack
        name, counters, on_error = target.name, target.counters, target.on_error

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = perf_counter()
                if on_error is not None and type(exc).__name__ == on_error[0]:
                    span[4] = {on_error[1]: 1}
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if counters:
                span[4] = {c: _count(fn_c, args, kwargs, result) for c, fn_c in counters}
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def summary(self, wall_s: float) -> dict[str, float | None]:
        """Per-layer metrics of the recorded spans, for a pass of wall_s seconds.

        Self time is a span's duration minus the durations of its direct
        children. A layer's share is its summed self time over wall_s. Every
        metric of a missing target is None.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {t.name: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                          "counts": dict.fromkeys(t.counter_names, 0)}
                 for t in TARGETS if t.name in self._found}
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            for key, value in (counts or {}).items():
                prev = s["counts"][key]
                s["counts"][key] = None if prev is None or value is None else prev + value

        out: dict[str, float | None] = {}
        for t in TARGETS:
            s = stats.get(t.name)
            out[f"{t.name}.calls"] = None if s is None else s["calls"]
            out[f"{t.name}.self_s"] = None if s is None else s["self_s"]
            for key in t.counter_names:
                out[f"{t.name}.{key}"] = None if s is None else s["counts"][key]
        for metric, name, per in PER_UNIT:
            s = stats.get(name)
            if s is None:
                out[metric] = None
                continue
            units = s["calls"] if per == "calls" else s["counts"][per]
            out[metric] = s["total_s"] * 1e6 / units if units else (None if units is None else 0.0)
        for layer in dict.fromkeys(t.layer for t in TARGETS):
            selfs = [stats[t.name]["self_s"] for t in TARGETS
                     if t.layer == layer and t.name in stats]
            out[f"{layer}.share"] = sum(selfs) / wall_s if selfs else None
        return out


def _resolve(target: Target):
    """(owning class or None, attribute name, original callable or None)."""
    try:
        obj = importlib.import_module(target.module)
    except ImportError:
        return None, target.attr, None
    parts = target.attr.split(".")
    owner = None
    for part in parts:
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, parts[-1], None
    return (owner if len(parts) > 1 else None), parts[-1], obj


def _rebind(original, wrapper) -> None:
    """Replace `original` under every name a rupsim module looks it up by."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "rupsim" or mod_name.startswith("rupsim.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _count(fn, args, kwargs, result):
    """One counter of one call; None when the current code cannot supply it."""
    try:
        return fn(args, kwargs, result)
    except (AttributeError, KeyError, IndexError, TypeError, OSError):
        return None
