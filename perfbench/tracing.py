"""Spans and counters recorded from outside the program.

Hooks replace public functions at the module-attribute level while a
traced pass runs and put the originals back afterwards, so the untraced
passes run the program untouched. The program calls these functions
through their module globals, which is why rebinding the attribute is
enough. Objective calls are far too many for one span each: they are
aggregated into counters, and their time is charged to the enclosing
span as child time.

A hooked name that no longer exists is reported as missing; the metrics
that depend on it are then left out of the result instead of failing.
"""

from __future__ import annotations

import importlib
import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute) -> how the wrapper treats it
HOOKS = {
    ("bubblefit.cli", "main"): "span",
    ("bubblefit.cli", "load_csv"): "span",
    ("bubblefit.cli", "find_crash_peaks"): "span",
    ("bubblefit.cli", "bubble_windows_for_events"): "span",
    ("bubblefit.cli", "fit_bubble"): "span",
    ("bubblefit.fitter", "recursive_seed_search"): "search",
    ("bubblefit.fitter", "nelder_mead"): "simplex",
    ("bubblefit.fitter", "window_objective"): "objective",
    ("bubblefit.sensitivity", "scan_parameter"): "span",
    ("bubblefit.sensitivity", "nelder_mead"): "simplex",
    ("bubblefit.sensitivity", "window_objective"): "objective",
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class ObjectiveStats:
    calls: int = 0
    seconds: float = 0.0
    inadmissible: int = 0


class Tracer:
    """Spans of one traced pass, kept in memory until the pass ends."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.objective: dict[str, ObjectiveStats] = {}
        self.runtime_warnings = 0

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def _span_wrapper(self, name, original, kind):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
                if kind == "simplex":
                    self.spans[index].info.update(
                        evaluations=getattr(result, "evaluations", None),
                        converged=getattr(result, "converged", None))
                elif kind == "search":
                    self.spans[index].info["kept"] = len(result)
                return result
            finally:
                self.close(index)
        return wrapper

    def _objective_wrapper(self, name, factory):
        stats = self.objective.setdefault(name, ObjectiveStats())
        clock = time.perf_counter

        def bind(*args, **kwargs):
            objective = factory(*args, **kwargs)

            def traced(theta):
                t0 = clock()
                value = objective(theta)
                elapsed = clock() - t0
                stats.calls += 1
                stats.seconds += elapsed
                if not math.isfinite(value):
                    stats.inadmissible += 1
                if self.stack:
                    self.spans[self.stack[-1]].child_s += elapsed
                return value
            return traced
        return bind

    @contextmanager
    def installed(self):
        """Wrap every hook that resolves; restore the originals on exit."""
        saved = []
        missing = set(missing_hooks(self.hooks))
        for (module_name, attr), kind in self.hooks.items():
            if f"{module_name}.{attr}" in missing:
                continue
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            if kind == "objective":
                wrapper = self._objective_wrapper(name, original)
            else:
                wrapper = self._span_wrapper(name, original, kind)
            saved.append((module, attr, original))
            setattr(module, attr, wrapper)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                yield self
            self.runtime_warnings = sum(
                issubclass(w.category, RuntimeWarning) for w in caught)
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def missing_hooks(hooks=HOOKS) -> list[str]:
    """Hooked names that do not resolve to a callable in this checkout."""
    missing = []
    for module_name, attr in hooks:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr}")
            continue
        if not callable(getattr(module, attr, None)):
            missing.append(f"{module_name}.{attr}")
    return missing


def _total(spans) -> float:
    return sum(s.duration for s in spans)


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    A layer the workload never entered reads 0. A metric whose hook did
    not resolve is left out.
    """
    missing = {name.replace("bubblefit.", "") for name in missing_hooks(tracer.hooks)}
    out: dict[str, tuple[float, str]] = {}

    def put(name, needs, compute, unit):
        if not missing.intersection(needs):
            out[name] = (float(compute()), unit)

    def spans(name):
        return tracer.named(name)

    for metric, hook in (("series.load_csv_ms", "cli.load_csv"),
                         ("crashes.find_crash_peaks_ms", "cli.find_crash_peaks"),
                         ("crashes.windows_ms", "cli.bubble_windows_for_events")):
        put(metric, {hook}, lambda hook=hook: 1e3 * _total(spans(hook)), "ms")

    objectives = {"fitter.window_objective", "sensitivity.window_objective"}
    stats = list(tracer.objective.values())
    calls = sum(s.calls for s in stats)
    put("lppl.evals", objectives, lambda: calls, "count")
    put("lppl.objective_s", objectives, lambda: sum(s.seconds for s in stats), "s")
    put("lppl.inadmissible_frac", objectives,
        lambda: _share(sum(s.inadmissible for s in stats), calls), "ratio")
    out["lppl.runtime_warnings"] = (float(tracer.runtime_warnings), "count")

    simplex = spans("fitter.nelder_mead")
    nm = {"fitter.nelder_mead"}
    put("fitter.nm_runs", nm, lambda: len(simplex), "count")
    put("fitter.nm_evals_mean", nm, lambda: _share(
        sum(s.info.get("evaluations") or 0 for s in simplex), len(simplex)), "count")
    put("fitter.nm_converged_frac", nm, lambda: _share(
        sum(bool(s.info.get("converged")) for s in simplex), len(simplex)), "ratio")
    put("fitter.nm_self_s", nm | objectives,
        lambda: sum(s.self_s for s in simplex), "s")

    search = spans("fitter.recursive_seed_search")
    rs = {"fitter.recursive_seed_search"}
    put("fitter.search_calls", rs, lambda: len(search), "count")
    put("fitter.search_s", rs, lambda: _total(search), "s")
    put("fitter.search_self_s", rs | nm | objectives,
        lambda: sum(s.self_s for s in search), "s")
    put("fitter.solutions_kept_mean", rs, lambda: _share(
        sum(s.info.get("kept", 0) for s in search), len(search)), "count")

    fits = spans("cli.fit_bubble")
    searches_per_fit = {i: 0 for i, s in enumerate(tracer.spans)
                        if s.name == "cli.fit_bubble"}
    for s in search:
        if s.parent in searches_per_fit:
            searches_per_fit[s.parent] += 1
    put("fitter.fit_bubble_s", {"cli.fit_bubble"}, lambda: _total(fits), "s")
    put("fitter.floored_frac", {"cli.fit_bubble"} | rs, lambda: _share(
        sum(n > 1 for n in searches_per_fit.values()), len(fits)), "ratio")

    put("sensitivity.scan_s", {"sensitivity.scan_parameter"},
        lambda: _total(spans("sensitivity.scan_parameter")), "s")
    put("sensitivity.nm_runs", {"sensitivity.nelder_mead"},
        lambda: len(spans("sensitivity.nelder_mead")), "count")
    put("sensitivity.evals", {"sensitivity.window_objective"}, lambda: (
        tracer.objective.get("sensitivity.window_objective", ObjectiveStats()).calls),
        "count")

    main = spans("cli.main")
    put("cli.main_s", {"cli.main"}, lambda: _total(main), "s")
    put("cli.self_s", {"cli.main", "cli.load_csv", "cli.find_crash_peaks",
                       "cli.bubble_windows_for_events", "cli.fit_bubble"},
        lambda: sum(s.self_s for s in main), "s")
    return out
