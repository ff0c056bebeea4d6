"""Span recorder installed around the public entry points of each layer.

The benchmark times the program from outside: :func:`install` replaces
every binding of each wrapped function (module globals that imported it
by name, and the class attribute for methods) with a wrapper that records
one span per call.  Spans stay in memory as flat tuples and are written
out once, after the workload, by :meth:`Tracer.dump`.

A span's self time is its duration minus the time covered by its direct
child spans, so the self times of all spans plus ``other.self_s`` (time
no span covers) add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Every span the traced run reports, in report order.
SPAN_NAMES = (
    "dataset.record",
    "dataset.trim",
    "dataset.tokens",
    "cparse.lex",
    "cparse.parse",
    "analysis.analyze",
    "llm.features",
    "llm.ngram",
    "dynamic.inspector",
    "dynamic.interpret",
    "dynamic.detect",
    "llm.finetune",
    "llm.generate",
    "engine.cache_get",
    "engine.cache_put",
    "engine.cache_load",
    "engine.cache_save",
    "engine.plan",
    "engine.prepare",
    "engine.run",
    "prompting.render",
    "prompting.parse",
    "eval.reduce",
)

#: Spans whose first argument is a source string; the traced run reports
#: how many distinct sources they saw per call (``.distinct_ratio``).
DISTINCT_SPANS = ("cparse.parse", "llm.features", "llm.ngram")

# (span, module, function) for module-level functions.
_FUNCTIONS = (
    ("dataset.record", "repro.dataset.drbml", "record_from_benchmark"),
    ("dataset.trim", "repro.dataset.trim", "trim_comments"),
    ("dataset.tokens", "repro.dataset.tokenizer", "count_tokens"),
    ("cparse.lex", "repro.cparse.lexer", "tokenize"),
    ("cparse.parse", "repro.cparse.parser", "parse"),
    ("llm.features", "repro.llm.features", "extract_features"),
    ("llm.ngram", "repro.llm.features", "hashed_ngram_vector"),
    ("dynamic.detect", "repro.dynamic.detector", "detect_races"),
    ("engine.plan", "repro.engine.scheduler", "collect_default_plans"),
    ("prompting.render", "repro.prompting.templates", "render_prompt"),
    ("prompting.parse", "repro.prompting.parsing", "parse_yes_no"),
    ("prompting.parse", "repro.prompting.parsing", "parse_pairs_response"),
)

# (span, module, class, method) for methods, patched on the defining class.
_METHODS = (
    ("analysis.analyze", "repro.analysis.static_race", "StaticRaceDetector", "analyze_unit"),
    ("dynamic.inspector", "repro.dynamic.inspector", "InspectorLikeDetector", "analyze_source"),
    ("dynamic.interpret", "repro.dynamic.interpreter", "Interpreter", "run"),
    ("llm.finetune", "repro.llm.finetune", "FineTuner", "fit"),
    ("engine.cache_get", "repro.engine.cache", "ResponseCache", "get"),
    ("engine.cache_put", "repro.engine.cache", "ResponseCache", "put"),
    ("engine.cache_load", "repro.engine.cache", "ResponseCache", "load"),
    ("engine.cache_save", "repro.engine.cache", "ResponseCache", "save"),
    ("engine.run", "repro.engine.core", "ExecutionEngine", "run"),
    ("engine.run", "repro.engine.core", "ExecutionEngine", "run_streaming_counts"),
)


class Tracer:
    """In-memory span store plus the per-span counters ratios need."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1); a slot is reserved at
        # entry so children always have a larger index than their parent.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self._stack: List[int] = []
        self.distinct: Dict[str, set] = {name: set() for name in DISTINCT_SPANS}
        self.lex_tokens = 0
        self.cache_hits = 0

    def wrap(self, name: str, fn: Callable, *, source_arg: Optional[int] = None,
             on_result: Optional[Callable[[object], None]] = None) -> Callable:
        spans = self.spans
        stack = self._stack
        seen = self.distinct.get(name) if source_arg is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if seen is not None:
                source = args[source_arg] if len(args) > source_arg else next(iter(kwargs.values()))
                seen.add(hash(source))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- wrapped-result counters -------------------------------------------------

    def _count_tokens(self, tokens) -> None:
        self.lex_tokens += len(tokens)

    def _count_hit(self, response) -> None:
        if response is not None:
            self.cache_hits += 1

    # -- reporting ---------------------------------------------------------------

    def summary(self, wall_s: float) -> Dict[str, float]:
        """Per-span ``.calls/.self_s/.p50_ms/.p95_ms`` plus the ratios."""
        spans = [span for span in self.spans if span is not None]
        child_time = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                covered += end - start
        durations: Dict[str, List[float]] = {name: [] for name in SPAN_NAMES}
        self_s: Dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end = span[0], span[1], span[2]
            durations[name].append(end - start)
            self_s[name] += (end - start) - child_time[index]
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            values = durations[name]
            out[f"{name}.calls"] = len(values)
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.p50_ms"] = _percentile(values, 50) * 1e3
            out[f"{name}.p95_ms"] = _percentile(values, 95) * 1e3
        for name in DISTINCT_SPANS:
            calls = out[f"{name}.calls"]
            out[f"{name}.distinct_ratio"] = len(self.distinct[name]) / calls if calls else 0.0
        gets = out["engine.cache_get.calls"]
        out["engine.cache_get.hit_ratio"] = self.cache_hits / gets if gets else 0.0
        lex_s = out["cparse.lex.self_s"]
        out["cparse.lex.tokens_per_s"] = self.lex_tokens / lex_s if lex_s > 0 else 0.0
        out["other.self_s"] = wall_s - covered
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start/end (s), parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _percentile(values: List[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _import_all_repro_modules() -> None:
    """Load every ``repro`` submodule so every binding of a target exists."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)
    importlib.import_module("repro.__main__")


def _rebind(target: Callable, replacement: Callable) -> int:
    """Replace every module-global binding of ``target``; return the count."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                setattr(module, attr, replacement)
                bound += 1
    return bound


def _language_model_classes() -> List[type]:
    """Every concrete class below ``LanguageModel`` that defines ``generate``."""
    from repro.llm.base import LanguageModel

    out, pending = [], list(LanguageModel.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "generate" in vars(cls) and cls not in out:
            out.append(cls)
    return out


def install() -> Tracer:
    """Wrap every layer entry point in this process; return the recorder.

    Raises ``RuntimeError`` when a target has no binding left to patch,
    so a renamed or moved entry point fails the traced run instead of
    silently reporting zero calls.
    """
    _import_all_repro_modules()
    tracer = Tracer()
    for span, module_name, attr in _FUNCTIONS:
        target = getattr(importlib.import_module(module_name), attr)
        kwargs = {}
        if span in DISTINCT_SPANS:
            kwargs["source_arg"] = 0
        if span == "cparse.lex":
            kwargs["on_result"] = tracer._count_tokens
        if _rebind(target, tracer.wrap(span, target, **kwargs)) == 0:
            raise RuntimeError(f"no binding of {module_name}.{attr} to trace")
    for span, module_name, class_name, method in _METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        if method not in vars(cls):
            raise RuntimeError(f"{class_name}.{method} is not defined on the class")
        kwargs = {"on_result": tracer._count_hit} if span == "engine.cache_get" else {}
        setattr(cls, method, tracer.wrap(span, vars(cls)[method], **kwargs))
    models = _language_model_classes()
    if not models:
        raise RuntimeError("no LanguageModel subclass defines generate")
    for cls in models:
        setattr(cls, "generate", tracer.wrap("llm.generate", vars(cls)["generate"]))
    _wrap_plans(tracer)
    return tracer


def _wrap_plans(tracer: Tracer) -> None:
    """Give every plan built by ``collect_default_plans`` traced hooks.

    ``TablePlan.prepare`` and ``TablePlan.reduce`` are per-instance
    callables, so they are wrapped on each plan as it is built.
    """
    import repro.engine.scheduler as scheduler

    collect = scheduler.collect_default_plans  # already the traced wrapper

    @functools.wraps(collect)
    def collect_and_wrap(*args, **kwargs):
        plans = collect(*args, **kwargs)
        for plan in plans:
            if plan.prepare is not None:
                plan.prepare = tracer.wrap("engine.prepare", plan.prepare)
            plan.reduce = tracer.wrap("eval.reduce", plan.reduce)
        return plans

    _rebind(collect, collect_and_wrap)
