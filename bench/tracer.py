"""Function-boundary tracing of the newsvalue package from outside it.

`Tracer.install()` replaces every public function of every `newsvalue.*`
module, in every module namespace that binds it (``from .textvec import
cosine`` makes a second binding), and every public method on the classes
the package defines. `uninstall()` puts the originals back. One tracer
traces one verb (`run_verb`), which is its root span.

Three kinds of wrapper keep the cost proportional to what is needed:

* span: coarse calls. Each call is kept in memory as (id, parent id, name,
  start, end) and counts towards calls, total and self time.
* timed counter: frequent calls whose time is reported. Calls, total and
  self time are accumulated; no span is kept.
* counter: hot leaf calls. Only the call count (and optional work units)
  is kept; their time counts as self time of the enclosing call.

Total time counts only the outermost call of a recursive function. Self
time is a call's duration minus the time of the timed calls inside it.
Times are `time.perf_counter` seconds.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import types
from time import perf_counter
from typing import Callable

PACKAGE = "newsvalue"

# Hot leaf calls: counted, never timed.
COUNTERS = frozenset({
    "textvec.cosine", "textvec.tokenize", "textvec.vectorize", "textvec.token_spans",
    "textvec.SparseVector.dot", "textvec.SparseVector.scaled", "textvec.TfidfModel.idf",
    "spans.select_spans", "scope.scope_pattern_spans", "scope.taxonomy_spans",
    "scope.match_phrases", "scope.find_alarm_levels", "scope.find_quake_magnitudes",
    "scope.find_wildfire_sizes", "scope.find_vehicle_counts", "scope.find_weather_scales",
    "scope.find_hail_sizes", "geo.geocode", "geo.Gazetteer.lookup", "geo.Gazetteer.best",
    "rarity.grid_cell", "linear.LinearModel.decision", "linear.LinearModel.predict",
    "model.svm_predict", "impact.parse_word_number",
    "records.Post.from_record", "records.Post.to_record",
    "records.Headline.from_record", "records.Headline.to_record",
    "records.SourceProfile.from_record", "records.SourceProfile.to_record",
    "records.TopicAssignment.from_record", "records.TopicAssignment.to_record",
    "rarity.TaggedPost.from_record",
})

# Frequent calls whose time is a layer metric: timed, no spans kept.
TIMED_COUNTERS = frozenset({
    "spans.phrase_spans", "geo.tag_locations", "impact.classify_impact",
    "impact.impact_features", "impact.extract_numeric_phrases", "model.svm_score",
    "labeling.mask_taxonomy_tokens", "labeling.mask_spans",
})

# Work units per call, from (args, kwargs, result).
UNITS: dict[str, Callable] = {
    "textvec.cosine": lambda a, k, r: 1 if r > 0.0 else 0,
    "records.read_ndjson": lambda a, k, r: len(r[0]),
    "linear.train_binary_hinge": lambda a, k, r: len(a[0]) * a[1].epochs,
}


class Stat:
    """Per-name aggregate: calls, total and self seconds, work units."""

    __slots__ = ("calls", "total", "self", "units")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.units = 0

    def add(self, other: "Stat") -> None:
        self.calls += other.calls
        self.total += other.total
        self.self += other.self
        self.units += other.units


class Tracer:
    """Owns the wrappers, the spans and the statistics of one traced verb."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # frames: [child seconds, span id]
        self._depth: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(owner, attribute, raw value, function, traced name) to patch."""
        prefix = PACKAGE + "."
        for mod in modules():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and value.__module__.startswith(prefix):
                    short = value.__module__[len(prefix):]
                    yield mod, attr, value, value, f"{short}.{value.__qualname__}"
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    short = mod.__name__[len(prefix):]
                    for mattr, raw in list(vars(value).items()):
                        if mattr.startswith("_"):
                            continue
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if isinstance(fn, types.FunctionType):
                            yield value, mattr, raw, fn, f"{short}.{fn.__qualname__}"

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        for owner, attr, raw, fn, name in self._targets():
            wrapper = wrappers.get(id(fn))
            if wrapper is None:
                wrapper = wrappers[id(fn)] = self._wrap(fn, name)
            if isinstance(raw, classmethod):
                new = classmethod(wrapper)
            elif isinstance(raw, staticmethod):
                new = staticmethod(wrapper)
            else:
                new = wrapper
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers -----------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, fn: Callable, name: str) -> Callable:
        units = UNITS.get(name)
        if name in COUNTERS:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                result = fn(*args, **kwargs)
                st = self._stat(name)
                st.calls += 1
                if units is not None:
                    st.units += units(args, kwargs, result)
                return result
            return counter

        keep = name not in TIMED_COUNTERS

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack
            span_id = next(self._ids) if keep else 0
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            depth = self._depth.get(name, 0)
            self._depth[name] = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._depth[name] = depth
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                st = self._stat(name)
                st.calls += 1
                st.self += duration - frame[0]
                if depth == 0:
                    st.total += duration
                if keep:
                    self.spans.append((span_id, parent, name, start, end))
            if units is not None:
                st.units += units(args, kwargs, result)
            return result
        return timed

    # -- verbs --------------------------------------------------------------

    def run_verb(self, verb: str, call: Callable):
        """Run call() as the root span `cli.<verb>`."""
        name = f"cli.{verb}"
        span_id = next(self._ids)
        frame = [0.0, span_id]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return call()
        finally:
            end = perf_counter()
            self._stack.pop()
            st = self._stat(name)
            st.calls += 1
            st.total += end - start
            st.self += end - start - frame[0]
            self.spans.append((span_id, 0, name, start, end))


def modules() -> list[types.ModuleType]:
    """Every module of the traced package."""
    pkg = importlib.import_module(PACKAGE)
    names = sorted(m.name for m in pkgutil.iter_modules(pkg.__path__))
    return [importlib.import_module(f"{PACKAGE}.{n}") for n in names]
