"""Span tracing around the public callables of the repo's layers.

The traced run patches each layer's public methods (on the class, so
every instance sees the wrapper) with a wrapper that records one span:
``(name, start, end, parent)`` plus the call it belongs to.  A method
that returns a generator is timed per *resumption* (each ``send`` /
``throw``), never at creation, because its work happens when the
simulation engine resumes it.  Generators handed to ``SimEngine.spawn``
that no wrapper already covers are attributed to the layer of the module
that defined them, so process bodies count where their code lives.

Spans nest strictly (one thread, synchronous calls), so a span's self
time is its duration minus the durations of its direct children.

Nothing here changes what the program computes: the wrappers forward
arguments, return values, yielded values and exceptions unchanged.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

#: (span name, module, class, methods); ``None`` wraps every public method
#: the class itself defines (properties and static helpers excluded)
LAYER_METHODS: tuple[tuple[str, str, str, tuple[str, ...] | None], ...] = (
    ("regions", "repro.regions.kernel", "RegionKernel",
     ("union", "intersect", "difference", "covers", "overlaps")),
    ("items", "repro.items.kdtree", "KDTreeStructure",
     ("classify", "min_dist2", "max_dist2", "query", "query_from",
      "leaf_tally")),
    ("items", "repro.items.kdtree", "KDTreeItem", None),
    ("items", "repro.items.kdtree", "KDTreeFragment", None),
    ("items", "repro.items.grid", "Grid", None),
    ("items", "repro.items.grid", "GridFragment", None),
    ("items", "repro.items.base", "DataItem", None),
    ("index.lookup", "repro.runtime.index", "HierarchicalIndex",
     ("lookup", "lookup_cached")),
    ("index.update", "repro.runtime.index", "HierarchicalIndex",
     ("update_ownership",)),
    ("scheduler", "repro.runtime.scheduler", "Scheduler",
     ("assign", "assign_batch")),
    ("dm", "repro.runtime.data_manager", "DataItemManager", None),
    ("locks", "repro.runtime.locks", "LockTable", None),
    ("balancer", "repro.runtime.balancer", "LoadBalancer", None),
    # _on_event is the sentinel's engine listener: its per-event entry point
    ("sentinel", "repro.runtime.sentinel", "RuntimeSentinel", None),
    ("sentinel", "repro.runtime.sentinel", "RuntimeSentinel", ("_on_event",)),
    ("engine", "repro.sim.engine", "SimEngine", ("run",)),
    ("net", "repro.sim.network", "Network", None),
    ("mpi", "repro.mpi.comm", "Communicator", None),
)

#: (span name, module, function) for module-level functions, patched in the
#: namespace that calls them: every AllScaleRuntime asks the sentinel layer
#: whether to attach, through runtime.py's own binding of this function
MODULE_FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("sentinel", "repro.runtime.runtime", "attach_from_global"),
)

#: module prefix -> span name for spawned generators (first match wins)
SPAWN_LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.runtime.index", "index.lookup"),
    ("repro.runtime.scheduler", "scheduler"),
    ("repro.runtime.data_manager", "dm"),
    ("repro.runtime.balancer", "balancer"),
    ("repro.runtime.sentinel", "sentinel"),
    ("repro.runtime", "runtime"),
    ("repro.sim", "engine"),
    ("repro.mpi", "mpi"),
    ("repro.apps", "apps"),
)

#: every span name: "cell" is the benchmark's root span around one cell,
#: "apps.make_problem" its span around the workload set-up
SPAN_NAMES: tuple[str, ...] = tuple(
    dict.fromkeys(
        (
            "cell",
            "apps.make_problem",
            "other",
            *(name for name, *_ in LAYER_METHODS),
            *(name for _, name in SPAWN_LAYERS),
        )
    )
)


class SpanLog:
    """In-memory spans: parallel arrays indexed by span number.

    ``call[i]`` is the number of the first span of the call span ``i``
    belongs to (``i`` itself for a plain call; the first resumption for a
    generator), so a generator's resumptions can be summed per call.
    """

    def __init__(self) -> None:
        self.names = SPAN_NAMES
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.call = array("q")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name_id: int, call: int = -1) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.call.append(index if call < 0 else call)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    def record(
        self, name: str, start: float, end: float, parent: int, call: int = -1
    ) -> int:
        """Append a finished span (tests and synthetic spans)."""
        index = len(self.name)
        self.name.append(self.ids[name])
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.call.append(index if call < 0 else call)
        return index


@dataclass
class SpanSummary:
    """Per-name totals over a span log."""

    #: name -> summed self seconds
    self_s: dict[str, float]
    #: name -> number of calls (a generator's resumptions count once)
    calls: dict[str, int]
    #: name -> calls entering the name from another span name
    entries: dict[str, int]
    #: name -> seconds of each entering call, resumptions summed
    entry_seconds: dict[str, np.ndarray]


def summarize(log: SpanLog) -> SpanSummary:
    """Self time, call counts and per-call latency from a span log."""
    n = len(log)
    names = np.array(log.name, dtype=np.int64)
    start = np.array(log.start, dtype=np.float64)
    end = np.array(log.end, dtype=np.float64)
    parent = np.array(log.parent, dtype=np.int64)
    call = np.array(log.call, dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=n
    )
    own = dur - child_time
    k = len(log.names)
    self_by_name = np.bincount(names, weights=own, minlength=k)
    first = call == np.arange(n)
    calls_by_name = np.bincount(names[first], minlength=k)
    parent_name = np.full(n, -1, dtype=np.int64)
    parent_name[has_parent] = names[parent[has_parent]]
    entry = first & (parent_name != names)
    entries_by_name = np.bincount(names[entry], minlength=k)
    per_call = np.bincount(call, weights=dur, minlength=n)
    entry_seconds = {
        log.names[i]: per_call[entry & (names == i)] for i in range(k)
    }
    return SpanSummary(
        self_s={log.names[i]: float(self_by_name[i]) for i in range(k)},
        calls={log.names[i]: int(calls_by_name[i]) for i in range(k)},
        entries={log.names[i]: int(entries_by_name[i]) for i in range(k)},
        entry_seconds=entry_seconds,
    )


def traced_generator(gen, name_id: int, log: SpanLog) -> Iterator:
    """Forward ``gen`` unchanged, recording one span per resumption."""
    call = -1
    value = None
    error: BaseException | None = None
    while True:
        span = log.open(name_id, call)
        if call < 0:
            call = span
        try:
            yielded = gen.throw(error) if error is not None else gen.send(value)
        except StopIteration as stop:
            log.close(span)
            return stop.value
        except BaseException:
            log.close(span)
            raise
        log.close(span)
        try:
            value = yield yielded
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen on the next turn
            value = None
            error = exc


_TRACED_CODE = traced_generator.__code__


def _wrap(fn: Callable, name_id: int, log: SpanLog) -> Callable:
    if inspect.isgeneratorfunction(fn):
        def traced(*args, **kwargs):
            return traced_generator(fn(*args, **kwargs), name_id, log)
    else:
        def traced(*args, **kwargs):
            span = log.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(span)
    traced.__name__ = fn.__name__
    traced.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def _public_methods(cls: type) -> tuple[str, ...]:
    return tuple(
        name
        for name, attr in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(attr)
    )


def spawn_layer(module: str) -> str:
    for prefix, name in SPAWN_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return name
    return "other"


class LayerTracer:
    """Installs and removes the span wrappers for one traced region."""

    def __init__(self, log: SpanLog | None = None) -> None:
        self.log = log or SpanLog()
        #: (class or module, attribute, original) to restore
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        log = self.log
        for name, module, cls_name, methods in LAYER_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods or _public_methods(cls):
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, _wrap(original, log.ids[name], log))
        for name, module_name, function in MODULE_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, function)
            self._saved.append((module, function, original))
            setattr(module, function, _wrap(original, log.ids[name], log))
        engine_cls = importlib.import_module("repro.sim.engine").SimEngine
        spawn = engine_cls.__dict__["spawn"]
        ids = log.ids

        def traced_spawn(engine, gen):
            code = getattr(gen, "gi_code", None)
            if code is not None and code is not _TRACED_CODE:
                module = gen.gi_frame.f_globals.get("__name__", "")
                gen = traced_generator(gen, ids[spawn_layer(module)], log)
            return spawn(engine, gen)

        self._saved.append((engine_cls, "spawn", spawn))
        engine_cls.spawn = traced_spawn

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block."""
        index = self.log.open(self.log.ids[name])
        try:
            yield
        finally:
            self.log.close(index)
