"""Measurement: cell isolation, passes, the determinism guard, metrics.

End-to-end metrics come from untraced passes only, in reference seconds:
the calibration kernel runs before and after every untraced pass and
rescales that pass's cell times (see :mod:`perfbench.calibration`).  A
traced run alternates untraced and traced passes, so
``trace.overhead_ratio`` compares raw passes measured side by side in
one process.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.analysis import admission
from repro.regions.kernel import get_kernel
from repro.runtime import sentinel as sentinel_globals
from repro.runtime.tracing import ExecutionTracer

from perfbench.calibration import NOMINAL_S, kernel_seconds
from perfbench.catalog import END_TO_END, PER_LAYER
from perfbench.tracer import LayerTracer, SpanSummary, summarize
from perfbench.workloads import Cell

#: exact per-cell values read from the runtime's counters
_RUNTIME_COUNTERS = (
    "dm.migrated_bytes",
    "dm.replicated_bytes",
    "dm.read_escalations",
    "dm.replicas_fetched",
    "dm.migrations",
    "balancer.migrations",
    "sched.remote_dispatch",
    "sched.local_dispatch",
)

#: span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "regions": "regions.self_s",
    "items": "items.self_s",
    "index.update": "index.update.self_s",
    "scheduler": "scheduler.self_s",
    "dm": "dm.self_s",
    "locks": "locks.self_s",
    "sentinel": "sentinel.self_s",
    "runtime": "runtime.self_s",
    "engine": "engine.self_s",
    "net": "net.self_s",
    "mpi": "mpi.self_s",
}


def isolate() -> None:
    """Start a cell cold: no region memo, no sentinel state, no garbage.

    The region kernel is process-global, so without the reset a cell
    would inherit the previous cell's memo (users pay a cold kernel on
    every fresh simulation).  Process-wide sentinel and admission
    auto-attachment is switched off so environment variables cannot
    change what is measured; grid-rebalance attaches its own sentinel.
    """
    get_kernel().reset()
    sentinel_globals.disable_globally()
    sentinel_globals.drain_created()
    admission.disable_globally()
    admission.drain_created()
    gc.collect()


def sim_values(result, cluster) -> dict[str, float]:
    """The cell's deterministic outputs: simulated results and counts."""
    metrics = cluster.metrics
    values = {
        "elapsed": result.elapsed,
        "work": result.work,
        "engine.events": float(cluster.engine.events_processed),
        "net.messages": metrics.counter("net.messages"),
        "net.bytes": metrics.counter("net.bytes"),
    }
    runtime = result.extras.get("runtime")
    if runtime is not None:
        values["net.send_queue_wait"] = metrics.stat("net.send_queue_wait").total
        values["index.hops"] = float(runtime.index.lookup_hops)
        for name in _RUNTIME_COUNTERS:
            values[name] = metrics.counter(name)
    return values


def kernel_values() -> dict[str, float]:
    """Region-kernel counters of the cell just run.

    Not part of the determinism guard: regions the set-up built (the TPC
    problem's) keep their interned ids across cells, so the first cell
    to use them interns and misses a little more than later ones.
    """
    stats = get_kernel().stats()
    return {
        name: float(stats[name])
        for name in ("region.cache_hits", "region.cache_misses", "region.interned")
    }


@dataclass
class CellRun:
    cell: Cell
    host_s: float
    values: dict[str, float]
    problems: list[str]
    kernel: dict[str, float] = field(default_factory=dict)
    #: traced runs only
    spans: SpanSummary | None = None
    phases: dict[str, float] | None = None


def _failure(cell: Cell, what: str, exc: Exception) -> str:
    print(f"perfbench: {cell.key} {what}:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)
    return f"{cell.key} {what} {type(exc).__name__}: {exc}"


def run_cell(cell: Cell, tracer: LayerTracer | None = None) -> CellRun:
    """Run one cell (traced if ``tracer``), then check its outputs."""
    isolate()
    phases = None
    hook = None
    if tracer is not None:
        tracer.log.clear()
        execution = ExecutionTracer()

        def hook(runtime) -> None:
            runtime.tracer = execution

        tracer.install()
    try:
        started = perf_counter()
        if tracer is not None:
            with tracer.span("cell"):
                result, cluster = cell.run(hook)
        else:
            result, cluster = cell.run(hook)
        host_s = perf_counter() - started
    except Exception as exc:  # a failed cell is counted, the run goes on
        return CellRun(cell, math.nan, {}, [_failure(cell, "raised", exc)])
    finally:
        if tracer is not None:
            tracer.uninstall()
    spans = None
    if tracer is not None:
        spans = summarize(tracer.log)
        tracer.log.clear()
        if "runtime" in result.extras:
            breakdown = execution.breakdown()
            phases = {
                "task.staging_s": breakdown.staging,
                "task.queue_wait_s": breakdown.queue_wait,
                "task.lock_wait_s": breakdown.lock_wait,
                "task.compute_s": breakdown.compute,
            }
    values = sim_values(result, cluster)
    kernel = kernel_values()
    try:
        problems = cell.check(result)
    except Exception as exc:
        problems = [_failure(cell, "check raised", exc)]
    return CellRun(cell, host_s, values, problems, kernel, spans, phases)


@dataclass
class Measurement:
    """Everything a run observed, folded into the catalogue's metrics."""

    cells: list[Cell]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: cell key -> reference seconds of each untraced run (see calibration)
    host_s: dict[str, list[float]] = field(default_factory=dict)
    #: cell key -> host seconds of each untraced run, as measured
    raw_host_s: dict[str, list[float]] = field(default_factory=dict)
    #: cell key -> values of the first successful run (determinism guard)
    first: dict[str, dict[str, float]] = field(default_factory=dict)
    #: cell key -> span counts of the first traced run (determinism guard)
    first_spans: dict[str, dict[str, int]] = field(default_factory=dict)
    untraced_pass_s: list[float] = field(default_factory=list)
    traced_passes: list[list[CellRun]] = field(default_factory=list)

    def record(self, run: CellRun, scale: float = 1.0) -> None:
        """Count one cell run; ``scale`` converts its host seconds to
        reference seconds."""
        self.attempted += 1
        problems = list(run.problems)
        if run.values:
            problems += self._guard(run)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        elif run.spans is None:
            key = run.cell.key
            self.host_s.setdefault(key, []).append(run.host_s * scale)
            self.raw_host_s.setdefault(key, []).append(run.host_s)

    def _guard(self, run: CellRun) -> list[str]:
        """Simulated values and work counts must repeat exactly."""
        observed = [(self.first, run.values)]
        if run.spans is not None:
            counts = {
                "regions.ops": run.spans.calls["regions"],
                "index.lookup.calls": run.spans.entries["index.lookup"],
            }
            observed.append((self.first_spans, counts))
        problems = []
        for store, values in observed:
            reference = store.setdefault(run.cell.key, values)
            problems += [
                f"{run.cell.key}: nondeterministic {name}: "
                f"{reference[name]!r} then {value!r}"
                for name, value in values.items()
                if reference.get(name) != value
            ]
        return problems

    def run_pass(self, tracer: LayerTracer | None = None) -> None:
        if tracer is not None:
            runs = [run_cell(cell, tracer) for cell in self.cells]
            for run in runs:
                self.record(run)
            self.traced_passes.append(runs)
            return
        before = kernel_seconds()
        runs = [run_cell(cell) for cell in self.cells]
        after = kernel_seconds()
        scale = NOMINAL_S / ((before + after) / 2)
        for run in runs:
            self.record(run, scale)
        self.untraced_pass_s.append(
            sum(r.host_s for r in runs if math.isfinite(r.host_s))
        )

    # -- end-to-end metrics ------------------------------------------------------

    def fig7_values(self, system: str) -> dict[tuple[str, int], dict]:
        return {
            (c.app, c.nodes): self.first[c.key]
            for c in self.cells
            if c.fig7 and c.system == system and c.key in self.first
        }

    def as_mpi_ratio(self) -> float:
        allscale = self.fig7_values("allscale")
        mpi = self.fig7_values("mpi")
        ratios = [
            (a["work"] / a["elapsed"]) / (mpi[k]["work"] / mpi[k]["elapsed"])
            for k, a in allscale.items()
            if k in mpi
        ]
        return math.prod(ratios) ** (1 / len(ratios)) if ratios else 0.0

    def wall_s(self, raw: bool = False) -> float:
        """Median reference (or raw host) seconds of each cell, summed."""
        runs = self.raw_host_s if raw else self.host_s
        return sum(statistics.median(v) for v in runs.values())

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        allscale = self.fig7_values("allscale").values()
        return {
            "wall_s": self.wall_s(),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "as_mpi_ratio": self.as_mpi_ratio(),
            "sim_msgs": sum(v["net.messages"] for v in allscale),
            "sim_bytes": sum(v["net.bytes"] for v in allscale),
            "ok_ratio": (self.attempted - self.failed) / self.attempted,
        }

    # -- per-layer metrics --------------------------------------------------------

    def per_layer(self, setup: SpanSummary) -> dict[str, float]:
        passes = [p for p in self.traced_passes if all(r.spans for r in p)]
        if not passes:
            return {m.name: 0.0 for m in PER_LAYER}
        sums = [_pass_totals(p) for p in passes]

        def median(name: str) -> float:
            return statistics.median(s[name] for s in sums)

        first = sums[0]
        out: dict[str, float] = {}
        for span, metric in SELF_TIME_METRICS.items():
            out[metric] = setup.self_s[span] + median(f"self:{span}")
        lookups = np.concatenate(
            [r.spans.entry_seconds["index.lookup"] for p in passes for r in p]
        )
        events = first["engine.events"]
        hits, misses = first["region.cache_hits"], first["region.cache_misses"]
        dispatched = first["sched.remote_dispatch"] + first["sched.local_dispatch"]
        fetched = first["dm.replicas_fetched"]
        out.update(
            {
                "regions.ops": first["calls:regions"],
                "regions.cache_hit_ratio": (
                    hits / (hits + misses) if hits + misses else 0.0
                ),
                "regions.interned": first["region.interned"],
                "items.calls": setup.calls["items"] + first["calls:items"],
                "apps.make_problem_s": float(
                    setup.entry_seconds["apps.make_problem"].sum()
                ),
                "index.lookup.calls": first["entries:index.lookup"],
                "index.lookup.p50_us": _percentile_us(lookups, 50),
                "index.lookup.p99_us": _percentile_us(lookups, 99),
                "index.update.calls": first["calls:index.update"],
                "index.hops": first["index.hops"],
                "scheduler.remote_ratio": (
                    first["sched.remote_dispatch"] / dispatched if dispatched else 0.0
                ),
                "dm.migrated_bytes": first["dm.migrated_bytes"],
                "dm.replicated_bytes": first["dm.replicated_bytes"],
                "dm.escalation_ratio": (
                    first["dm.read_escalations"] / fetched if fetched else 0.0
                ),
                "balancer.migrations": first["balancer.migrations"],
                "engine.events": events,
                "engine.host_us_per_event": (
                    out["engine.self_s"] / events * 1e6 if events else 0.0
                ),
                "net.messages": first["net.messages"],
                "net.send_queue_wait_s": first["net.send_queue_wait"],
                "trace.overhead_ratio": statistics.median(
                    sum(r.host_s for r in p if math.isfinite(r.host_s))
                    for p in passes
                )
                / statistics.median(self.untraced_pass_s),
            }
        )
        for phase in ("task.staging_s", "task.queue_wait_s",
                      "task.lock_wait_s", "task.compute_s"):
            out[phase] = first[phase]
        return out


def _pass_totals(runs: list[CellRun]) -> dict[str, float]:
    """One traced pass summed over its cells (every workload has AllScale
    cells, so the runtime counters and task phases are always present)."""
    totals: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0.0) + value

    for run in runs:
        for name, value in run.values.items():
            add(name, value)
        for name, value in (*run.kernel.items(), *(run.phases or {}).items()):
            add(name, value)
        for name, value in run.spans.self_s.items():
            add(f"self:{name}", value)
        for name, value in run.spans.calls.items():
            add(f"calls:{name}", value)
        for name, value in run.spans.entries.items():
            add(f"entries:{name}", value)
    return totals


def _percentile_us(seconds: np.ndarray, q: float) -> float:
    return float(np.percentile(seconds, q) * 1e6) if len(seconds) else 0.0


def peak_rss_mb() -> float:
    """Resident-set high-water mark of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(measurement: Measurement) -> str:
    """Digest of every cell's exact values: equal seeds give equal digests."""
    payload = json.dumps(
        {key: measurement.first[key] for key in sorted(measurement.first)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def result_line(
    measurement: Measurement, metrics: dict[str, float], traced: bool
) -> str:
    """The final stdout line the benchmark contract asks for."""
    units = {m.name: m.unit for m in (PER_LAYER if traced else END_TO_END)}
    return json.dumps(
        {
            "correct": measurement.failed == 0,
            "attempted": measurement.attempted,
            "failed": measurement.failed,
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )
