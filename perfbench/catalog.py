"""The benchmark's metric catalogue: every name it prints, declared once.

Each entry states the metric's unit and direction and, for per-layer
metrics, the layer it measures and the end-to-end metric and workload it
should move.  ``BENCHMARK.json`` at the repository root lists the same
names; ``perfbench/tests/test_perfbench_catalog.py`` keeps them, and the tables
in ``perfbench/README.md``, in step.

Units: ``s`` and ``us`` are host (wall-clock) time, the end-to-end ones
in reference seconds (see :mod:`perfbench.calibration`); ``sim_s`` is
simulated time; ``count``, ``bytes``, ``MB`` and ``ratio`` are what they
say.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

#: the naming rule BENCHMARK.json imposes on metric and workload names
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    meaning: str
    #: repo layer the metric measures (per-layer metrics only)
    layer: str = ""
    #: "<end-to-end metric> on <workloads>" it should move
    moves: str = ""
    #: regression bound, as a share of the parent's median (end-to-end only)
    bound: float | None = None


END_TO_END: tuple[Metric, ...] = (
    Metric(
        "wall_s", "s", "lower",
        "host seconds of one measured pass over all cells: the median of "
        "each cell's run time, summed over the cells (set-up excluded); "
        "in reference seconds, rescaled by the calibration kernel timed "
        "before and after each pass",
        bound=0.24,
    ),
    Metric(
        "setup_s", "s", "lower",
        "host seconds from process start to the first cell (imports, "
        "workload objects, TPC make_problem); median of this process "
        "and two fresh interpreters doing the same set-up, each in "
        "reference seconds by the calibration kernel timed after it",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mb", "MB", "lower",
        "host resident-memory high-water mark of the benchmark process",
        bound=0.1,
    ),
    Metric(
        "as_mpi_ratio", "ratio", "higher",
        "geometric mean over the Fig. 7 cell pairs of AllScale / MPI "
        "simulated throughput",
        bound=0.2,
    ),
    Metric(
        "sim_msgs", "count", "lower",
        "simulated net.messages, summed over the AllScale cells of a pass",
        bound=0.2,
    ),
    Metric(
        "sim_bytes", "bytes", "lower",
        "simulated net.bytes, summed over the AllScale cells of a pass",
        bound=0.2,
    ),
    Metric(
        "ok_ratio", "ratio", "higher",
        "cells that completed and passed every output check / cells "
        "attempted; 1 - fail_ratio (fail_ratio itself is printed too but "
        "is 0 on a healthy tree, and a zero median has no relative bound)",
        bound=0.01,
    ),
)


def _layer(name, unit, better, layer, moves, meaning):
    return Metric(name, unit, better, meaning, layer=layer, moves=moves)


PER_LAYER: tuple[Metric, ...] = (
    _layer("regions.self_s", "s", "lower", "regions",
           "wall_s on grid-scaling and grid-rebalance; small on tpc-queries",
           "self time in RegionKernel.union/intersect/difference/covers/overlaps"),
    _layer("regions.ops", "count", "lower", "regions",
           "wall_s on grid-scaling and grid-rebalance",
           "RegionKernel operation calls (nested calls included)"),
    _layer("regions.cache_hit_ratio", "ratio", "higher", "regions",
           "wall_s on grid-rebalance",
           "kernel memo hits / (hits + misses), from get_kernel().stats()"),
    _layer("regions.interned", "count", "lower", "regions",
           "peak_rss_mb on grid-rebalance",
           "regions interned by the kernel, summed over the cells"),
    _layer("items.self_s", "s", "lower", "items",
           "setup_s on tpc-queries; small elsewhere",
           "self time in repro.items: kd-tree classify/min_dist2/max_dist2/"
           "query/query_from/leaf_tally plus the grid and kd-tree item and "
           "fragment methods (set-up plus one pass)"),
    _layer("items.calls", "count", "lower", "items",
           "setup_s on tpc-queries; small elsewhere",
           "repro.items method calls (set-up plus one pass)"),
    _layer("apps.make_problem_s", "s", "lower", "apps",
           "setup_s on tpc-queries; about 0 elsewhere",
           "host seconds of the traced workload set-up: make_problem for "
           "every node count on tpc-queries, building the cells elsewhere"),
    _layer("index.lookup.calls", "count", "lower", "runtime.index",
           "wall_s on grid-scaling",
           "Algorithm-1 lookups entering the index (lookup, lookup_cached)"),
    _layer("index.lookup.p50_us", "us", "lower", "runtime.index",
           "wall_s on grid-scaling",
           "median host microseconds of one lookup, all resumptions summed"),
    _layer("index.lookup.p99_us", "us", "lower", "runtime.index",
           "wall_s on grid-scaling",
           "99th-percentile host microseconds of one lookup"),
    _layer("index.update.calls", "count", "lower", "runtime.index",
           "wall_s on grid-rebalance", "update_ownership calls"),
    _layer("index.update.self_s", "s", "lower", "runtime.index",
           "wall_s on grid-rebalance", "self time in update_ownership"),
    _layer("index.hops", "count", "lower", "runtime.index",
           "as_mpi_ratio on tpc-queries",
           "simulated index messages (HierarchicalIndex.lookup_hops)"),
    _layer("scheduler.self_s", "s", "lower", "runtime.scheduler",
           "wall_s on grid-scaling",
           "self time in assign/assign_batch and the placement processes "
           "they spawn"),
    _layer("scheduler.remote_ratio", "ratio", "lower", "runtime.scheduler",
           "sim_msgs and as_mpi_ratio on tpc-queries",
           "sched.remote_dispatch / all dispatches"),
    _layer("dm.self_s", "s", "lower", "runtime.data_manager",
           "wall_s on grid-rebalance",
           "self time in DataItemManager (ensure_for_task resumptions "
           "included)"),
    _layer("dm.migrated_bytes", "bytes", "lower", "runtime.data_manager",
           "sim_bytes on grid-rebalance and grid-scaling",
           "simulated bytes moved by ownership migration"),
    _layer("dm.replicated_bytes", "bytes", "lower", "runtime.data_manager",
           "sim_bytes on grid-rebalance and grid-scaling",
           "simulated bytes moved as read replicas"),
    _layer("dm.escalation_ratio", "ratio", "lower", "runtime.data_manager",
           "as_mpi_ratio on grid-rebalance",
           "dm.read_escalations / dm.replicas_fetched (retried reads)"),
    _layer("locks.self_s", "s", "lower", "runtime.locks",
           "wall_s on grid-scaling (ipic3d)", "self time in LockTable"),
    _layer("balancer.migrations", "count", "lower", "runtime.balancer",
           "sim_bytes on grid-rebalance",
           "migrations the load balancer ordered"),
    _layer("sentinel.self_s", "s", "lower", "runtime.sentinel",
           "wall_s on grid-rebalance only",
           "self time in the runtime sentinel's hooks, its event listener "
           "and the attach check every runtime makes"),
    _layer("runtime.self_s", "s", "lower", "runtime",
           "wall_s on every workload",
           "self time in the remaining runtime modules (process, runtime, "
           "transfers): the resumptions of the generators they spawn"),
    _layer("engine.events", "count", "lower", "sim.engine",
           "wall_s on every workload", "simulated events processed"),
    _layer("engine.self_s", "s", "lower", "sim.engine",
           "wall_s on grid-scaling",
           "self time in SimEngine.run (the loop plus unwrapped callbacks)"),
    _layer("engine.host_us_per_event", "us", "lower", "sim.engine",
           "wall_s on grid-scaling", "engine.self_s / engine.events"),
    _layer("net.self_s", "s", "lower", "sim.network",
           "wall_s", "self time in Network"),
    _layer("net.messages", "count", "lower", "sim.network",
           "sim_msgs", "simulated messages, all cells of a pass"),
    _layer("net.send_queue_wait_s", "sim_s", "lower", "sim.network",
           "as_mpi_ratio on tpc-queries",
           "simulated NIC send-queue wait, AllScale cells"),
    _layer("task.staging_s", "sim_s", "lower", "runtime.tracing",
           "as_mpi_ratio on grid-scaling and grid-rebalance",
           "simulated task staging time (ExecutionTracer)"),
    _layer("task.queue_wait_s", "sim_s", "lower", "runtime.tracing",
           "as_mpi_ratio on tpc-queries", "simulated task queue wait"),
    _layer("task.lock_wait_s", "sim_s", "lower", "runtime.tracing",
           "as_mpi_ratio", "simulated task lock wait"),
    _layer("task.compute_s", "sim_s", "lower", "runtime.tracing",
           "as_mpi_ratio", "simulated task compute time"),
    _layer("mpi.self_s", "s", "lower", "mpi",
           "about 0 on every workload (MPI is only the comparator)",
           "self time in Communicator"),
    _layer("trace.overhead_ratio", "ratio", "lower", "perfbench",
           "none (cost of the traced run itself)",
           "median traced pass wall / median untraced pass wall"),
)


def markdown_tables() -> str:
    """The catalogue as the two tables ``perfbench/README.md`` embeds."""
    lines = [
        "| name | unit | better | bound | meaning |",
        "|---|---|---|---|---|",
        *(
            f"| `{m.name}` | {m.unit} | {m.better} | {m.bound} | {m.meaning} |"
            for m in END_TO_END
        ),
        "",
        "| name | unit | better | layer | should move | meaning |",
        "|---|---|---|---|---|---|",
        *(
            f"| `{m.name}` | {m.unit} | {m.better} | `{m.layer}` | {m.moves} "
            f"| {m.meaning} |"
            for m in PER_LAYER
        ),
    ]
    return "\n".join(lines) + "\n"
