"""The benchmark's three workloads, their cells, and the output checks.

A *cell* is one ``(app, system, nodes)`` simulation driven through the
public entry points in :mod:`repro.apps`.  A workload's set-up builds its
cells (and, for TPC, the problems ``make_problem`` plans); a *pass* runs
every cell once, serially, in one thread.  Workloads are closed batches:
the next cell starts when the previous one finishes.

Sizes are reduced from the paper's Fig. 7 so that one pass takes a few
host seconds on a 2-core machine and a run can repeat it: the grid cells
use a Meggie-like cluster with 4 cores per node (the paper's nodes have
20), which keeps the 1/4/16-node sweep and the network model but cuts
the task count five-fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.apps.common import AppResult
from repro.apps.ipic3d import IPic3DWorkload, ipic3d_allscale, ipic3d_mpi
from repro.apps.stencil import (
    StencilWorkload,
    sequential_reference,
    stencil_allscale,
    stencil_mpi,
)
from repro.apps.tpc import TPCWorkload, make_problem, tpc_allscale, tpc_mpi
from repro.regions.box import Box
from repro.runtime.config import RuntimeConfig
from repro.runtime.sentinel import RuntimeSentinel, SentinelConfig
from repro.runtime.tasks import TaskSpec
from repro.sim.cluster import Cluster, ClusterSpec, meggie_like_spec

#: Fig. 7's node counts, cut at 16
NODE_COUNTS = (1, 4, 16)
GRID_CORES_PER_NODE = 4
REBALANCE_NODES = 8

#: Fig. 7's runtime configuration (repro.bench.figures uses the same)
FIG7_CONFIG = RuntimeConfig(functional=False, oversubscription=2)
#: a 1 ms balancer period fires often enough in the ~0.2 simulated seconds
#: of the 4-step run to order a few dozen migrations and some read
#: escalations
REBALANCE_CONFIG = replace(
    FIG7_CONFIG, load_balancing=True, balancer_interval=0.001
)

#: Fig. 7's reduced ("quick") grid sizes, as in repro.bench.figures
STENCIL = StencilWorkload(n_per_node=4_000, timesteps=2, functional=False)
IPIC3D = IPic3DWorkload(
    particles_per_node=48_000_000, cells_per_node_side=8, timesteps=2
)
#: the functional check cell: real values, small enough to compare
STENCIL_FUNCTIONAL = StencilWorkload(n_per_node=12, timesteps=3, functional=True)
STENCIL_REBALANCE = StencilWorkload(n_per_node=4_000, timesteps=4, functional=False)
#: Fig. 7's TPC set-up (2^29 points, depth 16) with a 256-query window;
#: the window's size sets how much the seed moves the simulated results
TPC_QUERIES = 256


def tpc_workload(seed: int) -> TPCWorkload:
    return TPCWorkload(
        total_points=2**29,
        depth=16,
        queries_total=TPC_QUERIES,
        functional=False,
        visit_flops=150.0,
        point_flops=30.0,
        task_subtree_height=9,
        seed=seed,
    )


def grid_spec(nodes: int) -> ClusterSpec:
    return replace(meggie_like_spec(nodes), cores_per_node=GRID_CORES_PER_NODE)


#: hook called with each AllScale runtime before its driver starts
RuntimeHook = Callable[[object], None]


@dataclass(frozen=True)
class Cell:
    """One simulation plus the checks its outputs must pass."""

    app: str
    system: str  # "allscale" | "mpi"
    nodes: int
    #: runs the simulation on a fresh cluster; returns (result, cluster)
    run: Callable[[RuntimeHook | None], tuple[AppResult, Cluster]]
    #: output checks; returns a list of problems (empty = correct)
    check: Callable[[AppResult], list[str]]
    #: counts towards as_mpi_ratio, sim_msgs and sim_bytes
    fig7: bool = True

    @property
    def key(self) -> str:
        return f"{self.app}/{self.system}/{self.nodes}"


def _on_cluster(spec: ClusterSpec, app: Callable, *args, **kwargs):
    def run(hook: RuntimeHook | None) -> tuple[AppResult, Cluster]:
        cluster = Cluster(spec)
        hooked = dict(kwargs, on_runtime=hook) if hook is not None else kwargs
        return app(cluster, *args, **hooked), cluster

    return run


def _mpi_on_cluster(spec: ClusterSpec, app: Callable, *args, **kwargs):
    def run(_hook: RuntimeHook | None) -> tuple[AppResult, Cluster]:
        cluster = Cluster(spec)
        return app(cluster, *args, **kwargs), cluster

    return run


# -- output checks ---------------------------------------------------------------


def check_completed(result: AppResult) -> list[str]:
    """The driver finished and measured a positive, finite time."""
    if not (math.isfinite(result.elapsed) and result.elapsed > 0):
        return [f"elapsed time {result.elapsed!r} is not positive and finite"]
    return []


def check_allscale(result: AppResult) -> list[str]:
    problems = check_completed(result)
    try:
        result.extras["runtime"].check_ownership_invariants()
    except AssertionError as exc:
        problems.append(f"ownership invariants: {exc}")
    return problems


def check_counts(
    counts: list[float], reference: list[float], label: str
) -> list[str]:
    """Per-query counts must equal the reference (float sums may differ
    in the last bits because the runtime adds partial counts in another
    order)."""
    if len(counts) != len(reference):
        return [f"{label}: {len(counts)} counts for {len(reference)} queries"]
    wrong = [
        qi
        for qi, (got, want) in enumerate(zip(counts, reference))
        if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    ]
    if wrong:
        qi = wrong[0]
        return [
            f"{label}: {len(wrong)} wrong count(s); query {qi} gave "
            f"{counts[qi]!r}, exact_count is {reference[qi]!r}"
        ]
    return []


def read_grid(result: AppResult) -> np.ndarray:
    """Gather the final grid of a functional stencil run through a task."""
    runtime = result.extras["runtime"]
    grid = result.extras["final_grid"]

    def body(ctx):
        return ctx.fragment(grid).gather(Box.of((0, 0), grid.shape)).copy()

    task = TaskSpec(
        name="readback", reads={grid: grid.full_region}, body=body, size_hint=1
    )
    return runtime.wait(runtime.submit(task))


def check_functional_stencil(result: AppResult) -> list[str]:
    problems = check_allscale(result)
    values = read_grid(result)
    reference = sequential_reference(STENCIL_FUNCTIONAL, result.nodes)
    if not np.allclose(values, reference):
        problems.append("functional stencil differs from sequential_reference")
    return problems


def check_sentinel(result: AppResult) -> list[str]:
    problems = check_allscale(result)
    sentinel = result.extras["runtime"].sentinel
    if sentinel is None:
        return problems + ["no sentinel attached"]
    sentinel.verify_all()
    if sentinel.violations:
        problems.append(
            f"{len(sentinel.violations)} sentinel violation(s): "
            f"{sentinel.violations[0]}"
        )
    return problems


# -- workloads -----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: whether the CLI seed changes the inputs
    seeded: bool
    #: set-up: seed -> cells (TPC plans its problems here)
    setup: Callable[[int], list[Cell]]


def grid_scaling_cells(seed: int) -> list[Cell]:
    cells = []
    for app, workload, as_run, mpi_run in (
        ("stencil", STENCIL, stencil_allscale, stencil_mpi),
        ("ipic3d", IPIC3D, ipic3d_allscale, ipic3d_mpi),
    ):
        for nodes in NODE_COUNTS:
            spec = grid_spec(nodes)
            cells.append(
                Cell(app, "allscale", nodes,
                     _on_cluster(spec, as_run, workload, FIG7_CONFIG),
                     check_allscale)
            )
            cells.append(
                Cell(app, "mpi", nodes,
                     _mpi_on_cluster(spec, mpi_run, workload),
                     check_completed)
            )
    small = ClusterSpec(num_nodes=2, cores_per_node=2, flops_per_core=1e9)
    cells.append(
        Cell("stencil-functional", "allscale", 2,
             _on_cluster(small, stencil_allscale, STENCIL_FUNCTIONAL),
             check_functional_stencil, fig7=False)
    )
    return cells


class _TPCReference:
    """Exact per-query counts, computed once per seed on first use.

    ``make_problem`` draws the queries from the seed alone, so every node
    count's problem holds the same queries; the check confirms that
    before reusing the counts.
    """

    def __init__(self, problem) -> None:
        self._problem = problem
        self._counts: list[float] | None = None

    def counts_for(self, problem) -> list[float] | None:
        if not np.array_equal(problem.queries, self._problem.queries):
            return None
        if self._counts is None:
            first = self._problem
            self._counts = [
                first.exact_count(qi) for qi in range(len(first.queries))
            ]
        return self._counts


def _tpc_checks(problem, reference: _TPCReference):
    def check_as(result: AppResult) -> list[str]:
        problems = check_allscale(result)
        exact = reference.counts_for(problem)
        if exact is None:
            return problems + ["queries differ between node counts"]
        return problems + check_counts(
            list(result.extras["counts"]), exact, result_label(result)
        )

    def check_mpi(result: AppResult) -> list[str]:
        problems = check_completed(result)
        exact = reference.counts_for(problem)
        if exact is None:
            return problems + ["queries differ between node counts"]
        total = sum(result.extras["totals"].values())
        if not math.isclose(total, sum(exact), rel_tol=1e-9, abs_tol=1e-9):
            problems.append(
                f"{result_label(result)}: total {total!r} != {sum(exact)!r}"
            )
        return problems

    return check_as, check_mpi


def result_label(result: AppResult) -> str:
    return f"{result.app}/{result.system}/{result.nodes}"


def tpc_queries_cells(seed: int) -> list[Cell]:
    workload = tpc_workload(seed)
    cells = []
    reference = None
    for nodes in NODE_COUNTS:
        problem = make_problem(workload, nodes)
        reference = reference or _TPCReference(problem)
        check_as, check_mpi = _tpc_checks(problem, reference)
        spec = meggie_like_spec(nodes)
        cells.append(
            Cell("tpc", "allscale", nodes,
                 _on_cluster(spec, tpc_allscale, workload, FIG7_CONFIG,
                             problem=problem),
                 check_as)
        )
        cells.append(
            Cell("tpc", "mpi", nodes,
                 _mpi_on_cluster(spec, tpc_mpi, workload, problem=problem),
                 check_mpi)
        )
    return cells


def _with_sentinel(app: Callable):
    """Attach the runtime sentinel (bench profile) before the driver runs."""

    def run(cluster, *args, on_runtime=None, **kwargs):
        def hook(runtime) -> None:
            RuntimeSentinel(runtime, SentinelConfig.bench_profile()).attach()
            if on_runtime is not None:
                on_runtime(runtime)

        return app(cluster, *args, on_runtime=hook, **kwargs)

    return run


def grid_rebalance_cells(seed: int) -> list[Cell]:
    spec = grid_spec(REBALANCE_NODES)
    return [
        Cell("stencil-rebalance", "allscale", REBALANCE_NODES,
             _on_cluster(spec, _with_sentinel(stencil_allscale),
                         STENCIL_REBALANCE, REBALANCE_CONFIG),
             check_sentinel),
        Cell("stencil-rebalance", "mpi", REBALANCE_NODES,
             _mpi_on_cluster(spec, stencil_mpi, STENCIL_REBALANCE),
             check_completed),
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "grid-scaling",
            "Fig. 7 stencil and iPiC3D weak scaling at 1/4/16 nodes, "
            "balancer off: box-set regions, read-only lookups, scheduler "
            "and engine",
            seeded=False,
            setup=grid_scaling_cells,
        ),
        Workload(
            "tpc-queries",
            "Fig. 7 TPC with a seeded query window: kd-tree plans dominate "
            "set-up, tree regions and many tiny remote tasks make it "
            "latency-bound",
            seeded=True,
            setup=tpc_queries_cells,
        ),
        Workload(
            "grid-rebalance",
            "stencil on 8 nodes with the balancer and sentinel on: "
            "ownership updates, migrations, replica invalidation and read "
            "escalations",
            seeded=False,
            setup=grid_rebalance_cells,
        ),
    )
}
