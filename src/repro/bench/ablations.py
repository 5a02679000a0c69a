"""The ``ablations`` panel: the design choices behind Fig. 4–5 and Alg. 1–2.

One cell per ablation, A–G (findings in EXPERIMENTS.md): region schemes
(Fig. 4b vs 4c), index lookup hops (Alg. 1), scheduling policies
(Alg. 2), TPC query bundling (§4.2), load balancing by data migration
(§3.2), GPU offloading (Example 2.3) and lookup caching (§6).  Each
cell's assertions are its gates.  Every value but Ablation A's region-op
rates (host-timed through the region kernel) is simulated and pinned.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Callable

from repro.api import box_region
from repro.api.pfor import _split_box
from repro.api.prec import PrecFunction, default_granularity
from repro.apps.stencil import StencilWorkload, stencil_allscale
from repro.apps.tpc import TPCWorkload, make_problem, tpc_allscale, tpc_mpi
from repro.bench.panel import BASELINE_ROOT, UNPINNED, Results, Values
from repro.bench.report import render_rows
from repro.bench.scaling import runtime_config
from repro.items.grid import Grid
from repro.regions.blocked_tree import BlockedTreeGeometry, BlockedTreeRegion
from repro.regions.box import Box
from repro.regions.tree import TreeGeometry, TreeRegion
from repro.runtime.balancer import LoadBalancer
from repro.runtime.index import HierarchicalIndex
from repro.runtime.policies import DataAwarePolicy, RandomPolicy, RoundRobinPolicy
from repro.runtime.runtime import AllScaleRuntime
from repro.sim.accelerator import AcceleratorSpec
from repro.sim.cluster import Cluster, ClusterSpec, meggie_like_spec



def _time_ops(make_region, block_sets) -> tuple[float, list]:
    regions = [make_region(blocks) for blocks in block_sets]
    start = time.perf_counter()
    for a in regions:
        for b in regions[: len(regions) // 8]:
            a.union(b)
            a.intersect(b)
            a.difference(b)
    elapsed = time.perf_counter() - start
    ops = len(regions) * (len(regions) // 8) * 3
    return ops / elapsed, regions


def ablation_regions() -> Values:
    rng = random.Random(99)
    blocked_geometry = BlockedTreeGeometry(depth=12, root_height=6)
    tree_geometry = TreeGeometry(12)
    block_sets = [
        rng.sample(
            range(1, blocked_geometry.num_blocks + 1),
            rng.randint(1, blocked_geometry.num_blocks),
        )
        for _ in range(40)
    ]
    blocked_rate, blocked_regions = _time_ops(
        lambda blocks: BlockedTreeRegion.of_blocks(blocked_geometry, blocks),
        block_sets,
    )
    flexible_rate, flexible_regions = _time_ops(
        lambda blocks: TreeRegion.of_subtrees(
            tree_geometry, [blocked_geometry.block_root(b) for b in blocks]
        ),
        block_sets,
    )
    return {
        "blocked bitmask (Fig. 4c)": {
            "representation": blocked_regions[0].representation_size()
        },
        "flexible sub-trees (Fig. 4b)": {
            "representation": max(r.representation_size() for r in flexible_regions)
        },
        "single_node_size": TreeRegion.of_nodes(tree_geometry, [5]).size(),
        UNPINNED: {
            "blocked_ops_per_s": blocked_rate,
            "flexible_ops_per_s": flexible_rate,
            "speedup": blocked_rate / flexible_rate,
        },
    }



def _index_point(num_processes: int, lookups: int = 200) -> Values:
    cluster = Cluster(ClusterSpec(num_nodes=num_processes, cores_per_node=1))
    index = HierarchicalIndex(cluster.network, num_processes)
    grid = Grid((num_processes * 64, 64), name="g")
    index.register_item(grid)
    blocks = grid.decompose(num_processes)
    for pid, region in enumerate(blocks):
        index.update_ownership(grid, pid, region)
    rng = random.Random(31)
    hops: list[int] = []
    latencies: list[float] = []
    unresolved = 0
    for _ in range(lookups):
        origin = rng.randrange(num_processes)
        target = rng.randrange(num_processes)
        before_hops = index.lookup_hops
        start = cluster.engine.now
        done = cluster.engine.spawn(index.lookup(grid, blocks[target], origin))
        cluster.engine.run()
        unresolved += not done.value[1].is_empty()
        hops.append(index.lookup_hops - before_hops)
        latencies.append(cluster.engine.now - start)
    return {
        "mean_hops": sum(hops) / len(hops),
        "max_hops": max(hops),
        "mean_latency_us": 1e6 * sum(latencies) / len(latencies),
        "unresolved": unresolved,
    }


def ablation_index() -> Values:
    return {str(p): _index_point(p) for p in (4, 16, 64, 256)}



def ablation_policies() -> Values:
    workload = StencilWorkload(n_per_node=4000, timesteps=3, functional=False)
    out: Values = {}
    for name, policy in (
        ("data-aware", DataAwarePolicy()),
        ("round-robin", RoundRobinPolicy()),
        ("random", RandomPolicy(seed=5)),
    ):
        result = stencil_allscale(
            Cluster(meggie_like_spec(8)), workload, runtime_config(), policy=policy
        )
        metrics = result.extras["runtime"].metrics
        out[name] = {
            "gflops": result.throughput / 1e9,
            "migrations": metrics.counter("dm.migrations"),
            "migrated_bytes": metrics.counter("dm.migrated_bytes"),
        }
    return out



def ablation_tpc_batching() -> Values:
    base = TPCWorkload(
        total_points=2**29,
        depth=16,
        queries_total=256,
        functional=False,
        visit_flops=150.0,
        point_flops=30.0,
        task_subtree_height=9,
    )
    out: Values = {}
    for batch in (1, 8, 32):
        workload = replace(base, task_batch=batch)
        result = tpc_allscale(
            Cluster(meggie_like_spec(16)),
            workload,
            runtime_config(),
            problem=make_problem(workload, 16),
        )
        out[str(batch)] = {
            "qps": result.throughput,
            "remote_tasks": result.extras["runtime"].metrics.counter(
                "sched.remote_dispatch"
            ),
        }
    return out


SKEWED_SHAPE = (512, 256)
HEAVY_ROWS = SKEWED_SHAPE[0] // 4  # the top quarter is 7× as expensive


def _skewed_cost(box: Box) -> float:
    heavy = max(0, min(box.hi[0], HEAVY_ROWS) - box.lo[0]) * (box.hi[1] - box.lo[1])
    return heavy * 14_000.0 + (box.size() - heavy) * 2_000.0


def _skewed_sweeps(use_balancer: bool) -> Values:
    cluster = Cluster(ClusterSpec(num_nodes=4, cores_per_node=4, flops_per_core=1e9))
    runtime = AllScaleRuntime(cluster, runtime_config())
    grid = Grid(SKEWED_SHAPE, name="skewed")
    runtime.register_item(grid, placement=grid.decompose(4))
    balancer: LoadBalancer | None = None
    if use_balancer:
        balancer = LoadBalancer(
            runtime, interval=2e-4, imbalance_threshold=1.3, slice_fraction=0.3
        )
        balancer.start()
    sweep = PrecFunction(
        base_test=lambda box: box.size() <= 2048,
        base=lambda ctx, box: None,
        split=_split_box,
        writes=lambda box: {grid: box_region(grid, box)},
        cost=_skewed_cost,
        size=lambda box: float(box.size()),
        name="skewed-sweep",
    )

    def driver():
        t0 = runtime.now
        for _step in range(8):
            root = sweep.task(Box.full(SKEWED_SHAPE), granularity=2048)
            yield runtime.submit(root).future
        return runtime.now - t0

    elapsed = runtime.wait_process(driver())
    if balancer is not None:
        balancer.stop()
    runtime.check_ownership_invariants()
    return {
        "elapsed_ms": elapsed * 1e3,
        "rebalances": balancer.rebalances if balancer else 0,
        "migrated_bytes": runtime.metrics.counter("dm.migrated_bytes"),
    }


def ablation_balancer() -> Values:
    return {
        "static blocks": _skewed_sweeps(use_balancer=False),
        "with balancer": _skewed_sweeps(use_balancer=True),
    }


GPU_SHAPE = (2048, 1024)


def _gpu_sweep(gpus: int, intensity: float) -> Values:
    cluster = Cluster(
        ClusterSpec(
            num_nodes=4,
            cores_per_node=4,
            flops_per_core=2.4e9,
            gpus_per_node=gpus,
            gpu=AcceleratorSpec(),  # 4 TFLOP/s, PCIe-class link
        )
    )
    runtime = AllScaleRuntime(cluster, runtime_config())
    grid = Grid(GPU_SHAPE, name="g")
    runtime.register_item(grid, placement=grid.decompose(4))
    recursion = PrecFunction(
        base_test=lambda box: False,  # granularity decides
        base=lambda ctx, box: None,
        split=_split_box,
        reads=lambda box: {grid: box_region(grid, box)},
        writes=lambda box: {grid: box_region(grid, box)},
        cost=lambda box: intensity * box.size(),
        size=lambda box: float(box.size()),
        name="kernel",
        # the device variant costs the same FLOPs; transfers decide
        gpu_cost=lambda box: intensity * box.size(),
    )
    elements = float(GPU_SHAPE[0] * GPU_SHAPE[1])
    root = recursion.task(Box.full(GPU_SHAPE), default_granularity(runtime, elements))
    runtime.wait(runtime.submit(root))
    return {
        "gflops": elements * intensity / runtime.now / 1e9,
        "offloads": runtime.metrics.counter("proc.gpu_offloads"),
    }


def ablation_gpu() -> Values:
    out: Values = {}
    for intensity in (4.0, 64.0, 1024.0):  # FLOPs per element
        cpu, gpu = _gpu_sweep(0, intensity), _gpu_sweep(1, intensity)
        out[f"{intensity:g}"] = {
            "cpu_gflops": cpu["gflops"],
            "gpu_gflops": gpu["gflops"],
            "offloads": gpu["offloads"],
            "speedup": gpu["gflops"] / cpu["gflops"],
        }
    return out



def ablation_index_cache() -> Values:
    # coarser task units + a streamed query window: each origin quickly
    # learns the (static) placement of every sub-tree, so the cache
    # reaches a high hit rate — the regime the optimization targets
    workload = TPCWorkload(
        total_points=2**29,
        depth=16,
        queries_total=512,
        functional=False,
        visit_flops=150.0,
        point_flops=30.0,
        task_subtree_height=11,
        submission_waves=16,
    )
    problem = make_problem(workload, 16)
    out: Values = {}
    configurations = [("prototype (no cache)", False), ("with lookup cache", True)]
    for label, caching in configurations:
        result = tpc_allscale(
            Cluster(meggie_like_spec(16)),
            workload,
            runtime_config(index_caching=caching),
            problem=problem,
        )
        index = result.extras["runtime"].index
        out[label] = {
            "qps": result.throughput,
            "lookup_hops": index.lookup_hops,
            "cache_hits": index.cache_hits,
        }
    mpi = tpc_mpi(Cluster(meggie_like_spec(16)), workload, problem=problem)
    out["MPI reference"] = {"qps": mpi.throughput, "lookup_hops": 0, "cache_hits": 0}
    return out


_ABLATIONS: dict[str, tuple[str, Callable[[], Values]]] = {
    "regions": ("A — region schemes (Fig. 4b vs 4c)", ablation_regions),
    "index": ("B — index lookup hops (Alg. 1)", ablation_index),
    "policies": ("C — scheduling policies (Alg. 2)", ablation_policies),
    "tpc_batching": ("D — TPC query bundling", ablation_tpc_batching),
    "balancer": ("E — load balancing by data migration", ablation_balancer),
    "gpu": ("F — GPU offloading crossover", ablation_gpu),
    "index_cache": ("G — TPC with lookup caching", ablation_index_cache),
}


def _claims(cell: str, r: Values) -> dict[str, bool]:
    """Each ablation's assertions, keyed by what they claim."""
    if cell == "regions":
        return {
            "bitmask ops are >10x cheaper": r[UNPINNED]["speedup"] > 10,
            "flexible scheme expresses a single node": r["single_node_size"] == 1,
        }
    if cell == "index":
        return {
            "every lookup resolves": all(p["unresolved"] == 0 for p in r.values()),
            "max hops grow logarithmically": (
                r["256"]["max_hops"] <= 3 * r["16"]["max_hops"] + 6
            ),
            "mean hops at 256 processes < 24": r["256"]["mean_hops"] < 24,
            "local lookups are cheap": r["4"]["mean_hops"] < r["256"]["mean_hops"] + 8,
        }
    if cell == "policies":
        aware, claims = r["data-aware"], dict[str, bool]()
        for other in ("round-robin", "random"):
            claims[f"data-aware beats {other}"] = aware["gflops"] > r[other]["gflops"]
            claims[f"data-aware migrates less than {other}"] = (
                aware["migrated_bytes"] < r[other]["migrated_bytes"]
            )
        return claims
    if cell == "tpc_batching":
        return {
            "bundles of 32 halve remote tasks": (
                r["32"]["remote_tasks"] < r["1"]["remote_tasks"] / 2
            ),
            "bundles of 8 cut remote tasks": (
                r["8"]["remote_tasks"] < r["1"]["remote_tasks"]
            ),
            "bundling keeps over half the throughput": (
                r["32"]["qps"] > 0.5 * r["1"]["qps"]
            ),
            "bundling doesn't recover throughput": r["32"]["qps"] < 1.5 * r["1"]["qps"],
        }
    if cell == "balancer":
        static, balanced = r["static blocks"], r["with balancer"]
        return {
            "the balancer moved data": balanced["rebalances"] > 0,
            "balancing pays off": balanced["elapsed_ms"] < static["elapsed_ms"] * 0.95,
        }
    if cell == "gpu":
        low, high = r["4"], r["1024"]
        return {
            "transfer-bound kernels stay on the CPU": low["offloads"] == 0,
            "no regression for transfer-bound kernels": low["speedup"] > 0.95,
            "compute-bound kernels offload": high["offloads"] > 0,
            "compute-bound kernels win clearly": high["speedup"] > 3.0,
        }
    base, cached = r["prototype (no cache)"], r["with lookup cache"]
    mpi = r["MPI reference"]
    return {
        "the cache hits": cached["cache_hits"] > 0,
        "the cache halves lookup hops": cached["lookup_hops"] < base["lookup_hops"] / 2,
        "caching does not cost throughput": cached["qps"] >= base["qps"],
        "caching narrows the gap to MPI": (
            cached["qps"] / mpi["qps"] >= base["qps"] / mpi["qps"]
        ),
    }


class AblationsPanel:
    name = "ablations"
    baseline_path = BASELINE_ROOT / "BENCH_ablations_baseline.json"

    def cells(self, mode: str) -> list[str]:
        return list(_ABLATIONS)

    def run_cell(self, mode: str, cell: str) -> Values:
        return _ABLATIONS[cell][1]()

    def gates(self, mode: str, results: Results) -> list[str]:
        return [
            f"{cell}: {claim}"
            for cell, values in results.items()
            for claim, holds in _claims(cell, values).items()
            if not holds
        ]

    def render(self, mode: str, results: Results) -> str:
        return "\n\n".join(
            render_rows(
                f"Ablation {_ABLATIONS[cell][0]}",
                {
                    "host-measured" if k == UNPINNED else k: v
                    for k, v in values.items()
                    if isinstance(v, dict)
                },
            )
            for cell, values in results.items()
        )
