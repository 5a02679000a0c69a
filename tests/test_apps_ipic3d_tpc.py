"""Application tests for iPiC3D and TPC."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.ipic3d import IPic3DWorkload, ipic3d_allscale, ipic3d_mpi
from repro.apps.tpc import (
    QueryPlan,
    TPCWorkload,
    make_problem,
    tpc_allscale,
    tpc_mpi,
)
from repro.items.kdtree import Visit
from repro.sim.cluster import Cluster, ClusterSpec


def small_cluster(nodes, cores=4):
    return Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=cores, flops_per_core=1e9)
    )


SMALL_IPIC = IPic3DWorkload(
    particles_per_node=200_000,
    cells_per_node_side=8,
    timesteps=2,
    flops_per_particle_update=100.0,
)


class TestIPic3D:
    def test_workload_accounting(self):
        wl = IPic3DWorkload(particles_per_node=1000, cells_per_node_side=4, timesteps=3)
        assert wl.field_shape(2) == (8, 4, 4)
        assert wl.particles_per_cell(2) == pytest.approx(1000 / 64)
        assert wl.total_updates(2) == 2000 * 3

    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_both_ports_run(self, nodes):
        result_a = ipic3d_allscale(small_cluster(nodes), SMALL_IPIC)
        result_m = ipic3d_mpi(small_cluster(nodes), SMALL_IPIC)
        assert result_a.throughput > 0
        assert result_m.throughput > 0
        assert result_a.work == result_m.work

    def test_comparable_performance(self):
        """§4.2: AllScale and MPI show comparable performance for iPiC3D."""
        result_a = ipic3d_allscale(small_cluster(2), SMALL_IPIC)
        result_m = ipic3d_mpi(small_cluster(2), SMALL_IPIC)
        assert result_a.throughput > 0.4 * result_m.throughput

    def test_three_grids_distributed(self):
        result = ipic3d_allscale(small_cluster(2), SMALL_IPIC)
        runtime = result.extras["runtime"]
        runtime.check_ownership_invariants()
        names = {item.name for item in runtime.items}
        assert {"ipic3d.E", "ipic3d.B", "ipic3d.P", "ipic3d.X"} <= names
        for item in runtime.items:
            owners = sum(
                1
                for pid in range(2)
                if not runtime.process(pid)
                .data_manager.owned_region(item)
                .is_empty()
            )
            assert owners == 2

    def test_particle_grid_dominates_bytes(self):
        result = ipic3d_allscale(small_cluster(1), SMALL_IPIC)
        runtime = result.extras["runtime"]
        by_name = {item.name: item for item in runtime.items}
        assert (
            by_name["ipic3d.P"].bytes_per_element
            > by_name["ipic3d.E"].bytes_per_element
        )
        assert (
            by_name["ipic3d.X"].bytes_per_element
            < by_name["ipic3d.P"].bytes_per_element
        )


SMALL_TPC = TPCWorkload(
    total_points=4096,
    dims=3,
    radius=25.0,
    queries_per_node=6,
    depth=7,
    functional=True,
    visit_flops=10.0,
    point_flops=2.0,
)


#: a virtual depth-10 tree over a non-power-of-two population: its leaf
#: tallies are inexact, so float sums depend on the order of their terms
SYNTHETIC_TPC = TPCWorkload(
    total_points=1_000_003,
    radius=31.0,
    queries_total=24,
    depth=10,
    task_subtree_height=5,
)


def reference_plans(problem):
    """The sequential reference: a per-node stack walk of the top tree,
    then ``query_from`` for every task root it reaches."""
    structure, workload = problem.structure, problem.workload
    radius = workload.radius
    plans, band_work = [], {}
    for qi, q in enumerate(problem.queries):
        plan = QueryPlan(top_count=0.0, top_visits=0)
        stack = [1]
        while stack:
            node = stack.pop()
            plan.top_visits += 1
            kind = structure.classify(node, q, radius)
            if kind is Visit.PRUNE_IN:
                plan.top_count += float(structure.counts[node])
            elif kind is not Visit.PRUNE_OUT:
                if node.bit_length() == problem.task_level:
                    plan.recurse_roots.append(node)
                else:
                    stack.extend(structure.geometry.children(node))
        plans.append(plan)
        for root in plan.recurse_roots:
            stats = structure.query_from(root, q, radius)
            band_work[(qi, root)] = (
                stats.visited_nodes * workload.visit_flops
                + stats.scanned_points * workload.point_flops,
                stats.count,
            )
    return plans, band_work


class TestTPC:
    def test_problem_construction(self):
        problem = make_problem(SMALL_TPC, 4)
        assert problem.structure.total_points == 4096
        assert len(problem.queries) == 24
        assert len(problem.plans) == 24
        # every task root has an owner
        assert set(problem.owner_of_root.values()) <= set(range(4))
        # placement partitions the tree
        total = problem.item.empty_region()
        for region in problem.placement:
            assert total.intersect(region).is_empty()
            total = total.union(region)
        assert total.same_elements(problem.item.full_region)

    @pytest.mark.parametrize("workload, nodes", [
        (SMALL_TPC, 1),
        (SMALL_TPC, 2),
        (SMALL_TPC, 4),
        (SMALL_TPC, 64),  # bands at the leaf level: the task roots are leaves
        (replace(SMALL_TPC, task_batch=4), 2),
        *[(replace(SYNTHETIC_TPC, seed=seed), 4) for seed in (1, 2, 3)],
        # task level 1: the top walk stops at the root
        (replace(SYNTHETIC_TPC, task_subtree_height=10), 1),
    ])
    def test_plans_match_sequential_reference(self, workload, nodes):
        """make_problem's batched plans equal a scalar top walk plus
        ``query_from`` per task root, bit for bit and in the same order."""
        problem = make_problem(workload, nodes)
        if nodes == 64:
            assert problem.task_level == problem.structure.depth
        if nodes == 1 and not workload.functional:
            assert problem.task_level == 1
        plans, band_work = reference_plans(problem)
        assert problem.plans == plans
        assert list(problem.band_work.items()) == list(band_work.items())

    def test_plans_cover_exact_counts(self):
        """Top count + per-root counts must equal the true range count."""
        problem = make_problem(SMALL_TPC, 4)
        for qi, plan in enumerate(problem.plans):
            total = plan.top_count + sum(
                problem.band_work[(qi, root)][1]
                for root in plan.recurse_roots
            )
            exact = problem.structure.brute_force_count(
                problem.queries[qi], SMALL_TPC.radius
            )
            assert total == pytest.approx(exact)

    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_allscale_counts_exact(self, nodes):
        problem = make_problem(SMALL_TPC, nodes)
        result = tpc_allscale(small_cluster(nodes), SMALL_TPC, problem=problem)
        counts = sorted(result.extras["counts"])
        exact = sorted(
            problem.structure.brute_force_count(q, SMALL_TPC.radius)
            for q in problem.queries
        )
        assert np.allclose(counts, exact)
        result.extras["runtime"].check_ownership_invariants()

    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_mpi_total_matches(self, nodes):
        problem = make_problem(SMALL_TPC, nodes)
        result = tpc_mpi(small_cluster(nodes), SMALL_TPC, problem=problem)
        total = sum(result.extras["totals"].values())
        exact = sum(
            problem.structure.brute_force_count(q, SMALL_TPC.radius)
            for q in problem.queries
        )
        assert total == pytest.approx(exact)

    def test_batching_preserves_counts(self):
        """Query aggregation (the §4.2 mitigation) must not change results."""
        batched = replace(SMALL_TPC, task_batch=4)
        problem = make_problem(batched, 2)
        result = tpc_allscale(small_cluster(2), batched, problem=problem)
        total = sum(result.extras["counts"])
        exact = sum(
            problem.structure.brute_force_count(q, batched.radius)
            for q in problem.queries
        )
        assert total == pytest.approx(exact)
        # fewer root tasks than queries
        assert len(result.extras["batches"]) == len(problem.queries) // 4

    def test_band_tasks_run_at_owners(self):
        problem = make_problem(SMALL_TPC, 4)
        result = tpc_allscale(small_cluster(4), SMALL_TPC, problem=problem)
        runtime = result.extras["runtime"]
        # no data was moved: tasks went to the data
        assert runtime.metrics.counter("dm.migrations") == 0
        assert runtime.metrics.counter("dm.replicas_fetched") == 0
        assert runtime.metrics.counter("sched.remote_dispatch") > 0

    def test_queries_total_override(self):
        wl = replace(SMALL_TPC, queries_total=10)
        assert wl.total_queries(64) == 10
        assert SMALL_TPC.total_queries(2) == 12
