"""The ``placement`` panel: offline planner vs. online policies.

A policy *tournament*, one cell per application: on every topology the
``planned`` policy (:class:`~repro.placement.policy.PlannedPolicy`
carrying a fresh offline plan) races ``data-aware`` (the runtime's
default) and the ``round-robin`` / ``random`` scheduler ablations, and
the leaderboard reports simulated wall clock, messages, bytes moved (wire
payload plus migrated/replicated fragment bytes) and balancer migrations.

The online policies are deliberately *shared instances* across a
panel's races: the ``reset()`` contract (invoked at runtime
construction) must make back-to-back runs identical, and the exact-match
baseline is the standing proof.  The gates hold the planner's headline
guarantee: ``planned`` moves strictly fewer bytes than both ablations.
"""

from __future__ import annotations

from dataclasses import replace

from repro.apps.common import AppResult
from repro.apps.ipic3d import IPic3DWorkload, ipic3d_program
from repro.apps.stencil import StencilWorkload, stencil_program
from repro.apps.tpc import TPCProblem, TPCWorkload, make_problem, tpc_program
from repro.bench.panel import BASELINE_ROOT, Results, Values
from repro.bench.report import render_rows
from repro.bench.scaling import ALLSCALE, runtime_config
from repro.placement import PlannedPolicy, plan_placement
from repro.runtime.policies import (
    DataAwarePolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SchedulingPolicy,
)
from repro.sim.cluster import Cluster, meggie_like_spec

#: name → (node count, fat-tree switch radix).  Three shapes: a single
#: edge-switch group, a deep skinny tree (every hop counts), and a wide
#: two-level machine.
TOPOLOGIES: dict[str, tuple[int, int]] = {
    "edge4": (4, 16),
    "deep8": (8, 2),
    "wide16": (16, 4),
}

POLICIES = ("planned", "data-aware", "round-robin", "random")

#: cores per node for every tournament cluster.  Placement quality is a
#: cross-*node* story; meggie's 20 cores only multiply the leaf-task and
#: message counts (the worst 16-node races get ~10x slower to simulate)
#: without changing who wins.
TOURNAMENT_CORES = 4


#: balancer period per app, scaled to the app's simulated duration
BALANCER_INTERVAL = {"stencil": 2e-4, "ipic3d": 20.0, "tpc": 2e-3}


def _workload(mode: str, app: str):
    if app == "stencil":
        n, steps = {"full": (2_000, 3), "quick": (1_000, 2), "smoke": (500, 2)}[mode]
        return StencilWorkload(n_per_node=n, timesteps=steps, functional=False)
    if app == "ipic3d":
        particles, cells, steps = {
            "full": (24_000_000, 6, 2),
            "quick": (12_000_000, 4, 2),
            "smoke": (6_000_000, 4, 1),
        }[mode]
        return IPic3DWorkload(
            particles_per_node=particles,
            cells_per_node_side=cells,
            timesteps=steps,
        )
    log_points, depth, queries, height = {
        "full": (27, 14, 96, 8),
        "quick": (25, 12, 64, 7),
        "smoke": (23, 10, 32, 6),
    }[mode]
    return TPCWorkload(
        total_points=2**log_points,
        depth=depth,
        queries_total=queries,
        functional=False,
        visit_flops=150.0,
        point_flops=30.0,
        task_subtree_height=height,
    )


def _race(result: AppResult) -> Values:
    runtime = result.extras["runtime"]
    counters = runtime.metrics
    return {
        # simulated seconds (exact, deterministic)
        "elapsed": result.elapsed,
        "messages": counters.counter("net.messages"),
        "bytes_moved": counters.counter("net.bytes") + runtime.data_bytes_moved(),
        "migrations": counters.counter("balancer.migrations"),
        "preplaced": counters.counter("placement.preplaced_items"),
    }


class PlacementPanel:
    name = "placement"
    baseline_path = BASELINE_ROOT / "BENCH_placement_baseline.json"

    def __init__(self) -> None:
        # shared across every race on purpose: reset() must isolate runs
        self.online: dict[str, SchedulingPolicy] = {
            "data-aware": DataAwarePolicy(),
            "round-robin": RoundRobinPolicy(),
            "random": RandomPolicy(seed=0),
        }

    def cells(self, mode: str) -> list[str]:
        return list(ALLSCALE)

    def run_cell(self, mode: str, cell: str) -> Values:
        """One app on every topology: the plan, then every policy's race."""
        workload = _workload(mode, cell)
        values: Values = {}
        for topology, (nodes, radix) in TOPOLOGIES.items():
            cores = TOURNAMENT_CORES
            spec = replace(
                meggie_like_spec(nodes), switch_radix=radix, cores_per_node=cores
            )
            extra: dict[str, TPCProblem] = {}
            if cell == "tpc":
                extra["problem"] = make_problem(workload, nodes)
                program = tpc_program(extra["problem"])
            elif cell == "stencil":
                program = stencil_program(workload, nodes, cores_per_node=cores)
            else:
                program = ipic3d_program(workload, nodes, cores_per_node=cores)
            plan = plan_placement(program, Cluster(spec))
            races: Values = {}
            for name in POLICIES:
                policy = PlannedPolicy(plan) if name == "planned" else self.online[name]
                config = runtime_config(
                    load_balancing=True, balancer_interval=BALANCER_INTERVAL[cell]
                )
                races[name] = _race(
                    ALLSCALE[cell](Cluster(spec), workload, config, policy, **extra)
                )
            values[topology] = {
                "nodes": nodes,
                "radix": radix,
                "plan": plan.summary(),
                "races": races,
            }
        return values

    def gates(self, mode: str, results: Results) -> list[str]:
        """The planner's headline claims, independent of any baseline.

        ``planned`` must move strictly fewer bytes than *both* ablation
        baselines on every app × topology, and must pre-distribute at
        least one item everywhere (proof the plan actually engaged).
        """
        problems: list[str] = []
        for app in ALLSCALE:
            for topology in TOPOLOGIES:
                key = f"{app}/{topology}"
                races = results.get(app, {}).get(topology, {}).get("races", {})
                if "planned" not in races:
                    problems.append(f"{key}: planned race missing")
                    continue
                planned = races["planned"]
                if planned["preplaced"] < 1:
                    problems.append(f"{key}: plan pre-placed no items")
                for rival_name in ("round-robin", "random"):
                    rival = races[rival_name]
                    if not planned["bytes_moved"] < rival["bytes_moved"]:
                        problems.append(
                            f"{key}: planned moved "
                            f"{planned['bytes_moved']:.0f} bytes, not fewer "
                            f"than {rival_name}'s {rival['bytes_moved']:.0f}"
                        )
        return problems

    def render(self, mode: str, results: Results) -> str:
        """Per app × topology leaderboard, best simulated wall clock first."""
        tables = [f"Placement tournament ({mode})"]
        for app, topologies in results.items():
            for topology, entry in topologies.items():
                ranked = sorted(
                    entry["races"].items(), key=lambda kv: (kv[1]["elapsed"], kv[0])
                )
                tables.append(
                    render_rows(
                        f"{app} @ {topology} "
                        f"({entry['nodes']} nodes, radix {entry['radix']})",
                        {
                            policy: {
                                "wall(sim)": f"{race['elapsed']:.6f}",
                                "messages": f"{race['messages']:.0f}",
                                "bytes moved": f"{race['bytes_moved']:.0f}",
                                "migrations": f"{race['migrations']:.0f}",
                            }
                            for policy, race in ranked
                        },
                        "policy",
                    )
                )
        return "\n\n".join(tables)
