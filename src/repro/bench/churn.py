"""The ``churn`` panel: elasticity under node churn as a pinned artifact.

One cell per application (stencil / iPiC3D / TPC), each running the app
on a cluster whose membership changes *mid-run* through
:class:`~repro.runtime.elastic.ChurnController`: ``baseline`` (no churn;
its duration sizes the other schedules), ``scale_out`` (nodes join),
``drain`` (a node leaves gracefully) and the ``storm<S>xr<R>`` grid (``R``
join/drain cycles plus one correlated failure of ``S`` nodes recovered
from a checkpoint).  Every simulated quantity is pinned exactly.

Run under ``REPRO_SENTINEL=1`` the runtimes attach strict invariant
sentinels; their violation counts are unpinned, and the gates reject any
— CI pins "zero sentinel violations across the churn sweep" this way.
"""

from __future__ import annotations

from repro.apps.ipic3d import IPic3DWorkload
from repro.apps.stencil import StencilWorkload
from repro.apps.tpc import TPCWorkload
from repro.bench.panel import BASELINE_ROOT, UNPINNED, Results, Values
from repro.bench.report import render_rows
from repro.bench.scaling import ALLSCALE, runtime_config
from repro.runtime.elastic import ChurnController, ChurnEvent
from repro.sim.cluster import Cluster, meggie_like_spec

#: metrics every cell snapshots (exact simulated values)
_PINNED_METRICS = (
    "elastic.churn_events",
    "elastic.joins",
    "elastic.drains",
    "elastic.failures",
    "elastic.evacuated_bytes",
    "elastic.evacuated_tasks",
    "elastic.forwarded_tasks",
    "elastic.join_migrated_bytes",
    "elastic.restored_bytes",
    "elastic.recovery_time.mean",
    "dm.dead_letter_payloads",
)


def _grid(mode: str) -> tuple[int, list[tuple[int, int]]]:
    """(start nodes, [(churn rate, storm size), ...]) per mode."""
    if mode == "smoke":
        return 3, [(1, 1)]
    if mode == "quick":
        return 4, [(1, 1), (2, 1)]
    return 6, [(1, 1), (1, 2), (2, 1), (2, 2)]


def _workloads(mode: str) -> dict:
    reduced = mode != "full"
    return {
        "stencil": StencilWorkload(
            n_per_node=2_000 if reduced else 3_000,
            timesteps=4 if reduced else 6,
            functional=False,
        ),
        "ipic3d": IPic3DWorkload(
            particles_per_node=48_000_000,
            cells_per_node_side=6 if reduced else 8,
            timesteps=3 if reduced else 4,
        ),
        "tpc": TPCWorkload(
            total_points=2**24,
            depth=12,
            queries_total=64 if reduced else 128,
            functional=False,
            visit_flops=150.0,
            point_flops=30.0,
            task_subtree_height=7,
            submission_waves=4,
        ),
    }


def _schedule(
    scenario: str, total: float, rate: int, storm: int
) -> list[ChurnEvent]:
    """Deterministic event schedule for one scenario, sized to a
    baseline run's total simulated duration ``total``."""
    if scenario == "baseline":
        return []
    if scenario == "scale_out":
        return [
            ChurnEvent(at=total * 0.30, kind="join"),
            ChurnEvent(at=total * 0.55, kind="join", flops_per_core=4.8e9),
        ]
    if scenario == "drain":
        return [ChurnEvent(at=total * 0.35, kind="drain")]
    # storm grid: `rate` join/drain cycles spread over the run plus one
    # correlated loss of `storm` nodes recovered mid-run
    events: list[ChurnEvent] = []
    for k in range(rate):
        base = total * (0.2 + 0.5 * k / max(1, rate))
        events.append(ChurnEvent(at=base, kind="join"))
        events.append(ChurnEvent(at=base + total * 0.1, kind="drain"))
    events.append(ChurnEvent(at=total * 0.75, kind="storm", count=storm))
    return events


def _run_cell(app: str, workload, nodes: int, events: list[ChurnEvent]):
    """One app run with a churn schedule attached; returns (cell data)."""
    captured: dict = {}

    def on_runtime(runtime) -> None:
        captured["runtime"] = runtime
        if events:
            controller = ChurnController(runtime, events=list(events))
            captured["controller"] = controller
            controller.start()

    cluster = Cluster(meggie_like_spec(nodes))
    result = ALLSCALE[app](cluster, workload, runtime_config(), on_runtime=on_runtime)
    runtime = captured["runtime"]
    controller = captured.get("controller")
    if controller is not None and not controller.done:
        raise RuntimeError(f"{app}: churn schedule did not complete within the run")
    snapshot = runtime.metrics.snapshot()
    runtime.check_ownership_invariants()
    violations: int | None = None
    if runtime.sentinel is not None:
        runtime.sentinel.verify_all()
        violations = len(runtime.sentinel.violations)
    return result, runtime, controller, snapshot, violations


def _scenario_values(result, runtime, controller, snapshot) -> Values:
    return {
        "sim_elapsed": result.elapsed,
        "metrics": {name: snapshot.get(name, 0.0) for name in _PINNED_METRICS},
        # membership log length (joins + drains + storm victims applied)
        "membership_changes": len(controller.log) if controller is not None else 0,
        "final_processes": len(runtime.alive_processes()),
    }


class ChurnPanel:
    name = "churn"
    baseline_path = BASELINE_ROOT / "BENCH_churn_baseline.json"

    def cells(self, mode: str) -> list[str]:
        return list(ALLSCALE)

    def run_cell(self, mode: str, cell: str) -> Values:
        """Every scenario of one app; its baseline run sizes the schedules."""
        nodes, grid = _grid(mode)
        workload = _workloads(mode)[cell]
        runs = [("baseline", 0, 0), ("scale_out", 0, 0), ("drain", 0, 0)]
        runs += [(f"storm{s}xr{r}", r, s) for r, s in grid]
        scenarios: Values = {}
        sentinel: dict[str, int | None] = {}
        total = 0.0
        for scenario, rate, storm in runs:
            result, runtime, ctrl, snapshot, sentinel[scenario] = _run_cell(
                cell, workload, nodes, _schedule(scenario, total, rate, storm)
            )
            if scenario == "baseline":
                total = runtime.now
            scenarios[scenario] = _scenario_values(result, runtime, ctrl, snapshot)
        return {
            "start_nodes": nodes,
            "scenarios": scenarios,
            # None where no sentinel was attached
            UNPINNED: {"sentinel_violations": sentinel},
        }

    def gates(self, mode: str, results: Results) -> list[str]:
        """Model-level sanity gates a run must clear to be pinned."""
        problems: list[str] = []
        for app, values in results.items():
            violations = values.get(UNPINNED, {}).get("sentinel_violations", {})
            for scenario, cell in values["scenarios"].items():
                key, metrics = f"{app}/{scenario}", cell["metrics"]
                if violations.get(scenario):
                    problems.append(
                        f"{key}: {violations[scenario]} sentinel violation(s)"
                    )
                if scenario == "baseline":
                    if metrics.get("elastic.churn_events"):
                        problems.append(f"{key}: baseline saw churn events")
                    continue
                if not metrics.get("elastic.churn_events"):
                    problems.append(f"{key}: no churn events applied")
                if scenario == "scale_out" and not metrics.get("elastic.joins"):
                    problems.append(f"{key}: no node joined")
                if scenario == "drain":
                    if not metrics.get("elastic.drains"):
                        problems.append(f"{key}: no node drained")
                    if metrics.get("elastic.evacuated_bytes", 0.0) <= 0.0:
                        problems.append(f"{key}: drain evacuated no data")
                if scenario.startswith("storm") and not metrics.get(
                    "elastic.failures"
                ):
                    problems.append(f"{key}: storm failed no nodes")
        return problems

    def render(self, mode: str, results: Results) -> str:
        attached = any(
            count is not None
            for values in results.values()
            for count in values.get(UNPINNED, {})
            .get("sentinel_violations", {})
            .values()
        )
        rows = {
            f"{app}/{scenario}": {
                "sim s": f"{cell['sim_elapsed']:.5f}",
                "events": cell["metrics"].get("elastic.churn_events", 0.0),
                "evac B": cell["metrics"].get("elastic.evacuated_bytes", 0.0),
                "restored B": cell["metrics"].get("elastic.restored_bytes", 0.0),
                "alive": cell["final_processes"],
            }
            for app, values in results.items()
            for scenario, cell in values["scenarios"].items()
        }
        title = f"Churn sweep ({mode}" + (
            ", strict sentinel attached)" if attached else ")"
        )
        return render_rows(title, rows, "app/scenario")
