"""The ``comms`` panel: what the communication layer buys per app.

Each application's AllScale port runs twice on the same cluster and
workload — once with the paper-prototype per-piece messaging (the
default) and once with transfer coalescing plus replica prefetch enabled
— and the cell reports message counts, bytes moved, and simulated
wall-clock for both, plus the ``comms.*`` counters of the optimised run.

The two runs must agree on *what* was computed and moved: identical
work, identical data payload bytes.  Only message counts and timing may
differ — that is the optimisation's contract, and
``tests/test_determinism.py`` pins it per app.  The gates add the
acceptance bar: at least 25% fewer messages per app (30% for TPC) with
bulk messages, transfer plans and batched dispatches engaged.
"""

from __future__ import annotations

from typing import Any

from repro.apps.common import AppResult
from repro.apps.ipic3d import IPic3DWorkload
from repro.apps.stencil import StencilWorkload
from repro.apps.tpc import TPCWorkload, make_problem
from repro.bench.panel import BASELINE_ROOT, Results, Values
from repro.bench.report import render_rows
from repro.bench.scaling import ALLSCALE, runtime_config
from repro.sim.cluster import Cluster, meggie_like_spec

#: fixed cluster size of the comms comparison (message effects are
#: already fully visible at a handful of nodes; the panel is about
#: counts and deltas, not scaling curves)
COMMS_NODE_COUNT = 4

#: metric keys copied verbatim from the optimised run into each row
ON_COUNTERS = (
    "net.bulk_messages",
    "net.bulk_parts",
    "comms.coalesced_fetches",
    "comms.coalesced_parts",
    "comms.batched_dispatches",
    "comms.batched_tasks",
    "comms.prefetches",
    "comms.prefetched_bytes",
    "comms.replica_hits",
    "comms.replica_misses",
    "comms.plans",
    "comms.planned_bytes",
    "comms.moved_bytes",
    "comms.refetched_bytes",
)


def comms_row(app: str, off: dict, on: dict, counters: dict) -> Values:
    """One app's off-versus-on comparison.

    ``off`` / ``on`` carry ``messages``, ``net_bytes``, ``data_bytes``
    (payload that crossed address spaces), ``work`` and ``elapsed``.
    """
    row: Values = {"app": app, "nodes": COMMS_NODE_COUNT}
    for key in ("messages", "net_bytes", "data_bytes", "work", "elapsed"):
        row[f"{key}_off"], row[f"{key}_on"] = off[key], on[key]
    reduction = 1.0 - on["messages"] / off["messages"] if off["messages"] else 0.0
    delta = on["elapsed"] / off["elapsed"] - 1.0 if off["elapsed"] else 0.0
    row["message_reduction"] = round(reduction, 4)
    row["elapsed_delta"] = round(delta, 4)
    row["outputs_identical"] = (
        off["work"] == on["work"] and off["data_bytes"] == on["data_bytes"]
    )
    row["counters"] = counters
    return row


def _workload(mode: str, app: str):
    full = mode == "full"
    if app == "stencil":
        return StencilWorkload(
            n_per_node=4_000 if full else 1_000, timesteps=2, functional=False
        )
    if app == "ipic3d":
        return IPic3DWorkload(
            particles_per_node=48_000_000 if full else 12_000_000,
            cells_per_node_side=8 if full else 4,
            timesteps=2,
        )
    return TPCWorkload(
        total_points=2**29 if full else 2**25,
        depth=16 if full else 12,
        queries_total=128 if full else 64,
        functional=False,
        visit_flops=150.0,
        point_flops=30.0,
        task_subtree_height=9 if full else 7,
    )


def _measured(result: AppResult) -> dict:
    runtime = result.extras["runtime"]
    snapshot = runtime.metrics.snapshot()
    return {
        "messages": snapshot.get("net.messages", 0.0),
        "net_bytes": snapshot.get("net.bytes", 0.0),
        "data_bytes": float(runtime.data_bytes_moved()),
        "work": result.work,
        "elapsed": result.elapsed,
        "snapshot": snapshot,
    }


class CommsPanel:
    name = "comms"
    baseline_path = BASELINE_ROOT / "BENCH_comms_baseline.json"

    def cells(self, mode: str) -> list[str]:
        return list(ALLSCALE)

    def run_cell(self, mode: str, cell: str) -> Values:
        """The app with the comm layer off, then on, on identical inputs."""
        workload = _workload(mode, cell)
        extra: dict[str, Any] = {}
        if cell == "tpc":
            extra["problem"] = make_problem(workload, COMMS_NODE_COUNT)
        off, on = (
            _measured(
                ALLSCALE[cell](
                    Cluster(meggie_like_spec(COMMS_NODE_COUNT)),
                    workload,
                    runtime_config(comm_coalescing=enabled, replica_prefetch=enabled),
                    **extra,
                )
            )
            for enabled in (False, True)
        )
        counters = {key: on["snapshot"].get(key, 0.0) for key in ON_COUNTERS}
        return comms_row(cell, off, on, counters)

    def gates(self, mode: str, results: Results) -> list[str]:
        problems: list[str] = []
        for app, row in results.items():
            counters = row["counters"]
            claims = {
                "optimised run changed outputs or moved bytes": (
                    row["outputs_identical"]
                ),
                "message reduction below 25%": row["message_reduction"] >= 0.25,
                "no bulk messages": counters["net.bulk_messages"] > 0,
                "no batched dispatches": counters["comms.batched_dispatches"] > 0,
            }
            if app == "tpc":
                claims["message reduction below 30%"] = (
                    row["message_reduction"] >= 0.30
                )
            if row["data_bytes_off"]:
                # apps that move payload do it through audited plans;
                # TPC's kd-tree is pre-placed, so its win is pure
                # dispatch batching and it never opens a plan
                claims["no transfer plans"] = counters["comms.plans"] > 0
                claims["planned moves do not account for the payload"] = (
                    counters["comms.moved_bytes"] == row["data_bytes_on"]
                )
            problems += [f"{app}: {c}" for c, holds in claims.items() if not holds]
        return problems

    def render(self, mode: str, results: Results) -> str:
        rows = {
            app: {
                "nodes": row["nodes"],
                "msgs off": f"{row['messages_off']:.0f}",
                "msgs on": f"{row['messages_on']:.0f}",
                "msg delta": f"{row['message_reduction'] * 100.0:+.1f}%",
                "data bytes": f"{row['data_bytes_off']:.0f}",
                "time delta": f"{row['elapsed_delta'] * 100.0:+.1f}%",
                "outputs ==": "yes" if row["outputs_identical"] else "NO",
            }
            for app, row in results.items()
        }
        return render_rows(
            "Communication layer — per-app deltas "
            "(coalescing + prefetch vs. prototype messaging)",
            rows,
            "app",
        )
