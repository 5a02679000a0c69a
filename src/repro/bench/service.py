"""The ``service`` panel: multi-tenant replay pinned as an artifact.

Two deterministic cells, both pure simulation: ``smoke`` replays the
committed arrival trace (``traces/multi_tenant_smoke.json``) and pins
per-tenant latency, throughput, node-seconds, rejections by reason and
the fairness index; ``contended`` replays the acceptance demo (3 tenants,
3:2:1 weights, 126 jobs at once) and pins the committed node-second
shares at the 72-dispatch horizon.  The gates: no racy job is ever
admitted, and contended shares sit within :data:`SHARE_TOLERANCE` of
the configured weights.
"""

from __future__ import annotations

from repro.bench.panel import BASELINE_ROOT, Results, Values
from repro.bench.report import render_rows
from repro.service.trace import (
    DEMO_HORIZON_DISPATCHES,
    Trace,
    demo_trace,
    replay,
)

#: the committed arrival trace the smoke cell replays
SMOKE_TRACE_PATH = BASELINE_ROOT / "traces" / "multi_tenant_smoke.json"

#: maximum relative deviation of an observed contended share from the
#: configured weight share (the 10% acceptance bound)
SHARE_TOLERANCE = 0.10


class ServicePanel:
    name = "service"
    baseline_path = BASELINE_ROOT / "BENCH_service_baseline.json"

    def cells(self, mode: str) -> list[str]:
        return ["smoke", "contended"]

    def run_cell(self, mode: str, cell: str) -> Values:
        if cell == "smoke":
            return replay(Trace.load(str(SMOKE_TRACE_PATH)))
        return replay(demo_trace(), horizon_dispatches=DEMO_HORIZON_DISPATCHES)

    def gates(self, mode: str, results: Results) -> list[str]:
        """Baseline-independent acceptance checks on a fresh run."""
        problems: list[str] = []
        for name, report in results.items():
            if report["false_accepts"]:
                problems.append(
                    f"{name}: {report['false_accepts']} racy job(s) admitted"
                )
        for name, share in results["contended"]["contended"]["tenants"].items():
            observed = share["observed_share"]
            configured = share["configured_share"]
            if configured <= 0:
                continue
            error = abs(observed - configured) / configured
            if error > SHARE_TOLERANCE:
                problems.append(
                    f"contended: tenant {name} share {observed:.4f} deviates "
                    f"{error:.1%} from configured {configured:.4f} "
                    f"(tolerance {SHARE_TOLERANCE:.0%})"
                )
        return problems

    def render(self, mode: str, results: Results) -> str:
        """Per-tenant latency/throughput and contended-share tables."""
        smoke, contended = results["smoke"], results["contended"]["contended"]
        return "\n\n".join(
            [
                render_rows(
                    f"Service replay (committed smoke trace): {smoke['jobs']} "
                    f"jobs, makespan {smoke['makespan']:.4f}s sim, fairness "
                    f"{smoke['fairness_index']:.4f}, rejected "
                    f"{smoke['rejected_by_reason']}",
                    smoke["tenants"],
                    "tenant",
                ),
                render_rows(
                    f"Contended shares at {contended['dispatches']} dispatches "
                    f"(fairness {contended['fairness_index']:.4f})",
                    contended["tenants"],
                    "tenant",
                ),
            ]
        )
