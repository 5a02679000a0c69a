"""Job-level execution context layered on top of task-level scheduling.

The paper's runtime executes one task-graph application per run;
Algorithm 2 places *tasks*.  The service layer (:mod:`repro.service`)
runs many applications — *jobs* — concurrently over one shared simulated
cluster, each through its own :class:`~repro.runtime.runtime.AllScaleRuntime`.
A :class:`JobContext` attached to such a runtime attributes what the
task-level machinery consumes back to the job (and hence to its tenant):

* **core-seconds** — the compute time leaf executions charge on simulated
  cores (the unit tenant quotas are denominated in);
* **dispatch counts** — how many tasks Algorithm 2 placed locally vs.
  remotely on the job's behalf;
* **budget flagging** — when :attr:`RuntimeConfig.job_node_seconds_cap`
  is set, the context raises its :attr:`over_budget` flag the moment the
  accumulated core-seconds exceed the cap.  The flag is sticky and
  side-effect free: the simulation stays deterministic (no mid-run
  exceptions through shared engine state), and the service settles the
  overrun when the job completes.

The context is a :class:`~repro.runtime.probes.Probe` subscriber: the
service attaches it with ``runtime.probes.attach(context)`` and it counts
the dispatch and leaf-finished events.  A one-shot run attaches none and
pays nothing beyond the probe seam's ``None`` test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.probes import Probe


@dataclass(slots=True)
class JobContext(Probe):
    """Per-job accounting attached to one runtime over a shared cluster."""

    #: service-assigned job identifier (stable across status queries)
    job_id: str = ""
    #: owning tenant (quota and fair-share accounting key)
    tenant: str = ""
    #: hard cap on this job's core-seconds (None = unlimited); mirrors
    #: :attr:`repro.runtime.config.RuntimeConfig.job_node_seconds_cap`
    node_seconds_cap: float | None = None

    #: core-seconds charged by leaf executions so far
    cpu_seconds: float = 0.0
    #: leaf tasks executed on the job's behalf
    leaves_executed: int = 0
    #: tasks placed by Algorithm 2 (local + remote)
    tasks_dispatched: int = 0
    #: tasks shipped to a non-origin process
    remote_dispatches: int = 0
    #: sticky flag: the cap was exceeded at some leaf boundary
    over_budget: bool = field(default=False)

    def on_task_dispatched(self, task, origin: int, target: int) -> None:
        """One task placed by the scheduler for this job."""
        self.tasks_dispatched += 1
        if target != origin:
            self.remote_dispatches += 1

    def on_task_finished(self, task, treeture, pid, now, cost) -> None:
        if cost is not None:  # offloaded leaves charge no core time
            self.on_leaf(cost)

    def on_leaf(self, cost_seconds: float) -> None:
        """One leaf executed, charging ``cost_seconds`` of core time."""
        self.leaves_executed += 1
        self.cpu_seconds += cost_seconds
        if (
            self.node_seconds_cap is not None
            and self.cpu_seconds > self.node_seconds_cap
        ):
            self.over_budget = True

    def snapshot(self) -> dict:
        """JSON-ready view for service status responses."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "cpu_seconds": self.cpu_seconds,
            "leaves_executed": self.leaves_executed,
            "tasks_dispatched": self.tasks_dispatched,
            "remote_dispatches": self.remote_dispatches,
            "over_budget": self.over_budget,
        }
