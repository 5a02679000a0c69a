"""Tests for the per-task execution tracer and the probe seam it uses."""

import pytest

from repro.analysis.admission import AdmissionConfig, AdmissionController
from repro.api import box_region, pfor
from repro.items.grid import Grid
from repro.runtime.config import RuntimeConfig
from repro.runtime.jobs import JobContext
from repro.runtime.runtime import AllScaleRuntime
from repro.runtime.sentinel import RuntimeSentinel, SentinelConfig
from repro.runtime.tasks import TaskSpec
from repro.runtime.tracing import ExecutionTracer, TaskRecord
from repro.sim.cluster import Cluster, ClusterSpec
from tests.test_determinism import canonical_trace, comm_config, run_app


def traced_runtime(nodes=2):
    cluster = Cluster(
        ClusterSpec(num_nodes=nodes, cores_per_node=2, flops_per_core=1e9)
    )
    runtime = AllScaleRuntime(cluster, RuntimeConfig(functional=False))
    tracer = ExecutionTracer()
    runtime.tracer = tracer
    return runtime, tracer


class TestTaskRecord:
    def test_phase_arithmetic(self):
        record = TaskRecord(
            name="t", pid=0, enqueued=1.0, started=2.0, data_ready=5.0,
            locks_held=6.0, finished=10.0,
        )
        assert record.queue_wait == 1.0
        assert record.staging_time == 3.0
        assert record.lock_wait == 1.0
        assert record.compute_time == 4.0
        assert record.total == 9.0


class TestExecutionTracer:
    def test_records_leaf_lifecycle(self):
        runtime, tracer = traced_runtime()
        grid = Grid((8, 8), name="g")
        runtime.register_item(grid, placement=grid.decompose(2))
        task = TaskSpec(
            name="work",
            reads={grid: grid.full_region},
            flops=1e6,
            size_hint=64,
        )
        runtime.wait(runtime.submit(task))
        assert len(tracer.records) == 1
        record = tracer.records[0]
        assert record.name == "work"
        assert record.finished >= record.locks_held >= record.data_ready
        assert record.data_ready >= record.started >= record.enqueued
        assert record.compute_time > 0
        # the full-grid read had to replicate remote data: staging happened
        assert record.staging_time > 0

    def test_breakdown_over_pfor(self):
        runtime, tracer = traced_runtime()
        grid = Grid((32, 32), name="g")
        runtime.register_item(grid)
        sweep = pfor(
            runtime,
            (0, 0),
            (32, 32),
            body=lambda ctx, box: None,
            writes=lambda box: {grid: box_region(grid, box)},
            flops_per_element=100.0,
        )
        runtime.wait(sweep)
        breakdown = tracer.breakdown()
        assert breakdown.tasks == len(tracer.records) > 1
        fractions = breakdown.fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        assert fractions["compute"] > 0

    def test_slowest_sorted(self):
        runtime, tracer = traced_runtime()
        for k, flops in enumerate((1e5, 5e6, 1e6)):
            runtime.wait(
                runtime.submit(
                    TaskSpec(name=f"t{k}", flops=flops, size_hint=1)
                )
            )
        slowest = tracer.slowest(2)
        assert len(slowest) == 2
        assert slowest[0].name == "t1"  # the 5e6-flop task

    def test_render_outputs(self):
        runtime, tracer = traced_runtime()
        for k in range(4):
            runtime.wait(
                runtime.submit(
                    TaskSpec(name=f"t{k}", flops=1e6, size_hint=1),
                    origin=k % 2,
                )
            )
        gantt = tracer.render_gantt(num_processes=2)
        assert "p0" in gantt and "p1" in gantt
        breakdown = tracer.render_breakdown()
        assert "compute" in breakdown and "%" in breakdown

    def test_record_cap(self):
        tracer = ExecutionTracer(max_records=2)
        task = TaskSpec(name="t", flops=1.0)
        for k in range(5):
            tracer.on_task_enqueued(task, k, "leaf", 0, 0.0)
            tracer.on_task_finished(task, k, 0, 1.0, 1.0)
        assert len(tracer.records) <= 2

    def test_empty_tracer_renders(self):
        tracer = ExecutionTracer()
        assert tracer.utilization(2) == [[0.0] * 20, [0.0] * 20]
        assert "0 tasks" in tracer.render_breakdown()


#: how each subscriber kind attaches to a freshly built runtime
ATTACH = {
    "tracer": lambda runtime: runtime.probes.attach(ExecutionTracer()),
    "sentinel": lambda runtime: RuntimeSentinel(
        runtime, SentinelConfig(strict=True)
    ).attach(),
    "admission": lambda runtime: AdmissionController(
        runtime, AdmissionConfig(strict=False)
    ).attach(),
    "job": lambda runtime: runtime.probes.attach(JobContext(job_id="j")),
}

#: metrics the subscribers themselves publish
OBSERVER_METRICS = ("sentinel.", "analysis.")


def observed_run(monkeypatch, app, kinds):
    """Run ``app`` with the ``kinds`` subscribers attached to its runtime."""
    attached = {}
    original = AllScaleRuntime.__init__

    def patched(self, *args, **kwargs):
        original(self, *args, **kwargs)
        for kind in kinds:
            attached[kind] = ATTACH[kind](self)

    with monkeypatch.context() as patch:
        patch.setattr(AllScaleRuntime, "__init__", patched)
        result = run_app(app, comm_config(True))
    return result, attached


def simulated(result):
    """The run's simulated outputs, minus what observers publish."""
    snapshot = result.extras["runtime"].metrics.snapshot()
    return (
        result.elapsed,
        result.work,
        {
            key: value
            for key, value in snapshot.items()
            if not key.startswith(OBSERVER_METRICS)
        },
    )


def observed(kind, probe, result):
    """What one subscriber saw, in comparable form."""
    if kind == "tracer":
        # canonical_trace reads runtime.tracer; drop the observer metrics
        return [
            line
            for line in canonical_trace(result).decode().splitlines()
            if not line.startswith(OBSERVER_METRICS)
        ]
    if kind == "sentinel":
        return probe.violations, probe.checks, probe.scans
    if kind == "admission":
        return [
            (r.subject, r.counts(), r.tasks_expanded, r.pairs_checked)
            for r in probe.reports
        ]
    return probe.snapshot()


@pytest.mark.sentinel_injection  # the runs choose their own subscribers
class TestProbeSeam:
    def test_nothing_attached_means_no_active_probe(self):
        runtime = traced_runtime()[0]
        runtime.tracer = None
        assert runtime.probes.active is None
        assert runtime.tracer is None and runtime.sentinel is None

    @pytest.mark.parametrize("app", ["stencil", "tpc"])
    def test_all_subscribers_together_match_each_alone(self, monkeypatch, app):
        bare, _ = observed_run(monkeypatch, app, ())
        together, everyone = observed_run(monkeypatch, app, tuple(ATTACH))
        assert simulated(together) == simulated(bare)
        for kind in ATTACH:
            alone, single = observed_run(monkeypatch, app, (kind,))
            assert simulated(alone) == simulated(bare)
            assert observed(kind, everyone[kind], together) == observed(
                kind, single[kind], alone
            )
        assert everyone["sentinel"].violations == []
        assert everyone["job"].cpu_seconds > 0
        assert everyone["admission"].reports
