"""BENCHMARK.json, the metric catalogue and the printed metrics agree."""

import json
import math
import subprocess
import sys
from dataclasses import replace

import pytest

from conftest import ROOT
from perfbench.bench import Measurement, result_line
from perfbench.catalog import (
    END_TO_END,
    NAME_RE,
    PER_LAYER,
    UNIT_RE,
    markdown_tables,
)
from perfbench.tracer import LayerTracer, SpanLog, summarize
from perfbench.workloads import WORKLOADS, Cell, check_allscale, check_completed
from repro.apps.stencil import StencilWorkload, stencil_allscale, stencil_mpi
from repro.runtime.config import RuntimeConfig
from repro.sim.cluster import Cluster, ClusterSpec

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert (ROOT / SPEC["command"][1]).is_file()
    assert 1 <= SPEC["run_seconds"] <= 60


def test_names_and_units_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(metric["name"])
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME_RE.match(name) for name in names)
    assert len(names) == len(set(names))
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_benchmark_json_matches_the_catalogue():
    assert SPEC["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] > max(b for n, b in bounds.items() if n != "setup_s")
    assert all(m.layer and m.moves for m in PER_LAYER)


def test_readme_embeds_the_catalogue():
    text = (ROOT / "perfbench" / "README.md").read_text()
    begin, end = "<!-- catalogue -->\n", "<!-- /catalogue -->"
    embedded = text[text.index(begin) + len(begin) : text.index(end)]
    assert embedded == markdown_tables()


def tiny_cells():
    """Two stencil cells on a 2-node cluster: a pass takes milliseconds."""
    spec = ClusterSpec(num_nodes=2, cores_per_node=2, flops_per_core=1e9)
    workload = StencilWorkload(n_per_node=64, timesteps=2, functional=False)
    config = RuntimeConfig(functional=False)

    def run_allscale(hook):
        cluster = Cluster(spec)
        return stencil_allscale(cluster, workload, config, on_runtime=hook), cluster

    def run_mpi(_hook):
        cluster = Cluster(spec)
        return stencil_mpi(cluster, workload), cluster

    return [
        Cell("stencil", "allscale", 2, run_allscale, check_allscale),
        Cell("stencil", "mpi", 2, run_mpi, check_completed),
    ]


def test_every_catalogued_metric_is_printed_finite():
    measurement = Measurement(tiny_cells())
    tracer = LayerTracer()
    measurement.run_pass()
    measurement.run_pass(tracer)
    assert measurement.failed == 0
    e2e = measurement.end_to_end(setup_s=0.5)
    layers = measurement.per_layer(summarize(SpanLog()))
    assert set(e2e) == {m.name for m in END_TO_END}
    assert set(layers) == {m.name for m in PER_LAYER}
    assert all(math.isfinite(v) for v in (*e2e.values(), *layers.values()))
    assert all(e2e[m] > 0 for m in e2e)
    for traced, metrics in ((False, e2e), (True, layers)):
        line = json.loads(result_line(measurement, metrics, traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] == 4
        assert set(line["metrics"]) == set(metrics)


def test_tracing_leaves_simulated_values_unchanged():
    cells = tiny_cells()
    measurement = Measurement(cells)
    for _ in range(2):
        measurement.run_pass()
        measurement.run_pass(LayerTracer())
    # the determinism guard compared all four runs of each cell
    assert measurement.failed == 0 and measurement.attempted == 8
    assert measurement.first_spans[cells[0].key]["regions.ops"] > 0


def test_guard_reports_a_changed_count_as_a_failure():
    cell = tiny_cells()[0]
    measurement = Measurement([cell])
    measurement.run_pass()

    def drifting(hook):
        result, cluster = cell.run(hook)
        cluster.metrics.incr("net.messages")
        return result, cluster

    measurement.cells = [replace(cell, run=drifting)]
    measurement.run_pass()
    assert measurement.failed == 1
    assert "nondeterministic net.messages" in measurement.problems[0]


def test_run_refuses_a_tree_without_the_simulator(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-scaling",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("argv", [["--workload", "nope"], ["--trace", "2"]])
def test_run_rejects_bad_arguments(argv):
    args = {"--workload": "grid-scaling", "--seed": "1", "--seconds": "1",
            "--trace": "0"}
    args.update(dict(zip(argv[::2], argv[1::2])))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *sum(args.items(), ())],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_pass_times_are_rescaled_by_the_calibration_kernel(monkeypatch):
    import perfbench.bench as bench
    from perfbench.calibration import NOMINAL_S, kernel

    assert kernel(1000) == kernel(1000)
    # a machine running at half the nominal speed: reference seconds halve
    monkeypatch.setattr(bench, "kernel_seconds", lambda: 2 * NOMINAL_S)
    measurement = Measurement(tiny_cells())
    measurement.run_pass()
    assert measurement.wall_s() == pytest.approx(measurement.wall_s(raw=True) / 2)
