"""Tests for the Fig. 7 series, reporting, Table 1 and the comms panel."""

import copy

import pytest

from repro.apps.common import AppResult
from repro.bench.comms import ON_COUNTERS, CommsPanel, comms_row
from repro.bench.panel import load
from repro.bench.report import render_table, render_table1
from repro.bench.scaling import (
    FIG7_NODE_COUNTS,
    ScalingPoint,
    ScalingSeries,
    parallel_efficiency,
    render_series,
    sweep,
)
from repro.bench.tables import TABLE1_ROWS, table1


def make_series(values_as, values_mpi, nodes=(1, 2, 4)):
    series = ScalingSeries(app="x", metric="u/s")
    for n, a, m in zip(nodes, values_as, values_mpi):
        series.points.append(ScalingPoint(n, a, m))
    return series


class TestScalingSeries:
    def test_add_and_accessors(self):
        series = ScalingSeries(app="a", metric="m")
        series.add(
            AppResult("a", "allscale", 2, elapsed=1.0, work=10.0),
            AppResult("a", "mpi", 2, elapsed=1.0, work=20.0),
        )
        point = series.point_at(2)
        assert point.allscale == 10.0 and point.mpi == 20.0
        assert point.ratio == pytest.approx(0.5)
        with pytest.raises(KeyError):
            series.point_at(99)

    def test_mismatched_nodes_rejected(self):
        series = ScalingSeries(app="a", metric="m")
        with pytest.raises(ValueError):
            series.add(
                AppResult("a", "allscale", 2, elapsed=1.0, work=1.0),
                AppResult("a", "mpi", 4, elapsed=1.0, work=1.0),
            )

    def test_linear_reference(self):
        series = make_series([100, 190, 350], [120, 240, 480])
        assert series.linear("allscale") == [100, 200, 400]
        assert series.linear("mpi") == [120, 240, 480]

    def test_efficiency(self):
        series = make_series([100, 190, 350], [120, 240, 480])
        assert parallel_efficiency(series, "allscale") == pytest.approx(0.875)
        assert parallel_efficiency(series, "mpi") == pytest.approx(1.0)

    def test_sweep_runs_both_systems(self):
        calls = []

        def run(system):
            def inner(nodes):
                calls.append((system, nodes))
                return AppResult("a", system, nodes, elapsed=1.0, work=nodes)

            return inner

        series = sweep("a", "m", (1, 2), run("allscale"), run("mpi"))
        assert [p.nodes for p in series.points] == [1, 2]
        assert ("allscale", 1) in calls and ("mpi", 2) in calls

    def test_fig7_axis(self):
        assert FIG7_NODE_COUNTS == (1, 2, 4, 8, 16, 32, 64)


class TestTable1:
    def test_default_rows_match_paper(self):
        assert [row.name for row in TABLE1_ROWS] == ["stencil", "iPiC3D", "TPC"]
        assert [row.data_structure for row in TABLE1_ROWS] == [
            "regular 2D grid",
            "multiple regular 3D grids",
            "kd-tree",
        ]
        assert [row.metric for row in TABLE1_ROWS] == [
            "FLOPS",
            "particle updates per second",
            "queries per second",
        ]
        rows = {row.name: row for row in TABLE1_ROWS}
        assert rows["stencil"].problem_size == "20,000² elements per node"
        assert rows["stencil"].metric == "FLOPS"
        assert rows["iPiC3D"].problem_size == "48 · 10⁶ particles per node"
        assert rows["iPiC3D"].data_structure == "multiple regular 3D grids"
        assert rows["TPC"].problem_size == "2^29 points in [0, 100)^7 with radius 20"
        assert rows["TPC"].metric == "queries per second"

    def test_customized_workloads(self):
        from repro.apps.stencil import StencilWorkload

        rows = table1(stencil=StencilWorkload(n_per_node=100))
        assert rows[0].problem_size == "100² elements per node"


class TestReports:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "333" in lines[3]

    def test_render_table1(self):
        text = render_table1(TABLE1_ROWS)
        assert "stencil" in text and "kd-tree" in text

    def test_render_series(self):
        series = make_series([100, 190, 350], [120, 240, 480])
        text = render_series(series)
        assert "Fig. 7" in text
        assert "AS/MPI" in text
        assert "400" in text  # linear column


class TestCommsPoint:
    OFF = dict(
        messages=1000.0, net_bytes=5000.0, data_bytes=2048.0, work=10.0, elapsed=2.0
    )
    ON = dict(
        messages=600.0, net_bytes=4000.0, data_bytes=2048.0, work=10.0, elapsed=1.5
    )

    def make_row(self, off=None, **on_overrides):
        return comms_row("x", off or self.OFF, {**self.ON, **on_overrides}, {})

    def test_message_reduction(self):
        assert self.make_row()["message_reduction"] == pytest.approx(0.4)
        off, on = {**self.OFF, "messages": 0.0}, {**self.ON, "messages": 0.0}
        zero = comms_row("x", off, on, {})
        assert zero["message_reduction"] == 0.0

    def test_elapsed_delta(self):
        assert self.make_row()["elapsed_delta"] == pytest.approx(-0.25)
        zero = self.make_row(off={**self.OFF, "elapsed": 0.0})
        assert zero["elapsed_delta"] == 0.0

    def test_outputs_identical(self):
        assert self.make_row()["outputs_identical"]
        assert not self.make_row(work=11.0)["outputs_identical"]
        assert not self.make_row(data_bytes=1.0)["outputs_identical"]

    def test_to_row_shape(self):
        row = self.make_row()
        assert row["message_reduction"] == 0.4
        assert row["outputs_identical"] is True
        assert row["counters"] == {}
        assert set(row) == TestCommsBaseline.ROW_KEYS

    def test_render_and_json(self):
        results = {"x": self.make_row()}
        text = CommsPanel().render("full", results)
        assert "+40.0%" in text and "yes" in text
        assert results["x"]["messages_on"] == 600.0


class TestCommsBaseline:
    """The committed full-mode comms pin keeps its schema and its promises,
    and the comms gates hold those promises on every fresh run."""

    ROW_KEYS = {
        "app",
        "nodes",
        "messages_off",
        "messages_on",
        "message_reduction",
        "net_bytes_off",
        "net_bytes_on",
        "data_bytes_off",
        "data_bytes_on",
        "work_off",
        "work_on",
        "elapsed_off",
        "elapsed_on",
        "elapsed_delta",
        "outputs_identical",
        "counters",
    }

    @pytest.fixture
    def cells(self):
        return load(CommsPanel.baseline_path)["modes"]["full"]["cells"]

    def gates(self, cells):
        return CommsPanel().gates("full", cells)

    def test_schema_pinned(self, cells):
        assert set(cells) == {"stencil", "ipic3d", "tpc"}
        for row in cells.values():
            assert set(row) == self.ROW_KEYS
            assert row["nodes"] == 4

    def test_counters_pinned(self, cells):
        for row in cells.values():
            assert set(row["counters"]) == set(ON_COUNTERS)

    def test_outputs_identical_everywhere(self, cells):
        assert self.gates(cells) == []
        broken = copy.deepcopy(cells)
        broken["ipic3d"]["outputs_identical"] = False
        assert self.gates(broken) == [
            "ipic3d: optimised run changed outputs or moved bytes"
        ]

    def test_message_reduction_targets(self, cells):
        # the acceptance bar: >= 30% fewer messages on the TPC panel,
        # and every app must see a material reduction
        broken = copy.deepcopy(cells)
        broken["tpc"]["message_reduction"] = 0.29
        broken["stencil"]["message_reduction"] = 0.24
        assert self.gates(broken) == [
            "stencil: message reduction below 25%",
            "tpc: message reduction below 30%",
        ]

    def test_comms_layer_actually_engaged(self, cells):
        broken = copy.deepcopy(cells)
        broken["stencil"]["counters"]["comms.plans"] = 0.0
        broken["ipic3d"]["counters"]["comms.moved_bytes"] += 1.0
        broken["tpc"]["counters"]["net.bulk_messages"] = 0.0
        broken["tpc"]["counters"]["comms.batched_dispatches"] = 0.0
        broken["tpc"]["counters"]["comms.plans"] = 0.0  # TPC opens no plan
        assert self.gates(broken) == [
            "ipic3d: planned moves do not account for the payload",
            "stencil: no transfer plans",
            "tpc: no bulk messages",
            "tpc: no batched dispatches",
        ]
