"""The scaling panel: its pinned Fig. 7 baseline, check and shape gates."""

from __future__ import annotations

import copy

import pytest

from repro.bench import panel as store
from repro.bench.__main__ import parser
from repro.bench.panel import BASELINE_ROOT
from repro.bench.scaling import ScalingPanel

#: quick-bench wall clock (stencil + ipic3d + tpc, 1/4/16 nodes) measured
#: immediately before the flat-core refactor; the pinned quick sweep must
#: stay at least 3x faster
PR5_QUICK_SECONDS = 86.4

PANEL = ScalingPanel()


def _cells(allscale: float = 10.0) -> dict:
    return {
        app: {
            "metric": "u/s",
            "points": [
                {"nodes": 1, "allscale": allscale, "mpi": 12.0},
                {"nodes": 4, "allscale": allscale * 4, "mpi": 48.0},
            ],
        }
        for app in ("stencil", "ipic3d", "tpc")
    }


def _baseline(cells: dict, wall: float = 3.0) -> dict:
    return {
        "schema": store.SCHEMA_VERSION,
        "modes": {"smoke": store.section(cells, wall)},
    }


def _committed() -> dict:
    return store.load(PANEL.baseline_path)


class TestCheckPanel:
    def test_identical_run_passes(self) -> None:
        assert store.check(_baseline(_cells()), "smoke", _cells(), 3.0) == []

    def test_missing_baseline_reported(self) -> None:
        assert store.check(None, "smoke", _cells(), 3.0)

    def test_missing_mode_section_reported(self) -> None:
        baseline = _baseline(_cells())
        baseline["modes"] = {}
        problems = store.check(baseline, "smoke", _cells(), 3.0)
        assert any("no 'smoke' section" in p for p in problems)

    def test_changed_output_detected(self) -> None:
        problems = store.check(
            _baseline(_cells(10.0)), "smoke", _cells(10.0001), 3.0
        )
        assert "cells.tpc.points: baseline" in problems[-1]
        assert len(problems) == 3

    def test_tiny_drift_is_still_a_failure(self) -> None:
        # determinism means exact equality — no epsilon
        problems = store.check(
            _baseline(_cells(10.0)), "smoke", _cells(10.0 + 1e-9), 3.0
        )
        assert len(problems) == 3

    def test_wall_clock_regression_detected(self) -> None:
        problems = store.check(_baseline(_cells()), "smoke", _cells(), 4.5)
        assert any("wall clock regressed" in p for p in problems)

    def test_wall_clock_within_tolerance_passes(self) -> None:
        assert store.check(_baseline(_cells()), "smoke", _cells(), 3.3) == []


class TestPanelMode:
    def test_modes(self) -> None:
        assert parser().parse_args([]).mode == "full"
        assert parser().parse_args(["--quick"]).mode == "quick"
        assert parser().parse_args(["--smoke"]).mode == "smoke"
        with pytest.raises(SystemExit):
            parser().parse_args(["--quick", "--smoke"])


class TestGates:
    def test_every_committed_mode_clears_the_shape_gates(self) -> None:
        for mode, section in _committed()["modes"].items():
            assert PANEL.gates(mode, section["cells"]) == [], mode

    def test_comparable_performance_band(self) -> None:
        cells = copy.deepcopy(_committed()["modes"]["smoke"]["cells"])
        cells["stencil"]["points"][1]["allscale"] = (
            cells["stencil"]["points"][1]["mpi"] * 0.4
        )
        problems = PANEL.gates("smoke", cells)
        assert any("ratio 0.40 at 4 nodes" in p for p in problems)
        assert "stencil: allscale parallel efficiency <= 0.6" in problems

    def test_tpc_flattening_applies_to_the_full_sweep_only(self) -> None:
        cells = copy.deepcopy(_committed()["modes"]["full"]["cells"])
        # AllScale keeps scaling ideally from 8 to 64 nodes: no flattening
        points = {p["nodes"]: p for p in cells["tpc"]["points"]}
        points[64]["allscale"] = points[8]["allscale"] * 8
        problems = PANEL.gates("full", cells)
        assert "tpc: AllScale 8→64 gain not far below the 8x ideal" in problems
        quick = copy.deepcopy(_committed()["modes"]["quick"]["cells"])
        quick["tpc"] = cells["tpc"]
        assert not any("8→64" in p for p in PANEL.gates("quick", quick))


class TestCommittedBaseline:
    """The committed artifact itself: shape, coverage, and the headline."""

    def test_location_and_schema(self) -> None:
        assert PANEL.baseline_path == BASELINE_ROOT / "BENCH_scaling_baseline.json"
        assert _committed()["schema"] == store.SCHEMA_VERSION

    def test_full_sweep_covers_the_paper_axis(self) -> None:
        cells = _committed()["modes"]["full"]["cells"]
        for app in ("stencil", "ipic3d", "tpc"):
            points = cells[app]["points"]
            assert [p["nodes"] for p in points] == [1, 2, 4, 8, 16, 32, 64]
            for point in points:
                assert point["allscale"] > 0.0
                assert point["mpi"] > 0.0

    def test_quick_section_records_speedup(self) -> None:
        section = _committed()["modes"]["quick"]
        for cell in section["cells"].values():
            assert [p["nodes"] for p in cell["points"]] == [1, 4, 16]
        # the flat-core refactor's acceptance bar
        assert PR5_QUICK_SECONDS / section["wall_seconds"] >= 3.0
