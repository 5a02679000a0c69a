"""Tests for the churn panel's gates, schedules and baseline bookkeeping.

These use hand-built results (the real sweep is exercised by
``python -m repro.bench churn`` and its committed baseline); what is
under test here is the exact-match checking, the semantic gates a run
must clear before it may be pinned, the merge-per-mode baseline file
handling, and the deterministic schedule shapes — plus one real (tiny)
cell driving :func:`_run_cell` end to end with a churn controller
attached.
"""

from __future__ import annotations

import copy

import pytest

from repro.apps.stencil import StencilWorkload
from repro.bench import panel as store
from repro.bench.__main__ import parser
from repro.bench.churn import ChurnPanel, _grid, _run_cell, _schedule
from repro.bench.panel import UNPINNED
from repro.runtime.elastic import ChurnEvent

APPS = ("stencil", "ipic3d", "tpc")
SCENARIOS = ("baseline", "scale_out", "drain", "storm1xr1")
PANEL = ChurnPanel()


def _metrics(scenario: str) -> dict[str, float]:
    if scenario == "baseline":
        return {"elastic.churn_events": 0.0}
    metrics = {"elastic.churn_events": 2.0}
    if scenario == "scale_out":
        metrics["elastic.joins"] = 2.0
        metrics["elastic.join_migrated_bytes"] = 4096.0
    if scenario == "drain":
        metrics["elastic.drains"] = 1.0
        metrics["elastic.evacuated_bytes"] = 8192.0
    if scenario.startswith("storm"):
        metrics["elastic.failures"] = 1.0
        metrics["elastic.restored_bytes"] = 2048.0
    return metrics


def _results() -> dict:
    """A sweep that clears every semantic gate, as required for a pin."""
    results = {}
    for app_index, app in enumerate(APPS):
        results[app] = {
            "start_nodes": 3,
            "scenarios": {
                scenario: {
                    "sim_elapsed": 0.5 * (1 + app_index) + 0.01 * index,
                    "metrics": _metrics(scenario),
                    "membership_changes": 0 if scenario == "baseline" else 2,
                    "final_processes": 3 if scenario == "baseline" else 2,
                }
                for index, scenario in enumerate(SCENARIOS)
            },
            UNPINNED: {"sentinel_violations": {s: 0 for s in SCENARIOS}},
        }
    return results


def _replace_cell(results, app, scenario, **changes):
    results[app]["scenarios"][scenario].update(changes)


def _baseline(results, mode="smoke", wall=3.0):
    section = store.section(copy.deepcopy(results), wall)
    return {"schema": store.SCHEMA_VERSION, "modes": {mode: section}}


class TestModeAndSchedule:
    def test_panel_mode(self):
        assert parser().parse_args(["--smoke"]).mode == "smoke"
        assert parser().parse_args(["--quick"]).mode == "quick"
        assert parser().parse_args([]).mode == "full"
        # one size per run: the CLI refuses both
        with pytest.raises(SystemExit):
            parser().parse_args(["--quick", "--smoke"])

    def test_grid_grows_with_mode(self):
        smoke_nodes, smoke_grid = _grid("smoke")
        quick_nodes, quick_grid = _grid("quick")
        full_nodes, full_grid = _grid("full")
        assert smoke_nodes < quick_nodes < full_nodes
        assert len(smoke_grid) < len(quick_grid) < len(full_grid)

    def test_baseline_schedule_is_empty(self):
        assert _schedule("baseline", 10.0, 0, 0) == []

    def test_scale_out_schedule_only_joins(self):
        events = _schedule("scale_out", 10.0, 0, 0)
        assert events and all(e.kind == "join" for e in events)
        assert all(0.0 < e.at < 10.0 for e in events)

    def test_drain_schedule(self):
        events = _schedule("drain", 10.0, 0, 0)
        assert [e.kind for e in events] == ["drain"]

    def test_storm_schedule_shape(self):
        rate, storm = 2, 3
        events = _schedule("storm3xr2", 10.0, rate, storm)
        kinds = [e.kind for e in events]
        assert kinds.count("join") == rate
        assert kinds.count("drain") == rate
        storms = [e for e in events if e.kind == "storm"]
        assert len(storms) == 1 and storms[0].count == storm
        # the schedule replays in order: events must already be sorted
        assert [e.at for e in events] == sorted(e.at for e in events)


class TestSemanticProblems:
    def test_clean_panel(self):
        assert PANEL.gates("smoke", _results()) == []

    def test_sentinel_violation_rejected(self):
        results = _results()
        results["tpc"][UNPINNED]["sentinel_violations"]["drain"] = 2
        problems = PANEL.gates("smoke", results)
        assert len(problems) == 1
        assert "tpc/drain" in problems[0]
        assert "sentinel" in problems[0]

    def test_baseline_must_not_churn(self):
        results = _results()
        _replace_cell(
            results, "stencil", "baseline",
            metrics={"elastic.churn_events": 1.0},
        )
        assert any(
            "baseline saw churn" in p for p in PANEL.gates("smoke", results)
        )

    def test_churn_scenario_must_apply_events(self):
        results = _results()
        _replace_cell(results, "stencil", "drain", metrics={})
        problems = PANEL.gates("smoke", results)
        assert any("no churn events applied" in p for p in problems)
        assert any("no node drained" in p for p in problems)

    def test_scale_out_must_join(self):
        results = _results()
        _replace_cell(
            results, "ipic3d", "scale_out",
            metrics={"elastic.churn_events": 2.0},
        )
        assert any("no node joined" in p for p in PANEL.gates("smoke", results))

    def test_drain_must_evacuate(self):
        results = _results()
        _replace_cell(
            results, "ipic3d", "drain",
            metrics={
                "elastic.churn_events": 1.0,
                "elastic.drains": 1.0,
                "elastic.evacuated_bytes": 0.0,
            },
        )
        assert any(
            "evacuated no data" in p for p in PANEL.gates("smoke", results)
        )

    def test_storm_must_fail_nodes(self):
        results = _results()
        _replace_cell(
            results, "tpc", "storm1xr1",
            metrics={"elastic.churn_events": 1.0},
        )
        assert any(
            "storm failed no nodes" in p for p in PANEL.gates("smoke", results)
        )


class TestCheckPanel:
    def test_no_baseline(self):
        assert store.check(None, "smoke", _results(), 3.0) == ["no baseline file"]

    def test_missing_mode_section(self):
        baseline = {"schema": store.SCHEMA_VERSION, "modes": {}}
        assert store.check(baseline, "smoke", _results(), 3.0) == [
            "baseline has no 'smoke' section"
        ]

    def test_exact_match_passes(self):
        assert store.check(_baseline(_results()), "smoke", _results(), 3.0) == []

    def test_sim_elapsed_drift_is_exact(self):
        results = _results()
        baseline = _baseline(results)
        _replace_cell(results, "stencil", "drain", sim_elapsed=99.0)
        assert store.check(baseline, "smoke", results, 3.0) == [
            "cells.stencil.scenarios.drain.sim_elapsed: baseline 0.52, run 99.0"
        ]

    def test_metric_drift_is_exact(self):
        results = _results()
        baseline = _baseline(results)
        results["tpc"]["scenarios"]["drain"]["metrics"][
            "elastic.evacuated_bytes"
        ] += 1.0
        problems = store.check(baseline, "smoke", results, 3.0)
        assert problems == [
            "cells.tpc.scenarios.drain.metrics.elastic.evacuated_bytes: "
            "baseline 8192.0, run 8193.0"
        ]

    def test_membership_and_survivors_pinned(self):
        results = _results()
        baseline = _baseline(results)
        _replace_cell(
            results, "ipic3d", "scale_out",
            membership_changes=5, final_processes=9,
        )
        problems = store.check(baseline, "smoke", results, 3.0)
        assert any("membership_changes" in p for p in problems)
        assert any("final_processes" in p for p in problems)

    def test_cell_set_must_match(self):
        results = _results()
        baseline = _baseline(results)
        results["tpc"]["scenarios"]["storm9xr9"] = copy.deepcopy(
            results["tpc"]["scenarios"]["storm1xr1"]
        )
        del results["stencil"]["scenarios"]["baseline"]
        problems = store.check(baseline, "smoke", results, 3.0)
        assert "cells.tpc.scenarios.storm9xr9: not in baseline" in problems
        assert "cells.stencil.scenarios.baseline: missing from run" in problems

    def test_start_nodes_pinned(self):
        results = _results()
        baseline = _baseline(results)
        results["ipic3d"]["start_nodes"] = 7
        assert store.check(baseline, "smoke", results, 3.0) == [
            "cells.ipic3d.start_nodes: baseline 3, run 7"
        ]

    def test_wall_clock_tolerance(self):
        baseline = _baseline(_results(), wall=3.0)
        assert any(
            "wall clock regressed" in p
            for p in store.check(baseline, "smoke", _results(), 30.0)
        )
        # simulated drift is exact, wall drift is tolerated
        assert store.check(baseline, "smoke", _results(), 3.3) == []


class TestBaselineFile:
    def test_roundtrip_merges_per_mode(self, tmp_path):
        path = tmp_path / "baseline.json"
        assert store.load(path) is None
        store.write(path, "smoke", _results(), 3.0)
        store.write(path, "quick", _results(), 6.0)
        baseline = store.load(path)
        assert baseline["schema"] == store.SCHEMA_VERSION
        assert set(baseline["modes"]) == {"smoke", "quick"}
        assert store.check(baseline, "smoke", _results(), 3.0) == []
        assert store.check(baseline, "quick", _results(), 6.0) == []

    def test_committed_baseline_has_all_modes(self):
        baseline = store.load(PANEL.baseline_path)
        assert baseline is not None
        assert baseline["schema"] == store.SCHEMA_VERSION
        assert set(baseline["modes"]) >= {"smoke", "quick", "full"}
        for mode, section in baseline["modes"].items():
            nodes, grid = _grid(mode)
            for cell in section["cells"].values():
                assert cell["start_nodes"] == nodes
                assert len(cell["scenarios"]) == 3 + len(grid)


class TestRenderSummary:
    def test_summary_lists_cells_and_wall(self):
        text = PANEL.render("smoke", _results())
        assert "Churn sweep" in text
        assert "strict sentinel attached" in text
        for app in APPS:
            assert f"{app}/drain" in text


class TestRunCell:
    def test_tiny_cell_with_churn_completes(self):
        workload = StencilWorkload(
            n_per_node=400, timesteps=2, functional=False
        )
        events = [
            ChurnEvent(at=1e-4, kind="join"),
            ChurnEvent(at=2e-4, kind="drain"),
        ]
        result, runtime, controller, snapshot, _violations = _run_cell(
            "stencil", workload, 3, events
        )
        assert controller is not None and controller.done
        assert snapshot.get("elastic.churn_events") == 2.0
        assert snapshot.get("elastic.joins") == 1.0
        assert snapshot.get("elastic.drains") == 1.0
        assert result.elapsed > 0.0
        assert len(runtime.alive_processes()) == 3
