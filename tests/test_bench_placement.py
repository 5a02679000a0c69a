"""Tests for the placement tournament's gates and baseline bookkeeping.

These use hand-built results (the real tournament is exercised by
``python -m repro.bench placement`` and its committed baseline); what is
under test here is the exact-match checking, the semantic planner
guarantees, and the merge-per-mode baseline file handling.
"""

from __future__ import annotations

from repro.bench import panel as store
from repro.bench.placement import POLICIES, TOPOLOGIES, PlacementPanel

APPS = ("stencil", "ipic3d", "tpc")
PANEL = PlacementPanel()


def _results() -> dict:
    """A tournament where planned wins bytes everywhere, as required."""
    results: dict = {}
    for app_index, app in enumerate(APPS):
        for topo_index, (topo, (nodes, radix)) in enumerate(TOPOLOGIES.items()):
            base = 1000.0 * (1 + app_index) * (1 + topo_index)
            races = {
                policy: {
                    "elapsed": 0.01 * (1 + pol_index),
                    "messages": 100.0 + 10 * pol_index,
                    # planned (index 0) strictly lowest
                    "bytes_moved": base * (1 + pol_index),
                    "migrations": float(pol_index),
                    "preplaced": 2.0 if policy == "planned" else 0.0,
                }
                for pol_index, policy in enumerate(POLICIES)
            }
            results.setdefault(app, {})[topo] = {
                "nodes": nodes,
                "radix": radix,
                "plan": {"processes": nodes, "pins": 7},
                "races": races,
            }
    return results


def _race(results, app, topo, policy) -> dict:
    return results[app][topo]["races"][policy]


class TestSemanticProblems:
    def test_clean_panel(self):
        assert PANEL.gates("smoke", _results()) == []

    def test_planned_not_strictly_fewer_bytes(self):
        results = _results()
        rival = _race(results, "ipic3d", "deep8", "round-robin")
        _race(results, "ipic3d", "deep8", "planned")["bytes_moved"] = (
            rival["bytes_moved"]
        )
        problems = PANEL.gates("smoke", results)
        assert len(problems) == 1
        assert "ipic3d/deep8" in problems[0]
        assert "not fewer" in problems[0]

    def test_plan_that_preplaced_nothing(self):
        results = _results()
        _race(results, "tpc", "edge4", "planned")["preplaced"] = 0.0
        assert PANEL.gates("smoke", results) == [
            "tpc/edge4: plan pre-placed no items"
        ]

    def test_missing_planned_race(self):
        results = _results()
        del results["stencil"]["wide16"]["races"]["planned"]
        assert PANEL.gates("smoke", results) == [
            "stencil/wide16: planned race missing"
        ]


class TestBaselineRoundtrip:
    def test_write_then_check_is_clean(self, tmp_path):
        path = tmp_path / "baseline.json"
        store.write(path, "smoke", _results(), 10.0)
        assert store.check(store.load(path), "smoke", _results(), 10.0) == []

    def test_modes_merge_not_overwrite(self, tmp_path):
        path = tmp_path / "baseline.json"
        store.write(path, "smoke", _results(), 10.0)
        store.write(path, "quick", _results(), 20.0)
        baseline = store.load(path)
        assert set(baseline["modes"]) == {"smoke", "quick"}
        assert store.check(baseline, "smoke", _results(), 10.0) == []

    def test_missing_file_and_missing_mode(self, tmp_path):
        assert store.load(tmp_path / "nope.json") is None
        problems = store.check(None, "smoke", _results(), 10.0)
        assert problems and "no baseline" in problems[0]
        path = tmp_path / "baseline.json"
        store.write(path, "quick", _results(), 10.0)
        problems = store.check(store.load(path), "smoke", _results(), 10.0)
        assert problems == ["baseline has no 'smoke' section"]


class TestCheckPanel:
    def _baseline(self, tmp_path, results=None):
        path = tmp_path / "baseline.json"
        store.write(path, "smoke", results or _results(), 10.0)
        return store.load(path)

    def test_detects_changed_metric(self, tmp_path):
        baseline = self._baseline(tmp_path)
        results = _results()
        _race(results, "stencil", "edge4", "random")["messages"] = 999.0
        problems = store.check(baseline, "smoke", results, 10.0)
        assert problems == [
            "cells.stencil.edge4.races.random.messages: baseline 130.0, run 999.0"
        ]

    def test_detects_race_missing_from_baseline(self, tmp_path):
        pinned = _results()
        for topologies in pinned.values():
            for entry in topologies.values():
                del entry["races"]["random"]
        problems = store.check(
            self._baseline(tmp_path, pinned), "smoke", _results(), 10.0
        )
        assert "cells.tpc.wide16.races.random: not in baseline" in problems

    def test_detects_baseline_race_not_run(self, tmp_path):
        baseline = self._baseline(tmp_path)
        results = _results()
        del results["tpc"]
        problems = store.check(baseline, "smoke", results, 10.0)
        assert problems == ["cells.tpc: missing from run"]
        # the semantic layer flags the dropped planned races too
        assert "tpc/edge4: planned race missing" in PANEL.gates("smoke", results)

    def test_wall_clock_tolerance(self, tmp_path):
        baseline = self._baseline(tmp_path)
        # +19%: inside the 20% band
        assert store.check(baseline, "smoke", _results(), 11.9) == []
        # +25%: regression
        assert store.check(baseline, "smoke", _results(), 12.5) == [
            "wall clock regressed: 12.5s vs baseline 10.0s (limit 12.0s)"
        ]


class TestRendering:
    def test_leaderboard_lists_every_race_best_first(self):
        text = PANEL.render("smoke", _results())
        for app in APPS:
            for topo in TOPOLOGIES:
                assert f"{app} @ {topo}" in text
        # planned has the lowest synthetic wall clock → first row everywhere
        blocks = [b.splitlines() for b in text.split("\n\n") if " @ " in b]
        assert len(blocks) == len(APPS) * len(TOPOLOGIES)
        for lines in blocks:
            # title, header, rule, then the best race
            assert lines[3].split()[0] == "planned"

    def test_section_shape(self):
        section = store.section(_results(), 10.0)
        races = [
            race
            for topologies in section["cells"].values()
            for entry in topologies.values()
            for race in entry["races"].values()
        ]
        assert len(races) == len(APPS) * len(TOPOLOGIES) * len(POLICIES)
        assert section["cells"]["tpc"]["deep8"]["radix"] == 2
        assert section["wall_seconds"] == 10.0

    def test_committed_layout(self):
        baseline = store.load(PANEL.baseline_path)
        assert set(baseline["modes"]) == {"quick", "smoke"}
        for section in baseline["modes"].values():
            for topologies in section["cells"].values():
                assert set(topologies) == set(TOPOLOGIES)
                for name, entry in topologies.items():
                    assert (entry["nodes"], entry["radix"]) == TOPOLOGIES[name]
                    assert set(entry["races"]) == set(POLICIES)
