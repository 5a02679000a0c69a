"""The shared bench store, checker and runner, exercised over every panel.

Each case starts from a panel's committed baseline section (a run that
reproduced it exactly) and perturbs either the run or the baseline.
"""

from __future__ import annotations

import copy
import math

import pytest

from repro.bench import panel as store
from repro.bench.__main__ import PANELS, main
from repro.bench.panel import UNPINNED
from repro.regions.box import Box, BoxSetRegion
from repro.regions.kernel import get_kernel

NAMES = sorted(PANELS)


def _committed(name: str):
    """(panel, baseline, mode, cells, wall) of the first committed mode."""
    panel = PANELS[name]()
    baseline = store.load(panel.baseline_path)
    assert baseline is not None, f"{panel.baseline_path.name} missing"
    mode = sorted(baseline["modes"])[0]
    section = baseline["modes"][mode]
    cells = copy.deepcopy(section["cells"])
    return panel, baseline, mode, cells, section["wall_seconds"]


def _float_leaf(values: dict) -> list:
    """Key path to the first float in a nested cell dict."""
    for key, value in values.items():
        if isinstance(value, float):
            return [key]
        if isinstance(value, dict):
            path = _float_leaf(value)
            if path:
                return [key, *path]
        if isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, dict) and _float_leaf(item):
                    return [key, index, *_float_leaf(item)]
    return []


@pytest.mark.parametrize("name", NAMES)
class TestCheck:
    def test_committed_run_matches(self, name):
        _panel, baseline, mode, cells, wall = _committed(name)
        assert store.check(baseline, mode, cells, wall) == []

    def test_one_ulp_drift_is_a_failure(self, name):
        _panel, baseline, mode, cells, wall = _committed(name)
        cell = sorted(cells)[0]
        path = _float_leaf(cells[cell])
        assert path, f"{name}/{cell} pins no float"
        holder = cells[cell]
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = math.nextafter(holder[path[-1]], math.inf)
        problems = store.check(baseline, mode, cells, wall)
        assert len(problems) == 1
        assert problems[0].startswith(f"cells.{cell}.")

    def test_cell_missing_from_run(self, name):
        _panel, baseline, mode, cells, wall = _committed(name)
        dropped = sorted(cells)[-1]
        del cells[dropped]
        assert store.check(baseline, mode, cells, wall) == [
            f"cells.{dropped}: missing from run"
        ]

    def test_cell_missing_from_baseline(self, name):
        _panel, baseline, mode, cells, wall = _committed(name)
        cells["extra"] = {"value": 1.0}
        assert store.check(baseline, mode, cells, wall) == [
            "cells.extra: not in baseline"
        ]

    def test_unpinned_values_are_not_compared(self, name):
        _panel, baseline, mode, cells, wall = _committed(name)
        cells[sorted(cells)[0]][UNPINNED] = {"host_seconds": 123.0}
        assert store.check(baseline, mode, cells, wall) == []

    def test_missing_mode(self, name):
        _panel, baseline, mode, cells, wall = _committed(name)
        del baseline["modes"][mode]
        assert store.check(baseline, mode, cells, wall) == [
            f"baseline has no {mode!r} section"
        ]

    def test_missing_file(self, name, tmp_path):
        _panel, _baseline, mode, cells, wall = _committed(name)
        missing = store.load(tmp_path / "BENCH_nope_baseline.json")
        assert store.check(missing, mode, cells, wall) == ["no baseline file"]

    def test_schema_mismatch(self, name):
        _panel, baseline, mode, cells, wall = _committed(name)
        baseline["schema"] = store.SCHEMA_VERSION - 1
        problems = store.check(baseline, mode, cells, wall)
        assert len(problems) == 1 and "schema" in problems[0]

    def test_wall_clock_rule_both_sides(self, name):
        _panel, baseline, mode, cells, wall = _committed(name)
        limit = store.wall_limit(wall)
        assert store.check(baseline, mode, cells, limit) == []
        problems = store.check(baseline, mode, cells, limit + 0.01)
        assert len(problems) == 1 and "wall clock regressed" in problems[0]


@pytest.mark.parametrize("name", NAMES)
class TestWrite:
    def test_roundtrip_merges_per_mode(self, name, tmp_path):
        _panel, _baseline, mode, cells, wall = _committed(name)
        path = tmp_path / "baseline.json"
        store.write(path, mode, cells, wall)
        store.write(path, "other", cells, wall * 2)
        written = store.load(path)
        assert written["schema"] == store.SCHEMA_VERSION
        assert set(written["modes"]) == {mode, "other"}
        assert store.check(written, mode, cells, wall) == []

    def test_write_refused_when_a_gate_fails(self, name, tmp_path, monkeypatch):
        panel, _baseline, mode, cells, wall = _committed(name)
        panel.baseline_path = tmp_path / "baseline.json"
        run = store.Run(mode, cells, {"all": wall})
        monkeypatch.setattr(panel, "gates", lambda mode, results: ["forced"])
        problems = store.settle(
            panel, run, [], check_baseline=False, write_baseline=True
        )
        assert problems == ["forced", "refusing to write baseline.json"]
        assert not panel.baseline_path.exists()
        monkeypatch.setattr(panel, "gates", lambda mode, results: [])
        problems = store.settle(
            panel, run, ["1 sentinel violation(s)"],
            check_baseline=False, write_baseline=True,
        )
        assert problems[-1] == "refusing to write baseline.json"
        assert not panel.baseline_path.exists()
        assert store.settle(
            panel, run, [], check_baseline=False, write_baseline=True
        ) == []
        assert store.check(store.load(panel.baseline_path), mode, cells, wall) == []


@pytest.mark.parametrize("name", NAMES)
def test_committed_cells_clear_the_gates(name):
    """Every committed mode of every baseline satisfies its panel's gates."""
    panel = PANELS[name]()
    for mode, section in store.load(panel.baseline_path)["modes"].items():
        cells = copy.deepcopy(section["cells"])
        if name == "ablations":
            # the region-op speedup is host-measured, never pinned
            cells["regions"][UNPINNED] = {"speedup": 47.0}
        assert panel.gates(mode, cells) == [], f"{name} {mode}"


def test_wall_limit_values():
    assert store.wall_limit(0.13) == pytest.approx(1.13)
    assert store.wall_limit(5.0) == pytest.approx(6.0)
    assert store.wall_limit(128.73) == pytest.approx(128.73 * 1.2)


class _DirtyPanel:
    """Dirties the region kernel in every cell and records what it saw."""

    name = "dirty"

    def __init__(self, baseline_path):
        self.baseline_path = baseline_path
        self.seen: list[dict] = []

    def cells(self, mode):
        return ["a", "b", "c"]

    def run_cell(self, mode, cell):
        self.seen.append(dict(get_kernel().stats()))
        region = BoxSetRegion([Box((0, 0), (4, 4))])
        region.union(BoxSetRegion([Box((2, 2), (8, 8))]))
        return {"cell": cell}

    def gates(self, mode, results):
        return []

    def render(self, mode, results):
        return ""


def test_every_cell_starts_from_a_cold_kernel(tmp_path, monkeypatch, capsys):
    dirty = _DirtyPanel(tmp_path / "BENCH_dirty_baseline.json")
    monkeypatch.setitem(PANELS, "dirty", lambda: dirty)
    region = BoxSetRegion([Box((0, 0), (3, 3))])
    region.intersect(BoxSetRegion([Box((1, 1), (5, 5))]))
    assert get_kernel().stats()["region.interned"] > 0
    out = tmp_path / "out"
    assert main(["dirty", "--smoke", "--write-baseline", "--out", str(out)]) == 0
    assert len(dirty.seen) == 3
    for stats in dirty.seen:
        assert set(stats.values()) == {0}, stats
    section = store.load(dirty.baseline_path)["modes"]["smoke"]
    assert section["cells"] == {c: {"cell": c} for c in "abc"}
    assert store.load(out / "dirty_smoke.json") == section
