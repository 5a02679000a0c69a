"""The bench framework: one panel protocol, one baseline store, one runner.

A *panel* regenerates one evaluation artifact as a list of named cells.
Running a cell yields a JSON dict of exact simulated values (the
simulator is deterministic, so these are goldens compared with ``==``,
never estimates) and the runner measures the host seconds around it.
Values a cell measures on the host, or that depend on the environment,
go under the :data:`UNPINNED` key: gates read them, the store never pins
them.

Each panel's baseline holds one section per mode::

    {"schema": 2, "modes": {mode: {"cells": {cell: values},
                                   "wall_seconds": total}}}

``--check`` demands every pinned value back exactly and the summed cell
wall clock within :func:`wall_limit`; ``--write-baseline`` merges the
run's mode section in, and refuses when a gate fails.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.regions.kernel import get_kernel

#: schema version of every ``BENCH_*_baseline.json``; bump on a layout change
SCHEMA_VERSION = 2

#: directory holding the committed ``BENCH_*_baseline.json`` files
BASELINE_ROOT = pathlib.Path(__file__).resolve().parents[3]

#: cell-value key for measurements the store does not pin
UNPINNED = "unpinned"

#: relative host wall-clock regression ``--check`` tolerates ...
ELAPSED_TOLERANCE = 0.20
#: ... or this many absolute seconds, whichever is larger (sub-second
#: pins are all jitter)
ELAPSED_SLACK = 1.0

Values = dict[str, Any]
Results = dict[str, Values]


class Panel(Protocol):
    """One evaluation artifact as independent, deterministic cells."""

    name: str
    baseline_path: pathlib.Path

    def cells(self, mode: str) -> list[str]:
        """The cell names this mode runs, in order."""

    def run_cell(self, mode: str, cell: str) -> Values:
        """Run one cell; exact values, host measurements under UNPINNED."""

    def gates(self, mode: str, results: Results) -> list[str]:
        """The paper's semantic claims over a run; empty means all hold."""

    def render(self, mode: str, results: Results) -> str:
        """The run as human-readable tables."""


# -- store ---------------------------------------------------------------------


def wall_limit(pinned: float) -> float:
    return max(pinned * (1.0 + ELAPSED_TOLERANCE), pinned + ELAPSED_SLACK)


def pins(results: Results) -> Results:
    """The pinned part of every cell: everything but UNPINNED."""
    return {
        cell: {k: v for k, v in values.items() if k != UNPINNED}
        for cell, values in results.items()
    }


def section(results: Results, wall: float) -> dict:
    return {"cells": pins(results), "wall_seconds": round(wall, 2)}


def load(path: pathlib.Path) -> dict | None:
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write(path: pathlib.Path, mode: str, results: Results, wall: float) -> None:
    """Merge this run's mode section into the baseline file."""
    baseline = load(path)
    if baseline is None or baseline.get("schema") != SCHEMA_VERSION:
        baseline = {"schema": SCHEMA_VERSION, "modes": {}}
    baseline["modes"][mode] = section(results, wall)
    path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")


def diff(path: str, want: Any, got: Any, problems: list[str]) -> None:
    """Recursive exact comparison with dotted-path problem reports."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in want:
                problems.append(f"{path}.{key}: not in baseline")
            elif key not in got:
                problems.append(f"{path}.{key}: missing from run")
            else:
                diff(f"{path}.{key}", want[key], got[key], problems)
    elif want != got:
        problems.append(f"{path}: baseline {want!r}, run {got!r}")


def check(
    baseline: dict | None, mode: str, results: Results, wall: float
) -> list[str]:
    """Compare a run against a loaded baseline; empty means it matches."""
    if baseline is None:
        return ["no baseline file"]
    if baseline.get("schema") != SCHEMA_VERSION:
        return [f"baseline schema {baseline.get('schema')!r} != {SCHEMA_VERSION}"]
    pinned = baseline.get("modes", {}).get(mode)
    if pinned is None:
        return [f"baseline has no {mode!r} section"]
    problems: list[str] = []
    diff("cells", pinned["cells"], pins(results), problems)
    limit = wall_limit(pinned["wall_seconds"])
    if wall > limit:
        problems.append(
            f"wall clock regressed: {wall:.1f}s vs baseline "
            f"{pinned['wall_seconds']:.1f}s (limit {limit:.1f}s)"
        )
    return problems


# -- runner --------------------------------------------------------------------


@dataclass
class Run:
    """One panel at one mode: cell values and host seconds per cell."""

    mode: str
    results: Results = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())


def run_cell(panel: Panel, mode: str, cell: str) -> tuple[Values, float]:
    """One cell from a cold region kernel: (JSON values, host seconds).

    Process-global kernel state (interned regions, op caches, their GC
    load) would otherwise leak from one cell into the next one's timing.
    """
    get_kernel().reset()
    gc.collect()
    started = time.perf_counter()
    values = panel.run_cell(mode, cell)
    seconds = time.perf_counter() - started
    return json.loads(json.dumps(values)), seconds


def settle(
    panel: Panel,
    result: Run,
    problems: list[str],
    *,
    check_baseline: bool,
    write_baseline: bool,
) -> list[str]:
    """Gates, then the baseline check or the baseline write.

    ``problems`` carries what the caller already found (sentinel or
    analysis failures); any problem at all refuses the write.
    """
    problems = problems + panel.gates(result.mode, result.results)
    if check_baseline:
        problems += check(
            load(panel.baseline_path), result.mode, result.results, result.wall
        )
    if write_baseline:
        if problems:
            problems.append(f"refusing to write {panel.baseline_path.name}")
        else:
            write(panel.baseline_path, result.mode, result.results, result.wall)
    return problems
