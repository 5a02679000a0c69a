"""Command-line regeneration of the paper's evaluation artifacts.

Usage::

    python -m repro.bench table1                    # Table 1
    python -m repro.bench scaling --quick --check   # Fig. 7 vs its baseline
    python -m repro.bench churn placement --smoke   # several panels
    python -m repro.bench all --smoke               # Table 1 + Fig. 7

Every panel runs its cells from a cold region kernel, prints per-cell
host timing and its tables, and evaluates its semantic gates; ``--check``
compares against the committed ``BENCH_<panel>_baseline.json`` and
``--write-baseline`` re-pins it (refused when a gate fails).  The exit
status is non-zero when any gate, check, sentinel or analysis fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import Counter
from typing import Any, Callable

from repro.analysis import admission
from repro.bench.ablations import AblationsPanel
from repro.bench.churn import ChurnPanel
from repro.bench.comms import CommsPanel
from repro.bench.panel import Panel, Run, run_cell, section, settle
from repro.bench.placement import PlacementPanel
from repro.bench.report import render_table1
from repro.bench.scaling import ScalingPanel
from repro.bench.service import ServicePanel
from repro.bench.tables import table1
from repro.regions.kernel import get_kernel
from repro.runtime import sentinel as sentinel_mod

PANELS: dict[str, Callable[[], Panel]] = {
    "scaling": ScalingPanel,
    "comms": CommsPanel,
    "churn": ChurnPanel,
    "placement": PlacementPanel,
    "service": ServicePanel,
    "ablations": AblationsPanel,
}

#: ``all`` regenerates the paper's own artifacts: Table 1 and Fig. 7
ALL = ("table1", "scaling")


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables and figures.",
    )
    choices = ["table1", *PANELS, "all"]
    p.add_argument(
        "artifacts",
        nargs="*",
        metavar=f"{{{','.join(choices)}}}",
        help="which artifact(s) to regenerate (default: all)",
    )
    size = p.add_mutually_exclusive_group()
    size.add_argument(
        "--quick", dest="mode", action="store_const", const="quick",
        default="full", help="reduced sweeps (Fig. 7 at 1/4/16 nodes)",
    )
    size.add_argument(
        "--smoke", dest="mode", action="store_const", const="smoke",
        help="minimal CI sweeps (Fig. 7 at 1/4 nodes)",
    )
    pin = p.add_mutually_exclusive_group()
    pin.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline: every pinned value "
        "exact, wall clock within max(+20%%, +1 s)",
    )
    pin.add_argument(
        "--write-baseline", action="store_true",
        help="merge this run's mode section into the committed baseline "
        "(refused when a gate fails)",
    )
    p.add_argument(
        "--sentinel", action="store_true",
        help="re-run each cell with the runtime invariant sentinel "
        "attached; report overhead and violations",
    )
    p.add_argument(
        "--analyze", action="store_true",
        help="re-run each cell with static admission analysis attached; "
        "report analysis time and findings",
    )
    p.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="directory to write each panel's <panel>_<mode>.json into",
    )
    return p


def _kernel_line() -> str:
    stats = get_kernel().stats()
    hits, misses = stats["region.cache_hits"], stats["region.cache_misses"]
    rate = f"{hits / (hits + misses):.1%}" if hits + misses else "-"
    return f"region cache {rate} hits, {stats.get('region.interned', 0)} interned"


def _attached(
    module: Any, config: Any, panel: Panel, mode: str, cell: str
) -> tuple[list[Any], float]:
    """Re-run a cell with a checker enabled process-wide: (checkers, seconds)."""
    module.enable_globally(config)
    try:
        _values, seconds = run_cell(panel, mode, cell)
    finally:
        created = module.drain_created()
        module.reset_global()
    return created, seconds


def _sentinel_rerun(panel: Panel, mode: str, cell: str, plain: float) -> list[str]:
    config = sentinel_mod.SentinelConfig.bench_profile()
    sentinels, seconds = _attached(sentinel_mod, config, panel, mode, cell)
    violations = sum(len(s.violations) for s in sentinels)
    overhead = (seconds / plain - 1.0) * 100.0 if plain else 0.0
    print(
        f"    (sentinel: {seconds:.1f}s wall, {overhead:+.1f}% overhead, "
        f"{sum(s.checks for s in sentinels)} checks, "
        f"{sum(s.scans for s in sentinels)} scans, {violations} violation(s))"
    )
    for sentinel in sentinels:
        for line in sentinel.report_lines()[1:]:
            print(line)
    return [f"{cell}: {violations} sentinel violation(s)"] if violations else []


def _analysis_rerun(panel: Panel, mode: str, cell: str) -> list[str]:
    config = admission.AdmissionConfig(strict=False)
    controllers, seconds = _attached(admission, config, panel, mode, cell)
    reports = [report for c in controllers for report in c.reports]
    analysis = sum(report.elapsed for report in reports)
    counts: Counter[str] = Counter()
    for report in reports:
        counts.update(report.counts())
    share = analysis / seconds * 100.0 if seconds else 0.0
    print(
        f"    (analysis: {analysis * 1000.0:.1f} ms over {len(reports)} "
        f"submission(s) ({share:.1f}% of {seconds:.1f}s wall time), "
        f"{counts['error']} error(s), {counts['warning']} warning(s), "
        f"{counts['info']} info(s))"
    )
    for report in reports:
        if not report.clean:
            for line in report.render_lines(max_findings=10):
                print(f"      {line}")
    return [f"{cell}: {counts['error']} analysis error(s)"] if counts["error"] else []


def bench(panel: Panel, args: argparse.Namespace) -> list[str]:
    """Run one panel end to end; returns every problem found."""
    result = Run(args.mode)
    problems: list[str] = []
    print(f"{panel.name} ({args.mode})")
    for cell in panel.cells(args.mode):
        values, seconds = run_cell(panel, args.mode, cell)
        result.results[cell], result.seconds[cell] = values, seconds
        print(f"  {cell:<14} {seconds:7.1f}s wall, {_kernel_line()}")
        if args.sentinel:
            problems += _sentinel_rerun(panel, args.mode, cell, seconds)
        if args.analyze:
            problems += _analysis_rerun(panel, args.mode, cell)
    print(f"  {'total':<14} {result.wall:7.1f}s wall\n")
    print(panel.render(args.mode, result.results) + "\n")
    if args.out is not None:
        path = args.out / f"{panel.name}_{args.mode}.json"
        body = section(result.results, result.wall)
        path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    problems = settle(
        panel,
        result,
        problems,
        check_baseline=args.check,
        write_baseline=args.write_baseline,
    )
    if args.write_baseline and not problems:
        print(f"wrote {panel.baseline_path}")
    return problems


def main(argv: list[str] | None = None) -> int:
    p = parser()
    args = p.parse_args(argv)
    choices = ["table1", *PANELS, "all"]
    for artifact in args.artifacts:
        if artifact not in choices:
            p.error(
                f"argument artifacts: invalid choice: {artifact!r} "
                f"(choose from {', '.join(map(repr, choices))})"
            )
    wanted = [
        name
        for artifact in args.artifacts or ["all"]
        for name in (ALL if artifact == "all" else (artifact,))
    ]
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    failed = False
    for name in dict.fromkeys(wanted):
        if name == "table1":
            print(render_table1(table1()) + "\n")
            continue
        problems = bench(PANELS[name](), args)
        for problem in problems:
            print(f"{name}: {problem}")
        if args.check and not problems:
            print(f"{name}: matches committed baseline, all gates hold")
        print()
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
