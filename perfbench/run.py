"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-scaling --seed 1 --seconds 20 --trace 0

Run from the repository root (the simulator is imported from ``src/``).
With ``--trace 0`` the run measures the end-to-end metrics over untraced
passes; with ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics.  Every metric is printed by name with its
unit; the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up is timed from process start

import argparse  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETUP_PROBES = 2  # fresh processes timing set-up, besides this one
SETUP_KERNEL_REPEATS = 3  # calibration-kernel runs after each set-up


def bootstrap() -> bool:
    """Make ``repro`` and ``perfbench`` importable; False if absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return True


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds and calibration-kernel seconds of a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    raw, kernel = done.stdout.split()[-2:]
    return float(raw), float(kernel)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not bootstrap():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    from perfbench.bench import Measurement, fingerprint, result_line
    from perfbench.calibration import NOMINAL_S, kernel_seconds
    from perfbench.catalog import END_TO_END, PER_LAYER
    from perfbench.tracer import LayerTracer, summarize
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    traced = args.trace == 1
    tracer = LayerTracer() if traced else None
    if tracer is None:
        cells = workload.setup(args.seed)
    else:
        tracer.install()
        try:
            with tracer.span("apps.make_problem"):
                cells = workload.setup(args.seed)
        finally:
            tracer.uninstall()
        setup_spans = summarize(tracer.log)
    setup_raw = [perf_counter() - STARTED]

    seed_note = (
        "feeds TPCWorkload.seed" if workload.seeded
        else f"not used: {workload.name} is seed-free"
    )
    print(f"perfbench {workload.name}: seed {args.seed} ({seed_note}); "
          f"{len(cells)} cells per pass; trace {args.trace}")
    print(f"  why: {workload.why}")

    if not traced:
        setup_kernel = [kernel_seconds(SETUP_KERNEL_REPEATS)]
        for _ in range(SETUP_PROBES):
            raw, kernel = probe_setup(workload.name, args.seed)
            setup_raw.append(raw)
            setup_kernel.append(kernel)
    measurement = Measurement(cells)
    deadline = perf_counter() + args.seconds
    while not measurement.untraced_pass_s or perf_counter() < deadline:
        measurement.run_pass()
        if traced:
            measurement.run_pass(tracer)

    for problem in measurement.problems[:20]:
        print(f"  FAILED {problem}")
    print(f"  passes {len(measurement.untraced_pass_s)} untraced, "
          f"{len(measurement.traced_passes)} traced; attempted "
          f"{measurement.attempted}, failed {measurement.failed}")
    print("  untraced pass seconds: "
          + " ".join(f"{t:.3f}" for t in measurement.untraced_pass_s))
    print(f"  fingerprint {fingerprint(measurement)} "
          "(simulated values of every cell; equal seeds give equal prints)")
    if traced:
        metrics = measurement.per_layer(setup_spans)
        catalogue = PER_LAYER
    else:
        setup_s = statistics.median(
            raw * NOMINAL_S / kernel for raw, kernel in zip(setup_raw, setup_kernel)
        )
        metrics = measurement.end_to_end(setup_s)
        catalogue = END_TO_END
        fail_ratio = measurement.failed / measurement.attempted
        print(f"  {'fail_ratio':<26} {fail_ratio!r} ratio")
        print(f"  {'wall_s as measured':<26} {measurement.wall_s(raw=True)!r} s")
        print(f"  {'setup_s as measured':<26} {statistics.median(setup_raw)!r} s")
        print(f"  {'calibration kernel':<26} "
              f"{statistics.median(setup_kernel)!r} s (nominal {NOMINAL_S} s)")
    for metric in catalogue:
        print(f"  {metric.name:<26} {metrics[metric.name]!r} {metric.unit}")
    print(result_line(measurement, metrics, traced), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
