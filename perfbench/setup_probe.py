"""Time one workload set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from process start to the end of set-up (imports,
workload objects, TPC ``make_problem``), the same span ``run.py`` times
for itself, and the calibration kernel's seconds measured right after;
``run.py`` reports the median over several such processes.
"""

from time import perf_counter

STARTED = perf_counter()

import sys  # noqa: E402

from run import SETUP_KERNEL_REPEATS, bootstrap  # noqa: E402  (this directory is on sys.path)

if __name__ == "__main__":
    if not bootstrap():
        sys.exit(2)
    import perfbench.bench  # noqa: F401  (run.py imports it before set-up)
    from perfbench.workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    setup_s = perf_counter() - STARTED
    from perfbench.calibration import kernel_seconds

    print(setup_s, kernel_seconds(SETUP_KERNEL_REPEATS))
