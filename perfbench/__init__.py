"""The repository's benchmark: Fig. 7 workloads on both clocks.

See ``perfbench/README.md`` for the metric catalogue and how to run it.
"""
