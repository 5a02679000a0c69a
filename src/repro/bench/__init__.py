"""Benchmark harness regenerating the paper's evaluation artifacts.

Table 1 comes from :func:`repro.bench.tables.table1`; everything else is
a :class:`~repro.bench.panel.Panel` — ``scaling`` (Fig. 7), ``ablations``,
``comms``, ``churn``, ``placement`` and ``service`` — run by
``python -m repro.bench`` (see DESIGN.md's experiment index).  Absolute
numbers come from a simulator calibrated at single-node scale, so
EXPERIMENTS.md compares *shapes* against the paper, not raw values.
"""
