"""Output checks feed the failure count: one wrong TPC count is a failure."""

from dataclasses import replace

import pytest

import perfbench.workloads as workloads
from perfbench.bench import Measurement
from perfbench.workloads import check_counts


def test_check_counts_accepts_reordered_float_sums():
    assert check_counts([0.1 + 0.2, 3.0], [0.3, 3.0], "t") == []


def test_check_counts_names_the_first_wrong_query():
    problems = check_counts([1.0, 2.0, 5.0], [1.0, 2.0, 4.0], "tpc/allscale/2")
    assert len(problems) == 1
    assert "query 2" in problems[0] and "1 wrong" in problems[0]
    assert check_counts([1.0], [1.0, 2.0], "t")


@pytest.fixture
def small_tpc(monkeypatch):
    """The tpc-queries cells on a small tree and two node counts."""
    small = replace(
        workloads.tpc_workload(7),
        total_points=2**14,
        depth=8,
        queries_total=6,
        task_subtree_height=4,
    )
    monkeypatch.setattr(
        workloads, "tpc_workload", lambda seed: replace(small, seed=seed)
    )
    monkeypatch.setattr(workloads, "NODE_COUNTS", (1, 2))
    return workloads.tpc_queries_cells(7)


def test_seed_reaches_the_tpc_workload(small_tpc):
    other = workloads.tpc_queries_cells(8)
    assert len(small_tpc) == len(other) == 4
    first = Measurement(small_tpc)
    first.run_pass()
    second = Measurement(other)
    second.run_pass()
    assert first.failed == second.failed == 0
    assert first.first != second.first


def test_one_wrong_count_raises_fail_ratio(small_tpc):
    clean = Measurement(small_tpc)
    clean.run_pass()
    assert clean.failed == 0
    assert clean.end_to_end(setup_s=1.0)["ok_ratio"] == 1.0

    victim = small_tpc[2]  # tpc/allscale/2
    assert victim.system == "allscale"

    def one_wrong_count(hook):
        result, cluster = victim.run(hook)
        result.extras["counts"][0] += 1.0
        return result, cluster

    cells = list(small_tpc)
    cells[2] = replace(victim, run=one_wrong_count)
    broken = Measurement(cells)
    broken.run_pass()
    assert broken.attempted == 4 and broken.failed == 1
    assert broken.end_to_end(setup_s=1.0)["ok_ratio"] == pytest.approx(0.75)
    assert "wrong count" in broken.problems[0]


def test_a_raising_cell_is_counted_not_fatal(small_tpc):
    def explode(hook):
        raise RuntimeError("driver did not complete")

    cells = [replace(small_tpc[0], run=explode), *small_tpc[1:]]
    measurement = Measurement(cells)
    measurement.run_pass()
    assert measurement.attempted == 4 and measurement.failed == 1
    assert "raised RuntimeError" in measurement.problems[0]
