"""Service bench panel, committed trace/baseline artifacts, and the CLI."""

from __future__ import annotations

import json
import pathlib

from repro.bench import panel as store
from repro.bench.service import SHARE_TOLERANCE, SMOKE_TRACE_PATH, ServicePanel
from repro.service.__main__ import main as service_main
from repro.service.trace import (
    DEMO_HORIZON_DISPATCHES,
    Trace,
    demo_trace,
    replay,
    smoke_trace,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


# -- committed artifacts -----------------------------------------------------------


def test_committed_trace_matches_builder():
    """The committed trace file is exactly what smoke_trace() produces."""
    assert SMOKE_TRACE_PATH.exists(), "traces/multi_tenant_smoke.json missing"
    committed = Trace.load(str(SMOKE_TRACE_PATH))
    assert committed.to_dict() == smoke_trace().to_dict()


PANEL = ServicePanel()


def _run() -> store.Run:
    """A fresh replay of both cells, as the bench runner does it."""
    run = store.Run("full")
    for cell in PANEL.cells("full"):
        run.results[cell], run.seconds[cell] = store.run_cell(PANEL, "full", cell)
    return run


def test_committed_baseline_matches_fresh_run():
    """A fresh panel reproduces the committed baseline bit for bit."""
    run = _run()
    problems = store.settle(
        PANEL, run, [], check_baseline=True, write_baseline=False
    )
    assert problems == [], "\n".join(problems)


def test_baseline_schema_shape():
    baseline = store.load(PANEL.baseline_path)
    assert baseline is not None and baseline["schema"] == store.SCHEMA_VERSION
    pins = baseline["modes"]["full"]["cells"]
    assert pins["smoke"]["false_accepts"] == 0
    assert pins["smoke"]["rejected_by_reason"] == {
        "analysis": 3,
        "quota": 3,
    }
    assert set(pins["contended"]["contended"]["tenants"]) == {
        "alpha",
        "beta",
        "gamma",
    }


# -- check logic -------------------------------------------------------------------


def test_check_detects_drifted_pin(tmp_path):
    run = _run()
    path = tmp_path / "baseline.json"
    store.write(path, "full", run.results, run.wall)
    baseline = json.loads(path.read_text())
    baseline["modes"]["full"]["cells"]["smoke"]["fairness_index"] = 0.5
    problems = store.check(baseline, "full", run.results, run.wall)
    assert any("fairness_index" in problem for problem in problems)


def test_check_detects_wall_regression(tmp_path):
    run = _run()
    path = tmp_path / "baseline.json"
    store.write(path, "full", run.results, run.wall)
    baseline = json.loads(path.read_text())
    baseline["modes"]["full"]["wall_seconds"] = 1e-6
    problems = store.check(baseline, "full", run.results, 10.0)
    assert any("wall clock" in problem for problem in problems)


def test_check_rejects_schema_mismatch():
    run = _run()
    problems = store.check({"schema": 999}, "full", run.results, run.wall)
    assert any("schema" in problem for problem in problems)


def test_semantic_problems_flag_false_accepts():
    run = _run()
    assert PANEL.gates("full", run.results) == []
    run.results["smoke"]["false_accepts"] = 2
    assert any("racy" in p for p in PANEL.gates("full", run.results))
    run.results["smoke"]["false_accepts"] = 0
    share = run.results["contended"]["contended"]["tenants"]["gamma"]
    share["observed_share"] = share["configured_share"] * 1.2
    assert any("tenant gamma" in p for p in PANEL.gates("full", run.results))


# -- the acceptance demo -----------------------------------------------------------


def test_demo_meets_acceptance_criteria():
    """>= 3 tenants, >= 20 concurrent jobs, every job terminal with a
    structured verdict, shares within 10% of weights when contended."""
    trace = demo_trace()
    tenants = {event.spec.tenant for event in trace.events}
    assert len(tenants) >= 3
    at_zero = sum(1 for event in trace.events if event.at == 0.0)
    assert at_zero >= 20
    report = replay(trace, horizon_dispatches=DEMO_HORIZON_DISPATCHES)
    assert report["false_accepts"] == 0
    terminal = sum(
        row["completed"] + row["rejected"]
        for row in report["tenants"].values()
    )
    assert terminal == report["jobs"]
    for share in report["contended"]["tenants"].values():
        observed, configured = (
            share["observed_share"],
            share["configured_share"],
        )
        assert abs(observed - configured) / configured <= SHARE_TOLERANCE


# -- the CLI -----------------------------------------------------------------------


def test_cli_write_trace_and_replay(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert service_main(["write-trace", str(path)]) == 0
    capsys.readouterr()
    assert service_main(["replay", str(path), "--horizon", "10"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{"):])
    assert report["false_accepts"] == 0
    assert report["contended"]["dispatches"] >= 10


def test_cli_smoke_over_socket(capsys):
    code = service_main(["smoke", "--trace", str(SMOKE_TRACE_PATH)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "smoke ok" in out


def test_cli_demo(capsys):
    assert service_main(["demo"]) == 0
    assert "demo ok" in capsys.readouterr().out


def test_bench_cli_service_check():
    from repro.bench.__main__ import main as bench_main

    assert bench_main(["service", "--check"]) == 0


def test_committed_baseline_fresh(tmp_path):
    """A re-pin writes the committed file back (regen safety)."""
    run = _run()
    path = tmp_path / "baseline.json"
    store.write(path, "full", run.results, run.wall)
    fresh = json.loads(path.read_text())
    committed = json.loads(PANEL.baseline_path.read_text())
    fresh["modes"]["full"]["wall_seconds"] = committed["modes"]["full"][
        "wall_seconds"
    ]
    assert fresh == committed
