"""Span self-time arithmetic, generator spans, and wrapper installation."""

import pytest

from perfbench.tracer import (
    LayerTracer,
    SpanLog,
    _wrap,
    spawn_layer,
    summarize,
)
from repro.regions.kernel import RegionKernel
from repro.sim.engine import SimEngine


def test_self_time_subtracts_direct_children_only():
    log = SpanLog()
    cell = log.record("cell", 0.0, 10.0, -1)
    dm = log.record("dm", 1.0, 5.0, cell)
    log.record("regions", 2.0, 3.0, dm)
    log.record("regions", 3.5, 4.0, dm)
    log.record("net", 6.0, 6.5, cell)
    summary = summarize(log)
    assert summary.self_s["cell"] == pytest.approx(10.0 - 4.0 - 0.5)
    assert summary.self_s["dm"] == pytest.approx(4.0 - 1.0 - 0.5)
    assert summary.self_s["regions"] == pytest.approx(1.5)
    assert summary.self_s["net"] == pytest.approx(0.5)
    # self times partition the root span
    assert sum(summary.self_s.values()) == pytest.approx(10.0)
    assert summary.calls["regions"] == 2


def test_nested_same_name_calls_are_calls_but_not_entries():
    log = SpanLog()
    outer = log.record("index.lookup", 0.0, 4.0, -1)
    log.record("index.lookup", 1.0, 2.0, outer)  # lookup_cached -> lookup
    summary = summarize(log)
    assert summary.calls["index.lookup"] == 2
    assert summary.entries["index.lookup"] == 1
    assert list(summary.entry_seconds["index.lookup"]) == [4.0]


def test_generator_resumptions_sum_into_one_call():
    log = SpanLog()
    engine = log.record("engine", 0.0, 10.0, -1)
    first = log.record("dm", 1.0, 2.0, engine)
    log.record("dm", 5.0, 5.5, engine, call=first)
    log.record("dm", 8.0, 9.0, engine, call=first)
    summary = summarize(log)
    assert summary.calls["dm"] == 1
    assert summary.entries["dm"] == 1
    assert list(summary.entry_seconds["dm"]) == [2.5]
    assert summary.self_s["engine"] == pytest.approx(7.5)


def test_wrapped_generator_times_resumptions_not_creation():
    log = SpanLog()
    seen = []

    def body(n):
        total = 0
        for i in range(n):
            total += yield i
        return total

    traced = _wrap(body, log.ids["dm"], log)
    gen = traced(3)
    assert len(log) == 0  # creating the generator runs nothing
    outer = log.open(log.ids["engine"])
    seen.append(gen.send(None))
    seen.append(gen.send(10))
    seen.append(gen.send(20))
    with pytest.raises(StopIteration) as stop:
        gen.send(30)
    log.close(outer)
    assert seen == [0, 1, 2] and stop.value.value == 60
    names = [log.names[i] for i in log.name]
    assert names == ["engine", "dm", "dm", "dm", "dm"]
    assert list(log.parent) == [-1, 0, 0, 0, 0]
    assert list(log.call) == [0, 1, 1, 1, 1]
    summary = summarize(log)
    assert summary.calls["dm"] == 1 and summary.entries["dm"] == 1


def test_wrapped_generator_forwards_throw_and_close():
    log = SpanLog()

    def body():
        try:
            yield 1
        except KeyError:
            yield "caught"
        yield 3

    gen = _wrap(body, log.ids["dm"], log)()
    assert next(gen) == 1
    assert gen.throw(KeyError("x")) == "caught"
    gen.close()
    assert log._stack == [-1]  # no span left open


def test_wrapped_function_closes_its_span_on_error():
    log = SpanLog()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        _wrap(boom, log.ids["net"], log)()
    assert len(log) == 1 and log._stack == [-1]


def test_install_and_uninstall_restore_the_classes():
    before = (RegionKernel.union, SimEngine.spawn, SimEngine.run)
    tracer = LayerTracer()
    tracer.install()
    try:
        assert RegionKernel.union is not before[0]
        assert RegionKernel.union.__wrapped__ is before[0]
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert (RegionKernel.union, SimEngine.spawn, SimEngine.run) == before


def test_spawned_generators_count_where_their_module_lives():
    assert spawn_layer("repro.runtime.process") == "runtime"
    assert spawn_layer("repro.runtime.data_manager") == "dm"
    assert spawn_layer("repro.runtime.index") == "index.lookup"
    assert spawn_layer("repro.mpi.program") == "mpi"
    assert spawn_layer("repro.apps.stencil") == "apps"
    assert spawn_layer("repro.runtimes") == "other"
    assert spawn_layer("perfbench.tests") == "other"
