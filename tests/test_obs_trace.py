"""Tests for repro.obs.trace — spans, sinks, JSONL durability.

Includes the cross-process acceptance: many worker processes appending
spans to one JSONL file concurrently never produce a corrupt line.
"""

import json
import multiprocessing
import threading

import pytest

from repro.obs.export import read_trace
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import (
    JSONLSink,
    _NULL_SPAN,
    add_sink,
    attach_worker_sinks,
    emit_metrics,
    jsonl_paths,
    remove_sink,
    set_sinks,
    span,
    trace_enabled,
    tracing,
)


@pytest.fixture(autouse=True)
def _clean_sinks():
    """Every test starts and ends with tracing off."""
    set_sinks(())
    yield
    set_sinks(())


@pytest.fixture
def traced(tmp_path):
    """Trace the test to a JSONL file; call the fixture for its records."""
    path = tmp_path / "trace.jsonl"
    with tracing(path):
        yield lambda: read_trace(path)


class _ListSink:
    """A non-JSONL sink: keeps every record in a list."""

    def __init__(self):
        self.records = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class TestZeroCostWhenOff:
    def test_disabled_by_default(self):
        assert not trace_enabled()

    def test_span_returns_shared_null_object(self):
        # Not merely "a no-op": the *same* object every time, so the off
        # path allocates nothing.
        a = span("x")
        b = span("y", gamma=0.5)
        assert a is b is _NULL_SPAN
        with a as s:
            s.set(ignored=1)  # must not raise

    def test_emitters_are_noops(self):
        emit_metrics()
        # nothing to assert beyond "did not raise": there is no sink

    def test_enabled_with_a_sink(self, traced):
        assert trace_enabled()
        assert not isinstance(span("x"), type(_NULL_SPAN))


class TestSpans:
    def test_record_shape(self, traced):
        with span("stage.one", gamma=0.5) as s:
            s.set(d=4)
        (record,) = traced()
        assert record["type"] == "span"
        assert record["name"] == "stage.one"
        assert record["status"] == "ok"
        assert record["duration_s"] >= 0.0
        assert record["parent_id"] is None
        assert record["attrs"] == {"gamma": 0.5, "d": 4}
        assert isinstance(record["pid"], int)

    def test_nesting_records_parent_ids(self, traced):
        with span("outer"):
            with span("inner"):
                pass
            with span("sibling"):
                pass
        # Records are emitted at span *exit*, so children precede the parent.
        inner, sibling, outer = traced()
        assert outer["name"] == "outer"
        assert inner["parent_id"] == outer["span_id"]
        assert sibling["parent_id"] == outer["span_id"]
        assert inner["span_id"] != sibling["span_id"] != outer["span_id"]

    def test_error_status_and_stack_unwind(self, traced):
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        (record,) = traced()
        assert record["status"] == "error"
        # The stack unwound: a fresh span is a root again.
        with span("after"):
            pass
        assert traced()[-1]["parent_id"] is None

    def test_threads_have_independent_stacks(self, traced):
        done = threading.Event()

        def other():
            with span("thread.child"):
                pass
            done.set()

        with span("main.parent"):
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert done.is_set()
        by_name = {r["name"]: r for r in traced()}
        # The other thread's span must NOT claim main's open span as parent.
        assert by_name["thread.child"]["parent_id"] is None

    def test_name_attribute_key_does_not_collide(self, traced):
        with span("spec.run", name="my-spec"):
            pass
        (record,) = traced()
        assert record["name"] == "spec.run"
        assert record["attrs"] == {"name": "my-spec"}


class TestJSONLSink:
    def test_whole_lines_sorted_keys(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JSONLSink(path)
        sink.emit({"b": 2, "a": 1})
        sink.emit({"x": "y"})
        sink.close()
        lines = path.read_text().splitlines()
        assert lines[0] == '{"a": 1, "b": 2}'
        assert json.loads(lines[1]) == {"x": "y"}

    def test_append_not_truncate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for round_ in range(2):
            sink = JSONLSink(path)
            sink.emit({"round": round_})
            sink.close()
        assert len(path.read_text().splitlines()) == 2

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.jsonl"
        sink = JSONLSink(path)
        sink.emit({"ok": 1})
        sink.close()
        assert path.is_file()

    def test_close_is_idempotent(self, tmp_path):
        sink = JSONLSink(tmp_path / "t.jsonl")
        sink.emit({})
        sink.close()
        sink.close()


class TestSinkManagement:
    def test_add_remove(self):
        sink = _ListSink()
        add_sink(sink)
        assert trace_enabled()
        remove_sink(sink)
        assert not trace_enabled()
        remove_sink(sink)  # second removal is a no-op

    def test_every_sink_sees_every_record(self):
        a, b = _ListSink(), _ListSink()
        add_sink(a)
        add_sink(b)
        with span("x"):
            pass
        assert len(a.records) == len(b.records) == 1

    def test_jsonl_paths_lists_only_jsonl_sinks(self, tmp_path):
        add_sink(_ListSink())
        assert jsonl_paths() == ()
        sink = JSONLSink(tmp_path / "t.jsonl")
        add_sink(sink)
        assert jsonl_paths() == (str(tmp_path / "t.jsonl"),)

    def test_attach_worker_sinks_replaces_everything(self, tmp_path):
        inherited = _ListSink()
        add_sink(inherited)
        attach_worker_sinks([str(tmp_path / "w.jsonl")])
        assert jsonl_paths() == (str(tmp_path / "w.jsonl"),)
        with span("x"):
            pass
        assert inherited.records == []
        attach_worker_sinks(())
        assert not trace_enabled()


class TestEmitters:
    def test_emit_metrics_snapshots_registry(self, traced):
        reg = MetricsRegistry()
        reg.inc("x", 3.0)
        previous = set_registry(reg)
        try:
            emit_metrics()
        finally:
            set_registry(previous)
        (record,) = traced()
        assert record["type"] == "metrics"
        assert record["metrics"]["counters"][0]["value"] == 3.0


class TestTracingContext:
    def test_scopes_a_jsonl_sink(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with tracing(path):
            assert trace_enabled()
            with span("inside"):
                pass
        assert not trace_enabled()
        records = read_trace(path)
        assert [r["type"] for r in records] == ["span", "metrics"]

    def test_detaches_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with tracing(tmp_path / "run.jsonl"):
                raise RuntimeError("boom")
        assert not trace_enabled()


def _hammer_jsonl(path, worker_id, n_records):
    """Worker: emit n_records spans (with nesting) to the shared file."""
    attach_worker_sinks([path])
    for i in range(n_records):
        with span("mp.outer", worker=worker_id, i=i):
            with span("mp.inner"):
                pass
    set_sinks(())


class TestMultiProcessJSONL:
    def test_concurrent_processes_never_corrupt_lines(self, tmp_path):
        path = str(tmp_path / "shared.jsonl")
        n_workers, n_records = 4, 200
        processes = [
            multiprocessing.Process(
                target=_hammer_jsonl, args=(path, w, n_records)
            )
            for w in range(n_workers)
        ]
        for p in processes:
            p.start()
        for p in processes:
            p.join()
        assert all(p.exitcode == 0 for p in processes)
        # read_trace raises on any interior corrupt line.
        records = read_trace(path)
        assert len(records) == n_workers * n_records * 2
        pids = {r["pid"] for r in records}
        assert len(pids) == n_workers
        inner = [r for r in records if r["name"] == "mp.inner"]
        # Nesting survived in every process: each inner has its pid's parent.
        by_id = {r["span_id"]: r for r in records}
        for record in inner:
            parent = by_id[record["parent_id"]]
            assert parent["name"] == "mp.outer"
            assert parent["pid"] == record["pid"]

    def test_concurrent_threads_never_corrupt_lines(self, tmp_path):
        path = tmp_path / "threads.jsonl"
        sink = JSONLSink(path)
        add_sink(sink)
        n_threads, n_records = 8, 100

        def worker(worker_id):
            for i in range(n_records):
                with span("t.span", worker=worker_id, i=i):
                    pass

        threads = [
            threading.Thread(target=worker, args=(w,))
            for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()
        records = read_trace(path)
        assert len(records) == n_threads * n_records
