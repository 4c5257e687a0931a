"""Nested span tracing with pluggable sinks.

A *span* is one timed region of work::

    from repro.obs import span

    with span("plan.solve", gamma=0.5) as s:
        ...            # monotonic-clock timed
        s.set(d=8)     # attach attributes mid-flight

Spans nest: each thread keeps its own stack, so a span opened inside
another records the outer span's id as ``parent_id`` and a trace viewer
can rebuild the call tree. Records go to every attached *sink* (any
object with ``emit(record)`` and ``close()``); the library's own is
:class:`JSONLSink` — one JSON object per line, appended with a single
``os.write`` to an ``O_APPEND`` descriptor. POSIX append semantics make
each line land whole, so concurrent worker *processes* writing the same
file never interleave corrupt lines, and a crash loses at most the record
in flight — the append-side analogue of :func:`repro.io.atomic_write`.

**Zero cost when off.** :func:`span` checks the sink list first and
returns one shared no-op context manager when tracing is disabled — the
hot paths of the fit plan, the ledger and the serving layer pay a global
load, a truth test and a constant return. Tracing must never influence
results: span records carry wall-clock and pid fields that would poison
content digests, so telemetry is forbidden (by construction — nothing in
:mod:`repro.store.digests` can see it) from feeding task digests.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "JSONLSink",
    "add_sink",
    "attach_worker_sinks",
    "emit_metrics",
    "jsonl_paths",
    "remove_sink",
    "set_sinks",
    "span",
    "trace_enabled",
    "tracing",
]

#: Trace record schema version, stamped on every record.
_TRACE_FORMAT = 1


class JSONLSink:
    """Append records to a JSONL file, one whole line per ``os.write``.

    The descriptor is opened lazily with ``O_APPEND`` and each record is
    serialized to a single line written in one call — the kernel applies
    appends atomically, so records from concurrent processes and threads
    never shear into each other. ``sort_keys`` keeps lines byte-stable
    for identical records.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fd: int | None = None
        self._lock = threading.Lock()

    def _descriptor(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666
            )
        return self._fd

    def emit(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._lock:
            os.write(self._descriptor(), line.encode("utf-8"))

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None


# -- sink management --------------------------------------------------------
#
# The sink list is the tracing on/off switch: an empty tuple means off, and
# span() bails before building any record. Stored as an immutable tuple so
# readers never see a half-updated list; mutations swap the whole tuple
# under a lock.

_SINKS: tuple = ()
_SINKS_LOCK = threading.Lock()


def trace_enabled() -> bool:
    """Whether any sink is attached (the hot-path guard)."""
    return bool(_SINKS)


def add_sink(sink) -> None:
    """Attach a sink; tracing turns on with the first one."""
    global _SINKS
    with _SINKS_LOCK:
        _SINKS = _SINKS + (sink,)


def remove_sink(sink) -> None:
    """Detach one sink (no error if it was never attached)."""
    global _SINKS
    with _SINKS_LOCK:
        _SINKS = tuple(s for s in _SINKS if s is not sink)


def set_sinks(new_sinks) -> None:
    """Replace the whole sink set (worker initialization uses this)."""
    global _SINKS
    with _SINKS_LOCK:
        _SINKS = tuple(new_sinks)


def jsonl_paths() -> tuple:
    """Paths of the attached JSONL sinks — the worker-propagable config."""
    return tuple(str(s.path) for s in _SINKS if isinstance(s, JSONLSink))


def attach_worker_sinks(paths) -> None:
    """Point this (worker) process's tracing at the parent's JSONL files.

    Replaces any inherited sinks with fresh ``O_APPEND`` descriptors —
    in-memory sinks cannot cross processes, and a forked descriptor is
    better reopened than shared. No-op config (empty ``paths``) turns
    tracing off in the worker.
    """
    set_sinks(JSONLSink(path) for path in paths)


def _emit(record: dict) -> None:
    for sink in _SINKS:
        sink.emit(record)


# -- spans ------------------------------------------------------------------

_IDS = itertools.count(1)
_STACK = threading.local()


def _parent_id() -> str | None:
    stack = getattr(_STACK, "spans", None)
    return stack[-1] if stack else None


class _NullSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """One in-flight traced region; created by :func:`span`."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_start", "_ts")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.span_id = f"{os.getpid():x}-{next(_IDS):x}"
        self.parent_id = None
        self._start = 0.0
        self._ts = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)

    def __enter__(self):
        self.parent_id = _parent_id()
        stack = getattr(_STACK, "spans", None)
        if stack is None:
            stack = _STACK.spans = []
        stack.append(self.span_id)
        self._ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        duration = time.perf_counter() - self._start
        stack = getattr(_STACK, "spans", None)
        if stack and stack[-1] == self.span_id:
            stack.pop()
        record = {
            "format": _TRACE_FORMAT,
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "ts": self._ts,
            "duration_s": duration,
            "pid": os.getpid(),
            "status": "error" if exc_type is not None else "ok",
        }
        if self.attrs:
            record["attrs"] = self.attrs
        _emit(record)
        return False


def span(name: str, /, **attrs):
    """Open a traced region; returns a context manager.

    With no sink attached this is a near-free no-op (shared null context
    manager); with sinks, the region is timed on the monotonic clock and
    one ``span`` record is emitted at exit, ``status="error"`` if the
    body raised.
    """
    if not _SINKS:
        return _NULL_SPAN
    return Span(str(name), attrs)


# -- non-span records -------------------------------------------------------

def emit_metrics() -> None:
    """Emit a ``metrics`` record snapshotting the process registry.

    Workers emit one after each task and the traced-CLI wrapper emits one
    at exit; consumers (``repro obs summary``) keep the *last* record per
    pid and sum across pids, so repeated snapshots overwrite rather than
    double-count.
    """
    if not _SINKS:
        return
    from .metrics import get_registry

    _emit(
        {
            "format": _TRACE_FORMAT,
            "type": "metrics",
            "ts": time.time(),
            "pid": os.getpid(),
            "metrics": get_registry().snapshot(),
        }
    )


@contextmanager
def tracing(path):
    """Trace a block to a JSONL file (what the CLI ``--trace`` flag uses).

    Attaches a :class:`JSONLSink` on entry; on exit emits one final
    ``metrics`` record (so the trace is self-contained: spans *and* the
    counters/histograms they fed) and detaches the sink.
    """
    sink = JSONLSink(path)
    add_sink(sink)
    try:
        yield sink
    finally:
        try:
            emit_metrics()
        finally:
            remove_sink(sink)
            sink.close()
