"""``repro.obs`` — unified tracing, metrics and profiling.

The observability substrate of the stack: the fit plan
(:mod:`repro.core.plan`), the run ledger (:mod:`repro.store.ledger`), the
parallel executor (:mod:`repro.experiments.parallel`) and the serving
layer (:mod:`repro.serving.service`) all record here, so "where did that
7-second fit go?", "what fraction of this sweep was cached?" and "what is
serving p99?" have answers without rerunning under a profiler.

Three stdlib-only pieces:

* :mod:`~repro.obs.metrics` — a thread-safe :class:`MetricsRegistry`
  (counters, gauges, deterministic log-bucket histograms) plus a
  process-global default registry;
* :mod:`~repro.obs.trace` — nested :func:`span` tracing with monotonic
  timing and pluggable sinks (crash-safe JSONL appends), **zero-cost when
  no sink is attached**;
* :mod:`~repro.obs.export` — snapshot/summarize/render for the
  ``repro obs summary`` / ``repro obs tail`` CLI and the ``--metrics``
  flag.

Telemetry is observational only: nothing recorded here may feed task
digests or numerical results — tracing on and tracing off produce
bitwise-identical experiment outputs (the integration suite holds that).

Quickstart::

    from repro.obs import tracing, span, get_registry

    with tracing("run.jsonl"):
        with span("my.stage", gamma=0.5):
            ...
    # then: python -m repro obs summary run.jsonl
"""

from .metrics import Histogram, MetricsRegistry, get_registry, set_registry
from .trace import (
    JSONLSink,
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
from .export import (
    format_metrics,
    format_prometheus,
    format_trace_summary,
    read_trace,
    summarize_trace,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
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
    "format_metrics",
    "format_prometheus",
    "format_trace_summary",
    "read_trace",
    "summarize_trace",
]
