"""Observability: tracing spans, metrics and structured logging.

Dependency-free instrumentation substrate for the evaluation pipeline:

* :class:`Tracer` / :data:`NULL_TRACER` — nested, timed spans with a
  context-manager API and JSON export (:mod:`repro.obs.tracer`);
* :class:`MetricsRegistry` — counters, gauges and timing histograms with
  plain-dict snapshots (:mod:`repro.obs.metrics`);
* :func:`setup_logging` — ``key=value`` structured logging behind the
  ``repro`` logger hierarchy (:mod:`repro.obs.logging_setup`).

The engine, backends, algorithms, simulation runner and CLI all accept a
tracer/registry pair; with the defaults (disabled tracer, private registry)
the instrumented hot paths cost a single attribute check.  See
``docs/observability.md`` for the span and metric naming scheme.
"""

from repro.obs.logging_setup import LOG_FORMAT, setup_logging
from repro.obs.metrics import MetricsRegistry, TimingStats
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_SCHEMA,
    NullTracer,
    Span,
    Tracer,
    write_trace,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "write_trace",
    "TRACE_SCHEMA",
    "MetricsRegistry",
    "TimingStats",
    "setup_logging",
    "LOG_FORMAT",
]
