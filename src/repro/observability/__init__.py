"""Unified observability: spans, counters, merged traces, regression gating.

One layer answers four questions about a run:

* **What happened on the host, and when?** -- the span tracer
  (:mod:`repro.observability.tracer`), threaded through packing, the
  GEMM drivers, the parallel engine and the executors.
* **How much work was that?** -- the counters registry
  (:mod:`repro.observability.counters`): bytes packed, POPC word-ops,
  shards, simulated vs host seconds.
* **What does it look like?** -- the merged Chrome-trace export
  (:mod:`repro.observability.trace_export`): host spans interleaved
  with the simulated device lanes, viewable in Perfetto.
* **Did it get slower?** -- baseline record/compare
  (:mod:`repro.observability.regress`), the tool the
  ``bench-regression`` CI job runs.

Tracing is off by default and costs nothing when off: the process
global is a null tracer whose spans and counters are no-op singletons.
Turn it on around a region of interest::

    from repro.observability import enable, disable, MetricsReport

    tracer = enable()
    try:
        result = linkage_disequilibrium(data, device="Titan V", workers=4)
        print(MetricsReport.from_tracer(tracer))
    finally:
        disable()
"""

from repro.observability.counters import (
    COUNTER_CATALOGUE,
    GEMM_CALLS,
    GEMM_WORD_OPS,
    HOST_ENGINE_SECONDS,
    KERNEL_LAUNCHES,
    NULL_COUNTERS,
    PACK_BYTES,
    PACK_OPERANDS,
    SHARDS_EXECUTED,
    SIM_DEVICE_SECONDS,
    CounterRegistry,
    NullCounters,
)
from repro.observability.report import MetricsReport, SpanSummary
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
    disable,
    enable,
    get_tracer,
    set_tracer,
)
from repro.observability.trace_export import (
    HOST_PID,
    host_trace_events,
    merged_trace_events,
    write_merged_trace,
)

__all__ = [
    "COUNTER_CATALOGUE",
    "GEMM_CALLS",
    "GEMM_WORD_OPS",
    "HOST_ENGINE_SECONDS",
    "KERNEL_LAUNCHES",
    "NULL_COUNTERS",
    "PACK_BYTES",
    "PACK_OPERANDS",
    "SHARDS_EXECUTED",
    "SIM_DEVICE_SECONDS",
    "CounterRegistry",
    "NullCounters",
    "MetricsReport",
    "SpanSummary",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanRecord",
    "Tracer",
    "disable",
    "enable",
    "get_tracer",
    "set_tracer",
    "HOST_PID",
    "host_trace_events",
    "merged_trace_events",
    "write_merged_trace",
]
