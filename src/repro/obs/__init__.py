"""repro.obs — observability for the SMPSs reproduction.

The paper ships a *tracing-enabled runtime* whose Paraver traces are
how its authors diagnosed scheduler locality and the small-block
runtime-overhead wall (section VII.A).  This package is that story for
the Python reproduction, richer and cheaper:

* :class:`MetricsRegistry` — counters/gauges/histograms the runtimes
  populate (per-task-type durations, analysis and barrier overhead,
  steal/rename counts, ready-queue depths, renaming footprint);
* :class:`~repro.core.tracing.ThreadLocalTracer` — per-thread
  ring-buffer trace collection (re-exported here) replacing the
  shared-list hot path under the threaded backend;
* exporters — Chrome trace-event JSON (Perfetto-loadable) and
  Graphviz DOT with the critical path highlighted;
* the critical-path / utilisation analyzer behind
  ``Runtime.report()`` and ``python -m repro obs report trace.json``;
* the differential analyzer (:mod:`repro.obs.diff`) behind
  ``python -m repro obs diff A.trace.json B.trace.json`` — run-to-run
  makespan-delta attribution with bootstrap CIs, critical-path
  composition diffs, and side-by-side Chrome-trace/DOT exports;
* the always-on health layer (:mod:`repro.obs.health`,
  ``health=True``) — a stall/starvation/deadlock watchdog with a
  blocked-task explainer, a bounded flight recorder dumped on anomaly
  or ``SIGUSR1`` (:mod:`repro.obs.flightrec`), and a Prometheus text
  exposition endpoint (:mod:`repro.obs.exposition`,
  ``python -m repro obs serve`` / ``scrape``).

See ``docs/observability.md`` for the metrics catalogue and usage,
and ``docs/benchmarking.md`` for the baseline/compare workflow built
on the diff engine.
"""

from ..core.tracing import ThreadLocalTracer
from .analyze import (
    ThreadUsage,
    TraceReport,
    analyze_events,
    analyze_tracer,
    load_chrome_trace,
    render_report,
    runtime_report,
)
from .diff import (
    GraphDiff,
    TraceDiff,
    critical_chain,
    diff_metrics,
    diff_task_graphs,
    diff_traces,
    render_graph_diff,
    render_metrics_diff,
    render_trace_diff,
    write_diff_chrome_trace,
    write_diff_dot,
)
from .export import graph_to_dot, to_chrome_trace, write_chrome_trace, write_dot
from .exposition import (
    ExpositionServer,
    render_registry,
    render_snapshot,
    scrape,
)
from .flightrec import FlightRecorder
from .health import (
    Finding,
    HealthMonitor,
    StallError,
    explain_blocked,
    wait_chain,
    wait_graph_dot,
)
from .metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    default_metrics,
    reset_default_metrics,
)

__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "default_metrics",
    "reset_default_metrics",
    "ThreadLocalTracer",
    "ThreadUsage",
    "TraceReport",
    "analyze_events",
    "analyze_tracer",
    "load_chrome_trace",
    "render_report",
    "runtime_report",
    "graph_to_dot",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_dot",
    "GraphDiff",
    "TraceDiff",
    "critical_chain",
    "diff_traces",
    "diff_metrics",
    "diff_task_graphs",
    "render_trace_diff",
    "render_graph_diff",
    "render_metrics_diff",
    "write_diff_chrome_trace",
    "write_diff_dot",
    "ExpositionServer",
    "render_registry",
    "render_snapshot",
    "scrape",
    "FlightRecorder",
    "Finding",
    "HealthMonitor",
    "StallError",
    "explain_blocked",
    "wait_chain",
    "wait_graph_dot",
]
