"""Critical-path and utilisation analysis of traces and graphs.

The questions the paper answers by staring at Paraver timelines
(Figures 6-7: scheduler locality; Figure 8: the small-block runtime-
overhead wall) are computed here directly:

* makespan breakdown — per-thread busy/idle time, utilisation;
* locality hit-rate — the fraction of tasks executed by the thread
  that released their last input dependency, i.e. how often the
  section III "own ready list" policy actually captured reuse;
* T₁/T∞ — work and span of the recorded DAG, with the greedy-scheduler
  bounds that sandwich any achievable makespan;
* per-task-type duration summaries.

Works over a live :class:`~repro.core.tracing.Tracer` (threaded or
virtual time) or over an exported Chrome trace JSON (the
``python -m repro obs report trace.json`` path), so post-mortem
analysis does not need the producing process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from ..core.analysis import greedy_bounds, work_and_span
from ..core.tracing import EventKind, TraceEvent

__all__ = [
    "ThreadUsage",
    "TraceReport",
    "analyze_tracer",
    "analyze_events",
    "load_chrome_trace",
    "render_report",
    "runtime_report",
]


@dataclass
class ThreadUsage:
    """One thread's share of the makespan."""

    thread: int
    busy: float = 0.0
    tasks: int = 0
    steals: int = 0

    def idle(self, makespan: float) -> float:
        return max(makespan - self.busy, 0.0)


@dataclass
class TraceReport:
    """Everything the analyzer derives from one trace."""

    makespan: float = 0.0
    total_tasks: int = 0
    total_busy: float = 0.0
    threads: dict[int, ThreadUsage] = field(default_factory=dict)
    #: Tasks released by a worker completion (locality candidates) and
    #: the subset executed by that same releasing thread.
    locality_candidates: int = 0
    locality_hits: int = 0
    steals: int = 0
    renames: int = 0
    barrier_time: float = 0.0
    dropped_events: int = 0
    #: name -> {count, total, mean, min, max} (seconds)
    task_types: dict[str, dict] = field(default_factory=dict)
    #: Work/span of the recorded DAG, when a kept graph was supplied.
    work: Optional[float] = None
    span: Optional[float] = None
    bound_lower: Optional[float] = None
    bound_upper: Optional[float] = None

    @property
    def utilisation(self) -> float:
        n = len(self.threads)
        if not n or self.makespan <= 0:
            return 0.0
        return self.total_busy / (n * self.makespan)

    @property
    def locality_rate(self) -> float:
        if not self.locality_candidates:
            return 0.0
        return self.locality_hits / self.locality_candidates

    def busy_time_by_thread(self) -> dict[int, float]:
        return {tid: usage.busy for tid, usage in self.threads.items()}


def analyze_events(
    events: list[TraceEvent],
    num_threads: Optional[int] = None,
    dropped_events: int = 0,
) -> TraceReport:
    """Build a :class:`TraceReport` from a normalised event list."""

    report = TraceReport(dropped_events=dropped_events)
    starts: dict[int, TraceEvent] = {}
    released_by: dict[int, int] = {}  # task_id -> unlocking thread
    barrier_enter: Optional[float] = None
    t_min, t_max = None, None
    type_times: dict[str, list[float]] = {}
    for event in events:
        kind = event.kind
        if kind == EventKind.TASK_READY:
            if event.thread >= 0:
                released_by[event.task_id] = event.thread
        elif kind == EventKind.TASK_START:
            starts[event.task_id] = event
        elif kind == EventKind.TASK_END:
            begin = starts.pop(event.task_id, None)
            if begin is None:
                continue
            duration = event.time - begin.time
            usage = report.threads.setdefault(
                event.thread, ThreadUsage(event.thread)
            )
            usage.busy += duration
            usage.tasks += 1
            report.total_tasks += 1
            report.total_busy += duration
            type_times.setdefault(event.task_name, []).append(duration)
            t_min = begin.time if t_min is None else min(t_min, begin.time)
            t_max = event.time if t_max is None else max(t_max, event.time)
            releaser = released_by.get(event.task_id)
            if releaser is not None:
                report.locality_candidates += 1
                if releaser == event.thread:
                    report.locality_hits += 1
        elif kind == EventKind.STEAL:
            report.steals += 1
            usage = report.threads.setdefault(
                event.thread, ThreadUsage(event.thread)
            )
            usage.steals += 1
        elif kind == EventKind.RENAME:
            report.renames += 1
        elif kind == EventKind.BARRIER_ENTER:
            barrier_enter = event.time
        elif kind == EventKind.BARRIER_EXIT:
            if barrier_enter is not None:
                report.barrier_time += event.time - barrier_enter
                barrier_enter = None
    if t_min is not None and t_max is not None:
        report.makespan = t_max - t_min
    if num_threads is not None:
        for tid in range(num_threads):
            report.threads.setdefault(tid, ThreadUsage(tid))
    report.threads = dict(sorted(report.threads.items()))
    report.task_types = {
        name: {
            "count": len(times),
            "total": sum(times),
            "mean": sum(times) / len(times),
            "min": min(times),
            "max": max(times),
        }
        for name, times in sorted(type_times.items())
    }
    return report


def analyze_tracer(
    tracer,
    graph=None,
    num_threads: Optional[int] = None,
    cores: Optional[int] = None,
) -> TraceReport:
    """Analyze a live tracer; *graph* (kept) adds work/span bounds."""

    report = analyze_events(
        tracer.events,
        num_threads=num_threads,
        dropped_events=getattr(tracer, "dropped_events", 0),
    )
    if graph is not None and len(graph):
        weights = {
            name: summary["mean"] for name, summary in report.task_types.items()
        }
        if weights:
            weight = lambda task: weights.get(task.name, 0.0)  # noqa: E731
        else:
            weight = lambda _task: 1.0  # noqa: E731
        report.work, report.span, _ = work_and_span(graph, weight)
        p = cores or num_threads or len(report.threads) or 1
        report.bound_lower, report.bound_upper = greedy_bounds(
            report.work, report.span, p
        )
    return report


# ---------------------------------------------------------------------------
# Chrome trace loading (the ``python -m repro obs report`` path)
# ---------------------------------------------------------------------------

_INSTANT_NAME_TO_KIND = {
    "task_added": EventKind.TASK_ADDED,
    "task_ready": EventKind.TASK_READY,
    "edge_added": EventKind.EDGE_ADDED,
    "steal": EventKind.STEAL,
    "rename": EventKind.RENAME,
    "barrier_enter": EventKind.BARRIER_ENTER,
    "barrier_exit": EventKind.BARRIER_EXIT,
    "write_back": EventKind.WRITE_BACK,
}


def load_chrome_trace(source) -> list[TraceEvent]:
    """Rebuild normalised events from a Chrome trace JSON.

    *source* is a path, a file object, or an already-parsed dict.
    Inverse of :func:`repro.obs.export.to_chrome_trace` — timestamps
    come back in seconds.
    """

    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    records = doc.get("traceEvents", doc if isinstance(doc, list) else [])
    events: list[TraceEvent] = []
    for rec in records:
        ph = rec.get("ph")
        if ph not in ("B", "E", "i", "I"):
            continue  # metadata and counters
        args = rec.get("args", {})
        time_s = float(rec.get("ts", 0.0)) / 1e6
        task_id = int(args.get("task_id", -1))
        tid = int(rec.get("tid", 0))
        if ph == "B":
            kind, thread, name = EventKind.TASK_START, tid, rec.get("name", "")
        elif ph == "E":
            kind, thread, name = EventKind.TASK_END, tid, rec.get("name", "")
        else:
            kind = _INSTANT_NAME_TO_KIND.get(rec.get("name"))
            if kind is None:
                continue
            # Instants carry the semantic thread (e.g. the releasing
            # thread of a ready event, -1 for "at submission") in args.
            thread = int(args.get("thread", tid))
            name = ""
        events.append(
            TraceEvent(
                time=time_s, kind=kind, task_id=task_id,
                task_name=name, thread=thread,
            )
        )
    events.sort(key=lambda e: e.time)
    return events


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def render_report(report: TraceReport, title: str = "trace report") -> str:
    """Human-readable text summary of a :class:`TraceReport`."""

    lines = [f"== {title} =="]
    lines.append(
        f"makespan {_fmt_s(report.makespan)}  tasks {report.total_tasks}  "
        f"utilisation {report.utilisation * 100:.1f}%"
    )
    lines.append(
        f"steals {report.steals}  renames {report.renames}  "
        f"barrier time {_fmt_s(report.barrier_time)}"
    )
    if report.locality_candidates:
        lines.append(
            f"locality hit-rate {report.locality_rate * 100:.1f}% "
            f"({report.locality_hits}/{report.locality_candidates} tasks ran "
            "on the thread that released their last input)"
        )
    if report.dropped_events:
        lines.append(
            f"WARNING: {report.dropped_events} events dropped "
            "(ring buffers overflowed; raise trace_buffer_size)"
        )
    if report.work is not None and report.span is not None:
        par = report.work / report.span if report.span else 0.0
        lines.append(
            f"T1 (work) {_fmt_s(report.work)}  "
            f"Tinf (span) {_fmt_s(report.span)}  "
            f"inherent parallelism {par:.1f}"
        )
        if report.bound_lower is not None:
            lines.append(
                f"greedy bounds: {_fmt_s(report.bound_lower)} <= makespan "
                f"<= {_fmt_s(report.bound_upper)}"
            )
    if report.threads:
        lines.append("per-thread:")
        for tid, usage in report.threads.items():
            idle = usage.idle(report.makespan)
            pct = (
                usage.busy / report.makespan * 100 if report.makespan > 0 else 0.0
            )
            lines.append(
                f"  thr {tid:2d}: busy {_fmt_s(usage.busy)} ({pct:5.1f}%)  "
                f"idle {_fmt_s(idle)}  tasks {usage.tasks:5d}  "
                f"steals {usage.steals}"
            )
    if report.task_types:
        lines.append("per task type:")
        for name, summary in report.task_types.items():
            lines.append(
                f"  {name:16s} count {summary['count']:6d}  "
                f"total {_fmt_s(summary['total'])}  "
                f"mean {_fmt_s(summary['mean'])}  "
                f"max {_fmt_s(summary['max'])}"
            )
    return "\n".join(lines)


def runtime_report(runtime, title: str = "runtime report") -> str:
    """Text summary for a runtime instance (threaded or simulated).

    Uses whatever the runtime has: a truthy tracer yields the full
    per-thread/locality analysis; a kept graph adds T₁/T∞ bounds; the
    metrics registry contributes analysis/barrier overhead lines.
    """

    tracer = getattr(runtime, "tracer", None)
    graph = getattr(runtime, "graph", None)
    keep = graph is not None and getattr(graph, "keep_finished", False)
    cores = getattr(runtime, "num_threads", None)
    if cores is None:
        machine = getattr(runtime, "machine", None)
        cores = machine.cores if machine is not None else None
    if tracer:
        report = analyze_tracer(
            tracer,
            graph=graph if keep else None,
            num_threads=cores,
            cores=cores,
        )
        text = render_report(report, title=title)
    else:
        text = f"== {title} ==\n(no trace recorded; run with trace=True)"
    metrics = getattr(runtime, "metrics", None)
    if metrics is not None and len(metrics):
        lines = ["metrics:"]
        snap = metrics.snapshot()
        for name in ("analysis_seconds", "barrier_wait_seconds"):
            value = snap.get(name)
            if isinstance(value, dict) and "count" in value:
                lines.append(
                    f"  {name}: count {value['count']}  "
                    f"mean {_fmt_s(value['mean'])}  max {_fmt_s(value['max'])}"
                )
        depth = snap.get("ready_queue_depth")
        if isinstance(depth, dict) and depth.get("count"):
            lines.append(
                f"  ready_queue_depth: mean {depth['mean']:.1f}  "
                f"max {depth['max']:.0f}"
            )
        for name, value in snap.items():
            if name.startswith("renaming."):
                lines.append(f"  {name}: {value}")
        scheduler_bits = [
            f"{key.split('.', 1)[1]}={value}"
            for key, value in snap.items()
            if key.startswith("scheduler.") and not isinstance(value, dict)
        ]
        if scheduler_bits:
            lines.append("  scheduler: " + "  ".join(scheduler_bits))
        quantile_lines = _task_duration_quantiles(metrics)
        if quantile_lines:
            lines.append("  task duration p50/p95/p99:")
            lines.extend(quantile_lines)
        if len(lines) > 1:
            text += "\n" + "\n".join(lines)
        backend = _backend_health_lines(runtime, snap)
        if backend:
            text += "\nbackend health:\n" + "\n".join(backend)
    return text


def _task_duration_quantiles(metrics) -> list[str]:
    """Per-task-type p50/p95/p99 lines from the live histogram objects.

    Quantiles need the histogram's raw buffer and bucket tallies, not
    the folded snapshot — so this reads the registry's metric objects
    directly (:meth:`HistogramMetric.quantile`).
    """

    from .metrics import HistogramMetric

    lines = []
    for metric in metrics:
        if (
            not isinstance(metric, HistogramMetric)
            or metric.name != "task_duration_seconds"
        ):
            continue
        labels = dict(metric.labels)
        task = labels.get("task", "<all>")
        p50, p95, p99 = (metric.quantile(q) for q in (0.5, 0.95, 0.99))
        if p50 is None:
            continue
        lines.append(
            f"    {task}: {_fmt_s(p50)} / {_fmt_s(p95)} / {_fmt_s(p99)}"
        )
    return sorted(lines)


def _backend_health_lines(runtime, snap: dict) -> list[str]:
    """The "backend health" report section.

    Surfaces the mp robustness counters (worker deaths, redispatches —
    recorded since the process backend landed, but never shown) plus
    worker liveness and any health-watchdog findings.
    """

    lines = []
    deaths = snap.get("mp.worker_deaths")
    redispatched = snap.get("mp.redispatched_tasks")
    if deaths is not None or redispatched is not None:
        liveness = runtime.executor.liveness()
        alive_bit = ""
        if liveness:
            alive = sum(1 for w in liveness if w["alive"])
            alive_bit = f"  workers alive: {alive}/{len(liveness)}"
        lines.append(
            f"  mp: worker_deaths={deaths or 0}  "
            f"redispatched_tasks={redispatched or 0}{alive_bit}"
        )
    monitor = getattr(runtime, "health", None)
    if monitor is not None:
        sample = monitor.last_sample
        age = sample.get("last_completion_age")
        age_bit = f"  last_completion_age={age:.2f}s" if age is not None else ""
        lines.append(
            f"  watchdog: findings={len(monitor.findings)}"
            f"{age_bit}  interval={monitor.interval}s"
        )
        for finding in monitor.findings[-5:]:
            lines.append(
                f"    [{finding.severity}] {finding.kind}: {finding.message}"
            )
    return lines
