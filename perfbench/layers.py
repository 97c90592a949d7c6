"""The traced run: spans around calls into each layer, from outside.

:class:`LayerTracer` replaces a fixed list of public functions of the
program with timing wrappers, each patched where its caller looks the
name up (``resolve_call_values`` is patched in ``repro.core.runtime``,
``repro.mp.executor``, ``repro.dist.manager`` and ``repro.serve.engine``,
because each of them imported it by name).  Nothing under ``src/``
changes, and :meth:`LayerTracer.uninstall` puts every original object
back, which :meth:`LayerTracer.restored` verifies.

A span records its name, start, end, thread, parent span and graph id.
Spans are kept in memory (up to a cap; the aggregates keep counting
past it) and written at the end as Chrome trace-event JSON, which opens
in Perfetto.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle
import statistics
import threading
from collections import defaultdict
from time import perf_counter, perf_counter_ns

#: Spans kept for the Chrome trace; aggregates keep counting past it.
MAX_SPANS = 150_000

#: The BLAS kernels the tile tasks call, with their flop counts.
BLAS_KERNELS = ("gemm_nt", "syrk", "trsm", "potrf")


def _kernel_flops(kernel: str, args: tuple) -> int:
    from repro.blas.kernels import flops_of

    if kernel == "gemm_nt":
        a, _b, c = args
        return flops_of("gemm_nt", c.shape[0], c.shape[1], a.shape[1])
    if kernel == "syrk":
        a, b = args
        return flops_of("syrk", b.shape[0], k=a.shape[1])
    if kernel == "trsm":
        a, b = args
        return flops_of("trsm", b.shape[0], a.shape[0])
    return flops_of("potrf", args[0].shape[0])


def _frame_bytes(header: dict, payload: bytes = b"") -> int:
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return 8 + len(head) + len(payload)


class _Agg:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class LayerTracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, definitions=()):
        self._definitions = list(definitions)
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._locals: list = []
        self._locals_lock = threading.Lock()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.counts: dict = defaultdict(float)
        self.samples: dict = defaultdict(list)
        self._pushed: dict = {}
        self._patches: list[tuple] = []
        #: Graph id stamped on spans of threads that did not open a
        #: graph themselves (workers, agents, the service's loop).
        self.graph = 0
        self._graph_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _local(self):
        local = getattr(self._tls, "state", None)
        if local is None:
            local = self._tls.state = {
                "stack": [], "aggs": defaultdict(_Agg), "graph": None,
                "tid": threading.get_ident(),
            }
            with self._locals_lock:
                self._locals.append(local)
        return local

    def begin_graph(self) -> int:
        """Open a new graph id for the calling thread's next spans."""

        gid = next(self._graph_ids)
        self._local()["graph"] = gid
        self.graph = gid
        return gid

    def span(self, name: str, fn, on_exit=None):
        """*fn* wrapped in a span; ``on_exit(args, result)`` after it."""

        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local()
            stack = local["stack"]
            parent = stack[-1][0] if stack else 0
            frame = [next(tracer._ids), 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                agg = local["aggs"][name]
                agg.calls += 1
                agg.total_ns += dur
                agg.self_ns += dur - frame[1]
                if len(tracer.spans) < MAX_SPANS:
                    graph = local["graph"]
                    tracer.spans.append((
                        name, t0, t1, local["tid"], frame[0], parent,
                        tracer.graph if graph is None else graph,
                    ))
                else:
                    tracer.dropped += 1
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def aggregate(self) -> dict:
        """``name -> (calls, total seconds, self seconds)`` over threads."""

        out: dict = {}
        with self._locals_lock:
            locals_ = list(self._locals)
        for local in locals_:
            for name, agg in list(local["aggs"].items()):
                calls, total, self_ = out.get(name, (0, 0.0, 0.0))
                out[name] = (
                    calls + agg.calls,
                    total + agg.total_ns / 1e9,
                    self_ + agg.self_ns / 1e9,
                )
        return out

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        own = attr in vars(owner)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def install(self) -> None:
        """Wrap every layer's public calls (see the module docstring)."""

        import repro.blas.kernels as kernels
        import repro.core.runtime as core_runtime
        import repro.dist.agent as dist_agent
        import repro.dist.encoding as dist_encoding
        import repro.dist.manager as dist_manager
        import repro.mp.executor as mp_executor
        import repro.net.client as net_client
        import repro.serve.daemon as serve_daemon
        import repro.serve.engine as serve_engine
        import repro.serve.protocol as serve_protocol
        import repro.serve.session as serve_session
        from repro.core.dependencies import DependencyTracker
        from repro.core.graph import TaskGraph
        from repro.core.invocation import InvocationPlan
        from repro.core.runtime import SmpssRuntime
        from repro.core.scheduler import SmpssScheduler
        from repro.obs.metrics import HistogramMetric

        counts, samples, pushed = self.counts, self.samples, self._pushed
        span, patch = self.span, self._patch

        # core.runtime / core.invocation
        patch(SmpssRuntime, "submit",
              span("core.runtime.submit", SmpssRuntime.submit))
        patch(SmpssRuntime, "barrier",
              span("core.runtime.barrier", SmpssRuntime.barrier))
        patch(InvocationPlan, "instantiate",
              span("core.invocation.instantiate", InvocationPlan.instantiate))
        for module in (core_runtime, mp_executor, dist_manager, serve_engine):
            patch(module, "resolve_call_values",
                  span("core.invocation.resolve",
                       module.resolve_call_values))

        # core.dependencies / core.graph
        patch(DependencyTracker, "analyze",
              span("core.dependencies.analyze", DependencyTracker.analyze))
        patch(DependencyTracker, "write_back_all",
              span("core.dependencies.write_back",
                   DependencyTracker.write_back_all))

        def on_complete(args, result):
            executed_by = args[1].executed_by
            if executed_by >= 0:
                counts["completed"] += 1
                if executed_by == 0:
                    counts["completed_by_main"] += 1

        patch(TaskGraph, "complete",
              span("core.graph.complete", TaskGraph.complete, on_complete))

        # core.scheduler: pop hit ratio and push -> pop queue wait
        def on_push_new(args, result):
            pushed[id(args[1])] = perf_counter()

        def on_push_batch(args, result):
            now = perf_counter()
            for task in args[1]:
                pushed[id(task)] = now

        def on_pop(args, task):
            counts["pops"] += 1
            if task is not None:
                counts["pop_hits"] += 1
                t_push = pushed.pop(id(task), None)
                if t_push is not None:
                    samples["queue_wait"].append(perf_counter() - t_push)

        patch(SmpssScheduler, "push_new",
              span("core.scheduler.push_new", SmpssScheduler.push_new,
                   on_push_new))
        patch(SmpssScheduler, "push_ready_batch",
              span("core.scheduler.push_ready_batch",
                   SmpssScheduler.push_ready_batch, on_push_batch))
        patch(SmpssScheduler, "pop",
              span("core.scheduler.pop", SmpssScheduler.pop, on_pop))

        # execute: the task bodies run locally (threads, service) ...
        for definition in self._definitions:
            patch(definition, "func", span("execute.body", definition.func))

        # ... or remotely, where the backend returns the body's time.
        def remote_body(args, result):
            counts["remote_bodies"] += 1
            counts["remote_body_s"] += result[1]

        # blas
        for kernel in BLAS_KERNELS:
            def on_kernel(args, result, kernel=kernel):
                counts["kernel_flops"] += _kernel_flops(kernel, args)

            patch(kernels, kernel,
                  span(f"blas.{kernel}", getattr(kernels, kernel), on_kernel))

        # mp
        from repro.mp.executor import ProcessBackend

        def on_encode(args, result):
            counts["mp_pickled_bytes"] += len(pickle.dumps(result, protocol=5))

        patch(ProcessBackend, "run",
              span("mp.run", ProcessBackend.run, remote_body))
        patch(mp_executor, "encode_values",
              span("mp.encode_values", mp_executor.encode_values, on_encode))
        patch(mp_executor, "writeback_specs",
              span("mp.writeback_specs", mp_executor.writeback_specs))
        patch(mp_executor, "apply_writebacks",
              span("mp.apply_writebacks", mp_executor.apply_writebacks))

        # dist
        from repro.dist.manager import ClusterBackend

        patch(ClusterBackend, "run",
              span("dist.run", ClusterBackend.run, remote_body))
        patch(ClusterBackend, "fetch_version",
              span("dist.fetch", ClusterBackend.fetch_version))
        patch(ClusterBackend, "barrier_sync",
              span("dist.fetch", ClusterBackend.barrier_sync))
        for module in (dist_manager, dist_agent):
            patch(module, "encode_blob",
                  span("dist.encode_blob", module.encode_blob))
        for module in (dist_agent, dist_encoding):
            patch(module, "decode_blob",
                  span("dist.decode_blob", module.decode_blob))

        # net: length-prefixed frames (cluster) and JSON lines (service)
        def on_frame(args, result):
            counts["net_msgs"] += 1
            counts["net_bytes"] += _frame_bytes(*args[1:])

        def on_line(args, line):
            counts["net_msgs"] += 1
            counts["net_bytes"] += len(line)
            if args[0].get("cmd") == "run":
                counts["serve_wire_bytes"] += len(line)

        for module in (dist_manager, dist_agent):
            patch(module, "send_frame",
                  span("net.send_frame", module.send_frame, on_frame))
            patch(module, "recv_frame",
                  span("net.recv", module.recv_frame))
        patch(serve_session, "wire_encode",
              span("net.send_line", serve_session.wire_encode, on_line))
        patch(serve_daemon, "encode",
              span("net.send_line", serve_daemon.encode, on_line))
        patch(net_client.Client, "_recv_raw",
              span("net.recv", net_client.Client._recv_raw))

        # serve
        from repro.serve.engine import ServeEngine
        from repro.serve.session import ServeSession

        def on_submit_graph(args, job):
            t_return = perf_counter()
            stats = job.domain.graph.stats
            counts["edges"] += stats.total_edges
            counts["renames"] += stats.renames

            def done(_job):
                samples["engine"].append(perf_counter() - t_return)

            job.add_done_callback(done)

        def on_encode_datum(args, payload):
            counts["datum_raw_bytes"] += getattr(args[0], "nbytes", 0)
            counts["datum_wire_bytes"] += len(json.dumps(payload))

        def on_reject(args, result):
            counts["rejections"] += 1

        patch(ServeSession, "flush",
              span("serve.flush", ServeSession.flush))
        patch(ServeEngine, "submit_graph",
              span("serve.submit_graph", ServeEngine.submit_graph,
                   on_submit_graph))
        patch(ServeEngine, "reject",
              span("serve.reject", ServeEngine.reject, on_reject))
        patch(serve_protocol, "encode_datum",
              span("serve.encode_datum", serve_protocol.encode_datum,
                   on_encode_datum))

        # obs.metrics
        patch(HistogramMetric, "observe",
              span("obs.observe", HistogramMetric.observe))

    def uninstall(self) -> None:
        """Put every patched name back, newest patch first."""

        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._pushed.clear()

    def patched_names(self) -> list:
        return [(owner, attr, original) for owner, attr, original, _ in
                self._patches]

    @staticmethod
    def restored(patched: list) -> list:
        """Names from *patched* that no longer resolve to the original."""

        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in patched
            if getattr(owner, attr) is not original
        ]

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write_chrome(self, path: str) -> None:
        """The kept spans as Chrome trace-event JSON (opens in Perfetto)."""

        if self.spans:
            base = min(span[1] for span in self.spans)
        else:
            base = 0
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
                "args": {"span": sid, "parent": parent, "graph": graph},
            }
            for name, t0, t1, tid, sid, parent, graph in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"dropped_spans": self.dropped},
            }, handle)


def layer_metrics(tracer: LayerTracer, phase, exec_threads: int,
                  blas_threads: int) -> dict:
    """Every per-layer metric, from the spans and the phase's counters.

    *phase* is the traced phase's :class:`~perfbench.workloads.Phase`;
    *exec_threads* the threads that run task bodies; *blas_threads* the
    effective BLAS thread count.  A layer the workload never enters
    reads 0.
    """

    agg = tracer.aggregate()
    counts, samples = tracer.counts, tracer.samples
    tasks = max(phase.tasks, 1)
    graphs = max(phase.graphs, 1)

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def mean(name, scale, field=2):
        entry = agg.get(name)
        if not entry or not entry[0]:
            return 0.0
        return entry[field] / entry[0] * scale

    def total(name, field=2):
        entry = agg.get(name)
        return entry[field] if entry else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    sched = phase.counters
    pops = sum(sched.get(k, 0) for k in
               ("pops_high", "pops_local", "pops_main", "steals"))
    local_bodies = calls("execute.body")
    body_s = total("execute.body", 1) + counts["remote_body_s"]
    kernel_s = sum(total(f"blas.{k}") for k in BLAS_KERNELS)
    mp_runs = calls("mp.run")
    hits = sched.get("dist.cache_hits", 0)
    misses = sched.get("dist.cache_misses", 0)
    net_msgs = counts["net_msgs"]

    metrics = {
        "core.runtime.submit_self_us": mean("core.runtime.submit", 1e6),
        "core.runtime.barrier_wait_ms": mean("core.runtime.barrier", 1e3, 1),
        "core.runtime.main_task_share": ratio(
            counts["completed_by_main"], counts["completed"]),
        "core.invocation.instantiate_us": mean(
            "core.invocation.instantiate", 1e6),
        "core.invocation.resolve_us": mean("core.invocation.resolve", 1e6),
        "core.dependencies.analyze_us": mean(
            "core.dependencies.analyze", 1e6),
        "core.dependencies.renames_per_task": (
            sched.get("renames", 0) + counts["renames"]) / tasks,
        "core.dependencies.write_back_ms": mean(
            "core.dependencies.write_back", 1e3, 1),
        "core.graph.complete_us": mean("core.graph.complete", 1e6),
        "core.graph.edges_per_task": (
            sched.get("edges", 0) + counts["edges"]) / tasks,
        "core.scheduler.pop_us": mean("core.scheduler.pop", 1e6),
        "core.scheduler.pop_hit_ratio": ratio(
            counts["pop_hits"], counts["pops"]),
        "core.scheduler.queue_wait_us_p50": (
            statistics.median(samples["queue_wait"]) * 1e6
            if samples["queue_wait"] else 0.0
        ),
        "core.scheduler.steals_per_task": ratio(
            sched.get("steals", 0), tasks if pops else 0),
        "core.scheduler.locality_hit_ratio": ratio(
            sched.get("pops_local", 0), pops),
        "execute.body_us": ratio(
            body_s, local_bodies + counts["remote_bodies"]) * 1e6,
        "blas.kernel_gflops": ratio(counts["kernel_flops"], kernel_s) / 1e9,
        "blas.busy_share": ratio(
            kernel_s, exec_threads * phase.wall),
        "blas.threads": blas_threads,
        "mp.run_us": mean("mp.run", 1e6, 1),
        "mp.encode_us": ratio(
            total("mp.encode_values") + total("mp.writeback_specs"),
            mp_runs) * 1e6,
        "mp.writeback_us": ratio(total("mp.apply_writebacks"), mp_runs) * 1e6,
        "mp.pickled_bytes_per_task": ratio(
            counts["mp_pickled_bytes"], mp_runs),
        "dist.run_us": mean("dist.run", 1e6, 1),
        "dist.encode_us": mean("dist.encode_blob", 1e6),
        "dist.decode_us": mean("dist.decode_blob", 1e6),
        "dist.cache_hit_ratio": ratio(hits, hits + misses),
        "dist.fetch_ms": total("dist.fetch", 1) / graphs * 1e3,
        "dist.bytes_per_task": sched.get("dist.bytes_moved", 0) / tasks,
        "net.msgs_per_task": net_msgs / tasks,
        "net.bytes_per_msg": ratio(counts["net_bytes"], net_msgs),
        "net.recv_wait_us": mean("net.recv", 1e6, 1),
        "serve.flush_ms": mean("serve.flush", 1e3, 1),
        "serve.submit_graph_ms": mean("serve.submit_graph", 1e3, 1),
        "serve.engine_ms": (
            statistics.mean(samples["engine"]) * 1e3
            if samples["engine"] else 0.0
        ),
        "serve.wire_bytes_per_graph": (
            counts["serve_wire_bytes"] / graphs
            if calls("serve.flush") else 0.0
        ),
        "serve.wire_inflation": ratio(
            counts["datum_wire_bytes"], counts["datum_raw_bytes"]),
        "serve.rejections": counts["rejections"],
        "obs.observe_per_task": calls("obs.observe") / tasks,
        "obs.observe_us": mean("obs.observe", 1e6),
    }
    for kernel in BLAS_KERNELS:
        metrics[f"blas.{kernel}_ms"] = mean(f"blas.{kernel}", 1e3)
    return metrics
