"""The shared worker fleet behind the task-graph service.

One engine owns W workers and one executor
(:class:`repro.core.runtime.Executor`: in-process or forked worker
processes) and executes *jobs*:
whole task-graph submissions, each analysed into a private
:class:`~repro.core.sharding.GraphDomain` whose lock stripe is picked
by datum-address hash.  Independent tenants — and independent data
within a tenant — therefore never contend on one tracker lock; only
submissions over colliding stripes serialise their analysis, and the
actual task execution always interleaves freely across the fleet.

Every job's ready tasks go through one §III scheduler and the dispatch
loop of :class:`repro.core.engine.Engine`, as in the in-process runtime.
A failed or abandoned job drains through that loop with its bodies
skipped, so every job ends when its domain has nothing pending.

Admission control implements the paper's §III blocking conditions as
per-tenant backpressure: where the in-process runtime *blocks* the
main thread on graph-size or renamed-memory limits, a service must
not block one tenant's connection on another tenant's debt — so
over-limit submissions are rejected immediately with a structured,
retryable error (:class:`~repro.serve.errors.GraphRejected`) instead
of growing without bound.

Every counter the engine keeps is labelled by tenant in the ordinary
metrics registry, so the exposition endpoint serves per-tenant pages
with no extra bookkeeping.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

# resolve_call_values is unused here but kept importable under this
# module's name: perfbench/layers.py patches it in every executor home.
from ..core.engine import Engine
from ..core.invocation import plan_for, resolve_call_values  # noqa: F401
from ..core.runtime import InlineExecutor
from ..core.scheduler import SmpssScheduler
from ..core.sharding import DEFAULT_NUM_SHARDS, GraphDomain, ShardSet
from ..core.transfer import format_remote_error
from ..obs.metrics import MetricsRegistry
from . import protocol as sp
from .errors import GraphRejected, ServeError

__all__ = ["ServiceLimits", "GraphJob", "ServeEngine"]


@dataclass(frozen=True)
class ServiceLimits:
    """Per-tenant admission-control caps (§III turned into backpressure)."""

    #: Largest accepted graph, in tasks (§III graph-size condition).
    max_graph_tasks: int = 4096
    #: Cap on one tenant's resident submission bytes (§III memory
    #: condition); ``None`` disables the check.
    max_tenant_bytes: Optional[int] = 256 * 1024 * 1024
    #: Graphs one tenant may have queued-or-running at once.
    max_inflight: int = 8

    def to_wire(self) -> dict:
        return {
            "max_graph_tasks": self.max_graph_tasks,
            "max_tenant_bytes": self.max_tenant_bytes,
            "max_inflight": self.max_inflight,
        }


class _TenantState:
    """Admission counters + metric handles for one tenant."""

    __slots__ = (
        "name", "inflight", "bytes_held", "graphs", "rejections",
        "m_submitted", "m_completed", "m_failed", "m_tasks",
        "m_inflight", "m_bytes", "m_seconds",
    )

    def __init__(self, name: str, metrics: MetricsRegistry):
        self.name = name
        self.inflight = 0
        self.bytes_held = 0
        self.graphs = 0
        self.rejections = 0
        self.m_submitted = metrics.counter(
            "serve.graphs_submitted", tenant=name)
        self.m_completed = metrics.counter(
            "serve.graphs_completed", tenant=name)
        self.m_failed = metrics.counter("serve.graphs_failed", tenant=name)
        self.m_tasks = metrics.counter("serve.tasks_executed", tenant=name)
        self.m_inflight = metrics.gauge("serve.inflight_graphs", tenant=name)
        self.m_bytes = metrics.gauge("serve.bytes_held", tenant=name)
        self.m_seconds = metrics.histogram("serve.graph_seconds", tenant=name)


class GraphJob:
    """One accepted submission, from analysis to write-back."""

    __slots__ = (
        "tenant", "domain", "data", "nbytes", "task_count",
        "cancelled", "discard", "finalized",
        "error", "results", "seconds", "done", "_callbacks", "_t0",
    )

    def __init__(self, tenant: _TenantState, domain: GraphDomain,
                 data: dict, nbytes: int, task_count: int):
        self.tenant = tenant
        self.domain = domain
        self.data = data          # datum_id -> server-side object
        self.nbytes = nbytes
        self.task_count = task_count
        self.cancelled = False    # failed or abandoned: skip its bodies
        self.discard = False      # client gone; drop the results
        self.finalized = False
        self.error: Optional[dict] = None
        self.results: Optional[dict] = None
        self.seconds = 0.0
        self.done = threading.Event()
        self._callbacks: list[Callable] = []
        self._t0 = perf_counter()

    def add_done_callback(self, fn: Callable[["GraphJob"], None]) -> None:
        if self.done.is_set():
            fn(self)
        else:
            self._callbacks.append(fn)


class ServeEngine(Engine):
    """W workers, one §III scheduler, S tracker-lock stripes."""

    def __init__(
        self,
        workers: int = 4,
        shards: int = DEFAULT_NUM_SHARDS,
        backend: str = "threads",
        limits: Optional[ServiceLimits] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if backend not in ("threads", "processes"):
            raise ValueError(f"unknown backend {backend!r}")
        super().__init__()
        self.limits = limits or ServiceLimits()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.backend = backend
        self.num_workers = workers
        self.shards = ShardSet(shards)
        self._definitions: dict[tuple, object] = {}
        self._tenants: dict[str, _TenantState] = {}
        self._jobs: set[GraphJob] = set()
        #: The job each submitted, not yet completed task belongs to.
        self._job_of: dict = {}
        self._m_queue_depth = self.metrics.gauge("serve.queue_depth")
        self.metrics.gauge("serve.workers").set(workers)
        self.metrics.gauge("serve.shards").set(shards)
        if backend == "processes":
            from ..mp.executor import ProcessBackend

            self.executor = ProcessBackend(workers, self.metrics)
        else:
            self.executor = InlineExecutor(workers, threading.local())
        self.executor.start()
        # Slot 0 is the runtime's main thread; the service has none.
        self._reset_dispatch(SmpssScheduler(workers + 1))
        self._start_workers("repro-serve-worker")

    # ------------------------------------------------------------------
    # tenants
    # ------------------------------------------------------------------
    def tenant(self, name: str) -> _TenantState:
        with self._sched_lock:
            state = self._tenants.get(name)
            if state is None:
                state = _TenantState(name, self.metrics)
                self._tenants[name] = state
            return state

    def reject(self, tenant_name: str, exc: GraphRejected) -> GraphRejected:
        """Record one shed submission in the tenant's metrics."""

        state = self.tenant(tenant_name)
        with self._sched_lock:
            state.rejections += 1
        self.metrics.counter(
            "serve.graphs_rejected", tenant=tenant_name, reason=exc.code
        ).inc()
        return exc

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_graph(self, tenant_name: str, spec: dict) -> GraphJob:
        """Admit, analyse, and enqueue one graph; returns its job.

        Raises :class:`GraphRejected` (structured, retryable) when the
        tenant is over a cap, :class:`ServeError` on malformed specs.
        """

        tenant = self.tenant(tenant_name)
        task_specs = spec.get("tasks") or []
        data_specs = spec.get("data") or {}
        limits = self.limits

        if len(task_specs) > limits.max_graph_tasks:
            raise self.reject(tenant_name, GraphRejected(
                "graph_too_large",
                f"graph has {len(task_specs)} tasks; tenant cap is "
                f"{limits.max_graph_tasks}",
                tasks=len(task_specs), limit=limits.max_graph_tasks,
            ))

        # Admission sizing happens on the *encoded* payload (cheap b64
        # arithmetic) so an over-budget submission is shed before the
        # server materialises a single byte of it.
        nbytes = sum(
            (len(p.get("b64", "")) * 3) // 4 for p in data_specs.values()
        )
        with self._sched_lock:
            if self._stop:
                raise ServeError("engine is shut down")
            if tenant.inflight >= limits.max_inflight:
                over = GraphRejected(
                    "queue_full",
                    f"tenant {tenant_name!r} already has "
                    f"{tenant.inflight} graphs in flight (cap "
                    f"{limits.max_inflight}); retry after one drains",
                    inflight=tenant.inflight, limit=limits.max_inflight,
                )
            elif (limits.max_tenant_bytes is not None
                    and tenant.bytes_held + nbytes > limits.max_tenant_bytes):
                over = GraphRejected(
                    "memory_limit",
                    f"submission of {nbytes} bytes would put tenant "
                    f"{tenant_name!r} over its {limits.max_tenant_bytes}"
                    f"-byte cap ({tenant.bytes_held} held); retry after "
                    f"in-flight graphs complete",
                    bytes=nbytes, held=tenant.bytes_held,
                    limit=limits.max_tenant_bytes,
                )
            else:
                over = None
                tenant.inflight += 1
                tenant.bytes_held += nbytes
                tenant.graphs += 1
                tenant.m_inflight.set(tenant.inflight)
                tenant.m_bytes.set(tenant.bytes_held)
        if over is not None:
            raise self.reject(tenant_name, over)

        try:
            data = {
                datum_id: sp.decode_datum(payload)
                for datum_id, payload in data_specs.items()
            }
            constants = {
                key: sp.decode_value(value)
                for key, value in (spec.get("constants") or {}).items()
            }
            tasks = [
                self._instantiate(task_spec, data, constants)
                for task_spec in task_specs
            ]
        except Exception:
            with self._sched_lock:
                tenant.inflight -= 1
                tenant.bytes_held -= nbytes
                tenant.m_inflight.set(tenant.inflight)
                tenant.m_bytes.set(tenant.bytes_held)
            raise

        domain = GraphDomain(
            self.shards.shard_for(id(obj) for obj in data.values())
        )
        job = GraphJob(tenant, domain, data, nbytes, len(tasks))
        tenant.m_submitted.inc()
        ready = domain.analyze_batch(tasks)
        scheduler = self.scheduler
        with self._sched_lock:
            # Re-checked here: a shutdown since admission has stopped
            # the workers and failed the jobs it knew of.
            if self._stop:
                self._fail_for_shutdown(job)
            elif tasks:
                self._jobs.add(job)
                self._job_of.update(dict.fromkeys(tasks, job))
                for task in ready:
                    scheduler.push_new(task)
                self._sched_cv.notify(len(ready))
                self._m_queue_depth.set(scheduler.ready_count)
            else:
                job.finalized = True
        if job.finalized:
            self._finalize(job)
        return job

    def _instantiate(self, task_spec: dict, data: dict, constants: dict):
        ref = task_spec.get("def")
        if not isinstance(ref, (list, tuple)) or len(ref) != 2:
            raise ServeError(f"malformed task definition ref {ref!r}")
        key = (ref[0], ref[1])
        definition = self._definitions.get(key)
        if definition is None:
            definition = sp.resolve_definition(ref)
            self._definitions[key] = definition
        args = []
        for argspec in task_spec.get("args") or []:
            if "d" in argspec:
                datum_id = argspec["d"]
                if datum_id not in data:
                    raise ServeError(
                        f"task {definition.name!r} references unknown "
                        f"datum {datum_id!r}"
                    )
                args.append(data[datum_id])
            else:
                args.append(sp.decode_value(argspec))
        plan = definition._invocation_plan
        if plan is None:
            plan = plan_for(definition)
        merged = dict(getattr(definition, "constants", None) or {})
        merged.update(constants)
        return plan.instantiate(tuple(args), {}, merged)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _begin(self, task, thread: int) -> bool:
        return not self._job_of[task].cancelled

    def _complete(self, task, thread: int, cause, duration: float) -> list:
        job = self._job_of.pop(task)
        if cause is not None:
            if job.error is None:
                exc_type, message, remote_traceback = format_remote_error(
                    cause)
                job.error = {
                    "code": "task_failed",
                    "message": (
                        f"task {task.definition.name!r} raised "
                        f"{exc_type}: {message}"
                    ),
                    "task": task.definition.name,
                    "traceback": remote_traceback,
                }
            # Only this job fails; its queued tasks are skipped.
            job.cancelled = True
        elif not job.cancelled:
            job.tenant.m_tasks.inc()
        newly_ready, pending = job.domain.complete(task)
        self._m_queue_depth.set(self.scheduler.ready_count)
        if pending == 0:
            with self._sched_lock:
                finalize = not job.finalized
                job.finalized = True
            if finalize:
                self._finalize(job)
        return newly_ready

    def _finalize(self, job: GraphJob) -> None:
        tenant = job.tenant
        if job.error is None and not job.cancelled:
            job.domain.write_back()
            if not job.discard:
                job.results = {
                    datum_id: sp.encode_datum(obj)
                    for datum_id, obj in job.data.items()
                }
            tenant.m_completed.inc()
        else:
            if job.error is None:
                job.error = {
                    "code": "cancelled",
                    "message": "submission abandoned before completion",
                }
            tenant.m_failed.inc()
        job.seconds = perf_counter() - job._t0
        tenant.m_seconds.observe(job.seconds)
        self.shards.release(job.domain.shard)
        with self._sched_lock:
            tenant.inflight -= 1
            tenant.bytes_held -= job.nbytes
            tenant.m_inflight.set(tenant.inflight)
            tenant.m_bytes.set(tenant.bytes_held)
            self._jobs.discard(job)
        job.done.set()
        callbacks, job._callbacks = job._callbacks, []
        for callback in callbacks:
            try:
                callback(job)
            except Exception:  # noqa: BLE001 - observer must not kill worker
                pass

    # ------------------------------------------------------------------
    # cancellation / lifecycle
    # ------------------------------------------------------------------
    def abandon(self, job: GraphJob) -> None:
        """The submitting client is gone: drop the job's results and
        release its tenant accounting without stalling the fleet.

        Tasks already running finish (their effects stay private to
        the job's domain); queued tasks are skipped; the domain — the
        tenant's shard state — is released at finalize as usual.
        """

        job.discard = True
        job.cancelled = True

    @staticmethod
    def _fail_for_shutdown(job: GraphJob) -> None:
        """Scheduler lock held: end *job*; the caller finalizes it."""

        job.cancelled = job.finalized = True
        job.error = job.error or {
            "code": "shutdown",
            "message": "engine shut down before the graph finished",
        }

    def shutdown(self) -> None:
        self._stop_workers(timeout=10.0)
        self.executor.stop()
        # Fail whatever never finished so no waiter hangs on a dead fleet.
        with self._sched_lock:
            stranded = [job for job in self._jobs if not job.finalized]
            for job in stranded:
                self._fail_for_shutdown(job)
        for job in stranded:
            self._finalize(job)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def state(self) -> dict:
        with self._sched_lock:
            tenants = {
                name: {
                    "inflight": t.inflight,
                    "bytes_held": t.bytes_held,
                    "graphs": t.graphs,
                    "rejections": t.rejections,
                }
                for name, t in sorted(self._tenants.items())
            }
            queue_depth = self.scheduler.ready_count
        return {
            "workers": self.num_workers,
            "backend": self.backend,
            "shards": len(self.shards),
            "queue_depth": queue_depth,
            "limits": self.limits.to_wire(),
            "tenants": tenants,
            "shard_stats": self.shards.stats(),
        }
