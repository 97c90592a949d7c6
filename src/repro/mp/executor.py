"""Master-side process pool: dispatch, death detection, recovery.

The process backend keeps the paper's master/worker split intact: the
master's :class:`~repro.core.runtime.SmpssRuntime` (or the service
engine) still owns the dependency tracker, the scheduler, renaming,
and the memory limit.  What changes is only *where a task body runs*
— :class:`ProcessBackend` is one implementation of
:class:`repro.core.runtime.Executor`: each master worker thread
becomes a **proxy thread** that pops tasks exactly as before but
forwards the body to a dedicated long-lived worker process over a
pipe, blocking (GIL released) until the reply.  Completion bookkeeping
then proceeds on the proxy thread unchanged, so every structural
feature of the runtime works identically under every backend.

Robustness contract (ISSUE: dead-worker recovery):

* worker death is detected via ``Process.sentinel`` — ``connection.wait``
  watches the pipe and the sentinel together, so a SIGKILL mid-task
  wakes the proxy immediately instead of hanging a recv;
* a task lost to a dead worker is re-dispatched exactly once to a
  freshly forked replacement; a second loss raises
  :class:`~repro.mp.encoding.WorkerLostError`, which the runtime wraps
  in the ordinary :class:`~repro.core.runtime.TaskExecutionError`
  naming the task;
* deaths and re-dispatches are counted in the given metrics registry
  (``mp.worker_deaths`` / ``mp.redispatched_tasks``).
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from multiprocessing import connection as _mpc
from typing import Optional

from ..core.config import RuntimeConfig
from ..core.invocation import resolve_call_values
from ..core.transfer import (
    PROTOCOL,
    RemoteTaskError,
    TransferError,
    definition_ref,
)
from .encoding import (
    WorkerLostError,
    apply_writebacks,
    encode_values,
    writeback_specs,
)
from .worker import (
    MSG_BYE,
    MSG_DONE,
    MSG_READY,
    MSG_STOP,
    MSG_TASK,
    worker_main,
)

__all__ = ["ProcessBackend"]

#: Seconds to wait for a freshly forked worker's ready handshake.
_HANDSHAKE_TIMEOUT = 30.0
#: Seconds to wait for a worker's goodbye message at shutdown.
_GOODBYE_TIMEOUT = 5.0


class _WorkerDied(Exception):
    """Internal signal: the pipe/sentinel says the worker is gone."""


class _Worker:
    """One worker process and its pipe (slot = proxy-thread index)."""

    __slots__ = ("slot", "proc", "conn", "sent_defs", "seq", "generation")

    def __init__(self, slot: int):
        self.slot = slot
        self.proc = None
        self.conn = None
        self.sent_defs: set = set()
        self.seq = 0
        #: incremented per (re)spawn; visible in error messages.
        self.generation = 0

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None


class ProcessBackend:
    """Executes task bodies in *workers* forked worker processes.

    Counters land in *metrics*; with a *tracer*, each worker records
    its own events into a ring of *ring_size* and they are ingested on
    the proxy thread.  Workers are forked by :meth:`start`, which the
    runtime calls *before* its proxy threads exist and before it is
    pushed on the api stack — so children start from a quiet
    interpreter.  Respawns after a death necessarily fork from a
    threaded master; the worker entry point neutralises all inherited
    runtime state first thing.
    """

    in_process = False
    placement = None

    def __init__(self, workers: int, metrics, tracer=None,
                 ring_size: int = RuntimeConfig.trace_buffer_size):
        self._num_workers = workers
        self._ctx = multiprocessing.get_context("fork")
        self._ring_capacity = ring_size
        self._tracer = tracer
        self._workers: list[_Worker] = []
        self._spawn_lock = threading.Lock()
        self._m_deaths = metrics.counter("mp.worker_deaths")
        self._m_redispatch = metrics.counter("mp.redispatched_tasks")
        self._stopped = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        self._stopped = False
        self._workers = [
            _Worker(slot) for slot in range(1, self._num_workers + 1)
        ]
        for worker in self._workers:
            self._spawn(worker)
        return self._num_workers

    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, worker.slot, self._tracer is not None,
                  self._ring_capacity),
            name=f"repro-mp-worker-{worker.slot}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # our copy; the child keeps its end open
        worker.proc = proc
        worker.conn = parent_conn
        worker.sent_defs.clear()
        worker.generation += 1
        if not parent_conn.poll(_HANDSHAKE_TIMEOUT):
            self._kill(worker)
            raise WorkerLostError(
                f"worker {worker.slot} (pid {proc.pid}) did not come up "
                f"within {_HANDSHAKE_TIMEOUT:.0f}s"
            )
        msg = pickle.loads(parent_conn.recv_bytes())
        if msg[0] != MSG_READY:  # pragma: no cover - protocol guard
            self._kill(worker)
            raise WorkerLostError(
                f"worker {worker.slot} sent {msg[0]!r} instead of a ready "
                f"handshake"
            )

    def _kill(self, worker: _Worker) -> None:
        if worker.conn is not None:
            try:
                worker.conn.close()
            except Exception:
                pass
            worker.conn = None
        proc = worker.proc
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stubborn child
                proc.kill()
                proc.join(timeout=2.0)

    def _respawn(self, worker: _Worker) -> None:
        with self._spawn_lock:
            self._kill(worker)
            self._spawn(worker)

    def stop(self) -> None:
        """Graceful shutdown: stop message, goodbye trace flush, join.

        Always leaves every child dead and every pipe closed, whatever
        state the workers were in; never raises.
        """

        if self._stopped:
            return
        self._stopped = True
        for worker in self._workers:
            conn = worker.conn
            if conn is None:
                continue
            try:
                conn.send_bytes(pickle.dumps((MSG_STOP,), protocol=PROTOCOL))
            except Exception:
                continue
        for worker in self._workers:
            conn = worker.conn
            if conn is None:
                continue
            try:
                if conn.poll(_GOODBYE_TIMEOUT):
                    msg = pickle.loads(conn.recv_bytes())
                    if msg[0] == MSG_BYE and msg[1] and self._tracer is not None:
                        self._tracer.ingest(msg[1])
            except Exception:
                pass
        for worker in self._workers:
            proc = worker.proc
            if proc is not None:
                proc.join(timeout=2.0)
            self._kill(worker)
        self._workers = []

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run(self, task, slot: int) -> tuple[Optional[BaseException], float]:
        """Execute *task* on worker *slot*; return ``(cause, duration)``.

        ``cause`` is ``None`` on success, or the exception the runtime
        should wrap in a :class:`TaskExecutionError` — a
        :class:`RemoteTaskError` (the body raised), a
        :class:`TransferError` (arguments cannot ship), or a
        :class:`WorkerLostError` (two worker deaths on one task, or an
        unrevivable worker).
        """

        worker = self._workers[slot - 1]
        values = resolve_call_values(task)
        try:
            enc_values = encode_values(task, values)
            wb_specs = writeback_specs(task, values)
        except TransferError as exc:
            return exc, 0.0
        key = id(task.definition)
        attempts = 0
        while True:
            payload = None
            if key not in worker.sent_defs:
                try:
                    payload = definition_ref(task.definition)
                except TransferError as exc:
                    return exc, 0.0
            worker.seq += 1
            seq = worker.seq
            msg = (MSG_TASK, seq, key, payload, task.task_id, task.name,
                   enc_values, wb_specs)
            try:
                data = pickle.dumps(msg, protocol=PROTOCOL)
            except Exception as exc:
                return (
                    TransferError(
                        f"task {task.name!r}: arguments are not picklable "
                        f"({exc!r}); pass arena-backed arrays or use "
                        f"backend='threads'"
                    ),
                    0.0,
                )
            try:
                worker.conn.send_bytes(data)
                worker.sent_defs.add(key)
                reply = self._await_reply(worker, seq)
            except _WorkerDied:
                attempts += 1
                self._m_deaths.inc()
                lost_pid = worker.pid
                if attempts > 1:
                    cause = WorkerLostError(
                        f"worker {worker.slot} (pid {lost_pid}) died while "
                        f"running task #{task.task_id} {task.name!r}, which "
                        f"had already been re-dispatched once; giving up"
                    )
                    self._try_respawn(worker)
                    return cause, 0.0
                try:
                    self._respawn(worker)
                except WorkerLostError as exc:
                    return exc, 0.0
                self._m_redispatch.inc()
                continue
            _tag, _seq, err, wb_values, duration, events = reply
            if events and self._tracer is not None:
                # Proxy-thread context: events land in this thread's
                # ring buffer and merge by timestamp with everyone else.
                self._tracer.ingest(events)
            if err is not None:
                return RemoteTaskError(*err), duration
            apply_writebacks(wb_specs, wb_values, values)
            return None, duration

    def fetch_version(self, version) -> None:
        """No-op: written values land in master storage with the reply."""

    def barrier_sync(self) -> None:
        """No-op: nothing stays behind in a worker process."""

    def _try_respawn(self, worker: _Worker) -> None:
        """Best-effort revival so later tasks on this slot can proceed."""

        try:
            self._respawn(worker)
        except WorkerLostError:
            pass

    def _await_reply(self, worker: _Worker, seq: int) -> tuple:
        conn = worker.conn
        sentinel = worker.proc.sentinel
        while True:
            ready = _mpc.wait([conn, sentinel])
            if conn in ready:
                try:
                    reply = pickle.loads(conn.recv_bytes())
                except (EOFError, OSError) as exc:
                    raise _WorkerDied from exc
                except Exception as exc:  # pragma: no cover - protocol guard
                    raise _WorkerDied from exc
                if reply[0] == MSG_DONE and reply[1] == seq:
                    return reply
                continue  # unexpected/stale message: keep waiting
            # Sentinel fired with no pipe data: the child is gone, but
            # drain any bytes that raced the death before giving up.
            if conn.poll(0):
                continue
            raise _WorkerDied

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def worker_pids(self) -> list[Optional[int]]:
        return [worker.pid for worker in self._workers]

    def liveness(self) -> list[dict]:
        """Per-slot worker liveness, the health watchdog's feed.

        ``generation`` > 1 means the slot has been respawned after a
        death; ``alive`` is the OS-level :meth:`Process.is_alive` (a
        dead-but-not-yet-respawned worker shows up here before the next
        dispatch to that slot notices).  Lock-free snapshot — the list
        is display data for :mod:`repro.obs.health`, never control flow.
        """

        out = []
        for worker in self._workers:
            proc = worker.proc
            out.append(
                {
                    "slot": worker.slot,
                    "pid": worker.pid,
                    "alive": bool(proc is not None and proc.is_alive()),
                    "generation": worker.generation,
                }
            )
        return out
