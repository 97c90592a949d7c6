"""In-process side of a live run: gate, event tap, publisher thread.

A :class:`LiveSession` is created by ``SmpssRuntime.start()`` when the
``live`` knob is on.  It owns three pieces:

* the **control plane** — a :class:`~repro.core.scheduler.DispatchGate`
  installed on the runtime's scheduler and bound to the runtime's
  scheduler lock and condition variables, so ``pause()`` parks workers
  on the very cvs they already sleep on when queues run dry;
* the **event tap** — a listener on the runtime's tracer that appends
  each :class:`TraceEvent` to a lock-free deque (one C-level append on
  the emitting thread, which may hold runtime locks — nothing heavier
  is allowed there);
* the **event plane** — a publisher thread that drains the deque,
  converts events to graph deltas (:func:`protocol.event_to_delta`),
  and fans them out through a :class:`repro.net.Server`,
  interleaving a metrics snapshot every ``live_snapshot_interval``
  seconds.

The session is also the in-process debugger handle::

    rt = SmpssRuntime(live=True, live_start_paused=True)
    with rt:
        submit_everything()
        rt.live.add_break(name="spotrf_t")
        rt.live.step(5)
        ...
        rt.live.resume()
        rt.barrier()
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import deque
from typing import Optional

from ..core.scheduler import DispatchGate
from ..net.server import Server
from .protocol import PROTOCOL_VERSION, event_to_delta

__all__ = ["LiveSession"]


class LiveSession:
    """Control + event plane for one running :class:`SmpssRuntime`."""

    def __init__(self, runtime):
        self._runtime = runtime
        config = runtime.config
        self._interval = config.live_snapshot_interval
        self._tmpdir = None
        address = config.live_address
        if address is None:
            self._tmpdir = tempfile.mkdtemp(prefix="repro-live-")
            address = os.path.join(self._tmpdir, "live.sock")

        self.gate = DispatchGate()
        self.gate.bind(
            runtime._sched_lock, runtime._sched_cv, runtime._main_cv
        )
        self.gate.on_hold = self._on_hold
        if config.live_start_paused:
            # Direct field writes: workers do not exist yet, nothing to
            # wake, and the gate is visible before the first dispatch.
            self.gate.paused = True
            self.gate.engaged = True
        # The gate occupies scheduler.gate only while engaged, so an
        # idle live session adds zero cost at the dispatch point.
        self.gate.install(runtime.scheduler)

        #: Pending records: TraceEvent objects from the tap plus
        #: ready-made delta dicts (dispatch notifications, hold notes).
        #: deque.append is a single GIL-atomic op — safe from any
        #: thread without a lock.
        self._queue: deque = deque()
        self._closed = threading.Event()
        self._wake = threading.Event()

        runtime.tracer.listener = self._queue.append

        self.server = Server(
            address,
            self._handle_command,
            hello={
                "version": PROTOCOL_VERSION,
                "threads": runtime.num_threads,
                "backend": config.backend,
                "pid": os.getpid(),
            },
            name="repro-live",
        )
        self._publisher = threading.Thread(
            target=self._publish_loop, name="repro-live-publish", daemon=True
        )
        self._publisher.start()

    @property
    def address(self) -> str:
        """The bound address (the real port when ``tcp:...:0`` asked
        for an ephemeral one) — hand this to ``repro.live attach``."""

        return self.server.address

    # ------------------------------------------------------------------
    # control plane (thread-safe; usable in-process or via commands)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        self.gate.pause()
        self._note("paused")

    def resume(self) -> None:
        self.gate.resume()
        self._note("resumed")

    def step(self, n: int = 1) -> None:
        self.gate.step(n)

    def add_break(self, name: Optional[str] = None,
                  task_id: Optional[int] = None) -> None:
        self.gate.add_break(name=name, task_id=task_id)

    def remove_break(self, name: Optional[str] = None,
                     task_id: Optional[int] = None) -> None:
        self.gate.remove_break(name=name, task_id=task_id)

    def clear_breaks(self) -> None:
        self.gate.clear_breaks()

    def state(self) -> dict:
        """One control/occupancy snapshot (racy reads of scalar fields
        — self-consistent enough for a dashboard, never blocking the
        runtime)."""

        rt = self._runtime
        scheduler = rt.scheduler
        depths_fn = getattr(scheduler, "queue_depths", None)
        workers = []
        for idx, task in enumerate(rt._current):
            if task is None:
                workers.append(None)
            else:
                workers.append({"id": task.task_id, "name": task.name})
        state = dict(self.gate.state())
        state.update(
            running=rt._running,
            parked=rt._parked,
            main_waiting=rt._main_asleep,
            ready=scheduler.ready_count,
            pending=rt.graph.pending_count if rt.graph is not None else 0,
            executed=rt.tasks_executed,
            workers=workers,
            depths=depths_fn() if depths_fn is not None else None,
            clients=self.server.client_count,
        )
        return state

    # ------------------------------------------------------------------
    # hooks (called by the runtime / backends)
    # ------------------------------------------------------------------
    def notify_dispatch(self, task, thread: int) -> None:
        """Process backend: *task* was handed to worker *thread*'s
        process.  Its ``running`` event only arrives with the reply, so
        this is the dashboard's only timely "it left the queue"."""

        self._queue.append(
            {
                "ev": "task",
                "id": task.task_id,
                "name": task.name,
                "state": "dispatched",
                "t": None,
                "thread": thread,
            }
        )
        self._wake.set()

    def _on_hold(self, task) -> None:
        # Called under the scheduler lock: enqueue only.
        self._queue.append(
            {
                "ev": "note",
                "text": (
                    f"breakpoint: held task #{task.task_id} "
                    f"{task.name!r}; runtime paused"
                ),
                "held": task.task_id,
            }
        )
        self._wake.set()

    def _note(self, text: str) -> None:
        self._queue.append({"ev": "note", "text": text})
        self._wake.set()

    def release_for_shutdown(self) -> None:
        """Lift pause/breakpoints so runtime shutdown cannot hang on a
        detached debugger (called by ``SmpssRuntime.shutdown``)."""

        gate = self.gate
        if gate.paused or gate.break_names or gate.break_ids:
            self._note("shutdown: releasing gate (pause/breakpoints cleared)")
            gate.clear_breaks()
            gate.resume()

    # ------------------------------------------------------------------
    # command routing (server reader threads land here)
    # ------------------------------------------------------------------
    def _handle_command(self, command: dict) -> dict:
        cmd = command.get("cmd")
        if cmd == "pause":
            self.pause()
        elif cmd == "resume":
            self.resume()
        elif cmd == "step":
            self.step(int(command.get("n", 1)))
        elif cmd == "break":
            name = command.get("name")
            task_id = command.get("id")
            if command.get("remove"):
                self.remove_break(name=name, task_id=task_id)
            else:
                self.add_break(name=name, task_id=task_id)
        elif cmd == "clear":
            self.clear_breaks()
        elif cmd in ("state", "ping"):
            pass  # the state below is the answer
        else:
            raise ValueError(f"unknown command {cmd!r}")
        return self.state()

    # ------------------------------------------------------------------
    # event plane
    # ------------------------------------------------------------------
    def _publish_loop(self) -> None:
        queue = self._queue
        server = self.server
        last_snapshot = 0.0
        while True:
            closing = self._closed.is_set()
            while queue:
                record = queue.popleft()
                if not isinstance(record, dict):
                    record = event_to_delta(record)
                    if record is None:
                        continue
                server.publish(record)
            if closing:
                # close() detaches the tracer listener before setting
                # the flag, so the drain above saw the final event.
                server.publish(self._snapshot_record(), retain=False)
                return
            now = time.monotonic()
            if now - last_snapshot >= self._interval:
                server.publish(self._snapshot_record(), retain=False)
                last_snapshot = now
            # The tap is a bare deque.append (no wakeup — nothing
            # heavier is allowed on the emitting thread), so the drain
            # polls; dispatch/hold/note records set the event to cut
            # their latency.
            if self._wake.wait(0.02):
                self._wake.clear()

    def _snapshot_record(self) -> dict:
        record = {"ev": "snapshot"}
        record.update(self.state())
        return record

    def close(self) -> None:
        runtime = self._runtime
        if runtime.tracer is not None:
            runtime.tracer.listener = None
        self._closed.set()
        self._wake.set()
        self._publisher.join(timeout=5.0)
        self.server.close()
        if self._tmpdir is not None:
            try:
                os.rmdir(self._tmpdir)
            except OSError:
                pass
