"""The ready-task dispatch core under the runtime and the service.

Worker threads pop the §III :class:`~repro.core.scheduler.SmpssScheduler`,
run the body through the executor, complete the task and push the
successors it released onto their own list.  :class:`Engine` is that
loop, written once; :class:`~repro.core.runtime.SmpssRuntime` and
:class:`~repro.serve.engine.ServeEngine` are front ends on it.

Thread 0 is the front end's own thread: the runtime's main thread,
which pops while blocked and sleeps on ``_main_cv``.  The service has
none, so slot 0 is never popped.  Worker *k* (1..W) runs bodies on
executor slot *k*.  A front end supplies what a completion does to its
graph (:meth:`Engine._complete`) and its failure policy: the runtime
sets ``_failure``, which stops every worker popping; the service's
:meth:`Engine._begin` skips the bodies of a failed job's tasks.
"""

from __future__ import annotations

import threading
from typing import Optional

from .task import TaskInstance

__all__ = ["Engine"]


class Engine:
    """One scheduler, its lock, its workers and the one run step."""

    def __init__(self):
        self.scheduler = None
        #: Where task bodies run (see :class:`repro.core.runtime.Executor`).
        self.executor = None
        #: Scheduler lock: ready lists, running count, wakeup traffic.
        #: Workers sleep on ``_sched_cv`` (woken ``notify(k)`` per batch
        #: of k released tasks); thread 0 sleeps on ``_main_cv`` (woken
        #: once per completion, and only while actually waiting).
        self._sched_lock = threading.Lock()
        self._sched_cv = threading.Condition(self._sched_lock)
        self._main_cv = threading.Condition(self._sched_lock)
        self._main_asleep = False
        self._threads: list[threading.Thread] = []
        self._running = 0
        #: Worker threads currently blocked in ``cv.wait()``.
        self._parked = 0
        #: Per-thread task currently executing (``None`` when idle);
        #: written only by the owning thread, read racily by snapshots.
        self._current: list = []
        self._stop = False
        #: A failure that ends the whole run: workers stop popping.
        self._failure: Optional[BaseException] = None

    def _reset_dispatch(self, scheduler) -> None:
        """Install *scheduler* and zero the per-run dispatch state."""

        self.scheduler = scheduler
        scheduler.placement = self.executor.placement
        self._stop = False
        self._failure = None
        self._current = [None] * scheduler.num_threads
        self._parked = 0

    def _start_workers(self, name: str) -> None:
        for idx in range(1, self.scheduler.num_threads):
            thread = threading.Thread(
                target=self._worker_loop, args=(idx,), name=f"{name}-{idx}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _stop_workers(self, timeout: Optional[float] = None) -> None:
        with self._sched_lock:
            self._stop = True
            self._sched_cv.notify_all()
            self._main_cv.notify_all()
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()

    def _worker_loop(self, idx: int) -> None:
        cv = self._sched_cv
        scheduler = self.scheduler
        while True:
            task = None
            with cv:
                while not self._stop:
                    if self._failure is None:
                        task = scheduler.pop(idx)
                    if task is not None:
                        self._running += 1
                        break
                    self._parked += 1
                    try:
                        cv.wait()
                    finally:
                        self._parked -= 1
                if task is None:
                    return
            self._execute(task, idx)

    def _execute(self, task: TaskInstance, thread: int) -> None:
        self._current[thread] = task
        # Anything raised here is a caller-side bug; it still goes to
        # the failure policy, since a worker dying silently would leave
        # `_running` stuck and hang whoever waits on it.
        try:
            if self._begin(task, thread):
                cause, duration = self.executor.run(task, thread)
            else:
                cause, duration = None, 0.0
        except BaseException as exc:  # noqa: BLE001 - the policy reports it
            cause, duration = exc, 0.0
        task.executed_by = thread
        self._current[thread] = None
        newly_ready = self._complete(task, thread, cause, duration)
        with self._sched_lock:
            if newly_ready:
                self.scheduler.push_ready_batch(newly_ready, thread)
            self._running -= 1
            # Batched wakeups: one worker per released successor (this
            # thread re-pops without sleeping), everyone on a run-ending
            # failure so they drain, and thread 0 only while it sleeps.
            if self._failure is not None:
                self._sched_cv.notify_all()
            elif newly_ready:
                self._sched_cv.notify(len(newly_ready))
            if self._main_asleep:
                self._main_cv.notify()

    def _begin(self, task: TaskInstance, thread: int) -> bool:
        """Before *task*'s body runs; ``False`` completes it unrun."""

        return True

    def _complete(self, task: TaskInstance, thread: int,
                  cause: Optional[BaseException], duration: float) -> list:
        """Record one finished (or skipped) task outside the scheduler
        lock; return the tasks it released."""

        raise NotImplementedError
