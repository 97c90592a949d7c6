"""The SMPSs ready-task scheduler (section III).

Shared verbatim by the threaded runtime and the discrete-event machine
simulator — both drive the exact same policy object, so the simulated
figures exercise the code path the real runtime uses.

Policy, quoting the paper:

* "There are two main ready lists, one for high priority tasks and one
  for normal priority tasks."
* "Each worker thread has its own ready list that contains tasks whose
  last input dependency has been removed by that thread."
* "Threads look up ready tasks first in the high priority list.  If it
  is empty, then they look up their own ready list.  If they do not
  succeed, they proceed to check out the main ready list.  In case of
  failure, they proceed to steal work from other threads in creation
  order starting from the next one."
* "Threads consume tasks from their own list in LIFO order, they get
  tasks from the main list in FIFO order, and they steal from other
  threads in FIFO order."

The LIFO-own / FIFO-steal combination walks the graph pseudo-depth-first
per thread and steals pseudo-breadth-first, keeping threads on disjoint
graph regions (cache-friendly) — the same discipline as Cilk, with a
locality motivation (section VII.D).
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Optional

from .task import TaskInstance, TaskState

__all__ = [
    "SmpssScheduler",
    "SchedulerStats",
    "CentralQueueScheduler",
    "HotStealScheduler",
    "DispatchGate",
]


@dataclass
class SchedulerStats:
    pushed_new: int = 0
    pushed_unlocked: int = 0
    pops_high: int = 0
    pops_local: int = 0
    pops_main: int = 0
    steals: int = 0
    #: Pushes routed by the placement hook (``scheduler.placement``)
    #: to a specific thread's list instead of the policy default.
    placed: int = 0
    failed_pops: int = 0
    #: Pop attempts that ended in the steal scan finding every victim
    #: deque empty.  The fast empty-check in :meth:`SmpssScheduler.pop`
    #: stands in for that full scan, so its failures count here too.
    failed_steals: int = 0
    #: Per-thread breakdowns (thread index -> count).
    pops_by_thread: Counter = field(default_factory=Counter)
    steals_by_thief: Counter = field(default_factory=Counter)
    steals_by_victim: Counter = field(default_factory=Counter)
    failed_pops_by_thread: Counter = field(default_factory=Counter)

    def as_dict(self) -> dict:
        """Flat dict form, the shape :class:`~repro.obs.MetricsRegistry`
        ingests (satellite of the observability issue: stats travel
        through the registry, not ad-hoc dataclass reads)."""

        return {
            "pushed_new": self.pushed_new,
            "pushed_unlocked": self.pushed_unlocked,
            "pops_high": self.pops_high,
            "pops_local": self.pops_local,
            "pops_main": self.pops_main,
            "steals": self.steals,
            "placed": self.placed,
            "failed_pops": self.failed_pops,
            "failed_steals": self.failed_steals,
            "pops_by_thread": dict(self.pops_by_thread),
            "steals_by_thief": dict(self.steals_by_thief),
            "steals_by_victim": dict(self.steals_by_victim),
            "failed_pops_by_thread": dict(self.failed_pops_by_thread),
        }


class DispatchGate:
    """Debugger control over the worker dispatch point (``repro.live``).

    The gate sits between "a ready task exists" and "a thread runs it":
    :meth:`SmpssScheduler.pop` consults it *under the scheduler lock*
    before committing a selection.  While paused, ``pop`` returns
    ``None`` and threads fall into their normal empty-queue parking on
    the runtime's condition variables — paused workers block, they do
    not spin.  ``step(n)`` grants *n* dispatch tickets; breakpoints
    (by task-type name or task id) hold a matching task at the boundary
    *before* it starts and pause the whole runtime.

    Locking contract: :meth:`admit` and :meth:`should_hold` are called
    by the scheduler with the runtime's scheduler lock already held and
    therefore touch plain fields only.  The control methods
    (:meth:`pause` / :meth:`resume` / :meth:`step` / breakpoint edits)
    are for *other* threads — the live control server, a debugger REPL —
    and take that same lock themselves, waking parked threads through
    the condition variables the runtime registered via :meth:`bind`.
    """

    def __init__(self):
        self.paused = False
        #: "Any control is active" — ``paused or breakpoints exist``.
        #: The gate only *occupies a scheduler's ``gate`` slot while
        #: engaged* (see :meth:`install`): a live session whose gate is
        #: wide open leaves ``scheduler.gate`` as ``None``, so dispatch
        #: pays exactly the ``live=False`` cost — one attribute load
        #: and a ``None`` check.  ``should_hold`` setting ``paused``
        #: never changes this (a hold requires breakpoints, so the gate
        #: is already engaged and installed).
        self.engaged = False
        self._schedulers: list = []
        #: Dispatch tickets granted by :meth:`step` (consumed by
        #: :meth:`admit` while paused).
        self.step_budget = 0
        self.break_names: set[str] = set()
        self.break_ids: set[int] = set()
        #: Task ids already held once: the next dispatch of that very
        #: instance passes the breakpoint (step/resume run *through* it
        #: rather than re-holding forever).
        self._skip_ids: set[int] = set()
        #: Breakpoint holds so far (monotonic; a "hits" counter).
        self.holds = 0
        #: Optional ``fn(task)`` invoked on a breakpoint hold, *under
        #: the scheduler lock* — must be fast and lock-free (the live
        #: session uses it to enqueue a "paused at breakpoint" delta).
        self.on_hold = None
        self._lock = threading.Lock()
        self._cvs: tuple = ()

    def bind(self, lock, *cvs) -> None:
        """Adopt the runtime's scheduler lock and the condition
        variables parked threads wait on (notified on resume/step)."""

        self._lock = lock
        self._cvs = tuple(cv for cv in cvs if cv is not None)

    def install(self, scheduler) -> None:
        """Manage *scheduler*'s ``gate`` slot from now on.

        The slot holds this gate only while :attr:`engaged`; control
        methods flip it under the bound lock, so workers mid-``pop``
        never observe a half-configured gate.  A gate assigned to
        ``scheduler.gate`` directly (without ``install``) also works —
        it is simply consulted on every pop, engaged or not.
        """

        self._schedulers.append(scheduler)
        scheduler.gate = self if self.engaged else None

    def _sync_installed(self) -> None:
        gate = self if self.engaged else None
        for scheduler in self._schedulers:
            scheduler.gate = gate

    # -- scheduler side (lock already held) -----------------------------
    def admit(self) -> bool:
        """May the calling thread dispatch one task right now?"""

        if not self.paused:
            return True
        if self.step_budget > 0:
            self.step_budget -= 1
            return True
        return False

    def should_hold(self, task) -> bool:
        """Breakpoint check for a just-selected *task*.

        Returns ``True`` when the task must be held at the boundary (the
        caller requeues it at the head of the ready lists); as a side
        effect the runtime pauses.  A task that was already held once is
        let through (and forgotten), so a subsequent ``step``/``resume``
        executes it instead of re-holding.
        """

        if not self.break_names and not self.break_ids:
            return False
        task_id = task.task_id
        if task_id in self._skip_ids:
            self._skip_ids.discard(task_id)
            return False
        if task.name in self.break_names or task_id in self.break_ids:
            self._skip_ids.add(task_id)
            self.paused = True
            self.holds += 1
            on_hold = self.on_hold
            if on_hold is not None:
                on_hold(task)
            return True
        return False

    # -- control side (takes the lock itself) ---------------------------
    def _notify(self, n: Optional[int] = None) -> None:
        for cv in self._cvs:
            if n is None:
                cv.notify_all()
            else:
                cv.notify(n)

    def _recompute_engaged(self) -> None:
        self.engaged = bool(
            self.paused or self.break_names or self.break_ids
        )
        self._sync_installed()

    def pause(self) -> None:
        with self._lock:
            self.paused = True
            self.engaged = True
            self._sync_installed()

    def resume(self) -> None:
        """Drop the gate: clear pause and any unused step budget."""

        with self._lock:
            self.paused = False
            self.step_budget = 0
            self._recompute_engaged()
            self._notify()

    def step(self, n: int = 1) -> None:
        """Grant *n* dispatch tickets (pauses first if free-running).

        A ticket is consumed by the dispatch *attempt* — a breakpoint
        hold eats one, so ``step(5)`` at a fresh breakpoint runs the
        held task plus three more.
        """

        if n < 1:
            raise ValueError("step(n) needs n >= 1")
        with self._lock:
            self.paused = True
            self.engaged = True
            self._sync_installed()
            self.step_budget += n
            self._notify(n)

    def add_break(self, name: Optional[str] = None,
                  task_id: Optional[int] = None) -> None:
        if name is None and task_id is None:
            raise ValueError("breakpoint needs a task-type name or a task id")
        with self._lock:
            if name is not None:
                self.break_names.add(name)
            if task_id is not None:
                self.break_ids.add(int(task_id))
            self.engaged = True
            self._sync_installed()

    def remove_break(self, name: Optional[str] = None,
                     task_id: Optional[int] = None) -> None:
        with self._lock:
            if name is not None:
                self.break_names.discard(name)
            if task_id is not None:
                self.break_ids.discard(int(task_id))
            self._recompute_engaged()

    def clear_breaks(self) -> None:
        with self._lock:
            self.break_names.clear()
            self.break_ids.clear()
            self._skip_ids.clear()
            self._recompute_engaged()

    def state(self) -> dict:
        """Plain-data control state (for snapshots; lock-free read of
        scalar fields, consistent enough for display)."""

        return {
            "paused": self.paused,
            "step_budget": self.step_budget,
            "break_names": sorted(self.break_names),
            "break_ids": sorted(self.break_ids),
            "holds": self.holds,
        }


class SmpssScheduler:
    """Ready lists + the section III selection policy.

    Thread index 0 is the main thread (which "also contributes to run
    tasks" while blocked); 1..num_workers are the worker threads.  The
    structure is *not* internally locked — the owning runtime serialises
    access (threaded backend) or is single-threaded (simulator).
    """

    def __init__(self, num_threads: int, tracer=None):
        if num_threads < 1:
            raise ValueError("need at least the main thread")
        self.num_threads = num_threads
        self.high: deque[TaskInstance] = deque()
        self.main: deque[TaskInstance] = deque()
        self.locals: list[deque[TaskInstance]] = [deque() for _ in range(num_threads)]
        self.stats = SchedulerStats()
        # Normalise falsy tracers (NullTracer) to None: the push/pop hot
        # path then pays a plain None check instead of a Python-level
        # __bool__ call per operation (~5% on this path).
        self.tracer = tracer if tracer else None
        #: Optional :class:`DispatchGate` (``repro.live``); ``None`` —
        #: the default — costs one attribute load per pop.
        self.gate: Optional[DispatchGate] = None
        #: Optional locality hook ``fn(task) -> thread_index | None``
        #: (``repro.dist`` installs one that prefers the node already
        #: holding the most input bytes).  Consulted on every normal-
        #: priority push *under the owner's lock*; returning a thread
        #: index routes the task onto that thread's own list, ``None``
        #: keeps the paper's default (main list / unlocking thread).
        #: High-priority tasks are never placed — the paper schedules
        #: them "independently of any locality consideration".
        self.placement = None
        self._ready_count = 0

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def push_new(self, task: TaskInstance) -> None:
        """A task added to the graph with no unsatisfied dependency.

        "Whenever a task is added without any input dependency, it is
        moved into the main ready list or the high priority list."
        """

        task.state = TaskState.READY
        if task.high_priority:
            self.high.append(task)
        else:
            target = None
            if self.placement is not None:
                target = self.placement(task)
            if target is None:
                self.main.append(task)
            else:
                self.locals[target].append(task)
                self.stats.placed += 1
        self.stats.pushed_new += 1
        self._ready_count += 1
        if self.tracer:
            self.tracer.task_ready(task)

    def push_ready_batch(self, tasks, thread: int) -> None:
        """All tasks released by one completion on *thread*, together.

        Normal-priority tasks go to *thread*'s own list ("tasks whose
        last input dependency has been removed by that thread") unless
        the placement hook routes them; high-priority tasks go to the
        global high list.  One call per completion pairs with the
        caller's batched ``notify(len(tasks))`` wakeup.
        """

        own = self.locals[thread]
        high = self.high
        stats = self.stats
        tracer = self.tracer
        placement = self.placement
        for task in tasks:
            task.state = TaskState.READY
            if task.high_priority:
                high.append(task)
            elif placement is None:
                own.append(task)
            else:
                target = placement(task)
                if target is None:
                    own.append(task)
                else:
                    self.locals[target].append(task)
                    if target != thread:
                        stats.placed += 1
            if tracer:
                tracer.task_ready(task, thread)
        stats.pushed_unlocked += len(tasks)
        self._ready_count += len(tasks)

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def pop(self, thread: int) -> Optional[TaskInstance]:
        """Pick the next task for *thread* according to the policy."""

        if self._ready_count == 0:
            self.stats.failed_pops += 1
            self.stats.failed_pops_by_thread[thread] += 1
            # Every list being empty means the steal scan would have
            # come up dry as well — the fast path subsumes it.
            self.stats.failed_steals += 1
            return None
        gate = self.gate
        # An installed gate occupies this slot only while engaged
        # (DispatchGate.install), so a live session with nothing
        # paused/held costs exactly one None check here — the
        # microbench pins it at <5% over live=False.
        if gate is not None:
            if not gate.admit():
                # Paused: no stats — this is a debugger hold, not a
                # scheduling failure.  The caller parks on its cv.
                return None
            task = self._select(thread)
            if task is not None and gate.should_hold(task):
                # Held at the boundary: requeue at the head of the high
                # list so the held task is the next dispatch once the
                # user steps/resumes.  (The per-list pop counter above
                # already counted the aborted selection — a known,
                # documented skew while a debugger holds tasks.)
                self.high.appendleft(task)
                return None
        else:
            task = self._select(thread)
        if task is None:
            self.stats.failed_pops += 1
            self.stats.failed_pops_by_thread[thread] += 1
            return None
        task.state = TaskState.RUNNING
        self._ready_count -= 1
        self.stats.pops_by_thread[thread] += 1
        return task

    def _select(self, thread: int) -> Optional[TaskInstance]:
        if self.high:
            self.stats.pops_high += 1
            return self.high.popleft()  # FIFO
        own = self.locals[thread]
        if own:
            self.stats.pops_local += 1
            return own.pop()  # LIFO
        if self.main:
            self.stats.pops_main += 1
            return self.main.popleft()  # FIFO
        # Steal in creation order starting from the next thread, FIFO —
        # the task "that has spent most time on the queue and has more
        # probability of having most of its input data already evicted
        # from the cache" of the victim.
        for offset in range(1, self.num_threads):
            victim = (thread + offset) % self.num_threads
            queue = self.locals[victim]
            if queue:
                self.stats.steals += 1
                self.stats.steals_by_thief[thread] += 1
                self.stats.steals_by_victim[victim] += 1
                task = queue.popleft()
                if self.tracer:
                    self.tracer.steal(task, thief=thread, victim=victim)
                return task
        self.stats.failed_steals += 1
        return None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def ready_count(self) -> int:
        return self._ready_count

    def has_ready(self) -> bool:
        return self._ready_count > 0

    def queue_depths(self) -> dict:
        """Instantaneous per-list depths (read under the owner's lock).

        One source of truth for both the live dashboard snapshots and
        the ``scheduler.*_depth`` gauges the runtime publishes.
        """

        return {
            "high": len(self.high),
            "main": len(self.main),
            "locals": [len(queue) for queue in self.locals],
        }

    def queue_imbalance(self) -> tuple[int, float]:
        """``(deepest_local_depth, its_share_of_all_ready)``.

        The health watchdog's imbalance signal: a single per-thread LIFO
        hoarding most of the ready work while other threads would have
        to steal one-by-one.  Racy read (the watchdog samples without
        the scheduler lock); both values are display/diagnosis numbers,
        never control flow inside the scheduler.
        """

        total = self._ready_count
        if total <= 0 or not self.locals:
            return (0, 0.0)
        deepest = max(len(queue) for queue in self.locals)
        return (deepest, deepest / max(1, total))


class HotStealScheduler(SmpssScheduler):
    """Ablation: steal from the LIFO (hot) end of the victim's deque.

    The paper steals in FIFO order "to minimize the effect on the cache
    of the victim thread by choosing the task that has spent most time
    on the queue".  This variant steals the task the victim would run
    next — maximising cache disturbance — so the benefit of the FIFO
    choice can be measured (``benchmarks/bench_ablations.py``).
    """

    def _select(self, thread: int):
        if self.high:
            self.stats.pops_high += 1
            return self.high.popleft()
        own = self.locals[thread]
        if own:
            self.stats.pops_local += 1
            return own.pop()
        if self.main:
            self.stats.pops_main += 1
            return self.main.popleft()
        for offset in range(1, self.num_threads):
            victim = (thread + offset) % self.num_threads
            queue = self.locals[victim]
            if queue:
                self.stats.steals += 1
                self.stats.steals_by_thief[thread] += 1
                self.stats.steals_by_victim[victim] += 1
                task = queue.pop()  # LIFO end: the victim's hot task
                if self.tracer:
                    self.tracer.steal(task, thief=thread, victim=victim)
                return task
        self.stats.failed_steals += 1
        return None


class CentralQueueScheduler:
    """Ablation: a single global FIFO ready queue, no locality lists.

    Models the CellSs / SuperMatrix organisation the paper contrasts
    with in section VII ("SuperMatrix has a central ready queue", "CellSs
    has a unique queue and does not employ work-stealing").  Exposes the
    same interface as :class:`SmpssScheduler` so both runtimes accept it.
    """

    def __init__(self, num_threads: int, tracer=None):
        self.num_threads = num_threads
        self.high: deque[TaskInstance] = deque()
        self.queue: deque[TaskInstance] = deque()
        self.stats = SchedulerStats()
        self.tracer = tracer if tracer else None  # see SmpssScheduler
        self.gate: Optional[DispatchGate] = None  # see SmpssScheduler
        self._ready_count = 0

    def push_new(self, task: TaskInstance) -> None:
        task.state = TaskState.READY
        (self.high if task.high_priority else self.queue).append(task)
        self.stats.pushed_new += 1
        self._ready_count += 1
        if self.tracer:
            self.tracer.task_ready(task)

    def push_ready_batch(self, tasks, thread: int) -> None:
        """Every released task joins the one queue (high list aside)."""

        for task in tasks:
            task.state = TaskState.READY
            (self.high if task.high_priority else self.queue).append(task)
            self.stats.pushed_unlocked += 1
            self._ready_count += 1
            if self.tracer:
                self.tracer.task_ready(task, thread)

    def pop(self, thread: int) -> Optional[TaskInstance]:
        source = self.high if self.high else self.queue
        if not source:
            self.stats.failed_pops += 1
            self.stats.failed_pops_by_thread[thread] += 1
            return None
        gate = self.gate
        if gate is not None:  # engaged-only slot; see SmpssScheduler.pop
            if not gate.admit():
                return None
            task = source.popleft()
            if gate.should_hold(task):
                self.high.appendleft(task)  # next dispatch; see SmpssScheduler
                return None
        else:
            task = source.popleft()
        task.state = TaskState.RUNNING
        self._ready_count -= 1
        self.stats.pops_main += 1
        self.stats.pops_by_thread[thread] += 1
        return task

    @property
    def ready_count(self) -> int:
        return self._ready_count

    def has_ready(self) -> bool:
        return self._ready_count > 0

    def queue_depths(self) -> dict:
        """See :meth:`SmpssScheduler.queue_depths` (no per-thread lists)."""

        return {
            "high": len(self.high),
            "main": len(self.queue),
            "locals": [],
        }

    def queue_imbalance(self) -> tuple[int, float]:
        """A central queue cannot be imbalanced; interface parity."""

        return (0, 0.0)
