"""Discrete-event execution of task graphs on virtual cores.

The engine drives the *real* scheduler objects from
:mod:`repro.core.scheduler` — the section III policy runs unmodified;
only time is virtual.  Core 0 is the main thread (it executes tasks
only while the owner says it is helping); cores 1..P-1 are workers.

Two entry points:

* :class:`VirtualMachine` — incremental interface used by
  :class:`~repro.sim.simruntime.SimulatedRuntime`, which interleaves
  main-thread task generation with worker progress;
* :func:`run_static` — everything released at t=0 on P worker cores
  (used for the Cilk/OpenMP baseline DAGs of Figures 14-16).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

from ..core.graph import TaskGraph
from ..core.task import TaskInstance
from .cache import CoreCache
from .cost import CostModel
from .machine import MachineConfig

__all__ = ["VirtualMachine", "SimResult", "run_static"]


@dataclass
class SimResult:
    """Outcome of one simulated execution (or phase)."""

    makespan: float
    tasks_executed: int
    busy_time: list[float]
    steals: int = 0
    total_flops: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Virtual time each core spent paying steal overhead (included in
    #: its busy_time); the per-core steal cost the report breaks out.
    steal_time: list[float] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def utilisation(self) -> float:
        cores = len(self.busy_time)
        if self.makespan <= 0 or cores == 0:
            return 0.0
        return sum(self.busy_time) / (cores * self.makespan)

    def gflops(self, algorithmic_flops: float) -> float:
        return algorithmic_flops / self.makespan / 1e9 if self.makespan > 0 else 0.0

    def speedup(self, reference_time: float) -> float:
        return reference_time / self.makespan if self.makespan > 0 else 0.0


class VirtualMachine:
    """Virtual cores executing tasks from a scheduler, in virtual time."""

    def __init__(
        self,
        machine: MachineConfig,
        graph: TaskGraph,
        scheduler,
        cost_model: CostModel,
        tracer=None,
    ):
        self.machine = machine
        self.graph = graph
        self.scheduler = scheduler
        self.cost = cost_model
        self.tracer = tracer
        cores = machine.cores
        from .cache import ResidencyIndex

        self._residency = ResidencyIndex()
        self.caches = [
            CoreCache(machine.cache_bytes, core_id=i, residency=self._residency)
            for i in range(cores)
        ]
        #: (finish_time, seq, core, task) of running tasks.
        self.running: list[tuple[float, int, int, TaskInstance]] = []
        self._seq = 0
        #: worker cores with nothing to do (core 0 managed by the owner).
        self.idle: set[int] = set(range(1, cores))
        #: run_static mode: core 0 is a plain worker, not the main thread.
        self.main_is_worker = False
        self.busy_time = [0.0] * cores
        self.steal_time = [0.0] * cores
        self.tasks_executed = 0
        self.last_finish = 0.0
        #: Virtual timestamp of the event being processed; a Tracer
        #: whose clock reads this records virtual-time events (see
        #: :meth:`wire_tracer`).
        self.now = 0.0

    def wire_tracer(self, tracer) -> None:
        """Point *tracer*'s clock at this machine's virtual time."""

        tracer.clock = lambda: self.now
        self.tracer = tracer

    # ------------------------------------------------------------------
    # dispatch machinery
    # ------------------------------------------------------------------
    def pop_for(self, core: int) -> tuple[Optional[TaskInstance], bool]:
        """Pop per policy for *core*; reports whether the pop stole."""

        before = self.scheduler.stats.steals
        task = self.scheduler.pop(core)
        return task, self.scheduler.stats.steals > before

    def start_task(
        self, core: int, task: TaskInstance, start: float, stolen: bool = False
    ) -> float:
        """Begin *task* on *core* at *start*; returns its finish time."""

        self.now = start
        duration = self.cost.duration(task, self.caches[core])
        if stolen:
            duration += self.machine.steal_overhead
            self.steal_time[core] += self.machine.steal_overhead
        finish = start + duration
        self._seq += 1
        heapq.heappush(self.running, (finish, self._seq, core, task))
        self.idle.discard(core)
        self.busy_time[core] += duration
        self._invalidate_writers(core, task)
        if self.tracer:
            self.tracer.task_start(task, core)
        return finish

    def _invalidate_writers(self, core: int, task: TaskInstance) -> None:
        """Coherency: a write on *core* evicts the datum elsewhere."""

        for access in task.accesses:
            if access.direction.writes:
                key = id(access.value)
                holders = self._residency.get(key)
                if holders:
                    for other in list(holders):
                        if other != core:
                            self.caches[other].invalidate(key)

    def dispatch_idle(self, now: float) -> None:
        """Hand ready tasks to idle worker cores (in core order)."""

        # If a pop fails for one core, it fails for every core: the
        # policy's steal scan covers all other deques, so one failure
        # means every list is empty — no need to try the rest.
        while self.idle and self.scheduler.has_ready():
            core = min(self.idle)
            task, stolen = self.pop_for(core)
            if task is None:
                return
            self.start_task(core, task, now, stolen)

    def process_until(self, t_limit: Optional[float]) -> None:
        """Retire completions with finish <= t_limit (all, if None)."""

        while self.running and (
            t_limit is None or self.running[0][0] <= t_limit
        ):
            finish, _seq, core, task = heapq.heappop(self.running)
            self._complete(core, task, finish)

    def _complete(self, core: int, task: TaskInstance, finish: float) -> None:
        self.now = finish
        task.executed_by = core
        self.last_finish = max(self.last_finish, finish)
        self.scheduler.push_ready_batch(self.graph.complete(task), core)
        self.tasks_executed += 1
        if self.tracer:
            self.tracer.task_end(task, core)
        # The finishing core gets first pick (it just produced the
        # successor's input — the locality property of section III),
        # then any other idle cores.
        if core != 0 or self.main_is_worker:
            self.idle.add(core)
            task_next, stolen = self.pop_for(core)
            if task_next is not None:
                self.start_task(core, task_next, finish, stolen)
        self.dispatch_idle(finish)

    def next_event_time(self) -> Optional[float]:
        return self.running[0][0] if self.running else None

    def drain(self) -> float:
        """Retire every running/ready task; return the final finish time."""

        while True:
            self.process_until(None)
            if not self.scheduler.has_ready():
                break
            self.dispatch_idle(self.last_finish)
            if not self.running and self.scheduler.has_ready():
                # Only core 0 could ever run these (single-core machine).
                task = self.scheduler.pop(0)
                if task is None:
                    break
                self.start_task(0, task, self.last_finish)
        return self.last_finish

    def result(self, makespan: float) -> SimResult:
        return SimResult(
            makespan=makespan,
            tasks_executed=self.tasks_executed,
            busy_time=list(self.busy_time),
            steals=self.scheduler.stats.steals,
            total_flops=self.cost.total_flops,
            cache_hits=sum(c.hits for c in self.caches),
            cache_misses=sum(c.misses for c in self.caches),
            steal_time=list(self.steal_time),
        )


def run_static(
    graph: TaskGraph,
    machine: MachineConfig,
    cost_model: CostModel,
    scheduler_factory,
    tracer=None,
) -> SimResult:
    """Simulate a fully-built DAG, all roots released at t=0.

    All P cores act as workers (no separate generating thread): the
    execution model of the Cilk and OpenMP baselines, where the main
    thread blocks in a sync/taskwait and participates.
    """

    scheduler = scheduler_factory(machine.cores, tracer=tracer)
    vm = VirtualMachine(machine, graph, scheduler, cost_model, tracer)
    vm.main_is_worker = True
    vm.idle = set(range(machine.cores))  # core 0 is a plain worker here
    for task in list(graph.roots()):
        scheduler.push_new(task)
    vm.dispatch_idle(0.0)
    makespan = vm.drain()
    if graph.pending_count:
        raise RuntimeError(
            f"static simulation stalled with {graph.pending_count} tasks pending"
        )
    return vm.result(makespan)
