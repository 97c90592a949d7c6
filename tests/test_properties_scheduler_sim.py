"""Property-based tests for scheduler and simulator invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import (
    CentralQueueScheduler,
    HotStealScheduler,
    SmpssScheduler,
)
from repro.core.task import TaskDefinition, TaskInstance, TaskState, reset_task_ids
from repro.sim import CostModel, MachineConfig, run_static
from repro.sim.baselines import DagTemplate


_DEFN = TaskDefinition(func=lambda: None, params=(), name="t")


def make_task(hp=False):
    return TaskInstance(definition=_DEFN, accesses=[], arguments={},
                        high_priority=hp)


# ---------------------------------------------------------------------------
# Scheduler fuzz: random interleavings of pushes and pops.
# ---------------------------------------------------------------------------

op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("new"), st.booleans()),
        st.tuples(st.just("unlock"), st.integers(0, 3)),
        st.tuples(st.just("pop"), st.integers(0, 3)),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=op_strategy)
@pytest.mark.parametrize(
    "factory", [SmpssScheduler, HotStealScheduler, CentralQueueScheduler]
)
def test_scheduler_conservation(factory, ops):
    """No task is lost or duplicated under any push/pop interleaving,
    ready_count is exact, and popped tasks are RUNNING."""

    reset_task_ids()
    scheduler = factory(num_threads=4)
    pushed: set[int] = set()
    popped: set[int] = set()
    for op in ops:
        if op[0] == "new":
            task = make_task(hp=op[1])
            scheduler.push_new(task)
            pushed.add(task.task_id)
        elif op[0] == "unlock":
            task = make_task()
            scheduler.push_ready_batch([task], op[1])
            pushed.add(task.task_id)
        else:
            task = scheduler.pop(op[1])
            if task is not None:
                assert task.state is TaskState.RUNNING
                assert task.task_id not in popped, "double pop!"
                popped.add(task.task_id)
        assert scheduler.ready_count == len(pushed) - len(popped)
    # Drain: everything pushed must eventually come out exactly once.
    while True:
        task = scheduler.pop(0)
        if task is None:
            break
        assert task.task_id not in popped
        popped.add(task.task_id)
    assert popped == pushed
    assert scheduler.ready_count == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=30),
)
def test_high_priority_always_first(unlocking_threads):
    """Whenever the high list is non-empty, any pop returns from it."""

    reset_task_ids()
    scheduler = SmpssScheduler(num_threads=4)
    for thread in unlocking_threads:
        scheduler.push_ready_batch([make_task()], thread)
    hp = make_task(hp=True)
    scheduler.push_new(hp)
    assert scheduler.pop(2) is hp


# ---------------------------------------------------------------------------
# Simulator: random DAGs respect work/span bounds and dependencies.
# ---------------------------------------------------------------------------


@st.composite
def random_dag(draw):
    count = draw(st.integers(1, 30))
    durations = draw(
        st.lists(
            st.floats(0.001, 1.0, allow_nan=False),
            min_size=count, max_size=count,
        )
    )
    dag = DagTemplate()
    for d in durations:
        dag.add_node("w", d)
    # Forward edges only (guaranteed acyclic).
    for succ in range(1, count):
        n_preds = draw(st.integers(0, min(3, succ)))
        preds = draw(
            st.lists(
                st.integers(0, succ - 1),
                min_size=n_preds, max_size=n_preds, unique=True,
            )
        )
        for pred in preds:
            dag.add_edge(pred, succ)
    return dag


def quiet_machine(cores):
    return MachineConfig(
        cores=cores,
        task_add_overhead=0.0,
        task_dispatch_overhead=0.0,
        steal_overhead=0.0,
        rename_alloc_overhead=0.0,
    )


@settings(max_examples=40, deadline=None)
@given(dag=random_dag(), cores=st.integers(1, 6))
def test_simulated_makespan_within_greedy_bounds(dag, cores):
    machine = quiet_machine(cores)
    result = run_static(
        dag.build(), machine, CostModel(machine, block_size=1), SmpssScheduler
    )
    work = dag.total_work
    span = dag.critical_path()
    assert result.tasks_executed == len(dag.nodes)
    lower = max(work / cores, span)
    upper = work / cores + span
    assert result.makespan >= lower - 1e-9
    assert result.makespan <= upper + 1e-9


@settings(max_examples=25, deadline=None)
@given(dag=random_dag())
def test_single_core_makespan_equals_work(dag):
    machine = quiet_machine(1)
    result = run_static(
        dag.build(), machine, CostModel(machine, block_size=1), SmpssScheduler
    )
    assert result.makespan == pytest.approx(dag.total_work)


@settings(max_examples=25, deadline=None)
@given(dag=random_dag(), cores=st.integers(2, 5))
def test_more_cores_never_slower(dag, cores):
    def run(c):
        machine = quiet_machine(c)
        return run_static(
            dag.build(), machine, CostModel(machine, block_size=1), SmpssScheduler
        ).makespan

    # Greedy scheduling anomalies can exceed 1.0 slightly in theory
    # bounded by the (work/P + span) envelope; check against it.
    t_few = run(cores - 1)
    t_many = run(cores)
    span = dag.critical_path()
    assert t_many <= t_few + span + 1e-9


@settings(max_examples=25, deadline=None)
@given(dag=random_dag(), cores=st.integers(1, 5))
def test_all_schedulers_execute_everything(dag, cores):
    for factory in (SmpssScheduler, HotStealScheduler, CentralQueueScheduler):
        machine = quiet_machine(cores)
        result = run_static(
            dag.build(), machine, CostModel(machine, block_size=1), factory
        )
        assert result.tasks_executed == len(dag.nodes)
