"""Tests for the section III scheduling policy."""

import pytest

from repro.core.scheduler import CentralQueueScheduler, SmpssScheduler
from repro.core.task import TaskDefinition, TaskInstance, TaskState, reset_task_ids


def make_tasks(count, high_priority=False):
    reset_task_ids()
    defn = TaskDefinition(func=lambda: None, params=(), name="t")
    return [
        TaskInstance(
            definition=defn, accesses=[], arguments={},
            high_priority=high_priority,
        )
        for _ in range(count)
    ]


def task(name="t", hp=False):
    defn = TaskDefinition(func=lambda: None, params=(), name=name)
    return TaskInstance(definition=defn, accesses=[], arguments={}, high_priority=hp)


class TestMainList:
    def test_new_tasks_fifo_from_main(self):
        s = SmpssScheduler(num_threads=2)
        tasks = make_tasks(3)
        for t in tasks:
            s.push_new(t)
        assert s.pop(0) is tasks[0]
        assert s.pop(1) is tasks[1]
        assert s.pop(0) is tasks[2]

    def test_pop_empty(self):
        s = SmpssScheduler(num_threads=2)
        assert s.pop(0) is None
        assert s.stats.failed_pops == 1


class TestHighPriority:
    def test_high_priority_first(self):
        s = SmpssScheduler(num_threads=2)
        normal = task("n")
        hp = task("h", hp=True)
        s.push_new(normal)
        s.push_new(hp)
        assert s.pop(0) is hp
        assert s.pop(0) is normal

    def test_high_priority_beats_own_list(self):
        s = SmpssScheduler(num_threads=2)
        own = task("own")
        s.push_ready_batch([own], 1)
        hp = task("h", hp=True)
        s.push_new(hp)
        assert s.pop(1) is hp

    def test_unlocked_high_priority_goes_global(self):
        s = SmpssScheduler(num_threads=3)
        hp = task("h", hp=True)
        s.push_ready_batch([hp], 2)
        # Any thread sees it first, not just thread 2.
        assert s.pop(1) is hp


class TestOwnListLifo:
    def test_own_list_lifo(self):
        """'Threads consume tasks from their own list in LIFO order.'"""

        s = SmpssScheduler(num_threads=2)
        a, b, c = task("a"), task("b"), task("c")
        for t in (a, b, c):
            s.push_ready_batch([t], 1)
        assert s.pop(1) is c
        assert s.pop(1) is b
        assert s.pop(1) is a

    def test_own_before_main(self):
        s = SmpssScheduler(num_threads=2)
        main_task = task("main")
        own_task = task("own")
        s.push_new(main_task)
        s.push_ready_batch([own_task], 1)
        assert s.pop(1) is own_task


class TestStealing:
    def test_steal_fifo(self):
        """'they steal from other threads in FIFO order' — the oldest."""

        s = SmpssScheduler(num_threads=2)
        a, b = task("a"), task("b")
        s.push_ready_batch([a], 1)
        s.push_ready_batch([b], 1)
        assert s.pop(0) is a  # stolen: FIFO end (victim pops LIFO end)
        assert s.stats.steals == 1

    def test_steal_order_creation_from_next(self):
        """'steal work from other threads in creation order starting
        from the next one.'"""

        s = SmpssScheduler(num_threads=4)
        v2, v3 = task("v2"), task("v3")
        s.push_ready_batch([v2], 2)
        s.push_ready_batch([v3], 3)
        # Thread 1 starts its scan at thread 2.
        assert s.pop(1) is v2
        # Thread 1 again: thread 2 empty now, wraps to 3.
        assert s.pop(1) is v3

    def test_steal_wraps_around(self):
        s = SmpssScheduler(num_threads=3)
        v0 = task("v0")
        s.push_ready_batch([v0], 0)
        assert s.pop(2) is v0  # 2 -> scan 0, 1

    def test_no_self_steal_double_pop(self):
        s = SmpssScheduler(num_threads=2)
        a = task("a")
        s.push_ready_batch([a], 1)
        assert s.pop(1) is a
        assert s.pop(1) is None


class TestAccounting:
    def test_ready_count(self):
        s = SmpssScheduler(num_threads=2)
        tasks = [task() for _ in range(3)]
        for t in tasks:
            s.push_new(t)
        assert s.ready_count == 3
        s.pop(0)
        assert s.ready_count == 2
        assert s.has_ready()

    def test_state_transitions(self):
        s = SmpssScheduler(num_threads=1)
        t = task()
        s.push_new(t)
        assert t.state is TaskState.READY
        s.pop(0)
        assert t.state is TaskState.RUNNING

    def test_needs_main_thread(self):
        with pytest.raises(ValueError):
            SmpssScheduler(num_threads=0)


class TestCentralQueue:
    """The CellSs/SuperMatrix-style ablation scheduler (section VII)."""

    def test_global_fifo(self):
        s = CentralQueueScheduler(num_threads=4)
        a, b = task("a"), task("b")
        s.push_ready_batch([a], 2)
        s.push_ready_batch([b], 3)
        # No per-thread affinity: everyone sees FIFO order.
        assert s.pop(1) is a
        assert s.pop(2) is b

    def test_high_priority(self):
        s = CentralQueueScheduler(num_threads=2)
        n, h = task("n"), task("h", hp=True)
        s.push_new(n)
        s.push_new(h)
        assert s.pop(0) is h

    def test_counts(self):
        s = CentralQueueScheduler(num_threads=2)
        s.push_new(task())
        assert s.has_ready()
        s.pop(0)
        assert not s.has_ready()
        assert s.pop(0) is None
