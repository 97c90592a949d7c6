"""The executor contract, driven standalone.

Each backend's executor is built from explicit arguments — no runtime
object — and driven the way ``SmpssRuntime`` and the service engine
drive it: ``start`` for the slot count, ``run`` returning
``(cause, duration)`` on a passing and on a raising body,
``barrier_sync`` to bring data home, ``liveness``, then ``stop``.
"""

import threading

import numpy as np
import pytest

from repro import css_task
from repro.core.config import RuntimeConfig
from repro.core.dependencies import DependencyTracker
from repro.core.graph import TaskGraph
from repro.core.invocation import plan_for
from repro.core.runtime import Executor, InlineExecutor
from repro.core.transfer import RemoteTaskError
from repro.dist import AgentServer, ClusterBackend
from repro.mp import ProcessBackend
from repro.obs.metrics import MetricsRegistry

pytestmark = [pytest.mark.mp, pytest.mark.dist]


@css_task("inout(a)")
def bump_t(a):
    a += 1.0


@css_task("inout(a)")
def raise_t(a):
    raise ValueError("body failed")


@pytest.fixture(params=["inline", "processes", "cluster"])
def executor(request):
    metrics = MetricsRegistry()
    agent = None
    if request.param == "inline":
        built = InlineExecutor(2, threading.local())
    elif request.param == "processes":
        built = ProcessBackend(2, metrics)
    else:
        agent = AgentServer("tcp:127.0.0.1:0", slots=2).start()
        config = RuntimeConfig(backend="cluster", nodes=[agent.address])
        built = ClusterBackend(config, metrics)
    try:
        yield built
    finally:
        built.stop()
        if agent is not None:
            agent.close()


def _analysed(definition, *args):
    """A task instance analysed by a bare tracker, as a runtime would."""

    tracker = DependencyTracker(TaskGraph())
    task = plan_for(definition).instantiate(args, {}, {})
    tracker.analyze(task)
    return task


def test_run_liveness_stop_on_passing_and_raising_bodies(executor):
    assert isinstance(executor, Executor)
    assert executor.start() == 2
    liveness = executor.liveness()
    assert [w["slot"] for w in liveness] == [1, 2]
    assert all(w["alive"] for w in liveness)

    data = np.zeros(4)
    cause, duration = executor.run(_analysed(bump_t.definition, data), 1)
    assert cause is None
    assert duration >= 0.0
    executor.barrier_sync()
    assert np.array_equal(data, np.ones(4))

    cause, _ = executor.run(_analysed(raise_t.definition, data), 2)
    if executor.in_process:
        assert isinstance(cause, ValueError)
    else:
        assert isinstance(cause, RemoteTaskError)
    assert "body failed" in str(cause)
    assert all(w["alive"] for w in executor.liveness())

    executor.stop()
    executor.stop()  # idempotent, never raises
