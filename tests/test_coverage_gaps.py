"""Tests for smaller paths not exercised elsewhere."""

import numpy as np
import pytest

from repro import SmpssRuntime, css_task
from repro.apps.cholesky import run_hyper
from repro.apps.matmul import run_dense
from repro.blas.hypermatrix import HyperMatrix


class TestAppRunners:
    def test_run_dense_with_and_without_runtime(self):
        a = HyperMatrix.random(2, 4, np.float64, seed=0)
        b = HyperMatrix.random(2, 4, np.float64, seed=1)
        expected = a.to_dense() @ b.to_dense()

        c = HyperMatrix.zeros(2, 4, np.float64)
        run_dense(a, b, c)  # sequential path
        assert np.allclose(c.to_dense(), expected)

        c2 = HyperMatrix.zeros(2, 4, np.float64)
        with SmpssRuntime(num_workers=2):
            run_dense(a, b, c2)  # barriers internally
            assert np.allclose(c2.to_dense(), expected)

    def test_run_hyper(self):
        hm = HyperMatrix.random_spd(3, 4, seed=2)
        dense = hm.to_dense()
        import scipy.linalg as sla

        with SmpssRuntime(num_workers=2):
            run_hyper(hm)
            assert np.allclose(
                hm.lower_to_dense(), sla.cholesky(dense, lower=True), atol=1e-8
            )


class TestCompilerRun:
    def test_cli_run_mode(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "prog.py"
        path.write_text(
            "#pragma css task input(a)\n"
            "def show(a):\n"
            "    print('value', a)\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    show(42)\n"
        )
        assert main(["compile", str(path), "--run"]) == 0
        assert "value 42" in capsys.readouterr().out


class TestSimulatedRuntimeExtras:
    def test_acquire_and_wait_for(self):
        from repro.sim import ALTIX_32, CostModel, SimulatedRuntime

        @css_task("inout(a)")
        def bump(a):
            a += 1

        data = np.zeros(4)
        machine = ALTIX_32.with_cores(2)
        runtime = SimulatedRuntime(
            machine=machine,
            cost_model=CostModel(machine, block_size=4),
            execute_bodies=True,
        )
        with runtime:
            task = bump(data)
            latest = runtime.acquire(data)
            assert (latest == 1.0).all()
            runtime.wait_for(task)
            runtime.barrier()
        assert runtime.result().tasks_executed == 1

    def test_untracked_acquire(self):
        from repro.sim import SimulatedRuntime

        runtime = SimulatedRuntime()
        obj = np.zeros(2)
        assert runtime.acquire(obj) is obj


class TestEngineDrainFallback:
    def test_single_core_static_run(self):
        """run_static on a 1-core machine uses the core-0 fallback."""

        from repro.core.scheduler import SmpssScheduler
        from repro.sim import CostModel, MachineConfig, run_static
        from repro.sim.baselines import DagTemplate

        dag = DagTemplate()
        for _ in range(5):
            dag.add_node("w", 1.0)
        machine = MachineConfig(
            cores=1, task_dispatch_overhead=0.0, steal_overhead=0.0
        )
        res = run_static(
            dag.build(), machine, CostModel(machine, block_size=1), SmpssScheduler
        )
        assert res.tasks_executed == 5
        assert res.makespan == pytest.approx(5.0)


class TestSchedulerEdgeBehaviour:
    def test_two_thread_mutual_steal(self):
        from repro.core.scheduler import SmpssScheduler
        from repro.core.task import TaskDefinition, TaskInstance

        defn = TaskDefinition(func=lambda: None, params=(), name="t")
        s = SmpssScheduler(num_threads=2)
        mine = TaskInstance(definition=defn, accesses=[], arguments={})
        yours = TaskInstance(definition=defn, accesses=[], arguments={})
        s.push_unlocked(mine, 0)
        s.push_unlocked(yours, 1)
        got0 = s.pop(0)
        got1 = s.pop(1)
        assert {got0, got1} == {mine, yours}
        assert got0 is mine and got1 is yours  # own lists first
        assert s.stats.steals == 0


class TestHyperMatrixMisc:
    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            HyperMatrix(0, 4)
        with pytest.raises(ValueError):
            HyperMatrix.random_sparse(2, 2, density=1.5)

    def test_setitem_requires_tuple(self):
        hm = HyperMatrix(2, 2)
        with pytest.raises(TypeError):
            hm[0] = [None, None]

    def test_size_property(self):
        assert HyperMatrix(3, 5).size == 15


class TestStrassenAcc:
    def test_acc_tasks(self):
        from repro.apps.strassen import sacc_t, ssubacc_t, smul_t

        a = np.full((2, 2), 3.0)
        c = np.ones((2, 2))
        sacc_t(a, c)
        assert (c == 4.0).all()
        ssubacc_t(a, c)
        assert (c == 1.0).all()
        out = np.empty((2, 2))
        smul_t(a, a, out)
        assert np.allclose(out, a @ a)
