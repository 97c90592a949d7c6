"""Tests for the extension batch: memory limit + GC, Paraver export,
steal-order ablation, strict dimension checks, CLIs."""

import numpy as np
import pytest

from repro import InvocationError, SmpssRuntime, css_task
from repro.core.dependencies import DependencyTracker
from repro.core.graph import TaskGraph
from repro.core.invocation import instantiate
from repro.core.renaming import RenamingError, StorageKind
from repro.core.scheduler import HotStealScheduler, SmpssScheduler
from repro.core.recorder import RecordingRuntime


@css_task("input(a) output(b)")
def snap(a, b):
    b[...] = a


@css_task("inout(a)")
def bump(a):
    a += 1


class TestRenamedBufferAccounting:
    def _hazard_tracker(self):
        """Build reader/writer hazards that force renaming."""

        data = np.zeros(1024, np.float64)  # 8 KiB
        outs = [np.zeros(1024, np.float64) for _ in range(3)]
        recorder = RecordingRuntime(execute="eager")
        with recorder:
            for out in outs:
                snap(data, out)
                bump(data)  # pending reader -> CLONE rename
        return recorder.tracker

    def test_bytes_counted_on_materialisation(self):
        tracker = self._hazard_tracker()
        # Two renames materialised 8 KiB clones each (the first bump
        # may be in place depending on reader state; at least one).
        assert tracker.renamed_bytes >= 8192
        assert tracker.renamed_bytes % 8192 == 0

    def test_release_after_frees_dead_versions(self):
        data = np.zeros(1024, np.float64)
        out = np.zeros(1024, np.float64)
        graph = TaskGraph(keep_finished=True)
        tracker = DependencyTracker(graph)

        out2 = np.zeros(1024, np.float64)
        # snap(v0) ; bump -> CLONE v1 ; snap(v1) ; bump -> CLONE v2.
        # Once everything finishes, v1 is superseded by v2 (a distinct
        # buffer) with no readers left: it must be garbage-collected.
        tasks = []
        for defn, args in (
            (snap.definition, (data, out)),
            (bump.definition, (data,)),
            (snap.definition, (data, out2)),
            (bump.definition, (data,)),
        ):
            task = instantiate(defn, args, {})
            tracker.analyze(task)
            tasks.append(task)

        from repro.core.invocation import resolve_call_values

        for task in tasks:
            resolve_call_values(task)  # materialise like the runtime
            graph.complete(task)
            tracker.release_after(task)

        (_n, v1), = tasks[1].writes
        (_n, v2), = tasks[3].writes
        assert v1.kind is StorageKind.CLONE
        assert v2.kind is StorageKind.CLONE
        assert v1.released, "superseded clone must be collected"
        assert not v2.released, "chain head must stay alive"

    def test_released_version_cannot_resolve(self):
        data = np.zeros(4)
        graph = TaskGraph()
        tracker = DependencyTracker(graph)
        t_read = instantiate(snap.definition, (data, np.zeros(4)), {})
        tracker.analyze(t_read)
        t_write = instantiate(bump.definition, (data,), {})
        tracker.analyze(t_write)
        (_n, version), = t_write.writes
        if version.kind is StorageKind.CLONE:
            version.resolve_storage()
            assert version.drop_storage() > 0
            with pytest.raises(RenamingError, match="released"):
                version.resolve_storage()

    def test_memory_limit_runtime_stays_correct(self):
        """A tiny memory limit throttles but never corrupts results."""

        data = np.zeros(256, np.float64)
        outs = [np.zeros(256, np.float64) for _ in range(30)]
        with SmpssRuntime(
            num_workers=2, memory_limit_bytes=3 * 256 * 8
        ) as rt:
            for i, out in enumerate(outs):
                snap(data, out)
                bump(data)
            rt.barrier()
        for i, out in enumerate(outs):
            assert (out == float(i)).all()
        assert (data == 30.0).all()

    def test_memory_limit_none_is_default(self):
        from repro.core.config import RuntimeConfig

        assert RuntimeConfig().memory_limit_bytes is None


class TestHotStealAblation:
    def test_hot_steal_takes_newest(self):
        from repro.core.task import TaskDefinition, TaskInstance

        defn = TaskDefinition(func=lambda: None, params=(), name="t")
        s = HotStealScheduler(num_threads=2)
        a = TaskInstance(definition=defn, accesses=[], arguments={})
        b = TaskInstance(definition=defn, accesses=[], arguments={})
        s.push_unlocked(a, thread=1)
        s.push_unlocked(b, thread=1)
        assert s.pop(0) is b  # hot end — the opposite of SmpssScheduler
        assert s.stats.steals == 1

    def test_cold_steal_is_not_worse_on_chains(self):
        """FIFO stealing should match or beat hot stealing on the
        cache-sensitive Cholesky workload (the paper's argument)."""

        from repro.apps.cholesky import cholesky_hyper
        from repro.blas.hypermatrix import HyperMatrix
        from repro.sim import ALTIX_32, CostModel, simulate_program

        def run(factory):
            hm = HyperMatrix(10, 1, np.float32)
            for i in range(10):
                for j in range(10):
                    hm[i, j] = np.zeros((1, 1), np.float32)
            machine = ALTIX_32.with_cores(8)
            return simulate_program(
                cholesky_hyper, hm,
                machine=machine,
                cost_model=CostModel(machine, block_size=128),
                scheduler_factory=factory,
            )

        cold = run(SmpssScheduler)
        hot = run(HotStealScheduler)
        assert cold.cache_hits >= hot.cache_hits * 0.95
        assert cold.makespan <= hot.makespan * 1.05

    def test_threaded_runtime_accepts_hot_steal(self):
        data = np.zeros(1)
        with SmpssRuntime(num_workers=2, scheduler_factory=HotStealScheduler) as rt:
            for _ in range(10):
                bump(data)
            rt.barrier()
        assert data[0] == 10


class TestStrictDims:
    def test_matching_dims_accepted(self):
        @css_task("input(a[N][N], N)")
        def f(a, N):  # noqa: ARG001
            pass

        instantiate(f.definition, (np.zeros((3, 3)), 3), {})

    def test_mismatched_dims_rejected(self):
        @css_task("input(a[N][N], N)")
        def f(a, N):  # noqa: ARG001
            pass

        with pytest.raises(InvocationError, match="shape"):
            instantiate(f.definition, (np.zeros((3, 4)), 3), {})

    def test_wrong_rank_rejected(self):
        @css_task("input(a[N], N)")
        def f(a, N):  # noqa: ARG001
            pass

        with pytest.raises(InvocationError, match="shape"):
            instantiate(f.definition, (np.zeros((2, 2)), 2), {})

    def test_unresolvable_dims_skipped(self):
        @css_task("input(a[UNKNOWN])")
        def f(a):  # noqa: ARG001
            pass

        instantiate(f.definition, (np.zeros(7),), {})  # must not raise


class TestParaverExport:
    def test_prv_structure(self):
        tracer_run = self._traced()
        prv = tracer_run.to_paraver()
        lines = prv.splitlines()
        assert lines[0].startswith("#Paraver")
        states = [l for l in lines if l.startswith("1:")]
        events = [l for l in lines if l.startswith("2:")]
        assert len(states) == 4  # one per executed task
        assert events  # ready/added/barrier events present
        for record in states:
            fields = record.split(":")
            assert len(fields) == 8
            assert int(fields[6]) >= int(fields[5])  # end >= begin

    @staticmethod
    def _traced():
        data = np.zeros(1)
        rt = SmpssRuntime(num_workers=1, trace=True)
        with rt:
            for _ in range(4):
                bump(data)
            rt.barrier()
        return rt.tracer


class TestBenchCli:
    def test_list(self, capsys):
        from repro.bench.cli import main

        assert main(["list"]) == 0
        assert "fig11" in capsys.readouterr().out

    def test_fig05(self, capsys):
        from repro.bench.cli import main

        assert main(["fig05"]) == 0
        out = capsys.readouterr().out
        assert "56 tasks" in out

    def test_counts(self, capsys):
        from repro.bench.cli import main

        assert main(["counts"]) == 0
        assert "374272" in capsys.readouterr().out.replace(",", "")

    def test_quick_figure(self, capsys):
        from repro.bench.cli import main

        assert main(["fig12", "--quick"]) == 0
        assert "Figure 12" in capsys.readouterr().out

    def test_unknown(self, capsys):
        from repro.bench.cli import main

        assert main(["fig99"]) == 1
