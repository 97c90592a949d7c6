"""End-to-end tests of the distributed backend (repro.dist).

Everything the threaded runtime guarantees must hold bit-for-bit under
``backend="cluster"`` with all agents on localhost: dependency order,
renaming, regions, error propagation.  On top the backend adds its own
contracts — datum residency (repeat submissions ship fewer bytes),
locality-aware placement, one automatic re-dispatch after an agent
death, structured data-loss errors in lazy mode — pinned down here.
"""

import threading
import time

import numpy as np
import pytest

from repro import SmpssRuntime, TaskExecutionError, css_task
from repro.apps.cholesky import HyperMatrix, cholesky_hyper
from repro.apps.multisort import multisort
from repro.dist import (
    AgentServer,
    DistDataLossError,
    RemoteTaskError,
    TransferError,
)
from repro.obs.exposition import render_registry

pytestmark = pytest.mark.dist


# ---------------------------------------------------------------------------
# task definitions (module level so agents resolve them by name)
# ---------------------------------------------------------------------------

@css_task("input(a, b) inout(c)")
def axpy_t(a, b, c):
    c += a * b


@css_task("input(a, b) output(c)")
def mul_t(a, b, c):
    np.multiply(a, b, out=c)


@css_task("input(c) inout(acc)")
def accum_t(c, acc):
    acc += c


@css_task("inout(a)")
def incr_t(a):
    a += 1


@css_task("input(a) inout(stats)")
def tally_t(a, stats):
    stats["calls"] = stats.get("calls", 0) + 1
    stats["sum"] = stats.get("sum", 0.0) + float(a.sum())


@css_task("inout(a)")
def slow_incr_t(a):
    time.sleep(0.05)
    a += 1


@css_task("inout(a)")
def boom_t(a):
    raise ValueError("remote kaboom")


@css_task("opaque(ctx) inout(a)")
def opaque_t(ctx, a):
    a += 1


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture()
def agents():
    """Two in-process localhost agents, two slots each."""

    started = [
        AgentServer("tcp:127.0.0.1:0", slots=2).start() for _ in range(2)
    ]
    try:
        yield started
    finally:
        for agent in started:
            agent.close()


def cluster(agents, **kwargs):
    return SmpssRuntime(
        backend="cluster", nodes=[a.address for a in agents], **kwargs
    )


# ---------------------------------------------------------------------------
# bitwise parity with the threads backend
# ---------------------------------------------------------------------------

class TestParity:
    def test_cholesky_bitwise_identical_to_threads(self, agents):
        h_ref = HyperMatrix.random_spd(6, 24, seed=7)
        h_dist = h_ref.copy()
        with SmpssRuntime(num_workers=4) as rt:
            cholesky_hyper(h_ref)
            rt.barrier()
        with cluster(agents) as rt:
            cholesky_hyper(h_dist)
            rt.barrier()
            snap = rt.metrics.snapshot()
        assert np.array_equal(h_ref.lower_to_dense(), h_dist.lower_to_dense())
        # Both nodes did real work (placement did not serialise).
        per_node = snap["dist.node_tasks"]
        assert sum(bool(v) for v in per_node.values()) >= 1

    def test_multisort_bitwise_identical_to_threads(self, agents):
        rng = np.random.default_rng(11)
        data = rng.random(4096)
        ref = data.copy()
        with SmpssRuntime(num_workers=4) as rt:
            multisort(ref, quicksize=256)
            rt.barrier()
        got = data.copy()
        with cluster(agents) as rt:
            multisort(got, quicksize=256)
            rt.barrier()
        assert np.array_equal(ref, got)

    def test_war_waw_renaming_matches_threads(self, agents):
        # incr chains + cross-reads: exercises CLONE (inout rename)
        # and FRESH (output rename) across the wire.
        rng = np.random.default_rng(3)
        a0 = rng.random((16, 16))
        b0 = rng.random((16, 16))

        def program(rt, a, b, stats):
            c = np.empty((16, 16))
            for _ in range(3):
                incr_t(a)
                mul_t(a, b, c)
                accum_t(c, b)
                tally_t(c, stats)  # a dict written on the agents
            rt.barrier()
            return c

        a_ref, b_ref, stats_ref = a0.copy(), b0.copy(), {}
        with SmpssRuntime(num_workers=2) as rt:
            c_ref = program(rt, a_ref, b_ref, stats_ref)
        a_d, b_d, stats_d = a0.copy(), b0.copy(), {}
        with cluster(agents) as rt:
            c_d = program(rt, a_d, b_d, stats_d)
        assert np.array_equal(a_ref, a_d)
        assert np.array_equal(b_ref, b_d)
        assert np.array_equal(c_ref, c_d)
        assert stats_d == stats_ref and stats_d["calls"] == 3

    def test_processes_agent_mode(self):
        agent = AgentServer("tcp:127.0.0.1:0", slots=2, processes=True).start()
        try:
            rng = np.random.default_rng(5)
            a = rng.random((16, 16))
            b = rng.random((16, 16))
            c = rng.random((16, 16))
            expect = c + a * b
            with SmpssRuntime(backend="cluster", nodes=[agent.address]) as rt:
                axpy_t(a, b, c)
                rt.barrier()
            assert np.array_equal(expect, c)
        finally:
            agent.close()


# ---------------------------------------------------------------------------
# residency cache
# ---------------------------------------------------------------------------

class TestResidencyCache:
    def test_second_submission_ships_fewer_bytes(self, agents):
        rng = np.random.default_rng(13)
        A = [rng.random((64, 64)) for _ in range(6)]
        B = [rng.random((64, 64)) for _ in range(6)]
        with cluster(agents) as rt:
            m = rt.metrics

            def submit():
                acc = np.zeros((64, 64))
                for a, b in zip(A, B):
                    c = np.empty((64, 64))
                    mul_t(a, b, c)
                    accum_t(c, acc)
                rt.barrier()
                return acc

            r1 = submit()
            first = m.counter("dist.bytes_moved").value
            hits1 = m.counter("dist.cache_hits").value
            r2 = submit()
            second = m.counter("dist.bytes_moved").value - first
            hits2 = m.counter("dist.cache_hits").value - hits1
        assert np.array_equal(r1, r2)
        assert second < first      # A/B resident from the first round
        assert hits2 > 0

    def test_mutation_between_barriers_invalidates_cache(self, agents):
        rng = np.random.default_rng(17)
        a = rng.random((32, 32))
        b = rng.random((32, 32))
        with cluster(agents) as rt:
            c = np.empty((32, 32))
            mul_t(a, b, c)
            rt.barrier()
            a[0, 0] = 123.456  # out-of-band mutation
            c2 = np.empty((32, 32))
            mul_t(a, b, c2)
            rt.barrier()
            assert np.array_equal(c2, a * b)

    def test_barrier_evicts_everything_but_base_arrays(self, agents):
        a = np.random.default_rng(19).random((16, 16))
        with cluster(agents) as rt:
            for _ in range(3):
                incr_t(a)  # renamed clones come and go
            rt.barrier()
            residency = rt.executor._residency
            for entry in residency.entries():
                assert entry.is_base
                assert entry.obj is a

    def test_acquire_fetches_lazy_output_home(self, agents):
        a = np.zeros((8, 8))
        with cluster(agents) as rt:
            incr_t(a)
            # wait_on/acquire must see the remote write without a
            # barrier.
            got = rt.acquire(a)
            assert np.array_equal(got, np.ones((8, 8)))


# ---------------------------------------------------------------------------
# failure semantics
# ---------------------------------------------------------------------------

class TestFailures:
    def test_agent_death_recovers_with_one_redispatch(self, agents):
        rng = np.random.default_rng(23)
        arrays = [rng.random((8, 8)) for _ in range(8)]
        expect = [a + 1 for a in arrays]
        killer = threading.Timer(0.1, agents[1].kill)
        with cluster(agents, dist_write_through=True) as rt:
            killer.start()
            for a in arrays:
                slow_incr_t(a)
            rt.barrier()
            deaths = rt.metrics.counter("dist.agent_deaths").value
            redispatched = rt.metrics.counter(
                "dist.redispatched_tasks").value
            text = render_registry(rt.metrics)
        killer.cancel()
        assert all(np.array_equal(e, a) for e, a in zip(expect, arrays))
        assert deaths >= 1
        assert redispatched >= 1
        # Prometheus exposition carries the death counters and the
        # per-node gauges.
        assert "repro_dist_agent_deaths" in text
        assert 'node="n1"' in text

    def test_lazy_mode_sole_copy_loss_is_structured(self, agents):
        a = np.zeros((8, 8))
        with pytest.raises((TaskExecutionError, DistDataLossError)) as exc:
            with cluster(agents) as rt:
                incr_t(a)
                time.sleep(0.3)  # output now resident on an agent only
                agents[0].kill()
                agents[1].kill()
                rt.barrier()
        root = exc.value
        while root.__cause__ is not None:
            root = root.__cause__
        assert isinstance(root, (DistDataLossError, Exception))
        assert "DistDataLossError" in type(root).__name__ or isinstance(
            root, DistDataLossError)

    def test_remote_error_carries_traceback(self, agents):
        a = np.zeros(4)
        with pytest.raises(TaskExecutionError) as exc:
            with cluster(agents) as rt:
                boom_t(a)
                rt.barrier()
        cause = exc.value.__cause__
        assert isinstance(cause, RemoteTaskError)
        assert "remote kaboom" in str(cause)
        assert "boom_t" in str(cause)

    def test_opaque_nonscalar_is_rejected(self, agents):
        a = np.zeros(4)
        ctx = np.ones(4)  # writes through it would be lost silently
        with pytest.raises(TaskExecutionError) as exc:
            with cluster(agents) as rt:
                opaque_t(ctx, a)
                rt.barrier()
        assert isinstance(exc.value.__cause__, TransferError)


# ---------------------------------------------------------------------------
# lifecycle / configuration
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_agents_are_reusable_across_sessions(self, agents):
        for _ in range(2):
            a = np.zeros((8, 8))
            with cluster(agents) as rt:
                incr_t(a)
                rt.barrier()
            assert np.array_equal(a, np.ones((8, 8)))
        # Session release dropped the store: nothing left behind.
        for agent in agents:
            assert agent.store.stats()["entries"] == 0

    def test_num_workers_derived_from_agent_slots(self, agents):
        with cluster(agents) as rt:
            assert rt.config.num_workers == 4  # 2 agents x 2 slots

    def test_config_validation(self):
        with pytest.raises(TypeError):
            SmpssRuntime(backend="cluster")  # no nodes
        with pytest.raises(TypeError):
            SmpssRuntime(backend="cluster", nodes=["tcp:x:1"], num_workers=2)
        with pytest.raises(TypeError):
            SmpssRuntime(num_workers=2, nodes=["tcp:x:1"])  # threads + nodes

    def test_liveness_surface(self, agents):
        with cluster(agents) as rt:
            live = rt.executor.liveness()
            assert len(live) == 4
            assert all(w["alive"] for w in live)
            assert {w["node"] for w in live} == {"n0", "n1"}
