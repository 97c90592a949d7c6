"""The task-graph service: sharding, wire codecs, sessions, admission.

PR 9's tentpole is ``repro.serve`` — a daemon owning one worker fleet
that serves whole-graph submissions from many concurrent tenants.
These tests pin, bottom-up:

* the lock-striping primitives (``repro.core.sharding``);
* the wire codecs (bitwise datum round trips, definition refs);
* the session↔daemon loop: ``connect()`` mirroring the local runtime
  with bitwise-identical results on the bundled apps;
* the api-stack redesign that makes concurrent sessions legal while
  keeping in-process runtimes exclusive;
* admission-control edges: graph-size cap mid-submission, per-tenant
  memory cap, queue-full backpressure, and client disconnect with
  tasks in flight (shard state released, fleet not stalled);
* the per-tenant ``/metrics`` and ``/health`` HTTP surface.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import SmpssRuntime, css_task, wait_on
from repro.apps.cholesky import cholesky_hyper
from repro.apps.multisort import multisort, sequential_sort
from repro.blas.hypermatrix import HyperMatrix
from repro.core.sharding import (
    GraphDomain,
    ShardSet,
    address_hash,
    shard_index,
)
from repro.net.protocol import connect as raw_connect
from repro.net.protocol import decode as wire_decode
from repro.net.protocol import encode as wire_encode
from repro.serve import (
    GraphRejected,
    RemoteGraphError,
    ServeDaemon,
    ServeEngine,
    ServiceLimits,
    connect,
)
from repro.serve import protocol as sp

pytestmark = pytest.mark.serve


# ---------------------------------------------------------------------------
# tasks used over the wire (must be module-level: resolved by qualname)
# ---------------------------------------------------------------------------

@css_task("input(a, b) inout(c)")
def gemm_t(a, b, c):
    c += a @ b


@css_task("inout(a)")
def bump_t(a):
    a += 1.0


@css_task("input(src) output(dst)")
def copy_t(src, dst):
    dst[...] = src


@css_task("inout(a)")
def boom_t(a):
    raise ValueError("deliberate task failure")


@css_task("inout(rec)")
def field_sum_t(rec):
    # Reads fields by name: the datum must keep its structured dtype.
    rec["total"] = rec["x"] * 2.0 + rec["n"]


@css_task("inout(objs)")
def object_field_t(objs):
    # Reads a field of every element of an object-dtype array.
    for i in range(len(objs)):
        objs[i] = {"v": objs[i]["v"] + 1, "seen": True}


#: Gate for in-flight tests: tasks park here until the test opens it.
_GATE = threading.Event()


@css_task("inout(a)")
def gated_bump_t(a):
    _GATE.wait(10.0)
    a += 1.0


@pytest.fixture
def daemon():
    d = ServeDaemon("tcp:127.0.0.1:0", workers=2, shards=4)
    yield d
    d.close()


def _drain_tenant(engine, name, timeout=10.0):
    """Wait until *name* has nothing in flight and no bytes held."""

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        t = engine.state()["tenants"].get(name)
        if t is not None and t["inflight"] == 0 and t["bytes_held"] == 0:
            return t
        time.sleep(0.01)
    raise AssertionError(f"tenant {name!r} never drained")


# ---------------------------------------------------------------------------
# lock striping
# ---------------------------------------------------------------------------

class TestSharding:
    def test_address_hash_is_deterministic_64bit(self):
        assert address_hash(12345) == address_hash(12345)
        assert 0 <= address_hash(12345) < (1 << 64)
        # Allocator-aligned addresses (low bits equal) must still
        # spread: 64 consecutive 16-byte-aligned ids over 16 stripes.
        stripes = {shard_index([0x7F0000 + 16 * i], 16) for i in range(64)}
        assert len(stripes) > 8

    def test_shard_index_is_order_independent(self):
        keys = [id(object()) for _ in range(5)]
        assert shard_index(keys, 16) == shard_index(reversed(keys), 16)
        assert 0 <= shard_index(keys, 7) < 7

    def test_shardset_accounting(self):
        shards = ShardSet(4)
        a = shards.shard_for([1, 2, 3])
        b = shards.shard_for([1, 2, 3])
        assert a is b  # same data -> same stripe, deterministically
        assert a.domains == 2 and a.acquisitions == 2
        shards.release(a)
        assert a.domains == 1
        stats = shards.stats()
        assert stats["num_shards"] == 4
        assert sum(stats["live_domains"]) == 1

    def test_graph_domain_is_private(self):
        shards = ShardSet(2)
        arr = np.zeros(4)
        plan_args = (gemm_t.definition, bump_t.definition)
        del plan_args  # domains only need tasks; build two independent
        from repro.core.invocation import plan_for

        d1 = GraphDomain(shards.shard_for([id(arr)]))
        d2 = GraphDomain(shards.shard_for([id(arr)]))
        t1 = plan_for(bump_t.definition).instantiate((arr,), {}, {})
        t2 = plan_for(bump_t.definition).instantiate((arr,), {}, {})
        ready1 = d1.analyze_batch([t1])
        ready2 = d2.analyze_batch([t2])
        # Same datum, same stripe — but version chains never leak
        # between domains: both see their task immediately ready.
        assert ready1 == [t1] and ready2 == [t2]
        assert d1.shard is d2.shard


# ---------------------------------------------------------------------------
# wire codecs
# ---------------------------------------------------------------------------

class TestWireCodecs:
    def test_ndarray_roundtrip_is_bitwise(self):
        rng = np.random.default_rng(7)
        for arr in (
            rng.standard_normal((5, 3)),
            np.arange(6, dtype=np.int16).reshape(2, 3),
            np.array([np.nan, np.inf, -0.0]),
            np.zeros(0, dtype=np.float32),
        ):
            back = sp.decode_datum(sp.encode_datum(arr))
            assert back.dtype == arr.dtype and back.shape == arr.shape
            assert back.tobytes() == arr.tobytes()
            assert back.flags.writeable

    def test_container_roundtrip_and_in_place_write_back(self):
        target = [1, 2, 3]
        payload = sp.encode_datum([9, 8])
        sp.write_back_into(target, payload)
        assert target == [9, 8]
        d = {"a": 1}
        sp.write_back_into(d, sp.encode_datum({"b": 2}))
        assert d == {"b": 2}
        buf = bytearray(b"xxxx")
        sp.write_back_into(buf, sp.encode_datum(bytearray(b"yo")))
        assert buf == bytearray(b"yo")

    def test_value_specs(self):
        for value in (1, 2.5, float("inf"), "s", None, True):
            assert sp.decode_value(sp.encode_value(value)) == value
        spec = sp.encode_value((1, 2))  # tuple: by-value but not JSON
        assert "p" in spec and sp.decode_value(spec) == (1, 2)

    def test_is_datum_mirrors_tracker_rule(self):
        assert sp.is_datum(np.zeros(2)) and sp.is_datum([1])
        assert not sp.is_datum(3) and not sp.is_datum("s")
        assert not sp.is_datum((1, 2))

    def test_definition_ref_rejects_closures(self):
        @css_task("inout(a)")
        def local_task(a):
            a += 1

        with pytest.raises(Exception, match="module-level"):
            sp.definition_ref(local_task.definition)
        ref = sp.definition_ref(gemm_t.definition)
        assert ref[1] == "gemm_t"
        assert sp.resolve_definition(ref) is gemm_t.definition


# ---------------------------------------------------------------------------
# the served session: one-line switch, bitwise parity
# ---------------------------------------------------------------------------

class TestServedParity:
    def test_gemm_parity_and_wait_on(self, daemon):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        c_local, c_served = np.zeros((16, 16)), np.zeros((16, 16))
        # Structured and object dtypes cross by pickle, not raw bytes.
        rec_dtype = np.dtype([("x", "<f8"), ("n", "<i4"), ("total", "<f8")])
        rec_local = np.zeros(5, dtype=rec_dtype)
        rec_local["x"] = rng.standard_normal(5)
        rec_local["n"] = np.arange(5)
        rec_served = rec_local.copy()
        objs_local = np.array([{"v": i} for i in range(4)], dtype=object)
        objs_served = np.array([{"v": i} for i in range(4)], dtype=object)
        gemm_t(a, b, c_local)  # sequential reference
        gemm_t(a, b, c_local)
        field_sum_t(rec_local)
        object_field_t(objs_local)
        with connect(daemon.address) as rt:
            gemm_t(a, b, c_served)
            gemm_t(a, b, c_served)
            field_sum_t(rec_served)
            object_field_t(objs_served)
            latest = wait_on(c_served)
            assert latest is c_served  # post-flush the base IS current
            assert rt.graphs_submitted == 1
        assert c_served.tobytes() == c_local.tobytes()
        assert rec_served.dtype == rec_dtype
        assert rec_served.tobytes() == rec_local.tobytes()
        assert objs_served.dtype == object
        assert list(objs_served) == list(objs_local)

    def test_cholesky_parity(self, daemon):
        hm_local = HyperMatrix.random_spd(4, 8, seed=1)
        hm_served = hm_local.copy()
        cholesky_hyper(hm_local)  # no runtime: the sequential oracle
        with connect(daemon.address, tenant="chol") as rt:
            cholesky_hyper(hm_served)
            rt.barrier()
        for i in range(4):
            for j in range(i + 1):
                assert (
                    hm_local[i][j].tobytes() == hm_served[i][j].tobytes()
                ), (i, j)

    def test_multisort_parity(self, daemon):
        rng = np.random.default_rng(2)
        data = rng.standard_normal(2048)
        ref = sequential_sort(data.copy())
        served = data.copy()
        with connect(daemon.address, tenant="sort"):
            multisort(served, np.empty_like(served), quicksize=256)
        assert served.tobytes() == ref.tobytes()

    def test_output_only_write_crosses_back(self, daemon):
        src = np.arange(8, dtype=np.float64)
        dst = np.zeros(8)
        with connect(daemon.address) as rt:
            copy_t(src, dst)
            rt.barrier()
        assert (dst == src).all()

    def test_exit_flushes_pending_batch(self, daemon):
        a = np.zeros(4)
        with connect(daemon.address):
            bump_t(a)
            # no explicit barrier: __exit__ owes the final flush
        assert (a == 1.0).all()

    def test_multiple_graphs_per_session(self, daemon):
        a = np.zeros(2)
        with connect(daemon.address) as rt:
            for _ in range(3):
                bump_t(a)
                rt.barrier()
            assert rt.graphs_submitted == 3
        assert (a == 3.0).all()


class TestConcurrentSessions:
    def test_two_tenants_in_parallel_threads(self, daemon):
        results = {}
        errors = []

        def run_chol():
            try:
                hm = HyperMatrix.random_spd(4, 8, seed=3)
                ref = hm.copy()
                cholesky_hyper(ref)
                with connect(daemon.address, tenant="t-chol") as rt:
                    cholesky_hyper(hm)
                    rt.barrier()
                results["chol"] = all(
                    hm[i][j].tobytes() == ref[i][j].tobytes()
                    for i in range(4) for j in range(i + 1)
                )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def run_sort():
            try:
                rng = np.random.default_rng(4)
                data = rng.standard_normal(2048)
                ref = sequential_sort(data.copy())
                with connect(daemon.address, tenant="t-sort"):
                    multisort(data, np.empty_like(data), quicksize=256)
                results["sort"] = data.tobytes() == ref.tobytes()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=f) for f in (run_chol, run_sort)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert results == {"chol": True, "sort": True}
        state = daemon.engine.state()
        assert {"t-chol", "t-sort"} <= set(state["tenants"])

    def test_smpss_runtime_stays_exclusive_across_threads(self):
        """The api redesign keeps the historical guard for in-process
        runtimes: one exclusive runtime, one main thread."""

        raised = []
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with SmpssRuntime(num_workers=1):
                entered.set()
                release.wait(10.0)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(10.0)
            with pytest.raises(RuntimeError, match="another thread"):
                with SmpssRuntime(num_workers=1):
                    pass  # pragma: no cover
            raised.append(True)
        finally:
            release.set()
            holder.join(timeout=10)
        assert raised


# ---------------------------------------------------------------------------
# admission control (satellite: the §III limits as backpressure)
# ---------------------------------------------------------------------------

class TestAdmissionControl:
    def test_graph_size_cap_hit_mid_submission(self):
        with ServeDaemon(
            "tcp:127.0.0.1:0", workers=1, shards=2,
            limits=ServiceLimits(max_graph_tasks=3),
        ) as daemon:
            a = np.zeros(4)
            with connect(daemon.address, tenant="big") as rt:
                for _ in range(5):
                    bump_t(a)  # accumulates past the cap client-side
                with pytest.raises(GraphRejected) as exc_info:
                    rt.barrier()
                assert exc_info.value.code == "graph_too_large"
                assert exc_info.value.status == 429
                assert exc_info.value.detail["limit"] == 3
                # The shed batch is gone; the session stays usable and
                # a conforming graph goes through on the same socket.
                bump_t(a)
                rt.barrier()
            assert (a == 1.0).all()
            tenants = daemon.engine.state()["tenants"]
            assert tenants["big"]["rejections"] == 1
            assert tenants["big"]["bytes_held"] == 0

    def test_per_tenant_memory_cap(self):
        with ServeDaemon(
            "tcp:127.0.0.1:0", workers=1, shards=2,
            limits=ServiceLimits(max_tenant_bytes=1024),
        ) as daemon:
            big = np.zeros(4096)
            with connect(daemon.address, tenant="hog") as rt:
                bump_t(big)
                with pytest.raises(GraphRejected) as exc_info:
                    rt.barrier()
            assert exc_info.value.code == "memory_limit"
            assert exc_info.value.detail["limit"] == 1024
            assert exc_info.value.detail["bytes"] >= big.nbytes

    def test_queue_full_backpressure_and_other_tenant_unaffected(self):
        engine = ServeEngine(
            workers=1, shards=2, limits=ServiceLimits(max_inflight=1)
        )
        _GATE.clear()
        arr = np.zeros(2)
        spec = {
            "tasks": [{
                "def": sp.definition_ref(gated_bump_t.definition),
                "args": [{"d": "d0"}],
            }],
            "data": {"d0": sp.encode_datum(arr)},
        }
        try:
            job = engine.submit_graph("full", spec)
            with pytest.raises(GraphRejected) as exc_info:
                engine.submit_graph("full", dict(spec))
            assert exc_info.value.code == "queue_full"
            # Backpressure is PER TENANT: a different tenant's
            # submission is admitted while "full" is saturated.
            other = np.zeros(2)
            other_spec = {
                "tasks": [{
                    "def": sp.definition_ref(bump_t.definition),
                    "args": [{"d": "d0"}],
                }],
                "data": {"d0": sp.encode_datum(other)},
            }
            other_job = engine.submit_graph("light", other_spec)
            _GATE.set()
            assert job.done.wait(10.0)
            assert other_job.done.wait(10.0)
            assert other_job.error is None
            # After draining, the saturated tenant is admitted again.
            job2 = engine.submit_graph("full", dict(spec))
            assert job2.done.wait(10.0) and job2.error is None
        finally:
            _GATE.set()
            engine.shutdown()

    def test_abandon_with_tasks_in_flight_releases_state(self):
        engine = ServeEngine(workers=1, shards=2)
        _GATE.clear()
        arr = np.zeros(2)
        spec = {
            "tasks": [
                {
                    "def": sp.definition_ref(gated_bump_t.definition),
                    "args": [{"d": "d0"}],
                }
                for _ in range(3)
            ],
            "data": {"d0": sp.encode_datum(arr)},
        }
        try:
            job = engine.submit_graph("ghost", spec)
            engine.abandon(job)  # client disconnected mid-graph
            _GATE.set()
            assert job.done.wait(10.0)
            assert job.results is None  # discarded, never encoded
            assert job.error["code"] in ("cancelled", "task_failed")
            tenant = _drain_tenant(engine, "ghost")
            assert tenant["inflight"] == 0
            stats = engine.state()["shard_stats"]
            assert sum(stats["live_domains"]) == 0
            # The fleet is alive: a fresh tenant's graph completes.
            ok = np.zeros(2)
            ok_spec = {
                "tasks": [{
                    "def": sp.definition_ref(bump_t.definition),
                    "args": [{"d": "d0"}],
                }],
                "data": {"d0": sp.encode_datum(ok)},
            }
            ok_job = engine.submit_graph("alive", ok_spec)
            assert ok_job.done.wait(10.0) and ok_job.error is None
        finally:
            _GATE.set()
            engine.shutdown()

    def test_client_disconnect_over_the_wire(self, daemon):
        """Drop the socket with tasks in flight: the daemon must
        abandon the tenant's jobs and keep serving everyone else."""

        _GATE.clear()
        arr = np.zeros(2)
        sock = raw_connect(daemon.address, timeout=10.0)
        try:
            sock.sendall(wire_encode(
                {"cmd": "open", "seq": 1, "tenant": "dropper"}
            ))
            buffer = b""
            opened = False
            while not opened:
                buffer += sock.recv(65536)
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    record = wire_decode(line)
                    if record and record.get("ev") == "ack":
                        assert record["ok"]
                        opened = True
            sock.sendall(wire_encode({
                "cmd": "run", "seq": 2,
                "tasks": [
                    {
                        "def": sp.definition_ref(gated_bump_t.definition),
                        "args": [{"d": "d0"}],
                    }
                    for _ in range(3)
                ],
                "data": {"d0": sp.encode_datum(arr)},
            }))
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                t = daemon.engine.state()["tenants"].get("dropper")
                if t is not None and t["inflight"] == 1:
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("submission never reached the engine")
        finally:
            sock.close()  # gone, with the graph gated and in flight
        _GATE.set()
        _drain_tenant(daemon.engine, "dropper")
        # The fleet serves the next tenant as if nothing happened.
        a = np.zeros(2)
        with connect(daemon.address, tenant="survivor") as rt:
            bump_t(a)
            rt.barrier()
        assert (a == 1.0).all()


# ---------------------------------------------------------------------------
# failures cross the wire structured
# ---------------------------------------------------------------------------

class TestErrors:
    def test_task_failure_carries_remote_traceback(self, daemon):
        a = np.zeros(2)
        with connect(daemon.address, tenant="boom") as rt:
            boom_t(a)
            with pytest.raises(RemoteGraphError) as exc_info:
                rt.barrier()
        assert "deliberate task failure" in str(exc_info.value)
        assert "ValueError" in exc_info.value.remote_traceback

    def test_run_before_open_is_rejected(self, daemon):
        sock = raw_connect(daemon.address, timeout=10.0)
        try:
            sock.sendall(wire_encode(
                {"cmd": "run", "seq": 1, "tasks": [], "data": {}}
            ))
            buffer = b""
            while True:
                buffer += sock.recv(65536)
                done = False
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    record = wire_decode(line)
                    if record and record.get("ev") == "ack":
                        assert not record["ok"]
                        assert "open" in record["error"]["message"]
                        done = True
                if done:
                    break
        finally:
            sock.close()

    def test_empty_barrier_is_local_noop(self, daemon):
        with connect(daemon.address) as rt:
            rt.barrier()  # nothing batched: no graph crosses the wire
            assert rt.graphs_submitted == 0


# ---------------------------------------------------------------------------
# the HTTP surface: per-tenant metrics and health on the session port
# ---------------------------------------------------------------------------

class TestHttpSurface:
    def test_metrics_health_and_tenant_filter(self, daemon):
        a = np.zeros(2)
        with connect(daemon.address, tenant="alice") as rt:
            bump_t(a)
            rt.barrier()
        with connect(daemon.address, tenant="bob") as rt:
            bump_t(a)
            rt.barrier()
        host = daemon.address.split(":", 1)[1]
        page = urllib.request.urlopen(
            f"http://{host}/metrics", timeout=10
        ).read().decode()
        assert 'tenant="alice"' in page and 'tenant="bob"' in page
        assert "repro_serve_graphs_completed" in page
        alice = urllib.request.urlopen(
            f"http://{host}/metrics/alice", timeout=10
        ).read().decode()
        assert 'tenant="alice"' in alice
        assert 'tenant="bob"' not in alice
        assert "# TYPE repro_serve_graphs_completed" in alice
        health = json.loads(urllib.request.urlopen(
            f"http://{host}/health", timeout=10
        ).read())
        assert health["service"] == "repro.serve"
        assert health["tenants"]["alice"]["graphs"] == 1
        # Worker liveness: one record per worker slot, all alive.
        assert len(health["worker_liveness"]) == health["workers"]
        assert all(w["alive"] for w in health["worker_liveness"])
        assert health["workers_alive"] == health["workers"]
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(f"http://{host}/nope", timeout=10)
        assert exc_info.value.code == 404

    def test_health_command_over_session(self, daemon):
        with connect(daemon.address, tenant="probe") as rt:
            state = rt.service_state()
            assert state["workers"] == 2
            assert "probe" in state["tenants"]
            assert rt.ping()["tenant"] == "probe"
