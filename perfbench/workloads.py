"""The five workloads: one ``@css_task`` programming model, four surfaces.

Each workload makes its inputs from the run's seed, computes its oracle
by running the same generated program sequentially (no runtime active,
so every task call runs inline), then times whole graphs: the tasks
submitted between two barriers.  Every graph's outputs are compared
bitwise with the oracle after its timing ends; a mismatch, an exception
or a refusal counts as a failed graph.
"""

from __future__ import annotations

import os
import queue
import threading
import zlib
from time import perf_counter

import numpy as np

from repro import SmpssRuntime
from repro.apps import tasks as app_tasks
from repro.apps.cholesky import cholesky_hyper, hyper_task_count
from repro.core.recorder import record_program

from .programs import (
    FineProgram,
    acc_t,
    cholesky_flops,
    load_tiles,
    lower_tiles,
    put_t,
    rot_t,
    spd_tiles,
)

#: Worker threads of every runtime: the runtimes' own default.
DEFAULT_WORKERS = max(1, (os.cpu_count() or 2) - 1)


class BenchError(RuntimeError):
    """A check of the benchmark itself failed (not a timing)."""


def derive_seed(seed: int, name: str) -> int:
    """One independent generator seed per (run seed, workload)."""

    return int(np.random.SeedSequence(
        [seed, zlib.crc32(name.encode())]).generate_state(1)[0])


def same(outputs, oracle) -> bool:
    return len(outputs) == len(oracle) and all(
        np.array_equal(a, b) for a, b in zip(outputs, oracle)
    )


class Phase:
    """What one measuring window saw."""

    def __init__(self):
        #: Per-graph time from first submit to barrier return (s).
        self.graph_s: list[float] = []
        self.graphs = 0
        self.tasks = 0
        self.flops = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Denominator of the rates: summed graph time for one
        #: submitting thread, window time for concurrent clients (s).
        self.wall = 0.0
        #: Runtime counter deltas over the window (graph, scheduler, dist).
        self.counters: dict = {}
        self._lock = threading.Lock()

    def record(self, seconds: float, tasks: int, flops: float, ok: bool,
               timed: bool = True) -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
            elif timed:
                self.graph_s.append(seconds)
                self.graphs += 1
                self.tasks += tasks
                self.flops += flops

    def fail(self, exc: BaseException) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")

    @classmethod
    def merge(cls, phases) -> "Phase":
        """One phase holding every graph and count of *phases*."""

        out = cls()
        for phase in phases:
            out.graph_s += phase.graph_s
            out.errors += phase.errors
            for name in ("graphs", "tasks", "flops", "attempted", "failed",
                         "wall"):
                setattr(out, name, getattr(out, name) + getattr(phase, name))
            for key, value in phase.counters.items():
                out.counters[key] = out.counters.get(key, 0) + value
        return out


def runtime_counters(rt) -> dict:
    """Cumulative counters of an ``SmpssRuntime`` worth a delta."""

    graph = rt.graph.stats
    sched = rt.scheduler.stats
    out = {
        "tasks": graph.total_tasks,
        "edges": graph.total_edges,
        "renames": graph.renames,
        "pops_high": sched.pops_high,
        "pops_local": sched.pops_local,
        "pops_main": sched.pops_main,
        "steals": sched.steals,
    }
    if rt.config.backend == "cluster":
        for name in ("dist.bytes_moved", "dist.cache_hits",
                     "dist.cache_misses"):
            out[name] = rt.metrics.counter(name).value
    return out


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


class Workload:
    """One thread submitting graphs back to back to a runtime."""

    name = ""
    backend = "threads"
    #: Graphs run (and checked) before each round's window opens.
    warmup = 1
    #: Rounds per run: each starts a fresh runtime, measures its share
    #: of the window and shuts the runtime down.  Throughput varies
    #: from one runtime instance to the next (thread and process
    #: placement), so a run pools several.
    rounds = 5
    #: Start-stop cycles timed per run; ``setup_s`` is their median.
    setup_repeats = 15

    def __init__(self, seed: int, corrupt: bool = False):
        self.seed = seed
        self.gen_seed = derive_seed(seed, self.name)
        #: Self-test hook: spoil one output element of the next checked
        #: graph, which must then count as failed.
        self.corrupt = corrupt

    # -- the parts each workload fills in --------------------------------
    def prepare(self) -> None:
        """Make the inputs and the sequential oracle."""

    def reset(self) -> None:
        """Restore the graph's inputs (untimed)."""

    def graph(self, session) -> int:
        """Submit one graph and wait for it; return its task count."""

        raise NotImplementedError

    def outputs(self) -> list:
        raise NotImplementedError

    def oracle(self) -> list:
        raise NotImplementedError

    def graph_flops(self) -> float:
        raise NotImplementedError

    def definitions(self) -> list:
        """Task definitions whose bodies the traced run times."""

        return [task.definition for task in (
            app_tasks.sgemm_nt_t, app_tasks.ssyrk_t, app_tasks.spotrf_t,
            app_tasks.strsm_t,
        )]

    def exec_threads(self, session) -> int:
        """Threads that run task bodies (the BLAS busy-share base)."""

        return session.num_threads

    def close_inputs(self) -> None:
        """Free what :meth:`prepare` allocated outside Python objects."""

    # -- the runtime -------------------------------------------------------
    def open(self):
        """Start the runtime; returns once the first submit can go."""

        return SmpssRuntime(backend=self.backend).start()

    def close(self, session) -> None:
        session.shutdown()

    def counters(self, session) -> dict:
        return runtime_counters(session)

    # -- checking ----------------------------------------------------------
    def check(self, session) -> bool:
        outputs = self.outputs()
        if self.corrupt:
            self.corrupt = False
            outputs[0].flat[0] += 1.0
        return same(outputs, self.oracle())

    # -- measuring ---------------------------------------------------------
    def run_graph(self, session, phase: Phase, tracer, timed: bool) -> bool:
        """One reset-submit-barrier-check cycle; False stops the window."""

        try:
            self.reset()
            if tracer is not None:
                tracer.begin_graph()
            t0 = perf_counter()
            tasks = self.graph(session)
            seconds = perf_counter() - t0
            ok = self.check(session)
        except Exception as exc:  # noqa: BLE001 - a failed graph, reported
            phase.fail(exc)
            return False
        phase.record(seconds, tasks, self.graph_flops(), ok, timed)
        return True

    def measure(self, session, seconds: float, tracer=None,
                warmup: bool = True) -> Phase:
        phase = Phase()
        if warmup:
            for _ in range(self.warmup):
                if not self.run_graph(session, phase, None, timed=False):
                    return phase
        before = self.counters(session)
        deadline = perf_counter() + seconds
        while self.run_graph(session, phase, tracer, timed=True):
            if perf_counter() >= deadline:
                break
        phase.counters = _delta(self.counters(session), before)
        phase.wall = sum(phase.graph_s)
        return phase



# ---------------------------------------------------------------------------
# fine-grained generated programs
# ---------------------------------------------------------------------------

class FineThreads(Workload):
    """Tiny-body generated tasks on threads: per-task runtime cost
    (core.*, obs.metrics) is nearly all the time, blas idle."""

    name = "fine_threads"
    backend = "threads"
    setup_repeats = 25
    #: Tasks per generated program (one program is one graph).
    program_tasks = 2400

    def prepare(self) -> None:
        self.program = FineProgram(self.gen_seed, self.program_tasks)
        self._oracle = [a.copy() for a in self.program.initial]
        self.program.submit(self._oracle)
        recorded = record_program(
            self.program.submit, [a.copy() for a in self.program.initial],
            execute="skip",
        ).graph.stats
        self.recorded = (recorded.total_tasks, recorded.total_edges,
                         recorded.renames)
        self._check_exact_counts()
        self.pool = [a.copy() for a in self.program.initial]

    def _check_exact_counts(self) -> None:
        """With no worker running tasks during submission, every hazard
        is live, so the runtime's counts must equal the recorder's."""

        pool = [a.copy() for a in self.program.initial]
        with SmpssRuntime(num_workers=0) as rt:
            self.program.submit(pool)
            rt.barrier()
            stats = rt.graph.stats
            counts = (stats.total_tasks, stats.total_edges, stats.renames)
        if counts != self.recorded:
            raise BenchError(
                f"{self.name}: runtime counted (tasks, edges, renames) = "
                f"{counts}, record_program counted {self.recorded}")
        if not same(pool, self._oracle):
            raise BenchError(f"{self.name}: 0-worker run differs from oracle")

    def reset(self) -> None:
        for dst, src in zip(self.pool, self.program.initial):
            dst[...] = src

    def graph(self, session) -> int:
        self._before = runtime_counters(session)
        self.program.submit(self.pool)
        session.barrier()
        return self.program.task_count

    def check(self, session) -> bool:
        # A task finished before a later one is analysed needs no edge
        # or rename, so the runtime may count fewer than the recorder's
        # worst case -- never more, and never a different task count.
        got = _delta(runtime_counters(session), self._before)
        tasks, edges, renames = self.recorded
        counts_ok = (got["tasks"] == tasks and got["edges"] <= edges
                     and got["renames"] <= renames)
        return super().check(session) and counts_ok

    def outputs(self) -> list:
        return self.pool

    def oracle(self) -> list:
        return self._oracle

    def graph_flops(self) -> float:
        return float(self.program.flops)

    def definitions(self) -> list:
        return [rot_t.definition, put_t.definition, acc_t.definition]


class FineProcesses(FineThreads):
    """The fine_threads generator on processes, arena and plain
    operands: differs from fine_threads only in the mp layer."""

    name = "fine_processes"
    backend = "processes"
    setup_repeats = 15
    program_tasks = 800
    #: Pool entries allocated in the shared arena, which cross as
    #: handles; the rest are plain arrays, which ship by pickle and
    #: come back by write-back.
    in_arena = 9

    def prepare(self) -> None:
        from repro.mp.arena import SharedArena

        super().prepare()
        self.arena = SharedArena(segment_bytes=1 << 16)
        self.pool = [
            self.arena.array(a) if i < self.in_arena else a.copy()
            for i, a in enumerate(self.program.initial)
        ]

    def close_inputs(self) -> None:
        self.pool = []
        self.arena.close()

# ---------------------------------------------------------------------------
# tiled Cholesky
# ---------------------------------------------------------------------------

class CholeskyTiles(Workload):
    """Paper's headline app at its 256x256 tile size (n=2048) on
    threads: blas does the work, the per-task layers are bypassed."""

    name = "cholesky_tiles"
    backend = "threads"
    setup_repeats = 15
    n_blocks = 8
    block = 256

    def prepare(self) -> None:
        self.input = spd_tiles(self.gen_seed, self.n_blocks, self.block)
        oracle = self.input.copy()
        cholesky_hyper(oracle)
        self._oracle = lower_tiles(oracle)
        self.work = self.input.copy()
        self.tasks = hyper_task_count(self.n_blocks)["total"]

    def reset(self) -> None:
        load_tiles(self.work, self.input)

    def graph(self, session) -> int:
        cholesky_hyper(self.work)
        session.barrier()
        return self.tasks

    def outputs(self) -> list:
        return lower_tiles(self.work)

    def oracle(self) -> list:
        return self._oracle

    def graph_flops(self) -> float:
        return cholesky_flops(self.n_blocks * self.block)


class ClusterCholesky(CholeskyTiles):
    """6x6 tiles of 64^2 resubmitted on 2 localhost agents: dist
    encoding, residency, placement and net frames dominate."""

    name = "cluster_cholesky"
    backend = "cluster"
    n_blocks = 6
    block = 64
    nodes = 2
    #: One round: the first graph ships every tile and the later ones
    #: reuse what stays resident, so the window covers cold and warm.
    warmup = 0
    rounds = 1
    setup_repeats = 25

    def open(self):
        from repro.dist import AgentServer

        self.servers = []
        try:
            for _ in range(self.nodes):
                self.servers.append(
                    AgentServer("tcp:127.0.0.1:0", slots=1).start())
            return SmpssRuntime(
                backend="cluster", nodes=[s.address for s in self.servers]
            ).start()
        except BaseException:
            self._close_servers()
            raise

    def close(self, session) -> None:
        try:
            session.shutdown()
        finally:
            self._close_servers()

    def _close_servers(self) -> None:
        for server in self.servers:
            server.close()
        self.servers = []

    def exec_threads(self, session) -> int:
        return self.nodes


# ---------------------------------------------------------------------------
# served
# ---------------------------------------------------------------------------

class _Served:
    """An in-process daemon plus its connected client threads."""

    def __init__(self, daemon, clients: int):
        self.daemon = daemon
        self.clients: list[threading.Thread] = []
        self.commands = [queue.Queue() for _ in range(clients)]
        self.results: queue.Queue = queue.Queue()
        self.ready: queue.Queue = queue.Queue()


class ServedCholesky(CholeskyTiles):
    """2 closed-loop tenants send the 56-task Cholesky to an in-process
    daemon on processes: serve, mp and the JSON-lines client dominate."""

    name = "served_cholesky"
    #: The daemon's fleet: worker processes, so this workload also
    #: carries the mp layer (dispatch, encoding, write-back).
    backend = "processes"
    n_blocks = 6
    block = 64
    clients = 2
    warmup = 1
    setup_repeats = 25

    def prepare(self) -> None:
        super().prepare()
        self.works = [self.input.copy() for _ in range(self.clients)]

    def open(self):
        from repro.serve import ServeDaemon

        daemon = ServeDaemon("tcp:127.0.0.1:0", workers=DEFAULT_WORKERS,
                             backend=self.backend)
        served = _Served(daemon, self.clients)
        for idx in range(self.clients):
            thread = threading.Thread(
                target=self._client, args=(served, idx),
                name=f"bench-client-{idx}", daemon=True)
            served.clients.append(thread)
            thread.start()
        errors = [served.ready.get() for _ in range(self.clients)]
        failed = [e for e in errors if e is not None]
        if failed:
            self.close(served)
            raise failed[0]
        return served

    def close(self, served) -> None:
        for commands in served.commands:
            commands.put(None)
        for thread in served.clients:
            thread.join()
        served.daemon.close()

    def exec_threads(self, served) -> int:
        return DEFAULT_WORKERS

    def counters(self, served) -> dict:
        return {}

    def _client(self, served, idx: int) -> None:
        from repro.serve import connect

        session = connect(served.daemon.address, tenant=f"bench-{idx}")
        try:
            session.start()
        except Exception as exc:  # noqa: BLE001 - handed to open()
            served.ready.put(exc)
            return
        try:
            served.ready.put(None)
            while True:
                command = served.commands[idx].get()
                if command is None:
                    return
                try:
                    self._client_loop(session, idx, *command)
                finally:
                    served.results.put(idx)
        finally:
            session.close()

    def _client_loop(self, session, idx, phase, deadline, count, tracer):
        work = self.works[idx]
        done = 0
        while True:
            try:
                load_tiles(work, self.input)
                if tracer is not None:
                    tracer.begin_graph()
                t0 = perf_counter()
                cholesky_hyper(work)
                session.barrier()
                seconds = perf_counter() - t0
                outputs = lower_tiles(work)
                if self.corrupt and idx == 0:
                    self.corrupt = False
                    outputs[0].flat[0] += 1.0
                ok = same(outputs, self._oracle)
            except Exception as exc:  # noqa: BLE001 - a failed graph
                phase.fail(exc)
                return
            phase.record(seconds, self.tasks, self.graph_flops(), ok,
                         timed=deadline is not None)
            done += 1
            if count is not None and done >= count:
                return
            if deadline is not None and perf_counter() >= deadline:
                return

    def _round(self, served, phase, deadline, count, tracer) -> None:
        for commands in served.commands:
            commands.put((phase, deadline, count, tracer))
        for _ in served.clients:
            served.results.get()

    def measure(self, served, seconds: float, tracer=None,
                warmup: bool = True) -> Phase:
        phase = Phase()
        if warmup and self.warmup:
            self._round(served, phase, None, self.warmup, None)
        t0 = perf_counter()
        self._round(served, phase, t0 + seconds, None, tracer)
        phase.wall = perf_counter() - t0
        return phase


#: The workloads BENCHMARK.json declares, whose end-to-end metrics gate.
WORKLOADS = {
    cls.name: cls
    for cls in (CholeskyTiles, ClusterCholesky, ServedCholesky)
}

#: Runnable by name but not declared: on a shared 2-CPU host their
#: wake-up-bound task rates swing with the host's slow spells by more
#: than the largest bound a gated metric may have (see README.md).
UNGATED = {cls.name: cls for cls in (FineThreads, FineProcesses)}
