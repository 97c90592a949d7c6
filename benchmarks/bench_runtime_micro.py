"""Microbenchmarks of the runtime itself (not figure reproductions).

Measures the costs the paper's section VI block-size discussion is
about: per-task dependency analysis, ready-list operations, pragma
parsing, threaded execution overhead, and simulator event throughput.
"""

import time

import numpy as np

from repro import SmpssRuntime, css_task, parse_pragma
from repro.core.invocation import instantiate
from repro.core.dependencies import DependencyTracker
from repro.core.graph import TaskGraph
from repro.core.scheduler import SmpssScheduler
from repro.core.task import TaskDefinition, TaskInstance, reset_task_ids
from repro.core.tracing import NullTracer


@css_task("input(a, b) inout(c)")
def _gemm_like(a, b, c):  # noqa: ARG001
    pass


def test_pragma_parse(benchmark):
    text = "input(data{i1..j1}, data{i2..j2}, i1, j1, i2, j2) output(dest{i1..j2})"
    parsed = benchmark(parse_pragma, text)
    assert len(parsed.params) == 7


def test_task_instantiation(benchmark):
    a = np.zeros((4, 4), np.float32)
    b = np.zeros((4, 4), np.float32)
    c = np.zeros((4, 4), np.float32)
    defn = _gemm_like.definition

    inst = benchmark(instantiate, defn, (a, b, c), {})
    assert len(inst.accesses) == 3


def test_dependency_analysis_throughput(benchmark):
    """Analyse a 1000-task chain: the paper's task_add overhead."""

    defn = _gemm_like.definition
    a = np.zeros((4, 4), np.float32)
    b = np.zeros((4, 4), np.float32)
    c = np.zeros((4, 4), np.float32)

    def analyse_chain():
        reset_task_ids()
        tracker = DependencyTracker(TaskGraph(keep_finished=False))
        for _ in range(1000):
            tracker.analyze(instantiate(defn, (a, b, c), {}))
        return tracker

    tracker = benchmark(analyse_chain)
    assert tracker.graph.stats.total_tasks == 1000


def test_scheduler_push_pop(benchmark):
    defn = TaskDefinition(func=lambda: None, params=(), name="t")

    def cycle():
        reset_task_ids()
        scheduler = SmpssScheduler(num_threads=8)
        tasks = [
            TaskInstance(definition=defn, accesses=[], arguments={})
            for _ in range(512)
        ]
        for i, t in enumerate(tasks):
            scheduler.push_ready_batch([t], i % 8)
        popped = 0
        for i in range(512):
            if scheduler.pop(i % 8) is not None:
                popped += 1
        return popped

    assert benchmark(cycle) == 512


def test_null_tracer_overhead_under_five_percent():
    """Tracing-off must be free: NullTracer adds <5% to the hot path.

    The scheduler (and DependencyTracker) normalise falsy tracers to
    ``None`` at construction, so the disabled-tracing guard is a plain
    ``None`` check rather than a Python-level ``__bool__`` call per
    push/pop.  This pins that property with a paired measurement of the
    hottest tracer-guarded loop — 512 tasks pushed and popped through
    the section III policy — comparing ``tracer=None`` against
    ``tracer=NullTracer()``.  min-of-N timing rejects scheduler noise.
    """

    defn = TaskDefinition(func=lambda: None, params=(), name="t")

    def cycle(tracer):
        reset_task_ids()
        scheduler = SmpssScheduler(num_threads=8, tracer=tracer)
        tasks = [
            TaskInstance(definition=defn, accesses=[], arguments={})
            for _ in range(512)
        ]
        for rounds in range(50):
            for i, t in enumerate(tasks):
                scheduler.push_ready_batch([t], i % 8)
            for i in range(512):
                scheduler.pop(i % 8)

    def best_of(tracer_factory, repeats=7):
        best = float("inf")
        for _ in range(repeats):
            tracer = tracer_factory()
            start = time.perf_counter()
            cycle(tracer)
            best = min(best, time.perf_counter() - start)
        return best

    cycle(None)  # warm up allocators and bytecode caches
    disabled = best_of(lambda: None)
    null = best_of(NullTracer)
    overhead = null / disabled - 1.0
    assert overhead < 0.05, (
        f"NullTracer path {overhead:.1%} slower than tracing disabled "
        f"({null:.4f}s vs {disabled:.4f}s)"
    )


def test_health_watchdog_overhead_under_five_percent():
    """``health=True`` (tracing off) adds <5% to the per-task pipeline.

    The health layer's *whole* hot-path footprint is one
    ``FlightRecorder.note_task`` call per completed task — a tuple
    appended to a bounded ring outside both runtime locks — plus a
    ``None`` check when health is off; the watchdog samples on its own
    thread, off the hot path entirely.  A paired wall-clock A/B of two
    full runtimes cannot resolve 5% on a noisy shared host (the noise
    floor between *identical* configs exceeds the bound), so this pin
    compares the two costs directly, each measured the stable way:

    * the per-task cost of the full submission→execution→completion
      pipeline, min-of-N over 300-task batches (the quantity
      ``micro_submission_throughput`` gates);
    * the measured cost of one ``note_task`` call, averaged over a
      tight loop (deterministic to a few ns).

    The health addition must be <5% of the cheapest observed pipeline
    cost — the same claim as a paired A/B, without the noise.
    """

    from repro.obs.flightrec import FlightRecorder

    a = np.zeros(1)

    @css_task("inout(x)")
    def tick(x):
        x += 1

    def batch_seconds() -> float:
        a[0] = 0
        with SmpssRuntime(num_workers=2, metrics=True) as rt:
            tick(a)  # first-submission compile outside the clock
            rt.barrier()
            start = time.perf_counter()
            for _ in range(300):
                tick(a)
            rt.barrier()
            elapsed = time.perf_counter() - start
        assert a[0] == 301
        return elapsed

    batch_seconds()  # warm up allocators and bytecode caches
    per_task = min(batch_seconds() for _ in range(7)) / 300

    recorder = FlightRecorder(num_threads=2)
    calls = 50_000
    start = time.perf_counter()
    for i in range(calls):
        recorder.note_task(i, "tick", 0, 1.0, 0.5)
    note_cost = (time.perf_counter() - start) / calls

    overhead = note_cost / per_task
    assert overhead < 0.05, (
        f"flight-recorder hot path is {overhead:.1%} of the per-task "
        f"pipeline cost ({note_cost * 1e9:.0f}ns vs "
        f"{per_task * 1e6:.1f}us per task)"
    )


def test_threaded_runtime_task_overhead(benchmark):
    """Wall-clock per-task cost of the full threaded pipeline."""

    a = np.zeros(1)

    @css_task("inout(x)")
    def tick(x):
        x += 1

    def run_batch():
        a[0] = 0
        with SmpssRuntime(num_workers=2) as rt:
            for _ in range(300):
                tick(a)
            rt.barrier()
        return a[0]

    assert benchmark(run_batch) == 300


def test_submission_throughput_tasks_per_sec(benchmark):
    """End-to-end tasks/sec of the submission fast path, both shapes.

    The same measurement backs the committed ``micro`` figure baseline
    (``repro.bench compare`` gates it); here it rides along with the
    other microbenchmarks so a local ``pytest benchmarks/`` run shows
    the tasks/sec figure directly in ``extra_info``.
    """

    from repro.bench.experiments import _submission_rate_once

    def run_both():
        return {
            "chain-1": _submission_rate_once("chain-1", 1000, 2),
            "fanout-64": _submission_rate_once("fanout-64", 1000, 2),
        }

    rates = benchmark.pedantic(run_both, rounds=3, iterations=1)
    for variant, rate in rates.items():
        benchmark.extra_info[f"{variant}_tasks_per_sec"] = round(rate)
        assert rate > 0


def test_simulator_event_throughput(benchmark):
    """Simulated tasks retired per second of host time."""

    from repro.sim import ALTIX_32, CostModel, run_static
    from repro.sim.baselines import build_multisort_dag, scheduler_for_model

    template = build_multisort_dag(1 << 18, 1 << 12, "cilk")
    machine = ALTIX_32

    def run():
        return run_static(
            template.build(), machine,
            CostModel(machine, block_size=1),
            scheduler_for_model("cilk"),
        )

    res = benchmark(run)
    assert res.tasks_executed == len(template.nodes)


def test_live_gate_detached_overhead_under_five_percent():
    """A dark dispatch gate must be (nearly) free: <5% on push/pop.

    ``live=False`` leaves ``scheduler.gate`` as ``None``, so the gated
    dispatch path costs one attribute load and a ``None`` check per
    pop.  Even the next tier up — a live session *attached* but wide
    open (no pause, no breakpoints) — must stay within 5% of the
    ungated loop, or attaching a dashboard would perturb the very
    schedule being inspected.  ``DispatchGate.install`` guarantees
    that: a disengaged gate vacates the scheduler's ``gate`` slot
    entirely, so both variants here run the identical ``None``-checked
    path.  Same paired min-of-N idiom as the NullTracer pin, with the
    two variants *interleaved* per repeat so clock-frequency drift
    cancels instead of biasing one side.
    """

    from repro.core.scheduler import DispatchGate

    defn = TaskDefinition(func=lambda: None, params=(), name="t")

    def cycle(gate):
        reset_task_ids()
        scheduler = SmpssScheduler(num_threads=8)
        if gate is not None:
            gate.install(scheduler)
        tasks = [
            TaskInstance(definition=defn, accesses=[], arguments={})
            for _ in range(512)
        ]
        for rounds in range(50):
            for i, t in enumerate(tasks):
                scheduler.push_ready_batch([t], i % 8)
            for i in range(512):
                scheduler.pop(i % 8)

    def timed(gate) -> float:
        start = time.perf_counter()
        cycle(gate)
        return time.perf_counter() - start

    cycle(None)  # warm up allocators and bytecode caches
    cycle(DispatchGate())
    detached = float("inf")
    idle_gate = float("inf")
    for _ in range(9):
        detached = min(detached, timed(None))
        idle_gate = min(idle_gate, timed(DispatchGate()))
    overhead = idle_gate / detached - 1.0
    assert overhead < 0.05, (
        f"idle DispatchGate path {overhead:.1%} slower than no gate "
        f"({idle_gate:.4f}s vs {detached:.4f}s)"
    )
