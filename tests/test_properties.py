"""Property-based tests: the runtime's core guarantee.

The central invariant of the whole paper: *an annotated program run in
parallel produces exactly the results of its sequential execution*, for
any program — any mix of input/output/inout accesses over any aliasing
pattern, with renaming firing or not depending on timing.

Hypothesis generates random straight-line task programs over a small
pool of arrays and checks parallel == sequential — on threads,
processes and a two-agent localhost cluster — with and without
renaming, plus region programs over random intervals.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import SmpssRuntime, css_task
from repro.core.recorder import RecordingRuntime
from repro.dist import AgentServer

# ---------------------------------------------------------------------------
# A tiny task vocabulary with distinct directionality signatures.
# Every body is deterministic, so results are comparable bit-for-bit.
# ---------------------------------------------------------------------------


@css_task("input(a) output(b)")
def t_copy_scale(a, b):
    np.multiply(a, 2.0, out=b)


@css_task("input(a, b) output(c)")
def t_add(a, b, c):
    np.add(a, b, out=c)


@css_task("inout(a)")
def t_incr(a):
    a += 1.0


@css_task("input(a) inout(b)")
def t_acc(a, b):
    b += a


@css_task("inout(a) input(b)")
def t_mix(a, b):
    a *= 0.5
    a += b


OPS = [
    ("copy_scale", t_copy_scale, 2),
    ("add", t_add, 3),
    ("incr", t_incr, 1),
    ("acc", t_acc, 2),
    ("mix", t_mix, 2),
]


program_strategy = st.lists(
    st.tuples(
        st.integers(0, len(OPS) - 1),  # which op
        st.lists(st.integers(0, 5), min_size=3, max_size=3),  # array picks
    ),
    min_size=1,
    max_size=25,
)


def fresh_pool():
    return [np.full(4, float(i), dtype=np.float64) for i in range(6)]


def run_program(program, pool):
    for op_idx, picks in program:
        _name, task, arity = OPS[op_idx]
        args = [pool[p] for p in picks[:arity]]
        task(*args)


def pool_snapshot(pool):
    return [np.array(a) for a in pool]


def run_sequential(program):
    pool = fresh_pool()
    run_program(program, pool)
    return pool_snapshot(pool)


@pytest.fixture(scope="module")
def agent_addresses():
    """Two in-process localhost agents, one slot each."""

    agents = [AgentServer("tcp:127.0.0.1:0", slots=1).start()
              for _ in range(2)]
    try:
        yield [agent.address for agent in agents]
    finally:
        for agent in agents:
            agent.close()


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    program=program_strategy,
    backend=st.sampled_from(["threads", "processes", "cluster"]),
)
def test_threaded_equals_sequential(program, backend, agent_addresses):
    expected = run_sequential(program)
    pool = fresh_pool()
    if backend == "cluster":
        runtime = SmpssRuntime(backend="cluster", nodes=agent_addresses)
    else:
        runtime = SmpssRuntime(num_workers=3, backend=backend)
    with runtime as rt:
        run_program(program, pool)
        rt.barrier()
    for got, want in zip(pool, expected):
        assert np.array_equal(got, want)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=program_strategy)
def test_threaded_without_renaming_equals_sequential(program):
    expected = run_sequential(program)
    pool = fresh_pool()
    with SmpssRuntime(num_workers=2, enable_renaming=False) as rt:
        run_program(program, pool)
        rt.barrier()
    for got, want in zip(pool, expected):
        assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(program=program_strategy)
def test_eager_recording_equals_sequential(program):
    expected = run_sequential(program)
    pool = fresh_pool()
    recorder = RecordingRuntime(execute="eager")
    with recorder:
        run_program(program, pool)
        recorder.barrier()
    for got, want in zip(pool, expected):
        assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(program=program_strategy, window=st.integers(1, 6))
def test_graph_window_does_not_change_results(program, window):
    expected = run_sequential(program)
    pool = fresh_pool()
    with SmpssRuntime(num_workers=2, max_pending_tasks=window) as rt:
        run_program(program, pool)
        rt.barrier()
    for got, want in zip(pool, expected):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Region programs: random interval reads/writes over one array.
# ---------------------------------------------------------------------------


@css_task("inout(data{i..j}) input(i, j)")
def r_negate(data, i, j):
    data[i : j + 1] *= -1.0

@css_task("inout(data{i..j}) input(i, j, v)")
def r_fill(data, i, j, v):
    data[i : j + 1] = float(v)


@css_task("input(data{i..j}, i, j) inout(acc)")
def r_sum(data, i, j, acc):
    acc += data[i : j + 1].sum()


region_program = st.lists(
    st.tuples(
        st.integers(0, 2),  # op: negate / fill / sum
        st.integers(0, 31),
        st.integers(0, 31),
        st.integers(-5, 5),
    ),
    min_size=1,
    max_size=20,
)


def run_region_program(program, data, acc):
    for op, x, y, v in program:
        i, j = min(x, y), max(x, y)
        if op == 0:
            r_negate(data, i, j)
        elif op == 1:
            r_fill(data, i, j, v)
        else:
            r_sum(data, i, j, acc)


@settings(max_examples=40, deadline=None)
@given(program=region_program)
def test_region_program_threaded_equals_sequential(program):
    data_seq = np.arange(32, dtype=np.float64)
    acc_seq = np.zeros(1)
    run_region_program(program, data_seq, acc_seq)

    data_par = np.arange(32, dtype=np.float64)
    acc_par = np.zeros(1)
    with SmpssRuntime(num_workers=3) as rt:
        run_region_program(program, data_par, acc_par)
        rt.barrier()
    assert np.array_equal(data_par, data_seq)
    assert np.array_equal(acc_par, acc_seq)


# ---------------------------------------------------------------------------
# Graph invariants under random programs
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(program=program_strategy)
def test_recorded_graph_is_acyclic_and_respects_program_order(program):
    import networkx as nx

    pool = fresh_pool()
    recorder = RecordingRuntime(execute="skip")
    with recorder:
        run_program(program, pool)
    prog = recorder.finish()
    g = prog.graph.to_networkx()
    assert nx.is_directed_acyclic_graph(g)
    # Dependencies always point forward in invocation order.
    for pred, succ in g.edges():
        assert pred < succ


@settings(max_examples=25, deadline=None)
@given(program=program_strategy)
def test_renaming_never_adds_edges(program):
    """With renaming, the edge set is a subset of the no-renaming one."""

    def edges(renaming):
        pool = fresh_pool()
        recorder = RecordingRuntime(execute="skip", enable_renaming=renaming)
        with recorder:
            run_program(program, pool)
        rec = recorder.finish()
        # Normalise ids: same program yields same numbering.
        return set((p, s) for p, s, _k in rec.graph.edges())

    assert edges(True) <= edges(False)
