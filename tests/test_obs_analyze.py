"""Tests for the critical-path / utilisation analyzer and its CLI."""

import numpy as np
import pytest

from repro import SmpssRuntime, css_task, record_program
from repro.apps.cholesky import cholesky_hyper
from repro.blas.hypermatrix import HyperMatrix
from repro.obs import (
    analyze_events,
    analyze_tracer,
    load_chrome_trace,
    render_report,
    runtime_report,
    write_chrome_trace,
)
from repro.obs.cli import main as obs_main

pytestmark = pytest.mark.obs


@css_task("inout(a)")
def bump(a):
    a += 1


@css_task("input(a, b) inout(c)")
def gemm_t(a, b, c):
    c += a @ b


def _placeholder_hyper(n_blocks):
    hm = HyperMatrix(n_blocks, 1, np.float32)
    for i in range(n_blocks):
        for j in range(n_blocks):
            hm[i, j] = np.zeros((1, 1), np.float32)
    return hm


class TestCriticalPath:
    def test_cholesky_6x6_span_matches_hand_check(self):
        """T∞ of the 6x6 blocked Cholesky DAG, hand-checked.

        The longest chain alternates potrf(k) -> trsm(k+1,k) ->
        syrk(k+1,k) -> potrf(k+1): three tasks per elimination step
        after the first potrf, so T∞ = 1 + 3*(N-1) = 16 for N=6.
        """

        prog = record_program(
            cholesky_hyper, _placeholder_hyper(6), execute="skip"
        )
        assert prog.graph.critical_path_length() == 16
        path = prog.critical_path()
        assert len(path) == 16
        # The path is a real chain: consecutive tasks are dependent.
        for pred, succ in zip(path, path[1:]):
            assert pred in succ.predecessors
        # It starts at the first potrf and ends at the last.
        assert path[0].name == "spotrf_t"
        assert path[-1].name == "spotrf_t"

    def test_weighted_path_prefers_heavy_branch(self):
        def program():
            a, b, c = np.zeros(1), np.zeros(1), np.zeros(1)
            bump(a)          # 1
            bump(b)          # 2
            gemm_t(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))  # 3
            bump(a)          # 4: chain on a

        prog = record_program(program, execute="skip")
        heavy = prog.graph.critical_path_tasks(
            weight=lambda t: 10.0 if t.name == "gemm_t" else 1.0
        )
        assert [t.name for t in heavy] == ["gemm_t"]
        unit = prog.graph.critical_path_tasks()
        assert [t.name for t in unit] == ["bump", "bump"]


class TestAnalyzeTracer:
    def _traced(self, tasks=8, workers=3):
        arr = np.zeros(1)
        rt = SmpssRuntime(num_workers=workers, trace=True, keep_graph=True)
        with rt:
            for _ in range(tasks):
                bump(arr)
            rt.barrier()
        return rt

    def test_busy_times_match_tracer_within_one_percent(self):
        rt = self._traced(tasks=10)
        report = analyze_tracer(rt.tracer, num_threads=rt.num_threads)
        reference = rt.tracer.busy_time_by_thread()
        for thread, busy in reference.items():
            assert report.threads[thread].busy == pytest.approx(
                busy, rel=0.01
            )
        assert report.total_tasks == 10

    def test_thread_padding_and_idle(self):
        rt = self._traced(tasks=4, workers=3)
        report = analyze_tracer(rt.tracer, num_threads=4)
        assert set(report.threads) == {0, 1, 2, 3}
        for usage in report.threads.values():
            assert usage.idle(report.makespan) <= report.makespan + 1e-12

    def test_locality_rate_bounds(self):
        report = analyze_tracer(self._traced(tasks=10).tracer)
        assert 0.0 <= report.locality_rate <= 1.0
        # A serial inout chain: at most 9 unlock candidates (the root is
        # released at submission; later tasks only count when a worker
        # completion — not the fast main thread — released them).
        assert report.locality_candidates <= 9
        assert report.locality_hits <= report.locality_candidates

    def test_graph_adds_work_span_bounds(self):
        rt = self._traced(tasks=6)
        report = analyze_tracer(
            rt.tracer, graph=rt.graph, num_threads=rt.num_threads
        )
        assert report.work == pytest.approx(report.total_busy, rel=0.05)
        # A pure chain: span == work, parallelism == 1.
        assert report.span == pytest.approx(report.work, rel=0.05)
        assert report.bound_lower <= report.bound_upper

    def test_barrier_time_recorded(self):
        report = analyze_tracer(self._traced().tracer)
        assert report.barrier_time >= 0.0

    def test_utilisation_in_unit_interval(self):
        report = analyze_tracer(self._traced().tracer, num_threads=4)
        assert 0.0 < report.utilisation <= 1.0


class TestRenderAndRuntimeReport:
    def test_render_contains_sections(self):
        arr = np.zeros(1)
        rt = SmpssRuntime(num_workers=2, trace=True)
        with rt:
            for _ in range(5):
                bump(arr)
            rt.barrier()
        text = render_report(analyze_tracer(rt.tracer), title="t")
        assert "== t ==" in text
        assert "makespan" in text and "per-thread:" in text
        assert "locality hit-rate" in text
        assert "bump" in text

    def test_runtime_report_without_trace(self):
        arr = np.zeros(1)
        rt = SmpssRuntime(num_workers=1)
        with rt:
            bump(arr)
            rt.barrier()
        text = rt.report()
        assert "no trace recorded" in text
        assert "metrics:" in text  # registry still contributes

    def test_runtime_report_with_trace_and_graph(self):
        arr = np.zeros(1)
        rt = SmpssRuntime(num_workers=2, trace=True, keep_graph=True)
        with rt:
            for _ in range(6):
                bump(arr)
            rt.barrier()
        text = rt.report()
        assert "T1 (work)" in text and "Tinf (span)" in text
        assert "greedy bounds" in text

    def test_simulated_runtime_report(self):
        from repro.sim import ALTIX_32, CostModel, SimulatedRuntime

        machine = ALTIX_32.with_cores(4)
        rt = SimulatedRuntime(
            machine=machine,
            cost_model=CostModel(machine, block_size=64),
            trace=True,
        )
        with rt:
            cholesky_hyper(_placeholder_hyper(4))
            rt.barrier()
        text = rt.report()
        assert "per-thread:" in text
        assert "thr  3" in text  # all 4 virtual cores reported
        assert runtime_report(rt) == rt.report().replace(
            "simulated runtime report", "runtime report"
        )


class TestCli:
    def test_report_command(self, tmp_path, capsys):
        arr = np.zeros(1)
        rt = SmpssRuntime(num_workers=2, trace=True)
        with rt:
            for _ in range(5):
                bump(arr)
            rt.barrier()
        path = write_chrome_trace(rt.tracer, str(tmp_path / "trace.json"))
        assert obs_main(["report", path, "--threads", "3"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "thr  2" in out

    def test_report_missing_file(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_report_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}')
        assert obs_main(["report", str(path)]) == 1
        assert "no recognisable events" in capsys.readouterr().err

    def test_loaded_report_matches_live_analysis(self, tmp_path):
        arr = np.zeros(1)
        rt = SmpssRuntime(num_workers=2, trace=True)
        with rt:
            for _ in range(6):
                bump(arr)
            rt.barrier()
        live = analyze_tracer(rt.tracer)
        loaded = analyze_events(
            load_chrome_trace(str(write_chrome_trace(
                rt.tracer, str(tmp_path / "t.json")
            )))
        )
        assert loaded.total_tasks == live.total_tasks
        assert loaded.makespan == pytest.approx(live.makespan, rel=1e-3)
        assert loaded.locality_hits == live.locality_hits
        assert loaded.locality_candidates == live.locality_candidates
