"""Quick-scale tests of the figure experiment harness itself.

The full-scale shape assertions live in ``benchmarks/``; these cover
the experiment code paths and result plumbing at test-suite speed.
"""

import json

import pytest

from repro.bench import experiments as E
from repro.bench.harness import FigureResult


class TestFig05:
    def test_other_sizes(self):
        facts = E.fig05_cholesky_graph(n_blocks=4)
        assert facts["total_tasks"] == facts["expected_total"] == 20
        assert facts["witness"] == {}  # only defined for the 6x6 case


class TestFig08Quick:
    def test_small_sweep_has_interior_optimum(self):
        fig = E.fig08_cholesky_blocksize(
            n=512, block_sizes=(16, 32, 64, 128), cores=8, libraries=("goto",)
        )
        series = fig.get("SMPSs + Goto tiles").values
        best = max(range(len(series)), key=lambda i: series[i])
        assert 0 < best < len(series) - 1
        assert fig.extras[("goto", 16)]["tasks"] > fig.extras[("goto", 64)]["tasks"]


class TestFig11Quick:
    def test_series_present_and_positive(self):
        fig = E.fig11_cholesky_scaling(n=1024, m=128, threads=(1, 2, 4))
        assert {s.label for s in fig.series} == {
            "Threaded Goto", "SMPSs + Goto tiles",
            "Threaded Mkl", "SMPSs + Mkl tiles", "Peak",
        }
        for s in fig.series:
            assert all(v > 0 for v in s.values)

    def test_peak_is_linear(self):
        fig = E.fig11_cholesky_scaling(n=1024, m=128, threads=(1, 2, 4))
        assert fig.get("Peak").values == [6.4, 12.8, 25.6]


class TestFig12Quick:
    def test_smpss_below_peak(self):
        fig = E.fig12_matmul_scaling(n=1024, m=256, threads=(1, 4))
        peak = fig.get("Peak").values
        smpss = fig.get("SMPSs + Goto tiles").values
        assert all(s < p for s, p in zip(smpss, peak))


class TestFig13Quick:
    def test_runs_and_scales(self):
        fig = E.fig13_strassen_scaling(n=1024, m=256, threads=(1, 4))
        goto = fig.get("SMPSs + Goto tiles").values
        assert goto[1] > goto[0] * 2


class TestFig14Quick:
    def test_three_models_near_one_at_single_thread(self):
        fig = E.fig14_multisort(n=1 << 16, quicksize=1 << 12, threads=(1, 2))
        for label in ("Cilk", "OMP3 tasks", "SMPSs"):
            assert 0.8 < fig.get(label).values[0] < 1.2


class TestFig1516Quick:
    def test_fig15_ordering(self):
        fig = E.fig15_nqueens(n=8, threads=(1, 2))
        assert fig.get("SMPSs").values[0] > 1.0
        assert fig.get("Cilk").values[0] < 1.0

    def test_fig16_normalised(self):
        fig = E.fig16_nqueens_scalability(n=8, threads=(1, 2))
        for label in ("Cilk", "OMP3 tasks", "SMPSs"):
            values = fig.get(label).values
            assert values[0] == 1.0
            assert values[1] > 1.5


class TestTaskCounts:
    def test_full_report(self):
        out = E.text_task_counts()
        assert out["flat_cholesky_T(128)"] == 374_272
        assert out["recorded_flat_N8"] == out["formula_flat_N8"]


class TestFigureExports:
    def _figure(self):
        fig = FigureResult("Figure X", "t", "threads", "Gflops", [1, 2])
        fig.add("A", [1.5, 3.0])
        fig.notes.append("hello")
        return fig

    def test_csv(self):
        csv_text = self._figure().to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "threads,A"
        assert lines[1] == "1,1.5"

    def test_json_round_trip(self):
        doc = json.loads(self._figure().to_json())
        assert doc["figure_id"] == "Figure X"
        assert doc["series"]["A"] == [1.5, 3.0]
        assert doc["notes"] == ["hello"]

    def test_save_by_extension(self, tmp_path):
        fig = self._figure()
        csv_path = tmp_path / "fig.csv"
        json_path = tmp_path / "fig.json"
        txt_path = tmp_path / "fig.txt"
        fig.save(str(csv_path))
        fig.save(str(json_path))
        fig.save(str(txt_path))
        assert csv_path.read_text().startswith("threads")
        assert json.loads(json_path.read_text())["title"] == "t"
        assert "Figure X" in txt_path.read_text()

    def test_cli_save(self, tmp_path, capsys):
        from repro.bench.cli import main

        assert main(["fig12", "--quick", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "fig12.csv").exists()
        assert (tmp_path / "fig12.json").exists()
