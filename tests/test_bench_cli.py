"""The repro.bench CLI: --save/--quick/--repeat/--seed and the compare gate.

A synthetic millisecond-cheap figure is injected into the registry so
the CLI paths (repeat aggregation, provenance stamping, baseline
recording, regression/improvement exit codes) are exercised without
running real simulations.  One test at the end runs a real quick-mode
figure against the committed baselines as the acceptance check.
"""

import json
import os

import pytest

from repro.bench import experiments as E
from repro.bench import registry
from repro.bench.compare import (
    compare_figures,
    lower_is_better,
    render_comparison,
)
from repro.bench.harness import FigureResult

pytestmark = pytest.mark.bench


@pytest.fixture
def fake_figure(monkeypatch):
    """Register a cheap synthetic figure 'figt' controlled by `state`."""

    state = {"factor": 1.0, "jitter": [0.0], "calls": 0, "seeds": []}

    def figtest_synthetic(seed=None):
        state["seeds"].append(seed)
        jit = state["jitter"][state["calls"] % len(state["jitter"])]
        state["calls"] += 1
        fig = FigureResult("Figure T", "synthetic", "threads", "Gflops", [1, 2])
        fig.add("SMPSs", [10.0 * state["factor"] + jit,
                          20.0 * state["factor"] + jit])
        return fig

    monkeypatch.setitem(registry.FIGURES, "figt", "figtest_synthetic")
    monkeypatch.setitem(registry.QUICK_PARAMS, "figt", {})
    monkeypatch.setattr(E, "figtest_synthetic", figtest_synthetic, raising=False)
    return state


def _main(argv):
    from repro.bench.cli import main

    return main(argv)


class TestRepeatAndSave:
    def test_save_stamps_provenance_and_spread(self, fake_figure, tmp_path, capsys):
        fake_figure["jitter"] = [0.0, 3.0, 1.0]  # median of {10,13,11} = 11
        assert _main(["figt", "--quick", "--repeat", "3",
                      "--save", str(tmp_path)]) == 0
        assert fake_figure["calls"] == 3
        doc = json.loads((tmp_path / "figt.json").read_text())
        assert doc["series"]["SMPSs"][0] == pytest.approx(11.0)
        assert doc["spread"]["SMPSs"][0] == pytest.approx(1.5)  # IQR of {10,11,13}
        prov = doc["provenance"]
        assert prov["repeats"] == 3 and prov["scale"] == "quick"
        assert prov["figure"] == "figt"
        metrics = json.loads((tmp_path / "figt.metrics.json").read_text())
        assert metrics["provenance"]["repeats"] == 3
        assert (tmp_path / "figt.csv").exists()

    def test_seed_forwarded_and_recorded(self, fake_figure, tmp_path, capsys):
        assert _main(["figt", "--seed", "42", "--save", str(tmp_path)]) == 0
        assert fake_figure["seeds"] == [42]
        doc = json.loads((tmp_path / "figt.json").read_text())
        assert doc["provenance"]["seed"] == 42

    def test_repeat_zero_rejected(self, fake_figure, capsys):
        assert _main(["figt", "--repeat", "0"]) == 2

    def test_single_run_default(self, fake_figure, capsys):
        assert _main(["figt"]) == 0
        assert fake_figure["calls"] == 1
        assert "Figure T" in capsys.readouterr().out

    def test_list_mentions_compare(self, capsys):
        assert _main(["list"]) == 0
        assert "compare" in capsys.readouterr().out


class TestCompareGate:
    def _record(self, tmp_path):
        assert _main(["compare", "--baseline", str(tmp_path), "--quick",
                      "--repeat", "2", "--figures", "figt", "--update"]) == 0
        path = tmp_path / "BENCH_figtest_synthetic.json"
        assert path.exists()
        return path

    def test_update_records_baseline_with_provenance(self, fake_figure, tmp_path, capsys):
        path = self._record(tmp_path)
        doc = json.loads(path.read_text())
        assert doc["provenance"]["scale"] == "quick"
        assert doc["provenance"]["repeats"] == 2

    def test_unchanged_run_exits_zero(self, fake_figure, tmp_path, capsys):
        self._record(tmp_path)
        assert _main(["compare", "--baseline", str(tmp_path), "--quick"]) == 0
        out = capsys.readouterr().out
        assert "0 regressed" in out

    def test_regression_beyond_threshold_exits_nonzero(self, fake_figure, tmp_path, capsys):
        self._record(tmp_path)
        fake_figure["factor"] = 0.80  # -20% Gflops, floor is 5%
        assert _main(["compare", "--baseline", str(tmp_path), "--quick"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_small_delta_within_noise_passes(self, fake_figure, tmp_path, capsys):
        self._record(tmp_path)
        fake_figure["factor"] = 0.97  # -3% < the 5% floor
        assert _main(["compare", "--baseline", str(tmp_path), "--quick"]) == 0

    def test_improvement_exits_zero(self, fake_figure, tmp_path, capsys):
        self._record(tmp_path)
        fake_figure["factor"] = 1.30
        assert _main(["compare", "--baseline", str(tmp_path), "--quick"]) == 0
        assert "improved" in capsys.readouterr().out

    def test_min_rel_is_tunable(self, fake_figure, tmp_path, capsys):
        self._record(tmp_path)
        fake_figure["factor"] = 0.97
        assert _main(["compare", "--baseline", str(tmp_path), "--quick",
                      "--min-rel", "0.01"]) == 1

    def test_noisy_baseline_widens_threshold(self, fake_figure, tmp_path, capsys):
        # Baseline recorded with heavy jitter -> IQR dominates the floor.
        fake_figure["jitter"] = [0.0, 4.0, 2.0]
        assert _main(["compare", "--baseline", str(tmp_path), "--quick",
                      "--repeat", "3", "--figures", "figt", "--update"]) == 0
        fake_figure["jitter"] = [0.0]
        fake_figure["factor"] = 0.90  # -10%: fails the floor but not 3*IQR
        assert _main(["compare", "--baseline", str(tmp_path), "--quick",
                      "--repeat", "1"]) == 0

    def test_missing_baseline_dir_fails(self, fake_figure, tmp_path, capsys):
        assert _main(["compare", "--baseline", str(tmp_path / "nope")]) == 1

    def test_compare_without_baseline_flag(self, capsys):
        assert _main(["compare"]) == 2

    def test_unknown_figure_key(self, fake_figure, tmp_path, capsys):
        assert _main(["compare", "--baseline", str(tmp_path),
                      "--figures", "fig99", "--update"]) == 2


class TestCompareUnits:
    def test_lower_is_better_heuristic(self):
        gflops = FigureResult("f", "t", "x", "Gflops", [1])
        seconds = FigureResult("f", "t", "x", "run time (s)", [1])
        assert not lower_is_better(gflops)
        assert lower_is_better(seconds)

    def test_time_figure_regresses_upward(self):
        base = FigureResult("f", "t", "x", "seconds", [1])
        base.add("runtime", [10.0])
        cur = FigureResult("f", "t", "x", "seconds", [1])
        cur.add("runtime", [12.0])
        cmp = compare_figures("f", base, cur)
        assert cmp.points[0].regressed
        faster = FigureResult("f", "t", "x", "seconds", [1])
        faster.add("runtime", [8.0])
        assert compare_figures("f", base, faster).points[0].improved

    def test_series_direction_round_trips_and_defaults_to_ylabel(self):
        fig = FigureResult("f", "t", "x", "MB shipped", [1])
        fig.add("bytes", [1.0], better="lower")
        fig.add("hits", [2.0])  # no time-like word: higher is better
        back = FigureResult.from_dict(json.loads(fig.to_json()))
        assert [s.better for s in back.series] == ["lower", "higher"]
        with pytest.raises(ValueError, match="better"):
            fig.add("bad", [0.0], better="up")

    def test_schema_drift_is_skipped_not_fatal(self):
        base = FigureResult("f", "t", "x", "Gflops", [1, 2])
        base.add("old series", [1.0, 2.0])
        cur = FigureResult("f", "t", "x", "Gflops", [1, 3])
        cur.add("new series", [1.0, 2.0])
        cmp = compare_figures("f", base, cur)
        assert not cmp.points
        assert any("old series" in s for s in cmp.skipped)
        assert any("new series" in s for s in cmp.skipped)


class TestCommittedBaselines:
    BASELINE_DIR = os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "baselines"
    )

    def test_baseline_files_are_committed_and_self_describing(self):
        for name in ("BENCH_fig11_cholesky_scaling.json",
                     "BENCH_fig12_matmul_scaling.json"):
            path = os.path.join(self.BASELINE_DIR, name)
            assert os.path.exists(path), f"missing committed baseline {name}"
            fig = FigureResult.load(path)
            assert fig.provenance.get("git_sha")
            assert fig.provenance.get("scale") == "quick"
            assert fig.provenance.get("repeats", 0) >= 3
            assert fig.spread  # IQR recorded (all-zero for simulated figures)

    def test_quick_fig11_matches_committed_baseline(self, capsys):
        """The acceptance check: an unchanged tree passes the gate."""

        assert _main(["compare", "--baseline", self.BASELINE_DIR, "--quick",
                      "--repeat", "1", "--figures", "fig11"]) == 0
        assert "0 regressed" in capsys.readouterr().out

    def test_dist_gate_flags_a_worse_value_in_each_direction(self):
        """The dist figure mixes directions; each series gates its own way.

        The committed baseline predates per-series directions, so it
        loads with the ylabel default (higher is better for all three).
        The current run's declared directions must win, or tripling
        "MB moved" would read as an improvement.
        """

        baseline = FigureResult.load(
            os.path.join(self.BASELINE_DIR, "BENCH_dist_throughput.json")
        )
        declared = registry.run_figure_repeated("dist", quick=True, repeats=1)
        assert {s.label: s.better for s in declared.series} == {
            "MB moved": "lower", "cache hits": "higher", "tasks/sec": "higher",
        }

        def current(label, factor):
            cur = FigureResult.from_dict(json.loads(baseline.to_json()))
            for series in cur.series:
                series.better = declared.get(series.label).better
                if series.label == label:
                    series.values = [v * factor for v in series.values]
            return cur

        for label, factor in (("MB moved", 3.0), ("cache hits", 0.5),
                              ("tasks/sec", 0.5)):
            cmp = compare_figures("dist", baseline, current(label, factor))
            worse = {p.series for p in cmp.regressions}
            assert worse == {label}, (label, worse)
            assert len(cmp.regressions) == len(baseline.x)
            assert f"REGRESSED {label}" in render_comparison(cmp)
        better = compare_figures("dist", baseline, current("MB moved", 0.5))
        assert not better.regressions
        assert {p.series for p in better.improvements} == {"MB moved"}
