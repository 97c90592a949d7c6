"""The continuous-benchmarking gate: current run vs committed baseline.

A baseline is a ``BENCH_<figure>.json`` file (a ``FigureResult``
document with provenance and per-point IQR spread) committed under
``benchmarks/baselines/``.  ``repro.bench compare --baseline <dir>``
re-runs every figure that has a baseline file, compares medians
point-by-point with a noise-aware threshold
(:func:`repro.bench.stats.noise_threshold`), and exits non-zero when
any point regresses beyond it.  Improvements never fail the gate; they
are listed so a PR that speeds something up can say so with numbers.

Direction matters and is per series: each
:class:`~repro.bench.harness.Series` carries its own better-direction
(declared by the experiment, or by default "lower" for a time-like
ylabel and "higher" otherwise), so one figure may mix lower-is-better
bytes with higher-is-better rates.  The current run's direction wins:
it is what the code declares today, and it also gates baselines
recorded before directions were serialised.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .harness import FigureResult, lower_is_better
from .registry import (
    FIGURES,
    baseline_filename,
    figure_key_for_baseline,
    run_figure_repeated,
)
from .stats import noise_threshold

__all__ = [
    "PointComparison",
    "FigureComparison",
    "lower_is_better",
    "compare_figures",
    "render_comparison",
    "load_baselines",
    "compare_against_baselines",
]

@dataclass
class PointComparison:
    """One (series, x) point of a baseline-vs-current comparison."""

    series: str
    x: object
    baseline: float
    current: float
    #: relative change, signed so that positive always means *worse*
    rel_worse: float
    #: noise-aware relative threshold for this point
    threshold: float
    #: the series' better-direction, ``"lower"`` or ``"higher"``
    better: str = "higher"

    @property
    def regressed(self) -> bool:
        return self.rel_worse > self.threshold

    @property
    def improved(self) -> bool:
        return -self.rel_worse > self.threshold


@dataclass
class FigureComparison:
    """All point comparisons of one figure, plus bookkeeping."""

    key: str
    baseline: FigureResult
    current: FigureResult
    points: list[PointComparison]
    #: series/x present on only one side (schema drift, not a gate fail)
    skipped: list[str]

    @property
    def regressions(self) -> list[PointComparison]:
        return [p for p in self.points if p.regressed]

    @property
    def improvements(self) -> list[PointComparison]:
        return [p for p in self.points if p.improved]


def compare_figures(
    key: str,
    baseline: FigureResult,
    current: FigureResult,
    min_rel: float = 0.05,
    noise_k: float = 3.0,
) -> FigureComparison:
    """Point-by-point comparison of two figures with noise thresholds."""

    x_base = list(baseline.x)
    x_cur = list(current.x)
    points: list[PointComparison] = []
    skipped: list[str] = []
    cur_by_label = {s.label: s for s in current.series}
    for series in baseline.series:
        cur = cur_by_label.get(series.label)
        if cur is None:
            skipped.append(f"series {series.label!r} missing from current run")
            continue
        spread_base = baseline.spread.get(series.label, [0.0] * len(x_base))
        spread_cur = current.spread.get(series.label, [0.0] * len(x_cur))
        sign = 1.0 if cur.better == "lower" else -1.0
        for bi, x in enumerate(x_base):
            if x not in x_cur:
                skipped.append(f"{series.label} @ {x}: no current point")
                continue
            ci = x_cur.index(x)
            base_v, cur_v = series.values[bi], cur.values[ci]
            if base_v == 0:
                skipped.append(f"{series.label} @ {x}: zero baseline")
                continue
            rel_worse = sign * (cur_v - base_v) / abs(base_v)
            points.append(
                PointComparison(
                    series.label,
                    x,
                    base_v,
                    cur_v,
                    rel_worse,
                    noise_threshold(
                        base_v,
                        spread_base[bi] if bi < len(spread_base) else 0.0,
                        spread_cur[ci] if ci < len(spread_cur) else 0.0,
                        min_rel=min_rel,
                        noise_k=noise_k,
                    ),
                    cur.better,
                )
            )
    for series in current.series:
        if not any(s.label == series.label for s in baseline.series):
            skipped.append(f"series {series.label!r} new in current run")
    return FigureComparison(key, baseline, current, points, skipped)


def render_comparison(cmp: FigureComparison) -> str:
    """Text report for one figure's comparison."""

    prov = cmp.baseline.provenance
    lines = [f"== {cmp.key}: {cmp.baseline.title} =="]
    if prov:
        lines.append(
            "  baseline: "
            f"sha {str(prov.get('git_sha'))[:12]}  "
            f"host {prov.get('hostname')}  "
            f"python {prov.get('python')}  "
            f"repeats {prov.get('repeats')}  "
            f"scale {prov.get('scale')}  "
            f"recorded {prov.get('timestamp_iso')}"
        )
    directions = "; ".join(
        f"{s.label}: {s.better} is better" for s in cmp.current.series
    )
    lines.append(f"  ({cmp.baseline.ylabel}; {directions})")
    for p in sorted(cmp.points, key=lambda p: -p.rel_worse):
        if p.regressed:
            verdict = "REGRESSED"
        elif p.improved:
            verdict = "improved"
        else:
            verdict = "ok"
        delta_pct = (p.current - p.baseline) / abs(p.baseline) * 100.0
        lines.append(
            f"  {verdict:9s} {p.series:28s} @ {str(p.x):>6s}: "
            f"{p.baseline:10.3f} -> {p.current:<10.3f} "
            f"({delta_pct:+.1f}%, threshold {p.threshold * 100:.1f}%)"
        )
    for note in cmp.skipped:
        lines.append(f"  skipped: {note}")
    n_reg, n_imp = len(cmp.regressions), len(cmp.improvements)
    lines.append(
        f"  {len(cmp.points)} points: {n_reg} regressed, "
        f"{n_imp} improved, {len(cmp.points) - n_reg - n_imp} within noise"
    )
    return "\n".join(lines)


def load_baselines(baseline_dir: str) -> dict[str, tuple[str, FigureResult]]:
    """Figure key -> (path, FigureResult) for every baseline file."""

    out: dict[str, tuple[str, FigureResult]] = {}
    if not os.path.isdir(baseline_dir):
        return out
    for name in sorted(os.listdir(baseline_dir)):
        key = figure_key_for_baseline(name)
        if key is None:
            continue
        path = os.path.join(baseline_dir, name)
        out[key] = (path, FigureResult.load(path))
    return out


def compare_against_baselines(
    baseline_dir: str,
    quick: bool = True,
    repeats: int = 3,
    seed: int | None = 0,
    min_rel: float = 0.05,
    noise_k: float = 3.0,
    figures: list[str] | None = None,
    update: bool = False,
    echo=print,
) -> int:
    """Run the gate; returns the process exit code.

    Without ``figures``, every figure with a baseline file in
    *baseline_dir* is gated.  With ``update=True`` the (re)run figures
    are written back as the new baselines instead of being gated —
    that is how the first baselines get recorded.
    """

    baselines = load_baselines(baseline_dir)
    keys = figures if figures else sorted(baselines)
    if not keys:
        echo(f"no BENCH_*.json baselines in {baseline_dir!r} "
             "(record some with --update --figures fig11,fig12)")
        return 1
    unknown = [k for k in keys if k not in FIGURES]
    if unknown:
        echo(f"unknown figure keys: {', '.join(unknown)}")
        return 2

    failed = False
    for key in keys:
        current = run_figure_repeated(key, quick=quick, repeats=repeats, seed=seed)
        if update:
            os.makedirs(baseline_dir, exist_ok=True)
            path = os.path.join(baseline_dir, baseline_filename(key))
            current.save(path)
            echo(f"recorded baseline {path} "
                 f"(repeats={repeats}, scale={'quick' if quick else 'paper'})")
            continue
        if key not in baselines:
            echo(f"{key}: no baseline file in {baseline_dir!r}; skipping")
            failed = True
            continue
        path, baseline = baselines[key]
        base_scale = baseline.provenance.get("scale")
        cur_scale = "quick" if quick else "paper"
        if base_scale and base_scale != cur_scale:
            echo(f"WARNING: {key} baseline recorded at scale "
                 f"{base_scale!r} but comparing at {cur_scale!r}")
        cmp = compare_figures(
            key, baseline, current, min_rel=min_rel, noise_k=noise_k
        )
        echo(render_comparison(cmp))
        echo("")
        if cmp.regressions:
            failed = True
    return 1 if failed else 0
