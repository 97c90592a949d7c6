"""Robust statistics for repeated benchmark runs.

Single benchmark runs are too noisy to gate a PR on; ``repro.bench
--repeat N`` runs each figure N times and aggregates with the median
(robust to one slow outlier run) plus the inter-quartile range as the
spread estimate.  The IQR is what ``repro.bench compare`` feeds its
noise-aware thresholds: a delta only counts as a regression when it
exceeds both the floor threshold and a multiple of the combined spread.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "median",
    "quantile",
    "iqr",
    "aggregate_figures",
    "noise_threshold",
]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default), pure python."""

    if not values:
        raise ValueError("quantile of empty sequence")
    data = sorted(float(v) for v in values)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def iqr(values: Sequence[float]) -> float:
    """Inter-quartile range; 0.0 for fewer than two samples."""

    if len(values) < 2:
        return 0.0
    return quantile(values, 0.75) - quantile(values, 0.25)


def aggregate_figures(figures: Sequence) -> "FigureResult":
    """Collapse repeated runs of one figure into a median figure.

    All inputs must share axes and series labels (they are repeats of
    the same experiment).  The result's series hold per-point medians;
    ``spread`` holds the per-point IQR for each series — the noise
    estimate ``compare`` reads.  Notes/extras/provenance come from the
    first repeat.
    """

    from .harness import FigureResult

    if not figures:
        raise ValueError("aggregate_figures needs at least one figure")
    first = figures[0]
    for other in figures[1:]:
        if list(other.x) != list(first.x):
            raise ValueError(
                f"repeat of {first.figure_id} has mismatched x axis"
            )
        if [s.label for s in other.series] != [s.label for s in first.series]:
            raise ValueError(
                f"repeat of {first.figure_id} has mismatched series"
            )
    agg = FigureResult(
        first.figure_id,
        first.title,
        first.xlabel,
        first.ylabel,
        list(first.x),
        notes=list(first.notes),
        extras=dict(first.extras),
        provenance=dict(first.provenance),
    )
    for si, series in enumerate(first.series):
        columns = [
            [fig.series[si].values[xi] for fig in figures]
            for xi in range(len(first.x))
        ]
        agg.add(series.label, [median(col) for col in columns], series.better)
        agg.spread[series.label] = [iqr(col) for col in columns]
    return agg


def noise_threshold(
    baseline: float,
    spread_baseline: float,
    spread_current: float,
    min_rel: float = 0.05,
    noise_k: float = 3.0,
) -> float:
    """Relative change below which a delta is considered noise.

    ``max(min_rel, noise_k * (IQR_baseline + IQR_current) / |baseline|)``
    — a floor for deterministic (simulated) figures whose IQR is zero,
    widened by the observed run-to-run spread when there is any.
    """

    if baseline == 0:
        return float("inf")
    noise = noise_k * (spread_baseline + spread_current) / abs(baseline)
    return max(min_rel, noise)
