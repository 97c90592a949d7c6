"""Regenerate the paper's figures from the command line.

Usage::

    python -m repro bench list
    python -m repro bench fig11
    python -m repro bench fig14 --quick --chart
    python -m repro bench all --quick
    python -m repro bench fig11 --quick --repeat 5 --save out/
    python -m repro bench compare --baseline benchmarks/baselines --quick

``--repeat N`` runs each figure N times and reports per-point medians
(IQR kept as the spread estimate); ``--save`` stamps a provenance
block (git sha, host, versions, repeat count) into the JSON so the
file is committable as a baseline.  ``compare`` is the CI gate: it
re-runs every figure with a committed baseline and exits non-zero when
a point regresses beyond the noise-aware threshold.  See
``docs/benchmarking.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..obs.metrics import reset_default_metrics
from . import experiments as E
from .registry import FIGURES, QUICK_PARAMS, run_figure_repeated

# Back-compat aliases (pre-registry spelling used by older callers).
_FIGURES = FIGURES
_QUICK_PARAMS = QUICK_PARAMS


def _run_figure(
    key: str,
    quick: bool,
    chart: bool,
    save: str | None = None,
    repeats: int = 1,
    seed: int | None = None,
) -> None:
    # Fresh process-default registry per figure: every runtime the
    # figure spins up publishes its metrics there at shutdown, and the
    # accumulated snapshot lands next to the figure's data files.
    registry = reset_default_metrics()
    start = time.perf_counter()
    fig = run_figure_repeated(key, quick=quick, repeats=repeats, seed=seed)
    elapsed = time.perf_counter() - start
    print(fig.table())
    if chart:
        print()
        print(fig.ascii_chart())
    if save:
        import os

        os.makedirs(save, exist_ok=True)
        path = os.path.join(save, f"{key}.csv")
        fig.save(path)
        fig.save(os.path.join(save, f"{key}.json"))
        metrics_path = os.path.join(save, f"{key}.metrics.json")
        with open(metrics_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "figure": key,
                    "elapsed_seconds": elapsed,
                    "provenance": fig.provenance,
                    "extras": fig.extras,
                    "metrics": registry.snapshot(),
                },
                handle,
                indent=2,
                default=str,
            )
        print(f"  saved {path} / .json / .metrics.json")
    suffix = f", {repeats} repeats" if repeats > 1 else ""
    print(f"  [{elapsed:.1f}s{suffix}]")
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Regenerate figures from the SMPSs paper's evaluation.",
    )
    parser.add_argument(
        "target",
        help="figure id (fig08..fig16), 'fig05', 'counts', 'all', "
             "'compare', or 'list'",
    )
    parser.add_argument("--quick", action="store_true", help="reduced scale")
    parser.add_argument("--chart", action="store_true", help="ASCII charts too")
    parser.add_argument("--save", metavar="DIR", help="write CSV/JSON files here")
    parser.add_argument(
        "--repeat", type=int, default=None, metavar="N",
        help="run each figure N times; report per-point medians with IQR "
             "spread (default 1, or 3 for 'compare')",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seed for input-data-dependent figures (recorded in provenance)",
    )
    # compare-only options
    parser.add_argument(
        "--baseline", metavar="DIR",
        help="(compare) directory of committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--figures", metavar="KEYS",
        help="(compare) comma-separated figure keys, default: all baselines",
    )
    parser.add_argument(
        "--min-rel", type=float, default=0.05, metavar="FRAC",
        help="(compare) floor relative threshold (default 0.05)",
    )
    parser.add_argument(
        "--noise-k", type=float, default=3.0, metavar="K",
        help="(compare) IQR multiple added to the threshold (default 3.0)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="(compare) rewrite the baselines from this run instead of gating",
    )
    args = parser.parse_args(argv)

    if args.repeat is not None and args.repeat < 1:
        print("--repeat must be >= 1", file=sys.stderr)
        return 2
    repeats = args.repeat or 1

    if args.target == "list":
        print("available: fig05, " + ", ".join(FIGURES)
              + ", counts, all, compare")
        return 0
    if args.target == "compare":
        if not args.baseline:
            print("compare needs --baseline DIR", file=sys.stderr)
            return 2
        from .compare import compare_against_baselines

        return compare_against_baselines(
            args.baseline,
            quick=args.quick,
            repeats=args.repeat or 3,
            seed=args.seed if args.seed is not None else 0,
            min_rel=args.min_rel,
            noise_k=args.noise_k,
            figures=args.figures.split(",") if args.figures else None,
            update=args.update,
        )
    if args.target == "fig05":
        facts = E.fig05_cholesky_graph()
        print(f"Figure 5: {facts['total_tasks']} tasks, {facts['edges']} edges, "
              f"critical path {facts['critical_path']}")
        print(f"  task 51 unlocked by {facts['witness']['task_51_unlocked_by']}")
        return 0
    if args.target == "counts":
        for key, value in E.text_task_counts().items():
            print(f"  {key}: {value}")
        return 0
    if args.target == "all":
        for key in FIGURES:
            _run_figure(key, args.quick, args.chart, args.save,
                        repeats, args.seed)
        return 0
    if args.target in FIGURES:
        _run_figure(args.target, args.quick, args.chart, args.save,
                    repeats, args.seed)
        return 0
    print(f"unknown target {args.target!r}; try 'list'", file=sys.stderr)
    return 1
