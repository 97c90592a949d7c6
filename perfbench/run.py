"""Run one benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload fine_threads --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a checkout: the program is imported from ``src/``
and the metric declarations from ``BENCHMARK.json``.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` measures
half the window untraced and half with the layer wrappers installed,
prints every per-layer metric plus the tracing overhead, and writes the
spans to ``perfbench/traces/`` as Chrome trace JSON.  The last line of
standard output is the result as one JSON object; the exit code is 0
only when every graph matched its sequential oracle.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="dependency-aware task runtime benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="spoil one output element (self-test only)")
    return parser.parse_args(argv)


def percentile(values: list, q: float) -> float:
    """Linear-interpolated *q*-quantile (0 < q < 1) of *values*."""

    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: End-to-end quantities printed with every untraced run but not
#: declared in BENCHMARK.json, because none can carry a bound there:
#: the tail spreads wider than the largest bound, bytes are moved on
#: one workload only, and failures are 0 on every good run (their
#: count is the result's ``failed`` out of ``attempted``).
REPORTED = (
    {"name": "graph_ms_p90", "unit": "ms", "better": "lower"},
    {"name": "bytes_per_task", "unit": "B/task", "better": "lower"},
    {"name": "failed_frac", "unit": "fraction", "better": "lower"},
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds: list, setups: list) -> dict:
    """The end-to-end metrics of one run.

    Rates are the median over the run's rounds, so one round that met
    a slow spell of the host does not move them; the graph time median
    pools every timed graph of the run.
    """

    timed = [phase for phase in rounds if phase.graphs]
    graph_s = [s for phase in timed for s in phase.graph_s]

    def median_rate(rate) -> float:
        return statistics.median(rate(phase) for phase in timed)

    return {
        "tasks_per_s": median_rate(lambda p: p.tasks / p.wall),
        "gflops": median_rate(lambda p: p.flops / p.wall / 1e9),
        "graphs_per_s": median_rate(lambda p: p.graphs / p.wall),
        "graph_ms_p50": statistics.median(graph_s) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def measure_setups(workload) -> list:
    """Start and stop the workload's runtime, timing each start.

    Each start follows a full garbage collection, so no sample pays for
    collecting what an earlier start or a measured round left behind.
    """

    setups = []
    for _ in range(workload.setup_repeats):
        gc.collect()
        t0 = perf_counter()
        session = workload.open()
        setups.append(perf_counter() - t0)
        workload.close(session)
    return setups


def run_rounds(workload, seconds: float, tracer=None):
    """Measure *seconds* split over the workload's rounds.

    With a *tracer*, each round measures half its share untraced and
    half with the wrappers installed, so the two halves see the same
    runtime instance and their ratio is the tracing overhead.
    """

    from perfbench.layers import LayerTracer
    from perfbench.workloads import Phase

    base, traced, not_restored = [], [], []
    share = seconds / workload.rounds
    exec_threads = 0
    for _ in range(workload.rounds):
        session = workload.open()
        try:
            if tracer is None:
                base.append(workload.measure(session, share))
            else:
                base.append(workload.measure(session, share / 2))
                tracer.install()
                patched = tracer.patched_names()
                try:
                    traced.append(workload.measure(
                        session, share / 2, tracer, warmup=False))
                finally:
                    tracer.uninstall()
                not_restored += LayerTracer.restored(patched)
            exec_threads = workload.exec_threads(session)
        finally:
            workload.close(session)
        if base[-1].failed or (traced and traced[-1].failed):
            break
    return base, Phase.merge(traced), not_restored, exec_threads


def run_untraced(workload, seconds: float):
    from perfbench.workloads import Phase

    setups = measure_setups(workload)
    rounds, _, _, _ = run_rounds(workload, seconds)
    phase = Phase.merge(rounds)
    metrics = {}
    if phase.graphs:
        metrics = end_to_end(rounds, setups)
    notes = {
        "graphs": phase.graphs,
        "rounds": workload.rounds,
        "round_tasks_per_s": [
            round(p.tasks / p.wall, 3) for p in rounds if p.graphs],
        "setups": len(setups),
    }
    reported = {"failed_frac": phase.failed / max(phase.attempted, 1)}
    if phase.graphs:
        reported["graph_ms_p90"] = percentile(phase.graph_s, 0.9) * 1e3
    if "dist.bytes_moved" in phase.counters and phase.tasks:
        reported["bytes_per_task"] = (
            phase.counters["dist.bytes_moved"] / phase.tasks)
    return phase, metrics, notes, reported


def run_traced(workload, seconds: float, seed: int, blas_threads: int):
    from perfbench.layers import LayerTracer, layer_metrics
    from perfbench.workloads import Phase

    tracer = LayerTracer(workload.definitions())
    rounds, traced, not_restored, exec_threads = run_rounds(
        workload, seconds, tracer)
    base = Phase.merge(rounds)
    merged = Phase.merge([base, traced])
    if not_restored:
        merged.errors.append(f"wrappers not restored: {not_restored}")
    metrics = {}
    if base.graphs and traced.graphs:
        metrics = layer_metrics(tracer, traced, exec_threads, blas_threads)
        untraced_rate = base.tasks / base.wall
        traced_rate = traced.tasks / traced.wall
        metrics["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0
    out_dir = ROOT / "perfbench" / "traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload.name}-seed{seed}.trace.json"
    tracer.write_chrome(str(path))
    notes = {
        "graphs_untraced": base.graphs,
        "graphs_traced": traced.graphs,
        "rounds": workload.rounds,
        "spans": len(tracer.spans) + tracer.dropped,
        "chrome_trace": str(path.relative_to(ROOT)),
        "wrappers_restored": not not_restored,
    }
    return merged, metrics, notes


def print_table(title: str, declared: list, metrics: dict) -> None:
    print(title)
    print(f"  {'metric':40s} {'value':>14s}  {'unit':10s} better")
    for entry in declared:
        name = entry["name"]
        value = metrics.get(name)
        shown = "-" if value is None else f"{value:14.6g}"
        print(f"  {name:40s} {shown:>14s}  {entry['unit']:10s} "
              f"{entry['better']}")


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""

    failures = 0
    attempted = failed = 0
    results = {}
    for name in load_spec()["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
            print(f"{name['name']}: no result (exit {proc.returncode})")
        if proc.returncode != 0 or not result["correct"]:
            failures += 1
        attempted += result["attempted"]
        failed += result["failed"]
        results[name["name"]] = result["metrics"]
    print(json.dumps({"correct": failures == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except OSError as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.host import host_record
    from perfbench.workloads import UNGATED, WORKLOADS

    runnable = {**WORKLOADS, **UNGATED}
    args = parse_args(argv, runnable)
    if args.workload == "all":
        return run_all(args)
    host = host_record(ROOT)
    workload = runnable[args.workload](args.seed, corrupt=args.corrupt)
    t0 = perf_counter()
    workload.prepare()
    prepare_s = perf_counter() - t0
    try:
        reported = {}
        if args.trace:
            blas_threads = max(host["blas_threads"].values(), default=0)
            phase, metrics, notes = run_traced(
                workload, args.seconds, args.seed, blas_threads)
            declared = spec["per_layer"]
        else:
            phase, metrics, notes, reported = run_untraced(
                workload, args.seconds)
            declared = spec["end_to_end"]
    finally:
        workload.close_inputs()
    notes["prepare_s"] = round(prepare_s, 3)
    correct = (phase.failed == 0 and not phase.errors
               and set(metrics) >= {m["name"] for m in declared})

    print(f"workload {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print("run " + json.dumps(notes, sort_keys=True))
    for error in phase.errors:
        print(f"error {error}")
    print_table(
        f"{'per-layer' if args.trace else 'end-to-end'} metrics "
        f"({phase.attempted - phase.failed}/{phase.attempted} graphs "
        f"matched the oracle)", declared, metrics)
    if not args.trace:
        print_table(f"reported, not gated ({phase.graphs} timed graphs)",
                    REPORTED, reported)
    result = {
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
