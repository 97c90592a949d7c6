"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that

* a corrupted output element makes its graph count as failed, read as
  a non-zero ``failed_frac`` and the command exit non-zero (on a fine,
  a tiled and a served workload);
* every declared or printed metric has a unit and the better direction
  this file expects, so a lower-is-better quantity can never be gated
  upward;
* every wrapper of the traced run is restored to the original object,
  and a traced run reports its overhead and writes a Chrome trace;
* a directory holding only ``BENCHMARK.json`` and the benchmark exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]

#: The better direction of every metric, stated independently of
#: BENCHMARK.json.  Times, sizes, counts of overhead work and failures
#: are lower-is-better; rates, hit ratios and achieved Gflop/s higher.
EXPECTED = {
    # end to end
    "tasks_per_s": "higher",
    "gflops": "higher",
    "graphs_per_s": "higher",
    "graph_ms_p50": "lower",
    "setup_s": "lower",
    "peak_rss_mb": "lower",
    # end to end, printed but not declared in BENCHMARK.json
    "graph_ms_p90": "lower",
    "bytes_per_task": "lower",
    "failed_frac": "lower",
    # core
    "core.runtime.submit_self_us": "lower",
    "core.runtime.barrier_wait_ms": "lower",
    "core.runtime.main_task_share": "higher",
    "core.invocation.instantiate_us": "lower",
    "core.invocation.resolve_us": "lower",
    "core.dependencies.analyze_us": "lower",
    "core.dependencies.renames_per_task": "lower",
    "core.dependencies.write_back_ms": "lower",
    "core.graph.complete_us": "lower",
    "core.graph.edges_per_task": "lower",
    "core.scheduler.pop_us": "lower",
    "core.scheduler.pop_hit_ratio": "higher",
    "core.scheduler.queue_wait_us_p50": "lower",
    "core.scheduler.steals_per_task": "lower",
    "core.scheduler.locality_hit_ratio": "higher",
    "execute.body_us": "lower",
    # blas
    "blas.gemm_nt_ms": "lower",
    "blas.syrk_ms": "lower",
    "blas.trsm_ms": "lower",
    "blas.potrf_ms": "lower",
    "blas.kernel_gflops": "higher",
    "blas.busy_share": "higher",
    "blas.threads": "lower",
    # mp
    "mp.run_us": "lower",
    "mp.encode_us": "lower",
    "mp.writeback_us": "lower",
    "mp.pickled_bytes_per_task": "lower",
    # dist
    "dist.run_us": "lower",
    "dist.encode_us": "lower",
    "dist.decode_us": "lower",
    "dist.cache_hit_ratio": "higher",
    "dist.fetch_ms": "lower",
    "dist.bytes_per_task": "lower",
    # net
    "net.msgs_per_task": "lower",
    "net.bytes_per_msg": "higher",
    "net.recv_wait_us": "lower",
    # serve
    "serve.flush_ms": "lower",
    "serve.submit_graph_ms": "lower",
    "serve.engine_ms": "lower",
    "serve.wire_bytes_per_graph": "lower",
    "serve.wire_inflation": "lower",
    "serve.rejections": "lower",
    # obs and the tracer itself
    "obs.observe_per_task": "lower",
    "obs.observe_us": "lower",
    "trace.overhead_frac": "lower",
}


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *RUN, *args], cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def check_corruption_fails() -> list:
    problems = []
    for workload in ("fine_threads", "cholesky_tiles", "served_cholesky"):
        proc, result = run(["--workload", workload, "--seed", "5",
                            "--seconds", "1", "--corrupt"])
        if proc.returncode == 0:
            problems.append(f"{workload}: corrupted output exited 0")
        if not result or result["failed"] < 1 or result["correct"]:
            problems.append(
                f"{workload}: corrupted graph not counted as failed "
                f"({result})")
        failed_frac = [line.split()[1] for line in proc.stdout.splitlines()
                       if line.split()[:1] == ["failed_frac"]]
        if not failed_frac or float(failed_frac[0]) <= 0:
            problems.append(f"{workload}: failed_frac not above 0 "
                            f"({failed_frac})")
    return problems


def check_declarations() -> list:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import REPORTED
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = spec["end_to_end"] + spec["per_layer"] + list(REPORTED)
    names = [m["name"] for m in declared]
    if len(names) != len(set(names)):
        problems.append("a metric name is declared twice")
    if set(names) != set(EXPECTED):
        problems.append(
            f"declared vs expected metrics differ: "
            f"{sorted(set(names) ^ set(EXPECTED))}")
    for metric in declared:
        name = metric["name"]
        if not metric.get("unit"):
            problems.append(f"{name}: no unit")
        if metric.get("better") != EXPECTED.get(name):
            problems.append(
                f"{name}: declared better={metric.get('better')!r}, "
                f"expected {EXPECTED.get(name)!r}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append(f"a bound is outside (0, 0.25]: {bounds}")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s does not have the largest bound")

    declared_workloads = sorted(w["name"] for w in spec["workloads"])
    if declared_workloads != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


def check_tracing_hygiene() -> list:
    from perfbench.layers import LayerTracer
    from perfbench.programs import rot_t

    problems = []
    tracer = LayerTracer([rot_t.definition])
    tracer.install()
    patched = tracer.patched_names()
    still_original = [
        attr for owner, attr, original in patched
        if getattr(owner, attr) is original
    ]
    tracer.uninstall()
    if not patched or still_original:
        problems.append(f"install left names unpatched: {still_original}")
    not_restored = LayerTracer.restored(patched)
    if not_restored:
        problems.append(f"uninstall did not restore {not_restored}")

    proc, result = run(["--workload", "served_cholesky", "--seed", "5",
                        "--seconds", "2", "--trace", "1"])
    if proc.returncode != 0 or not result:
        problems.append(f"traced run failed: {proc.stderr[-500:]}")
        return problems
    if "trace.overhead_frac" not in result["metrics"]:
        problems.append("traced run reported no overhead")
    notes = next((json.loads(line[4:]) for line in proc.stdout.splitlines()
                  if line.startswith("run ")), {})
    if not notes.get("wrappers_restored"):
        problems.append("traced run did not restore its wrappers")
    trace = ROOT / notes.get("chrome_trace", "missing")
    try:
        events = json.loads(trace.read_text())["traceEvents"]
    except (OSError, ValueError, KeyError):
        events = []
    if not events:
        problems.append(f"no Chrome trace events in {trace}")
    return problems


def check_bare_directory_fails() -> list:
    bare = ROOT / "perfbench" / "traces" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("traces", "__pycache__"))
        proc, result = run(["--workload", "fine_threads", "--seed", "1",
                            "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("bare directory run exited 0")
    if result is not None:
        problems.append("bare directory run printed a result")
    return problems


def main() -> int:
    checks = (check_declarations, check_tracing_hygiene,
              check_corruption_fails, check_bare_directory_fails)
    failed = 0
    for check in checks:
        problems = check()
        status = "ok" if not problems else "FAIL"
        print(f"{status:4s} {check.__name__}")
        for problem in problems:
            print(f"     {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
