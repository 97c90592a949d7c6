#!/usr/bin/env python3
"""Post-mortem trace analysis with the ``repro.obs`` stack.

The tracing-enabled runtime records task events into per-thread ring
buffers; this example runs a traced Cholesky on both backends (threads
and the virtual Altix), then walks the observability workflow:

* ``runtime.report()`` — makespan breakdown, per-thread busy/idle,
  work/span bounds, locality hit-rate, and the metrics registry;
* ``write_chrome_trace`` — a Perfetto-loadable JSON timeline;
* ``analyze_events(load_chrome_trace(...))`` — the same report
  recomputed offline from the exported file (what the
  ``python -m repro obs report trace.json`` CLI does);
* ``tracer.to_paraver()`` — the paper's own Paraver ``.prv`` format
  (section VII.A);
* the classic section VII analyses (parallelism profile, load
  balance) which still operate on any tracer.

Run:  python examples/trace_analysis.py
"""

import os
import tempfile

import numpy as np

from repro import SmpssRuntime
from repro.apps.cholesky import cholesky_hyper
from repro.blas.hypermatrix import HyperMatrix
from repro.core.analysis import (
    average_parallelism,
    load_balance,
    parallelism_profile,
)
from repro.obs import (
    analyze_events,
    load_chrome_trace,
    render_report,
    write_chrome_trace,
)
from repro.sim import ALTIX_32, CostModel, SimulatedRuntime


def threaded_trace() -> None:
    hm = HyperMatrix.random_spd(6, 32, seed=1)
    rt = SmpssRuntime(num_workers=3, trace=True, keep_graph=True)
    with rt:
        cholesky_hyper(hm)
        rt.barrier()
    print(rt.report("traced threaded run (wall-clock time)"))
    _classic_profile(rt.tracer)

    # Export to Chrome trace format and analyse the file offline — the
    # loaded report matches the live one (same makespan, same counts).
    with tempfile.TemporaryDirectory() as tmp:
        path = write_chrome_trace(rt.tracer, os.path.join(tmp, "trace.json"))
        offline = analyze_events(
            load_chrome_trace(path), num_threads=rt.num_threads
        )
        print(f"\n   offline re-analysis of {os.path.basename(path)}: "
              f"{offline.total_tasks} tasks, "
              f"makespan {offline.makespan * 1e3:.2f}ms "
              "(also: python -m repro obs report trace.json)")


def simulated_trace() -> None:
    n_blocks = 12
    hm = HyperMatrix(n_blocks, 1, np.float32)
    for i in range(n_blocks):
        for j in range(n_blocks):
            hm[i, j] = np.zeros((1, 1), np.float32)
    machine = ALTIX_32.with_cores(16)
    runtime = SimulatedRuntime(
        machine=machine,
        cost_model=CostModel(machine, library="goto", block_size=256),
        trace=True,
    )
    with runtime:
        cholesky_hyper(hm)
        runtime.barrier()
    print()
    print(render_report(
        analyze_events(runtime.tracer.events, num_threads=machine.cores),
        title="traced simulated run (virtual Altix time, 16 cores)",
    ))
    _classic_profile(runtime.tracer)
    prv = runtime.tracer.to_paraver()
    print(f"   .prv export: {len(prv.splitlines())} records "
          "(tracer.to_paraver())")


def _classic_profile(tracer) -> None:
    print(f"   average parallelism: {average_parallelism(tracer):.2f}")
    print(f"   load balance: {load_balance(tracer):.2f}")
    profile = parallelism_profile(tracer, samples=24)
    peak = max((c for _t, c in profile), default=0)
    bars = "".join("#" if c >= peak * 0.75 else
                   "+" if c >= peak * 0.5 else
                   "." if c > 0 else " "
                   for _t, c in profile)
    print(f"   parallelism profile (peak {peak}): |{bars}|")
    print(tracer.ascii_timeline(width=60))


if __name__ == "__main__":
    threaded_trace()
    simulated_trace()
