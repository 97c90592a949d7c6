"""Run a task-graph service daemon from the command line.

Usage::

    python -m repro serve tcp:127.0.0.1:7070
    python -m repro serve tcp:0.0.0.0:0 --workers 8 --backend processes
    python -m repro serve /tmp/repro-serve.sock --max-inflight 4

The daemon prints its bound address (useful with an ephemeral port 0)
and serves until Ctrl-C.  ``curl http://HOST:PORT/metrics`` and
``/health`` work against the same port the sessions use.
"""

from __future__ import annotations

import argparse

from .daemon import ServeDaemon
from .engine import ServiceLimits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve task-graph submissions on one shared fleet.",
    )
    parser.add_argument(
        "address", help="unix-socket path or tcp:HOST:PORT (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="fleet size (default 4)"
    )
    parser.add_argument(
        "--shards", type=int, default=16,
        help="dependency-tracker lock shards (default 16)",
    )
    parser.add_argument(
        "--backend", choices=("threads", "processes"), default="threads",
        help="worker execution backend (default threads)",
    )
    defaults = ServiceLimits()
    parser.add_argument(
        "--max-graph-tasks", type=int, default=defaults.max_graph_tasks,
        help="per-graph task-count admission cap "
        f"(default {defaults.max_graph_tasks})",
    )
    parser.add_argument(
        "--max-tenant-bytes", type=int, default=defaults.max_tenant_bytes,
        help="per-tenant resident datum bytes admission cap "
        f"(default {defaults.max_tenant_bytes})",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=defaults.max_inflight,
        help="per-tenant concurrent graph cap "
        f"(default {defaults.max_inflight})",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    limits = ServiceLimits(
        max_graph_tasks=args.max_graph_tasks,
        max_tenant_bytes=args.max_tenant_bytes,
        max_inflight=args.max_inflight,
    )
    daemon = ServeDaemon(
        args.address,
        workers=args.workers,
        shards=args.shards,
        backend=args.backend,
        limits=limits,
    )
    print(
        f"serving task graphs on {daemon.address} "
        f"({args.workers} {args.backend} workers, {args.shards} shards; "
        "Ctrl-C to stop)",
        flush=True,
    )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.close()
    return 0
