"""Run a node agent from the command line.

Usage::

    python -m repro dist agent tcp:127.0.0.1:7200
    python -m repro dist agent tcp:0.0.0.0:0 --slots 4 --processes
    python -m repro dist agent /tmp/repro-agent.sock
    python -m repro dist ping tcp:127.0.0.1:7200
    python -m repro dist stop tcp:127.0.0.1:7200

``agent`` prints its bound address (useful with an ephemeral port 0)
and serves until Ctrl-C/SIGTERM.  One agent per node; the master lists
them as ``SmpssRuntime(backend="cluster", nodes=[...])``.
"""

from __future__ import annotations

import argparse
import json
import signal
import threading

from ..net.frames import recv_frame, send_frame
from ..net.protocol import connect_retry
from .agent import AgentServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro dist",
        description="Node agents for the distributed execution backend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    agent = sub.add_parser("agent", help="serve one node's execution slots")
    agent.add_argument(
        "address", help="unix-socket path or tcp:HOST:PORT (0 = ephemeral)"
    )
    agent.add_argument(
        "--slots", type=int, default=None,
        help="execution slots to advertise (default: cores - 1)",
    )
    agent.add_argument(
        "--processes", action="store_true",
        help="back each slot with a forked worker process "
        "(for pure-Python task bodies)",
    )
    agent.add_argument("--name", default=None, help="cosmetic node name")
    ping = sub.add_parser("ping", help="ask an agent for its status")
    ping.add_argument("address")
    stop = sub.add_parser("stop", help="shut an agent down cleanly")
    stop.add_argument("address")
    return parser


def _control_roundtrip(address: str, op: dict) -> dict:
    sock = connect_retry(address, timeout=5.0, attempts=3)
    try:
        send_frame(sock, {"k": "hello", "role": "control", "sid": "cli"})
        recv_frame(sock, timeout=5.0)
        send_frame(sock, op)
        reply, _ = recv_frame(sock, timeout=5.0)
        return reply
    finally:
        sock.close()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "ping":
        reply = _control_roundtrip(args.address, {"k": "ping"})
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0 if reply.get("k") == "pong" else 1
    if args.command == "stop":
        reply = _control_roundtrip(args.address, {"k": "stop"})
        return 0 if reply.get("k") == "ok" else 1

    server = AgentServer(
        args.address, slots=args.slots, processes=args.processes,
        name=args.name,
    ).start()
    print(f"repro dist agent listening on {server.address} "
          f"({server.slots} slot(s)"
          f"{', process workers' if args.processes else ''})",
          flush=True)
    done = threading.Event()

    def _terminate(signum, frame):  # noqa: ARG001 - signal signature
        done.set()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    try:
        # A remote `stop` op closes the server from a handler thread;
        # poll for that as well as for our own signals.
        while not done.is_set() and not server.closed:
            done.wait(0.2)
    finally:
        server.close()
    return 0
