"""The asyncio front door of the task-graph service.

One daemon owns one :class:`~repro.serve.engine.ServeEngine` (the
worker fleet) and accepts any number of concurrent client sessions.
Each connection is a coroutine, so a session awaiting a long graph
never blocks another tenant's submissions — the engine executes jobs
on its own threads and completions are bridged back into the loop
with ``call_soon_threadsafe``.

The wire surface is the shared JSON-lines protocol with the same
first-bytes HTTP sniffing as the exposition endpoint: ``curl
http://host:port/metrics`` (all tenants), ``/metrics/<tenant>`` (one
tenant's series), and ``/health`` (fleet + tenant state as JSON) work
against the same port the sessions use.

Admission control is per tenant and rejection-based (429-style): the
engine's caps turn the paper's §III blocking conditions into
backpressure, and the structured error crosses the wire in the ack so
clients can branch on ``code`` and retry.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Optional

from ..net.protocol import (
    PROTOCOL_VERSION,
    decode,
    encode,
    format_address,
    parse_address,
)
from ..obs.exposition import (
    CONTENT_TYPE,
    build_http_response,
    render_registry,
)
from .engine import ServeEngine, ServiceLimits
from .errors import GraphRejected, ServeError

__all__ = ["ServeDaemon", "filter_page_by_tenant"]


def filter_page_by_tenant(text: str, tenant: str) -> str:
    """Reduce a Prometheus page to one tenant's series.

    Keeps each group's ``# HELP``/``# TYPE`` header only when at least
    one of its series carries ``tenant="<tenant>"``.
    """

    needle = f'tenant="{tenant}"'
    out: list[str] = []
    header: list[str] = []
    for line in text.splitlines():
        if line.startswith("# HELP "):
            header = [line]
            continue
        if line.startswith("# TYPE "):
            header.append(line)
            continue
        if needle in line:
            if header:
                out.extend(header)
                header = []
            out.append(line)
    return "\n".join(out) + "\n"


class _WireError(ServeError):
    """An error that already has its wire shape (e.g. the engine's
    ``task_failed`` dict with the remote traceback) — crosses verbatim."""

    def __init__(self, error: dict):
        super().__init__(str(error.get("message", "graph failed")))
        self.wire = error


class _Connection:
    """Per-connection state: its tenant and its in-flight jobs."""

    __slots__ = ("tenant", "jobs")

    def __init__(self):
        self.tenant: Optional[str] = None
        self.jobs: set = set()


class ServeDaemon:
    """Bind, accept, admit, execute; one fleet, many tenants."""

    def __init__(
        self,
        address: str,
        *,
        workers: int = 4,
        shards: int = 16,
        backend: str = "threads",
        limits: Optional[ServiceLimits] = None,
        metrics=None,
    ):
        self.engine = ServeEngine(
            workers=workers, shards=shards, backend=backend,
            limits=limits, metrics=metrics,
        )
        self._t0 = time.monotonic()
        self._loop = asyncio.new_event_loop()
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-loop",
            daemon=True,
        )
        self._thread.start()
        self.address = asyncio.run_coroutine_threadsafe(
            self._bind(address), self._loop
        ).result(timeout=10.0)

    async def _bind(self, address: str) -> str:
        parsed = parse_address(address)
        if parsed[0] == "tcp":
            self._server = await asyncio.start_server(
                self._handle_connection, host=parsed[1], port=parsed[2]
            )
            port = self._server.sockets[0].getsockname()[1]
            return format_address(("tcp", parsed[1], port))
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=parsed[1]
        )
        return parsed[1]

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        conn = _Connection()
        try:
            buffer = b""
            while len(buffer) < 5:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                buffer += chunk
            if buffer.startswith(b"GET ") or buffer.startswith(b"HEAD "):
                await self._serve_http(reader, writer, buffer)
                return
            # JSON-lines session: deliver the deferred hello.
            writer.write(encode(self._hello()))
            await writer.drain()
            while True:
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    record = decode(line)
                    if record is None:
                        continue
                    if record.get("cmd") == "detach":
                        writer.write(encode({"ev": "bye"}))
                        await writer.drain()
                        return
                    ack = await self._run_command(conn, record)
                    writer.write(encode(ack))
                    await writer.drain()
                chunk = await reader.read(65536)
                if not chunk:
                    return
                buffer += chunk
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            # A client gone mid-graph must not stall the fleet or leak
            # its tenant's accounting: abandon whatever it left behind.
            for job in list(conn.jobs):
                self.engine.abandon(job)
            conn.jobs.clear()
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - teardown best effort
                pass

    def _hello(self) -> dict:
        return {
            "service": "repro.serve",
            "version": PROTOCOL_VERSION,
            "workers": self.engine.num_workers,
            "backend": self.engine.backend,
            "shards": len(self.engine.shards),
        }

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------
    async def _run_command(self, conn: _Connection, record: dict) -> dict:
        ack = {
            "ev": "ack",
            "seq": record.get("seq"),
            "cmd": record.get("cmd"),
        }
        try:
            ack["data"] = await self._dispatch(conn, record)
            ack["ok"] = True
        except GraphRejected as exc:
            ack["ok"] = False
            ack["error"] = exc.to_wire()
        except _WireError as exc:
            ack["ok"] = False
            ack["error"] = exc.wire
        except ServeError as exc:
            ack["ok"] = False
            ack["error"] = {"code": "error", "message": str(exc)}
        except Exception as exc:  # noqa: BLE001 - reported to the client
            ack["ok"] = False
            ack["error"] = {
                "code": "internal",
                "message": f"{type(exc).__name__}: {exc}",
            }
        return ack

    async def _dispatch(self, conn: _Connection, record: dict) -> dict:
        cmd = record.get("cmd")
        if cmd == "open":
            tenant = record.get("tenant")
            if not tenant or not isinstance(tenant, str):
                raise ServeError("open requires a tenant name")
            conn.tenant = tenant
            self.engine.tenant(tenant)
            return {
                "tenant": tenant,
                "limits": self.engine.limits.to_wire(),
                "workers": self.engine.num_workers,
                "backend": self.engine.backend,
                "shards": len(self.engine.shards),
            }
        if cmd == "run":
            if conn.tenant is None:
                raise ServeError("run before open: no tenant bound")
            return await self._run_graph(conn, record)
        if cmd == "metrics":
            text = render_registry(self.engine.metrics)
            tenant = record.get("tenant")
            if tenant:
                text = filter_page_by_tenant(text, str(tenant))
            return {"content_type": CONTENT_TYPE, "text": text}
        if cmd == "health":
            return self._health()
        if cmd == "ping":
            return {"service": "repro.serve", "tenant": conn.tenant}
        raise ServeError(f"unknown command {cmd!r}")

    async def _run_graph(self, conn: _Connection, record: dict) -> dict:
        spec = {
            "tasks": record.get("tasks") or [],
            "data": record.get("data") or {},
            "constants": record.get("constants") or {},
        }
        loop = asyncio.get_running_loop()
        # Admission + decode + dependency analysis are CPU work; keep
        # them off the event loop so other tenants' submissions are
        # never queued behind one tenant's big graph.
        job = await loop.run_in_executor(
            None, self.engine.submit_graph, conn.tenant, spec
        )
        conn.jobs.add(job)
        future = loop.create_future()

        def _done(finished_job):
            def _resolve():
                if not future.cancelled():
                    future.set_result(finished_job)
            loop.call_soon_threadsafe(_resolve)

        job.add_done_callback(_done)
        try:
            await future
        finally:
            conn.jobs.discard(job)
        if job.error is not None:
            raise _WireError(job.error)
        return {
            "results": job.results or {},
            "tasks": job.task_count,
            "seconds": job.seconds,
        }

    def _health(self) -> dict:
        state = self.engine.state()
        state["uptime_seconds"] = time.monotonic() - self._t0
        state["service"] = "repro.serve"
        liveness = self.engine.executor.liveness()
        state["worker_liveness"] = liveness
        state["workers_alive"] = sum(1 for w in liveness if w.get("alive"))
        return state

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------
    async def _serve_http(self, reader, writer, buffer: bytes) -> None:
        while b"\r\n\r\n" not in buffer and len(buffer) < 65536:
            chunk = await reader.read(65536)
            if not chunk:
                break
            buffer += chunk
        request_line = buffer.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        parts = request_line.split()
        path = parts[1] if len(parts) > 1 else "/"
        try:
            response = self._http_response(path)
        except Exception as exc:  # noqa: BLE001 - reported to the client
            response = build_http_response(
                "500 Internal Server Error", "text/plain",
                str(exc).encode("utf-8", "replace"),
            )
        writer.write(response)
        await writer.drain()

    def _http_response(self, path: str) -> bytes:
        if path.startswith("/health"):
            body = json.dumps(self._health(), default=str).encode("utf-8")
            return build_http_response("200 OK", "application/json", body)
        if path.startswith("/metrics"):
            text = render_registry(self.engine.metrics)
            rest = path[len("/metrics"):].strip("/")
            if rest:
                tenant = rest.split("/", 1)[0]
                text = filter_page_by_tenant(text, tenant)
            return build_http_response(
                "200 OK", CONTENT_TYPE, text.encode("utf-8")
            )
        return build_http_response(
            "404 Not Found", "text/plain",
            b"routes: /metrics, /metrics/<tenant>, /health",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`close` (CLI mode)."""

        try:
            self._thread.join()
        except KeyboardInterrupt:
            self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True

        async def _shut():
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()

        try:
            asyncio.run_coroutine_threadsafe(
                _shut(), self._loop
            ).result(timeout=10.0)
        except Exception:  # noqa: BLE001 - teardown best effort
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self.engine.shutdown()

    def __enter__(self) -> "ServeDaemon":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
