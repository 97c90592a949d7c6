"""The served session: the local programming model over a socket.

:func:`repro.serve.connect` returns a :class:`ServeSession` whose
surface mirrors the in-process runtime — it sits on the same
:mod:`repro.core.api` stack, so ``@css_task`` calls, ``barrier()``,
``wait_on()`` and the bundled apps all work unchanged.  A driver
moves from local to served execution by changing one line::

    with SmpssRuntime(num_workers=4) as rt:      # local
    with repro.serve.connect(address) as rt:     # served

Submission is deferred-batch: ``@css_task`` calls accumulate client
side, and any synchronisation point (``barrier``, ``wait_on``,
``gather``) ships the whole batch as ONE graph — tasks referenced by
module/qualname (the mp backend's registration rule), tracked data by
value.  The server analyses dependencies, runs the graph on its fleet,
and the ack carries every datum's post-barrier bytes, which the
session writes back into the caller's original arrays — results are
bitwise identical to local execution.

Unlike :class:`~repro.core.runtime.SmpssRuntime`, a session is not
*exclusive*: many sessions may be active concurrently on different
threads of one process (each thread is the main program of its own
submission stream), which is how one client process drives several
tenants at once.
"""

from __future__ import annotations

import getpass
import os
import threading
from typing import Optional

from ..core import api as _api
from ..net.client import Client
from ..net.protocol import encode as wire_encode
from . import protocol as sp
from .errors import GraphRejected, RemoteGraphError, ServeError

__all__ = ["ServeSession", "connect"]

_session_counter = threading.Lock()
_session_serial = 0


def _default_tenant() -> str:
    global _session_serial
    with _session_counter:
        _session_serial += 1
        serial = _session_serial
    try:
        user = getpass.getuser()
    except Exception:  # noqa: BLE001 - environment without a passwd entry
        user = "client"
    return f"{user}-{os.getpid()}-{serial}"


class _Transport(Client):
    """JSON-lines client that keeps structured errors structured.

    The generic :meth:`Client.command` flattens an error to a string;
    the serve protocol ships dict errors (code/status/detail), so the
    session needs the full ack.
    """

    def rpc(self, cmd: str, **fields) -> dict:
        sock = self._sock
        if sock is None:
            raise ServeError("session transport already closed")
        self._seq += 1
        seq = self._seq
        record = {"cmd": cmd, "seq": seq}
        record.update(fields)
        sock.sendall(wire_encode(record))
        while True:
            reply = self._recv_raw(self.timeout)
            if reply.get("ev") == "ack" and reply.get("seq") == seq:
                return reply
            # hellos and notes arrive interleaved; park them.
            self._pending.append(reply)


class ServeSession:
    """One tenant's connection to a task-graph service."""

    #: Served sessions keep no process-global state (no task-id
    #: counter, no forked fleet), so many may be active at once —
    #: see the api stack's exclusivity contract.
    exclusive = False

    def __init__(
        self,
        address: str,
        tenant: Optional[str] = None,
        timeout: float = 120.0,
        constants: Optional[dict] = None,
        connect_timeout: Optional[float] = 10.0,
        connect_attempts: int = 5,
    ):
        self.address = address
        self.tenant = tenant or _default_tenant()
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.connect_attempts = connect_attempts
        self.constants = dict(constants or {})
        self._transport: Optional[_Transport] = None
        self._batch: list[tuple] = []      # (definition, values)
        self._datums: dict[int, tuple] = {}  # id(obj) -> (datum_id, obj)
        self._datum_serial = 0
        self._started = False
        #: Server facts from the open ack (limits, fleet shape).
        self.server_info: dict = {}
        #: Graphs this session has shipped (one per synchronisation).
        self.graphs_submitted = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServeSession":
        if self._started:
            raise ServeError("session already started")
        self._transport = _Transport(
            self.address,
            timeout=self.timeout,
            expect_hello=False,
            connect_timeout=self.connect_timeout,
            connect_attempts=self.connect_attempts,
        )
        ack = self._transport.rpc(
            "open", tenant=self.tenant, version=sp.SERVE_PROTOCOL_VERSION
        )
        if not ack.get("ok"):
            error = ack.get("error")
            self._transport.close()
            self._transport = None
            raise ServeError(f"open rejected: {self._message(error)}")
        self.server_info = ack.get("data", {})
        self._started = True
        _api.push_runtime(self)
        return self

    def close(self) -> None:
        if self._started:
            _api.discard_runtime(self)
            self._started = False
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.detach()
        self._batch.clear()
        self._datums.clear()

    def __enter__(self) -> "ServeSession":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None and self._batch:
                # Mirror the local runtime: leaving the block implies
                # the final barrier.
                self.barrier()
        finally:
            self.close()

    # ------------------------------------------------------------------
    # the runtime surface (what the api stack calls)
    # ------------------------------------------------------------------
    def in_task_body(self) -> bool:
        return False

    def submit(self, definition, args: tuple, kwargs: dict):
        """Record one task call; ships at the next synchronisation."""

        if not self._started:
            raise ServeError("session is not started")
        bound = definition._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values = tuple(
            bound.arguments[name] for name in definition.param_names
        )
        for value in values:
            if sp.is_datum(value):
                self._register(value)
        self._batch.append((definition, values))
        return None

    def barrier(self) -> None:
        """Ship the batch as one graph; write results back; block."""

        self.flush()

    def acquire(self, obj):
        """``wait_on`` semantics: synchronise, then read *obj* itself.

        The server has already written every datum back by the time
        the run ack lands, so post-flush the base object IS the latest
        version.
        """

        self.flush()
        return obj

    def gather(self, *objs):
        """Synchronise and return the up-to-date objects."""

        self.flush()
        if len(objs) == 1:
            return objs[0]
        return objs

    # ------------------------------------------------------------------
    # shipping
    # ------------------------------------------------------------------
    def _register(self, obj) -> str:
        key = id(obj)
        entry = self._datums.get(key)
        if entry is not None and entry[1] is obj:
            return entry[0]
        datum_id = f"d{self._datum_serial}"
        self._datum_serial += 1
        self._datums[key] = (datum_id, obj)
        return datum_id

    def flush(self) -> None:
        if not self._batch:
            return
        if self._transport is None:
            raise ServeError("session is not started")
        tasks = []
        data: dict[str, dict] = {}
        for definition, values in self._batch:
            ref = sp.definition_ref(definition)
            argspecs = []
            for value in values:
                if sp.is_datum(value):
                    datum_id = self._register(value)
                    if datum_id not in data:
                        data[datum_id] = sp.encode_datum(value)
                    argspecs.append({"d": datum_id})
                else:
                    argspecs.append(sp.encode_value(value))
            tasks.append({"def": ref, "args": argspecs})
        constants = {
            key: sp.encode_value(value)
            for key, value in self.constants.items()
        }
        ack = self._transport.rpc(
            "run", tasks=tasks, data=data, constants=constants
        )
        if not ack.get("ok"):
            # The batch is gone either way: a rejected graph must not
            # re-ship itself on the next barrier.
            self._batch.clear()
            self._datums.clear()
            raise self._error_from(ack.get("error"))
        results = ack.get("data", {}).get("results", {})
        by_id = {did: obj for did, obj in self._datums.values()}
        for datum_id, payload in results.items():
            target = by_id.get(datum_id)
            if target is not None:
                sp.write_back_into(target, payload)
        self.graphs_submitted += 1
        self._batch.clear()
        self._datums.clear()

    # ------------------------------------------------------------------
    # service introspection
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        if self._transport is None:
            raise ServeError("session is not started")
        ack = self._transport.rpc("ping")
        if not ack.get("ok"):
            raise self._error_from(ack.get("error"))
        return ack.get("data", {})

    def service_state(self) -> dict:
        """The daemon's health view (tenants, queue depth, limits)."""

        if self._transport is None:
            raise ServeError("session is not started")
        ack = self._transport.rpc("health")
        if not ack.get("ok"):
            raise self._error_from(ack.get("error"))
        return ack.get("data", {})

    # ------------------------------------------------------------------
    @staticmethod
    def _message(error) -> str:
        if isinstance(error, dict):
            return str(error.get("message", error))
        return str(error)

    @staticmethod
    def _error_from(error) -> ServeError:
        if isinstance(error, dict):
            code = error.get("code")
            if error.get("status") == 429 or code in (
                "graph_too_large", "memory_limit", "queue_full"
            ):
                return GraphRejected.from_wire(error)
            if code == "task_failed":
                return RemoteGraphError(
                    error.get("message", "remote task failed"),
                    remote_traceback=error.get("traceback", ""),
                )
            return ServeError(str(error.get("message", error)))
        return ServeError(str(error))


def connect(
    address: str,
    tenant: Optional[str] = None,
    timeout: float = 120.0,
    constants: Optional[dict] = None,
    connect_timeout: Optional[float] = 10.0,
    connect_attempts: int = 5,
) -> ServeSession:
    """Open a session against a running task-graph daemon.

    Use as a context manager — the session registers on the api stack
    so every ``@css_task`` call inside the block is served::

        with repro.serve.connect("tcp:127.0.0.1:7070") as rt:
            cholesky_hyper(hm)
            rt.barrier()

    *timeout* bounds each read while a graph runs; *connect_timeout*
    and *connect_attempts* bound the initial dial (with exponential
    backoff between attempts), so connecting to a dead or still-
    starting daemon fails in bounded time instead of hanging.
    """

    return ServeSession(
        address,
        tenant=tenant,
        timeout=timeout,
        constants=constants,
        connect_timeout=connect_timeout,
        connect_attempts=connect_attempts,
    )
