"""The node agent: one process per node, owning that node's executors.

``python -m repro dist agent ADDR`` starts one of these.  An agent
listens on a single address and serves two kinds of connection, both
speaking the frame protocol (:mod:`repro.net.frames`):

* one **control** connection per master — fetch a resident datum's
  bytes, evict keys, stats, stop;
* one **dispatch** connection per execution slot — a task-loop mirror
  of the mp backend's pipe: the master's proxy thread sends one task
  frame and blocks for the ``done`` frame.

Every dispatch connection is served by its own thread.  In the default
threads mode the task body runs right on that thread (numpy kernels
release the GIL, so slots genuinely overlap); with ``--processes``
each dispatch connection lazily forks a dedicated worker process via
the mp backend's :func:`~repro.mp.worker.worker_main` and relays, so
pure-Python bodies get real cores too.

The **store** is the agent half of the residency protocol: a dict of
``key -> (content_version, object)`` plus a condition variable.  A
task referencing a resident datum (``("r", key, version)``) waits
until the store holds at least that version — covering the window
where the producing task's ``done`` frame has landed on the master but
a sibling slot's consumer frame overtakes the data on this node.

Trace events are recorded with ``thread = global slot index`` on the
same ``perf_counter`` clock as the master (one host in tests; on real
multi-host fleets the merged timeline is per-node-accurate only) and
piggy-back on every ``done`` frame, exactly like mp worker rings.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
from collections import deque
from time import perf_counter
from typing import Any, Optional

import numpy as np

from ..core.tracing import EventKind, TraceEvent
from ..core.transfer import (
    PROTOCOL,
    alloc_from_meta,
    decode_blob,
    encode_blob,
    format_remote_error,
    land,
    resolve_definition,
    slices_from_spec,
)
from ..mp.encoding import apply_writebacks
from ..net.client import NetClosed, NetTimeout
from ..net.frames import recv_frame, send_frame
from ..net.protocol import format_address, parse_address

__all__ = ["AgentServer"]

#: Seconds a task waits for a resident datum to reach its expected
#: version before failing structurally (dependency ordering makes real
#: waits sub-millisecond; this is a protocol-bug backstop).
STORE_WAIT_TIMEOUT = 60.0


class _AgentStore:
    """Versioned resident-datum store shared by all slots of one agent."""

    def __init__(self):
        self._cv = threading.Condition()
        self._data: dict[str, tuple[int, Any]] = {}

    def put(self, key: str, version: int, obj: Any) -> Any:
        """Record *obj* as *key*'s content at *version*; returns the
        canonical object (an equal-or-newer resident copy wins)."""

        with self._cv:
            cur = self._data.get(key)
            if cur is not None and cur[0] >= version:
                return cur[1]
            self._data[key] = (version, obj)
            self._cv.notify_all()
            return obj

    def get_at_least(self, key: str, version: int,
                     timeout: float = STORE_WAIT_TIMEOUT) -> tuple[int, Any]:
        deadline = perf_counter() + timeout
        with self._cv:
            while True:
                cur = self._data.get(key)
                if cur is not None and cur[0] >= version:
                    return cur
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    have = "nothing" if cur is None else f"v{cur[0]}"
                    raise RuntimeError(
                        f"resident datum {key!r} did not reach version "
                        f"{version} within {timeout:.0f}s (store has {have}); "
                        f"master/agent residency state diverged"
                    )
                self._cv.wait(remaining)

    def evict(self, keys) -> None:
        with self._cv:
            for key in keys:
                self._data.pop(key, None)

    def release(self, prefix: str) -> int:
        with self._cv:
            doomed = [k for k in self._data if k.startswith(prefix)]
            for key in doomed:
                del self._data[key]
            return len(doomed)

    def stats(self) -> dict:
        with self._cv:
            nbytes = 0
            for _version, obj in self._data.values():
                if isinstance(obj, np.ndarray):
                    nbytes += int(obj.nbytes)
                elif isinstance(obj, (bytes, bytearray)):
                    nbytes += len(obj)
            return {"entries": len(self._data), "resident_bytes": nbytes}


class _MpFleetWorker:
    """One forked mp worker behind one dispatch connection."""

    def __init__(self, slot: int, trace: bool, ring: int):
        import multiprocessing

        from ..mp.worker import MSG_READY, worker_main

        self._ctx = multiprocessing.get_context("fork")
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main, args=(child, slot, trace, ring),
            name=f"repro-dist-worker-{slot}", daemon=True,
        )
        proc.start()
        child.close()
        self.proc = proc
        self.conn = parent
        self.seq = 0
        self.sent_defs: set = set()
        if not parent.poll(30.0):
            self.close()
            raise RuntimeError(f"dist mp worker for slot {slot} did not start")
        msg = pickle.loads(parent.recv_bytes())
        if msg[0] != MSG_READY:  # pragma: no cover - protocol guard
            self.close()
            raise RuntimeError("dist mp worker bad handshake")

    def run(self, def_key, def_payload, task_id, name, values, wb_specs):
        """Relay one task; returns ``(err, wb_values, duration, events)``."""

        from ..mp.worker import MSG_DONE, MSG_TASK

        self.seq += 1
        payload = None if def_key in self.sent_defs else def_payload
        msg = (MSG_TASK, self.seq, def_key, payload, task_id, name,
               [("v", v) for v in values], wb_specs)
        self.conn.send_bytes(pickle.dumps(msg, protocol=PROTOCOL))
        self.sent_defs.add(def_key)
        reply = pickle.loads(self.conn.recv_bytes())
        if reply[0] != MSG_DONE or reply[1] != self.seq:
            raise EOFError("dist mp worker protocol desync")
        _tag, _seq, err, wb_values, duration, events = reply
        return err, wb_values, duration, events

    def close(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass
        proc = self.proc
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stubborn child
                proc.kill()
                proc.join(timeout=2.0)


class AgentServer:
    """One node's agent (see module docstring).

    ``slots`` is how many dispatch slots the agent advertises (default:
    this machine's cores minus one, at least one); ``processes=True``
    backs each slot with a forked mp worker instead of running bodies
    on the dispatch thread.
    """

    def __init__(self, address: str, slots: Optional[int] = None,
                 processes: bool = False, name: Optional[str] = None):
        if slots is None:
            slots = max(1, (os.cpu_count() or 2) - 1)
        if slots < 1:
            raise ValueError("an agent needs at least one slot")
        self.slots = slots
        self.processes = processes
        self.name = name
        self.requested_address = address
        self.address: Optional[str] = None
        self.store = _AgentStore()
        self._listener: Optional[socket.socket] = None
        self._unix_path: Optional[str] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._closing = threading.Event()
        self._func_lock = threading.Lock()
        self._funcs: dict = {}
        #: Tasks completed by this agent (telemetry; racy read is fine).
        self.tasks_run = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AgentServer":
        parsed = parse_address(self.requested_address)
        if parsed[0] == "tcp":
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((parsed[1], parsed[2]))
            host, port = sock.getsockname()[:2]
            self.address = format_address(("tcp", parsed[1], port))
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                os.unlink(parsed[1])
            except OSError:
                pass
            sock.bind(parsed[1])
            self._unix_path = parsed[1]
            self.address = parsed[1]
        sock.listen(64)
        self._listener = sock
        self._closing.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-dist-agent-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    @property
    def closed(self) -> bool:
        """True once a remote ``stop`` op or :meth:`close` tore us down."""

        return self._closing.is_set()

    def close(self) -> None:
        """Shut the agent down: stop accepting, drop every connection."""

        self._closing.set()
        listener = self._listener
        self._listener = None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass
            self._unix_path = None

    #: Sudden-death alias used by the failure tests: from the master's
    #: point of view an agent whose sockets all vanish at once is
    #: indistinguishable from a SIGKILLed process.
    kill = close

    def join(self, timeout: Optional[float] = None) -> None:
        thread = self._accept_thread
        if thread is not None:
            thread.join(timeout)

    def __enter__(self) -> "AgentServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._closing.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:
                return
            with self._conn_lock:
                if self._closing.is_set():
                    try:
                        conn.close()
                    except OSError:
                        pass
                    return
                self._conns.add(conn)
            thread = threading.Thread(
                target=self._serve_conn, args=(conn,),
                name="repro-dist-agent-conn", daemon=True,
            )
            thread.start()

    def _drop_conn(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._conns.discard(conn)
        try:
            conn.close()
        except OSError:
            pass

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            try:
                hello, _ = recv_frame(conn, timeout=30.0)
            except (NetClosed, NetTimeout, ConnectionError):
                return
            if hello.get("k") != "hello":
                return
            conn.settimeout(None)
            role = hello.get("role")
            if role == "control":
                self._control_loop(conn)
            elif role == "dispatch":
                self._dispatch_loop(conn, hello)
        finally:
            self._drop_conn(conn)

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _control_loop(self, conn: socket.socket) -> None:
        send_frame(conn, {
            "k": "hello", "slots": self.slots, "pid": os.getpid(),
            "name": self.name, "processes": self.processes,
        })
        store = self.store
        while True:
            try:
                header, _payload = recv_frame(conn)
            except (NetClosed, ConnectionError, OSError):
                return
            kind = header.get("k")
            try:
                if kind == "fetch":
                    self._handle_fetch(conn, header)
                elif kind == "evict":
                    store.evict(header.get("keys", ()))
                    send_frame(conn, {"k": "ok"})
                elif kind == "release":
                    dropped = store.release(str(header.get("sid", "")) + ":")
                    send_frame(conn, {"k": "ok", "dropped": dropped})
                elif kind == "ping":
                    send_frame(conn, {
                        "k": "pong", "slots": self.slots,
                        "pid": os.getpid(), "tasks_run": self.tasks_run,
                        "store": store.stats(),
                    })
                elif kind == "stop":
                    send_frame(conn, {"k": "ok"})
                    # Tear down off-thread: close() waits on nothing,
                    # but it closes *this* socket too.
                    threading.Thread(target=self.close, daemon=True).start()
                    return
                elif kind == "bye":
                    return
                else:
                    send_frame(conn, {"k": "error",
                                      "error": f"unknown control op {kind!r}"})
            except (NetClosed, ConnectionError, OSError):
                return

    def _handle_fetch(self, conn: socket.socket, header: dict) -> None:
        key = header["key"]
        version = int(header.get("version", 0))
        try:
            have_version, obj = self.store.get_at_least(
                key, version, timeout=float(header.get("timeout", 10.0))
            )
        except RuntimeError:
            send_frame(conn, {"k": "data", "found": False, "key": key})
            return
        meta, payload = encode_blob(obj)
        send_frame(conn, {
            "k": "data", "found": True, "key": key,
            "version": have_version, "meta": meta,
        }, payload)

    # ------------------------------------------------------------------
    # dispatch plane
    # ------------------------------------------------------------------
    def _dispatch_loop(self, conn: socket.socket, hello: dict) -> None:
        slot = int(hello.get("slot", 0))
        sid = str(hello.get("sid", ""))
        trace = bool(hello.get("trace"))
        ring = int(hello.get("ring", 1 << 16))
        send_frame(conn, {"k": "ok", "slot": slot})
        events: deque = deque(maxlen=max(ring, 2))
        worker: Optional[_MpFleetWorker] = None
        try:
            while True:
                try:
                    header, payload = recv_frame(conn)
                except (NetClosed, ConnectionError, OSError):
                    return
                kind = header.get("k")
                if kind == "bye":
                    return
                if kind != "task":
                    continue
                if worker is None and self.processes:
                    try:
                        worker = _MpFleetWorker(slot, trace, ring)
                    except Exception as exc:
                        reply = {"err": format_remote_error(exc), "ret": [],
                                 "duration": 0.0, "events": [],
                                 "store": self.store.stats()}
                        send_frame(conn, {"k": "done", "seq": header.get("seq")},
                                   pickle.dumps(reply, protocol=PROTOCOL))
                        continue
                msg = pickle.loads(payload)
                reply = self._run_task(msg, sid, slot, trace, events, worker)
                if worker is not None and reply.pop("_worker_dead", False):
                    worker.close()
                    worker = None
                try:
                    send_frame(conn, {"k": "done", "seq": header.get("seq")},
                               pickle.dumps(reply, protocol=PROTOCOL))
                except (NetClosed, ConnectionError, OSError):
                    return
        finally:
            if worker is not None:
                worker.close()

    def _resolve_func(self, sid: str, def_key, def_payload):
        # Cache key includes the session id: def_key is id()-based on
        # the master, so two masters sharing one agent could collide.
        cache_key = (sid, def_key)
        with self._func_lock:
            func = self._funcs.get(cache_key)
            if func is None:
                if def_payload is None:
                    raise RuntimeError(
                        f"agent has no cached definition for key {def_key!r} "
                        f"and the master sent no payload"
                    )
                func = self._funcs[cache_key] = resolve_definition(
                    def_payload
                ).func
            return func

    def _resolve_values(self, specs: list) -> list:
        store = self.store
        values: list = [None] * len(specs)
        refs: list = []
        for pos, spec in enumerate(specs):
            tag = spec[0]
            if tag == "s":
                values[pos] = spec[1]
            elif tag == "r":
                refs.append(pos)
            elif tag == "d":
                _tag, key, version, meta, payload = spec
                values[pos] = store.put(key, version,
                                        decode_blob(meta, payload))
            elif tag == "f":
                _tag, _key, meta = spec
                values[pos] = alloc_from_meta(meta)
            elif tag == "g":
                _tag, meta, parts = spec
                obj = alloc_from_meta(meta)
                for sl_spec, part_meta, part_payload in parts:
                    land(obj, decode_blob(part_meta, part_payload),
                         slices_from_spec(sl_spec))
                values[pos] = obj
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown value spec tag {tag!r}")
        # References last: one datum passed at two positions ships its
        # content once, possibly at the later position, and the earlier
        # reference must wait only on other tasks, never on this one.
        for pos in refs:
            _tag, key, version = specs[pos]
            values[pos] = store.get_at_least(key, version)[1]
        return values

    def _run_task(self, msg: dict, sid: str, slot: int, trace: bool,
                  events: deque, worker: Optional[_MpFleetWorker]) -> dict:
        task_id = msg.get("task_id", -1)
        name = msg.get("name", "")
        err = None
        ret_out: list = []
        duration = 0.0
        worker_dead = False
        clock = perf_counter
        try:
            values = self._resolve_values(msg["values"])
            if worker is not None:
                # mp-fleet mode: the worker records its own start/end
                # events; relay, then land the written values back into
                # the agent-local objects (store copies / allocations).
                wb_specs = msg.get("writes", [])
                try:
                    err, wb_values, duration, wevents = worker.run(
                        msg["def_key"], msg.get("def_payload"), task_id,
                        name, values, wb_specs,
                    )
                except (EOFError, OSError, BrokenPipeError) as exc:
                    worker_dead = True
                    raise RuntimeError(
                        f"agent-local worker for slot {slot} died while "
                        f"running task #{task_id} {name!r}"
                    ) from exc
                if trace and wevents:
                    events.extend(wevents)
                if err is None and wb_values:
                    apply_writebacks(wb_specs, wb_values, values)
            else:
                func = self._resolve_func(sid, msg["def_key"],
                                          msg.get("def_payload"))
                if trace:
                    events.append(TraceEvent(
                        time=clock(), kind=EventKind.TASK_START,
                        task_id=task_id, task_name=name, thread=slot,
                    ))
                t0 = clock()
                func(*values)
                duration = clock() - t0
                if trace:
                    events.append(TraceEvent(
                        time=clock(), kind=EventKind.TASK_END,
                        task_id=task_id, task_name=name, thread=slot,
                    ))
            if err is None:
                for pos, key, v_after in msg.get("out", ()):
                    self.store.put(key, v_after, values[pos])
                for pos, sl_spec in msg.get("ret", ()):
                    obj = values[pos]
                    if sl_spec is not None:
                        obj = obj[slices_from_spec(sl_spec)]
                    meta, payload = encode_blob(obj)
                    ret_out.append((pos, sl_spec, meta, payload))
                self.tasks_run += 1
        except BaseException as exc:  # noqa: BLE001 - shipped to master
            err = format_remote_error(exc)
            ret_out = []
            if trace:
                events.append(TraceEvent(
                    time=clock(), kind=EventKind.TASK_END,
                    task_id=task_id, task_name=name, thread=slot,
                    extra=("error",),
                ))
        drained = list(events)
        events.clear()
        reply = {
            "err": err,
            "ret": ret_out,
            "duration": duration,
            "events": drained,
            "store": self.store.stats(),
        }
        if worker_dead:
            reply["_worker_dead"] = True
        return reply
