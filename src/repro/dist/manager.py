"""Master-side cluster backend: dispatch, residency, placement, recovery.

:class:`ClusterBackend` is the third implementation of
:class:`repro.core.runtime.Executor`, next to
:class:`~repro.mp.executor.ProcessBackend`:
the master keeps the paper's entire task-graph machinery — dependency
tracker, renaming, scheduler, memory limit — byte-identical, and each
worker thread becomes a proxy that forwards the task body to a remote
**node agent** (:mod:`repro.dist.agent`) over one persistent socket per
slot, blocking until the ``done`` frame.

What is genuinely new versus the process backend is the **datum
residency** layer (:mod:`repro.dist.residency`):

* a task's inputs ship only when the target node does not already hold
  their current version — repeat submissions over the same arrays move
  almost nothing (``dist.cache_hits``);
* a task's whole-object outputs stay on the producing node by default;
  the master fetches them home lazily (a consumer dispatched elsewhere,
  :meth:`fetch_version`, or the barrier) — the paper's section-VI
  locality argument, generalised across address spaces;
* the scheduler's placement hook steers each ready task toward the
  node already holding the most input bytes (cf. the Myrmics/COMPSs
  locality schedulers in PAPERS.md), falling back to normal stealing.

Failure contract mirrors the process backend: a dead agent is detected
by its sockets dying; its in-flight tasks are re-dispatched exactly
once to surviving nodes (slots remap, so the proxy threads never
change); resident data that died with the node is re-fetched from the
master copy when current, and otherwise raises
:class:`~repro.dist.encoding.DistDataLossError` — run with
``dist_write_through=True`` when agents are expected to die.
"""

from __future__ import annotations

import pickle
import threading
import uuid
from typing import Any, Optional

import numpy as np

from ..core.invocation import resolve_call_values
from ..core.renaming import StorageKind
from ..core.transfer import (
    PROTOCOL,
    WRITABLE_TYPES,
    RemoteTaskError,
    TransferError,
    alloc_meta,
    definition_ref,
    direction_walk,
    encode_blob,
    slices_from_spec,
)
from ..net.client import NetClosed, NetTimeout
from ..net.frames import FrameError, recv_frame, send_frame
from ..net.protocol import connect, connect_retry
from .encoding import AgentLostError, DistDataLossError, apply_blob
from .residency import ResidencyMap

__all__ = ["ClusterBackend"]

#: Read timeout for control-channel round trips (fetch may move a large
#: array; dispatch channels have NO timeout — tasks take as long as
#: they take, and death is detected by the socket dying, not a clock).
_CONTROL_TIMEOUT = 120.0


class _Node:
    """One agent: control socket, advertised slots, death flag."""

    __slots__ = (
        "index", "name", "address", "control", "control_lock", "slots",
        "slot_ids", "pid", "dead", "rr", "tasks_run",
    )

    def __init__(self, index: int, address: str):
        self.index = index
        self.name = f"n{index}"
        self.address = address
        self.control = None
        self.control_lock = threading.Lock()
        self.slots = 0
        self.slot_ids: list[int] = []
        self.pid: Optional[int] = None
        self.dead = False
        #: Round-robin cursor over slot_ids for the placement hook.
        self.rr = 0
        self.tasks_run = 0


class _SlotLink:
    """One dispatch socket: the remote half of one proxy thread.

    Driven by exactly one proxy thread, so it needs no lock; after the
    owning node dies the same thread remaps the link to a survivor
    (``generation`` counts remaps, mirroring mp worker respawns).
    """

    __slots__ = ("slot", "node", "conn", "generation", "sent_defs", "seq")

    def __init__(self, slot: int, node: _Node, conn):
        self.slot = slot
        self.node = node
        self.conn = conn
        self.generation = 1
        self.sent_defs: set = set()
        self.seq = 0


class ClusterBackend:
    """Executes task bodies on remote node agents (see module docstring).

    *config* supplies the agent addresses (``nodes``), the dial timeout,
    write-through and the trace ring size; counters land in *metrics*;
    with a *tracer*, agents record events and ship them back.
    """

    in_process = False

    def __init__(self, config, metrics, tracer=None):
        self._addresses = list(config.nodes or ())
        self._connect_timeout = config.dist_connect_timeout
        self._write_through = bool(config.dist_write_through)
        self._ring_capacity = config.trace_buffer_size
        self._tracer = tracer
        self._metrics = metrics
        self._nodes: list[_Node] = []
        self._by_name: dict[str, _Node] = {}
        #: slot id -> link; index 0 unused (the main thread never
        #: dispatches remotely under a remote backend).
        self._slots: list[Optional[_SlotLink]] = []
        self._death_lock = threading.Lock()
        self._remap_rr = 0
        self._stopped = False
        self._m_bytes = metrics.counter("dist.bytes_moved")
        self._m_hits = metrics.counter("dist.cache_hits")
        self._m_misses = metrics.counter("dist.cache_misses")
        self._m_deaths = metrics.counter("dist.agent_deaths")
        self._m_redispatch = metrics.counter("dist.redispatched_tasks")
        self._g_resident: dict[str, Any] = {}
        self._g_tasks: dict[str, Any] = {}
        self._g_alive: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        """Dial every agent; return the fleet's advertised slot count.

        Each start is a fresh session (new id, empty residency map), so
        a runtime restarted after shutdown never trusts stale copies.
        """

        if not self._addresses:
            raise TypeError("backend='cluster' needs at least one node")
        self._stopped = False
        self.sid = uuid.uuid4().hex[:12]
        self._residency = ResidencyMap(self.sid)
        self._nodes = []
        self._by_name = {}
        metrics = self._metrics
        slot = 1
        for index, address in enumerate(self._addresses):
            node = _Node(index, address)
            sock = connect_retry(
                address, timeout=self._connect_timeout, attempts=5,
            )
            send_frame(sock, {"k": "hello", "role": "control",
                              "sid": self.sid})
            reply, _ = recv_frame(sock, timeout=self._connect_timeout)
            if reply.get("k") != "hello" or "slots" not in reply:
                sock.close()
                raise ConnectionError(
                    f"{address!r} did not answer like a repro dist agent "
                    f"(got {reply.get('k')!r})"
                )
            sock.settimeout(_CONTROL_TIMEOUT)
            node.control = sock
            node.slots = int(reply["slots"])
            node.pid = reply.get("pid")
            self._nodes.append(node)
            self._by_name[node.name] = node
            for _ in range(node.slots):
                node.slot_ids.append(slot)
                slot += 1
            self._g_resident[node.name] = metrics.gauge(
                "dist.node_resident_bytes", node=node.name)
            self._g_tasks[node.name] = metrics.gauge(
                "dist.node_tasks", node=node.name)
            self._g_alive[node.name] = metrics.gauge(
                "dist.node_alive", node=node.name)
            self._g_alive[node.name].set(1)
        self._slots = [None] * slot
        for node in self._nodes:
            for slot_id in node.slot_ids:
                self._slots[slot_id] = _SlotLink(
                    slot_id, node, self._open_dispatch(node, slot_id))
        return slot - 1

    def _open_dispatch(self, node: _Node, slot: int):
        sock = connect(node.address, timeout=self._connect_timeout)
        send_frame(sock, {
            "k": "hello", "role": "dispatch", "sid": self.sid,
            "slot": slot, "trace": self._tracer is not None,
            "ring": self._ring_capacity,
        })
        reply, _ = recv_frame(sock, timeout=self._connect_timeout)
        if reply.get("k") != "ok":
            sock.close()
            raise ConnectionError(
                f"agent {node.address!r} refused dispatch slot {slot}"
            )
        sock.settimeout(None)  # tasks take as long as they take
        return sock

    def stop(self) -> None:
        """Release this session on every agent and close all sockets.

        Agents are long-lived daemons shared between runs; stop never
        kills them, it only drops this session's resident data.  Never
        raises — called from runtime shutdown paths.
        """

        if self._stopped:
            return
        self._stopped = True
        for link in self._slots:
            if link is None or link.conn is None:
                continue
            try:
                send_frame(link.conn, {"k": "bye"})
            except Exception:
                pass
            try:
                link.conn.close()
            except Exception:
                pass
            link.conn = None
        for node in self._nodes:
            sock = node.control
            if sock is None:
                continue
            if not node.dead:
                try:
                    send_frame(sock, {"k": "release", "sid": self.sid})
                    recv_frame(sock, timeout=5.0)
                    send_frame(sock, {"k": "bye"})
                except Exception:
                    pass
            try:
                sock.close()
            except Exception:
                pass
            node.control = None

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run(self, task, slot: int) -> tuple[Optional[BaseException], float]:
        """Execute *task* on the agent behind *slot*; ``(cause, duration)``.

        Same contract as :meth:`ProcessBackend.run`: expected failures
        come back as ``cause`` — :class:`RemoteTaskError` (the body
        raised), :class:`TransferError` (arguments cannot cross),
        :class:`DistDataLossError` (an input's only copy died
        with an agent), :class:`AgentLostError` (two agent deaths on
        one task, or no agents left).
        """

        link = self._slots[slot]
        values = resolve_call_values(task)
        attempts = 0
        while True:
            node = link.node
            if node.dead:
                try:
                    self._remap_slot(link)
                except AgentLostError as exc:
                    return exc, 0.0
                node = link.node
            try:
                msg, commits = self._encode_task(task, values, node)
            except (TransferError, DistDataLossError) as exc:
                return exc, 0.0
            key = id(task.definition)
            if key in link.sent_defs:
                def_payload = None
            else:
                try:
                    def_payload = definition_ref(task.definition)
                except TransferError as exc:
                    return exc, 0.0
            msg["def_key"] = key
            msg["def_payload"] = def_payload
            msg["task_id"] = task.task_id
            msg["name"] = task.name
            try:
                blob = pickle.dumps(msg, protocol=PROTOCOL)
            except Exception as exc:
                return (
                    TransferError(
                        f"task {task.name!r}: arguments are not picklable "
                        f"({exc!r}); use ndarray/list/bytearray/dict data or "
                        f"backend='threads'"
                    ),
                    0.0,
                )
            link.seq += 1
            seq = link.seq
            try:
                send_frame(link.conn, {"k": "task", "seq": seq}, blob)
                link.sent_defs.add(key)
                while True:
                    header, rblob = recv_frame(link.conn)
                    if header.get("k") == "done" and header.get("seq") == seq:
                        break
                reply = pickle.loads(rblob)
            except (NetClosed, NetTimeout, FrameError, ConnectionError,
                    OSError, EOFError) as exc:
                attempts += 1
                self._note_death(node, exc)
                if attempts > 1:
                    return (
                        AgentLostError(
                            f"agent {node.name} ({node.address}) died while "
                            f"running task #{task.task_id} {task.name!r}, "
                            f"which had already been re-dispatched once; "
                            f"giving up"
                        ),
                        0.0,
                    )
                try:
                    self._remap_slot(link)
                except AgentLostError as exc2:
                    return exc2, 0.0
                self._m_redispatch.inc()
                continue
            err = reply.get("err")
            events = reply.get("events")
            if events and self._tracer is not None:
                self._tracer.ingest(events)
            duration = reply.get("duration", 0.0)
            if err is not None:
                return RemoteTaskError(*err), duration
            for pos, sl_spec, meta, payload in reply.get("ret", ()):
                apply_blob(
                    values[pos], meta, payload,
                    None if sl_spec is None else slices_from_spec(sl_spec),
                )
                self._m_bytes.inc(len(payload))
            residency = self._residency
            for entry, v_after, master_too in commits:
                residency.commit_write(
                    entry, node.name, v_after, master_too=master_too)
            node.tasks_run += 1
            self._g_tasks[node.name].set(node.tasks_run)
            return None, duration

    # ------------------------------------------------------------------
    # encoding (the residency decisions happen here)
    # ------------------------------------------------------------------
    def _encode_task(self, task, values: list, node: _Node):
        """Build the task message for *node*; returns ``(msg, commits)``.

        ``commits`` is ``[(entry, v_after, master_too), ...]`` — the
        residency bookkeeping to apply once the agent reports success.
        """

        walk = direction_walk(task, values)
        residency = self._residency
        write_through = self._write_through
        specs: list = [None] * len(values)
        ret: list = []
        writes_specs: list = []
        out: list = []
        commits: list = []

        # -- region-mode positions: ship declared read slices, return
        #    declared write slices; never cached (disjoint regions of
        #    one array may be written concurrently on different nodes,
        #    so no node ever holds "the" current array).
        for pos, (read_specs, write_specs) in walk.regions.items():
            value = values[pos]
            parts = []
            for sl in read_specs:
                meta, payload = encode_blob(value[slices_from_spec(sl)])
                parts.append((sl, meta, payload))
                self._m_bytes.inc(len(payload))
            specs[pos] = ("g", alloc_meta(value), parts)
            for sl in write_specs:
                ret.append((pos, sl))
                writes_specs.append((pos, sl))

        # -- whole-object tracked writes: residency-versioned.  Content
        #    ships only when the body also reads it; a pure overwrite
        #    (renamed OUTPUT included) needs the shape alone.
        for pos, version in walk.writes.items():
            storage = values[pos]
            entry = residency.ensure(storage, version.storage_is_base())
            residency.verify(entry)
            if pos in walk.reads:
                specs[pos] = self._content_spec(entry, node)
            else:
                specs[pos] = ("f", entry.key, alloc_meta(storage))
            v_after = entry.version + 1
            out.append((pos, entry.key, v_after))
            writes_specs.append((pos, None))
            if write_through:
                ret.append((pos, None))
            commits.append((entry, v_after, write_through))

        # -- whole-object tracked reads (positions not written).
        for pos, version in walk.reads.items():
            if specs[pos] is not None:
                continue
            storage = values[pos]
            if not isinstance(storage, WRITABLE_TYPES):
                specs[pos] = ("s", storage)  # read-only copy is safe
                continue
            entry = residency.ensure(storage, version.storage_is_base())
            residency.verify(entry)
            specs[pos] = self._content_spec(entry, node)

        # -- everything else (scalars, opaque scalars) ships inline.
        for pos, spec in enumerate(specs):
            if spec is None:
                specs[pos] = ("s", values[pos])

        msg = {"values": specs, "writes": writes_specs, "ret": ret,
               "out": out}
        return msg, commits

    def _content_spec(self, entry, node: _Node):
        """``("r", ...)`` when *node* holds current content, else ship."""

        if entry.lost:
            raise DistDataLossError(
                f"the only copy of datum {entry.key} died with its node; "
                f"run with dist_write_through=True to survive agent loss"
            )
        if entry.copies.get(node.name) == entry.version:
            self._m_hits.inc()
            return ("r", entry.key, entry.version)
        self._m_misses.inc()
        if not entry.master_current():
            self._fetch_home(entry)
        meta, payload = encode_blob(entry.obj)
        self._m_bytes.inc(len(payload))
        self._residency.record_copy(entry, node.name)
        return ("d", entry.key, entry.version, meta, payload)

    # ------------------------------------------------------------------
    # residency plumbing (fetch home, barrier, death)
    # ------------------------------------------------------------------
    def fetch_version(self, version) -> None:
        """Make the master copy of *version*'s storage current.

        Installed as ``tracker.residency_fetch`` (the renaming engine
        calls it before cloning a predecessor) and used by
        ``runtime.acquire`` / the barrier.  No-op for region-mode data
        (written home eagerly) and for versions that never materialised
        master-side (they were never dispatched either).
        """

        root = version.root
        if root.kind is StorageKind.INITIAL:
            storage = version.datum.base
        else:
            storage = root._storage
        if storage is None:
            return
        entry = self._residency.get(storage)
        if entry is None:
            return
        if not entry.master_current():
            self._fetch_home(entry)

    def _fetch_home(self, entry) -> None:
        """Pull *entry*'s current bytes from a holder into the master copy."""

        for name in entry.holders():
            node = self._by_name.get(name)
            if node is None or node.dead:
                continue
            try:
                with node.control_lock:
                    send_frame(node.control, {
                        "k": "fetch", "key": entry.key,
                        "version": entry.version,
                        "timeout": _CONTROL_TIMEOUT - 10.0,
                    })
                    header, payload = recv_frame(node.control)
            except (NetClosed, NetTimeout, FrameError, ConnectionError,
                    OSError) as exc:
                self._note_death(node, exc)
                continue
            if not header.get("found"):
                continue
            apply_blob(entry.obj, header["meta"], payload)
            self._m_bytes.inc(len(payload))
            self._residency.mark_master_current(entry)
            return
        raise DistDataLossError(
            f"datum {entry.key}: current version v{entry.version} is on no "
            f"reachable node and the master copy is stale (last writer "
            f"{entry.last_writer}); run with dist_write_through=True to "
            f"survive agent loss"
        )

    def barrier_sync(self) -> None:
        """Residency half of a barrier: all data home, caches pruned.

        Fetches every master-stale datum home (the barrier's write-back
        pass then copies renamed storage into user objects exactly as
        under the threads backend), then evicts everything except
        user-owned base arrays — renamed buffers die with the barrier,
        and the surviving base entries are what makes a *second*
        submission of the same graph cheap (their remote copies are
        still valid unless :meth:`ResidencyMap.verify` catches a
        master-side mutation).
        """

        residency = self._residency
        entries = residency.entries()
        for entry in entries:
            if not entry.master_current():
                self._fetch_home(entry)
        doomed = [
            entry for entry in entries
            if not (entry.is_base
                    and isinstance(entry.obj, (np.ndarray, bytearray)))
        ]
        by_node = residency.evict(doomed)
        for name, keys in by_node.items():
            node = self._by_name.get(name)
            if node is None or node.dead:
                continue
            try:
                with node.control_lock:
                    send_frame(node.control, {"k": "evict", "keys": keys})
                    recv_frame(node.control)
            except (NetClosed, NetTimeout, FrameError, ConnectionError,
                    OSError) as exc:
                self._note_death(node, exc)
        residency.generation += 1
        totals = residency.resident_bytes_by_node()
        for node in self._nodes:
            self._g_resident[node.name].set(totals.get(node.name, 0))

    def _note_death(self, node: _Node, cause) -> None:
        """Record an agent death exactly once; drop its resident copies."""

        with self._death_lock:
            if node.dead:
                return
            node.dead = True
        self._m_deaths.inc()
        self._g_alive[node.name].set(0)
        self._residency.drop_node(node.name)
        sock = node.control
        if sock is not None:
            try:
                sock.close()
            except Exception:
                pass

    def _remap_slot(self, link: _SlotLink) -> None:
        """Point a dead node's slot at a surviving agent (same slot id,
        fresh socket) so its proxy thread keeps draining the scheduler."""

        survivors = [n for n in self._nodes if not n.dead]
        if not survivors:
            raise AgentLostError(
                f"all {len(self._nodes)} agent(s) are gone; cannot re-home "
                f"slot {link.slot}"
            )
        old = link.conn
        if old is not None:
            try:
                old.close()
            except Exception:
                pass
            link.conn = None
        last_exc: Optional[Exception] = None
        for _ in range(len(survivors)):
            node = survivors[self._remap_rr % len(survivors)]
            self._remap_rr += 1
            try:
                conn = self._open_dispatch(node, link.slot)
            except (NetClosed, NetTimeout, FrameError, ConnectionError,
                    OSError) as exc:
                last_exc = exc
                self._note_death(node, exc)
                continue
            link.node = node
            link.conn = conn
            link.generation += 1
            link.sent_defs = set()
            return
        raise AgentLostError(
            f"no surviving agent would accept slot {link.slot}: {last_exc}"
        )

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def placement(self, task) -> Optional[int]:
        """Scheduler hook: the slot of the node holding the most input
        bytes, or ``None`` for default placement.

        Called under the scheduler lock — it only peeks at already-
        materialised storages and the residency map (lock order is
        scheduler → residency, network never happens here).
        """

        objs = []
        for name, version in task.reads:
            if version.datum.region_mode:
                continue
            root = version.root
            if root.kind is StorageKind.INITIAL:
                storage = version.datum.base
            else:
                storage = root._storage
            if storage is not None:
                objs.append(storage)
        for name, version in task.writes:
            if version.datum.region_mode:
                continue
            root = version.root
            if root.kind is StorageKind.INITIAL:
                storage = version.datum.base
                if storage is not None:
                    objs.append(storage)
        if not objs:
            return None
        totals = self._residency.node_bytes(objs)
        if not totals:
            return None
        name = max(totals, key=totals.get)
        if totals[name] <= 0:
            return None
        node = self._by_name.get(name)
        if node is None or node.dead or not node.slot_ids:
            return None
        node.rr += 1
        return node.slot_ids[node.rr % len(node.slot_ids)]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def liveness(self) -> list[dict]:
        """Per-slot liveness, same shape as the mp backend's (the
        health watchdog and serve /health consume both identically)."""

        out = []
        for link in self._slots[1:]:
            if link is None:
                continue
            out.append({
                "slot": link.slot,
                "pid": link.node.pid,
                "alive": not link.node.dead,
                "generation": link.generation,
                "node": link.node.name,
            })
        return out

