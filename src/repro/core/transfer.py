"""What crosses the wire: the one transfer codec of every remote surface.

The paper's runtime takes each parameter's (address, size, direction)
at every call.  On the remote surfaces — the process backend
(:mod:`repro.mp`), the cluster backend (:mod:`repro.dist`) and the
task-graph service (:mod:`repro.serve`) — that same triple decides what
crosses to the executor and what comes back.  This module owns that
decision once:

* :func:`direction_walk` maps a task's accesses to per-position reads,
  writes and region slices, and enforces the two rules every surface
  shares: a written value must be one of :data:`WRITABLE_TYPES` (its
  content has to land back in place), and an ``opaque`` value must be
  resident where the body runs or an immutable scalar (the tracker
  ignores it, so writes into a copy would be lost silently);
* :func:`encode_blob` / :func:`decode_blob` carry one value's content —
  plain ndarrays as raw C-order bytes plus dtype and shape, everything
  else (structured and object dtypes included) pickled — and
  :func:`land` puts returned content back into the caller's object;
* :func:`definition_ref` / :func:`resolve_definition` address a task
  definition by module and qualname;
* :class:`RemoteTaskError` / :func:`format_remote_error` carry a
  failure raised where the body ran.

Each backend keeps only the question that is its own: the process
backend asks whether a value is arena-backed, the cluster asks its
residency map, the service wraps blobs in JSON.  Blobs are pickles
between trusted processes; see ``docs/execution_backends.md``.
"""

from __future__ import annotations

import importlib
import pickle
import traceback
from typing import Any, Callable, NamedTuple, Optional

import numpy as np
from numpy.lib.format import descr_to_dtype, dtype_to_descr

from .dependencies import _SCALAR_TYPES

__all__ = [
    "PROTOCOL",
    "WRITABLE_TYPES",
    "TransferError",
    "RemoteTaskError",
    "format_remote_error",
    "TaskTransfer",
    "direction_walk",
    "encode_blob",
    "decode_blob",
    "land",
    "alloc_meta",
    "alloc_from_meta",
    "slices_spec",
    "slices_from_spec",
    "definition_ref",
    "resolve_definition",
]

PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Types whose content a remote executor can land back in place — the
#: only types a task may write through a parameter that crosses.
WRITABLE_TYPES = (np.ndarray, list, bytearray, dict)


class TransferError(TypeError):
    """A task's arguments cannot cross to a remote executor safely."""


class RemoteTaskError(RuntimeError):
    """A task body raised where it ran (worker process or node agent).

    Carries the remote exception's type name, message and formatted
    traceback; the original object may not be picklable, so it never
    crosses.
    """

    def __init__(self, exc_type: str, message: str, remote_traceback: str):
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type
        self.remote_traceback = remote_traceback

    def __str__(self) -> str:
        base = super().__str__()
        if self.remote_traceback:
            return f"{base}\n--- remote traceback ---\n{self.remote_traceback}"
        return base


def format_remote_error(exc: BaseException) -> tuple:
    """``(type name, message, formatted traceback)`` of *exc*."""

    return (
        type(exc).__name__,
        str(exc),
        "".join(traceback.format_exception(type(exc), exc, exc.__traceback__)),
    )


# ---------------------------------------------------------------------------
# the direction walk
# ---------------------------------------------------------------------------

class TaskTransfer(NamedTuple):
    """Per-position data movement of one task, read off its directions.

    ``reads`` / ``writes`` map a whole-object parameter position to the
    version the task reads / writes.  ``regions`` maps a region-mode
    position to ``(read_specs, write_specs)``: the distinct declared
    slices the body reads and writes, as :func:`slices_spec` tuples.
    """

    reads: dict
    writes: dict
    regions: dict


def direction_walk(
    task, values: list, resident: Optional[Callable[[Any], bool]] = None
) -> TaskTransfer:
    """Map *task*'s accesses over its resolved *values* to a transfer.

    *resident* says whether a value's storage is already where the body
    runs (the process backend's arena); only the opaque rule asks it.
    Raises :class:`TransferError` when a value cannot cross safely.
    """

    definition = task.definition
    for pos in definition.opaque_positions:
        value = values[pos]
        if isinstance(value, _SCALAR_TYPES) or (
            resident is not None and resident(value)
        ):
            continue
        raise TransferError(
            f"task {task.name!r}: opaque parameter "
            f"{definition.param_names[pos]!r} has type "
            f"{type(value).__name__} and is not resident where the body "
            f"runs; writes to a copy would be lost silently. Declare a "
            f"direction for it, allocate it with repro.arena_array(...) "
            f"on processes, or use backend='threads'"
        )

    positions = definition.positions
    reads: dict = {}
    writes: dict = {}
    regions: dict = {}
    for name, version in task.writes:
        pos = positions[name]
        if version.datum.region_mode:
            regions[pos] = ([], [])
        else:
            writes[pos] = version
    for name, version in task.reads:
        pos = positions[name]
        if version.datum.region_mode:
            regions.setdefault(pos, ([], []))
        else:
            reads.setdefault(pos, version)

    if regions:
        for access in task.accesses:
            pos = access.position
            if pos < 0:
                pos = positions[access.name]
            spans = regions.get(pos)
            if spans is None:
                continue
            value = values[pos]
            if not isinstance(value, np.ndarray):
                raise TransferError(
                    f"task {task.name!r}: region-mode parameter "
                    f"{access.name!r} has type {type(value).__name__}; "
                    f"only regions of ndarrays cross (use backend='threads')"
                )
            if access.region is not None:
                spec = slices_spec(access.region.to_slices())
            else:
                spec = ((None, None, None),) * value.ndim
            read_specs, write_specs = spans
            if access.direction.reads and spec not in read_specs:
                read_specs.append(spec)
            if access.direction.writes and spec not in write_specs:
                write_specs.append(spec)
        for pos in regions:
            reads.pop(pos, None)
            writes.pop(pos, None)

    for pos in writes:
        value = values[pos]
        if not isinstance(value, WRITABLE_TYPES):
            raise TransferError(
                f"task {task.name!r}: written parameter "
                f"{definition.param_names[pos]!r} has type "
                f"{type(value).__name__}, whose content cannot land back "
                f"in place; use an ndarray/list/bytearray/dict or "
                f"backend='threads'"
            )
    return TaskTransfer(reads, writes, regions)


# ---------------------------------------------------------------------------
# content
# ---------------------------------------------------------------------------

def encode_blob(obj: Any) -> tuple[dict, bytes]:
    """``(meta, payload)`` for one value's content.

    Plain ndarrays ship as raw C-order bytes plus dtype and shape, with
    no pickle framing around the bulk data.  Everything else pickles —
    structured and object dtypes too, which ``dtype.str`` cannot carry.
    *meta* is JSON-serialisable.
    """

    if isinstance(obj, np.ndarray) and obj.dtype.names is None \
            and not obj.dtype.hasobject:
        arr = np.ascontiguousarray(obj)
        meta = {"t": "nd", "dtype": arr.dtype.str, "shape": list(arr.shape)}
        return meta, arr.tobytes()
    return {"t": "pkl"}, pickle.dumps(obj, protocol=PROTOCOL)


def decode_blob(meta: dict, payload: bytes) -> Any:
    """Inverse of :func:`encode_blob`; ndarrays come back writable."""

    kind = meta.get("t")
    if kind == "nd":
        arr = np.frombuffer(payload, dtype=np.dtype(meta["dtype"]))
        return arr.reshape(tuple(meta["shape"])).copy()
    if kind == "pkl":
        return pickle.loads(payload)
    raise TransferError(f"unknown blob kind {kind!r}")


def land(target: Any, value: Any, slices: Optional[tuple] = None) -> None:
    """Put returned content *value* into *target* in place.

    With *slices* only that region of *target* is written: two
    executors writing disjoint regions of one array must each land
    only their own, or the later copy would clobber the earlier one.
    """

    if slices is not None:
        target[slices] = value
    elif isinstance(target, np.ndarray):
        target[...] = value
    elif isinstance(target, (list, bytearray)):
        target[:] = value
    elif isinstance(target, dict):
        target.clear()
        target.update(value)
    else:
        raise TransferError(
            f"cannot land returned content in a {type(target).__name__}"
        )


def alloc_meta(obj: Any) -> dict:
    """How a remote executor allocates storage shaped like *obj*."""

    if isinstance(obj, np.ndarray):
        return {"t": "nd", "dtype": dtype_to_descr(obj.dtype),
                "shape": list(obj.shape)}
    if isinstance(obj, list):
        return {"t": "list", "n": len(obj)}
    if isinstance(obj, bytearray):
        return {"t": "ba", "n": len(obj)}
    if isinstance(obj, dict):
        return {"t": "dict"}
    raise TransferError(
        f"cannot describe a fresh {type(obj).__name__} for remote "
        f"allocation"
    )


def alloc_from_meta(meta: dict) -> Any:
    """Inverse of :func:`alloc_meta`.

    ndarrays allocate zeroed — deterministic across executors, and the
    declared-region write-back discipline means uninitialised bytes
    are never shipped home anyway.
    """

    kind = meta["t"]
    if kind == "nd":
        return np.zeros(tuple(meta["shape"]),
                        dtype=descr_to_dtype(meta["dtype"]))
    if kind == "list":
        return [None] * meta["n"]
    if kind == "dict":
        return {}
    return bytearray(meta["n"])


def slices_spec(slices: tuple) -> tuple:
    """Hashable, pickle- and JSON-stable form of a tuple of slices."""

    return tuple((s.start, s.stop, s.step) for s in slices)


def slices_from_spec(spec) -> tuple:
    return tuple(slice(a, b, c) for a, b, c in spec)


# ---------------------------------------------------------------------------
# definitions
# ---------------------------------------------------------------------------

def definition_ref(definition) -> tuple[str, str]:
    """``(module, qualname)`` under which *definition* is importable.

    Both sides must resolve the identical pragma, so the ``@css_task``
    has to live at module scope under its own name.
    """

    func = definition.func
    module = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", "")
    if not module or not qualname or "<locals>" in qualname:
        raise TransferError(
            f"task {definition.name!r} is not addressable by "
            f"module/qualname (defined inside a function?); remote "
            f"execution requires module-level @css_task definitions"
        )
    return module, qualname


def resolve_definition(ref) -> Any:
    """The :class:`~repro.core.task.TaskDefinition` behind a ref."""

    module_name, qualname = ref
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise TransferError(
            f"cannot resolve task {module_name}.{qualname}: {exc}"
        ) from exc
    definition = getattr(obj, "definition", None)
    if definition is None:
        raise TransferError(
            f"{module_name}.{qualname} is not a @css_task (no "
            f".definition attribute)"
        )
    return definition
