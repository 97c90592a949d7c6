"""Wire format between the master and worker processes.

A task crosses the pipe as ``(definition key, definition ref, encoded
call values, write-back specs)``:

* the **definition key** is stable per :class:`TaskDefinition`; each
  worker caches resolved definitions so the ref (where to import the
  task from) is sent once per worker, not once per task;
* each **call value** ships either as an :class:`~repro.mp.arena.ArenaHandle`
  (when the resolved value is an ndarray living in a shared-memory
  arena — zero copy, and worker writes land directly in master memory)
  or by pickle;
* the **write-back specs** say which pickled values the worker must
  send back, read off the task's directions by the shared
  :func:`~repro.core.transfer.direction_walk`.  Arena-backed values
  never need write-back.

The only question this module answers itself is the process backend's
own: is the value arena-backed?  Everything else — the direction walk,
the opaque rule, landing returned content — is
:mod:`repro.core.transfer`.  :func:`decode_values` and
:func:`collect_writebacks` run worker-side; keeping both ends of the
format in one module keeps them from drifting apart.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.task import TaskInstance
from ..core.transfer import direction_walk, land, slices_from_spec
from .arena import attach_handle, handle_of

__all__ = [
    "WorkerLostError",
    "is_resident",
    "encode_values",
    "decode_values",
    "writeback_specs",
    "collect_writebacks",
    "apply_writebacks",
]

#: Value tags on the wire.
_ARENA = "a"
_PICKLE = "v"


class WorkerLostError(RuntimeError):
    """A worker process died and the task could not be recovered."""


def is_resident(value: Any) -> bool:
    """Is *value* arena-backed, so workers see the master's storage?"""

    return handle_of(value) is not None


# ---------------------------------------------------------------------------
# call values
# ---------------------------------------------------------------------------

def encode_values(task: TaskInstance, values: list) -> list:
    """Encode resolved call *values* for the wire.

    Arena-backed ndarrays (and any non-negative-stride view into one)
    become handles; everything else is embedded for pickling.
    """

    encoded: list = []
    for value in values:
        handle = handle_of(value)
        if handle is not None:
            encoded.append((_ARENA, handle))
        else:
            encoded.append((_PICKLE, value))
    return encoded


def decode_values(encoded: list, segment_cache: dict) -> list:
    """Worker-side: materialise the argument list."""

    return [
        attach_handle(payload, segment_cache) if tag == _ARENA else payload
        for tag, payload in encoded
    ]


# ---------------------------------------------------------------------------
# write-back
# ---------------------------------------------------------------------------

def writeback_specs(task: TaskInstance, values: list) -> list:
    """Which positions the worker must return, as ``(pos, spec)``.

    ``spec`` is ``None`` for whole-object write-back and a
    :func:`~repro.core.transfer.slices_spec` tuple for each declared
    region a region-mode access writes.  Arena-backed values are
    skipped — worker writes already landed in shared memory.  Raises
    :class:`~repro.core.transfer.TransferError` (the opaque rule, or a
    written value that cannot land back) before anything ships.
    """

    walk = direction_walk(task, values, resident=is_resident)
    specs = [
        (pos, None) for pos in walk.writes if not is_resident(values[pos])
    ]
    for pos, (_read_specs, write_specs) in walk.regions.items():
        if write_specs and not is_resident(values[pos]):
            specs.extend((pos, spec) for spec in write_specs)
    return specs


def collect_writebacks(specs: list, values: list) -> list:
    """Worker-side: the values (or region slices) to send home."""

    out: list = []
    for pos, spec in specs:
        value = values[pos]
        if spec is not None:
            out.append(np.ascontiguousarray(value[slices_from_spec(spec)]))
        else:
            out.append(value)
    return out


def apply_writebacks(specs: list, payloads: list, values: list) -> None:
    """Master-side: land returned data in the task's resolved storage.

    Runs on the proxy thread *before* the task is marked complete, so
    successors (and the barrier's write-back pass) observe the data
    exactly as if the task had executed locally.
    """

    for (pos, spec), payload in zip(specs, payloads):
        land(values[pos], payload,
             None if spec is None else slices_from_spec(spec))
