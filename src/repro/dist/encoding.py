"""Wire format between the master and node agents.

A task crosses the network as ONE frame (:mod:`repro.net.frames`)
whose payload is a pickled message; the interesting part is how each
call value is encoded.  Unlike the process backend — which ships every
non-arena value with every task — the cluster backend is built around
**datum residency**: content already resident on the target node ships
as a tiny reference, not as bytes.  Five value-spec forms:

``("s", value)``
    Inline: scalars, small untracked objects.  Pickled in place.
``("r", key, version)``
    Resident reference: use the agent-store object under *key*, once
    its content version is at least *version* (a condition wait covers
    the rare case where the producing dispatch is still in flight on a
    sibling slot).
``("d", key, version, meta, payload)``
    Data ship: store ``decode_blob(meta, payload)`` under *key* at
    *version*, then use it.  This is the cache-miss path the
    ``dist.bytes_moved`` counter measures.
``("f", key, meta)``
    Fresh output: allocate storage agent-side from *meta* alone —
    renamed OUTPUT buffers have no content worth moving.
``("g", meta, parts)``
    Region-mode buffer: allocate the full shape, fill only the
    declared read slices from *parts* (``[(slices_spec, meta,
    payload), ...]``).  Region data is never cached (disjoint regions
    of one array may be written concurrently on different nodes, so no
    single node ever holds "the" current array).

Which positions are read, written or region-mode, the blob codec and
how returned content lands are the shared transfer codec
(:mod:`repro.core.transfer`); the residency decision is this backend's
own.  Keys are ``"{sid}:{serial}"`` strings — the session id
namespaces multiple masters sharing one agent, and the serial pins the
entry even if Python reuses the object id master-side.

Everything crosses as pickles between trusted processes, the same
security model as :mod:`repro.mp`'s pipes — never expose an agent port
to an untrusted network (see ``docs/distributed.md``).
"""

from __future__ import annotations

import zlib
from typing import Any, Optional

import numpy as np

from ..core.transfer import decode_blob, land

__all__ = [
    "AgentLostError",
    "DistDataLossError",
    "apply_blob",
    "content_checksum",
]


class AgentLostError(RuntimeError):
    """A node agent died and the task could not be recovered."""


class DistDataLossError(RuntimeError):
    """The only copy of a datum's current version died with its node.

    Only possible in the default lazy-residency mode, where a task's
    outputs stay on the producing node until someone needs them; run
    with ``dist_write_through=True`` when agents are expected to die.
    """


def apply_blob(target: Any, meta: dict, payload: bytes,
               slices: Optional[tuple] = None) -> None:
    """Land returned blob content in *target* (optionally a region)."""

    land(target, decode_blob(meta, payload), slices)


def content_checksum(obj: Any) -> Optional[int]:
    """Cheap adler32 over a value's current content.

    The residency map re-verifies surviving cache entries once per
    barrier generation with this: a user mutating an array *between*
    barriers (outside any task) would otherwise leave remote copies
    silently stale.  ``None`` for types we do not checksum (those are
    never barrier-survivors).
    """

    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            return None
        return zlib.adler32(np.ascontiguousarray(obj).tobytes())
    if isinstance(obj, bytearray):
        return zlib.adler32(bytes(obj))
    return None
