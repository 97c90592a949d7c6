"""repro.mp — multiprocess shared-memory execution backend.

True parallelism beyond the GIL: the same sequential-looking task
program, the same master-side dependency tracker and scheduler, but
task bodies execute in long-lived forked worker processes.  Selected
per runtime with ``SmpssRuntime(backend="processes")``; see
``docs/execution_backends.md`` for the backend matrix and the arena
lifecycle rules.

Public surface (also re-exported from :mod:`repro`):

* :class:`SharedArena` / :func:`arena_array` — shared-memory ndarray
  allocation, so data crosses the process boundary by handle instead
  of by pickling;
* :func:`default_arena` — the lazily created process-wide arena;
* :class:`ArenaHandle` — the stable block reference that travels over
  the pipe;
* the error types a process-backed run can surface:
  :class:`~repro.core.transfer.TransferError`,
  :class:`RemoteTaskError`, :class:`WorkerLostError`.
"""

from ..core.transfer import RemoteTaskError, TransferError
from .arena import (
    ArenaHandle,
    SharedArena,
    arena_array,
    attach_handle,
    default_arena,
    handle_of,
    leaked_segment_files,
)
from .encoding import WorkerLostError
from .executor import ProcessBackend

__all__ = [
    "ArenaHandle",
    "ProcessBackend",
    "RemoteTaskError",
    "SharedArena",
    "TransferError",
    "WorkerLostError",
    "arena_array",
    "attach_handle",
    "default_arena",
    "handle_of",
    "leaked_segment_files",
]
