"""repro.dist — multi-node distributed execution backend.

``SmpssRuntime(backend="cluster", nodes=["tcp:host:port", ...])`` keeps
the paper's master — dependency tracker, renaming, scheduler — exactly
as-is and runs task *bodies* on remote node agents, each started with
``python -m repro dist agent ADDR``.  The interesting machinery is the
datum **residency** layer: inputs ship only when the target node does
not already hold their current version, outputs stay on the producing
node until someone needs them, and the scheduler places each task on
the node holding the most of its input bytes.  See
``docs/distributed.md`` for the topology, the wire protocol, and the
failure semantics.
"""

from ..core.transfer import RemoteTaskError, TransferError
from .agent import AgentServer
from .encoding import AgentLostError, DistDataLossError
from .manager import ClusterBackend
from .residency import ResidencyEntry, ResidencyMap

__all__ = [
    "AgentLostError",
    "AgentServer",
    "ClusterBackend",
    "DistDataLossError",
    "RemoteTaskError",
    "ResidencyEntry",
    "ResidencyMap",
    "TransferError",
]
