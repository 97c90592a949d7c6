"""Datum-address lock striping for concurrent dependency analysis.

The single-program runtime serialises its whole dependency subsystem
behind one ``_tracker_lock`` — correct, and cheap when one main thread
submits.  A task-graph *service* (:mod:`repro.serve`) analyses many
independent submissions concurrently, and one global lock would make
every tenant contend with every other on the analysis path.

The fix is the classic one (Myrmics shards its dependency tracking by
address range): stripe the tracker locks by **datum address**.  Each
submission owns a :class:`GraphDomain` — a private
:class:`~repro.core.graph.TaskGraph` + :class:`DependencyTracker`
pair, so version chains and renaming namespaces never leak between
sessions — and the domain's *lock* is picked from a fixed
:class:`ShardSet` by hashing the addresses of the data it touches.
Two submissions whose data lives at different addresses hash to
different stripes with probability ``1 - 1/num_shards`` and never
contend; two submissions over the *same* data hash to the same stripe
deterministically, which is exactly when serialising them is the
conservative, safe answer.

The striping is over locks, not over tracker state: correctness never
depends on the hash (every domain is fully private), only contention
does.
"""

from __future__ import annotations

import threading
from typing import Iterable

from .dependencies import DependencyTracker
from .graph import TaskGraph

__all__ = [
    "DEFAULT_NUM_SHARDS",
    "address_hash",
    "shard_index",
    "TrackerShard",
    "ShardSet",
    "GraphDomain",
]

DEFAULT_NUM_SHARDS = 16

#: 64-bit golden-ratio multiplier (splitmix64 finalizer constant).
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def address_hash(key: int) -> int:
    """Scramble one object address into a well-mixed 64-bit value.

    ``id()`` values share allocator alignment in their low bits and a
    common heap prefix in their high bits; a splitmix64-style finalizer
    spreads both so the stripe index can use any bit range.
    """

    x = (key * _GOLDEN) & _MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def shard_index(keys: Iterable[int], num_shards: int) -> int:
    """Deterministic stripe for a datum *set*.

    XOR-folding the scrambled addresses makes the result independent
    of iteration order, so the same data always lands on the same
    stripe no matter how the caller enumerates it.
    """

    folded = 0
    for key in keys:
        folded ^= address_hash(key)
    return folded % num_shards


class TrackerShard:
    """One lock stripe plus its occupancy accounting."""

    __slots__ = ("index", "lock", "domains", "acquisitions")

    def __init__(self, index: int):
        self.index = index
        self.lock = threading.Lock()
        #: Live GraphDomain count on this stripe (under the set's lock).
        self.domains = 0
        #: Total domains ever placed here (load-balance telemetry).
        self.acquisitions = 0


class ShardSet:
    """A fixed array of tracker-lock stripes."""

    def __init__(self, num_shards: int = DEFAULT_NUM_SHARDS):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._shards = [TrackerShard(i) for i in range(num_shards)]
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._shards)

    def shard_for(self, keys: Iterable[int]) -> TrackerShard:
        """The stripe owning the datum set *keys* (object addresses)."""

        shard = self._shards[shard_index(keys, len(self._shards))]
        with self._lock:
            shard.domains += 1
            shard.acquisitions += 1
        return shard

    def release(self, shard: TrackerShard) -> None:
        with self._lock:
            shard.domains -= 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "num_shards": len(self._shards),
                "live_domains": [s.domains for s in self._shards],
                "acquisitions": [s.acquisitions for s in self._shards],
            }


class GraphDomain:
    """One isolated dependency domain riding one lock stripe.

    Owns a private graph + tracker (its own version chains, renaming
    namespace, and memory accounting) and funnels every mutation
    through ``shard.lock``.  The analysis/completion discipline is the
    same as the in-process runtime's: readiness is decided while still
    holding the tracker lock, so a completion racing an analysis can
    never double-release a task.
    """

    def __init__(self, shard: TrackerShard):
        self.shard = shard
        self.graph = TaskGraph(keep_finished=False)
        self.tracker = DependencyTracker(self.graph)

    # ------------------------------------------------------------------
    def analyze_batch(self, tasks) -> list:
        """Analyze *tasks* in submission order; return the ready set.

        Nothing executes from this domain until the caller releases
        the returned tasks, so capturing readiness after the whole
        batch (still under the stripe lock) is race-free.
        """

        with self.shard.lock:
            for task in tasks:
                self.tracker.analyze(task)
            return [t for t in tasks if t.num_pending_deps == 0]

    def complete(self, task) -> tuple[list, int]:
        """Record one completion; return (newly_ready, still_pending)."""

        with self.shard.lock:
            newly_ready = self.graph.complete(task)
            self.tracker.release_after(task)
            return newly_ready, self.graph.pending_count

    def write_back(self) -> int:
        """Barrier semantics: restore user-visible data, drop chains."""

        with self.shard.lock:
            count = self.tracker.write_back_all()
            self.tracker.reset()
            return count
