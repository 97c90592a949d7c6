"""Unit tests for the residency map, dist wire encoding, and frames.

These pin down the master-side invariants the distributed backend's
correctness rests on: version-chain behaviour under WAR/WAW renaming
(a renamed datum must never resolve to a stale resident copy), the
strong-reference key discipline (no ``id()`` aliasing), barrier
eviction policy, checksum-based invalidation of out-of-band mutation,
and data-loss detection when a node dies holding the only copy.
"""

import socket
import threading

import numpy as np
import pytest

from repro.core.transfer import (
    TransferError,
    alloc_from_meta,
    alloc_meta,
    decode_blob,
    encode_blob,
    slices_from_spec,
    slices_spec,
)
from repro.dist.encoding import apply_blob, content_checksum
from repro.dist.residency import ResidencyMap
from repro.net.frames import FrameError, recv_frame, send_frame

pytestmark = pytest.mark.dist


# ---------------------------------------------------------------------------
# residency map
# ---------------------------------------------------------------------------

class TestResidencyMap:
    def test_keys_are_stable_and_identity_checked(self):
        rmap = ResidencyMap("sid0")
        a = np.zeros(4)
        entry = rmap.ensure(a, is_base=True)
        assert entry.key == "sid0:1"
        assert rmap.ensure(a, True) is entry
        b = np.zeros(4)
        assert rmap.ensure(b, True) is not entry

    def test_id_reuse_cannot_alias_entries(self):
        # The map holds strong refs: as long as an entry exists its
        # object is alive, so a new object can never reuse that id.
        rmap = ResidencyMap("s")
        a = np.zeros(8)
        entry = rmap.ensure(a, True)
        del a  # the entry keeps the array alive
        b = np.zeros(8)
        other = rmap.ensure(b, True)
        assert other is not entry
        assert entry.obj is not b

    def test_commit_write_tracks_versions_and_holders(self):
        rmap = ResidencyMap("s")
        a = np.arange(4.0)
        entry = rmap.ensure(a, True)
        rmap.record_copy(entry, "n0")
        assert entry.copies == {"n0": 0}
        rmap.commit_write(entry, "n1", 1, master_too=False)
        assert entry.version == 1
        assert entry.holders() == ["n1"]          # n0's copy is stale
        assert not entry.master_current()          # lazy output
        rmap.mark_master_current(entry)
        assert entry.master_current()

    def test_war_waw_rename_gets_fresh_key(self):
        # WAR/WAW renaming allocates a NEW buffer master-side; the
        # residency map must key it separately so the renamed version
        # can never hit the stale resident copy of the old buffer.
        rmap = ResidencyMap("s")
        base = np.arange(4.0)
        old = rmap.ensure(base, True)
        rmap.commit_write(old, "n0", 1, master_too=False)
        renamed = np.empty_like(base)  # what fresh_like would allocate
        fresh = rmap.ensure(renamed, False)
        assert fresh.key != old.key
        assert fresh.version == 0
        assert fresh.copies == {}

    def test_checksum_verify_invalidates_mutated_master_copy(self):
        rmap = ResidencyMap("s")
        a = np.arange(4.0)
        entry = rmap.ensure(a, True)
        rmap.commit_write(entry, "n0", 1, master_too=True)
        rmap.generation += 1
        a[0] = 99.0  # out-of-band mutation between barriers
        assert rmap.verify(entry) is False
        assert entry.version == 2      # new content version
        assert entry.copies == {}      # remote copies invalidated
        # Re-verify in the same generation is a no-op (cached).
        assert rmap.verify(entry) is True

    def test_verify_trusts_unchanged_content(self):
        rmap = ResidencyMap("s")
        a = np.arange(4.0)
        entry = rmap.ensure(a, True)
        rmap.commit_write(entry, "n0", 1, master_too=True)
        rmap.generation += 1
        assert rmap.verify(entry) is True
        assert entry.version == 1

    def test_drop_node_marks_sole_copy_lost(self):
        rmap = ResidencyMap("s")
        a = np.zeros(4)
        b = np.zeros(4)
        ea = rmap.ensure(a, True)
        eb = rmap.ensure(b, True)
        rmap.commit_write(ea, "n0", 1, master_too=False)  # only on n0
        rmap.commit_write(eb, "n0", 1, master_too=True)   # master has it
        lost = rmap.drop_node("n0")
        assert lost == [ea] and ea.lost
        assert not eb.lost                 # master copy is current

    def test_eviction_releases_entries_and_reports_holders(self):
        rmap = ResidencyMap("s")
        base = np.zeros(4)
        renamed = np.zeros(4)
        eb = rmap.ensure(base, True)
        er = rmap.ensure(renamed, False)
        rmap.record_copy(er, "n1")
        by_node = rmap.evict([er])
        assert by_node == {"n1": [er.key]}
        assert len(rmap) == 1
        assert rmap.get(renamed) is None
        assert rmap.get(base) is eb

    def test_node_bytes_counts_only_current_versions(self):
        rmap = ResidencyMap("s")
        a = np.zeros(16)   # 128 bytes
        b = np.zeros(4)    # 32 bytes
        ea = rmap.ensure(a, True)
        eb = rmap.ensure(b, True)
        rmap.commit_write(ea, "n0", 1, master_too=True)
        rmap.record_copy(eb, "n1")
        rmap.commit_write(eb, "n0", 1, master_too=True)  # n1 now stale
        totals = rmap.node_bytes([a, b])
        assert totals == {"n0": a.nbytes + b.nbytes}


# ---------------------------------------------------------------------------
# blob / spec encoding
# ---------------------------------------------------------------------------

class TestEncoding:
    def test_ndarray_blob_roundtrip_is_bitwise(self):
        arr = np.random.default_rng(0).random((7, 5)).astype(np.float32)
        meta, payload = encode_blob(arr[::2, ::2])  # non-contiguous view
        back = decode_blob(meta, payload)
        assert np.array_equal(back, arr[::2, ::2])
        assert back.flags.writeable

    def test_object_dtype_takes_pickle_path(self):
        arr = np.array([{"a": 1}, None], dtype=object)
        meta, payload = encode_blob(arr)
        assert meta["t"] == "pkl"
        back = decode_blob(meta, payload)
        assert back[0] == {"a": 1}

    def test_apply_blob_into_region(self):
        target = np.zeros((4, 4))
        src = np.ones((2, 4))
        meta, payload = encode_blob(src)
        apply_blob(target, meta, payload, (slice(1, 3), slice(None)))
        assert target[1:3].sum() == 8 and target[0].sum() == 0

    def test_alloc_meta_roundtrip(self):
        arr = np.empty((3, 2), dtype=np.int32)
        out = alloc_from_meta(alloc_meta(arr))
        assert out.shape == (3, 2) and out.dtype == np.int32
        assert not out.any()  # deterministic zeros
        assert alloc_from_meta(alloc_meta([1, 2, 3])) == [None] * 3
        assert alloc_from_meta(alloc_meta(bytearray(5))) == bytearray(5)
        with pytest.raises(TransferError):
            alloc_meta(object())

    def test_slices_spec_roundtrip_preserves_full_dims(self):
        slices = (slice(2, 7), slice(None), slice(0, 4, 2))
        assert slices_from_spec(slices_spec(slices)) == slices

    def test_content_checksum_tracks_mutation(self):
        a = np.arange(10.0)
        c1 = content_checksum(a)
        a[3] = -1
        assert content_checksum(a) != c1
        assert content_checksum(np.array([object()], dtype=object)) is None
        assert content_checksum(bytearray(b"xy")) is not None


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def _socketpair():
    return socket.socketpair()


class TestFrames:
    def test_roundtrip_header_and_payload(self):
        a, b = _socketpair()
        try:
            payload = np.arange(1000, dtype=np.float64).tobytes()
            t = threading.Thread(
                target=send_frame, args=(a, {"k": "data", "n": 1}, payload))
            t.start()
            header, got = recv_frame(b, timeout=5.0)
            t.join()
            assert header == {"k": "data", "n": 1}
            assert got == payload
        finally:
            a.close()
            b.close()

    def test_empty_payload(self):
        a, b = _socketpair()
        try:
            send_frame(a, {"k": "ping"})
            header, got = recv_frame(b, timeout=5.0)
            assert header == {"k": "ping"} and got == b""
        finally:
            a.close()
            b.close()

    def test_garbage_prefix_is_a_frame_error(self):
        a, b = _socketpair()
        try:
            a.sendall(b"\xff" * 8 + b"junk")
            with pytest.raises(FrameError):
                recv_frame(b, timeout=5.0)
        finally:
            a.close()
            b.close()
