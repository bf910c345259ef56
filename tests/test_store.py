"""Tests for the ``repro.store`` durable tier (PR 9).

The acceptance pins, verified against real files on a real filesystem:

* **bit identity** — a snapshot round trip returns the exact stored
  float64 bytes, scores and solver-state vectors alike.
* **typed, contained failure** — the full corruption matrix (zero-length,
  truncated at every boundary, bit-flipped, bad magic, unknown schema
  version, foreign identity) produces
  :class:`~repro.exceptions.SnapshotError`-mediated *misses*, never a
  wrong answer, a hang, or an unhandled exception.
* **crash safety** — a process SIGKILLed mid-snapshot-write or mid-gc
  (deterministically, via an injected kill inside ``os.replace`` or
  ``os.unlink``) leaves a store the next open loads clean: interrupted
  records absent or whole, temp files reaped.
* **bounded** — TTL expiry and size/count LRU eviction, driven by an
  injectable clock, keep the record set within policy.
* **the directory is its own index** — opening a store decodes no
  record, a put changes one file, and no ``index.json`` is read or
  written.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api.manager import SessionManager
from repro.core.ranking import AbilityRanking
from repro.core.response import CONTENT_DIGEST, ResponseMatrix
from repro.core.solver_state import SolverState
from repro.exceptions import ReproError, SnapshotError
from repro.store import (
    SnapshotStore,
    WriteBehind,
    decode_snapshot,
    encode_snapshot,
    fingerprint_digest,
    snapshot_key,
)
from repro.store import format as record_format
from repro.store.format import MAGIC, PREFIX_SIZE, SCHEMA_VERSION, read_header
from repro.store.snapshot import SNAPSHOT_SUFFIX, _crowd_slug

FP = ("repro.hitsndiffs", "HITSnDIFFs", (("random_state", ("int", 7)),))
FP_OTHER = ("repro.hitsndiffs", "HITSnDIFFs", (("random_state", ("int", 8)),))


def make_ranking(num_users=12, seed=0, with_state=True, method="HnD"):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(num_users)
    state = None
    if with_state:
        state = SolverState(
            method=method,
            vectors={"diff_vector": rng.standard_normal(num_users)},
            iterations=17,
            residual=1e-9,
        )
    return AbilityRanking(
        scores=scores,
        method=method,
        diagnostics={"iterations": 17, "warm_start": "cold",
                     "residual": 1e-9, "unjsonable": object()},
        state=state,
    )


#: Above Linux's PID_MAX_LIMIT (2**22): no running process has this pid,
#: so a temp file named for it is a dead writer's leftover.
NO_SUCH_PID = 2 ** 22 + 1

#: ``make_matrix().content_hash()`` before the digest became a Merkle list:
#: the flat BLAKE2b-16 that sidecars without a ``digest`` field hold.
FLAT_DIGEST_OF_MAKE_MATRIX = "6acfc1a2667aa7cf450c089db09d5feb"


def make_matrix(num_users=10, num_items=6, num_options=3, seed=0):
    rng = np.random.default_rng(seed)
    users = np.repeat(np.arange(num_users), num_items)
    items = np.tile(np.arange(num_items), num_users)
    options = rng.integers(0, num_options, size=users.size)
    return ResponseMatrix.from_triples(
        users, items, options, shape=(num_users, num_items),
        num_options=num_options,
    )


# --------------------------------------------------------------------------- #
# Record format
# --------------------------------------------------------------------------- #
class TestFormat:
    def test_round_trip_is_bit_identical(self):
        ranking = make_ranking()
        data = encode_snapshot(ranking, content_hash="abc", fingerprint=FP,
                               created=123.5)
        record = decode_snapshot(data)
        assert record.content_hash == "abc"
        assert record.fingerprint == fingerprint_digest(FP)
        assert record.method == "HnD"
        assert record.created == 123.5
        assert record.scores.tobytes() == ranking.scores.tobytes()
        assert record.state is not None
        np.testing.assert_array_equal(
            record.state.vectors["diff_vector"],
            ranking.state.vectors["diff_vector"],
        )
        assert record.state.iterations == 17
        # Non-JSON diagnostics are dropped, scalars survive.
        assert record.diagnostics["iterations"] == 17
        assert "unjsonable" not in record.diagnostics

    def test_to_ranking_marks_snapshot_hits(self):
        data = encode_snapshot(make_ranking(), content_hash="abc",
                               fingerprint=FP)
        ranking = decode_snapshot(data).to_ranking()
        assert ranking.diagnostics["snapshot_hit"] is True
        assert ranking.diagnostics["warm_start"] == "cold"

    def test_stateless_round_trip(self):
        data = encode_snapshot(make_ranking(with_state=False),
                               content_hash="abc", fingerprint=FP)
        record = decode_snapshot(data)
        assert record.state is None

    def test_fingerprint_digest_is_stable_and_discriminating(self):
        assert fingerprint_digest(FP) == fingerprint_digest(
            ("repro.hitsndiffs", "HITSnDIFFs",
             (("random_state", ("int", 7)),)))
        assert fingerprint_digest(FP) != fingerprint_digest(FP_OTHER)
        # Type tags: equal-ish Python values digest differently.
        assert fingerprint_digest((1,)) != fingerprint_digest((True,))
        assert fingerprint_digest((1,)) != fingerprint_digest((1.0,))
        assert fingerprint_digest(("1",)) != fingerprint_digest((1,))
        assert fingerprint_digest((b"x",)) != fingerprint_digest(("x",))
        assert fingerprint_digest((None,)) != fingerprint_digest(("",))
        # Nesting shape matters (no flattening collisions).
        assert fingerprint_digest((("a", "b"),)) != fingerprint_digest(
            ("a", "b"))

    def test_fingerprint_digest_rejects_unknown_tokens(self):
        with pytest.raises(SnapshotError):
            fingerprint_digest((object(),))

    def test_snapshot_key_combines_both_halves(self):
        key = snapshot_key("deadbeef", FP)
        assert key == "deadbeef-" + fingerprint_digest(FP)

    def test_truncation_at_every_boundary_is_typed(self):
        data = encode_snapshot(make_ranking(num_users=4),
                               content_hash="abc", fingerprint=FP)
        for cut in range(len(data)):
            with pytest.raises(SnapshotError):
                decode_snapshot(data[:cut])

    def test_bit_flips_are_typed(self):
        data = encode_snapshot(make_ranking(num_users=4),
                               content_hash="abc", fingerprint=FP)
        for position in range(0, len(data), 7):
            corrupt = bytearray(data)
            corrupt[position] ^= 0xFF
            with pytest.raises(SnapshotError):
                decode_snapshot(bytes(corrupt))

    def test_zero_length_bad_magic_unknown_schema(self):
        data = encode_snapshot(make_ranking(), content_hash="abc",
                               fingerprint=FP)
        with pytest.raises(SnapshotError, match="shorter than"):
            decode_snapshot(b"")
        with pytest.raises(SnapshotError, match="magic"):
            decode_snapshot(b"XXXX" + data[4:])
        newer = bytearray(data)
        newer[4:8] = (SCHEMA_VERSION + 1).to_bytes(4, "little")
        # The version check fires *before* the checksum: a reader can say
        # "written by a newer repro" without knowing the newer digest.
        with pytest.raises(SnapshotError, match="schema version"):
            decode_snapshot(bytes(newer))
        with pytest.raises(SnapshotError, match="trailing"):
            decode_snapshot(_reseal(data, lambda p: p + b"x"))

    def test_snapshot_error_is_a_repro_error(self):
        assert issubclass(SnapshotError, ReproError)
        try:
            decode_snapshot(b"", path="somewhere")
        except SnapshotError as err:
            assert err.path == "somewhere"

    def test_read_header_reads_no_array(self, tmp_path):
        data = encode_snapshot(make_ranking(method="ABH"), content_hash="abc",
                               fingerprint=FP, created=123.5)
        path = tmp_path / "record.snap"
        path.write_bytes(data)
        assert read_header(path) == ("ABH", 123.5)
        # Cut right after the header: the arrays are never read.
        header_len = int.from_bytes(data[PREFIX_SIZE:PREFIX_SIZE + 4], "little")
        path.write_bytes(data[:PREFIX_SIZE + 4 + header_len])
        assert read_header(path) == ("ABH", 123.5)
        for broken in (b"", b"XXXX" + data[4:], data[:PREFIX_SIZE + 7]):
            path.write_bytes(broken)
            with pytest.raises(SnapshotError):
                read_header(path)
        with pytest.raises(FileNotFoundError):
            read_header(tmp_path / "absent.snap")


class TestRecordsOnDisk:
    def test_record_in_the_original_payload_layout_decodes(self):
        """Records written before the payload codec was shared with the
        wire (``json.dumps(header, sort_keys=True)`` after a little-endian
        header length) still decode field for field at schema version 1."""
        import hashlib
        import struct

        scores = np.array([0.5, -1.25, 2.0, 3.5])
        diff = np.array([1.0, -2.0, 3.0, 0.25])
        arrays = {"scores": scores, "state.diff_vector": diff}
        header = {
            "kind": "snapshot",
            "method": "HnD",
            "content_hash": "abc",
            "fingerprint": fingerprint_digest(FP),
            "created": 12.5,
            "diagnostics": {"iterations": 17, "warm_start": "cold"},
            "state": {"method": "HnD", "iterations": 17, "residual": 1e-9,
                      "vectors": ["diff_vector"]},
            "arrays": [[name, array.dtype.str, list(array.shape)]
                       for name, array in arrays.items()],
        }
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        payload = b"".join([struct.pack("<I", len(encoded)), encoded,
                            scores.tobytes(), diff.tobytes()])
        digest = hashlib.blake2b(payload, digest_size=16).digest()
        data = struct.Struct("<4sI16sQ").pack(
            b"RSN1", 1, digest, len(payload)) + payload

        record = decode_snapshot(data)
        assert record.content_hash == "abc"
        assert record.fingerprint == fingerprint_digest(FP)
        assert record.method == "HnD"
        assert record.created == 12.5
        assert record.diagnostics == {"iterations": 17, "warm_start": "cold"}
        assert record.scores.tobytes() == scores.tobytes()
        assert record.state.method == "HnD"
        assert record.state.iterations == 17
        assert record.state.residual == 1e-9
        assert list(record.state.vectors) == ["diff_vector"]
        assert record.state.vectors["diff_vector"].tobytes() == diff.tobytes()


def _reseal(data: bytes, mutate) -> bytes:
    """Apply ``mutate`` to the payload and recompute prefix + checksum."""
    import hashlib
    import struct

    payload = mutate(data[PREFIX_SIZE:])
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return struct.Struct("<4sI16sQ").pack(
        MAGIC, SCHEMA_VERSION, digest, len(payload)) + payload


# --------------------------------------------------------------------------- #
# SnapshotStore
# --------------------------------------------------------------------------- #
class TestSnapshotStore:
    def test_put_get_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        ranking = make_ranking()
        key = store.put_snapshot(ranking, content_hash="abc", fingerprint=FP)
        assert key == snapshot_key("abc", FP)
        record = store.get_snapshot("abc", FP)
        assert record.scores.tobytes() == ranking.scores.tobytes()
        assert store.hits == 1 and store.writes == 1
        assert store.get_snapshot("other", FP) is None
        assert store.misses == 1

    def test_uncacheable_fingerprint_is_a_no_op(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert store.put_snapshot(make_ranking(), content_hash="abc",
                                  fingerprint=None) is None
        assert store.get_snapshot("abc", None) is None
        assert store.stats()["snapshots"] == 0

    def test_survives_reopen(self, tmp_path):
        ranking = make_ranking()
        SnapshotStore(tmp_path).put_snapshot(
            ranking, content_hash="abc", fingerprint=FP)
        record = SnapshotStore(tmp_path).get_snapshot("abc", FP)
        assert record.scores.tobytes() == ranking.scores.tobytes()

    def test_bit_flipped_record_quarantines_as_miss(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(make_ranking(), content_hash="abc", fingerprint=FP)
        path = tmp_path / "snapshots" / (snapshot_key("abc", FP)
                                         + SNAPSHOT_SUFFIX)
        corrupt = bytearray(path.read_bytes())
        corrupt[-1] ^= 0x40
        path.write_bytes(bytes(corrupt))
        assert store.get_snapshot("abc", FP) is None
        assert store.corrupt == 1
        assert not path.exists()  # quarantined, not left to fail again
        assert store.get_snapshot("abc", FP) is None  # stays a clean miss

    def test_foreign_record_is_detected_by_content(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(make_ranking(), content_hash="abc", fingerprint=FP)
        snapshots = tmp_path / "snapshots"
        foreign_key = snapshot_key("feedface", FP)
        # An adversarially (or accidentally) renamed record: valid bytes,
        # wrong identity — must not be served under the new key.
        os.replace(snapshots / (snapshot_key("abc", FP) + SNAPSHOT_SUFFIX),
                   snapshots / (foreign_key + SNAPSHOT_SUFFIX))
        assert store.get_snapshot("feedface", FP) is None
        assert store.corrupt == 1

    def test_zero_length_record_is_a_miss(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(make_ranking(), content_hash="abc", fingerprint=FP)
        path = tmp_path / "snapshots" / (snapshot_key("abc", FP)
                                         + SNAPSHOT_SUFFIX)
        path.write_bytes(b"")
        assert store.get_snapshot("abc", FP) is None
        assert store.corrupt == 1

    def test_dangling_index_entry_reads_as_miss_and_self_heals(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(make_ranking(), content_hash="abc", fingerprint=FP)
        key = snapshot_key("abc", FP)
        (tmp_path / "snapshots" / (key + SNAPSHOT_SUFFIX)).unlink()
        assert store.get_snapshot("abc", FP) is None
        assert store.ls()["snapshots"] == []
        assert store.stats()["snapshots"] == 0

    def test_garbage_index_rebuilds_from_files(self, tmp_path):
        ranking = make_ranking()
        store = SnapshotStore(tmp_path)
        store.put_snapshot(ranking, content_hash="abc", fingerprint=FP)
        (tmp_path / "index.json").write_text("{not json", encoding="utf-8")
        reopened = SnapshotStore(tmp_path)
        assert reopened.stats()["snapshots"] == 1
        record = reopened.get_snapshot("abc", FP)
        assert record.scores.tobytes() == ranking.scores.tobytes()

    def test_tmp_files_are_reaped_on_open(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(make_ranking(), content_hash="abc", fingerprint=FP)
        for directory in (tmp_path, tmp_path / "snapshots",
                          tmp_path / "crowds"):
            (directory / (".tmp-%d-1" % NO_SUCH_PID)).write_bytes(b"interrupted")
        SnapshotStore(tmp_path)
        leftovers = [p for p in tmp_path.rglob(".tmp-*")]
        assert leftovers == []

    def test_opening_a_store_keeps_a_live_writers_temp_file(self, tmp_path):
        """A put held between its temp write and its rename, while another
        store opens the directory (as ``store ls`` may on a live server's
        store), still lands: the temp file's writer runs, so it stays."""
        store = SnapshotStore(tmp_path)
        written, release = threading.Event(), threading.Event()
        durable_tmp = store._durable_tmp

        def held(directory, data):
            tmp = durable_tmp(directory, data)
            written.set()
            release.wait(10)
            return tmp

        store._durable_tmp = held
        ranking = make_ranking()
        store.defer(lambda: store.put_snapshot(ranking, content_hash="abc",
                                               fingerprint=FP))
        assert written.wait(10)
        SnapshotStore(tmp_path)
        release.set()
        assert store.flush(10)
        assert store.stats()["write_failures"] == 0
        record = store.get_snapshot("abc", FP)
        assert record is not None
        assert record.scores.tobytes() == ranking.scores.tobytes()
        store.close()

    def test_ttl_expiry_with_injected_clock(self, tmp_path):
        clock = {"now": 1000.0}
        store = SnapshotStore(tmp_path, clock=lambda: clock["now"])
        store.put_snapshot(make_ranking(), content_hash="abc", fingerprint=FP)
        assert store.get_snapshot("abc", FP) is not None
        clock["now"] += 61.0
        removed = store.gc(ttl=60.0)
        assert removed["expired"] == 1
        assert store.stats()["snapshots"] == 0

    def test_lru_eviction_by_count(self, tmp_path):
        clock = {"now": 1000.0}
        store = SnapshotStore(tmp_path, max_records=2,
                              clock=lambda: clock["now"])
        for i, content in enumerate(("aa", "bb", "cc")):
            clock["now"] += 1.0
            store.put_snapshot(make_ranking(seed=i), content_hash=content,
                               fingerprint=FP)
        # "aa" was least recently used and must be gone.
        assert store.get_snapshot("aa", FP) is None
        assert store.get_snapshot("bb", FP) is not None
        assert store.get_snapshot("cc", FP) is not None
        assert store.evictions == 1

    def test_lru_eviction_prefers_least_recently_used(self, tmp_path):
        clock = {"now": 1000.0}
        store = SnapshotStore(tmp_path, max_records=2,
                              clock=lambda: clock["now"])
        for i, content in enumerate(("aa", "bb")):
            clock["now"] += 1.0
            store.put_snapshot(make_ranking(seed=i), content_hash=content,
                               fingerprint=FP)
        clock["now"] += 1.0
        store.get_snapshot("aa", FP)  # refresh "aa": now "bb" is LRU
        clock["now"] += 1.0
        store.put_snapshot(make_ranking(seed=2), content_hash="cc",
                           fingerprint=FP)
        assert store.get_snapshot("bb", FP) is None
        assert store.get_snapshot("aa", FP) is not None

    def test_byte_bound_evicts_but_admits_the_new_record(self, tmp_path):
        store = SnapshotStore(tmp_path, max_bytes=1)  # absurdly tight
        store.put_snapshot(make_ranking(seed=0), content_hash="aa",
                           fingerprint=FP)
        store.put_snapshot(make_ranking(seed=1), content_hash="bb",
                           fingerprint=FP)
        # The record being admitted is protected; older ones are evicted.
        assert store.get_snapshot("bb", FP) is not None
        assert store.get_snapshot("aa", FP) is None

    def test_gc_overrides_are_one_shot(self, tmp_path):
        clock = {"now": 1000.0}
        store = SnapshotStore(tmp_path, clock=lambda: clock["now"])
        for i, content in enumerate(("aa", "bb", "cc")):
            clock["now"] += 1.0
            store.put_snapshot(make_ranking(seed=i), content_hash=content,
                               fingerprint=FP)
        removed = store.gc(max_records=1)
        assert removed["evicted"] == 2 and removed["remaining"] == 1
        assert store.max_records is None  # override did not stick
        clock["now"] += 1.0
        store.put_snapshot(make_ranking(seed=3), content_hash="dd",
                           fingerprint=FP)
        assert store.stats()["snapshots"] == 2  # no standing bound

    def test_verify_reports_without_removing(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(make_ranking(), content_hash="abc", fingerprint=FP)
        bad = tmp_path / "snapshots" / ("bad" + SNAPSHOT_SUFFIX)
        bad.write_bytes(b"not a snapshot")
        report = store.verify()
        statuses = {entry["file"]: entry["status"] for entry in report}
        assert statuses["snapshots/bad.snap"] == "corrupt"
        assert any(status == "ok" for status in statuses.values())
        assert bad.exists()  # verify is read-only

    def test_verify_flags_renamed_records(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(make_ranking(), content_hash="abc", fingerprint=FP)
        snapshots = tmp_path / "snapshots"
        os.replace(snapshots / (snapshot_key("abc", FP) + SNAPSHOT_SUFFIX),
                   snapshots / (snapshot_key("zz", FP) + SNAPSHOT_SUFFIX))
        report = store.verify()
        assert report[0]["status"] == "corrupt"
        assert "identity" in report[0]["error"]


class TestLockScope:
    @pytest.mark.parametrize("write", ["put_snapshot", "save_crowd"])
    def test_lookups_never_wait_on_a_write_fsync(self, tmp_path,
                                                 monkeypatch, write):
        """Every fsync runs before the store lock is taken, so a serving
        lookup issued while a write-behind job is mid-fsync answers at
        once instead of queueing behind the disk."""
        store = SnapshotStore(tmp_path)
        real_fsync = os.fsync
        probes = []

        def probing_fsync(fd):
            # A miss takes the store lock: it must not wait on this fsync.
            probe = threading.Thread(target=store.get_snapshot,
                                     args=("missing", FP))
            probe.start()
            probe.join(5.0)
            probes.append((probe, probe.is_alive()))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", probing_fsync)
        if write == "put_snapshot":
            store.put_snapshot(make_ranking(), content_hash="aa",
                               fingerprint=FP)
        else:
            store.save_crowd("quiz", make_matrix())
        for probe, _ in probes:
            probe.join()
        assert probes
        assert [blocked for _, blocked in probes] == [False] * len(probes)


def _crowd_npz(root, name):
    """The NPZ a crowd's sidecar names."""
    sidecar = root / "crowds" / (_crowd_slug(name) + ".json")
    return root / "crowds" / json.loads(sidecar.read_text())["file"]


class TestCrowdPersistence:
    def test_save_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        matrix = make_matrix()
        store.save_crowd("quiz", matrix)
        loaded = SnapshotStore(tmp_path).load_crowd("quiz")
        assert loaded.content_hash() == matrix.content_hash()
        assert loaded.num_answers == matrix.num_answers

    def test_an_npz_with_int64_members_restores_and_verifies_clean(self, tmp_path):
        """Earlier versions wrote the triples as int64: such a crowd loads
        every answer as int32 triples under the content hash it was saved
        with, and its next save writes int32."""
        store = SnapshotStore(tmp_path)
        matrix = make_matrix()
        store.save_crowd("quiz", matrix)
        path = _crowd_npz(tmp_path, "quiz")
        with np.load(path) as saved:
            members = {name: saved[name] for name in saved.files}
        assert [members[name].dtype for name in ("users", "items", "options")] \
            == [np.int32] * 3
        np.savez_compressed(path, **{
            name: array.astype(np.int64) if name in ("users", "items", "options")
            else array for name, array in members.items()})
        reopened = SnapshotStore(tmp_path)
        restored = reopened.load_crowd("quiz")
        assert restored == matrix
        assert restored.num_answers == matrix.num_answers
        assert [array.dtype for array in restored.triples] == [np.int32] * 3
        assert [entry["status"] for entry in reopened.verify()] == ["ok"]
        assert reopened.corrupt == 0

    def test_awkward_names_are_slugged_without_collision(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_crowd("quiz/a b", make_matrix(seed=1))
        store.save_crowd("quiz_a_b", make_matrix(seed=2))
        first = store.load_crowd("quiz/a b")
        second = store.load_crowd("quiz_a_b")
        assert first.content_hash() != second.content_hash()
        assert set(store.crowd_names()) == {"quiz/a b", "quiz_a_b"}

    def test_crowd_names_most_recently_saved_first(self, tmp_path):
        clock = {"now": 1000.0}
        store = SnapshotStore(tmp_path, clock=lambda: clock["now"])
        for name in ("first", "second", "third"):
            clock["now"] += 1.0
            store.save_crowd(name, make_matrix())
        assert store.crowd_names() == ("third", "second", "first")

    def test_corrupt_npz_loads_as_absent(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_crowd("quiz", make_matrix())
        _crowd_npz(tmp_path, "quiz").write_bytes(b"\x00" * 64)
        assert SnapshotStore(tmp_path).load_crowd("quiz") is None

    def test_hash_mismatch_loads_as_absent(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_crowd("quiz", make_matrix(seed=1))
        # Swap in a *valid* NPZ of different data: it parses fine but
        # must fail the sidecar's recorded content hash.
        other = tmp_path / "other.npz"
        make_matrix(seed=2).save(other)
        os.replace(other, _crowd_npz(tmp_path, "quiz"))
        reopened = SnapshotStore(tmp_path)
        assert reopened.load_crowd("quiz") is None
        assert reopened.corrupt == 1

    def test_npz_is_fsynced_before_it_replaces_the_old_one(
            self, tmp_path, monkeypatch):
        """The sidecar records the NPZ's content hash, so the NPZ bytes
        must be on disk before the rename makes them the crowd: otherwise
        a power loss leaves a durable sidecar over a lost NPZ."""
        store = SnapshotStore(tmp_path)
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            return real_fsync(fd)

        def replace(src, dst, *args, **kwargs):
            events.append(("replace", os.stat(src).st_ino, Path(dst).suffix))
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store.save_crowd("quiz", make_matrix())
        (at, (_, inode, _)), = [(index, event) for index, event
                                in enumerate(events)
                                if event[0] == "replace" and event[2] == ".npz"]
        assert ("fsync", inode) in events[:at]

    def test_drop_removes_everything(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_crowd("quiz", make_matrix())
        assert store.drop_crowd("quiz") is True
        assert store.drop_crowd("quiz") is False  # idempotent
        assert store.load_crowd("quiz") is None
        assert list((tmp_path / "crowds").iterdir()) == []
        assert SnapshotStore(tmp_path).crowd_names() == ()


class TestCrowdCommitPoint:
    """A crowd's sidecar is its one record and its rename the one commit.

    A second save writes its NPZ under a name carrying the content hash,
    never over the file the current sidecar names, so a kill before the
    sidecar's rename leaves the first save loadable.
    """

    def test_interrupted_second_save_keeps_the_first(self, tmp_path,
                                                     monkeypatch):
        first = make_matrix(num_users=10, num_items=5)
        second = make_matrix(num_users=20, num_items=5, seed=1)
        SnapshotStore(tmp_path).save_crowd("A", first)
        store = SnapshotStore(tmp_path)
        real_replace = os.replace
        calls = []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:  # the sidecar's rename
                raise OSError("killed before the commit point")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="commit point"):
            store.save_crowd("A", second)
        monkeypatch.undo()

        reopened = SnapshotStore(tmp_path)
        loaded = reopened.load_crowd("A")
        assert loaded is not None and loaded.num_answers == 50
        assert loaded.content_hash() == first.content_hash()
        assert all(entry["status"] == "ok" for entry in reopened.verify())
        manager = SessionManager(store=SnapshotStore(tmp_path))
        assert manager.names() == ("A",)
        assert manager.get("A").num_answers == 50

    def test_a_completed_save_leaves_one_npz_per_sidecar(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_crowd("A", make_matrix(num_users=10, num_items=5))
        store.save_crowd("B", make_matrix(seed=3))
        second = make_matrix(num_users=20, num_items=5, seed=1)
        store.save_crowd("A", second)
        crowds = tmp_path / "crowds"
        sidecars = sorted(crowds.glob("*.json"))
        npzs = sorted(path.name for path in crowds.glob("*.npz"))
        assert len(sidecars) == 2
        assert npzs == sorted(json.loads(path.read_text())["file"]
                              for path in sidecars)
        assert _crowd_npz(tmp_path, "A").name \
            == "%s-%s.npz" % (_crowd_slug("A"), second.content_hash())
        assert store.load_crowd("A").content_hash() == second.content_hash()

    @staticmethod
    def _parent_written_crowd(tmp_path, npz_name):
        """A crowd as stores wrote it before sidecars named their digest:
        the flat digest, and no ``digest`` field."""
        matrix = make_matrix()
        crowds = tmp_path / "crowds"
        crowds.mkdir()
        matrix.save(crowds / npz_name)
        (crowds / (_crowd_slug("quiz") + ".json")).write_text(json.dumps({
            "name": "quiz", "file": npz_name,
            "content_hash": FLAT_DIGEST_OF_MAKE_MATRIX, "bytes": 1,
            "num_users": matrix.num_users,
            "num_answers": matrix.num_answers, "saved": 1.0,
        }))
        return matrix, crowds

    def test_a_store_with_fixed_npz_names_still_loads(self, tmp_path):
        """Stores written before content-hashed NPZ names keep one
        ``<slug>.npz`` per crowd; the sidecar's ``file`` field finds it,
        its flat digest verifies it, and their ``index.json`` is ignored."""
        slug = _crowd_slug("quiz")
        matrix, crowds = self._parent_written_crowd(tmp_path, slug + ".npz")
        (tmp_path / "index.json").write_text(json.dumps({
            "v": 1, "snapshots": {"k": {"bytes": 3, "used": 1.0}},
            "crowds": {"quiz": {"file": slug + ".npz", "saved": 1.0}},
        }))
        store = SnapshotStore(tmp_path)
        assert store.stats()["snapshots"] == 0
        assert store.crowd_names() == ("quiz",)
        assert store.load_crowd("quiz") == matrix
        assert all(entry["status"] == "ok" for entry in store.verify())
        assert store.drop_crowd("quiz") is True
        assert list(crowds.iterdir()) == []

    def test_a_store_with_flat_digest_npz_names_still_loads(self, tmp_path):
        """A ``<slug>-<flat digest>.npz`` crowd restores every answer and
        verifies clean; its next save records the digest it holds and
        replaces the NPZ."""
        npz_name = "%s-%s.npz" % (_crowd_slug("quiz"), FLAT_DIGEST_OF_MAKE_MATRIX)
        matrix, crowds = self._parent_written_crowd(tmp_path, npz_name)
        store = SnapshotStore(tmp_path)
        restored = store.load_crowd("quiz")
        assert restored == matrix
        assert restored.num_answers == matrix.num_answers
        assert all(entry["status"] == "ok" for entry in store.verify())
        store.save_crowd("quiz", restored)
        sidecar = json.loads((crowds / (_crowd_slug("quiz") + ".json")).read_text())
        assert sidecar["content_hash"] == matrix.content_hash()
        assert sidecar["digest"] == CONTENT_DIGEST
        assert [path.name for path in crowds.glob("*.npz")] == [sidecar["file"]]
        assert store.load_crowd("quiz") == matrix

    def test_a_sidecar_naming_an_unknown_digest_counts_as_corrupt(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_crowd("quiz", make_matrix())
        path = tmp_path / "crowds" / (_crowd_slug("quiz") + ".json")
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "digest": "some-future-digest"}))
        assert store.load_crowd("quiz") is None
        assert store.corrupt == 1


class TestReadsWriteNothing:
    def test_a_hits_recency_reaches_the_index_at_close(self, tmp_path):
        """``close()`` writes a hit's last use to its record's mtime."""
        clock = {"now": 1000.0}
        store = SnapshotStore(tmp_path, clock=lambda: clock["now"])
        store.put_snapshot(make_ranking(), content_hash="aa", fingerprint=FP)
        clock["now"] = 2000.0
        assert store.get_snapshot("aa", FP) is not None
        store.close()
        assert SnapshotStore(tmp_path).ls()["snapshots"][0]["used"] == 2000.0


class TestLeftoverNpz:
    """An NPZ an interrupted save left is removed by the crowd's next
    completed save or by its drop, and by nothing that reads."""

    def _interrupted_save(self, tmp_path, monkeypatch):
        store = SnapshotStore(tmp_path)
        store.save_crowd("A", make_matrix(num_users=10, num_items=5))
        real_replace = os.replace
        calls = []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:  # the sidecar's rename
                raise OSError("killed before the commit point")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        # A killed writer: opening the store again reaps its temp files.
        monkeypatch.setattr(os, "getpid", lambda: NO_SUCH_PID)
        with pytest.raises(OSError, match="commit point"):
            store.save_crowd("A", make_matrix(num_users=20, num_items=5, seed=1))
        monkeypatch.undo()
        crowds = tmp_path / "crowds"
        assert len(list(crowds.glob("*.npz"))) == 2
        return SnapshotStore(tmp_path), crowds

    def test_a_completed_save_leaves_one_npz_per_sidecar(self, tmp_path,
                                                         monkeypatch):
        store, crowds = self._interrupted_save(tmp_path, monkeypatch)
        assert len(list(crowds.glob("*.npz"))) == 2  # opening reaps nothing
        third = make_matrix(num_users=30, num_items=5, seed=2)
        store.save_crowd("A", third)
        assert [path.name for path in crowds.glob("*.npz")] \
            == [_crowd_npz(tmp_path, "A").name]
        assert store.load_crowd("A").content_hash() == third.content_hash()

    def test_drop_leaves_no_npz(self, tmp_path, monkeypatch):
        store, crowds = self._interrupted_save(tmp_path, monkeypatch)
        assert store.drop_crowd("A") is True
        assert list(crowds.iterdir()) == []

    def test_a_crowd_whose_name_extends_anothers_slug_keeps_its_files(
            self, tmp_path):
        store = SnapshotStore(tmp_path)
        other = _crowd_slug("A")  # its NPZs start with A's slug and a dash
        store.save_crowd(other, make_matrix(seed=3))
        store.save_crowd("A", make_matrix(num_users=10, num_items=5))
        store.save_crowd("A", make_matrix(num_users=20, num_items=5, seed=1))
        assert store.drop_crowd("A") is True
        assert store.crowd_names() == (other,)
        assert store.load_crowd(other).content_hash() \
            == make_matrix(seed=3).content_hash()
        assert len(list((tmp_path / "crowds").glob("*.npz"))) == 1


class TestEveryReadWritesNothing:
    """No read of a healthy store touches the disk: not a record, not a
    crowd file, neither at once nor through the write-behind thread."""

    @staticmethod
    def _tree(root):
        return sorted((str(path.relative_to(root)), path.stat().st_mtime_ns,
                       path.stat().st_size) for path in Path(root).rglob("*"))

    @pytest.mark.parametrize("read", [
        pytest.param(lambda store: store.get_snapshot("aa", FP), id="snapshot-hit"),
        pytest.param(lambda store: store.get_snapshot("bb", FP_OTHER),
                     id="snapshot-miss"),
        pytest.param(lambda store: store.load_crowd("quiz"), id="crowd-hit"),
        pytest.param(lambda store: store.load_crowd("absent"), id="crowd-miss"),
        pytest.param(lambda store: store.crowd_names(), id="crowd-names"),
        pytest.param(lambda store: store.ls(), id="ls"),
        pytest.param(lambda store: store.verify(), id="verify"),
        pytest.param(lambda store: store.stats(), id="stats"),
    ])
    def test_a_read_leaves_the_store_directory_as_it_was(self, tmp_path,
                                                          read):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(make_ranking(), content_hash="aa", fingerprint=FP)
        store.save_crowd("quiz", make_matrix())
        assert store.flush(timeout=10.0)
        before = self._tree(tmp_path)
        read(store)
        assert store.flush(timeout=10.0)
        assert self._tree(tmp_path) == before
        store.close()


def _files(root):
    """``{relative path: (mtime_ns, size)}`` of every file under ``root``."""
    return {str(path.relative_to(root)): (path.stat().st_mtime_ns,
                                          path.stat().st_size)
            for path in Path(root).rglob("*") if path.is_file()}


class TestDirectoryIsTheIndex:
    """The snapshot directory is the store's only index: a record's name
    is its key, its size its cost and its mtime its last use."""

    def test_opening_decodes_no_record(self, tmp_path, monkeypatch):
        snapshots = tmp_path / "snapshots"
        snapshots.mkdir()
        for seed in range(4):
            content = "h%d" % seed
            (snapshots / (snapshot_key(content, FP) + SNAPSHOT_SUFFIX)) \
                .write_bytes(encode_snapshot(make_ranking(seed=seed),
                                             content_hash=content,
                                             fingerprint=FP))
        decoded = []
        real_decode = record_format.decode_snapshot

        def counted_decode(data, **kwargs):
            decoded.append(kwargs.get("path"))
            return real_decode(data, **kwargs)

        monkeypatch.setattr(record_format, "decode_snapshot", counted_decode)
        store = SnapshotStore(tmp_path)
        assert decoded == []
        assert store.stats()["snapshots"] == 4
        assert store.stats()["bytes"] == sum(
            path.stat().st_size for path in snapshots.iterdir())

    def test_a_put_changes_one_file(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(make_ranking(seed=0), content_hash="aa",
                           fingerprint=FP)
        store.save_crowd("quiz", make_matrix())
        before = _files(tmp_path)
        store.put_snapshot(make_ranking(seed=1), content_hash="bb",
                           fingerprint=FP)
        after = _files(tmp_path)
        changed = {name for name in before.keys() | after.keys()
                   if before.get(name) != after.get(name)}
        assert changed == {"snapshots/%s%s" % (snapshot_key("bb", FP),
                                               SNAPSHOT_SUFFIX)}

    def test_no_index_file_is_ever_written(self, tmp_path):
        store = SnapshotStore(tmp_path, max_records=2)
        for seed, content in enumerate(("aa", "bb", "cc")):
            store.put_snapshot(make_ranking(seed=seed), content_hash=content,
                               fingerprint=FP)
        store.save_crowd("quiz", make_matrix())
        assert store.drop_crowd("quiz") is True
        assert store.get_snapshot("cc", FP) is not None
        (tmp_path / "snapshots" / (snapshot_key("bb", FP)
                                   + SNAPSHOT_SUFFIX)).write_bytes(b"torn")
        assert store.get_snapshot("bb", FP) is None
        assert store.gc(max_records=1)["remaining"] == 1
        store.close()
        assert (store.evictions, store.corrupt) == (1, 1)
        assert not (tmp_path / "index.json").exists()

    def test_an_index_file_from_an_older_store_is_left_alone(self, tmp_path):
        ranking = make_ranking()
        key = snapshot_key("aa", FP)
        data = encode_snapshot(ranking, content_hash="aa", fingerprint=FP,
                               created=1000.0)
        (tmp_path / "snapshots").mkdir()
        (tmp_path / "snapshots" / (key + SNAPSHOT_SUFFIX)).write_bytes(data)
        index = tmp_path / "index.json"
        index.write_text(json.dumps({"v": 1, "snapshots": {key: {
            "method": "HnD", "bytes": len(data), "created": 1000.0,
            "used": 1000.0,
        }}}, sort_keys=True, indent=1), encoding="utf-8")
        written = index.read_bytes()
        store = SnapshotStore(tmp_path)
        record = store.get_snapshot("aa", FP)
        assert record.scores.tobytes() == ranking.scores.tobytes()
        assert record.state.vectors["diff_vector"].tobytes() \
            == ranking.state.vectors["diff_vector"].tobytes()
        assert [entry["status"] for entry in store.verify()] == ["ok"]
        store.close()
        assert index.read_bytes() == written

    def test_ttl_ages_records_by_their_header_not_their_last_use(
            self, tmp_path):
        clock = {"now": 1000.0}
        store = SnapshotStore(tmp_path, clock=lambda: clock["now"])
        store.put_snapshot(make_ranking(seed=0), content_hash="old",
                           fingerprint=FP)
        clock["now"] = 2000.0
        store.put_snapshot(make_ranking(seed=1), content_hash="new",
                           fingerprint=FP)
        assert store.get_snapshot("old", FP) is not None  # last use 2000
        store.close()
        clock["now"] = 2050.0
        reopened = SnapshotStore(tmp_path, clock=lambda: clock["now"])
        removed = reopened.gc(ttl=100.0)
        assert (removed["expired"], removed["remaining"]) == (1, 1)
        assert reopened.get_snapshot("old", FP) is None
        assert reopened.get_snapshot("new", FP) is not None

    def test_a_reopened_listing_names_each_method(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.put_snapshot(make_ranking(method="HnD"), content_hash="aa",
                           fingerprint=FP)
        store.put_snapshot(make_ranking(seed=1, method="ABH"),
                           content_hash="bb", fingerprint=FP)
        (tmp_path / "snapshots" / ("junk" + SNAPSHOT_SUFFIX)).write_bytes(
            b"garbage")
        listing = SnapshotStore(tmp_path).ls()["snapshots"]
        assert {entry["key"]: entry.get("method") for entry in listing} == {
            snapshot_key("aa", FP): "HnD", snapshot_key("bb", FP): "ABH",
            "junk": None,
        }

    def test_lru_order_survives_a_clean_reopen(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for seed, content in enumerate(("aa", "bb")):
            store.put_snapshot(make_ranking(seed=seed), content_hash=content,
                               fingerprint=FP)
        assert store.get_snapshot("aa", FP) is not None  # "bb" is now LRU
        store.close()
        reopened = SnapshotStore(tmp_path, max_records=2)
        reopened.put_snapshot(make_ranking(seed=2), content_hash="cc",
                              fingerprint=FP)
        assert reopened.get_snapshot("bb", FP) is None
        assert reopened.get_snapshot("aa", FP) is not None


class TestWriteBehind:
    def test_jobs_run_in_order_and_flush_is_a_barrier(self):
        wb = WriteBehind()
        seen = []
        for i in range(20):
            assert wb.submit(lambda i=i: seen.append(i))
        assert wb.flush(timeout=10.0)
        assert seen == list(range(20))
        wb.close()

    def test_failures_are_counted_not_raised(self):
        wb = WriteBehind()
        seen = []
        wb.submit(lambda: 1 / 0)
        wb.submit(lambda: seen.append("after"))
        assert wb.flush(timeout=10.0)
        assert wb.failures == 1
        assert seen == ["after"]  # one bad job never wedges the queue
        wb.close()

    def test_submit_after_close_is_refused(self):
        wb = WriteBehind()
        wb.close()
        assert wb.submit(lambda: None) is False

    def test_flush_after_close_returns_immediately(self):
        # Regression: aclose paths can run twice (serve_forever + context
        # exit).  A flush after close must not enqueue a marker for the
        # stopped worker — that wait never returns and the process hangs.
        wb = WriteBehind()
        wb.submit(lambda: None)  # start the worker thread
        wb.close()
        start = time.monotonic()
        assert wb.flush(timeout=30.0) is True
        assert time.monotonic() - start < 5.0


# --------------------------------------------------------------------------- #
# Satellite: thread-safe content_hash memoization
# --------------------------------------------------------------------------- #
class TestContentHashMemo:
    def test_concurrent_first_calls_compute_once(self, monkeypatch):
        import hashlib as real_hashlib

        import repro.core.response as response_module

        matrix = make_matrix(num_users=50, num_items=40)
        calls = []
        original = real_hashlib.blake2b

        def counting_blake2b(*args, **kwargs):
            if kwargs.get("person") == response_module._ROOT_PERSON:
                calls.append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(response_module.hashlib, "blake2b",
                            counting_blake2b)
        barrier = threading.Barrier(8)
        results = []

        def hammer():
            barrier.wait()
            for _ in range(50):
                results.append(matrix.content_hash())

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(results)) == 1  # every caller saw the same digest
        assert len(calls) == 1  # one root digest, computed under the lock

    def test_memo_survives_and_equals_recompute(self):
        matrix = make_matrix()
        first = matrix.content_hash()
        assert matrix.content_hash() == first
        fresh = make_matrix()
        assert fresh.content_hash() == first  # pure function of the data

    def test_pickle_round_trip_recomputes(self):
        import pickle

        matrix = make_matrix()
        expected = matrix.content_hash()
        clone = pickle.loads(pickle.dumps(matrix))
        # The lock is not picklable; the clone rebuilds it and recomputes.
        assert clone.content_hash() == expected
        assert clone.content_hash() == expected


# --------------------------------------------------------------------------- #
# Crash safety: SIGKILL mid-write and mid-gc (deterministic, via an
# injected kill inside os.replace or Path.unlink)
# --------------------------------------------------------------------------- #
_CRASH_SCRIPT = r"""
import itertools, os, pathlib, signal, sys
sys.path.insert(0, %(src)r)
import numpy as np
from repro.core.ranking import AbilityRanking
from repro.core.solver_state import SolverState
from repro.store import SnapshotStore

kill_at = int(sys.argv[1])
mode = sys.argv[2]
root = sys.argv[3]

calls = {"n": 0}

def killing(original):
    def call(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)
    return call

def make_ranking(seed):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(64)
    state = SolverState(method="HnD",
                        vectors={"diff_vector": rng.standard_normal(64)},
                        iterations=5, residual=1e-9)
    return AbilityRanking(scores=scores, method="HnD",
                          diagnostics={"iterations": 5}, state=state)

FP = ("mod", "Ranker", (("random_state", ("int", 7)),))
# A counting clock: each put is used later than the one before it.
store = SnapshotStore(root, clock=itertools.count(1).__next__)
store.put_snapshot(make_ranking(0), content_hash="survivor", fingerprint=FP)

if mode == "write":
    os.replace = killing(os.replace)
    store.put_snapshot(make_ranking(1), content_hash="interrupted",
                       fingerprint=FP)
elif mode == "gc":
    store.put_snapshot(make_ranking(1), content_hash="second", fingerprint=FP)
    # max_records=0 evicts (unlinks) every record, least recently used
    # first.  The store deletes through Path.unlink, which on Python 3.10
    # does not call a patched os.unlink, so the kill is injected there.
    pathlib.Path.unlink = killing(pathlib.Path.unlink)
    store.gc(max_records=0)
print("NOT KILLED")  # reaching here means kill_at was past the call count
"""


def _run_crash_child(tmp_path, kill_at, mode):
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _CRASH_SCRIPT % {"src": src},
         str(kill_at), mode, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -9, (
        "child was supposed to SIGKILL itself (kill_at=%d mode=%s): "
        "rc=%s stdout=%r stderr=%r"
        % (kill_at, mode, proc.returncode, proc.stdout, proc.stderr)
    )


class TestCrashSafety:
    @pytest.mark.parametrize("kill_at", [1])
    def test_sigkill_mid_snapshot_write(self, tmp_path, kill_at):
        """Killed during the record rename, a put's one rename.

        The reopened store loads clean: the survivor record is intact,
        the interrupted record is absent or whole (never torn), and no
        temp files remain after the open.
        """
        _run_crash_child(tmp_path, kill_at, "write")
        store = SnapshotStore(tmp_path)
        FP = ("mod", "Ranker", (("random_state", ("int", 7)),))
        assert store.get_snapshot("survivor", FP) is not None
        interrupted = store.get_snapshot("interrupted", FP)
        if interrupted is not None:  # landed whole before the kill
            assert interrupted.scores.shape == (64,)
        assert list(tmp_path.rglob(".tmp-*")) == []
        assert all(entry["status"] == "ok" for entry in store.verify())
        assert store.corrupt == 0

    def test_sigkill_mid_gc(self, tmp_path):
        """Killed at gc's second unlink, after it removed one of two records.

        The reopened store verifies clean and holds no temp file; the
        least recently used record is gone and the other is whole.
        """
        _run_crash_child(tmp_path, 2, "gc")
        store = SnapshotStore(tmp_path)
        FP = ("mod", "Ranker", (("random_state", ("int", 7)),))
        assert all(entry["status"] == "ok" for entry in store.verify())
        assert list(tmp_path.rglob(".tmp-*")) == []
        assert len(store.ls()["snapshots"]) == 1
        assert store.get_snapshot("survivor", FP) is None
        second = store.get_snapshot("second", FP)
        assert second is not None
        np.testing.assert_array_equal(
            second.scores, np.random.default_rng(1).standard_normal(64))
        assert store.corrupt == 0
        store.put_snapshot(make_ranking(), content_hash="fresh",
                           fingerprint=FP)
        assert store.get_snapshot("fresh", FP) is not None
