"""End-to-end tests for the durable tier wired through the stack (PR 9).

The two PR contracts, pinned where the layers meet:

* **bit identity** — a snapshot hit (through :class:`RankCache`, a
  restored :class:`CrowdSession`, or a restarted server) returns the
  exact scores the original solve produced; a post-restart warm start
  converges through the same PR 5 machinery as an in-process one.
* **no failure mode hangs or poisons results** — corrupting every file
  in a store never makes ``rank()`` raise or return wrong scores; it
  falls back to a cold solve with the corruption counted.
"""

from __future__ import annotations

import asyncio
import gc
import threading
import weakref

import numpy as np
import pytest

from repro.api import CrowdSession, SessionManager, rank
from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseMatrix
from repro.engine import RankCache, ranker_fingerprint
from repro.exceptions import CrowdExistsError, UnknownCrowdError
from repro.store import SnapshotStore, fingerprint_digest


def make_matrix(num_users=30, num_items=20, num_options=3, seed=0):
    rng = np.random.default_rng(seed)
    users = np.repeat(np.arange(num_users), num_items)
    items = np.tile(np.arange(num_items), num_users)
    options = rng.integers(0, num_options, size=users.size)
    return ResponseMatrix.from_triples(
        users, items, options, shape=(num_users, num_items),
        num_options=num_options,
    )


def fill_session(session, num_users=30, num_items=20, num_options=3, seed=0):
    rng = np.random.default_rng(seed)
    users = np.repeat(np.arange(num_users), num_items)
    items = np.tile(np.arange(num_items), num_users)
    session.add_answers(users, items,
                        rng.integers(0, num_options, size=users.size))


# --------------------------------------------------------------------------- #
# RankCache + store
# --------------------------------------------------------------------------- #
#: The disk-key digest of ``HNDPower(random_state=0)``'s fingerprint.  A
#: change here re-keys every stored snapshot, so each one silently becomes a
#: cold solve: a fingerprint change must be deliberate, never a side effect.
HND_SEED0_DIGEST = "d6b8a029bfc9104e07398c978a88c1b9"


class TestPinnedSnapshotKey:
    def test_ranker_fingerprint_digest(self):
        digest = fingerprint_digest(ranker_fingerprint(HNDPower(random_state=0)))
        assert digest == HND_SEED0_DIGEST

    def test_rank_stores_under_the_pinned_digest(self, tmp_path):
        matrix = make_matrix()
        store = SnapshotStore(tmp_path)
        rank(matrix, "HnD", random_state=0, cache=RankCache(store=store))
        store.close()
        keys = [entry["key"] for entry in store.ls()["snapshots"]]
        assert keys == ["%s-%s" % (matrix.content_hash(), HND_SEED0_DIGEST)]


class TestRankCacheDiskTier:
    def test_disk_hit_is_bit_identical_and_promoted(self, tmp_path):
        matrix = make_matrix()
        store = SnapshotStore(tmp_path)
        warm = RankCache(store=store)
        original = warm.rank(HNDPower(random_state=0), matrix)
        store.flush()
        assert store.stats()["snapshots"] == 1

        # A fresh cache over the same directory — the restart scenario.
        cold = RankCache(store=SnapshotStore(tmp_path))
        replayed = cold.rank(HNDPower(random_state=0), matrix)
        assert replayed.scores.tobytes() == original.scores.tobytes()
        assert replayed.diagnostics["snapshot_hit"] is True
        stats = cold.stats()
        assert stats["disk_hits"] == 1 and stats["misses"] == 1
        # Promoted into the memory LRU: the next call is a memory hit.
        again = cold.rank(HNDPower(random_state=0), matrix)
        assert again is replayed
        assert cold.stats()["hits"] == 1

    def test_write_behind_lands_after_flush(self, tmp_path):
        store = SnapshotStore(tmp_path)
        cache = RankCache(store=store)
        cache.rank(HNDPower(random_state=0), make_matrix())
        store.flush()
        assert store.stats()["writes"] == 1
        assert store.stats()["write_failures"] == 0

    def test_nondeterministic_rankers_bypass_the_disk_tier(self, tmp_path):
        store = SnapshotStore(tmp_path)
        cache = RankCache(store=store)
        cache.rank(HNDPower(random_state=None), make_matrix())
        store.flush()
        assert cache.stats()["bypasses"] == 1
        assert store.stats()["snapshots"] == 0

    def test_latest_state_falls_through_to_disk(self, tmp_path):
        matrix = make_matrix()
        store = SnapshotStore(tmp_path)
        warm = RankCache(store=store)
        warm.rank(HNDPower(random_state=0), matrix)
        store.flush()

        fingerprint = ranker_fingerprint(HNDPower(random_state=0))
        cold = RankCache(store=SnapshotStore(tmp_path))
        state = cold.latest_state(matrix.content_hash(), fingerprint)
        assert state is not None and state.method == "HnD"
        # Another crowd's hash names another key: its lookup misses, even
        # though a state under the same fingerprint is on disk.
        other = make_matrix(seed=1)
        assert other.content_hash() != matrix.content_hash()
        assert cold.latest_state(other.content_hash(), fingerprint) is None

    def test_corrupting_every_file_never_breaks_rank(self, tmp_path):
        matrix = make_matrix()
        store = SnapshotStore(tmp_path)
        RankCache(store=store).rank(HNDPower(random_state=0), matrix)
        store.flush()
        for path in tmp_path.rglob("*"):
            if path.is_file():
                path.write_bytes(b"\xff" * 32)

        reopened = SnapshotStore(tmp_path)
        cache = RankCache(store=reopened)
        ranking = cache.rank(HNDPower(random_state=0), matrix)  # must not raise
        expected = HNDPower(random_state=0).rank(matrix)
        assert ranking.scores.tobytes() == expected.scores.tobytes()
        assert "snapshot_hit" not in ranking.diagnostics  # fell back cold

    def test_clear_leaves_the_disk_tier(self, tmp_path):
        matrix = make_matrix()
        store = SnapshotStore(tmp_path)
        cache = RankCache(store=store)
        cache.rank(HNDPower(random_state=0), matrix)
        store.flush()
        cache.clear()
        assert cache.rank(HNDPower(random_state=0),
                          matrix).diagnostics["snapshot_hit"] is True


# --------------------------------------------------------------------------- #
# CrowdSession + store
# --------------------------------------------------------------------------- #
class TestSessionPersistence:
    def test_rank_persists_crowd_and_restore_round_trips(self, tmp_path):
        store = SnapshotStore(tmp_path)
        session = CrowdSession(num_items=20, num_options=3, store=store,
                               name="quiz")
        fill_session(session)
        original = session.rank("HnD", random_state=7)
        store.flush()
        assert store.crowd_names() == ("quiz",)

        restored = CrowdSession.restore(SnapshotStore(tmp_path), "quiz")
        assert restored is not None
        assert restored.num_answers == session.num_answers
        replayed = restored.rank("HnD", random_state=7)
        assert replayed.scores.tobytes() == original.scores.tobytes()
        assert replayed.diagnostics["snapshot_hit"] is True

    def test_restore_seeds_warm_start_lineage(self, tmp_path):
        store = SnapshotStore(tmp_path)
        session = CrowdSession(num_items=20, num_options=3, store=store,
                               name="quiz")
        fill_session(session)
        session.rank("HnD", random_state=7)
        store.flush()

        restored = CrowdSession.restore(SnapshotStore(tmp_path), "quiz")
        restored.add_answers([90, 91], [0, 0], [1, 2])
        ranking = restored.rank("HnD", warm_start=True, random_state=7)
        # The disk state seeds the PR 5 warm path across the restart.
        assert ranking.diagnostics["warm_start"] == "warm"

    def test_restore_of_absent_or_corrupt_crowd_is_none(self, tmp_path):
        store = SnapshotStore(tmp_path)
        assert CrowdSession.restore(store, "nothing") is None
        store.save_crowd("quiz", make_matrix())
        for path in (tmp_path / "crowds").glob("*.npz"):
            path.write_bytes(b"torn")
        assert CrowdSession.restore(SnapshotStore(tmp_path), "quiz") is None

    def test_unchanged_crowd_is_saved_once(self, tmp_path):
        store = SnapshotStore(tmp_path)
        session = CrowdSession(num_items=20, num_options=3, store=store,
                               name="quiz")
        fill_session(session)
        session.rank("HnD", random_state=7)
        session.rank("HnD", random_state=7)
        session.rank("MajorityVote")
        store.flush()
        assert store.stats()["crowd_saves"] == 1  # hash-gated write-behind

    def test_queued_saves_of_a_changing_crowd_coalesce_to_the_last(self, tmp_path):
        """With the write-behind held, ten ranks of a crowd that changes
        between them queue one save, which writes the last state; the
        nine earlier states are only handed to it."""
        store = SnapshotStore(tmp_path)
        session = CrowdSession(num_items=20, num_options=3, store=store,
                               name="quiz")
        fill_session(session)
        release = threading.Event()
        store.defer(release.wait)
        landed = []
        save_crowd = store.save_crowd
        store.save_crowd = lambda name, matrix: (
            landed.append((name, matrix.content_hash())),
            save_crowd(name, matrix))
        for step in range(10):
            session.add_answers([30 + step], [step], [step % 3])
            session.rank("HnD", random_state=7)
        last = session.matrix
        release.set()
        assert store.flush(timeout=30)
        stats = store.stats()
        assert stats["crowd_saves"] == 1
        assert stats["crowd_saves_superseded"] == 9
        assert stats["writes"] == 10
        assert landed == [("quiz", last.content_hash())]
        assert SnapshotStore(tmp_path).load_crowd("quiz") == last

    def test_a_crowd_that_changes_before_every_save_runs_is_still_saved(
            self, tmp_path):
        """Each rank arrives while the write-behind writes the previous
        rank's snapshot, so a newer state is waiting whenever the crowd's
        save reaches the front.  The queued save writes that newest state
        rather than giving way to it, so saves keep landing while the
        ranks keep coming."""
        store = SnapshotStore(tmp_path)
        states = [make_matrix(num_users=30 + step) for step in range(10)]
        landed = []
        save_crowd = store.save_crowd
        store.save_crowd = lambda name, matrix: (
            landed.append(matrix.num_users), save_crowd(name, matrix))
        arrivals = iter(states[1:])
        done = threading.Event()

        def put_snapshot():  # the next rank arrives meanwhile
            state = next(arrivals, None)
            if state is None:
                done.set()
                return
            store.defer(put_snapshot)
            store.defer_crowd_save("quiz", state)

        store.defer(put_snapshot)
        store.defer_crowd_save("quiz", states[0])
        assert done.wait(timeout=30) and store.flush(timeout=30)
        assert landed == [31, 33, 35, 37, 39]
        assert store.stats()["crowd_saves_superseded"] == 5
        assert SnapshotStore(tmp_path).load_crowd("quiz") == states[-1]

    def test_a_save_deferred_after_close_keeps_nothing(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.close()
        matrix = make_matrix()
        kept = weakref.ref(matrix)
        assert store.defer_crowd_save("quiz", matrix) is False
        del matrix
        gc.collect()
        assert kept() is None
        assert store.crowd_names() == ()


# --------------------------------------------------------------------------- #
# SessionManager + store
# --------------------------------------------------------------------------- #
class TestManagerPersistence:
    def test_restart_re_registers_crowds(self, tmp_path):
        store = SnapshotStore(tmp_path)
        manager = SessionManager(store=store)
        fill_session(manager.create("quiz", num_items=20, num_options=3))
        manager.get("quiz").rank("HnD", random_state=7)
        store.flush()

        restarted = SessionManager(store=SnapshotStore(tmp_path))
        assert restarted.names() == ("quiz",)
        assert restarted.stats()["restored"] == 1
        assert restarted.get("quiz").num_answers == 600

    def test_evicted_crowd_restores_transparently_on_get(self, tmp_path):
        store = SnapshotStore(tmp_path)
        manager = SessionManager(max_sessions=1, store=store)
        fill_session(manager.create("quiz", num_items=20, num_options=3))
        manager.get("quiz").rank("HnD", random_state=7)
        store.flush()
        manager.create("other", num_items=5, num_options=3)  # evicts quiz
        assert manager.names() == ("other",)

        session = manager.get("quiz")  # restored, not UnknownCrowdError
        assert session.num_answers == 600
        assert manager.stats()["restored"] == 1

    def test_create_over_persisted_crowd_behaves_like_resident(self, tmp_path):
        store = SnapshotStore(tmp_path)
        manager = SessionManager(max_sessions=1, store=store)
        fill_session(manager.create("quiz", num_items=20, num_options=3))
        manager.get("quiz").rank("HnD", random_state=7)
        store.flush()
        manager.create("other", num_items=5, num_options=3)  # evicts quiz

        # exist_ok returns the restored crowd with its data intact...
        session = manager.create("quiz", exist_ok=True, num_items=20,
                                 num_options=3)
        assert session.num_answers == 600
        # ...and without exist_ok a persisted name is taken, never
        # silently shadowed by an empty crowd.
        manager.create("other2", num_items=5, num_options=3)  # evict again
        with pytest.raises(CrowdExistsError):
            manager.create("quiz", num_items=20, num_options=3)

    def test_drop_removes_durable_state(self, tmp_path):
        store = SnapshotStore(tmp_path)
        manager = SessionManager(store=store)
        fill_session(manager.create("quiz", num_items=20, num_options=3))
        manager.get("quiz").rank("HnD", random_state=7)
        assert manager.drop("quiz") is True
        assert store.crowd_names() == ()
        with pytest.raises(UnknownCrowdError):
            manager.get("quiz")
        # Re-creating starts empty: drop-and-recreate is the recovery
        # path for a poisoned crowd and must not resurrect the answers.
        assert manager.create("quiz", num_items=20,
                              num_options=3).num_answers == 0

    def test_without_store_nothing_changes(self, tmp_path):
        manager = SessionManager(max_sessions=1)
        fill_session(manager.create("quiz", num_items=20, num_options=3))
        manager.create("other", num_items=5, num_options=3)
        with pytest.raises(UnknownCrowdError):
            manager.get("quiz")


class TestDropDuringRank:
    def test_a_rank_in_flight_does_not_resurrect_a_dropped_crowd(
            self, tmp_path, monkeypatch):
        """A drop that lands while a rank solves removes the crowd for
        good: the rank, finishing after the drop, queues no save."""
        from repro.truth_discovery.majority import MajorityVoteRanker

        started, release = threading.Event(), threading.Event()
        real_rank = MajorityVoteRanker.rank

        def gated_rank(self, response):
            started.set()
            assert release.wait(10.0)
            return real_rank(self, response)

        monkeypatch.setattr(MajorityVoteRanker, "rank", gated_rank)
        store = SnapshotStore(tmp_path)
        manager = SessionManager(store=store)
        fill_session(manager.create("quiz", num_items=20, num_options=3))
        ranker = threading.Thread(
            target=lambda: manager.get("quiz").rank("MajorityVote"))
        ranker.start()
        try:
            assert started.wait(10.0)
            assert manager.drop("quiz") is True
        finally:
            release.set()
            ranker.join(10.0)
        store.flush()
        assert list((tmp_path / "crowds").iterdir()) == []
        assert SessionManager(store=SnapshotStore(tmp_path)).names() == ()


# --------------------------------------------------------------------------- #
# CLI wiring
# --------------------------------------------------------------------------- #
class TestStoreCli:
    @pytest.fixture
    def saved_matrix(self, tmp_path):
        path = tmp_path / "matrix.npz"
        make_matrix(num_users=40, num_items=12).save(path)
        return path

    def test_rank_store_round_trip(self, saved_matrix, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        argv = ["rank", str(saved_matrix), "--method", "HnD",
                "--random-state", "7", "--repeat", "1", "--store", store_dir]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "computed" in first and "store stats" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "snapshot hit" in second

    def test_store_subcommands(self, saved_matrix, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        main(["rank", str(saved_matrix), "--method", "HnD",
              "--random-state", "7", "--repeat", "1", "--store", store_dir])
        capsys.readouterr()

        assert main(["store", "ls", store_dir]) == 0
        assert "HnD" in capsys.readouterr().out
        assert main(["store", "stats", store_dir]) == 0
        assert "snapshots" in capsys.readouterr().out
        assert main(["store", "verify", store_dir]) == 0
        assert "0 corrupt" in capsys.readouterr().out
        assert main(["store", "gc", store_dir, "--ttl", "0.00001"]) == 0
        assert "expired 1" in capsys.readouterr().out

    def test_store_verify_exits_nonzero_on_corruption(self, saved_matrix,
                                                      tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "store"
        main(["rank", str(saved_matrix), "--method", "HnD",
              "--random-state", "7", "--repeat", "1", "--store",
              str(store_dir)])
        capsys.readouterr()
        for path in (store_dir / "snapshots").glob("*.snap"):
            path.write_bytes(b"flipped")
        assert main(["store", "verify", str(store_dir)]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_store_maintenance_never_evicts_by_policy(self, saved_matrix,
                                                      tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        main(["rank", str(saved_matrix), "--method", "HnD",
              "--random-state", "7", "--repeat", "1", "--store", store_dir])
        capsys.readouterr()
        # ls/stats/verify open the store unbounded: maintenance reads
        # must never themselves evict records.
        assert main(["store", "ls", store_dir]) == 0
        assert main(["store", "stats", store_dir]) == 0
        out = capsys.readouterr().out
        assert SnapshotStore(store_dir).stats()["snapshots"] == 1


# --------------------------------------------------------------------------- #
# Server restart warm (in-process)
# --------------------------------------------------------------------------- #
class _ServerHandle:
    def __init__(self, store_dir):
        from repro.serve import CrowdServer, ServeConfig

        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.server = CrowdServer(config=ServeConfig(
            port=0, store_dir=str(store_dir)))
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop).result(timeout=30)

    def client(self):
        from repro.serve import ServeClient

        return ServeClient(self.server.host, self.server.port, timeout=30.0)

    def close(self):
        asyncio.run_coroutine_threadsafe(
            self.server.aclose(), self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


class TestServerRestartWarm:
    def test_restarted_server_serves_first_rank_from_snapshot(self, tmp_path):
        store_dir = tmp_path / "store"
        first = _ServerHandle(store_dir)
        try:
            with first.client() as client:
                client.create("quiz", num_items=20, num_options=3)
                users = np.repeat(np.arange(30), 20)
                items = np.tile(np.arange(20), 30)
                options = np.random.default_rng(0).integers(0, 3, users.size)
                client.add_answers("quiz", users, items, options)
                original = client.rank("quiz", "HnD", random_state=7)
                assert "snapshot_hit" not in original.meta
        finally:
            first.close()  # graceful close drains the write-behind queue

        second = _ServerHandle(store_dir)
        try:
            with second.client() as client:
                crowds = client.list()  # re-registered on boot
                assert [entry["name"] for entry in crowds] == ["quiz"]
                assert crowds[0]["num_answers"] == 600
                replayed = client.rank("quiz", "HnD", random_state=7)
                assert replayed.meta.get("snapshot_hit") is True
                np.testing.assert_array_equal(replayed.scores,
                                              original.scores)
                stats = client.server_stats()
                assert stats["cache"]["disk_hits"] == 1
                assert stats["sessions"]["restored"] == 1
                assert stats["store"]["snapshots"] >= 1
        finally:
            second.close()

    def test_restarted_server_appends_then_warm_starts(self, tmp_path):
        store_dir = tmp_path / "store"
        first = _ServerHandle(store_dir)
        try:
            with first.client() as client:
                client.create("quiz", num_items=20, num_options=3)
                users = np.repeat(np.arange(30), 20)
                items = np.tile(np.arange(20), 30)
                options = np.random.default_rng(0).integers(0, 3, users.size)
                client.add_answers("quiz", users, items, options)
                client.rank("quiz", "HnD", random_state=7)
        finally:
            first.close()

        second = _ServerHandle(store_dir)
        try:
            with second.client() as client:
                client.add_answers("quiz", [90, 91], [0, 0], [1, 2])
                ranking = client.rank("quiz", "HnD", random_state=7,
                                      warm_start=True)
                # The pre-restart solver state seeds this solve.
                assert ranking.meta.get("warm_start") == "warm"
        finally:
            second.close()

    def test_cli_serve_store_shuts_down_cleanly_after_ranking(self, tmp_path):
        """Regression: the CLI's serve loop runs ``aclose()`` twice
        (``serve_forever`` + its own ``finally``).  Once a rank had started
        the write-behind worker, the second ``store.flush()`` used to
        enqueue a barrier marker for the already-stopped worker and wait on
        it forever — the process never exited after the shutdown op."""
        import re
        import subprocess
        import sys

        from repro.serve import ServeClient

        with subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--store", str(tmp_path / "store")],
            stdout=subprocess.PIPE, text=True,
        ) as proc:  # closes the stdout pipe
            try:
                line = proc.stdout.readline().strip()
                match = re.match(r"READY host=(\S+) port=(\d+)$", line)
                assert match, "expected a READY line, got %r" % line
                with ServeClient(match.group(1), int(match.group(2))) as client:
                    client.create("quiz", num_items=10, num_options=3)
                    users = np.repeat(np.arange(20), 10)
                    items = np.tile(np.arange(10), 20)
                    options = np.random.default_rng(0).integers(0, 3, users.size)
                    client.add_answers("quiz", users, items, options)
                    client.rank("quiz", "HnD", random_state=7)
                    client.shutdown()
                assert proc.wait(timeout=30) == 0
            finally:
                if proc.poll() is None:  # pragma: no cover - failure path
                    proc.kill()
