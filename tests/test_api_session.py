"""Tests for :class:`repro.api.session.CrowdSession` (PR 4).

The acceptance pins: a session that ingests the same answers in arbitrary
chunk splits materializes a matrix equal (and hash-equal) to a one-shot
``from_triples`` build; a no-op ``add_answers`` still serves warm cache
hits; a real append changes the content hash and forces a recompute.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CrowdSession
from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseMatrix
from repro.engine import RankCache
from repro.exceptions import InvalidResponseMatrixError


def _random_triples(num_users, num_items, num_options, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((num_users, num_items)) < density
    if not mask.any():
        mask[0, 0] = True
    users, items = np.nonzero(mask)
    options = rng.integers(0, num_options, size=users.size)
    return users.astype(np.int64), items.astype(np.int64), options.astype(np.int64)


@pytest.fixture
def triples():
    return _random_triples(50, 20, 3, 0.4, seed=7)


@pytest.fixture
def one_shot(triples):
    users, items, options = triples
    return ResponseMatrix.from_triples(
        users, items, options, shape=(50, 20), num_options=3
    )


class TestIngestion:
    def test_chunked_build_equals_one_shot(self, triples, one_shot):
        users, items, options = triples
        session = CrowdSession(num_items=20, num_options=3, num_users=50)
        for start in range(0, users.size, 17):
            session.add_answers(
                users[start:start + 17],
                items[start:start + 17],
                options[start:start + 17],
            )
        assert session.matrix == one_shot
        assert session.content_hash() == one_shot.content_hash()
        assert session.num_answers == users.size

    def test_triples_array_form(self, triples, one_shot):
        users, items, options = triples
        stacked = CrowdSession(num_items=20, num_options=3, num_users=50)
        stacked.add_answers(np.column_stack([users, items, options]))
        assert stacked.content_hash() == one_shot.content_hash()

    def test_bare_tuple_is_rejected_as_ambiguous(self, triples):
        # A 3-tuple of 3-length arrays cannot be told apart from three
        # answer rows; guessing would silently transpose the batch.
        users, items, options = triples
        session = CrowdSession(num_items=20, num_options=3)
        with pytest.raises(InvalidResponseMatrixError, match="ambiguous"):
            session.add_answers((users, items, options))

    def test_malformed_batch_rejected(self):
        session = CrowdSession()
        with pytest.raises(InvalidResponseMatrixError, match="triples"):
            session.add_answers(np.zeros((4, 2)))

    def test_one_dimensional_empty_batch_is_a_noop(self):
        session = CrowdSession(num_items=4, num_options=3)
        session.add_answers([0], [0], [1])
        session.add_answers([])
        session.add_answers(np.array([]))
        session.add_answers(np.empty((0, 3), dtype=np.int64))
        assert session.num_answers == 1

    def test_replayed_batch_is_idempotent(self, triples, one_shot):
        """Re-ingesting identical answers collapses to the same matrix."""
        users, items, options = triples
        session = CrowdSession(num_items=20, num_options=3, num_users=50)
        session.add_answers(users, items, options)
        first = session.rank("MajorityVote")
        session.add_answers(users[:10], items[:10], options[:10])  # replay
        assert session.content_hash() == one_shot.content_hash()
        assert session.rank("MajorityVote") is first  # warm hit survives

    def test_conflicting_repeat_raises_and_state_survives(self, triples):
        users, items, options = triples
        session = CrowdSession(num_items=20, num_options=3, num_users=50)
        session.add_answers(users, items, options)
        conflicting = (options[0] + 1) % 3
        session.add_answers([users[0]], [items[0]], [conflicting])
        with pytest.raises(InvalidResponseMatrixError, match="more than once"):
            session.matrix
        # The ingested state is still there; the error is reproducible,
        # not a corrupted session.
        assert session.num_answers == users.size + 1
        with pytest.raises(InvalidResponseMatrixError, match="more than once"):
            session.matrix

    def test_add_user_returns_row_and_invalidates(self, triples):
        users, items, options = triples
        session = CrowdSession(num_items=20, num_options=3)
        session.add_answers(users, items, options)
        before = session.matrix
        new_user = session.add_user([0, 1], [2, 0])
        assert new_user == int(users.max()) + 1
        assert session.matrix.num_users == new_user + 1
        assert session.matrix is not before

    def test_from_matrix_round_trip(self, one_shot):
        session = CrowdSession.from_matrix(one_shot)
        assert session.matrix == one_shot
        assert session.content_hash() == one_shot.content_hash()

    def test_empty_session_has_no_matrix(self):
        with pytest.raises(InvalidResponseMatrixError, match="no answers"):
            CrowdSession().matrix

    @given(
        num_users=st.integers(min_value=1, max_value=25),
        num_items=st.integers(min_value=1, max_value=8),
        chunk=st.integers(min_value=1, max_value=40),
        density=st.floats(min_value=0.2, max_value=1.0),
        seed=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_chunk_splits_equal_one_shot(
        self, num_users, num_items, chunk, density, seed
    ):
        """add_answers in any chunking == from_triples (equal and hash-equal)."""
        users, items, options = _random_triples(
            num_users, num_items, 3, density, seed
        )
        reference = ResponseMatrix.from_triples(
            users, items, options,
            shape=(num_users, num_items), num_options=3,
        )
        session = CrowdSession(
            num_items=num_items, num_options=3, num_users=num_users
        )
        for start in range(0, users.size, chunk):
            session.add_answers(
                users[start:start + chunk],
                items[start:start + chunk],
                options[start:start + chunk],
            )
        assert session.matrix == reference
        assert hash(session.matrix) == hash(reference)
        assert session.content_hash() == reference.content_hash()


class TestServing:
    def test_warm_hit_and_staleness(self, triples, one_shot):
        """The acceptance pin: no-op append -> warm hit; real append -> stale."""
        users, items, options = triples
        session = CrowdSession(num_items=20, num_options=3, num_users=51)
        session.add_answers(users, items, options)

        first = session.rank("HnD", random_state=0)
        assert session.stats()["cache_misses"] == 1
        again = session.rank("HnD", random_state=0)
        assert again is first
        assert session.stats()["cache_hits"] == 1

        # A no-op append leaves the content hash unchanged: still warm.
        session.add_answers([], [], [])
        assert session.rank("HnD", random_state=0) is first
        assert session.stats()["cache_hits"] == 2

        # A real append changes the hash: the stale entry is not served.
        old_hash = session.content_hash()
        session.add_answers([50], [0], [1])
        assert session.content_hash() != old_hash
        recomputed = session.rank("HnD", random_state=0)
        assert recomputed is not first
        assert session.stats()["cache_misses"] == 2
        direct = HNDPower(random_state=0).rank(session.matrix)
        assert np.array_equal(recomputed.scores, direct.scores)

    def test_rank_matches_direct_ranker(self, triples, one_shot):
        users, items, options = triples
        session = CrowdSession(num_items=20, num_options=3, num_users=50)
        session.add_answers(users, items, options)
        ranking = session.rank("HnD", random_state=0)
        direct = HNDPower(random_state=0).rank(one_shot)
        assert np.array_equal(ranking.scores, direct.scores)

    def test_top_k(self, triples):
        users, items, options = triples
        session = CrowdSession(num_items=20, num_options=3, num_users=50)
        session.add_answers(users, items, options)
        top = session.top_k(5, "MajorityVote")
        ranking = session.rank("MajorityVote")
        np.testing.assert_array_equal(top, ranking.top_users(5))

    def test_injected_cache_and_capacity(self, triples):
        users, items, options = triples
        shared = RankCache(maxsize=4)
        session = CrowdSession(num_items=20, num_options=3, cache=shared)
        session.add_answers(users, items, options)
        session.rank("MajorityVote")
        assert shared.stats()["misses"] == 1
        sized = CrowdSession(cache=2)
        assert sized.cache.maxsize == 2

    def test_stats_counters(self, triples):
        users, items, options = triples
        session = CrowdSession(num_items=20, num_options=3)
        session.add_answers(users, items, options)
        info = session.stats()
        assert info["num_answers"] == users.size
        assert info["materialized"] is False
        session.matrix
        assert session.stats()["materialized"] is True


class TestConcurrencyContract:
    """PR 8: the session's coarse-lock contract under real thread pressure.

    Appends and ranks race from many threads; the contract says every
    operation serializes, appends are never lost or half-applied, and the
    final state equals the same ingestion done sequentially.
    """

    def test_concurrent_appends_and_ranks_lose_nothing(self):
        import threading

        num_users, num_items, num_options = 24, 18, 3
        users, items = np.divmod(np.arange(num_users * num_items), num_items)
        options = np.random.default_rng(3).integers(0, num_options,
                                                    users.size)
        session = CrowdSession(num_items=num_items, num_options=num_options)
        num_writers = 6
        chunks = np.array_split(np.arange(users.size), num_writers)
        errors = []
        barrier = threading.Barrier(num_writers + 2)

        def writer(chunk):
            barrier.wait()
            try:
                # Many small appends widen the race window on the lazy
                # matrix invalidation.
                for start in range(0, chunk.size, 7):
                    index = chunk[start:start + 7]
                    session.add_answers(users[index], items[index],
                                        options[index])
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def reader():
            barrier.wait()
            try:
                for _ in range(15):
                    try:
                        ranking = session.rank("MajorityVote")
                    except InvalidResponseMatrixError:
                        # Raced ahead of the very first append: an empty
                        # crowd is a validation error, not a race.
                        continue
                    # A half-applied append would materialize a matrix
                    # inconsistent with itself; any successful rank must
                    # cover a plausible prefix of the user population.
                    assert 0 < ranking.scores.size <= num_users
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(chunk,))
                   for chunk in chunks]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert session.num_answers == users.size
        expected = ResponseMatrix.from_triples(
            users, items, options, shape=(num_users, num_items),
            num_options=num_options,
        )
        assert session.matrix == expected
        assert session.content_hash() == expected.content_hash()

    def test_lock_free_stats_during_a_held_lock(self):
        """stats()/size reads answer while another thread holds the lock."""
        import threading

        session = CrowdSession(num_items=4, num_options=2)
        session.add_answers([0, 1], [0, 1], [1, 0])
        entered = threading.Event()
        release = threading.Event()

        def hold_lock():
            with session._state_lock:
                entered.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold_lock)
        holder.start()
        try:
            assert entered.wait(timeout=10)
            # These must NOT block on the held lock (the serving front
            # end reads them from the event loop during solves).
            done = []

            def probe():
                stats = session.stats()
                done.append((session.num_answers, session.num_users, stats))

            prober = threading.Thread(target=probe)
            prober.start()
            prober.join(timeout=5)
            assert not prober.is_alive(), "stats probe blocked on the lock"
            (num_answers, num_users, stats), = done
            assert num_answers == 2
            assert num_users == 2
            assert stats["num_answers"] == 2
        finally:
            release.set()
            holder.join(timeout=10)
