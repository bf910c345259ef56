"""Tests for :class:`repro.api.session.CrowdSession` (PR 4).

The acceptance pins: a session that ingests the same answers in arbitrary
chunk splits materializes a matrix equal (and hash-equal) to a one-shot
``from_triples`` build; a no-op ``add_answers`` still serves warm cache
hits; a real append changes the content hash and forces a recompute.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CrowdSession
from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseBuilder, ResponseMatrix
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

    def test_from_matrix_installs_the_matrix_as_is(self, one_shot):
        """No copy and no re-sort: the first read returns the given matrix,
        and later appends merge into it."""
        session = CrowdSession.from_matrix(one_shot)
        info = session.stats()
        assert (info["pending_answers"], info["epoch"]) == (0, 1)
        assert info["materialized"] is True
        assert session.num_answers == one_shot.num_answers
        assert session.matrix is one_shot
        users, items, options = one_shot.triples
        answered = set(zip(users.tolist(), items.tolist()))
        item = next(i for i in range(20) if (49, i) not in answered)
        session.add_answers([49], [item], [2])
        expected = ResponseMatrix.from_triples(
            np.append(users, 49), np.append(items, item), np.append(options, 2),
            shape=(50, 20), num_options=3,
        )
        assert session.matrix == expected
        assert session.content_hash() == expected.content_hash()

    def test_add_user_numbers_past_registered_users(self):
        """A new user gets a row past every registered one (num_users=), so
        a registered user's later answers cannot collide with it."""
        session = CrowdSession(num_items=3, num_options=2, num_users=5)
        session.add_answers([0, 1], [0, 1], [1, 0])
        assert session.add_user([0, 1], [1, 1]) == 5
        assert session.matrix.num_users == 6
        session.add_answers([2], [0], [1])  # registered user 2 answers
        assert session.matrix.num_answers == 5
        # A restored crowd whose last registered users are silent.
        crowd = ResponseMatrix.from_triples(
            [0, 1, 2, 3], [0, 1, 2, 0], [1, 0, 1, 1], shape=(6, 3),
            num_options=2,
        )
        restored = CrowdSession.from_matrix(crowd)
        assert restored.add_user([1], [0]) == 6
        assert restored.matrix.num_users == 7
        restored.add_answers([4], [0], [0])
        assert restored.matrix.num_answers == 6

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

    def test_stats_report_the_queue_and_the_epoch(self, triples):
        users, items, options = triples
        session = CrowdSession(num_items=20, num_options=3)
        session.add_answers(users[:30], items[:30], options[:30])
        info = session.stats()
        assert (info["pending_answers"], info["epoch"]) == (30, 1)
        assert info["materialized"] is False
        session.matrix
        info = session.stats()
        assert (info["pending_answers"], info["epoch"]) == (0, 1)
        assert info["materialized"] is True
        # Accepted answers waiting for the drain leave the matrix stale.
        session.add_answers(users[30:], items[30:], options[30:])
        info = session.stats()
        assert info["pending_answers"] == users.size - 30
        assert info["num_answers"] == users.size
        assert (info["epoch"], info["materialized"]) == (2, False)
        session.add_answers([], [], [])  # a no-op keeps the epoch
        assert session.stats()["epoch"] == 2


def _planted_triples(num_users, num_items, num_options, density, seed):
    """A crowd with signal: each answer is right with the user's ability."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, num_options, size=num_items)
    ability = rng.uniform(0.4, 0.95, size=num_users)
    users, items = np.nonzero(rng.random((num_users, num_items)) < density)
    right = rng.random(users.size) < ability[users]
    wrong = (truth[items] + rng.integers(1, num_options, users.size)) % num_options
    return users, items, np.where(right, truth[items], wrong)


class TestCacheRetention:
    """A growing crowd keeps one cache entry per fingerprint: the newest,
    which holds the state the next warm start resumes from."""

    def test_alternating_fingerprints_stay_warm_with_one_entry_each(self):
        users, items, options = _planted_triples(80, 30, 3, 0.5, seed=5)
        order = np.random.default_rng(0).permutation(users.size)
        head, tail = order[:-100], order[-100:]
        session = CrowdSession(num_items=30, num_options=3, num_users=80)
        session.add_answers(users[head], items[head], options[head])
        methods = [("HnD", {"random_state": 0}), ("HITS", {})]
        for method, params in methods:
            session.rank(method, warm_start=True, **params)
        for cycle, batch in enumerate(np.array_split(tail, 5)):
            session.add_answers(users[batch], items[batch], options[batch])
            method, params = methods[cycle % 2]
            ranking = session.rank(method, warm_start=True, **params)
            assert ranking.diagnostics["warm_start"] == "warm", (cycle, method)
        assert len(session.cache) == 2

    def test_a_shared_cache_keeps_another_crowds_entries(self):
        shared = RankCache()
        other = CrowdSession(num_items=30, num_options=3, cache=shared)
        other.add_answers(*_planted_triples(40, 30, 3, 0.5, seed=9))
        theirs = [other.rank("HnD", random_state=0), other.rank("MajorityVote")]

        users, items, options = _planted_triples(80, 30, 3, 0.5, seed=5)
        session = CrowdSession(num_items=30, num_options=3, num_users=80,
                               cache=shared)
        for batch in np.array_split(np.arange(users.size), 5):
            session.add_answers(users[batch], items[batch], options[batch])
            session.rank("HnD", warm_start=True, random_state=0)
            session.rank("MajorityVote")
        assert len(shared) == 4
        hits = shared.stats()["hits"]
        assert other.rank("HnD", random_state=0) is theirs[0]
        assert other.rank("MajorityVote") is theirs[1]
        assert shared.stats()["hits"] == hits + 2

    def test_warm_start_record_holds_one_hash_per_fingerprint(self):
        """The session remembers where it last ranked each fingerprint,
        not every hash it ever ranked: the record stays at two entries
        however many append-rank cycles alternate two fingerprints."""
        users, items, options = _planted_triples(80, 30, 3, 0.5, seed=5)
        session = CrowdSession(num_items=30, num_options=3, num_users=80)
        methods = [("HnD", {"random_state": 0}), ("HITS", {})]
        for cycle, batch in enumerate(np.array_split(np.arange(users.size), 20)):
            session.add_answers(users[batch], items[batch], options[batch])
            method, params = methods[cycle % 2]
            session.rank(method, warm_start=True, **params)
        assert len(session._ranked_at) == 2
        assert session.content_hash() in session._ranked_at.values()
        assert len(session.cache) == 2


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

    def test_add_answers_does_not_wait_on_a_held_lock(self):
        """An append is queued, not blocked, while a solve holds the lock,
        and the caller's arrays are no longer the session's to follow."""
        import threading

        session = CrowdSession(num_items=4, num_options=2)
        session.add_answers([0, 1], [0, 1], [1, 0])
        session.matrix
        entered = threading.Event()
        release = threading.Event()

        def hold_lock():
            with session._state_lock:
                entered.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold_lock)
        holder.start()
        users = np.array([2, 2])
        items = np.array([0, 3])
        options = np.array([1, 1])
        try:
            assert entered.wait(timeout=10)
            done = []

            def append():
                start = time.monotonic()
                session.add_answers(users, items, options)
                done.append(time.monotonic() - start)

            appender = threading.Thread(target=append)
            appender.start()
            appender.join(timeout=2.0)  # the hold lasts until release
            assert not appender.is_alive(), "add_answers waited on the lock"
            assert done[0] < 1.0
            assert (session.num_answers, session.num_users) == (4, 3)
            assert session.pending_answers == 2
            users[:] = 0  # mutating an acked batch must not reach the crowd
        finally:
            release.set()
            holder.join(timeout=10)
            appender.join(timeout=10)
        expected = ResponseMatrix.from_triples(
            [0, 1, 2, 2], [0, 1, 0, 3], [1, 0, 1, 1], shape=(3, 4),
            num_options=2,
        )
        assert session.matrix == expected
        assert session.pending_answers == 0


class TestAcceptPointRefusals:
    """Every answer a read would refuse, except a conflicting repeat, is
    refused where it arrives; the crowd keeps ranking."""

    @pytest.mark.parametrize("batch, message", [
        (([0], [5], [1]), r"item index 5 is outside \[0, 3\)"),
        (([0], [1], [9]), r"item 1 has a choice index >= its number of options \(4\)"),
        (([2], [-1], [0]), r"item index -1 is outside \[0, 3\)"),
        (([0], [0], [-1]), r"options must be >= 0"),
    ])
    def test_a_batch_outside_the_declared_shape_is_refused(self, batch, message):
        session = CrowdSession(num_items=3, num_options=4)
        session.add_answers([0, 1], [0, 1], [1, 2])
        before = (session.num_answers, session.epoch)
        with pytest.raises(InvalidResponseMatrixError, match=message):
            session.add_answers(*batch)
        assert (session.num_answers, session.epoch) == before
        assert session.rank("MajorityVote").scores.shape == (2,)

    def test_add_user_is_checked_the_same_way(self):
        session = CrowdSession(num_items=3, num_options=[2, 3, 4])
        session.add_answers([0], [0], [1])
        with pytest.raises(InvalidResponseMatrixError, match="item 1 has"):
            session.add_user([0, 1], [1, 3])
        with pytest.raises(InvalidResponseMatrixError, match="item index 3"):
            session.add_user([3], [0])
        assert (session.num_users, session.epoch) == (1, 1)
        assert session.add_user([1, 2], [2, 3]) == 1
        assert session.rank("MajorityVote").scores.shape == (2,)

    def test_the_builder_refuses_at_append_too(self):
        builder = ResponseBuilder(num_items=3, num_options=4)
        builder.add_answers([0], [0], [1])
        with pytest.raises(InvalidResponseMatrixError, match="item index 5"):
            builder.add_answers([0], [5], [1])
        with pytest.raises(InvalidResponseMatrixError, match="number of options"):
            builder.add_user([0], [4])
        assert builder.num_answers == 1
        assert builder.build().num_answers == 1

    def test_a_per_item_list_fixes_the_item_count(self):
        session = CrowdSession(num_options=[2, 3])
        with pytest.raises(InvalidResponseMatrixError, match="item index 2"):
            session.add_answers([0], [2], [0])
        session.add_answers([0, 0], [0, 1], [1, 2])
        assert session.matrix.num_items == 2

    def test_a_scalar_count_bounds_options_before_items_are_known(self):
        session = CrowdSession(num_options=3)
        with pytest.raises(InvalidResponseMatrixError, match="number of options"):
            session.add_answers([0], [7], [3])
        session.add_answers([0], [7], [2])
        assert session.matrix.num_items == 8

    @pytest.mark.parametrize("shape", [
        {"num_items": 3, "num_options": 0},
        {"num_items": 3, "num_options": -2},
        {"num_items": 3, "num_options": [4, 4]},
        {"num_items": 0, "num_options": 4},
    ])
    def test_a_declared_shape_no_crowd_can_have_is_refused(self, shape):
        with pytest.raises(InvalidResponseMatrixError):
            CrowdSession(**shape)
        with pytest.raises(InvalidResponseMatrixError):
            ResponseBuilder(**shape)

    def test_a_conflicting_repeat_still_fails_only_the_read(self):
        session = CrowdSession(num_items=3, num_options=4)
        session.add_answers([0, 0], [0, 0], [1, 2])
        assert session.num_answers == 2
        with pytest.raises(InvalidResponseMatrixError, match="more than once"):
            session.matrix


class TestOneRangeRule:
    """Each accept point refuses a batch with exactly the message
    ``from_triples`` gives for it, because both run one range rule; a
    refused batch changes nothing, and a valid one is taken whole."""

    NUM_OPTIONS = [2, 3, 4]
    BASE = ([0, 0, 1], [0, 2, 1], [1, 3, 2])
    ACCEPT_POINTS = ("builder-add_answers", "builder-add_user",
                     "session-add_answers", "session-add_user")

    @staticmethod
    def _crowd(accept_point):
        kind = ResponseBuilder if accept_point.startswith("builder") else CrowdSession
        crowd = kind(num_options=TestOneRangeRule.NUM_OPTIONS)
        crowd.add_answers(*TestOneRangeRule.BASE)
        return crowd

    @staticmethod
    def _offer(crowd, accept_point, items, options):
        """Offer one new user's answers (user 2) through ``accept_point``."""
        if accept_point.endswith("add_user"):
            return crowd.add_user(items, options)
        return crowd.add_answers(np.full(len(items), 2), items, options)

    @staticmethod
    def _counts(crowd):
        return (crowd.num_answers, crowd.num_users,
                getattr(crowd, "epoch", None))

    @pytest.mark.parametrize("accept_point", ACCEPT_POINTS)
    @pytest.mark.parametrize("items, options", [
        pytest.param([5], [1], id="item-past-the-count"),
        pytest.param([-1], [0], id="negative-item"),
        pytest.param([1], [3], id="option-past-its-items-count"),
        pytest.param([2], [-1], id="negative-option"),
        pytest.param([2], [1.5], id="fractional-option"),
        pytest.param([0, 1], [1], id="unequal-lengths"),
    ])
    def test_a_refusal_reads_as_from_triples_and_changes_nothing(
            self, accept_point, items, options):
        with pytest.raises(InvalidResponseMatrixError) as expected:
            ResponseMatrix.from_triples(np.full(len(items), 2), items, options,
                                        shape=(3, 3), num_options=self.NUM_OPTIONS)
        crowd = self._crowd(accept_point)
        before = self._counts(crowd)
        with pytest.raises(InvalidResponseMatrixError) as refused:
            self._offer(crowd, accept_point, items, options)
        assert str(refused.value) == str(expected.value)
        assert self._counts(crowd) == before
        built = crowd.build() if isinstance(crowd, ResponseBuilder) else crowd.matrix
        assert built.num_answers == len(self.BASE[0])

    @pytest.mark.parametrize("accept_point", ACCEPT_POINTS)
    def test_options_past_the_smallest_count_are_taken_whole(self, accept_point):
        """Options at or above the smallest per-item count but inside their
        own item's count take the checked path and are accepted."""
        crowd = self._crowd(accept_point)
        self._offer(crowd, accept_point, [0, 1, 2], [1, 2, 3])
        built = crowd.build() if isinstance(crowd, ResponseBuilder) else crowd.matrix
        expected = ResponseMatrix.from_triples(
            self.BASE[0] + [2, 2, 2], self.BASE[1] + [0, 1, 2],
            self.BASE[2] + [1, 2, 3], shape=(3, 3), num_options=self.NUM_OPTIONS,
        )
        assert built == expected
