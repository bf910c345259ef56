"""Tests for the hash-keyed rank cache and its integration points (PR 3).

Covers :class:`RankCache` semantics (hit/miss/bypass/LRU), the ranker
fingerprint rules (parameters distinguish entries; nondeterministic random
state bypasses), ``ResponseMatrix.content_hash`` as a cache key, the
``evaluate_rankers`` wiring, and the committed ``BENCH_PR3.json`` evidence
(warm-hit speedup and full-scale bit-identity flags).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.hitsndiffs import HNDDeflation, HNDPower
from repro.core.response import ResponseMatrix
from repro.engine import RankCache, ranker_fingerprint
from repro.evaluation.experiments import evaluate_rankers
from repro.irt.generators import generate_dataset
from repro.truth_discovery.cheating import TrueAnswerRanker
from repro.truth_discovery.majority import MajorityVoteRanker

BENCH_PR3 = Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_PR3.json"


@pytest.fixture
def response():
    rng = np.random.default_rng(5)
    mask = rng.random((60, 30)) < 0.5
    users, items = np.nonzero(mask)
    options = rng.integers(0, 3, size=users.size)
    return ResponseMatrix.from_triples(
        users, items, options, shape=(60, 30), num_options=3
    )


class TestContentHash:
    def test_equal_matrices_share_the_digest(self, response):
        users, items, options = response.triples
        rebuilt = ResponseMatrix.from_triples(
            users, items, options,
            shape=(response.num_users, response.num_items),
            num_options=response.num_options,
        )
        assert rebuilt.content_hash() == response.content_hash()

    def test_any_answer_change_changes_the_digest(self, response):
        users, items, options = (array.copy() for array in response.triples)
        options[0] = (options[0] + 1) % 3
        changed = ResponseMatrix.from_triples(
            users, items, options,
            shape=(response.num_users, response.num_items),
            num_options=response.num_options,
        )
        assert changed.content_hash() != response.content_hash()

    def test_digest_is_construction_path_independent(self, response):
        dense = ResponseMatrix(response.choices, num_options=response.num_options)
        assert dense.content_hash() == response.content_hash()


class TestFingerprint:
    def test_equal_parameters_equal_fingerprint(self):
        assert ranker_fingerprint(HNDPower(random_state=0)) == ranker_fingerprint(
            HNDPower(random_state=0)
        )

    def test_parameters_distinguish(self):
        assert ranker_fingerprint(HNDPower(random_state=0)) != ranker_fingerprint(
            HNDPower(random_state=1)
        )
        assert ranker_fingerprint(HNDPower(random_state=0)) != ranker_fingerprint(
            HNDPower(random_state=0, tolerance=1e-8)
        )

    def test_classes_distinguish(self):
        assert ranker_fingerprint(HNDPower(random_state=0)) != ranker_fingerprint(
            HNDDeflation(random_state=0)
        )

    def test_nondeterministic_random_state_is_uncacheable(self):
        assert ranker_fingerprint(HNDPower(random_state=None)) is None
        assert ranker_fingerprint(
            HNDPower(random_state=np.random.default_rng(0))
        ) is None

    def test_array_valued_parameters_fingerprint(self):
        truth = np.array([0, 1, 2])
        a = ranker_fingerprint(TrueAnswerRanker(truth))
        b = ranker_fingerprint(TrueAnswerRanker(truth.copy()))
        c = ranker_fingerprint(TrueAnswerRanker(np.array([0, 1, 1])))
        assert a == b
        assert a != c


class TestRankCache:
    def test_hit_returns_the_stored_ranking(self, response):
        cache = RankCache()
        first = cache.rank(HNDPower(random_state=0), response)
        second = cache.rank(HNDPower(random_state=0), response)
        assert second is first
        assert cache.stats() == {"hits": 1, "misses": 1, "bypasses": 0,
                                 "disk_hits": 0, "size": 1}

    def test_different_data_or_method_misses(self, response):
        cache = RankCache()
        cache.rank(HNDPower(random_state=0), response)
        cache.rank(MajorityVoteRanker(), response)
        subset = response.subset_users(np.arange(30))
        cache.rank(HNDPower(random_state=0), subset)
        stats = cache.stats()
        assert stats["misses"] == 3
        assert stats["hits"] == 0
        assert stats["size"] == 3

    def test_nondeterministic_ranker_bypasses(self, response):
        cache = RankCache()
        cache.rank(HNDPower(random_state=None), response)
        cache.rank(HNDPower(random_state=None), response)
        stats = cache.stats()
        assert stats["bypasses"] == 2
        assert stats["size"] == 0

    def test_lru_eviction(self, response):
        cache = RankCache(maxsize=2)
        rankers = [HNDPower(random_state=seed) for seed in (0, 1, 2)]
        for ranker in rankers:
            cache.rank(ranker, response)
        assert len(cache) == 2
        # Seed 0 was least recently used -> evicted -> misses again.
        cache.rank(rankers[0], response)
        assert cache.stats()["misses"] == 4

    def test_clear(self, response):
        cache = RankCache()
        cache.rank(MajorityVoteRanker(), response)
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "bypasses": 0,
                                 "disk_hits": 0, "size": 0}

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError, match="maxsize"):
            RankCache(maxsize=0)

    def test_cached_scores_match_uncached(self, response):
        cache = RankCache()
        cached = cache.rank(HNDPower(random_state=7), response)
        direct = HNDPower(random_state=7).rank(response)
        assert np.array_equal(cached.scores, direct.scores)


class TestStateSlots:
    """Solver states ride inside cache entries: one slot, evicted together."""

    def test_state_slot_does_not_inflate_size_accounting(self, response):
        """Scores and solver state are one entry, not two (regression)."""
        cache = RankCache()
        ranking = cache.rank(HNDPower(random_state=0), response)
        assert ranking.state is not None  # a state was captured and stored
        assert cache.stats()["size"] == 1
        assert len(cache) == 1
        # A warm hit serves the same entry without growing the accounting.
        cache.rank(HNDPower(random_state=0), response)
        assert cache.stats() == {"hits": 1, "misses": 1, "bypasses": 0,
                                 "disk_hits": 0, "size": 1}

    def test_latest_state_returns_the_captured_state(self, response):
        cache = RankCache()
        ranker = HNDPower(random_state=0)
        ranking = cache.rank(ranker, response)
        digest = response.content_hash()
        state = cache.latest_state(digest, ranker_fingerprint(ranker))
        assert state is ranking.state
        assert state.method == "HnD"
        assert cache.latest_state(
            digest, ranker_fingerprint(HNDPower(random_state=1))) is None
        assert cache.latest_state(digest, None) is None

    def test_latest_state_reads_each_matrix_by_its_own_key(self, response):
        """Two matrix states under one fingerprint: each key serves its own."""
        cache = RankCache()
        ranker = HNDPower(random_state=0)
        fingerprint = ranker_fingerprint(ranker)
        first = cache.rank(ranker, response)
        # Rank a different matrix state under the same fingerprint.
        subset = response.subset_users(np.arange(50))
        second = cache.rank(ranker, subset)
        assert cache.latest_state(response.content_hash(),
                                  fingerprint) is first.state
        assert cache.latest_state(subset.content_hash(),
                                  fingerprint) is second.state

    def test_state_evicted_together_with_its_entry(self, response):
        cache = RankCache(maxsize=2)
        first = HNDPower(random_state=0)
        cache.rank(first, response)
        fingerprint = ranker_fingerprint(first)
        digest = response.content_hash()
        assert cache.latest_state(digest, fingerprint) is not None
        # Two younger entries push the first one (scores AND state) out.
        cache.rank(HNDPower(random_state=1), response)
        cache.rank(HNDPower(random_state=2), response)
        assert cache.stats()["size"] == 2
        assert cache.latest_state(digest, fingerprint) is None

    def test_stateless_rankings_cache_without_a_state(self, response):
        cache = RankCache()
        ranking = cache.rank(MajorityVoteRanker(), response)
        assert ranking.state is None
        assert cache.stats()["size"] == 1
        assert cache.latest_state(
            response.content_hash(),
            ranker_fingerprint(MajorityVoteRanker())) is None

    def test_clear_drops_states(self, response):
        cache = RankCache()
        ranker = HNDPower(random_state=0)
        cache.rank(ranker, response)
        cache.clear()
        assert cache.latest_state(response.content_hash(),
                                  ranker_fingerprint(ranker)) is None


class TestFailurePaths:
    """A raising ranker must never leave a poisoned or half-written entry
    (PR 6): the cache computes outside its lock and stores only on success."""

    class _FlakyRanker(HNDPower):
        """Raises on the first ``fail_times`` rank() calls, then succeeds."""

        def cache_fingerprint(self):
            # The call counter is bookkeeping, not a result-affecting
            # parameter: key by the HNDPower configuration alone.
            return ranker_fingerprint(HNDPower(random_state=self.random_state))

        def __init__(self, fail_times=1, **kwargs):
            super().__init__(**kwargs)
            self.fail_times = fail_times
            self.calls = 0

        def rank(self, response, **kwargs):
            self.calls += 1
            if self.calls <= self.fail_times:
                raise RuntimeError("transient solver failure")
            return super().rank(response, **kwargs)

    def test_raising_ranker_leaves_no_entry(self, response):
        cache = RankCache()
        flaky = self._FlakyRanker(fail_times=1, random_state=0)
        with pytest.raises(RuntimeError, match="transient"):
            cache.rank(flaky, response)
        assert cache.stats()["size"] == 0
        assert cache.latest_state(response.content_hash(),
                                  ranker_fingerprint(flaky)) is None
        # The retry computes and stores a correct entry.
        recovered = cache.rank(flaky, response)
        direct = HNDPower(random_state=0).rank(response)
        assert np.array_equal(recovered.scores, direct.scores)
        assert cache.stats()["size"] == 1
        # And the same configuration now hits the stored entry.
        assert cache.rank(flaky, response) is recovered
        assert cache.stats()["hits"] == 1

    def test_concurrent_stress_with_intermittent_failures(self, response):
        """Hammer one cache from many threads with a sometimes-raising
        ranker plus rotating-seed entries that force LRU churn; the cache
        must stay consistent and every successful result correct."""
        import threading

        cache = RankCache(maxsize=4)
        reference = HNDPower(random_state=0).rank(response)
        errors = []
        results = []
        lock = threading.Lock()

        class _SometimesRaises(HNDPower):
            def __init__(self, trigger, **kwargs):
                super().__init__(**kwargs)
                self._trigger = trigger

            def rank(self, inner_response, **kwargs):
                if self._trigger:
                    raise RuntimeError("injected mid-solve failure")
                return super().rank(inner_response, **kwargs)

        def worker(thread_id):
            try:
                for step in range(8):
                    flaky = (thread_id + step) % 3 == 0
                    ranker = _SometimesRaises(flaky, random_state=0)
                    try:
                        ranking = cache.rank(ranker, response)
                    except RuntimeError:
                        continue
                    with lock:
                        results.append(ranking)
                    # Churn the LRU with other fingerprints in parallel.
                    cache.rank(MajorityVoteRanker(), response)
                    cache.rank(
                        HNDPower(random_state=1 + (thread_id + step) % 3),
                        response,
                    )
            except BaseException as err:  # pragma: no cover - must not happen
                errors.append(err)

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert results  # the non-flaky calls all produced rankings
        for ranking in results:
            assert np.array_equal(ranking.scores, reference.scores)
        stats = cache.stats()
        assert stats["size"] == len(cache) <= 4
        assert stats["misses"] + stats["hits"] + stats["bypasses"] > 0
        # The cache still functions normally after the stress.
        after = cache.rank(HNDPower(random_state=0), response)
        assert np.array_equal(after.scores, reference.scores)


class TestEvaluateRankersCache:
    def test_suite_reuses_cached_rankings(self):
        dataset = generate_dataset(
            "grm", num_users=30, num_items=40, num_options=3, random_state=0
        )
        cache = RankCache()
        suite = {"MajorityVote": MajorityVoteRanker(), "HnD": HNDPower(random_state=0)}
        first = evaluate_rankers(dataset, suite, cache=cache)
        second = evaluate_rankers(dataset, suite, cache=cache)
        assert cache.stats()["hits"] == 2
        assert first.accuracies == second.accuracies

    def test_without_cache_unchanged(self):
        dataset = generate_dataset(
            "grm", num_users=20, num_items=30, num_options=3, random_state=0
        )
        result = evaluate_rankers(dataset, {"MajorityVote": MajorityVoteRanker()})
        assert set(result.accuracies) == {"MajorityVote"}


class TestCommittedShardedEvidence:
    """The committed BENCH_PR3.json must show the acceptance numbers."""

    def test_trajectory_file_is_committed_and_valid(self):
        payload = json.loads(BENCH_PR3.read_text())
        results = payload["sharded_engine"]
        assert results["num_users"] == 200_000
        assert results["num_items"] == 5_000
        assert results["num_shards"] >= 2
        assert results["peak_rss_mb"] > 0
        for name in ("HnD-Power", "Dawid-Skene", "MajorityVote"):
            assert results["%s_bit_identical" % name] is True
            assert results["%s_sharded_seconds" % name] >= 0
        assert results["cache_speedup"] >= 100.0
        assert results["stream_ingest_seconds"] > 0
