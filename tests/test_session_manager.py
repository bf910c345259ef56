"""Tests for :class:`repro.api.manager.SessionManager` (PR 8).

The acceptance pins: the named-crowd registry resolves, evicts LRU,
raises typed errors with did-you-mean hints, propagates policy defaults
into created sessions, and stays consistent under concurrent use.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import SessionManager
from repro.exceptions import CrowdExistsError, UnknownCrowdError
from repro.store import SnapshotStore


class TestRegistry:
    def test_create_get_round_trip(self):
        manager = SessionManager()
        session = manager.create("quiz", num_items=5, num_options=3)
        assert manager.get("quiz") is session
        assert "quiz" in manager
        assert len(manager) == 1
        assert manager.names() == ("quiz",)

    def test_duplicate_create_raises(self):
        manager = SessionManager()
        manager.create("quiz")
        with pytest.raises(CrowdExistsError, match="already exists"):
            manager.create("quiz")

    def test_exist_ok_is_idempotent(self):
        manager = SessionManager()
        first = manager.create("quiz", num_items=5)
        again = manager.create("quiz", exist_ok=True)
        assert again is first

    def test_unknown_crowd_did_you_mean(self):
        manager = SessionManager()
        manager.create("labeling-hit-42")
        with pytest.raises(UnknownCrowdError,
                           match="did you mean 'labeling-hit-42'"):
            manager.get("labeling-hit-24")

    def test_unknown_crowd_lists_resident(self):
        manager = SessionManager()
        manager.create("aaa")
        manager.create("bbb")
        with pytest.raises(UnknownCrowdError, match="aaa, bbb"):
            manager.get("zzz")

    def test_drop_is_idempotent(self):
        manager = SessionManager()
        manager.create("quiz")
        assert manager.drop("quiz") is True
        assert manager.drop("quiz") is False
        assert "quiz" not in manager

    def test_name_must_be_nonempty_string(self):
        manager = SessionManager()
        with pytest.raises(ValueError, match="non-empty string"):
            manager.create("")
        with pytest.raises(ValueError, match="non-empty string"):
            manager.create(7)


class TestLRUBound:
    def test_create_past_cap_evicts_lru(self):
        manager = SessionManager(max_sessions=2)
        manager.create("a")
        manager.create("b")
        manager.create("c")  # evicts "a"
        assert manager.names() == ("b", "c")
        assert manager.stats()["evictions"] == 1
        with pytest.raises(UnknownCrowdError):
            manager.get("a")

    def test_get_refreshes_recency(self):
        manager = SessionManager(max_sessions=2)
        manager.create("a")
        manager.create("b")
        manager.get("a")      # "b" is now least recently used
        manager.create("c")   # evicts "b", not "a"
        assert set(manager.names()) == {"a", "c"}

    def test_describe_does_not_refresh_recency(self):
        manager = SessionManager(max_sessions=2)
        manager.create("a")
        manager.create("b")
        manager.describe()
        manager.create("c")   # "a" is still the LRU
        assert set(manager.names()) == {"b", "c"}

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="max_sessions"):
            SessionManager(max_sessions=0)


class TestPolicyDefaults:
    def test_sessions_inherit_manager_policy(self, tmp_path):
        """Created and store-restored sessions both build their caches
        over the manager's store."""
        store = SnapshotStore(tmp_path)
        manager = SessionManager(store=store)
        session = manager.create("quiz", num_items=2, num_options=2)
        session.add_answers([0, 1], [0, 1], [1, 0])
        session.rank("MajorityVote")
        store.flush()
        assert manager.get("quiz").cache.store is store
        reopened = SnapshotStore(tmp_path)
        restarted = SessionManager(store=reopened)
        assert restarted.stats()["restored"] == 1
        assert restarted.get("quiz").cache.store is reopened


class TestDiagnostics:
    def test_describe_shape(self):
        manager = SessionManager()
        session = manager.create("quiz", num_items=3, num_options=4)
        session.add_answers([0, 1], [0, 1], [1, 2])
        (entry,) = manager.describe()
        assert entry == {"name": "quiz", "num_users": 2, "num_answers": 2}

    def test_stats_counters(self):
        manager = SessionManager(max_sessions=2)
        manager.create("a")
        manager.create("b")
        manager.create("c")
        manager.drop("b")
        stats = manager.stats()
        assert stats == {"resident": 1, "created": 3, "dropped": 1,
                         "evictions": 1, "restored": 0}


class TestConcurrency:
    def test_concurrent_create_and_get(self):
        """Racing creates + gets + drops never corrupt the registry."""
        manager = SessionManager(max_sessions=8)
        errors = []
        barrier = threading.Barrier(6)

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for step in range(50):
                    name = "crowd-%d" % rng.integers(0, 12)
                    action = rng.integers(0, 3)
                    if action == 0:
                        manager.create(name, exist_ok=True)
                    elif action == 1:
                        try:
                            manager.get(name)
                        except UnknownCrowdError:
                            pass
                    else:
                        manager.drop(name)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(manager) <= 8
        stats = manager.stats()
        assert stats["resident"] == len(manager.names())
