"""Each step of the rank path happens once per call.

A rank binds its method name and parameters to one ranker instance and
one fingerprint: the cache keys on that instance's fingerprint and a miss
solves with the same instance.  These tests count ``HNDPower``
constructions and parameter-name checks (the ``construction_counts``
fixture) on the library and session paths (the served path is counted in
``test_serve_server.py``), and pin that ``repro.api`` imports its
submodules eagerly.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.api
from repro.api import REGISTRY, CrowdSession, rank
from repro.api.execution import bind, method_fingerprint
from repro.api.registry import RankerSpec, Spec
from repro.engine import RankCache

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _answers(num_users=20, num_items=15, num_options=3, seed=0):
    users, items = np.divmod(np.arange(num_users * num_items), num_items)
    options = np.random.default_rng(seed).integers(0, num_options, users.size)
    return users, items, options


def _reset(counts):
    counts.update(built=0, checked=0)


class TestOneRankerPerCall:
    def test_library_rank_builds_one_ranker_on_a_miss_and_on_a_hit(
            self, construction_counts):
        session = CrowdSession(num_items=15, num_options=3)
        session.add_answers(*_answers())
        matrix = session.matrix
        cache = RankCache()
        counts = construction_counts
        _reset(counts)
        miss = rank(matrix, "HnD", cache=cache, random_state=0)
        assert counts == {"built": 1, "checked": 1}
        _reset(counts)
        hit = rank(matrix, "HnD", cache=cache, random_state=0)
        assert counts == {"built": 1, "checked": 1}
        assert hit is miss and cache.hits == 1 and cache.misses == 1

    def test_session_rank_builds_one_ranker_on_a_miss_and_on_a_hit(
            self, construction_counts):
        session = CrowdSession(num_items=15, num_options=3)
        session.add_answers(*_answers())
        counts = construction_counts
        _reset(counts)
        session.rank("HnD", warm_start=True, random_state=0)
        assert counts == {"built": 1, "checked": 1}
        _reset(counts)
        session.rank("HnD", warm_start=True, random_state=0)
        assert counts == {"built": 1, "checked": 1}
        assert session.cache.hits == 1 and session.cache.misses == 1


class TestEagerApiImports:
    def test_the_api_package_has_no_lazy_import_shim(self):
        namespace = vars(repro.api)
        assert not {"__getattr__", "__dir__", "_LAZY"} & namespace.keys()
        for name in repro.api.__all__:
            assert name in namespace

    @pytest.mark.parametrize("package", sorted(
        "repro." + info.name for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ))
    def test_each_subpackage_imports_in_a_fresh_interpreter(self, package):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", "import %s, repro.api; repro.api.CrowdSession"
             % package],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr


UNSUPERVISED = REGISTRY.names(supervised=False)


def _params(method):
    """Parameters that make ``method`` deterministic, hence cacheable."""
    return {"random_state": 0} if REGISTRY.get(method).takes("random_state") else {}


@pytest.fixture
def bind_counts(monkeypatch):
    """Live counts of ``RankerSpec.create`` (``built``) and
    ``Spec.validate_params`` (``checked``) calls, for every method."""
    counts = {"built": 0, "checked": 0}
    real_create = RankerSpec.create
    real_validate = Spec.validate_params

    def create(self, **params):
        counts["built"] += 1
        return real_create(self, **params)

    def validate(self, params):
        counts["checked"] += 1
        return real_validate(self, params)

    monkeypatch.setattr(RankerSpec, "create", create)
    monkeypatch.setattr(Spec, "validate_params", validate)
    return counts


class TestEveryMethodBindsOnce:
    """The one-binding rule holds for every registered unsupervised method,
    not only HnD: one ranker and one parameter-name check per call."""

    @pytest.mark.parametrize("method", UNSUPERVISED)
    def test_library_rank_binds_once_on_a_miss_and_on_a_hit(
            self, method, bind_counts):
        session = CrowdSession(num_items=15, num_options=3)
        session.add_answers(*_answers())
        matrix, cache = session.matrix, RankCache()
        _reset(bind_counts)
        miss = rank(matrix, method, cache=cache, **_params(method))
        assert bind_counts == {"built": 1, "checked": 1}
        _reset(bind_counts)
        hit = rank(matrix, method, cache=cache, **_params(method))
        assert bind_counts == {"built": 1, "checked": 1}
        assert hit is miss and (cache.hits, cache.misses) == (1, 1)

    @pytest.mark.parametrize("method", UNSUPERVISED)
    def test_session_rank_binds_once_on_a_miss_and_on_a_hit(
            self, method, bind_counts):
        session = CrowdSession(num_items=15, num_options=3)
        session.add_answers(*_answers())
        for _ in range(2):
            _reset(bind_counts)
            session.rank(method, **_params(method))
            assert bind_counts == {"built": 1, "checked": 1}
        assert (session.cache.hits, session.cache.misses) == (1, 1)

    @pytest.mark.parametrize("method", UNSUPERVISED)
    def test_the_bound_fingerprint_is_the_key_rank_caches_under(self, method):
        session = CrowdSession(num_items=15, num_options=3)
        session.add_answers(*_answers())
        matrix, cache = session.matrix, RankCache()
        ranking = rank(matrix, method, cache=cache, **_params(method))
        bound = bind(method, _params(method))
        fingerprint = method_fingerprint(method, _params(method))
        assert fingerprint is not None
        assert bound.cache_fingerprint() == fingerprint
        assert cache.key_for(bound, matrix) == (matrix.content_hash(), fingerprint)
        assert cache.rank(bound, matrix) is ranking
        assert (cache.hits, cache.misses) == (1, 1)

    @pytest.mark.parametrize("method", UNSUPERVISED)
    def test_a_warm_rank_binds_once_or_is_refused_before_any_build(
            self, method, bind_counts):
        session = CrowdSession(num_items=15, num_options=3)
        session.add_answers(*_answers())
        _reset(bind_counts)
        if not REGISTRY.get(method).warm_startable:
            with pytest.raises(ValueError, match="does not support warm starts"):
                session.rank(method, warm_start=True, **_params(method))
            assert bind_counts == {"built": 0, "checked": 0}
            return
        session.rank(method, warm_start=True, **_params(method))
        assert bind_counts == {"built": 1, "checked": 1}
        session.add_user(np.arange(15), np.arange(15) % 3)
        _reset(bind_counts)
        resumed = session.rank(method, warm_start=True, **_params(method))
        assert bind_counts == {"built": 1, "checked": 1}
        assert resumed.scores.shape == (21,)
        assert session.cache.misses == 2
