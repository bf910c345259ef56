"""The fault matrix (PR 6): every injected failure ends in one of exactly
two outcomes — a **bit-identical ranking** (after retries or shard
reassignment) or a **typed exception** — never a hang, never a wrong
answer, never a poisoned cache.

Transport faults are injected with :class:`ChaosProxy` in front of one of
two workers; ingestion faults corrupt real saved files on disk.
"""

from __future__ import annotations

import numpy as np
import pytest

from fault_injection import fast_supervision, wait_until
from repro.core.response import ResponseBuilder, ResponseMatrix
from repro.engine import (
    ChaosProxy,
    RankCache,
    RemoteEngine,
    ShardedResponse,
    iter_triples_csv,
    iter_triples_npz,
    load_streaming,
    rank_dawid_skene,
    rank_majority_vote,
)
from repro.engine.remote.supervision import CircuitBreaker
from repro.exceptions import InvalidResponseMatrixError
from repro.truth_discovery.dawid_skene import DawidSkeneRanker
from repro.truth_discovery.majority import MajorityVoteRanker


def _random_response(num_users, num_items, num_options, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((num_users, num_items)) < density
    if not mask.any():
        mask[0, 0] = True
    users, items = np.nonzero(mask)
    options = rng.integers(0, num_options, size=users.size)
    return ResponseMatrix.from_triples(
        users, items, options,
        shape=(num_users, num_items), num_options=num_options,
    )


@pytest.fixture(scope="module")
def crowd():
    return _random_response(400, 80, 4, 0.25, seed=3)


@pytest.fixture(scope="module")
def references(crowd):
    return {
        "Dawid-Skene": DawidSkeneRanker().rank(crowd),
        "MajorityVote": MajorityVoteRanker().rank(crowd),
    }


@pytest.fixture()
def servers():
    from repro.engine.remote.worker import WorkerServer

    pair = [WorkerServer(), WorkerServer()]
    for server in pair:
        server.serve_in_background()
    yield pair
    for server in pair:
        server.shutdown()


@pytest.fixture()
def proxied(servers):
    """A chaos proxy in front of worker 0, plus the healthy worker 1."""
    with ChaosProxy("127.0.0.1", servers[0].port) as proxy:
        yield proxy, [proxy.address, "%s:%d" % (servers[1].host,
                                                servers[1].port)]


# ----------------------------------------------------------------------- #
# Transport fault matrix
# ----------------------------------------------------------------------- #
class TestTransportFaults:
    """One test per fault mode.  Invariant: correct bits or typed error."""

    def _solve(self, crowd, workers, *, shards=4, **supervision):
        sharded = ShardedResponse.split(crowd, shards)
        with RemoteEngine(sharded, workers,
                          supervision=fast_supervision(**supervision)) as engine:
            ranking = rank_majority_vote(engine)
            return ranking, engine.diagnostics()

    def test_short_delay_is_absorbed(self, crowd, references, proxied):
        proxy, workers = proxied
        proxy.set_fault("delay", delay=0.02)
        ranking, diagnostics = self._solve(crowd, workers)
        assert np.array_equal(ranking.scores, references["MajorityVote"].scores)
        assert diagnostics["reassignments"] == 0
        assert diagnostics["alive_workers"] == 2

    def test_delay_beyond_timeout_reassigns(self, crowd, references, proxied):
        proxy, workers = proxied
        proxy.set_fault("delay", delay=5.0)
        ranking, diagnostics = self._solve(crowd, workers,
                                           request_timeout=0.2)
        assert np.array_equal(ranking.scores, references["MajorityVote"].scores)
        assert diagnostics["reassignments"] >= 1
        assert diagnostics["alive_workers"] == 1

    def test_blackholed_worker_reassigns(self, crowd, references, proxied):
        proxy, workers = proxied
        proxy.set_fault("drop")
        ranking, diagnostics = self._solve(crowd, workers,
                                           request_timeout=0.2)
        assert np.array_equal(ranking.scores, references["MajorityVote"].scores)
        assert diagnostics["reassignments"] >= 1

    def test_truncated_frames_reassign(self, crowd, references, proxied):
        proxy, workers = proxied
        proxy.set_fault("truncate", truncate_bytes=12)
        ranking, diagnostics = self._solve(crowd, workers)
        assert np.array_equal(ranking.scores, references["MajorityVote"].scores)
        assert diagnostics["reassignments"] >= 1

    def test_corrupted_frames_reassign(self, crowd, references, proxied):
        """Bit-flipped payloads are caught by the checksum, never trusted."""
        proxy, workers = proxied
        proxy.set_fault("corrupt", direction="s2c")
        ranking, diagnostics = self._solve(crowd, workers)
        assert np.array_equal(ranking.scores, references["MajorityVote"].scores)
        assert diagnostics["reassignments"] >= 1

    def test_severed_connections_reassign(self, crowd, references, proxied):
        proxy, workers = proxied
        proxy.set_fault("sever")
        ranking, diagnostics = self._solve(crowd, workers)
        assert np.array_equal(ranking.scores, references["MajorityVote"].scores)
        assert diagnostics["reassignments"] >= 1

    def test_transient_corruption_is_retried_not_fatal(self, crowd,
                                                       references, proxied):
        """A one-off corrupt reply is retried on the same worker: no death,
        no reassignment, same bits."""
        proxy, workers = proxied

        def script(count):
            if count == 6:
                proxy.set_fault("corrupt", direction="s2c")
            elif count > 6:
                proxy.heal()

        proxy.on_request = script
        sharded = ShardedResponse.split(crowd, 4)
        with RemoteEngine(sharded, workers,
                          supervision=fast_supervision()) as engine:
            ds = rank_dawid_skene(engine)
            diagnostics = engine.diagnostics()
        assert np.array_equal(ds.scores, references["Dawid-Skene"].scores)
        assert diagnostics["reassignments"] == 0
        assert diagnostics["alive_workers"] == 2

    def test_heartbeat_detects_dead_worker_while_idle(self, crowd,
                                                      references, servers):
        """The heartbeat thread trips the breaker between requests."""
        sharded = ShardedResponse.split(crowd, 4)
        engine = RemoteEngine(
            sharded,
            ["%s:%d" % (server.host, server.port) for server in servers],
            supervision=fast_supervision(heartbeat_interval=0.05),
        )
        try:
            servers[0].shutdown()
            assert wait_until(
                lambda: engine._clients[0].breaker.state == CircuitBreaker.OPEN
            )
            assert any(event["event"] == "heartbeat_failed"
                       for event in engine.events())
            ranking = rank_majority_vote(engine)
            diagnostics = engine.diagnostics()
        finally:
            engine.close()
        assert np.array_equal(ranking.scores, references["MajorityVote"].scores)
        assert diagnostics["reassignments"] >= 1
        assert diagnostics["alive_workers"] == 1

    def test_cache_not_poisoned_by_faulty_run(self, crowd, references,
                                              proxied):
        """A run that survives faults stores the same entry a clean fused
        run would — later hits serve the correct ranking."""
        from repro.api import ExecutionPolicy, rank

        proxy, workers = proxied
        proxy.set_fault("corrupt", direction="s2c")
        cache = RankCache()
        remote = rank(
            crowd, "MajorityVote",
            execution=ExecutionPolicy(
                shards=4, remote_workers=workers,
                supervision=fast_supervision(), cache=cache,
            ),
        )
        assert np.array_equal(remote.scores, references["MajorityVote"].scores)
        fused = rank(crowd, "MajorityVote",
                     execution=ExecutionPolicy(cache=cache))
        assert fused is remote  # served from the entry the faulty run stored
        assert cache.stats()["hits"] == 1


# ----------------------------------------------------------------------- #
# Ingestion faults: corrupt files on disk
# ----------------------------------------------------------------------- #
@pytest.fixture()
def saved(tmp_path):
    matrix = _random_response(200, 20, 3, 0.3, seed=11)
    npz = tmp_path / "crowd.npz"
    csv = tmp_path / "crowd.csv"
    matrix.save(npz)
    matrix.save(csv)
    return matrix, npz, csv


class TestIngestCorruption:
    def test_truncated_npz_archive(self, saved):
        _, npz, _ = saved
        data = npz.read_bytes()
        npz.write_bytes(data[: len(data) // 2])
        with pytest.raises(InvalidResponseMatrixError,
                           match="not a readable NPZ archive"):
            list(iter_triples_npz(npz))

    def test_bit_flipped_npz_member(self, saved):
        """One flipped byte inside the users member: the decompressor or
        the zip CRC catches it; the reader surfaces a typed error."""
        _, npz, _ = saved
        data = bytearray(npz.read_bytes())
        index = data.index(b"users.npy") + 200  # inside the deflate stream
        data[index] ^= 0xFF
        npz.write_bytes(bytes(data))
        with pytest.raises(InvalidResponseMatrixError):
            list(iter_triples_npz(npz, chunk_size=64))

    def test_mismatched_member_lengths(self, tmp_path):
        npz = tmp_path / "bad.npz"
        np.savez(npz,
                 users=np.zeros(10, dtype=np.int64),
                 items=np.zeros(7, dtype=np.int64),
                 options=np.zeros(10, dtype=np.int64))
        with pytest.raises(InvalidResponseMatrixError,
                           match="mismatched lengths"):
            list(iter_triples_npz(npz))

    def test_missing_member(self, tmp_path):
        npz = tmp_path / "bad.npz"
        np.savez(npz, users=np.zeros(3, dtype=np.int64))
        with pytest.raises(InvalidResponseMatrixError, match="missing"):
            list(iter_triples_npz(npz))

    def test_non_integer_member_rejected(self, tmp_path):
        npz = tmp_path / "bad.npz"
        np.savez(npz,
                 users=np.zeros(4, dtype=np.float64),
                 items=np.zeros(4, dtype=np.int64),
                 options=np.zeros(4, dtype=np.int64))
        with pytest.raises(InvalidResponseMatrixError,
                           match="flat integer array"):
            list(iter_triples_npz(npz))

    def test_mid_row_truncated_csv(self, saved):
        _, _, csv = saved
        text = csv.read_text()
        csv.write_text(text[:-3])  # cut inside the final triples row
        with pytest.raises(InvalidResponseMatrixError,
                           match="truncated or corrupt"):
            list(iter_triples_csv(csv))

    def test_two_column_row_csv(self, saved):
        _, _, csv = saved
        with csv.open("a", encoding="utf-8") as handle:
            handle.write("5,1\n")
        with pytest.raises(InvalidResponseMatrixError,
                           match="truncated or corrupt"):
            list(iter_triples_csv(csv))

    def test_stray_text_row_csv(self, saved):
        _, _, csv = saved
        with csv.open("a", encoding="utf-8") as handle:
            handle.write("not,a,row?\n")
        with pytest.raises(InvalidResponseMatrixError,
                           match="malformed triples row"):
            list(iter_triples_csv(csv))

    def test_load_streaming_surfaces_typed_error(self, saved):
        _, _, csv = saved
        csv.write_text(csv.read_text()[:-3])
        with pytest.raises(InvalidResponseMatrixError):
            load_streaming(csv)

    def test_clean_files_still_round_trip(self, saved):
        matrix, npz, csv = saved
        for path in (npz, csv):
            loaded = load_streaming(path, chunk_size=97)
            assert np.array_equal(loaded.triples[0], matrix.triples[0])
            assert np.array_equal(loaded.triples[2], matrix.triples[2])


class TestBuilderUnpoisoned:
    """A rejected batch must leave the builder exactly as it was."""

    def test_mismatched_batch_does_not_poison(self):
        builder = ResponseBuilder(num_items=3, num_options=4)
        builder.add_answers([0, 0], [0, 1], [1, 2])
        with pytest.raises(InvalidResponseMatrixError, match="equal lengths"):
            builder.add_answers([1, 1], [2], [3])
        assert builder.num_answers == 2
        builder.add_answers([1], [2], [3])
        matrix = builder.build()
        assert matrix.num_users == 2
        assert matrix.num_answers == 3

    def test_negative_user_does_not_poison(self):
        builder = ResponseBuilder(num_items=2, num_options=2)
        builder.add_answer(0, 0, 1)
        with pytest.raises(InvalidResponseMatrixError, match=">= 0"):
            builder.add_answers([-1], [0], [0])
        assert builder.num_answers == 1
        assert builder.num_users == 1
        assert builder.build().num_answers == 1
