"""Tests for the remote execution backend (PR 6).

The acceptance matrix: the runners over a :class:`RemoteEngine` must
produce **bit-identical scores** to the fused single-process rankers at
1/2/8 shards and 1/2 workers for HnD, Dawid–Skene and MajorityVote —
including runs where a worker is killed or stalled mid-solve and its
shards are reassigned.  Also covers the wire
protocol, the supervision primitives (circuit breaker, backoff), the
``ExecutionPolicy``/CLI plumbing, and the engine lifecycle.
"""

from __future__ import annotations

import random
import socket

import numpy as np
import pytest

from fault_injection import WorkerFleet, fast_supervision
from repro.api import ExecutionPolicy, rank
from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseMatrix
from repro.engine import (
    ChaosProxy,
    RankCache,
    RemoteEngine,
    SupervisionConfig,
    rank_dawid_skene,
    rank_hnd_power,
    rank_majority_vote,
)
from repro.engine.remote import protocol
from repro.engine.remote.coordinator import parse_worker_address
from repro.engine.remote.supervision import CircuitBreaker, backoff_delays
from repro.engine.remote.worker import WorkerServer
from repro.exceptions import EngineError, ProtocolError, WorkerUnavailableError
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
    """A mid-size sparse crowd shared by the bit-identity tests."""
    return _random_response(400, 80, 4, 0.25, seed=3)


@pytest.fixture(scope="module")
def references(crowd):
    """Single-process reference rankings (the bit-identity targets)."""
    return {
        "HnD": HNDPower(random_state=0).rank(crowd),
        "Dawid-Skene": DawidSkeneRanker().rank(crowd),
        "MajorityVote": MajorityVoteRanker().rank(crowd),
    }


@pytest.fixture(scope="module")
def servers():
    """Two in-process worker servers on real localhost sockets."""
    pair = [WorkerServer(), WorkerServer()]
    for server in pair:
        server.serve_in_background()
    yield pair
    for server in pair:
        server.shutdown()


def _addresses(servers, count):
    return ["%s:%d" % (server.host, server.port) for server in servers[:count]]


# ----------------------------------------------------------------------- #
# Wire protocol
# ----------------------------------------------------------------------- #
class TestProtocol:
    def _pipe(self):
        return socket.socketpair()

    def test_round_trip_preserves_arrays(self):
        left, right = self._pipe()
        arrays = {
            "ints": np.arange(17, dtype=np.int64),
            "floats": np.linspace(-1, 1, 12).reshape(3, 4),
        }
        protocol.send_message(left, "op", {"k": 3}, arrays)
        op, meta, received = protocol.recv_message(right)
        assert op == "op" and meta == {"k": 3}
        np.testing.assert_array_equal(received["ints"], arrays["ints"])
        np.testing.assert_array_equal(received["floats"], arrays["floats"])
        assert received["floats"].dtype == np.float64
        left.close(), right.close()

    def test_empty_message(self):
        left, right = self._pipe()
        protocol.send_message(left, "ping")
        assert protocol.recv_message(right) == ("ping", {}, {})
        left.close(), right.close()

    def test_corrupted_payload_fails_checksum(self):
        frame = bytearray(protocol.encode_message("op", {}, {
            "x": np.arange(8, dtype=np.float64)
        }))
        frame[-1] ^= 0xFF
        left, right = self._pipe()
        left.sendall(bytes(frame))
        with pytest.raises(ProtocolError, match="checksum"):
            protocol.recv_message(right)
        left.close(), right.close()

    def test_truncated_frame(self):
        frame = protocol.encode_message("op", {}, {
            "x": np.arange(64, dtype=np.float64)
        })
        left, right = self._pipe()
        left.sendall(frame[:30])
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            protocol.recv_message(right)
        right.close()

    def test_bad_magic(self):
        left, right = self._pipe()
        left.sendall(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ProtocolError, match="magic"):
            protocol.recv_message(right)
        left.close(), right.close()

    def test_clean_eof_is_connection_closed(self):
        left, right = self._pipe()
        left.close()
        with pytest.raises(protocol.ConnectionClosed):
            protocol.recv_message(right)
        right.close()

    def test_oversized_length_rejected_before_allocation(self):
        import struct
        import zlib
        prefix = protocol.MAGIC + struct.pack(
            "!II", zlib.crc32(b""), protocol.MAX_PAYLOAD + 1
        )
        left, right = self._pipe()
        left.sendall(prefix)
        with pytest.raises(ProtocolError, match="cap"):
            protocol.recv_message(right)
        left.close(), right.close()

    def test_protocol_error_is_typed(self):
        assert issubclass(ProtocolError, EngineError)


class TestAddressParsing:
    def test_forms(self):
        assert parse_worker_address("localhost:9101") == ("localhost", 9101)
        assert parse_worker_address(("10.0.0.1", "80")) == ("10.0.0.1", 80)

    @pytest.mark.parametrize("bad", ["9101", "host:", "host:zero", ("h", 0)])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_worker_address(bad)


# ----------------------------------------------------------------------- #
# Supervision primitives
# ----------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=3, reset_timeout=5.0,
                                 clock=lambda: clock[0])
        assert breaker.state == CircuitBreaker.CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow()  # still closed below the threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(5.0)

        clock[0] = 5.1  # reset timeout elapsed -> half-open, one probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()
        assert not breaker.allow()  # single probe in flight
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(threshold=1, reset_timeout=1.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 1.5
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED


class TestBackoff:
    def test_delays_grow_and_respect_jitter_bounds(self):
        config = fast_supervision(max_attempts=4, backoff_base=0.1,
                                  backoff_max=10.0, jitter=0.5)
        delays = list(backoff_delays(config, random.Random(7)))
        assert len(delays) == 3
        for index, delay in enumerate(delays):
            nominal = 0.1 * 2.0 ** index
            assert nominal / 2 <= delay <= nominal

    def test_capped_at_backoff_max(self):
        config = fast_supervision(max_attempts=6, backoff_base=1.0,
                                  backoff_max=2.0, jitter=0.0)
        assert max(backoff_delays(config, random.Random(0))) == 2.0


# ----------------------------------------------------------------------- #
# Bit-identity matrix
# ----------------------------------------------------------------------- #
@pytest.mark.parametrize("num_shards", [1, 2, 8])
@pytest.mark.parametrize("num_workers", [1, 2])
class TestRemoteBitIdentity:
    """Remote scores == fused single-process scores, bit for bit.

    One engine (one set of shipped shards) serves all three methods per
    configuration, exercising shard-state reuse across methods.
    """

    def test_all_methods(self, crowd, references, servers, num_shards,
                         num_workers):
        with RemoteEngine(crowd, _addresses(servers, num_workers),
                          shards=num_shards,
                          supervision=fast_supervision()) as engine:
            hnd = rank_hnd_power(engine, random_state=0)
            assert np.array_equal(hnd.scores, references["HnD"].scores)
            assert (
                hnd.diagnostics["iterations"]
                == references["HnD"].diagnostics["iterations"]
            )

            ds = rank_dawid_skene(engine)
            assert np.array_equal(ds.scores, references["Dawid-Skene"].scores)
            np.testing.assert_array_equal(
                ds.diagnostics["discovered_truths"],
                references["Dawid-Skene"].diagnostics["discovered_truths"],
            )

            mv = rank_majority_vote(engine)
            assert np.array_equal(mv.scores, references["MajorityVote"].scores)

            for ranking in (hnd, ds, mv):
                assert ranking.diagnostics["engine"] == "sharded"
                assert ranking.diagnostics["backend"] == "remote"
                assert ranking.diagnostics["num_shards"] == num_shards
                assert ranking.diagnostics["num_workers"] == num_workers
                assert ranking.diagnostics["reassignments"] == 0


class TestRemoteKernels:
    """The matvec primitives match the fused kernels elementwise."""

    def test_matvecs_and_histograms(self, crowd, servers):
        compiled = crowd.compiled
        rng = np.random.default_rng(11)
        user_values = rng.standard_normal(crowd.num_users)
        option_values = rng.standard_normal(compiled.num_columns)
        with RemoteEngine(crowd, _addresses(servers, 2), shards=5,
                          supervision=fast_supervision()) as engine:
            assert np.array_equal(
                engine.option_sums(user_values), compiled.option_sums(user_values)
            )
            assert np.array_equal(
                engine.user_sums(option_values), compiled.user_sums(option_values)
            )
            assert np.array_equal(
                engine.avghits_apply(user_values),
                compiled.avghits_apply(user_values),
            )
            np.testing.assert_array_equal(
                engine.option_histograms(), crowd._option_count_matrix()
            )

    def test_empty_shard_is_a_noop(self, power_user_crowd, servers):
        crowd = power_user_crowd  # 4 shards: [0, 0, 1, 26, 51], first empty
        vector = np.linspace(-1, 1, crowd.num_users)
        with RemoteEngine(crowd, _addresses(servers, 2), shards=4,
                          supervision=fast_supervision()) as engine:
            assert engine.answer_cuts[0] == engine.answer_cuts[1]
            np.testing.assert_array_equal(
                engine.avghits_apply(vector), crowd.compiled.avghits_apply(vector)
            )


# ----------------------------------------------------------------------- #
# Mid-solve faults: the reassignment path keeps the bits
# ----------------------------------------------------------------------- #
class TestMidSolveRecovery:
    def test_killed_worker_mid_solve_is_bit_identical(self, crowd, references):
        """SIGKILL one of two workers after exactly 40 proxied requests."""
        with WorkerFleet(2) as fleet:
            with ChaosProxy("127.0.0.1", fleet.workers[0].port) as proxy:
                proxy.on_request = (
                    lambda count: fleet.kill(0) if count == 40 else None
                )
                with RemoteEngine(
                    crowd, [proxy.address, fleet.addresses[1]], shards=8,
                    supervision=fast_supervision(),
                ) as engine:
                    hnd = rank_hnd_power(engine, random_state=0)
                    diagnostics = engine.diagnostics()
                    kinds = [event["event"] for event in engine.events()]
        assert np.array_equal(hnd.scores, references["HnD"].scores)
        assert diagnostics["alive_workers"] == 1
        assert diagnostics["reassignments"] >= 1
        assert "worker_lost" in kinds and "shard_reassigned" in kinds

    def test_stalled_worker_mid_solve_is_bit_identical(self, crowd,
                                                       references, servers):
        """Blackhole one worker's traffic mid-solve: timeouts, then failover."""
        proxy = ChaosProxy("127.0.0.1", servers[0].port).start()
        proxy.on_request = (
            lambda count: proxy.set_fault("drop") if count == 8 else None
        )
        try:
            with RemoteEngine(
                crowd, [proxy.address, _addresses(servers, 2)[1]], shards=4,
                supervision=fast_supervision(request_timeout=0.3),
            ) as engine:
                ds = rank_dawid_skene(engine)
                diagnostics = engine.diagnostics()
            assert np.array_equal(ds.scores, references["Dawid-Skene"].scores)
            assert diagnostics["reassignments"] >= 1
        finally:
            proxy.stop()

    def test_total_worker_loss_falls_back_locally(self, crowd, references):
        server = WorkerServer()
        server.serve_in_background()
        engine = RemoteEngine(crowd, ["%s:%d" % (server.host, server.port)],
                              shards=4, supervision=fast_supervision())
        server.shutdown()
        try:
            mv = rank_majority_vote(engine)
            assert np.array_equal(mv.scores, references["MajorityVote"].scores)
            diagnostics = engine.diagnostics()
            assert diagnostics["alive_workers"] == 0
            assert diagnostics["local_shards"] == 4
        finally:
            engine.close()

    def test_total_worker_loss_without_fallback_is_typed(self, crowd):
        server = WorkerServer()
        server.serve_in_background()
        engine = RemoteEngine(crowd, ["%s:%d" % (server.host, server.port)],
                              shards=2, supervision=fast_supervision(),
                              local_fallback=False)
        server.shutdown()
        try:
            with pytest.raises(WorkerUnavailableError):
                rank_majority_vote(engine)
        finally:
            engine.close()


# ----------------------------------------------------------------------- #
# Engine lifecycle
# ----------------------------------------------------------------------- #
class TestRemoteLifecycle:
    def test_close_is_idempotent_and_final(self, crowd, servers):
        engine = RemoteEngine(crowd, _addresses(servers, 1), shards=2,
                              supervision=fast_supervision())
        scores, _ = engine.majority_scores()
        assert scores.shape == (crowd.num_users,)
        engine.close()
        engine.close()
        with pytest.raises(EngineError, match="closed"):
            engine.majority_scores()

    def test_unreachable_worker_at_startup_falls_back(self, crowd):
        # Nothing listens on the target port: construction survives via
        # the local fallback and still produces correct results.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        engine = RemoteEngine(
            crowd, ["127.0.0.1:%d" % dead_port], shards=2,
            supervision=fast_supervision(),
        )
        try:
            assert engine.diagnostics()["local_shards"] == 2
            scores, _ = engine.majority_scores()
            reference = MajorityVoteRanker().rank(crowd)
            assert np.array_equal(scores, reference.scores)
        finally:
            engine.close()

    def test_requires_at_least_one_worker(self, crowd):
        with pytest.raises(ValueError, match="at least one worker"):
            RemoteEngine(crowd, [], shards=2)


# ----------------------------------------------------------------------- #
# Policy / API / CLI plumbing
# ----------------------------------------------------------------------- #
class TestRemotePolicy:
    def test_backend_remote_requires_workers(self):
        with pytest.raises(ValueError, match="remote_workers"):
            ExecutionPolicy(shards=2)

    def test_remote_workers_resolve_auto_to_remote(self):
        policy = ExecutionPolicy(remote_workers=["127.0.0.1:9101"])
        assert policy.resolved_backend == "remote"
        assert policy.remote_workers == (("127.0.0.1", 9101),)

    def test_malformed_address_fails_fast(self):
        with pytest.raises(ValueError, match="host:port"):
            ExecutionPolicy(remote_workers=["no-port"])

    def test_rank_through_remote_policy_and_cache_sharing(
        self, crowd, references, servers
    ):
        """api.rank via remote == fused, and one cache entry serves both."""
        cache = RankCache()
        fused = rank(crowd, "MajorityVote",
                     execution=ExecutionPolicy(cache=cache))
        remote = rank(
            crowd, "MajorityVote",
            execution=ExecutionPolicy(
                shards=4,
                remote_workers=_addresses(servers, 2),
                supervision=fast_supervision(), cache=cache,
            ),
        )
        assert remote is fused  # cache hit: backends are bit-identical
        assert cache.stats() == {"hits": 1, "misses": 1, "bypasses": 0,
                                 "disk_hits": 0, "size": 1}
        cold = rank(
            crowd, "HnD", random_state=0,
            execution=ExecutionPolicy(
                shards=2,
                remote_workers=_addresses(servers, 2),
                supervision=fast_supervision(),
            ),
        )
        assert np.array_equal(cold.scores, references["HnD"].scores)


class TestRemoteCLI:
    def test_workers_flag_rejects_garbage(self, tmp_path, crowd, capsys):
        from repro.cli import main
        path = tmp_path / "crowd.npz"
        crowd.save(path)
        assert main(["rank", str(path), "--workers", "many"]) == 2
        assert "host:port" in capsys.readouterr().err

    def test_backend_remote_without_workers_exits_2(self, tmp_path, crowd,
                                                    capsys):
        from repro.cli import main
        path = tmp_path / "crowd.npz"
        crowd.save(path)
        assert main(["rank", str(path), "--shards", "4"]) == 2
        assert "remote_workers" in capsys.readouterr().err

    def test_rank_backend_remote_smoke(self, tmp_path, crowd, servers,
                                       capsys):
        from repro.cli import main
        path = tmp_path / "crowd.npz"
        crowd.save(path)
        code = main([
            "rank", str(path), "--method", "MajorityVote",
            "--shards", "4",
            "--workers", ",".join(_addresses(servers, 2)),
            "--repeat", "2",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "via backend remote" in output
        assert "cache hit" in output


class TestCommittedRemoteEvidence:
    """The committed BENCH_PR6.json must show the acceptance numbers."""

    def test_trajectory_file_is_committed_and_valid(self):
        import json
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_PR6.json"
        )
        payload = json.loads(path.read_text())
        results = payload["remote_engine"]
        assert results["backend"] == "remote"
        assert results["num_users"] == 200_000
        assert results["num_items"] == 5_000
        assert results["num_shards"] == 8
        assert results["num_workers"] == 2
        assert results["peak_rss_mb"] > 0
        for name in ("HnD-Power", "Dawid-Skene", "MajorityVote"):
            assert results["%s_bit_identical" % name] is True
            assert results["%s_remote_seconds" % name] >= 0
        # The kill run must have actually disturbed the solve and still
        # reproduced the bits, with a servable cache entry afterwards.
        assert results["kill_bit_identical"] is True
        assert results["kill_reassignments"] >= 1
        assert results["kill_alive_workers"] == 1
        assert results["cache_hit_served"] is True
