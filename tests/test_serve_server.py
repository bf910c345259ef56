"""Tests for the ``repro.serve`` front end (PR 8).

The acceptance pins, verified against a real in-process server (real
sockets, real event loop, solves on real worker threads):

* **single-flight**: N concurrent identical ranks against a cold crowd
  run exactly ONE solve (counted by instrumenting the solve path) and
  every requester receives bit-identical scores; the server's
  ``coalesced`` counter reads N-1 and the crowd's cache took one miss.
* **bounded degradation**: rate-limited and backpressured requests get
  typed rejections carrying ``retry_after`` — within a bounded time,
  never a hang.
* **micro-batching**: appends are acknowledged from the buffer and the
  next rank observes every previously-acknowledged answer.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.exceptions import (
    InvalidResponseMatrixError,
    ProtocolError,
    RateLimitedError,
    SchemaError,
    ServerOverloadedError,
    UnknownCrowdError,
)
from repro.serve import CrowdServer, ServeConfig, ServeClient


class ServerFixture:
    """A CrowdServer on a background event loop, plus client helpers."""

    def __init__(self, **config):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.server = CrowdServer(config=ServeConfig(port=0, **config))
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop).result(timeout=10)

    def client(self, timeout=10.0):
        return ServeClient(self.server.host, self.server.port,
                           timeout=timeout)

    def close(self):
        asyncio.run_coroutine_threadsafe(
            self.server.aclose(), self.loop).result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def server():
    fixture = ServerFixture()
    yield fixture
    fixture.close()


def _raw_call(fixture, op, meta, arrays):
    """Send one request frame as given, past the client's own checks."""
    from repro.engine.remote import protocol

    address = (fixture.server.host, fixture.server.port)
    with socket.create_connection(address, timeout=5) as sock:
        protocol.send_message(sock, op, {"v": 1, **meta}, arrays)
        return protocol.recv_message(sock)


def _fill_crowd(client, name, num_users=20, num_items=30, num_options=3,
                seed=0):
    client.create(name, num_items=num_items, num_options=num_options)
    users, items = np.divmod(np.arange(num_users * num_items), num_items)
    options = np.random.default_rng(seed).integers(0, num_options, users.size)
    client.add_answers(name, users, items, options)
    return users.size


class TestServing:
    def test_rank_equals_local_session(self, server):
        """The wire path returns exactly what a local CrowdSession would."""
        from repro.api import CrowdSession

        num_users, num_items = 20, 30
        with server.client() as client:
            _fill_crowd(client, "quiz", num_users, num_items)
            remote = client.rank("quiz", "HnD", random_state=0)

        session = CrowdSession(num_items=num_items, num_options=3)
        users, items = np.divmod(np.arange(num_users * num_items), num_items)
        options = np.random.default_rng(0).integers(0, 3, users.size)
        session.add_answers(users, items, options)
        local = session.rank("HnD", random_state=0)
        np.testing.assert_array_equal(remote.scores, local.scores)

    def test_top_k_returns_best_first(self, server):
        with server.client() as client:
            _fill_crowd(client, "quiz")
            full = client.rank("quiz", "HnD", random_state=0)
            top = client.top_k("quiz", 5, "HnD", random_state=0)
        assert top.users.size == 5
        np.testing.assert_array_equal(
            top.users, np.argsort(full.scores)[::-1][:5])
        np.testing.assert_array_equal(top.scores, full.scores[top.users])

    def test_append_then_rank_sees_the_append(self, server):
        """Acknowledged appends are always visible to a later rank."""
        with server.client() as client:
            client.create("quiz", num_items=10, num_options=3)
            for start in (0, 5):
                users = np.repeat(np.arange(start, start + 5), 10)
                items = np.tile(np.arange(10), 5)
                options = np.random.default_rng(start).integers(
                    0, 3, users.size)
                ack = client.add_answers("quiz", users, items, options)
                assert ack["buffered"] == 50
            stats = client.stats("quiz")
            assert stats["pending_answers"] == 100  # buffered, not applied
            ranked = client.rank("quiz", "MajorityVote")
            assert ranked.scores.size == 10
            stats = client.stats("quiz")
            assert stats["pending_answers"] == 0
            assert stats["num_answers"] == 100

    def test_empty_append_keeps_the_epoch(self, server):
        """An empty batch is a no-op, so it must not split coalescing."""
        with server.client() as client:
            client.create("quiz", num_items=10, num_options=3)
            ack = client.add_answers("quiz", [0, 1], [0, 0], [1, 2])
            assert ack["epoch"] == 1
            empty = client.add_answers("quiz", [], [], [])
            assert (empty["buffered"], empty["epoch"]) == (0, 1)
            assert client.stats("quiz")["epoch"] == 1
            row, = client.server_stats()["crowds"]
            assert (row["name"], row["epoch"], row["pending_answers"]) == (
                "quiz", 1, 2)

    def test_crowd_lifecycle_and_stats(self, server):
        with server.client() as client:
            client.create("a", num_items=5, num_options=2)
            client.create("b", num_items=5, num_options=2)
            names = [entry["name"] for entry in client.list()]
            assert sorted(names) == ["a", "b"]
            assert client.drop("a") is True
            assert client.drop("a") is False
            stats = client.server_stats()
            assert stats["sessions"]["created"] == 2
            assert stats["sessions"]["dropped"] == 1
            assert stats["counters"]["connections"] == 1

    def test_create_conflict_and_exist_ok(self, server):
        from repro.exceptions import CrowdExistsError

        with server.client() as client:
            client.create("quiz", num_items=5, num_options=2)
            with pytest.raises(CrowdExistsError, match="already exists"):
                client.create("quiz")
            client.create("quiz", exist_ok=True)  # idempotent, no error


class TestCodecLookup:
    def test_server_resolves_the_codec_on_the_protocol_module(
            self, server, monkeypatch):
        """perfbench's tracer patches ``encode_message`` and
        ``decode_payload`` on :mod:`repro.engine.remote.protocol`, so the
        server must look both up on that module object for every frame.
        Only calls on the server's loop thread count: the client goes
        through the same module."""
        from repro.engine.remote import protocol

        calls = {"encode_message": 0, "decode_payload": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(protocol, name),
                        **kwargs):
                if threading.current_thread() is server.thread:
                    calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(protocol, name, counted)
        with server.client() as client:
            client.ping()
        assert calls == {"encode_message": 1, "decode_payload": 1}


class TestWireLayout:
    def test_a_frame_in_the_big_endian_layout_is_refused(self, server):
        """Frames whose payload wrote its header length big-endian carried
        the magic ``RPR1``; the little-endian payload layout shared with
        snapshot records is ``RPR2``, so such a peer fails on the magic
        check and is dropped instead of having its header misread."""
        import json
        import struct
        import zlib

        header = json.dumps({"op": "ping", "meta": {"v": 1}, "arrays": []},
                            separators=(",", ":")).encode("utf-8")
        payload = struct.pack("!I", len(header)) + header
        frame = b"RPR1" + struct.pack("!II", zlib.crc32(payload),
                                      len(payload)) + payload
        with socket.create_connection(
                (server.server.host, server.server.port), timeout=5) as sock:
            sock.sendall(frame)
            assert sock.recv(1024) == b""
        with server.client() as client:
            assert client.ping()["server"] == "repro.serve"
        assert server.server.stats["protocol_errors"] == 1


class TestTypedErrors:
    def test_unknown_crowd_did_you_mean(self, server):
        with server.client() as client:
            client.create("quiz", num_items=5, num_options=2)
            with pytest.raises(UnknownCrowdError, match="did you mean 'quiz'"):
                client.rank("quizz", "HnD", random_state=0)

    def test_unknown_method_did_you_mean(self, server):
        with server.client() as client:
            client.create("quiz", num_items=5, num_options=2)
            with pytest.raises(SchemaError, match="did you mean 'HnD'"):
                client.rank("quiz", "HnDD")

    def test_flush_failure_surfaces_on_the_rank(self, server):
        """A poisoned append batch fails the rank that flushes it, typed."""
        with server.client() as client:
            client.create("quiz", num_items=5, num_options=3)
            # user 0 answers item 0 twice with different options: passes
            # the accept point's batch rule, conflicts at materialization.
            client.add_answers("quiz", [0, 0], [0, 0], [1, 2])
            with pytest.raises(SchemaError, match="more than once"):
                client.rank("quiz", "MajorityVote")
            assert client.server_stats()["counters"]["flush_failures"] == 1
            # Per the CrowdSession contract a conflicting answer poisons
            # the crowd's materialization; recovery is drop + re-create.
            client.drop("quiz")
            client.create("quiz", num_items=5, num_options=3)
            client.add_answers("quiz", [0, 1], [0, 0], [1, 1])
            assert client.rank("quiz", "MajorityVote").scores.size == 2

    def test_malformed_frame_drops_connection_only(self, server):
        with socket.create_connection(
                (server.server.host, server.server.port), timeout=5) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n" + b"\x00" * 64)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if sock.recv(1024) == b"":
                    break
            else:  # pragma: no cover - timing failure path
                pytest.fail("server did not drop the corrupt connection")
        # The server survives and serves the next connection.
        with server.client() as client:
            assert client.ping()["server"] == "repro.serve"
        assert server.server.stats["protocol_errors"] == 1


class TestAcceptPoint:
    """An append the crowd's next read would refuse is refused on arrival."""

    def test_an_out_of_range_append_is_refused_and_the_crowd_still_ranks(
            self, server):
        with server.client() as client:
            _fill_crowd(client, "quiz", num_items=3, num_options=4)
            epoch = client.stats("quiz")["epoch"]
            with pytest.raises(SchemaError, match="item index 5") as refused:
                client.add_answers("quiz", [0], [5], [1])
            assert refused.value.code == "bad_request"
            with pytest.raises(SchemaError, match="number of options"):
                client.add_answers("quiz", [0], [1], [9])
            assert client.stats("quiz")["epoch"] == epoch
            assert client.rank("quiz", "MajorityVote").scores.size == 20
            assert client.server_stats()["counters"]["flush_failures"] == 0

    @pytest.mark.parametrize("users, items", [
        pytest.param([0, 1], [0], id="unequal-lengths"),
        pytest.param([[0], [1]], [0, 1], id="2-d-buffer"),
        pytest.param([0, 1], [-1, 0], id="negative-index"),
        pytest.param([0.5], [0], id="non-integer"),
    ])
    def test_a_malformed_raw_batch_is_refused_at_the_accept_point(
            self, server, users, items):
        """The wire schema checks only that the buffers are there; the
        session's batch rule refuses the rest before anything is acked."""
        with server.client() as client:
            _fill_crowd(client, "quiz", num_items=3, num_options=4)
            before = client.stats("quiz")
        errors = server.server.stats["errors"]
        arrays = {"users": np.asarray(users), "items": np.asarray(items),
                  "options": np.ones(np.size(users), dtype=np.int64)}
        op, meta, _ = _raw_call(server, "add_answers", {"crowd": "quiz"},
                                arrays)
        assert (op, meta["code"]) == ("error", "bad_request")
        assert meta["etype"] == "InvalidResponseMatrixError"
        assert server.server.stats["errors"] == errors + 1
        with server.client() as client:
            after = client.stats("quiz")
            for key in ("num_answers", "pending_answers", "epoch"):
                assert after[key] == before[key]
            assert client.rank("quiz", "MajorityVote").scores.size == 20

    def test_a_float_buffer_of_whole_numbers_is_acked(self, server):
        """As ``add_answers`` and ``from_triples`` accept it."""
        with server.client() as client:
            client.create("quiz", num_items=3, num_options=4)
        op, meta, _ = _raw_call(server, "add_answers", {"crowd": "quiz"}, {
            "users": np.array([0.0, 1.0]),
            "items": np.array([0, 0], dtype=np.int64),
            "options": np.array([1, 2], dtype=np.int64),
        })
        assert (op, meta["buffered"], meta["epoch"]) == ("ok", 2, 1)
        with server.client() as client:
            assert client.rank("quiz", "MajorityVote").scores.size == 2

    def test_the_client_refuses_a_non_integer_batch_unsent(self, server):
        with server.client() as client:
            client.create("quiz", num_items=3, num_options=4)
            requests = server.server.stats["requests"]
            with pytest.raises(InvalidResponseMatrixError, match="integers"):
                client.add_answers("quiz", [0.5, 1.0], [0, 0], [1, 1])
            assert server.server.stats["requests"] == requests
            assert client.stats("quiz")["epoch"] == 0

    @pytest.mark.parametrize("num_options", [0, -2, [4, 4]])
    def test_a_create_that_could_never_rank_is_refused(self, server,
                                                        num_options):
        with server.client() as client:
            with pytest.raises(SchemaError) as refused:
                client.create("quiz", num_items=3, num_options=num_options)
            assert refused.value.code == "bad_request"
            assert client.list() == ()


class TestWireShapeRules:
    """The declared shape a wire ``create`` carries is the accept rule of
    every later append on that crowd."""

    @pytest.mark.parametrize("num_options", [
        pytest.param([4, 0, 4], id="an-item-without-options"),
        pytest.param([], id="no-items"),
    ])
    def test_a_per_item_create_no_crowd_can_have_is_refused(self, server,
                                                            num_options):
        with server.client() as client:
            with pytest.raises(SchemaError) as refused:
                client.create("quiz", num_options=num_options)
            assert refused.value.code == "bad_request"
            assert client.list() == ()

    def test_a_per_item_create_fixes_the_items_and_bounds_each(self, server):
        with server.client() as client:
            client.create("quiz", num_options=[2, 3, 4])
            with pytest.raises(SchemaError, match=r"item index 3 is outside \[0, 3\)"):
                client.add_answers("quiz", [0], [3], [0])
            with pytest.raises(SchemaError, match=r"item 0 .* options \(2\)"):
                client.add_answers("quiz", [0], [0], [2])
            assert client.stats("quiz")["epoch"] == 0
            client.add_answers("quiz", [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2],
                               [1, 2, 3, 0, 1, 3])
            assert client.rank("quiz", "MajorityVote").scores.size == 2

    def test_a_refused_append_buffers_nothing(self, server):
        """The refused batch leaves the crowd's counts as they were, and
        the next rank sees only the accepted answers."""
        with server.client() as client:
            accepted = _fill_crowd(client, "quiz", num_items=3, num_options=4)
            before = client.stats("quiz")
            with pytest.raises(SchemaError) as refused:
                client.add_answers("quiz", [20, 20], [0, 3], [1, 1])
            assert refused.value.code == "bad_request"
            after = client.stats("quiz")
            for key in ("num_users", "num_answers", "pending_answers", "epoch"):
                assert after[key] == before[key]
            assert client.rank("quiz", "MajorityVote").scores.size == 20
            assert client.stats("quiz")["num_answers"] == accepted


class TestOneRankerPerServedRank:
    def test_a_served_miss_and_hit_each_build_two_rankers(
            self, server, construction_counts):
        """The coalescing key binds once and the session binds once; the
        wire schema's check is the third parameter-name check."""
        counts = construction_counts
        with server.client() as client:
            _fill_crowd(client, "quiz")
            counts.update(built=0, checked=0)
            client.rank("quiz", "HnD", warm_start=True, random_state=0)
            assert counts == {"built": 2, "checked": 3}
            counts.update(built=0, checked=0)
            client.top_k("quiz", 3, "HnD", warm_start=True, random_state=0)
            assert counts == {"built": 2, "checked": 3}
        cache = server.server.manager.get("quiz").cache
        assert (cache.hits, cache.misses) == (1, 1)


class TestSingleFlight:
    def test_concurrent_identical_ranks_run_one_solve(self):
        """THE coalescing pin: N identical ranks, ONE solve, same bits."""
        fixture = ServerFixture(solver_threads=4, max_queue=32)
        server = fixture.server
        solve_calls = []
        gate = threading.Event()
        original = CrowdServer._solve_sync

        def gated_solve(self, entry, request):
            solve_calls.append(request.op)
            gate.wait(timeout=30)
            return original(self, entry, request)

        CrowdServer._solve_sync = gated_solve
        try:
            num_requests = 8
            with fixture.client() as setup:
                _fill_crowd(setup, "quiz")

            def one_rank(_):
                with fixture.client() as client:
                    return client.rank("quiz", "HnD", random_state=0).scores

            with ThreadPoolExecutor(num_requests) as pool:
                futures = [pool.submit(one_rank, i)
                           for i in range(num_requests)]
                # Hold the gate until every request reached the server and
                # coalesced onto the first one's in-flight solve.
                deadline = time.monotonic() + 15
                while server.stats["coalesced"] < num_requests - 1:
                    assert time.monotonic() < deadline, (
                        "requests failed to coalesce: %s"
                        % server.stats.snapshot())
                    time.sleep(0.01)
                gate.set()
                results = [future.result(timeout=30) for future in futures]
        finally:
            CrowdServer._solve_sync = original
            fixture.close()

        assert len(solve_calls) == 1, "coalescing must dispatch ONE solve"
        for scores in results[1:]:
            np.testing.assert_array_equal(results[0], scores)
        assert server.stats["solves"] == 1
        assert server.stats["coalesced"] == num_requests - 1

    def test_nondeterministic_ranks_never_coalesce(self):
        """random_state=None has no fingerprint: no sharing, ever."""
        fixture = ServerFixture(solver_threads=4)
        server = fixture.server
        gate = threading.Event()
        started = threading.Event()
        original = CrowdServer._solve_sync

        def gated_solve(self, entry, request):
            started.set()
            gate.wait(timeout=30)
            return original(self, entry, request)

        CrowdServer._solve_sync = gated_solve
        try:
            with fixture.client() as setup:
                _fill_crowd(setup, "quiz")

            def one_rank(_):
                with fixture.client() as client:
                    return client.rank("quiz", "HnD",
                                       random_state=None).scores

            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(one_rank, i) for i in range(2)]
                assert started.wait(timeout=15)
                deadline = time.monotonic() + 15
                while server.stats["solves"] < 2:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                gate.set()
                for future in futures:
                    future.result(timeout=30)
        finally:
            CrowdServer._solve_sync = original
            fixture.close()
        assert server.stats["solves"] == 2
        assert server.stats["coalesced"] == 0

    def test_append_epoch_splits_the_flight(self):
        """A rank admitted after an append never shares the older solve."""
        fixture = ServerFixture(solver_threads=4)
        server = fixture.server
        gate = threading.Event()
        started = threading.Event()
        original = CrowdServer._solve_sync

        def gated_solve(self, entry, request):
            started.set()
            gate.wait(timeout=30)
            return original(self, entry, request)

        CrowdServer._solve_sync = gated_solve
        try:
            with fixture.client() as setup:
                _fill_crowd(setup, "quiz", num_users=10, num_items=10)

            def rank_scores(_):
                with fixture.client() as client:
                    return client.rank("quiz", "MajorityVote").scores

            with ThreadPoolExecutor(2) as pool:
                first = pool.submit(rank_scores, 0)
                assert started.wait(timeout=15)
                with fixture.client() as client:
                    client.add_answers("quiz", [10], [0], [1])  # new epoch
                second = pool.submit(rank_scores, 1)
                deadline = time.monotonic() + 15
                while server.stats["solves"] < 2:  # second must NOT coalesce
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                gate.set()
                before = first.result(timeout=30)
                after = second.result(timeout=30)
        finally:
            CrowdServer._solve_sync = original
            fixture.close()
        assert server.stats["coalesced"] == 0
        # One-directional consistency: the post-append rank MUST see the
        # new user; the pre-append solve flushed after the append landed,
        # so it MAY also have seen it (benign over-freshness).
        assert before.size in (10, 11)
        assert after.size == 11


class TestConfigValidation:
    @pytest.mark.parametrize("settings, field", [
        # A sub-token bucket never grants a request, even after retry_after.
        ({"rate": 5, "burst": 0.5}, "burst"),
        ({"max_sessions": 0}, "max_sessions"),
    ])
    def test_settings_that_fail_every_request_are_rejected(self, settings,
                                                           field):
        with pytest.raises(ValueError, match=field):
            ServeConfig(**settings)


class TestBoundedDegradation:
    def test_rate_limit_rejects_typed_and_fast(self):
        fixture = ServerFixture(rate=5.0, burst=2.0)
        try:
            start = time.monotonic()
            with fixture.client() as client:
                with pytest.raises(RateLimitedError) as excinfo:
                    for _ in range(20):
                        client.ping()
            elapsed = time.monotonic() - start
            assert elapsed < 5.0, "rate limiting must reject, not stall"
            assert excinfo.value.retry_after > 0.0
            assert fixture.server.stats["rate_limited"] >= 1
        finally:
            fixture.close()

    def test_rate_limit_is_per_connection(self):
        fixture = ServerFixture(rate=5.0, burst=2.0)
        try:
            with fixture.client() as first:
                first.ping()
                first.ping()
            with fixture.client() as second:  # a fresh bucket
                assert second.ping()["server"] == "repro.serve"
        finally:
            fixture.close()

    def test_full_solve_queue_rejects_typed_and_fast(self):
        """Ranks past max_queue get 'overloaded' immediately, never hang."""
        fixture = ServerFixture(max_queue=1, solver_threads=2)
        gate = threading.Event()
        original = CrowdServer._solve_sync

        def gated_solve(self, entry, request):
            gate.wait(timeout=30)
            return original(self, entry, request)

        CrowdServer._solve_sync = gated_solve
        try:
            with fixture.client() as setup:
                _fill_crowd(setup, "a", num_users=5, num_items=5)
                _fill_crowd(setup, "b", num_users=5, num_items=5)

            def occupy():
                with fixture.client() as client:
                    return client.rank("a", "MajorityVote").scores

            with ThreadPoolExecutor(1) as pool:
                holder = pool.submit(occupy)
                deadline = time.monotonic() + 15
                while fixture.server.stats["solves"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                # The queue (capacity 1) is now full: a rank for a
                # DIFFERENT crowd cannot coalesce and must be rejected.
                start = time.monotonic()
                with fixture.client() as client:
                    with pytest.raises(ServerOverloadedError) as excinfo:
                        client.rank("b", "MajorityVote")
                assert time.monotonic() - start < 5.0
                assert excinfo.value.retry_after is not None
                gate.set()
                holder.result(timeout=30)
            assert fixture.server.stats["overloaded"] == 1
        finally:
            CrowdServer._solve_sync = original
            fixture.close()

    def test_pending_answer_cap_rejects_typed(self):
        fixture = ServerFixture(max_pending_answers=10)
        try:
            with fixture.client() as client:
                client.create("quiz", num_items=100, num_options=2)
                client.add_answers("quiz", np.arange(8), np.arange(8),
                                   np.zeros(8, dtype=np.int64))
                with pytest.raises(ServerOverloadedError, match="buffered"):
                    client.add_answers("quiz", np.arange(8),
                                       np.arange(8) + 10,
                                       np.zeros(8, dtype=np.int64))
                # A rank flushes the buffer and appends are admitted again.
                client.rank("quiz", "MajorityVote")
                client.add_answers("quiz", np.arange(8), np.arange(8) + 10,
                                   np.zeros(8, dtype=np.int64))
        finally:
            fixture.close()


class TestLifecycle:
    def test_shutdown_op_stops_the_server(self):
        fixture = ServerFixture()
        try:
            done = asyncio.run_coroutine_threadsafe(
                fixture.server.serve_forever(), fixture.loop)
            with fixture.client() as client:
                client.shutdown()
            done.result(timeout=10)  # serve_forever returned
        finally:
            fixture.loop.call_soon_threadsafe(fixture.loop.stop)
            fixture.thread.join(timeout=10)
            fixture.loop.close()

    def test_shutdown_op_can_be_disabled(self):
        fixture = ServerFixture(allow_shutdown=False)
        try:
            with fixture.client() as client:
                with pytest.raises(SchemaError, match="disabled"):
                    client.shutdown()
                assert client.ping()["server"] == "repro.serve"
        finally:
            fixture.close()
