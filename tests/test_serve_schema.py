"""Tests for the serve wire schema and rate limiter (PR 8) — no sockets.

The schema is pure ``(op, meta, arrays)`` in / dataclass out, so every
validation path — version pinning, op and method did-you-mean, answer
buffer presence, the error-code taxonomy — is covered without a server.
The token bucket takes an injectable clock, so throttling behaviour is
tested without sleeping.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    InvalidResponseMatrixError,
    RateLimitedError,
    SchemaError,
    ServerOverloadedError,
    UnknownCrowdError,
)
from repro.serve.ratelimit import TokenBucket
from repro.serve.schema import (
    PROTOCOL_VERSION,
    ServeRequest,
    ServeResponse,
    error_frame,
    ok_frame,
)


def _parse(op, meta=None, arrays=None):
    full_meta = {"v": PROTOCOL_VERSION}
    full_meta.update(meta or {})
    return ServeRequest.from_frame(op, full_meta, arrays or {})


class TestVersioning:
    def test_missing_version_rejected(self):
        with pytest.raises(SchemaError, match="protocol version"):
            ServeRequest.from_frame("ping", {}, {})

    def test_future_version_rejected(self):
        with pytest.raises(SchemaError, match="speaks v1"):
            ServeRequest.from_frame("ping", {"v": 2}, {})

    def test_version_checked_before_op(self):
        # A frame that is wrong in two ways fails on the version first:
        # an incompatible peer must get the version error, not a
        # confusing op error.
        with pytest.raises(SchemaError, match="protocol version"):
            ServeRequest.from_frame("no_such_op", {"v": 99}, {})

    def test_encoded_requests_carry_version(self):
        op, meta, arrays = ServeRequest(op="ping").frame()
        assert meta["v"] == PROTOCOL_VERSION


class TestOpValidation:
    def test_unknown_op_did_you_mean(self):
        with pytest.raises(SchemaError, match="did you mean 'rank'"):
            _parse("rnak")

    def test_crowd_required_for_crowd_ops(self):
        for op in ("create", "drop", "add_answers", "rank", "top_k", "stats"):
            with pytest.raises(SchemaError, match="'crowd' is required"):
                _parse(op)

    def test_crowd_not_required_for_global_ops(self):
        for op in ("ping", "list", "server_stats", "shutdown"):
            assert _parse(op).op == op

    def test_request_id_echoed(self):
        request = _parse("ping", {"id": 42})
        assert request.request_id == 42
        frame = ok_frame(request, {"pong": True})
        assert frame[1]["id"] == 42
        assert frame[1]["op"] == "ping"


class TestCreateValidation:
    def test_round_trip(self):
        request = ServeRequest(op="create", crowd="quiz", num_items=10,
                               num_options=(2, 3, 4), exist_ok=True)
        parsed = ServeRequest.from_frame(*request.frame())
        assert parsed.crowd == "quiz"
        assert parsed.num_items == 10
        assert parsed.num_options == (2, 3, 4)
        assert parsed.exist_ok is True

    def test_num_items_must_be_positive(self):
        with pytest.raises(SchemaError, match="num_items"):
            _parse("create", {"crowd": "q", "num_items": 0})

    def test_num_options_rejects_mixed_list(self):
        with pytest.raises(SchemaError, match="num_options"):
            _parse("create", {"crowd": "q", "num_options": [2, "three"]})

    def test_bool_is_not_an_int(self):
        # JSON booleans are Python ints by subclassing; the schema must
        # not let `"num_items": true` sneak through as 1.
        with pytest.raises(SchemaError, match="num_items"):
            _parse("create", {"crowd": "q", "num_items": True})


class TestAnswerArrays:
    def _arrays(self, **overrides):
        arrays = {
            "users": np.array([0, 1], dtype=np.int64),
            "items": np.array([0, 0], dtype=np.int64),
            "options": np.array([1, 2], dtype=np.int64),
        }
        arrays.update(overrides)
        return arrays

    def test_valid_batch_parses(self):
        request = _parse("add_answers", {"crowd": "q"}, self._arrays())
        users, items, options = request.answers
        assert users.dtype == np.int64
        assert users.size == items.size == options.size == 2

    def test_missing_buffer(self):
        arrays = self._arrays()
        del arrays["options"]
        with pytest.raises(SchemaError, match="'options' array buffer"):
            _parse("add_answers", {"crowd": "q"}, arrays)

    def test_buffers_are_returned_as_received(self):
        """The schema checks presence only: the batch rule is the session's
        (``validate_answer_batch``), run where the batch is accepted."""
        arrays = self._arrays(users=np.array([0.5, 1.5]),
                              items=np.array([[0], [-1]]))
        request = _parse("add_answers", {"crowd": "q"}, arrays)
        for received, parsed in zip(
                (arrays["users"], arrays["items"], arrays["options"]),
                request.answers):
            assert parsed is received

    @pytest.mark.parametrize("users", [[0.5, 1], [np.inf, 1], [np.nan, 1]],
                             ids=["half", "inf", "nan"])
    def test_the_client_refuses_a_batch_the_session_would(self, users):
        """``frame()`` sends what ``validate_answer_batch`` returns, so a
        non-integer index is refused before anything is sent, never cast."""
        request = ServeRequest(op="add_answers", crowd="q",
                               answers=(users, [0, 0], [0, 0]))
        with pytest.raises(InvalidResponseMatrixError, match="integers"):
            request.frame()

    def test_the_client_sends_int64_columns(self):
        request = ServeRequest(op="add_answers", crowd="q",
                               answers=([0.0, 1.0], np.array([0, 1], np.int32),
                                        [1, 0]))
        _, _, arrays = request.frame()
        assert sorted(arrays) == ["items", "options", "users"]
        for name, values in (("users", [0, 1]), ("items", [0, 1]),
                             ("options", [1, 0])):
            assert arrays[name].dtype == np.int64
            np.testing.assert_array_equal(arrays[name], values)


class TestRankValidation:
    def test_unknown_method_did_you_mean(self):
        with pytest.raises(SchemaError, match="did you mean 'HnD'"):
            _parse("rank", {"crowd": "q", "method": "HnDD"})

    def test_supervised_method_rejected(self):
        with pytest.raises(SchemaError, match="supervised"):
            _parse("rank", {"crowd": "q", "method": "True-Answer"})

    def test_unknown_parameter_name(self):
        with pytest.raises(SchemaError, match="takes parameters"):
            _parse("rank", {"crowd": "q", "method": "HnD",
                            "params": {"bogus": 1}})

    def test_non_scalar_parameter_rejected(self):
        with pytest.raises(SchemaError, match="JSON scalar"):
            _parse("rank", {"crowd": "q", "method": "HnD",
                            "params": {"tolerance": [1, 2]}})

    def test_top_k_requires_count(self):
        with pytest.raises(SchemaError, match="'count' is required"):
            _parse("top_k", {"crowd": "q", "method": "HnD"})

    def test_round_trip(self):
        request = ServeRequest(op="top_k", crowd="q", method="HnD",
                               params={"random_state": 0}, count=5,
                               warm_start=True)
        parsed = ServeRequest.from_frame(*request.frame())
        assert parsed.params == {"random_state": 0}
        assert parsed.count == 5
        assert parsed.warm_start is True


class TestErrorFrames:
    def test_serve_error_code_on_wire(self):
        op, meta, arrays = error_frame(UnknownCrowdError("no such crowd"))
        assert op == "error"
        assert meta["code"] == "unknown_crowd"
        assert meta["etype"] == "UnknownCrowdError"
        assert arrays == {}

    def test_retry_after_rides_along(self):
        error = ServerOverloadedError("full", retry_after=0.25)
        _, meta, _ = error_frame(error)
        assert meta["code"] == "overloaded"
        assert meta["retry_after"] == 0.25

    def test_value_error_maps_to_bad_request(self):
        _, meta, _ = error_frame(ValueError("nope"))
        assert meta["code"] == "bad_request"

    def test_unexpected_error_maps_to_internal(self):
        _, meta, _ = error_frame(RuntimeError("boom"))
        assert meta["code"] == "internal"

    def test_request_context_echoed(self):
        request = _parse("rank", {"crowd": "q", "id": "r-1"})
        _, meta, _ = error_frame(RateLimitedError("slow down",
                                                  retry_after=1.5), request)
        assert meta["op"] == "rank"
        assert meta["id"] == "r-1"
        assert meta["retry_after"] == 1.5

    def test_response_round_trip(self):
        frame = error_frame(RateLimitedError("slow down", retry_after=2.0))
        response = ServeResponse.from_frame(*frame)
        assert not response.ok
        assert response.code == "rate_limited"
        assert response.retry_after == 2.0
        # ok path
        ok = ServeResponse.from_frame(*ok_frame(None, {"x": 1}))
        assert ok.ok and ok.meta["x"] == 1


class TestTokenBucket:
    def test_burst_then_steady_state(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: clock[0])
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token / 2 per second
        clock[0] += 0.5
        assert bucket.try_acquire() == 0.0
        assert bucket.granted == 4
        assert bucket.rejected == 1

    def test_refill_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: clock[0])
        clock[0] += 100.0  # a long idle refills to burst, not rate*elapsed
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0.0)

    def test_burst_floor_is_one_token(self):
        bucket = TokenBucket(rate=0.001, clock=lambda: 0.0)
        assert bucket.burst == 1.0
        assert bucket.try_acquire() == 0.0

    @pytest.mark.parametrize("burst", [0.0, -1.0, -0.5])
    def test_non_positive_burst_rejected(self, burst):
        # A burst <= 0 used to be silently floored to a 1-token bucket; a
        # nonsensical capacity is a loud configuration error now.
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=5.0, burst=burst, clock=lambda: 0.0)

    def test_explicit_fractional_burst_is_kept(self):
        # Positive sub-1.0 capacities are no longer floored either: the
        # documented contract is "used as given" for any explicit burst.
        bucket = TokenBucket(rate=5.0, burst=0.25, clock=lambda: 0.0)
        assert bucket.burst == 0.25
        assert bucket.try_acquire() > 0.0
