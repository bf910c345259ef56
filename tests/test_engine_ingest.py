"""Tests for reading saved triples files and building from answer chunks.

``ResponseMatrix.load`` rejects foreign or malformed files with a typed
error; a :class:`ResponseBuilder` fed answer chunks (empty, unsorted,
conflicting, or leaving trailing users unanswered) builds the canonical
matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.response import ResponseBuilder, ResponseMatrix
from repro.exceptions import InvalidResponseMatrixError


def _build(chunks, shape, num_options):
    """Feed ``chunks`` through a builder declaring ``shape`` up front."""
    builder = ResponseBuilder(num_items=shape[1], num_options=num_options)
    for users, items, options in chunks:
        builder.add_answers(users, items, options)
    return builder.build(num_users=shape[0])


class TestChunkReaders:
    def test_non_matrix_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(InvalidResponseMatrixError, match="not a ResponseMatrix"):
            ResponseMatrix.load(path)

    def test_float_npz_members_rejected_not_truncated(self, tmp_path):
        """Foreign archives with float triples must error, never truncate."""
        path = tmp_path / "foreign.npz"
        np.savez(
            path,
            users=np.array([0.0, 1.0]),
            items=np.array([0.0, 0.2]),
            options=np.array([1.9, 0.0]),
            num_options=np.array([2]),
            shape=np.array([2, 1]),
        )
        with pytest.raises(InvalidResponseMatrixError, match="integer"):
            ResponseMatrix.load(path)

    def test_bad_csv_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user,item,option\n0,0,0\n")
        with pytest.raises(InvalidResponseMatrixError, match="bad header"):
            ResponseMatrix.load(path)


class TestBuildFromChunks:
    def test_empty_chunks_are_noops(self):
        empty = (np.empty(0, dtype=np.int64),) * 3
        chunks = [
            empty,
            (np.array([0, 0]), np.array([0, 1]), np.array([1, 2])),
            empty,
            (np.array([1]), np.array([0]), np.array([0])),
            empty,
        ]
        response = _build(chunks, shape=(2, 2), num_options=3)
        assert response.num_answers == 3
        assert response.num_users == 2

    def test_unsorted_chunk_order_is_canonicalized(self):
        """Chunks arriving out of user order build the same matrix."""
        sorted_chunks = [
            (np.array([0, 0]), np.array([0, 1]), np.array([1, 0])),
            (np.array([1, 2]), np.array([1, 0]), np.array([2, 1])),
        ]
        shuffled_chunks = [
            (np.array([2, 1]), np.array([0, 1]), np.array([1, 2])),
            (np.array([0, 0]), np.array([1, 0]), np.array([0, 1])),
        ]
        a = _build(sorted_chunks, shape=(3, 2), num_options=3)
        b = _build(shuffled_chunks, shape=(3, 2), num_options=3)
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_duplicate_answer_across_chunks_rejected(self):
        chunks = [
            (np.array([0]), np.array([0]), np.array([1])),
            (np.array([0]), np.array([0]), np.array([2])),
        ]
        with pytest.raises(InvalidResponseMatrixError, match="more than once"):
            _build(chunks, shape=(1, 1), num_options=3)

    def test_no_chunks_rejected(self):
        with pytest.raises(InvalidResponseMatrixError, match="no answers"):
            _build([], shape=(2, 2), num_options=2)

    def test_shape_declares_trailing_empty_users(self):
        chunks = [(np.array([0]), np.array([0]), np.array([0]))]
        response = _build(chunks, shape=(5, 3), num_options=2)
        assert response.num_users == 5
        assert response.num_items == 3


class TestEndToEnd:
    def test_load_rejects_unknown_extension(self, tmp_path):
        path = tmp_path / "crowd.parquet"
        path.write_text("nope")
        with pytest.raises(ValueError, match="unsupported extension"):
            ResponseMatrix.load(path)
