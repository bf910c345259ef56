"""Tests for the out-of-core chunked ingestion readers (PR 3).

Pins the streaming edge cases the ISSUE names: chunk boundaries that split
one user's answers, empty chunks, unsorted chunk order, plus format errors
and the end-to-end ``load_streaming`` equivalences.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.response import ResponseMatrix
from repro.engine import (
    build_from_chunks,
    iter_triples_csv,
    iter_triples_npz,
    load_streaming,
    read_csv_header,
    read_npz_metadata,
)
from repro.exceptions import InvalidResponseMatrixError


@pytest.fixture(scope="module")
def saved_crowd(tmp_path_factory):
    """A deterministic sparse crowd saved in both formats."""
    rng = np.random.default_rng(21)
    mask = rng.random((120, 40)) < 0.4
    users, items = np.nonzero(mask)
    options = rng.integers(0, 4, size=users.size)
    response = ResponseMatrix.from_triples(
        users, items, options, shape=(120, 40), num_options=4
    )
    root = tmp_path_factory.mktemp("saved_crowd")
    npz = root / "crowd.npz"
    csv = root / "crowd.csv"
    response.save(npz)
    response.save(csv)
    return response, npz, csv


class TestChunkReaders:
    @pytest.mark.parametrize("chunk_size", [1, 7, 1000, 10**6])
    def test_npz_chunks_reassemble_the_triples(self, saved_crowd, chunk_size):
        response, npz, _ = saved_crowd
        chunks = list(iter_triples_npz(npz, chunk_size=chunk_size))
        users = np.concatenate([c[0] for c in chunks])
        items = np.concatenate([c[1] for c in chunks])
        options = np.concatenate([c[2] for c in chunks])
        expected = response.triples
        np.testing.assert_array_equal(users, expected[0])
        np.testing.assert_array_equal(items, expected[1])
        np.testing.assert_array_equal(options, expected[2])
        if chunk_size < response.num_answers:
            assert len(chunks) > 1
            assert all(c[0].size <= chunk_size for c in chunks)

    @pytest.mark.parametrize("chunk_size", [1, 13, 10**6])
    def test_csv_chunks_reassemble_the_triples(self, saved_crowd, chunk_size):
        response, _, csv = saved_crowd
        chunks = list(iter_triples_csv(csv, chunk_size=chunk_size))
        users = np.concatenate([c[0] for c in chunks])
        np.testing.assert_array_equal(users, response.triples[0])

    def test_chunk_boundary_splits_a_users_answers(self, saved_crowd):
        """A user answering more items than the chunk size must still load."""
        response, npz, _ = saved_crowd
        max_answers = int(response.answers_per_user.max())
        assert max_answers > 3  # the fixture guarantees multi-answer users
        chunk_size = 3
        rebuilt = load_streaming(npz, chunk_size=chunk_size)
        assert rebuilt == response
        # And the chunks really did split at least one user across chunks.
        boundary_users = set()
        previous_last = None
        for users, _, _ in iter_triples_npz(npz, chunk_size=chunk_size):
            if previous_last is not None and users.size and users[0] == previous_last:
                boundary_users.add(int(users[0]))
            if users.size:
                previous_last = int(users[-1])
        assert boundary_users

    def test_metadata_readers(self, saved_crowd):
        response, npz, csv = saved_crowd
        for reader, path in ((read_npz_metadata, npz), (read_csv_header, csv)):
            m, n, per_item = reader(path)
            assert (m, n) == (response.num_users, response.num_items)
            np.testing.assert_array_equal(per_item, response.num_options)

    def test_bad_chunk_size_rejected(self, saved_crowd):
        _, npz, csv = saved_crowd
        with pytest.raises(ValueError, match="chunk_size"):
            next(iter_triples_npz(npz, chunk_size=0))
        with pytest.raises(ValueError, match="chunk_size"):
            next(iter_triples_csv(csv, chunk_size=0))

    def test_non_matrix_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(InvalidResponseMatrixError, match="not a ResponseMatrix"):
            list(iter_triples_npz(path))
        with pytest.raises(InvalidResponseMatrixError, match="not a ResponseMatrix"):
            read_npz_metadata(path)

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
            list(iter_triples_npz(path))

    def test_bad_csv_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user,item,option\n0,0,0\n")
        with pytest.raises(InvalidResponseMatrixError, match="bad header"):
            read_csv_header(path)
        with pytest.raises(InvalidResponseMatrixError, match="bad header"):
            list(iter_triples_csv(path))


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
        response = build_from_chunks(chunks, shape=(2, 2), num_options=3)
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
        a = build_from_chunks(sorted_chunks, shape=(3, 2), num_options=3)
        b = build_from_chunks(shuffled_chunks, shape=(3, 2), num_options=3)
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_duplicate_answer_across_chunks_rejected(self):
        chunks = [
            (np.array([0]), np.array([0]), np.array([1])),
            (np.array([0]), np.array([0]), np.array([2])),
        ]
        with pytest.raises(InvalidResponseMatrixError, match="more than once"):
            build_from_chunks(chunks, shape=(1, 1), num_options=3)

    def test_no_chunks_rejected(self):
        with pytest.raises(InvalidResponseMatrixError, match="no answers"):
            build_from_chunks([], shape=(2, 2), num_options=2)

    def test_shape_declares_trailing_empty_users(self):
        chunks = [(np.array([0]), np.array([0]), np.array([0]))]
        response = build_from_chunks(chunks, shape=(5, 3), num_options=2)
        assert response.num_users == 5
        assert response.num_items == 3


class TestEndToEnd:
    @pytest.mark.parametrize("which", ["npz", "csv"])
    @pytest.mark.parametrize("chunk_size", [11, 4096])
    def test_load_streaming_equals_load(self, saved_crowd, which, chunk_size):
        response, npz, csv = saved_crowd
        path = npz if which == "npz" else csv
        streamed = load_streaming(path, chunk_size=chunk_size)
        assert streamed == response
        assert streamed.content_hash() == response.content_hash()
        assert streamed == ResponseMatrix.load(path)

    def test_load_streaming_rejects_unknown_extension(self, tmp_path):
        path = tmp_path / "crowd.parquet"
        path.write_text("nope")
        with pytest.raises(ValueError, match="unsupported extension"):
            load_streaming(path)
