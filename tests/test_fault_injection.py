"""Fault injection at ingest: every corrupted input ends in a typed error.

Corrupt files on disk (truncated, bit-flipped, malformed rows, missing or
mismatched archive members) make the streaming readers raise
:class:`~repro.exceptions.InvalidResponseMatrixError` instead of yielding
wrong data, and a batch :class:`~repro.core.response.ResponseBuilder`
rejects leaves the builder exactly as it was.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.response import ResponseBuilder, ResponseMatrix
from repro.engine import iter_triples_csv, iter_triples_npz, load_streaming
from repro.exceptions import InvalidResponseMatrixError


@pytest.fixture()
def saved(tmp_path):
    """A fresh crowd saved in both formats, for one test to corrupt."""
    rng = np.random.default_rng(11)
    users, items = np.nonzero(rng.random((200, 20)) < 0.3)
    options = rng.integers(0, 3, size=users.size)
    matrix = ResponseMatrix.from_triples(
        users, items, options, shape=(200, 20), num_options=3
    )
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
