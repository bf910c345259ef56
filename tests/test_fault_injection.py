"""Fault injection at ingest: every corrupted input ends in a typed error.

Corrupt files on disk (truncated, zero-length, bit-flipped, junk bytes,
malformed rows, missing or mismatched archive members) make
:meth:`ResponseMatrix.load <repro.core.response.ResponseMatrix.load>` raise
:class:`~repro.exceptions.InvalidResponseMatrixError` naming the file
instead of returning wrong data or leaking a decoder's exception, and a
batch :class:`~repro.core.response.ResponseBuilder` rejects leaves the
builder exactly as it was.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.response import ResponseBuilder, ResponseMatrix
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
            ResponseMatrix.load(npz)

    @pytest.mark.parametrize("content", [b"", b"junk"],
                             ids=["zero-length", "junk-bytes"])
    def test_zero_length_or_junk_npz(self, saved, content):
        _, npz, _ = saved
        npz.write_bytes(content)
        with pytest.raises(InvalidResponseMatrixError,
                           match="not a readable NPZ archive") as caught:
            ResponseMatrix.load(npz)
        assert str(npz) in str(caught.value)

    def test_bit_flipped_npz_member(self, saved):
        """One flipped byte inside the users member: the decompressor or
        the zip CRC catches it; the reader surfaces a typed error."""
        _, npz, _ = saved
        data = bytearray(npz.read_bytes())
        index = data.index(b"users.npy") + 200  # inside the deflate stream
        data[index] ^= 0xFF
        npz.write_bytes(bytes(data))
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix.load(npz)

    @staticmethod
    def _assert_flips_caught_or_harmless(npz, matrix, positions):
        """Flip each byte at ``positions`` in turn: the load either raises
        the typed error or returns ``matrix``, never another exception and
        never a different matrix."""
        clean = npz.read_bytes()
        for index in positions:
            data = bytearray(clean)
            data[index] ^= 0xFF
            npz.write_bytes(bytes(data))
            try:
                loaded = ResponseMatrix.load(npz)
            except InvalidResponseMatrixError:
                continue
            assert loaded == matrix, "byte %d flipped silently" % index

    def test_every_flipped_byte_is_caught_or_harmless(self, tmp_path):
        matrix = ResponseMatrix.from_triples(
            [0, 0, 1, 2, 3], [0, 1, 1, 0, 1], [1, 0, 2, 2, 0],
            shape=(4, 2), num_options=3,
        )
        npz = tmp_path / "tiny.npz"
        matrix.save(npz)
        self._assert_flips_caught_or_harmless(
            npz, matrix, range(npz.stat().st_size)
        )

    def test_flipped_npy_header_byte_is_caught(self, tmp_path):
        """Once a member outgrows zipfile's read-ahead, numpy parses its NPY
        header before zipfile checks the CRC, so a garbled header reaches
        numpy's parser; that must be the typed error too."""
        answers = np.arange(2000)
        matrix = ResponseMatrix.from_triples(
            answers // 2, answers % 2, answers % 3,
            shape=(1000, 2), num_options=3,
        )
        users, items, options = matrix.triples
        npz = tmp_path / "stored.npz"
        np.savez(npz, users=users, items=items, options=options,
                 num_options=matrix.num_options, shape=np.array([1000, 2]))
        clean = npz.read_bytes()
        start = clean.index(b"{'descr'")
        self._assert_flips_caught_or_harmless(
            npz, matrix, range(start, clean.index(b"\n", start))
        )

    def test_mismatched_member_lengths(self, tmp_path):
        npz = tmp_path / "bad.npz"
        np.savez(npz,
                 users=np.zeros(10, dtype=np.int64),
                 items=np.zeros(7, dtype=np.int64),
                 options=np.zeros(10, dtype=np.int64),
                 num_options=np.array([2]),
                 shape=np.array([10, 1]))
        with pytest.raises(InvalidResponseMatrixError, match="equal lengths"):
            ResponseMatrix.load(npz)

    def test_missing_member(self, tmp_path):
        npz = tmp_path / "bad.npz"
        np.savez(npz, users=np.zeros(3, dtype=np.int64))
        with pytest.raises(InvalidResponseMatrixError, match="missing"):
            ResponseMatrix.load(npz)

    def test_non_integer_member_rejected(self, tmp_path):
        npz = tmp_path / "bad.npz"
        np.savez(npz,
                 users=np.full(4, 0.5),
                 items=np.zeros(4, dtype=np.int64),
                 options=np.zeros(4, dtype=np.int64),
                 num_options=np.array([2]),
                 shape=np.array([4, 1]))
        with pytest.raises(InvalidResponseMatrixError,
                           match=re.escape("%s: users must contain integers"
                                           % npz)):
            ResponseMatrix.load(npz)

    def test_scalar_num_options_member_rejected(self, tmp_path):
        npz = tmp_path / "bad.npz"
        np.savez(npz,
                 users=np.zeros(4, dtype=np.int64),
                 items=np.arange(4),
                 options=np.zeros(4, dtype=np.int64),
                 num_options=np.array(2),
                 shape=np.array([1, 4]))
        with pytest.raises(InvalidResponseMatrixError, match="malformed"):
            ResponseMatrix.load(npz)

    def test_mid_row_truncated_csv(self, saved):
        _, _, csv = saved
        text = csv.read_text()
        csv.write_text(text[:-3])  # cut inside the final triples row
        with pytest.raises(InvalidResponseMatrixError,
                           match="truncated or corrupt"):
            ResponseMatrix.load(csv)

    def test_two_column_row_csv(self, saved):
        _, _, csv = saved
        with csv.open("a", encoding="utf-8") as handle:
            handle.write("5,1\n")
        with pytest.raises(InvalidResponseMatrixError,
                           match="truncated or corrupt"):
            ResponseMatrix.load(csv)

    def test_all_two_column_rows_csv(self, saved):
        matrix, _, csv = saved
        users, items, _ = matrix.triples
        lines = csv.read_text().splitlines()[:2]
        lines += ["%d,%d" % pair for pair in zip(users, items)]
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidResponseMatrixError,
                           match="must have 3 columns") as caught:
            ResponseMatrix.load(csv)
        assert str(csv) in str(caught.value)

    def test_stray_text_row_csv(self, saved):
        _, _, csv = saved
        with csv.open("a", encoding="utf-8") as handle:
            handle.write("not,a,row?\n")
        with pytest.raises(InvalidResponseMatrixError,
                           match="malformed triples row"):
            ResponseMatrix.load(csv)

    def test_clean_files_still_round_trip(self, saved):
        matrix, npz, csv = saved
        for path in (npz, csv):
            loaded = ResponseMatrix.load(path)
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
