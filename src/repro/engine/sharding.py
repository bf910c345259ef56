"""User-range sharding of the canonical answer triples.

The canonical state of a :class:`~repro.core.response.ResponseMatrix` is the
flat ``(user, item, option)`` triples in user-major order, so partitioning
the *users* into contiguous ranges partitions the *answers* into contiguous
slices — a :class:`ResponseShard` is three zero-copy views plus two user
boundaries, and :meth:`ShardedResponse.split` costs ``O(num_shards log nnz)``
regardless of data size.

Round-trip guarantee: ``ShardedResponse.from_shards(sharded.shards)``
rebuilds a matrix equal (and hash-equal) to the original, because the shard
slices concatenate back to exactly the canonical arrays.

Determinism model (what makes shard-parallel kernels bit-identical)
-------------------------------------------------------------------
The ranking kernels reduce per-answer contributions into either *per-user*
or *per-item* outputs:

* **per-user** outputs (user trust sums, confusion-matrix rows, agreement
  counts) touch disjoint rows per shard — shards compute their final rows
  independently and the reduce step is concatenation, which involves no
  floating-point arithmetic at all;
* **per-item integer** statistics (option histograms) reduce by summing
  partial histograms — exact, because integer addition is associative;
* **per-item float** reductions are *not* reassociated: shards gather their
  per-answer contributions in parallel (the ``O(nnz)`` gather is the bulk of
  the work) and the reduce performs one sequential ``bincount`` scatter over
  the canonical answer order — the same accumulation order SciPy's CSR/CSC
  kernels use — so the result is independent of the shard count.

:class:`~repro.engine.remote.RemoteEngine` runs its kernels on this model.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.response import ResponseMatrix
from repro.exceptions import InvalidResponseMatrixError


class ResponseShard:
    """A contiguous user-range slice of canonical answer triples.

    Attributes
    ----------
    users, items, options:
        Zero-copy views of the parent's canonical triple arrays restricted
        to this shard's answers (``users`` keeps *global* user ids).
    user_start, user_stop:
        The shard owns users in ``[user_start, user_stop)``; empty ranges
        (and ranges whose users answered nothing) are legal.
    """

    __slots__ = ("users", "items", "options", "user_start", "user_stop")

    def __init__(
        self,
        users: np.ndarray,
        items: np.ndarray,
        options: np.ndarray,
        user_start: int,
        user_stop: int,
    ) -> None:
        self.users = users
        self.items = items
        self.options = options
        self.user_start = int(user_start)
        self.user_stop = int(user_stop)

    @property
    def num_users(self) -> int:
        """Number of user rows this shard owns (answered or not)."""
        return self.user_stop - self.user_start

    @property
    def num_answers(self) -> int:
        return int(self.users.size)

    @property
    def local_users(self) -> np.ndarray:
        """User ids rebased to this shard's row block (``O(batch)`` copy)."""
        return self.users - np.int64(self.user_start)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ResponseShard(users=[%d, %d), num_answers=%d)" % (
            self.user_start, self.user_stop, self.num_answers,
        )


class ShardedResponse:
    """A :class:`ResponseMatrix` partitioned into user-range shards.

    Holds the global canonical arrays (zero-copy references to the source
    matrix's state), the shard boundaries, and the derived statistics the
    shard kernels share (answer columns, per-user / per-column counts and
    their zero-safe inverses).  Those are read straight off the source's
    :class:`~repro.core.response.CompiledResponse`, so the remote and fused
    backends scale by the very same arrays.

    Parameters
    ----------
    response:
        The source matrix.  Use :meth:`split` rather than calling this
        directly.
    boundaries:
        User cut points ``0 = b_0 <= b_1 <= ... <= b_S = m``.
    """

    def __init__(
        self,
        response: ResponseMatrix,
        boundaries: Sequence[int],
    ) -> None:
        users, items, options = response.triples
        boundaries = np.asarray(boundaries, dtype=np.int64)
        if boundaries.ndim != 1 or boundaries.size < 2:
            raise ValueError("boundaries must hold at least [0, num_users]")
        if boundaries[0] != 0 or boundaries[-1] != response.num_users:
            raise ValueError(
                "boundaries must start at 0 and end at num_users=%d, got %s"
                % (response.num_users, boundaries)
            )
        if np.any(np.diff(boundaries) < 0):
            raise ValueError("boundaries must be non-decreasing")
        self.source = response
        self.boundaries = boundaries
        # Answer-space cut points: user-major order makes each user range a
        # contiguous slice of the triples.
        cuts = np.searchsorted(users, boundaries, side="left")
        self.answer_cuts = cuts
        self.shards: List[ResponseShard] = [
            ResponseShard(
                users[cuts[index]:cuts[index + 1]],
                items[cuts[index]:cuts[index + 1]],
                options[cuts[index]:cuts[index + 1]],
                boundaries[index],
                boundaries[index + 1],
            )
            for index in range(boundaries.size - 1)
        ]

    # ------------------------------------------------------------------ #
    # Construction / reassembly
    # ------------------------------------------------------------------ #
    @classmethod
    def split(
        cls,
        response: ResponseMatrix,
        num_shards: int,
    ) -> "ShardedResponse":
        """Partition ``response`` into ``num_shards`` user-range shards.

        Boundaries are chosen so shards carry near-equal *answer* counts
        (the kernels' work is ``O(answers)``, not ``O(users)``): the user
        owning every ``nnz * s / S``-th answer starts shard ``s``.  Skewed
        crowds can therefore produce empty shards — they are legal and the
        kernels treat them as no-ops.
        """
        num_shards = int(num_shards)
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1, got %d" % num_shards)
        users, _, _ = response.triples
        num_shards = min(num_shards, response.num_users)
        targets = (np.arange(1, num_shards) * users.size) // num_shards
        interior = users[targets] if targets.size else np.empty(0, dtype=np.int64)
        boundaries = np.concatenate(
            [[0], np.maximum.accumulate(interior), [response.num_users]]
        )
        return cls(response, boundaries)

    @classmethod
    def from_shards(
        cls,
        shards: Sequence[ResponseShard],
        *,
        shape: tuple,
        num_options,
    ) -> "ShardedResponse":
        """Reassemble shards into a sharded matrix (the ``split`` inverse).

        The shards must tile ``[0, shape[0])`` consecutively.  The rebuilt
        :class:`ResponseMatrix` revalidates through ``from_triples`` — the
        concatenated slices are already canonical, so the sorted ``O(nnz)``
        fast path applies and the result is equal (and hash-equal) to the
        matrix the shards were split from.
        """
        if not shards:
            raise InvalidResponseMatrixError("from_shards needs at least one shard")
        expected = 0
        for shard in shards:
            if shard.user_start != expected:
                raise InvalidResponseMatrixError(
                    "shards must tile the user range consecutively: expected "
                    "a shard starting at %d, got [%d, %d)"
                    % (expected, shard.user_start, shard.user_stop)
                )
            expected = shard.user_stop
        if expected != int(shape[0]):
            raise InvalidResponseMatrixError(
                "shards cover users [0, %d) but shape declares %d users"
                % (expected, int(shape[0]))
            )
        matrix = ResponseMatrix.from_triples(
            np.concatenate([shard.users for shard in shards]),
            np.concatenate([shard.items for shard in shards]),
            np.concatenate([shard.options for shard in shards]),
            shape=(int(shape[0]), int(shape[1])),
            num_options=num_options,
        )
        boundaries = [0] + [shard.user_stop for shard in shards]
        return cls(matrix, boundaries)

    def to_matrix(self) -> ResponseMatrix:
        """The source matrix (shards are views of it — nothing to rebuild)."""
        return self.source

    # ------------------------------------------------------------------ #
    # Shape and shared kernel state
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_users(self) -> int:
        return self.source.num_users

    @property
    def num_items(self) -> int:
        return self.source.num_items

    @property
    def num_answers(self) -> int:
        return self.source.num_answers

    @property
    def max_options(self) -> int:
        return self.source.max_options

    @property
    def column_offsets(self) -> np.ndarray:
        return self.source.column_offsets

    @property
    def num_columns(self) -> int:
        return int(self.column_offsets[-1])

    @property
    def columns(self) -> np.ndarray:
        """Binary-column id of each answer (global, user-major)."""
        return self.source.compiled.column_index

    @property
    def answers_per_user(self) -> np.ndarray:
        return self.source.compiled.answers_per_user

    @property
    def inv_answers_per_user(self) -> np.ndarray:
        return self.source.compiled.inv_answers_per_user

    @property
    def inv_column_counts(self) -> np.ndarray:
        return self.source.compiled.inv_column_counts
