"""Triples-native response storage for heterogeneous multiclass classification.

The paper represents user answers in two equivalent forms (Figure 1b): the
raw ``(m x n)`` *choice matrix* ``C'`` whose entry ``(j, i)`` is the option
user ``j`` picked for item ``i``, and the one-hot ``(m x kn)`` *binary
response matrix* ``C``.  Because each user answers each item at most once,
both are functions of the flat answer triples ``(user, item, option)`` —
and at crowd scale the triples are the only form that fits in memory: a
500k-user x 20k-item workload at 0.1% density has ~10M answers but a ~80 GB
dense choice matrix.

Storage model
-------------
:class:`ResponseMatrix` therefore stores the **triples as its canonical
state**: three parallel integer arrays ``(user_index, item_index,
option_index)`` in canonical user-major order (sorted by ``(user, item)``),
plus the shape ``(m, n)`` and the per-item option counts.  One dtype rule
holds for every path that installs triples: each array is ``int32`` when
its bound fits in ``int32`` and ``int64`` otherwise, the bounds being
``m`` for the users, ``n`` for the items and the largest option count for
the options.  Below ``2**31`` users and items an answer costs 12 bytes.
Everything else is a derived view:

* the dense choice matrix and the dense answered mask are **lazily
  materialized caches** (:attr:`choices`, :attr:`answered_mask`) that only
  small-scale consumers — tests, the ``reference.py`` oracles, explicit
  dense exports — ever touch; every production code path works on the
  triples, and sparse-scale workloads never allocate ``(m, n)`` state;
* the :class:`CompiledResponse` kernel cache (:attr:`compiled`) builds the
  binary CSR matrix, its zero-copy CSC transpose, and the per-user /
  per-column counts and inverses **once per matrix** in ``O(nnz)``;
* ``C_row`` / ``C_col`` reuse the binary matrix's index structure and only
  swap the data vector, so normalization costs ``O(nnz)`` array writes.

Construction paths
------------------
* :meth:`ResponseMatrix.from_triples` — the primary constructor: full
  ``O(nnz)`` validation (``O(nnz log nnz)`` only when the input is not
  already user-major sorted), never builds dense state.
* ``ResponseMatrix(choices)`` — dense ingestion for small data; validates
  the array, extracts the triples, and keeps the validated dense copy as
  the pre-populated view cache.
* :meth:`ResponseMatrix.from_binary` — one-hot ingestion (dense or sparse),
  routed through :meth:`from_triples`.
* :class:`ResponseBuilder` — incremental ingestion: append answer batches
  or whole users, then :meth:`ResponseBuilder.build`, which sorts only
  the answers appended since its last build, checks only what they can
  break and merges them into that build's canonical triples: ``O(b log
  nnz)`` work over the new answers and the base answers of the users they
  touch, plus ``O(nnz)`` array copies for ``b`` new answers.  The merged
  matrix derives its content digest and compiled kernels from the last
  build's in ``O(b)`` plus copies.
* :meth:`ResponseMatrix.save` / :meth:`ResponseMatrix.load` — NPZ or CSV
  round-trip of the canonical triples; saved matrices reload through the
  sorted fast path, so no ``O(nnz log nnz)`` re-sort is paid.  ``load``
  is the one reader of triples files: a truncated, bit-damaged or foreign
  file raises :class:`~repro.exceptions.InvalidResponseMatrixError` naming
  the path, never a decoder's own exception.

All transforms (:meth:`subset_users`, :meth:`subset_items`,
:meth:`permute_users`, :meth:`drop_unanswered_items`) are ``O(nnz)`` /
``O(nnz log nnz)`` gathers on the triples and never densify.
"""

from __future__ import annotations

import hashlib
import re
import threading
import tokenize
import zipfile
import zlib
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import DisconnectedGraphError, InvalidResponseMatrixError

#: Sentinel used in the raw choice matrix for "user did not answer this item".
NO_ANSWER = -1

#: First header line of the CSV serialization format.
_CSV_HEADER_RE = re.compile(
    r"#\s*repro-response-matrix\s+v1\s+m=(\d+)\s+n=(\d+)\s+num_options=([\d,]+)\s*$"
)

#: The members :meth:`ResponseMatrix.save` writes to an NPZ archive.
_NPZ_MEMBERS = ("users", "items", "options", "num_options", "shape")

#: Names the digest :meth:`ResponseMatrix.content_hash` computes, so a
#: record that stores a digest can say which one it holds.
CONTENT_DIGEST = "blake2b-16/leaves-16"

#: Users per leaf of the content digest: a constant of the digest.
_LEAF_USERS = 16
_LEAF_PERSON = b"repro-leaf"
_ROOT_PERSON = b"repro-root"
_EMPTY_LEAF = hashlib.blake2b(digest_size=16, person=_LEAF_PERSON).digest()
#: The most answers the content digest widens to ``int64`` at a time.
_WIDEN_ANSWERS = 1 << 16


def _index_dtype(bound: int) -> np.dtype:
    """``int32`` when every index below ``bound`` fits in it, else ``int64``."""
    return np.dtype(np.int32 if bound <= 1 << 31 else np.int64)

#: What zipfile, zlib and numpy's NPY reader raise on a truncated,
#: bit-damaged or foreign archive once the file itself has opened.
_NPZ_DECODE_ERRORS = (
    zipfile.BadZipFile, zlib.error, EOFError, ValueError, OSError,
    NotImplementedError, tokenize.TokenError,
)


def _read_npz(path: Path) -> tuple:
    """``(triples, shape, num_options)`` from an archive :meth:`save` wrote."""
    with path.open("rb") as handle:  # a missing file stays an OSError
        try:
            with np.lib.npyio.NpzFile(handle) as payload:
                missing = [name for name in _NPZ_MEMBERS
                           if name not in payload.files]
                if missing:
                    raise InvalidResponseMatrixError(
                        "%s is not a ResponseMatrix archive (missing %s)"
                        % (path, ", ".join(missing))
                    )
                users, items, options, per_item, shape = (
                    payload[name] for name in _NPZ_MEMBERS
                )
        except _NPZ_DECODE_ERRORS as err:
            raise InvalidResponseMatrixError(
                "%s is not a readable NPZ archive (truncated or corrupt): %s"
                % (path, err)
            ) from err
    if shape.shape != (2,) or per_item.ndim != 1:
        raise InvalidResponseMatrixError(
            "%s has a malformed shape %r or num_options %r member"
            % (path, shape, per_item)
        )
    return (users, items, options), shape, per_item


def _read_csv(path: Path) -> tuple:
    """``(triples, shape, num_options)`` from a CSV :meth:`save` wrote."""
    with path.open("r", encoding="utf-8") as handle:  # likewise
        try:
            header = handle.readline().strip()
            match = _CSV_HEADER_RE.match(header)
            if match is None:
                raise InvalidResponseMatrixError(
                    "%s is not a repro-response-matrix CSV (bad header %r)"
                    % (path, header)
                )
            handle.readline()  # column-name line
            table = np.loadtxt(handle, dtype=np.int64, delimiter=",", ndmin=2)
        except ValueError as err:  # a bad row, or bytes that are not UTF-8
            raise InvalidResponseMatrixError(
                "%s: malformed triples row (truncated or corrupt CSV?): %s"
                % (path, err)
            ) from err
    if table.size == 0:
        table = table.reshape(0, 3)
    if table.shape[1] != 3:
        raise InvalidResponseMatrixError(
            "%s: triples rows must have 3 columns (user,item,option), found "
            "%d (truncated or corrupt CSV?)" % (path, table.shape[1])
        )
    per_item = np.array([int(k) for k in match.group(3).split(",")], dtype=int)
    shape = (int(match.group(1)), int(match.group(2)))
    return (table[:, 0], table[:, 1], table[:, 2]), shape, per_item


class CompiledResponse:
    """Flat ``O(nnz)`` kernel representation of a :class:`ResponseMatrix`.

    Built once per matrix (see :attr:`ResponseMatrix.compiled`) from the
    canonical user-major answer triples and shared by every ranker.  Holds
    the binary CSR matrix, its zero-copy transpose, and the per-user /
    per-column counts with their (zero-safe) inverses.  A matrix that a
    :class:`ResponseBuilder` merged from a compiled base passes ``merge``:
    the batch's columns are inserted into the base's CSR indices at the
    merge's insertion points and only the batch is counted, which gives
    the arrays a from-scratch compile would, bit for bit.

    Attributes
    ----------
    binary:
        The one-hot ``(m x K)`` response matrix ``C`` in CSR form,
        ``K = sum_i k_i``.
    binary_t:
        ``C^T`` as a ``(K x m)`` CSC matrix sharing ``binary``'s data and
        index arrays (CSR of ``A`` and CSC of ``A^T`` have identical
        memory layouts, so the transpose costs nothing).
    answers_per_user, answers_per_item, column_counts:
        Nonzero counts per user row, item, and binary column.
    inv_answers_per_user, inv_column_counts:
        Elementwise inverses with ``1/0 -> 0`` — exactly the diagonal
        scalings of the paper's ``C_row`` and ``C_col`` normalizations.
    column_item:
        Item index of every binary column (length ``K``).
    """

    __slots__ = (
        "num_users",
        "num_items",
        "num_columns",
        "column_offsets",
        "binary",
        "binary_t",
        "answers_per_user",
        "answers_per_item",
        "column_counts",
        "inv_answers_per_user",
        "inv_column_counts",
        "column_item",
        "_user_index",
        "_item_index",
        "_option_index",
        "_item_order",
        "_item_ptr",
    )

    def __init__(
        self,
        users: np.ndarray,
        items: np.ndarray,
        options: np.ndarray,
        num_users: int,
        num_items: int,
        column_offsets: np.ndarray,
        merge: Optional[_Merge] = None,
    ) -> None:
        num_columns = int(column_offsets[-1])
        nnz = users.size
        self.num_users = num_users
        self.num_items = num_items
        self.num_columns = num_columns
        self.column_offsets = column_offsets

        index_dtype = (
            np.int32
            if max(num_columns, num_users, nnz) < np.iinfo(np.int32).max
            else np.int64
        )
        # Column id of every answer.  The triples are canonical user-major
        # (rows ascending, items — hence columns — sorted within each row),
        # which *is* canonical CSR order.
        starts = np.asarray(column_offsets[:-1])
        widths = np.diff(column_offsets)
        base = None if merge is None else merge.compiled
        if base is not None and base.binary.indices.dtype == index_dtype \
                and np.array_equal(base.column_offsets, column_offsets):
            # ``merge`` inserted its answers into the base's triples at
            # ``merge.at``; their columns go to the same places in the
            # base's CSR indices, and only they are counted.
            added = (starts[merge.items] + merge.options).astype(index_dtype, copy=False)
            indices = np.insert(base.binary.indices, merge.at, added)
            answers_per_user = np.bincount(merge.users, minlength=num_users)
            kept = min(num_users, base.num_users)
            answers_per_user[:kept] += base.answers_per_user[:kept]
            answers_per_item = base.answers_per_item + np.bincount(
                merge.items, minlength=num_items)
            column_counts = base.column_counts + np.bincount(
                added, minlength=num_columns)
        else:
            indices = starts.astype(index_dtype)[items]
            indices += options
            # Each user's answers are one run of the sorted users, and an
            # item's are the sum of its columns' counts: neither needs a
            # bincount of its own.
            runs = np.flatnonzero(users[1:] != users[:-1]) + 1
            runs = np.concatenate(([0], runs, [nnz]))
            answers_per_user = np.zeros(num_users, dtype=np.intp)
            answers_per_user[users[runs[:-1]]] = np.diff(runs)
            column_counts = np.bincount(indices, minlength=num_columns)
            answers_per_item = np.add.reduceat(column_counts, starts)
        self.answers_per_user = answers_per_user
        self.answers_per_item = answers_per_item
        indptr = np.zeros(num_users + 1, dtype=index_dtype)
        np.cumsum(answers_per_user, out=indptr[1:])
        data = np.ones(indices.size, dtype=float)
        # Assign the arrays directly instead of going through the
        # (data, indices, indptr) constructor, which copies data/indices;
        # the triple is canonical CSR by construction (see above), and both
        # matrices genuinely share one set of arrays this way.
        self.binary = sp.csr_matrix((num_users, num_columns), dtype=float)
        self.binary.data, self.binary.indices, self.binary.indptr = data, indices, indptr
        self.binary_t = sp.csc_matrix((num_columns, num_users), dtype=float)
        self.binary_t.data, self.binary_t.indices, self.binary_t.indptr = data, indices, indptr
        # The shared triple also backs every normalized form derived from
        # it; freeze it so an in-place edit on a returned matrix cannot
        # silently corrupt the per-matrix cache.
        for array in (data, indices, indptr):
            array.flags.writeable = False

        self.column_counts = column_counts
        self.inv_answers_per_user = _safe_inverse(answers_per_user)
        self.inv_column_counts = _safe_inverse(self.column_counts)
        self.column_item = np.repeat(np.arange(num_items), widths.astype(int))

        self._user_index = users
        self._item_index = items
        self._option_index = options
        self._item_order: Optional[np.ndarray] = None
        self._item_ptr: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Flat triple arrays (the EM baselines scatter/gather on these)
    # ------------------------------------------------------------------ #
    @property
    def num_nonzero(self) -> int:
        """Total number of answers (nonzeros of the binary matrix)."""
        return int(self.binary.indices.size)

    @property
    def column_index(self) -> np.ndarray:
        """Binary-column id of each answer, in user-major order."""
        return self.binary.indices

    @property
    def user_index(self) -> np.ndarray:
        """User id of each answer, in user-major order (canonical state)."""
        return self._user_index

    @property
    def item_index(self) -> np.ndarray:
        """Item id of each answer, aligned with :attr:`user_index`."""
        return self._item_index

    @property
    def option_index(self) -> np.ndarray:
        """Chosen option of each answer, aligned with :attr:`user_index`."""
        return self._option_index

    @property
    def item_order(self) -> np.ndarray:
        """Stable permutation reordering the answers item-major.

        ``user_index[item_order]`` groups the answers by item with users
        ascending inside each group — the gather order that per-item
        consumers (the GRM estimator, :meth:`ResponseMatrix.subset_items`)
        slice with ``cumsum(answers_per_item)``.  Lazy, cached.
        """
        if self._item_order is None:
            self._item_order = np.argsort(self._item_index, kind="stable")
        return self._item_order

    @property
    def user_ptr(self) -> np.ndarray:
        """Slice boundaries of each user's answers in user-major order.

        User ``u``'s answers occupy ``[user_ptr[u], user_ptr[u+1])`` of the
        triple arrays — this is exactly the binary CSR ``indptr``.
        """
        return self.binary.indptr

    @property
    def item_ptr(self) -> np.ndarray:
        """Slice boundaries of each item's answers in :attr:`item_order`.

        Item ``i``'s answers occupy ``item_order[item_ptr[i]:item_ptr[i+1]]``.
        Lazy, cached.
        """
        if self._item_ptr is None:
            self._item_ptr = np.concatenate(
                [[0], np.cumsum(self.answers_per_item)]
            )
        return self._item_ptr

    # ------------------------------------------------------------------ #
    # O(nnz) kernels
    # ------------------------------------------------------------------ #
    def option_sums(self, user_values: np.ndarray) -> np.ndarray:
        """``C^T v``: sum of ``user_values`` over the users picking each column."""
        return self.binary_t @ np.asarray(user_values, dtype=float)

    def user_sums(self, option_values: np.ndarray) -> np.ndarray:
        """``C v``: sum of ``option_values`` over each user's picked columns."""
        return self.binary @ np.asarray(option_values, dtype=float)

    def avghits_apply(self, scores: np.ndarray) -> np.ndarray:
        """Fused AVGHITS update ``s -> C_row ((C_col)^T s)`` in ``O(nnz)``.

        The normalizations are folded into two tiny diagonal scalings
        (length ``K`` and ``m``) around the cached matrix-vector products,
        so no normalized matrix is ever materialized.
        """
        weights = self.binary_t @ scores
        weights *= self.inv_column_counts
        updated = self.binary @ weights
        updated *= self.inv_answers_per_user
        return updated


def _safe_inverse(counts: np.ndarray) -> np.ndarray:
    """``1 / counts`` with ``1 / 0 -> 0`` (matches ``normalize_rows``' zeros)."""
    counts = np.asarray(counts, dtype=float)
    return np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)


def _read_only(array: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only so shared caches cannot be corrupted."""
    array.flags.writeable = False
    return array


def _as_index_array(values, name: str, copy: bool = True) -> np.ndarray:
    """Coerce one triple component to a 1-D ``int64`` array nothing can change
    (a copy, unless it already is an ``int64`` view over immutable ``bytes``).

    Without ``copy`` an integer array of any dtype comes back as it is, for
    a caller that copies what it keeps.
    """
    array = np.asarray(values)
    if array.ndim != 1:
        raise InvalidResponseMatrixError("%s must be a 1-D array" % name)
    if not copy and np.issubdtype(array.dtype, np.integer):
        return array
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    if array.dtype == np.int64 and isinstance(base, bytes):
        return array
    if not np.issubdtype(array.dtype, np.integer):
        if np.issubdtype(array.dtype, np.floating) and np.all(
            array == np.floor(array)
        ):
            pass  # integral floats are accepted, like the dense constructor
        else:
            raise InvalidResponseMatrixError("%s must contain integers" % name)
    return array.astype(np.int64, copy=True)


def validate_answer_batch(
    users, items, options, *, num_users: Optional[int] = None,
    num_items: Optional[int] = None, num_options=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check one answer batch; return it as three 1-D ``int64`` arrays.

    The one copy of the range rules: ``from_triples`` checks a whole
    crowd with it, and the accept points (``add_answers``/``add_user`` of
    :class:`ResponseBuilder` and :class:`~repro.api.session.CrowdSession`)
    check each batch against the declared shape with it, so a batch is
    refused where it arrives instead of at the next build.  Raises
    :class:`InvalidResponseMatrixError` unless the components are
    equal-length 1-D integer arrays of non-negative indices, with users
    below ``num_users`` and items below ``num_items`` when those are
    given, and every option below its item's count when ``num_options``
    (an ``int``, or one count per item) is given.  One count per item
    also bounds the items by its length when ``num_items`` is not given.
    A valid batch costs min/max reductions; a mask is built only to name
    the offending entry.
    """
    users = _as_index_array(users, "users")
    items = _as_index_array(items, "items")
    options = _as_index_array(options, "options")
    _check_answers(users, items, options, num_users, num_items, num_options)
    return users, items, options


def _check_answers(users: np.ndarray, items: np.ndarray, options: np.ndarray,
                   num_users: Optional[int], num_items: Optional[int],
                   num_options) -> None:
    """The range rules of :func:`validate_answer_batch`, on integer arrays
    it need not copy."""
    if not (users.size == items.size == options.size):
        raise InvalidResponseMatrixError(
            "users, items and options must have equal lengths, got %d/%d/%d"
            % (users.size, items.size, options.size)
        )
    if users.size == 0:
        return
    _check_index_range(users, "user", num_users)
    if num_items is None and np.ndim(num_options):
        num_items = len(num_options)
    _check_index_range(items, "item", num_items)
    if options.min() < 0:
        raise InvalidResponseMatrixError(
            "options must be >= 0 (use absence from the triples, not %d, "
            "for unanswered items)" % int(options.min())
        )
    if num_options is not None and options.max() >= np.min(num_options):
        limits = np.asarray(num_options)[items] if np.ndim(num_options) else num_options
        out_of_range = options >= limits
        if np.any(out_of_range):
            item = int(items[np.argmax(out_of_range)])
            raise InvalidResponseMatrixError(
                "item %d has a choice index >= its number of options (%d)"
                % (item, num_options[item] if np.ndim(num_options) else num_options)
            )


def _check_index_range(values: np.ndarray, noun: str, bound: Optional[int]) -> None:
    """Refuse an index below 0, or at or above ``bound`` when one is given."""
    if bound is None:
        if values.min() < 0:
            raise InvalidResponseMatrixError(
                "%s indices must be >= 0, got %d" % (noun, int(values.min()))
            )
    elif values.min() < 0 or values.max() >= bound:
        bad = int(values[np.argmax((values < 0) | (values >= bound))])
        raise InvalidResponseMatrixError(
            "%s index %d is outside [0, %d)" % (noun, bad, bound)
        )


def _gather_slices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions selecting ``counts[r]`` consecutive entries from ``starts[r]``.

    The vectorized equivalent of ``concatenate([arange(s, s + c) for s, c in
    zip(starts, counts)])`` — the core gather of the triple transforms.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out_offsets = np.cumsum(counts) - counts
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(out_offsets, counts)
        + np.repeat(starts, counts)
    )


def _insertion_points(base_users: np.ndarray, base_items: np.ndarray,
                      users: np.ndarray, keys: np.ndarray,
                      n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Where each new answer goes in a user-major base, and whether the
    base holds its ``(user, item)``.

    ``users`` and ``keys`` (``user * n + item``) are the new answers,
    sorted, with every item below ``n``.  The points are ``searchsorted``
    of ``keys`` in the keys of the whole base, but only the base answers
    of the users the batch touches are keyed: each user's answers are one
    slice of the sorted base users, and each key falls inside its own
    user's slice.
    """
    touched = users[np.flatnonzero(np.diff(users, prepend=-1))]
    lo = np.searchsorted(base_users, touched)
    sizes = np.searchsorted(base_users, touched, side="right") - lo
    positions = _gather_slices(lo, sizes)
    slice_keys = np.multiply(base_users[positions], n, dtype=np.int64)
    slice_keys += base_items[positions]
    local = np.searchsorted(slice_keys, keys)
    # From a position among the slices to one in the base.
    at = local + (lo - (np.cumsum(sizes) - sizes))[np.searchsorted(touched, users)]
    on_base = np.zeros(keys.size, dtype=bool)
    if slice_keys.size:
        on_base = slice_keys[np.minimum(local, slice_keys.size - 1)] == keys
    return at, on_base


def _leaf_digests(users: np.ndarray, items: np.ndarray, options: np.ndarray,
                  leaves: np.ndarray) -> List[bytes]:
    """The BLAKE2b-16 digest of each of ``leaves`` over canonical triples.

    Leaf ``j`` covers the answers of users ``16 j`` to ``16 j + 15``: the
    little-endian ``int64`` bytes of their users, then of their items,
    then of their options, whatever dtype the triples are stored in.  The
    users are sorted, so each leaf's answers are one slice, found by
    binary search.  The leaves are widened to ``int64`` a window of whole
    leaves, up to ``_WIDEN_ANSWERS`` answers, at a time, into buffers
    reused from window to window, so a digest holds no ``int64`` copy of
    the crowd and a merged digest widens only the leaves it rehashes.
    """
    # In the users' own dtype, so the search does not convert them; the
    # last user of a leaf fits wherever the users do.
    first = (leaves * _LEAF_USERS).astype(users.dtype)
    starts = np.searchsorted(users, first)
    stops = np.searchsorted(users, first + (_LEAF_USERS - 1), side="right")
    sizes = (stops - starts).tolist()
    capacity = min(sum(sizes), max([_WIDEN_ANSWERS] + sizes))
    wide = [np.empty(capacity, dtype="<i8") for _ in range(3)]
    user_bytes, item_bytes, option_bytes = (memoryview(array).cast("B") for array in wide)
    digests = []
    begin = 0
    while begin < len(sizes):
        end, total = begin + 1, sizes[begin]
        while end < len(sizes) and total + sizes[end] <= _WIDEN_ANSWERS:
            total += sizes[end]
            end += 1
        low, high = int(starts[begin]), int(stops[end - 1])
        spans = [(low, high)] if high - low == total else list(
            zip(starts[begin:end].tolist(), stops[begin:end].tolist()))
        for array, into in zip((users, items, options), wide):
            np.concatenate([array[lo:hi] for lo, hi in spans], out=into[:total])
        stop = 0
        for size in sizes[begin:end]:
            start, stop = stop, stop + 8 * size
            leaf = hashlib.blake2b(user_bytes[start:stop], digest_size=16,
                                   person=_LEAF_PERSON)
            leaf.update(item_bytes[start:stop])
            leaf.update(option_bytes[start:stop])
            digests.append(leaf.digest())
        begin = end
    return digests


class _Merge:
    """What one :meth:`ResponseBuilder.build` merged into its base.

    The new answers in canonical order, their insertion points ``at`` in
    the base's triples, and the base's digest leaves and compiled kernels
    when it had computed them: the merged matrix derives its own from
    these, and drops each once it has.
    """

    __slots__ = ("at", "users", "items", "options", "leaves", "compiled")

    def __init__(self, at, users, items, options, leaves, compiled) -> None:
        self.at = at
        self.users = users
        self.items = items
        self.options = options
        self.leaves: Optional[bytes] = leaves
        self.compiled: Optional[CompiledResponse] = compiled


class ResponseMatrix:
    """User responses to heterogeneous multiple-choice items.

    Canonical state is the flat answer triples ``(user, item, option)`` in
    user-major order plus the shape and per-item option counts; the dense
    choice matrix is a lazily-cached view (see the module docstring).

    Parameters
    ----------
    choices:
        Integer array of shape ``(m, n)``.  ``choices[j, i]`` is the 0-based
        option index picked by user ``j`` for item ``i`` or :data:`NO_ANSWER`
        (-1) when the user skipped the item.  This dense constructor is the
        small-data ingestion path; use :meth:`from_triples` or
        :class:`ResponseBuilder` at sparse scale.
    num_options:
        Number of options per item.  Either a single int (every item has the
        same number of options) or a sequence of length ``n``.  When omitted
        it is inferred as ``max(choice) + 1`` per item (at least 2).

    Raises
    ------
    InvalidResponseMatrixError
        If the array is empty, non-integer, contains choices outside the
        declared option range, or no item was answered by anyone.

    Notes
    -----
    Derived forms (:attr:`binary`, :attr:`answered_mask`, the
    normalizations, and the :attr:`compiled` kernel representation) are
    computed once and cached; array-valued caches are returned as
    **read-only** views so accidental mutation cannot corrupt shared state.
    """

    def __init__(
        self,
        choices: np.ndarray,
        num_options: Optional[Sequence[int] | int] = None,
    ) -> None:
        choices = np.asarray(choices)
        if choices.ndim != 2 or choices.size == 0:
            raise InvalidResponseMatrixError(
                "choices must be a non-empty 2-D array, got shape %s" % (choices.shape,)
            )
        if not np.issubdtype(choices.dtype, np.integer):
            if np.issubdtype(choices.dtype, np.floating) and np.all(
                np.isnan(choices) | (choices == np.floor(choices))
            ):
                converted = np.where(np.isnan(choices), NO_ANSWER, choices)
                choices = converted.astype(int)
            else:
                raise InvalidResponseMatrixError("choices must contain integers")
        choices = choices.astype(int, copy=True)
        if np.any(choices < NO_ANSWER):
            raise InvalidResponseMatrixError("choices must be >= -1")

        # Everything else (option-count inference, the per-item range
        # check, "no answers at all") is from_triples' validation.  numpy's
        # row-major nonzero order is exactly the canonical user-major
        # triple order, so the triples take its sorted fast path.
        mask = choices != NO_ANSWER
        users, items = np.nonzero(mask)
        canonical = ResponseMatrix.from_triples(
            users, items, choices[mask], shape=choices.shape, num_options=num_options
        )
        self._set_state(canonical._users, canonical._items, canonical._options,
                        canonical._m, canonical._n, canonical._num_options,
                        dense=_read_only(choices))

    # ------------------------------------------------------------------ #
    # Canonical-state plumbing
    # ------------------------------------------------------------------ #
    def _set_state(
        self,
        users: np.ndarray,
        items: np.ndarray,
        options: np.ndarray,
        num_users: int,
        num_items: int,
        per_item: np.ndarray,
        dense: Optional[np.ndarray] = None,
    ) -> None:
        """Install canonical triples (must be validated, user-major sorted).

        The one dtype rule of the canonical state: each component is
        ``int32`` when its bound fits in ``int32`` and ``int64`` otherwise
        (never unsigned), its bound being ``num_users`` for the users,
        ``num_items`` for the items and the largest option count for the
        options.  A component already in its dtype is installed uncopied,
        and frozen.
        """
        per_item = np.asarray(per_item, dtype=int)
        bounds = (num_users, num_items, int(per_item.max()))
        users, items, options = (
            np.ascontiguousarray(array, dtype=_index_dtype(bound))
            for array, bound in zip((users, items, options), bounds)
        )
        for array in (users, items, options):
            array.flags.writeable = False
        self._users = users
        self._items = items
        self._options = options
        self._m = int(num_users)
        self._n = int(num_items)
        self._num_options = per_item

        # Lazily computed caches.  A builder's merge sets ``_merge`` after
        # this, so the digest leaves and the compiled kernels can be
        # derived from the base's.
        self._content_hash_memo: Optional[str] = None
        self._content_hash_lock = threading.Lock()
        self._content_leaves: Optional[bytes] = None
        self._merge: Optional[_Merge] = None
        self._dense_choices: Optional[np.ndarray] = dense
        self._column_offsets: Optional[np.ndarray] = None
        self._compiled: Optional[CompiledResponse] = None
        self._answered_mask: Optional[np.ndarray] = None
        self._answers_per_user: Optional[np.ndarray] = None
        self._answers_per_item: Optional[np.ndarray] = None
        self._row_normalized: Optional[sp.csr_matrix] = None
        self._column_normalized: Optional[sp.csr_matrix] = None

    @classmethod
    def _from_canonical(
        cls,
        users: np.ndarray,
        items: np.ndarray,
        options: np.ndarray,
        num_users: int,
        num_items: int,
        per_item: np.ndarray,
    ) -> "ResponseMatrix":
        """Trusted constructor: triples already validated and user-major."""
        if users.size == 0:
            raise InvalidResponseMatrixError(
                "the response matrix contains no answers at all"
            )
        matrix = cls.__new__(cls)
        matrix._set_state(users, items, options, num_users, num_items, per_item)
        return matrix

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_triples(
        cls,
        users,
        items,
        options,
        *,
        shape: Tuple[int, int],
        num_options: Optional[Sequence[int] | int] = None,
    ) -> "ResponseMatrix":
        """Build a matrix from flat ``(user, item, option)`` answer triples.

        This is the **primary constructor**: it validates in ``O(nnz)``
        (plus one ``O(nnz log nnz)`` sort only when the triples are not
        already user-major sorted) and never allocates ``(m, n)`` dense
        state, so it is the ingestion path for sparse-scale workloads.

        Parameters
        ----------
        users, items, options:
            Equal-length 1-D integer arrays; answer ``a`` says user
            ``users[a]`` picked option ``options[a]`` on item ``items[a]``.
        shape:
            ``(num_users, num_items)``.  Required — the triples alone cannot
            distinguish trailing users/items nobody answered.
        num_options:
            As in the dense constructor: scalar, per-item sequence, or
            ``None`` to infer ``max(option) + 1`` (at least 2) per item.

        Raises
        ------
        InvalidResponseMatrixError
            On empty input, out-of-range indices, options outside an item's
            declared range, or a duplicate ``(user, item)`` pair.
        """
        try:
            m, n = (int(value) for value in shape)
        except (TypeError, ValueError):
            raise InvalidResponseMatrixError(
                "shape must be a (num_users, num_items) pair, got %r" % (shape,)
            )
        if m <= 0 or n <= 0:
            raise InvalidResponseMatrixError(
                "shape must be positive, got (%d, %d)" % (m, n)
            )
        per_item = None if num_options is None else _resolve_num_options(num_options, n)
        # validate_answer_batch's rules, on the caller's arrays: the
        # canonical dtypes below are the copies the matrix keeps.
        users, items, options = (
            _as_index_array(values, name, copy=False)
            for values, name in ((users, "users"), (items, "items"),
                                 (options, "options"))
        )
        _check_answers(users, items, options, m, n, per_item)
        if users.size == 0:
            raise InvalidResponseMatrixError(
                "the response matrix contains no answers at all"
            )
        if per_item is None:
            # Per-item max option + 1 (at least 2), matching the dense
            # constructor's inference, via an O(nnz) scatter-max.
            per_item = np.ones(n, dtype=np.int64)
            np.maximum.at(per_item, items, np.add(options, 1, dtype=np.int64))
            per_item = np.maximum(per_item, 2)
        users = users.astype(_index_dtype(m))
        items = items.astype(_index_dtype(n))
        options = options.astype(_index_dtype(int(per_item.max())))

        # Canonical ordering + duplicate detection share one key array.
        # Already-sorted input (the save/load round-trip, from_binary) takes
        # the O(nnz) fast path with no argsort.
        keys = np.multiply(users, n, dtype=np.int64)
        keys += items
        if np.any(keys[1:] <= keys[:-1]):
            if np.any(keys[1:] < keys[:-1]):
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
                users = users[order]
                items = items[order]
                options = options[order]
                del order
            duplicates = np.flatnonzero(keys[1:] == keys[:-1])
            if duplicates.size:
                first = int(duplicates[0]) + 1
                raise InvalidResponseMatrixError(
                    "duplicate answer: user %d answered item %d more than once "
                    "(a user may choose at most one option per item)"
                    % (int(users[first]), int(items[first]))
                )
        return cls._from_canonical(users, items, options, m, n, per_item)

    @classmethod
    def from_binary(cls, binary: np.ndarray | sp.spmatrix, num_options: Sequence[int] | int) -> "ResponseMatrix":
        """Build a :class:`ResponseMatrix` from a one-hot ``(m x kn)`` matrix.

        The inverse of :attr:`binary`.  ``num_options`` is required because
        the flattened binary form does not record item boundaries on its own
        when items have different numbers of options.

        Sparse inputs are consumed in COO form without densification; the
        nonzero positions map straight to answer triples and the result is
        routed through :meth:`from_triples`, so no ``(m, n)`` dense state is
        ever built.
        """
        if sp.issparse(binary):
            coo = binary.tocoo()
            # Collapse duplicate stored entries first so validation sees the
            # effective cell values, exactly like a densified path would
            # (e.g. two stored 0.5s are a valid 1; two stored 1s are an
            # invalid 2).
            coo.sum_duplicates()
            if np.any((coo.data != 0) & (coo.data != 1)):
                raise InvalidResponseMatrixError("binary matrix must contain only 0/1")
            keep = coo.data == 1
            rows = np.asarray(coo.row[keep], dtype=np.int64)
            cols = np.asarray(coo.col[keep], dtype=np.int64)
            m, total = binary.shape
        else:
            dense = np.asarray(binary)
            if dense.ndim != 2:
                raise InvalidResponseMatrixError("binary matrix must be 2-D")
            if np.any((dense != 0) & (dense != 1)):
                raise InvalidResponseMatrixError("binary matrix must contain only 0/1")
            m, total = dense.shape
            rows, cols = np.nonzero(dense)
            rows = rows.astype(np.int64)
            cols = cols.astype(np.int64)
        if np.isscalar(num_options):
            k = int(num_options)
            if k < 1 or total % k != 0:
                raise InvalidResponseMatrixError(
                    "binary width %d is not a multiple of k=%d" % (total, k)
                )
            per_item = np.full(total // k, k, dtype=int)
        else:
            per_item = np.asarray(list(num_options), dtype=int)
            if per_item.sum() != total:
                raise InvalidResponseMatrixError(
                    "sum of num_options (%d) must equal binary width (%d)"
                    % (per_item.sum(), total)
                )
        n = per_item.size
        if m == 0 or n == 0:
            raise InvalidResponseMatrixError(
                "binary matrix must be non-empty, got shape %s" % ((m, total),)
            )
        offsets = np.concatenate([[0], np.cumsum(per_item)])
        item_of = np.searchsorted(offsets, cols, side="right") - 1
        # from_triples detects two picks by one user on one item (duplicate
        # (user, item) pair) and validates everything else in O(nnz).
        return cls.from_triples(
            rows, item_of, cols - offsets[item_of],
            shape=(m, n), num_options=per_item,
        )

    # ------------------------------------------------------------------ #
    # Serialization (canonical triples; reload skips the re-sort)
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> None:
        """Write the canonical triples to ``path`` (``.npz`` or ``.csv``).

        NPZ is the compact binary format for large matrices; CSV is the
        interchange format (one ``user,item,option`` row per answer, with
        the shape and per-item option counts on a header comment line).
        Both store the triples in canonical order, so :meth:`load` takes
        the sorted ``O(nnz)`` validation fast path — no re-sort.
        """
        path = Path(path)
        if path.suffix == ".npz":
            np.savez_compressed(
                path,
                users=self._users,
                items=self._items,
                options=self._options,
                num_options=self._num_options,
                shape=np.array([self._m, self._n], dtype=np.int64),
            )
        elif path.suffix == ".csv":
            with path.open("w", encoding="utf-8") as handle:
                handle.write(
                    "# repro-response-matrix v1 m=%d n=%d num_options=%s\n"
                    % (self._m, self._n,
                       ",".join(str(int(k)) for k in self._num_options))
                )
                handle.write("user,item,option\n")
                np.savetxt(
                    handle,
                    np.column_stack([self._users, self._items, self._options]),
                    fmt="%d",
                    delimiter=",",
                )
        else:
            raise ValueError(
                "unsupported extension %r (use .npz or .csv)" % path.suffix
            )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ResponseMatrix":
        """Reload a matrix written by :meth:`save` (``.npz`` or ``.csv``).

        Raises
        ------
        ValueError
            The extension is neither ``.npz`` nor ``.csv`` (checked before
            the file is opened).
        OSError
            The file is missing or cannot be opened.
        InvalidResponseMatrixError
            The file is malformed: a truncated, zero-length, bit-damaged or
            foreign archive; a CSV with a bad header or a malformed or short
            row; or triples that :meth:`from_triples` rejects.  The message
            names the path.
        """
        path = Path(path)
        if path.suffix == ".npz":
            triples, shape, per_item = _read_npz(path)
        elif path.suffix == ".csv":
            triples, shape, per_item = _read_csv(path)
        else:
            raise ValueError(
                "unsupported extension %r (use .npz or .csv)" % path.suffix
            )
        try:
            return cls.from_triples(*triples, shape=shape, num_options=per_item)
        except InvalidResponseMatrixError as err:
            raise InvalidResponseMatrixError("%s: %s" % (path, err)) from None

    # ------------------------------------------------------------------ #
    # Basic shape properties
    # ------------------------------------------------------------------ #
    @property
    def num_users(self) -> int:
        """Number of users ``m``."""
        return self._m

    @property
    def num_items(self) -> int:
        """Number of items ``n``."""
        return self._n

    @property
    def num_options(self) -> np.ndarray:
        """Per-item number of options (length ``n``)."""
        return self._num_options.copy()

    @property
    def max_options(self) -> int:
        """``k``: the largest number of options any item has."""
        return int(self._num_options.max())

    @property
    def num_answers(self) -> int:
        """Total number of answers (``nnz`` of the canonical triples)."""
        return int(self._users.size)

    @property
    def triples(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The canonical ``(users, items, options)`` arrays (read-only views).

        User-major order: sorted by ``(user, item)``.  This is the storage
        of record; every derived form is a function of these three arrays.
        Each is ``int32`` when its bound (``num_users``, ``num_items``,
        :attr:`max_options`) fits in ``int32`` and ``int64`` otherwise, so
        a product of two of them (``users * num_items + items``) needs an
        explicit ``int64`` operand.
        """
        return self._users, self._items, self._options

    # ------------------------------------------------------------------ #
    # Dense views (lazily materialized; O(m*n) memory — small data only)
    # ------------------------------------------------------------------ #
    def _materialize_dense(self) -> np.ndarray:
        """The dense ``(m, n)`` choice-matrix view (cached, read-only).

        This is the **only** gate through which dense choice state comes
        into existence; sparse-scale code paths must never call it (tests
        monkeypatch it to assert that).
        """
        if self._dense_choices is None:
            dense = np.full((self._m, self._n), NO_ANSWER, dtype=int)
            dense[self._users, self._items] = self._options
            self._dense_choices = _read_only(dense)
        return self._dense_choices

    def _materialize_mask(self) -> np.ndarray:
        """The dense ``(m, n)`` answered-mask view (cached, read-only)."""
        if self._answered_mask is None:
            if self._dense_choices is not None:
                mask = self._dense_choices != NO_ANSWER
            else:
                mask = np.zeros((self._m, self._n), dtype=bool)
                mask[self._users, self._items] = True
            self._answered_mask = _read_only(mask)
        return self._answered_mask

    @property
    def choices(self) -> np.ndarray:
        """Copy of the dense ``(m x n)`` choice-matrix view (``-1`` = unanswered).

        Materialized from the triples on first access and cached; allocates
        ``O(m*n)`` — use the triples / compiled kernels at sparse scale.
        """
        return self._materialize_dense().copy()

    @property
    def answered_mask(self) -> np.ndarray:
        """Boolean ``(m x n)`` mask of which (user, item) pairs were answered.

        A lazily-materialized dense view (``O(m*n)`` memory); cached and
        returned read-only; copy before mutating.
        """
        return self._materialize_mask()

    @property
    def answers_per_user(self) -> np.ndarray:
        """Number of items each user answered (length ``m``, read-only)."""
        if self._answers_per_user is None:
            self._answers_per_user = _read_only(
                self.compiled.answers_per_user
                if self._compiled is not None
                else np.bincount(self._users, minlength=self._m)
            )
        return self._answers_per_user

    @property
    def answers_per_item(self) -> np.ndarray:
        """Number of users who answered each item (length ``n``, read-only)."""
        if self._answers_per_item is None:
            self._answers_per_item = _read_only(
                self.compiled.answers_per_item
                if self._compiled is not None
                else np.bincount(self._items, minlength=self._n)
            )
        return self._answers_per_item

    @property
    def is_complete(self) -> bool:
        """True when every user answered every item."""
        return self.num_answers == self._m * self._n

    # ------------------------------------------------------------------ #
    # Binary (one-hot) representation and normalizations
    # ------------------------------------------------------------------ #
    @property
    def column_offsets(self) -> np.ndarray:
        """Start offset of each item's option block in the binary matrix.

        Cached and returned read-only (the compiled kernel representation is
        built on this array); copy before mutating.
        """
        if self._column_offsets is None:
            self._column_offsets = _read_only(
                np.concatenate([[0], np.cumsum(self._num_options)])
            )
        return self._column_offsets

    @property
    def num_option_columns(self) -> int:
        """Total number of (item, option) columns in the binary matrix."""
        return int(self.column_offsets[-1])

    @property
    def compiled(self) -> CompiledResponse:
        """The cached ``O(nnz)`` kernel representation (built on first use)."""
        if self._compiled is None:
            merge = self._merge
            self._compiled = CompiledResponse(
                self._users, self._items, self._options,
                self._m, self._n, self.column_offsets, merge,
            )
            if merge is not None:
                merge.compiled = None
        return self._compiled

    @property
    def binary(self) -> sp.csr_matrix:
        """Sparse one-hot ``(m x sum_i k_i)`` binary response matrix ``C``."""
        return self.compiled.binary

    @property
    def binary_dense(self) -> np.ndarray:
        """Dense copy of :attr:`binary` (convenient for tests and small data)."""
        return np.asarray(self.binary.todense())

    def row_normalized(self) -> sp.csr_matrix:
        """``C_row``: the binary matrix with each row scaled to sum 1.

        Cached; built by swapping the binary matrix's data vector for the
        per-user inverse counts (no sparse-sparse product).
        """
        if self._row_normalized is None:
            compiled = self.compiled
            data = _read_only(
                np.repeat(compiled.inv_answers_per_user, compiled.answers_per_user)
            )
            self._row_normalized = sp.csr_matrix(
                (data, compiled.binary.indices, compiled.binary.indptr),
                shape=compiled.binary.shape,
                copy=False,
            )
        return self._row_normalized

    def column_normalized(self) -> sp.csr_matrix:
        """``C_col``: the binary matrix with each nonzero column scaled to sum 1.

        Cached; built by gathering the per-column inverse counts into the
        binary matrix's data slots (no sparse-sparse product).
        """
        if self._column_normalized is None:
            compiled = self.compiled
            data = _read_only(compiled.inv_column_counts[compiled.binary.indices])
            self._column_normalized = sp.csr_matrix(
                (data, compiled.binary.indices, compiled.binary.indptr),
                shape=compiled.binary.shape,
                copy=False,
            )
        return self._column_normalized

    def user_similarity(self) -> np.ndarray:
        """Dense ``C C^T``: counts of common (item, option) picks per user pair.

        ``O(m^2)`` output — a small-data diagnostic, not a sparse-scale path.
        """
        product = self.binary @ self.binary.T
        return np.asarray(product.todense(), dtype=float)

    # ------------------------------------------------------------------ #
    # Graph structure
    # ------------------------------------------------------------------ #
    def is_connected(self) -> bool:
        """Whether the user-option bipartite graph has a single component.

        Spectral ranking methods need this (Section III-B); otherwise users
        in different components cannot be compared.
        """
        binary = self.binary
        adjacency = sp.bmat(
            [[None, binary], [binary.T, None]], format="csr"
        )
        n_components, labels = sp.csgraph.connected_components(
            adjacency, directed=False
        )
        if n_components == 1:
            return True
        # Columns with no picks form their own components but carry no
        # information; ignore them by checking user-reachability instead.
        user_labels = labels[: self._m]
        return bool(np.unique(user_labels).size == 1)

    def require_connected(self) -> None:
        """Raise :class:`DisconnectedGraphError` unless the graph is connected."""
        if not self.is_connected():
            raise DisconnectedGraphError(
                "the user-option bipartite graph has multiple connected components; "
                "spectral ranking cannot compare users across components"
            )

    # ------------------------------------------------------------------ #
    # Transformations (O(nnz) triple gathers; never densify)
    # ------------------------------------------------------------------ #
    def permute_users(self, order: Sequence[int]) -> "ResponseMatrix":
        """Return a new matrix with the user rows reordered by ``order``."""
        order = np.asarray(order, dtype=int)
        if sorted(order.tolist()) != list(range(self._m)):
            raise ValueError("order must be a permutation of range(num_users)")
        inverse = np.empty(self._m, dtype=np.int64)
        inverse[order] = np.arange(self._m)
        new_users = inverse[self._users]
        resort = np.lexsort((self._items, new_users))
        return ResponseMatrix._from_canonical(
            new_users[resort], self._items[resort], self._options[resort],
            self._m, self._n, self._num_options,
        )

    def subset_users(self, indices: Sequence[int]) -> "ResponseMatrix":
        """Return a new matrix restricted to the given users.

        ``indices`` may repeat or reorder users (fancy-indexing semantics);
        boolean masks of length ``m`` are also accepted.
        """
        indices = self._normalize_indices(indices, self._m, "users")
        compiled = self.compiled
        counts = compiled.answers_per_user[indices]
        # The triples of old user u occupy the contiguous user-major slice
        # [user_ptr[u], user_ptr[u+1]); gathering the selected slices in
        # order is already canonical for the new matrix.
        positions = _gather_slices(compiled.user_ptr[indices], counts)
        new_users = np.repeat(
            np.arange(indices.size, dtype=np.int64), counts
        )
        return ResponseMatrix._from_canonical(
            new_users, self._items[positions], self._options[positions],
            indices.size, self._n, self._num_options,
        )

    def subset_items(self, indices: Sequence[int]) -> "ResponseMatrix":
        """Return a new matrix restricted to the given items."""
        indices = self._normalize_indices(indices, self._n, "items")
        compiled = self.compiled
        counts = compiled.answers_per_item[indices]
        # Gather item-major, then re-sort the survivors back to user-major.
        positions = compiled.item_order[
            _gather_slices(compiled.item_ptr[indices], counts)
        ]
        new_items = np.repeat(
            np.arange(indices.size, dtype=np.int64), counts
        )
        users = self._users[positions]
        options = self._options[positions]
        resort = np.lexsort((new_items, users))
        return ResponseMatrix._from_canonical(
            users[resort], new_items[resort], options[resort],
            self._m, indices.size, self._num_options[indices],
        )

    @staticmethod
    def _normalize_indices(indices, size: int, axis_name: str) -> np.ndarray:
        """Resolve a user/item selection to non-negative ``int64`` indices."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if indices.shape != (size,):
                raise IndexError(
                    "boolean %s mask must have length %d" % (axis_name, size)
                )
            return np.flatnonzero(indices).astype(np.int64)
        indices = indices.astype(np.int64)
        if indices.ndim != 1 or indices.size == 0:
            raise InvalidResponseMatrixError(
                "%s selection must be a non-empty 1-D index array" % axis_name
            )
        indices = np.where(indices < 0, indices + size, indices)
        if indices.min() < 0 or indices.max() >= size:
            raise IndexError(
                "%s index out of bounds for size %d" % (axis_name, size)
            )
        return indices

    def drop_unanswered_items(self) -> "ResponseMatrix":
        """Drop items that nobody answered (they carry no ranking signal)."""
        keep = np.flatnonzero(self.answers_per_item > 0)
        if keep.size == self._n:
            return self
        return self.subset_items(keep)

    # ------------------------------------------------------------------ #
    # Per-item statistics used by baselines and symmetry breaking
    # ------------------------------------------------------------------ #
    def option_counts(self, item: int) -> np.ndarray:
        """How many users picked each option of ``item`` (length ``k_i``)."""
        item = int(item)
        if item < 0:
            item += self._n
        if not 0 <= item < self._n:
            raise IndexError("item index out of bounds for size %d" % self._n)
        offsets = self.column_offsets
        return self.compiled.column_counts[offsets[item]:offsets[item + 1]].astype(int)

    def _option_count_matrix(
        self, users: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """``(n x k_max)`` per-item option histograms in one bincount pass.

        With a ``users`` selection only the selected users' CSR row slices
        are counted, a user once per time it is selected (fancy-indexing
        semantics).
        """
        k = self.max_options
        items, options = self._items, self._options
        if users is not None:
            selected = self._normalize_indices(users, self._m, "users")
            compiled = self.compiled
            positions = _gather_slices(compiled.user_ptr[selected],
                                       compiled.answers_per_user[selected])
            items, options = items[positions], options[positions]
        flat = np.multiply(items, k, dtype=np.int64)  # n * k may pass 2**31
        flat += options
        return np.bincount(flat, minlength=self._n * k).reshape(self._n, k)

    def majority_choices(self) -> np.ndarray:
        """Most frequently picked option per item (ties broken by index)."""
        return self._option_count_matrix().argmax(axis=1).astype(int)

    def choice_entropy(self, users: Optional[Sequence[int]] = None) -> float:
        """Average per-item Shannon entropy of the option distribution.

        Restricted to the given ``users`` when provided.  This is the
        statistic behind the decile-entropy symmetry-breaking heuristic
        (Section III-D): high-ability users converge on the correct option
        and therefore produce lower entropy.  Computed for all items in a
        single vectorized bincount over the answers of the selected users
        (all users when none are given); items nobody (in the subset)
        answered are excluded.
        """
        counts = self._option_count_matrix(users).astype(float)
        totals = counts.sum(axis=1)
        answered = totals > 0
        if not np.any(answered):
            return 0.0
        probabilities = counts[answered] / totals[answered, np.newaxis]
        # x * log2(x) -> 0 as x -> 0, so zero-probability options contribute
        # exactly 0.0 and the sum matches the nonzero-only loop bit for bit.
        contributions = np.zeros_like(probabilities)
        positive = probabilities > 0
        contributions[positive] = probabilities[positive] * np.log2(
            probabilities[positive]
        )
        entropies = -contributions.sum(axis=1)
        return float(np.mean(entropies))

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ResponseMatrix(num_users=%d, num_items=%d, max_options=%d)" % (
            self._m,
            self._n,
            self.max_options,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResponseMatrix):
            return NotImplemented
        # Canonical ordering makes the triple arrays a normal form: two
        # matrices are equal iff their canonical state matches, in O(nnz)
        # regardless of how either was constructed.
        return bool(
            self._m == other._m
            and self._n == other._n
            and np.array_equal(self._num_options, other._num_options)
            and np.array_equal(self._users, other._users)
            and np.array_equal(self._items, other._items)
            and np.array_equal(self._options, other._options)
        )

    def __getstate__(self) -> dict:
        # The memo lock is not picklable; drop it (and the digest, which
        # the receiving process recomputes on demand, and the merge
        # record, which holds the builder's base kernels).
        state = dict(self.__dict__)
        state.pop("_content_hash_lock", None)
        state.update(_content_hash_memo=None, _content_leaves=None, _merge=None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._content_hash_lock = threading.Lock()

    def __hash__(self) -> int:
        return hash((
            self._m,
            self._n,
            self._num_options.tobytes(),
            self._users.tobytes(),
            self._items.tobytes(),
            self._options.tobytes(),
        ))

    def content_hash(self) -> str:
        """Stable hex digest of the canonical state (:data:`CONTENT_DIGEST`).

        Unlike :meth:`__hash__` (whose value is salted per process via
        ``PYTHONHASHSEED``), this digest is reproducible across processes and
        machines, so it can key persistent caches: two matrices have the same
        digest iff they compare equal, because the canonical user-major
        triples are a normal form of the answers.

        It is a one-level Merkle list: a BLAKE2b-16 root over ``(m, n)``,
        the per-item option counts and one BLAKE2b-16 leaf per range of 16
        users (see :func:`_leaf_digests`).  From scratch it hashes every
        answer once, in ``O(nnz)``.  A matrix a :class:`ResponseBuilder`
        merged from a hashed base reuses the base's leaves and rehashes only
        the leaves its new answers fall in, plus the root.

        The digest is memoized — the canonical state is immutable, and
        cache lookups plus the session's warm-start record may hash the
        same instance several times per ``rank()`` call.  The memoization
        is **compute-once under a lock**: with the durable store's
        write-behind thread hashing the same instances the serving threads
        do, racing the first computation would burn ``O(nnz)`` per loser
        on the largest matrices.  Double-checked: the fast path after
        memoization is one attribute read, no lock.
        """
        memo = self._content_hash_memo
        if memo is None:
            with self._content_hash_lock:
                memo = self._content_hash_memo
                if memo is None:
                    leaves = self._leaves()
                    root = hashlib.blake2b(digest_size=16, person=_ROOT_PERSON)
                    root.update(np.array([self._m, self._n], dtype="<i8").tobytes())
                    root.update(self._num_options.astype("<i8").tobytes())
                    root.update(leaves)
                    memo = root.hexdigest()
                    self._content_leaves = leaves
                    self._content_hash_memo = memo
        return memo

    def _leaves(self) -> bytes:
        """The concatenated leaf digests, from the merge's base when it can."""
        count = -(-self._m // _LEAF_USERS)
        triples = (self._users, self._items, self._options)
        merge = self._merge
        if merge is None or merge.leaves is None:
            return b"".join(_leaf_digests(*triples, np.arange(count)))
        leaves = bytearray(merge.leaves[:16 * count])
        leaves += _EMPTY_LEAF * (count - len(leaves) // 16)
        dirty = np.unique(merge.users // _LEAF_USERS)
        for leaf, digest in zip(dirty.tolist(), _leaf_digests(*triples, dirty)):
            leaves[16 * leaf:16 * leaf + 16] = digest
        merge.leaves = None
        return bytes(leaves)


def _resolve_num_options(num_options, n: Optional[int]):
    """Resolve the scalar-or-sequence ``num_options`` parameter to per-item.

    With ``n`` None (an item count not known yet) a scalar is checked and
    returned as an ``int``.
    """
    if np.isscalar(num_options):
        count = int(num_options)
        per_item = count if n is None else np.full(n, count, dtype=int)
    else:
        per_item = np.asarray(num_options, dtype=int)
        if per_item.shape != (n,):
            raise InvalidResponseMatrixError(
                "num_options must have one entry per item (%d), got %d"
                % (n, per_item.size)
            )
    if np.any(per_item < 1):
        raise InvalidResponseMatrixError("every item needs at least one option")
    return per_item


class ResponseBuilder:
    """Incremental triples ingestion: append answers, then :meth:`build`.

    The incremental counterpart of :meth:`ResponseMatrix.from_triples` —
    feed it answer batches as they arrive (e.g. a served crowd's appends or
    a log partition at a time) and it accumulates the flat triples without
    ever holding dense state.  Appends are ``O(batch)``.  The matrix of the
    last successful :meth:`build` is the builder's *base*: the next build
    sorts only the ``b`` answers appended since, finds where each goes
    among the base answers of the users it touches with ``searchsorted``,
    checks only what they can break and merges them in with ``insert``.
    That is ``O(b log nnz)`` work plus ``O(nnz)`` array copies, with no
    re-sort, no re-validation of the crowd and no other pass over it.  The
    merged matrix then derives its content digest and its compiled kernels
    from the base's, when the base had computed them
    (:meth:`ResponseMatrix.content_hash`, :class:`CompiledResponse`).  A
    first build takes the sorted batch as its triples.  On success the
    built matrix becomes the base and the appended batches are dropped; a
    failed build leaves both as they were.  :meth:`from_matrix` starts a
    builder whose base is an existing matrix.

    What new answers can break, and so what a build checks: a repeat of
    an answer at its insertion point, the user count, and the item and
    per-item option counts.  A builder that infers its shape keeps the
    last two as running maxima of everything appended.  When these checks
    cannot vouch for the merged crowd — a repeat, or an override of the
    shape that the base's own shape does not cover — the build validates
    it through ``from_triples``, whose error it raises.

    The declared shape is the accept rule: :meth:`add_answers` and
    :meth:`add_user` refuse a batch with a negative index, an item at or
    past ``num_items`` or an option at or past its item's count
    (:func:`validate_answer_batch`), so a build fails only on a
    conflicting repeat.

    Parameters
    ----------
    num_items:
        Fixed item count, when known up front.  Otherwise inferred as
        ``max(item) + 1`` over everything appended, or taken from the
        length of a per-item ``num_options``.
    num_options:
        Scalar or per-item option counts (inferred from the data as
        ``from_triples`` does when omitted).  Checked here, once: a count
        below 1, or a list whose length is not ``num_items``, raises
        :class:`InvalidResponseMatrixError`.

    Examples
    --------
    >>> builder = ResponseBuilder(num_items=3, num_options=4)
    >>> _ = builder.add_answers([0, 0], [0, 2], [1, 3])  # batch of answers
    >>> uid = builder.add_user([0, 1, 2], [2, 2, 0])  # whole new user row
    >>> matrix = builder.build()
    >>> matrix.num_users, matrix.num_items
    (2, 3)
    """

    def __init__(
        self,
        num_items: Optional[int] = None,
        num_options: Optional[Sequence[int] | int] = None,
    ) -> None:
        if num_options is not None and num_items is None \
                and not np.isscalar(num_options):
            num_items = len(num_options)
        if num_items is not None and int(num_items) < 1:
            raise InvalidResponseMatrixError(
                "num_items must be >= 1, got %d" % int(num_items)
            )
        self._num_items = None if num_items is None else int(num_items)
        self._num_options = (None if num_options is None
                             else _resolve_num_options(num_options, self._num_items))
        # The last successful build (None before the first) and the
        # batches appended since.
        self._base: Optional[ResponseMatrix] = None
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._num_users = 0
        self._num_answers = 0
        # Running maxima over every appended answer, for the counts a build
        # infers: the item count and, without declared option counts, each
        # item's largest option + 1 (at least 1).
        self._items_seen = 0
        self._options_seen = np.ones(0, dtype=np.int64)

    @classmethod
    def from_matrix(cls, matrix: ResponseMatrix) -> "ResponseBuilder":
        """A builder whose base is ``matrix``.

        No copy and no sort: appended answers merge straight into the
        matrix's own read-only triples, and the merged matrix derives its
        digest and kernels from ``matrix``'s.  The builder takes the
        matrix's shape and option counts as its configuration.
        """
        builder = cls(num_items=matrix.num_items, num_options=matrix.num_options)
        builder._base = matrix
        builder._num_users = matrix.num_users
        builder._num_answers = matrix.num_answers
        return builder

    @property
    def num_users(self) -> int:
        """Users seen so far (``max(user) + 1`` over all appends)."""
        return self._num_users

    @property
    def num_answers(self) -> int:
        """Answers appended so far (a :meth:`from_matrix` base included)."""
        return self._num_answers

    def __len__(self) -> int:
        return self._num_answers

    def add_answer(self, user: int, item: int, option: int) -> "ResponseBuilder":
        """Append a single ``(user, item, option)`` answer."""
        return self.add_answers([user], [item], [option])

    def check_batch(self, users, items, options) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`validate_answer_batch` against the declared shape."""
        return validate_answer_batch(users, items, options, num_items=self._num_items,
                                     num_options=self._num_options)

    def add_answers(self, users, items, options) -> "ResponseBuilder":
        """Append a batch of answers (three equal-length index arrays)."""
        self._extend(*self.check_batch(users, items, options))
        return self

    def _extend(self, users: np.ndarray, items: np.ndarray,
                options: np.ndarray) -> None:
        """Append a batch :func:`validate_answer_batch` returned, uncopied."""
        if users.size:
            self._num_users = max(self._num_users, int(users.max()) + 1)
            self._items_seen = max(self._items_seen, int(items.max()) + 1)
            if self._num_options is None:
                grown = self._items_seen - self._options_seen.size
                if grown > 0:
                    self._options_seen = np.concatenate(
                        [self._options_seen, np.ones(grown, dtype=np.int64)])
                np.maximum.at(self._options_seen, items,
                              np.add(options, 1, dtype=np.int64))
            self._chunks.append((users, items, options))
            self._num_answers += users.size

    def add_user(self, items, options) -> int:
        """Append a whole new user's answers; returns the new user's index."""
        user = self._num_users
        items = _as_index_array(items, "items")
        self.add_answers(np.full(items.size, user, dtype=np.int64), items, options)
        self._num_users = user + 1  # a user who answered nothing has a row too
        return user

    def build(
        self,
        *,
        num_users: Optional[int] = None,
        num_items: Optional[int] = None,
        num_options: Optional[Sequence[int] | int] = None,
        deduplicate: bool = False,
    ) -> "ResponseMatrix":
        """Merge the appended answers into the base and build the matrix.

        The explicit ``num_users`` / ``num_items`` / ``num_options``
        arguments override what the builder saw or was configured with
        (e.g. to declare trailing users nobody has answered for yet).  They
        hold for every answer, the base's included: the new answers are
        checked one by one, and the base's through its own shape, or
        through ``from_triples`` when its shape does not settle it.

        Only the answers appended since the last successful build are
        sorted; they are merged into its canonical triples (see the class
        docstring).  ``deduplicate=True`` drops *exact* repeated triples
        (the same user restating the same option for the same item), among
        the new answers and against the base, making replayed ingestion
        batches idempotent.  Conflicting repeats — the same
        ``(user, item)`` with a different option — still raise, because
        they contradict each other; without ``deduplicate`` any repeat,
        of a new answer or of a base answer, raises.  A build that raises
        changes nothing, so every later build raises too until the
        builder is dropped.
        """
        if self._num_answers == 0:
            raise InvalidResponseMatrixError(
                "the response matrix contains no answers at all"
            )
        base = self._base
        m = self._num_users if num_users is None else int(num_users)
        if num_items is not None:
            n = int(num_items)
        elif self._num_items is not None:
            n = self._num_items
        else:
            n = self._items_seen
        per_item = num_options if num_options is not None else self._num_options
        counts = self._option_counts(m, n, per_item)
        users, items, options, keys = self._sorted_batch(
            n, (m, n, 0 if counts is None else int(counts.max())))
        if counts is not None:
            # The base fits the shape, so from_triples would raise only on
            # a new answer, and name the one this names.
            _check_answers(users, items, options, m, n, counts)
        on_base = np.zeros(keys.size, dtype=bool)
        if base is not None:
            # np.insert casts what it inserts to the base's dtype, which
            # would wrap a value past it: merge in the wider of the two.
            base_triples = [
                old.astype(new.dtype) if new.itemsize > old.itemsize else old
                for old, new in zip(base.triples, (users, items, options))]
            if counts is None:
                # The base may not fit the shape: key all of it, and let
                # from_triples reject what is out of range.
                base_keys = np.multiply(base_triples[0], n, dtype=np.int64)
                base_keys += base_triples[1]
                at = np.searchsorted(base_keys, keys)
                on_base = base_keys[np.minimum(at, base_keys.size - 1)] == keys
            else:
                at, on_base = _insertion_points(base_triples[0], base_triples[1],
                                                users, keys, n)
        if deduplicate:
            # An exact repeat follows its twin or sits on the base answer.
            repeat = np.zeros(keys.size, dtype=bool)
            repeat[1:] = (keys[1:] == keys[:-1]) & (options[1:] == options[:-1])
            if base is not None:
                found = np.minimum(at, base.num_answers - 1)
                repeat |= on_base & (base_triples[2][found] == options)
            if repeat.any():
                keep = ~repeat
                users, items, options, keys, on_base = (
                    array[keep] for array in (users, items, options, keys, on_base))
                if base is not None:
                    at = at[keep]
        merged = (users, items, options) if base is None else [
            np.insert(old, at, new)
            for old, new in zip(base_triples, (users, items, options))]
        if counts is None or on_base.any() or np.any(keys[1:] == keys[:-1]):
            # A repeat, or a shape the base may not fit: from_triples
            # validates the whole crowd and raises its own error, or builds.
            matrix = ResponseMatrix.from_triples(
                *merged, shape=(m, n), num_options=per_item
            )
        else:
            matrix = ResponseMatrix._from_canonical(*merged, m, n, counts)
            if base is not None and (base._content_leaves is not None
                                     or base._compiled is not None):
                matrix._merge = _Merge(at, users, items, options,
                                       base._content_leaves, base._compiled)
        self._base = matrix
        self._chunks = []
        return matrix

    def _sorted_batch(self, n: int,
                      bounds: Tuple[int, int, int]) -> Tuple[np.ndarray, ...]:
        """The answers appended since the last build, sorted by ``(user,
        item)``, and their ``int64`` keys ``user * n + item``.

        The columns are sorted one at a time, each in the dtype of its
        bound in ``bounds`` (users, items, options), widened when a value
        past the bound does not fit it: a value the build refuses is never
        wrapped first.  The keys are computed again from the sorted
        columns, once the sort order is released.
        """
        chunks = self._chunks
        if not chunks:
            empty = np.empty(0, dtype=np.int32)
            return empty, empty, empty, np.empty(0, dtype=np.int64)
        order = np.argsort(np.concatenate([
            np.multiply(users, n, dtype=np.int64) + items for users, items, _ in chunks
        ]), kind="stable")
        columns = []
        for column, bound in enumerate(bounds):
            parts = [chunk[column] for chunk in chunks]
            peak = max(int(part.max()) for part in parts) + 1
            joined = np.concatenate(parts, dtype=_index_dtype(max(bound, peak)),
                                    casting="same_kind")
            columns.append(joined[order])
            del joined  # before the next column is joined
        del order
        keys = np.multiply(columns[0], n, dtype=np.int64)
        keys += columns[1]
        return (*columns, keys)

    def _option_counts(self, m: int, n: int, per_item) -> Optional[np.ndarray]:
        """The per-item option counts of an ``(m, n)`` build whose base fits.

        ``None`` when the shape is not positive or the base's own shape
        does not fit inside it (then some base answer may not).  Inferred
        counts (``per_item`` None) are the running maxima, at least 2 per
        item, as ``from_triples`` infers them.
        """
        if m <= 0 or n <= 0:
            return None
        if per_item is None:
            if self._options_seen.size > n:
                return None
            per_item = np.ones(n, dtype=np.int64)
            per_item[:self._options_seen.size] = self._options_seen
            per_item = np.maximum(per_item, 2)
        else:
            per_item = _resolve_num_options(per_item, n)
        base = self._base
        if base is not None and (
                base.triples[0][-1] >= m or base.num_items > n
                or np.any(base.num_options > per_item[:base.num_items])):
            return None
        return per_item


def score_against_truth(response: ResponseMatrix, correct_options: Sequence[int]) -> np.ndarray:
    """Number of correctly answered items per user.

    This is the "True-answer" cheating baseline's scoring rule: it assumes
    the ground-truth correct option of every item is known.  One gather and
    one bincount over the answer triples — ``O(nnz)``, no dense state.
    """
    correct = np.asarray(correct_options, dtype=int)
    if correct.shape != (response.num_items,):
        raise ValueError(
            "correct_options must have length %d, got %d"
            % (response.num_items, correct.size)
        )
    users, items, options = response.triples
    return np.bincount(users[options == correct[items]], minlength=response.num_users)
