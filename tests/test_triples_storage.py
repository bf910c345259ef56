"""Tests for the triples-native storage model (PR 2).

Covers the :meth:`ResponseMatrix.from_triples` primary constructor, the
:class:`ResponseBuilder` ingestion path, the NPZ/CSV round-trip, the
construction-path equivalence properties (dense ``__init__`` vs
``from_triples`` vs ``from_binary``), and the sparse-scale guarantee that
ranking never materializes an ``(m, n)`` dense array.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.response import (
    NO_ANSWER,
    ResponseBuilder,
    ResponseMatrix,
    score_against_truth,
    validate_answer_batch,
)
from repro.exceptions import InvalidResponseMatrixError
from repro.store.snapshot import _flat_content_hash
from repro.truth_discovery.dawid_skene import DawidSkeneRanker
from repro.core.hitsndiffs import HNDPower


def _triples_of_dense(choices: np.ndarray):
    users, items = np.nonzero(choices != NO_ANSWER)
    return users, items, choices[users, items]


class TestFromTriples:
    def test_matches_dense_construction(self, paper_example_response):
        users, items, options = _triples_of_dense(paper_example_response.choices)
        rebuilt = ResponseMatrix.from_triples(
            users, items, options, shape=(4, 3), num_options=3
        )
        assert rebuilt == paper_example_response
        assert hash(rebuilt) == hash(paper_example_response)
        np.testing.assert_array_equal(rebuilt.choices, paper_example_response.choices)

    def test_unsorted_input_is_canonicalized(self):
        response = ResponseMatrix.from_triples(
            [1, 0, 0], [0, 1, 0], [2, 1, 0], shape=(2, 2), num_options=3
        )
        expected = ResponseMatrix(np.array([[0, 1], [2, NO_ANSWER]]), num_options=3)
        assert response == expected
        users, items, options = response.triples
        np.testing.assert_array_equal(users, [0, 0, 1])
        np.testing.assert_array_equal(items, [0, 1, 0])
        np.testing.assert_array_equal(options, [0, 1, 2])

    def test_trailing_empty_rows_and_columns_kept(self):
        response = ResponseMatrix.from_triples(
            [0], [0], [1], shape=(3, 4), num_options=2
        )
        assert response.num_users == 3
        assert response.num_items == 4
        np.testing.assert_array_equal(response.answers_per_user, [1, 0, 0])

    def test_num_options_inferred_per_item(self):
        response = ResponseMatrix.from_triples(
            [0, 0, 1], [0, 1, 1], [0, 4, 1], shape=(2, 3)
        )
        # item 0 saw max option 0 -> floor of 2; item 1 saw 4 -> 5;
        # item 2 unanswered -> floor of 2.
        np.testing.assert_array_equal(response.num_options, [2, 5, 2])

    def test_duplicate_pair_rejected(self):
        with pytest.raises(InvalidResponseMatrixError, match="more than once"):
            ResponseMatrix.from_triples(
                [0, 0], [1, 1], [0, 1], shape=(2, 2), num_options=2
            )

    def test_duplicate_pair_rejected_when_presorted(self):
        with pytest.raises(InvalidResponseMatrixError, match="more than once"):
            ResponseMatrix.from_triples(
                [0, 0, 1], [0, 0, 1], [0, 1, 0], shape=(2, 2), num_options=2
            )

    def test_out_of_range_user_rejected(self):
        with pytest.raises(InvalidResponseMatrixError, match="user index"):
            ResponseMatrix.from_triples([2], [0], [0], shape=(2, 2), num_options=2)

    def test_out_of_range_item_rejected(self):
        with pytest.raises(InvalidResponseMatrixError, match="item index"):
            ResponseMatrix.from_triples([0], [5], [0], shape=(2, 2), num_options=2)

    def test_option_above_declared_range_rejected(self):
        with pytest.raises(InvalidResponseMatrixError, match="number of options"):
            ResponseMatrix.from_triples([0], [0], [3], shape=(2, 2), num_options=3)

    def test_negative_option_rejected(self):
        with pytest.raises(InvalidResponseMatrixError, match=">= 0"):
            ResponseMatrix.from_triples([0], [0], [-1], shape=(2, 2), num_options=2)

    def test_empty_triples_rejected(self):
        with pytest.raises(InvalidResponseMatrixError, match="no answers"):
            ResponseMatrix.from_triples([], [], [], shape=(2, 2), num_options=2)

    def test_bad_shape_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix.from_triples([0], [0], [0], shape=(0, 2), num_options=2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidResponseMatrixError, match="equal lengths"):
            ResponseMatrix.from_triples([0, 1], [0], [0], shape=(2, 2), num_options=2)

    def test_triples_are_read_only(self, paper_example_response):
        users, items, options = paper_example_response.triples
        for array in (users, items, options):
            with pytest.raises(ValueError):
                array[0] = 0


class TestConstructionPathEquivalence:
    """Dense ``__init__``, ``from_triples`` and ``from_binary`` must agree."""

    @given(
        num_users=st.integers(min_value=1, max_value=12),
        num_items=st.integers(min_value=1, max_value=8),
        num_options=st.integers(min_value=2, max_value=5),
        density=st.floats(min_value=0.2, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_three_paths_agree(self, num_users, num_items, num_options, density, seed):
        rng = np.random.default_rng(seed)
        choices = rng.integers(0, num_options, size=(num_users, num_items))
        choices[rng.random(choices.shape) > density] = NO_ANSWER
        if np.all(choices == NO_ANSWER):
            choices[0, 0] = 0
        via_dense = ResponseMatrix(choices, num_options=num_options)

        users, items = np.nonzero(choices != NO_ANSWER)
        shuffle = rng.permutation(users.size)
        via_triples = ResponseMatrix.from_triples(
            users[shuffle], items[shuffle], choices[users, items][shuffle],
            shape=(num_users, num_items), num_options=num_options,
        )
        via_binary = ResponseMatrix.from_binary(
            via_dense.binary, num_options=num_options
        )

        assert via_dense == via_triples == via_binary
        assert hash(via_dense) == hash(via_triples) == hash(via_binary)
        for other in (via_triples, via_binary):
            # The compiled kernels must be bit-identical regardless of the
            # construction path.
            np.testing.assert_array_equal(
                via_dense.compiled.binary.indices, other.compiled.binary.indices
            )
            np.testing.assert_array_equal(
                via_dense.compiled.binary.indptr, other.compiled.binary.indptr
            )
            np.testing.assert_array_equal(
                via_dense.compiled.binary.data, other.compiled.binary.data
            )
            np.testing.assert_array_equal(
                via_dense.compiled.column_counts, other.compiled.column_counts
            )

    @given(
        num_users=st.integers(min_value=2, max_value=10),
        num_items=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_transforms_match_dense_semantics(self, num_users, num_items, seed):
        rng = np.random.default_rng(seed)
        choices = rng.integers(-1, 3, size=(num_users, num_items))
        if np.all(choices == NO_ANSWER):
            choices[0, 0] = 0
        response = ResponseMatrix(choices, num_options=3)

        order = rng.permutation(num_users)
        np.testing.assert_array_equal(
            response.permute_users(order).choices, choices[order]
        )
        rows = rng.integers(0, num_users, size=max(1, num_users // 2))
        if np.any(choices[rows] != NO_ANSWER):
            subset = response.subset_users(rows)
            np.testing.assert_array_equal(subset.choices, choices[rows])
        columns = rng.integers(0, num_items, size=max(1, num_items // 2))
        if np.any(choices[:, columns] != NO_ANSWER):
            item_subset = response.subset_items(columns)
            np.testing.assert_array_equal(item_subset.choices, choices[:, columns])

    def test_score_against_truth_matches_dense(self, paper_example_response):
        scores = score_against_truth(paper_example_response, [2, 2, 2])
        np.testing.assert_array_equal(scores, [0, 1, 1, 2])


class TestResponseBuilder:
    def test_batch_appends_equal_direct_construction(self):
        builder = ResponseBuilder(num_items=3, num_options=3)
        builder.add_answers([0, 0], [0, 2], [1, 2])
        builder.add_answers([1], [1], [0])
        built = builder.build()
        expected = ResponseMatrix(
            np.array([[1, NO_ANSWER, 2], [NO_ANSWER, 0, NO_ANSWER]]), num_options=3
        )
        assert built == expected
        assert len(builder) == 3

    def test_add_user_assigns_sequential_ids(self):
        builder = ResponseBuilder(num_items=2, num_options=2)
        assert builder.add_user([0, 1], [1, 0]) == 0
        assert builder.add_user([0], [1]) == 1
        built = builder.build()
        assert built.num_users == 2
        np.testing.assert_array_equal(
            built.choices, [[1, 0], [1, NO_ANSWER]]
        )

    def test_chained_single_answers(self):
        built = (
            ResponseBuilder(num_items=2, num_options=2)
            .add_answer(0, 0, 1)
            .add_answer(1, 1, 0)
            .build()
        )
        assert built.num_answers == 2

    def test_explicit_shape_overrides(self):
        """The item and option counts are declared once, at construction."""
        builder = ResponseBuilder(num_items=4, num_options=2)
        builder.add_answers([0], [0], [1])
        built = builder.build(num_users=5)
        assert built.num_users == 5
        assert built.num_items == 4
        np.testing.assert_array_equal(built.num_options, [2] * 4)

    def test_duplicate_detected_at_build(self):
        builder = ResponseBuilder(num_items=2, num_options=2)
        builder.add_answers([0], [0], [0])
        builder.add_answers([0], [0], [1])
        with pytest.raises(InvalidResponseMatrixError, match="more than once"):
            builder.build()

    def test_empty_builder_rejected(self):
        with pytest.raises(InvalidResponseMatrixError, match="no answers"):
            ResponseBuilder(num_items=2).build()

    def test_validated_batches_cannot_change_under_the_caller(self):
        """Only an int64 view over immutable bytes is held uncopied: a
        read-only view of a writeable base can still change."""
        payload = np.array([0, 1, 2], dtype=np.int64).tobytes()
        wire = np.frombuffer(payload, dtype=np.int64)
        writeable = np.array([0, 1, 2])
        read_only = writeable[:]
        read_only.flags.writeable = False
        users, items, options = validate_answer_batch(wire, writeable, read_only)
        assert users is wire
        assert not np.shares_memory(items, writeable)
        assert not np.shares_memory(options, writeable)
        writeable[:] = 7
        np.testing.assert_array_equal(items, [0, 1, 2])
        np.testing.assert_array_equal(options, [0, 1, 2])
        with pytest.raises(InvalidResponseMatrixError, match="equal lengths"):
            validate_answer_batch([0], [0, 1], [0])
        with pytest.raises(InvalidResponseMatrixError, match=">= 0"):
            validate_answer_batch([-1], [0], [0])

    @given(
        batches=st.lists(
            st.tuples(
                st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)),
                         max_size=15),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_merged_builds_equal_a_one_shot_build_of_the_union(self, batches):
        """Batches with exact repeats within and across them, built after
        random prefixes: each build equals (and hash-equals) from_triples of
        the deduplicated union so far."""
        def option_of(users, items):  # one option per (user, item): repeats are exact
            return (users * 7 + items * 3) % 3

        builder = ResponseBuilder(num_items=4, num_options=3)
        seen = set()
        for pairs, build_now in batches:
            users = np.array([user for user, _ in pairs], dtype=np.int64)
            items = np.array([item for _, item in pairs], dtype=np.int64)
            builder.add_answers(users, items, option_of(users, items))
            seen.update(pairs)
            if build_now and seen:
                built = builder.build(num_users=6)
                union_users, union_items = np.array(sorted(seen)).T
                reference = ResponseMatrix.from_triples(
                    union_users, union_items, option_of(union_users, union_items),
                    shape=(6, 4), num_options=3,
                )
                assert built == reference
                assert hash(built) == hash(reference)
                assert built.content_hash() == reference.content_hash()

    def test_a_conflict_after_a_good_build_raises_at_every_later_build(self):
        builder = ResponseBuilder(num_items=3, num_options=3)
        builder.add_answers([0, 1], [0, 2], [1, 2])
        good = builder.build()
        before = [array.copy() for array in good.triples]
        builder.add_answers([1, 0], [1, 0], [0, 2])  # (0, 0) contradicts the base
        for _ in range(2):
            with pytest.raises(InvalidResponseMatrixError,
                               match="user 0 answered item 0 more than once"):
                builder.build()
        # The failed builds kept the last good build as the base.
        assert builder._base is good
        for kept, copy in zip(good.triples, before):
            np.testing.assert_array_equal(kept, copy)

    def test_a_build_sorts_only_the_answers_appended_since_the_last(
        self, monkeypatch
    ):
        builder = ResponseBuilder(num_items=20, num_options=4)
        users = np.repeat(np.arange(300), 5)
        items = np.tile(np.arange(5), 300)
        builder.add_answers(users, items, (users + items) % 4)
        builder.build()
        assert not builder._chunks

        sizes = []
        for name in ("argsort", "lexsort", "sort"):
            def recording(keys, *args, _sort=getattr(np, name), **kwargs):
                sizes.append(np.shape(keys)[-1])
                return _sort(keys, *args, **kwargs)
            monkeypatch.setattr(np, name, recording)
        builder.add_answers([299, 0, 150, 7, 0, 3, 42], [9, 9, 9, 9, 10, 11, 12],
                            [0, 1, 2, 3, 0, 1, 2])
        built = builder.build()
        assert sizes == [7]
        assert built.num_answers == 1507
        assert not builder._chunks

    @staticmethod
    def _assert_same_state(built, reference):
        """Triples, digest and every compiled array equal, bit for bit."""
        assert built == reference
        assert built.content_hash() == reference.content_hash()
        for mine, theirs in zip(built.triples, reference.triples):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        ours, expected = built.compiled, reference.compiled
        for name in ("answers_per_user", "answers_per_item", "column_counts",
                     "inv_answers_per_user", "inv_column_counts", "column_item"):
            mine, theirs = getattr(ours, name), getattr(expected, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
        for name in ("data", "indices", "indptr"):
            mine, theirs = getattr(ours.binary, name), getattr(expected.binary, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name

    @given(
        answers=st.dictionaries(
            st.tuples(st.integers(0, 40), st.integers(0, 5)), st.integers(0, 3),
            min_size=1, max_size=60,
        ),
        declared=st.booleans(),
        plan=st.lists(
            st.tuples(st.integers(1, 12), st.booleans(), st.integers(0, 20),
                      st.sampled_from(["hash", "compile", "both", "neither"])),
            min_size=1, max_size=8,
        ),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_a_merged_build_is_the_one_shot_matrix_bit_for_bit(
            self, answers, declared, plan, seed):
        """Any arrival order, chunking, exact-repeat replay and user-count
        change of one answer set gives the digest, triples and compiled
        arrays of ``from_triples`` on the answers so far."""
        pairs = list(answers)
        np.random.default_rng(seed).shuffle(pairs)
        builder = (ResponseBuilder(num_items=6, num_options=4) if declared
                   else ResponseBuilder())
        arrived = []
        for size, replay, extra_users, derived in plan:
            chunk, pairs = pairs[:size], pairs[size:]
            if replay and arrived:
                chunk = chunk + arrived[-size:]
            if not chunk:
                continue
            users, items = (np.array(column, dtype=np.int64) for column in zip(*chunk))
            builder.add_answers(users, items, [answers[pair] for pair in chunk])
            arrived += chunk
            num_users = builder.num_users + extra_users
            built = builder.build(num_users=num_users)
            union = sorted(set(arrived))
            union_users, union_items = (np.array(column) for column in zip(*union))
            reference = ResponseMatrix.from_triples(
                union_users, union_items, [answers[pair] for pair in union],
                shape=(num_users, 6 if declared else int(union_items.max()) + 1),
                num_options=4 if declared else None,
            )
            if derived in ("hash", "both"):  # what the next build merges from
                built.content_hash()
            if derived in ("compile", "both"):
                built.compiled
            self._assert_same_state(built, reference)

    def test_a_merged_digest_rehashes_only_the_leaves_its_answers_fall_in(
            self, monkeypatch):
        import repro.core.response as response_module

        builder = ResponseBuilder(num_items=20, num_options=4)
        users = np.repeat(np.arange(300), 5)
        items = np.tile(np.arange(5), 300)
        builder.add_answers(users, items, (users + items) % 4)
        builder.build().content_hash()

        hashed = []
        leaf_digests = response_module._leaf_digests

        def recording(users, items, options, leaves):
            hashed.extend(leaves.tolist())
            return leaf_digests(users, items, options, leaves)

        monkeypatch.setattr(response_module, "_leaf_digests", recording)
        builder.add_answers([0, 17, 31, 299], [9, 9, 9, 9], [0, 1, 2, 3])
        merged = builder.build(num_users=320)
        assert merged.content_hash() == ResponseMatrix.from_triples(
            *merged.triples, shape=(320, 20), num_options=4).content_hash()
        assert hashed[:3] == [0, 1, 18]  # users 0, 17 and 31, and 299
        assert len(hashed) == 3 + 20  # then the one-shot matrix's 20 leaves

    def test_refusals_are_from_triples_own(self):
        """A conflicting repeat, against the base or within the batch,
        raises what ``from_triples`` raises on the same answers."""
        for users, items, options in (([0], [1], [0]), ([2, 2], [2, 2], [0, 1])):
            builder = ResponseBuilder(num_items=3, num_options=3)
            builder.add_answers([0, 1], [1, 2], [2, 2])
            builder.build().compiled
            builder.add_answers(users, items, options)
            answers = [np.concatenate(part) for part in zip(
                builder._base.triples, *builder._chunks)]
            with pytest.raises(InvalidResponseMatrixError) as expected:
                ResponseMatrix.from_triples(*answers, shape=(3, 3), num_options=3)
            with pytest.raises(InvalidResponseMatrixError) as raised:
                builder.build()
            assert str(raised.value) == str(expected.value)

    def test_a_build_only_merges(self, monkeypatch):
        """No build calls ``from_triples`` or the range checks: a clean
        append, a replay, a grown inferred shape and each kind of conflict
        give ``from_triples``' matrix or error on the distinct answers."""
        import repro.core.response as response_module

        def forbidden(*args, **kwargs):
            raise AssertionError("a build checked the crowd again")

        def build(builder):
            with monkeypatch.context() as patched:
                patched.setattr(ResponseMatrix, "from_triples", forbidden)
                patched.setattr(response_module, "_check_answers", forbidden)
                return builder.build()

        cases = {
            "clean": [([2, 0], [1, 2], [1, 0])],
            "exact replay": [([0, 1], [0, 2], [1, 2]), ([2, 2], [0, 0], [1, 1])],
            "grown shape": [([4, 0], [6, 1], [5, 3])],
            "conflict in the batch": [([2, 2], [1, 1], [0, 1])],
            "conflict with the base": [([3], [0], [2])],
            "both, behind exact repeats": [([0], [0], [1]),
                                           ([3, 1, 1], [0, 1, 1], [0, 1, 1])],
        }
        for case, batches in cases.items():
            builder = ResponseBuilder()
            builder.add_answers([0, 1, 1, 3], [0, 1, 2, 0], [1, 0, 2, 1])
            base = build(builder)
            base.content_hash()  # the merge derives both from the base's
            base.compiled
            for batch in batches:
                builder.add_answers(*batch)
            rows = np.unique(np.column_stack([np.concatenate(part) for part in zip(
                base.triples, *builder._chunks)]), axis=0)
            try:
                expected = ResponseMatrix.from_triples(
                    *rows.T, shape=(builder.num_users, int(rows[:, 1].max()) + 1))
            except InvalidResponseMatrixError as refusal:
                with pytest.raises(InvalidResponseMatrixError) as raised:
                    build(builder)
                assert str(raised.value) == str(refusal), case
                assert builder._base is base
            else:
                self._assert_same_state(build(builder), expected)

    def test_num_users_is_a_floor(self):
        builder = ResponseBuilder(num_items=2, num_options=2)
        builder.add_answers([0, 2], [1, 0], [1, 0])
        assert builder.build(num_users=1).num_users == 3
        assert builder.build(num_users=7).num_users == 7
        assert builder.build().num_users == 3

    def test_counts_are_inferred_from_the_base_and_the_kept_batches(self):
        """A build's inferred counts come from what the builder holds, so a
        batch it no longer holds leaves no trace in them."""
        builder = ResponseBuilder()
        builder.add_answers([0, 1], [0, 1], [1, 2])
        builder.build()
        builder.add_answers([2], [2], [0])
        builder.add_answers([0, 3], [0, 5], [0, 6])  # (0, 0) conflicts
        with pytest.raises(InvalidResponseMatrixError, match="user 0 answered item 0"):
            builder.build()
        del builder._chunks[1]
        built = builder.build()
        assert built == ResponseMatrix.from_triples([0, 1, 2], [0, 1, 2], [1, 2, 0],
                                                    shape=(4, 3))
        np.testing.assert_array_equal(built.num_options, [2, 3, 2])


class TestSaveLoad:
    @pytest.mark.parametrize("suffix", [".npz", ".csv"])
    def test_round_trip(self, tmp_path, suffix, paper_example_response):
        path = tmp_path / ("matrix" + suffix)
        paper_example_response.save(path)
        reloaded = ResponseMatrix.load(path)
        assert reloaded == paper_example_response
        assert hash(reloaded) == hash(paper_example_response)
        np.testing.assert_array_equal(
            reloaded.compiled.binary.indices,
            paper_example_response.compiled.binary.indices,
        )

    @pytest.mark.parametrize("suffix", [".npz", ".csv"])
    def test_round_trip_sparse_ragged(self, tmp_path, suffix):
        rng = np.random.default_rng(3)
        choices = rng.integers(-1, 2, size=(20, 7))
        choices[0, 0] = 0
        response = ResponseMatrix(choices, num_options=[2, 3, 2, 4, 2, 2, 5])
        path = tmp_path / ("ragged" + suffix)
        response.save(path)
        assert ResponseMatrix.load(path) == response

    def test_unknown_extension_rejected(self, tmp_path, paper_example_response):
        with pytest.raises(ValueError, match="unsupported extension"):
            paper_example_response.save(tmp_path / "matrix.parquet")
        with pytest.raises(ValueError, match="unsupported extension"):
            ResponseMatrix.load(tmp_path / "matrix.parquet")

    def test_csv_with_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("user,item,option\n0,0,1\n")
        with pytest.raises(InvalidResponseMatrixError, match="bad header"):
            ResponseMatrix.load(path)


class TestDenseViewsStayLazy:
    def test_dense_views_materialize_correctly(self):
        response = ResponseMatrix.from_triples(
            [0, 1], [1, 0], [1, 0], shape=(2, 2), num_options=2
        )
        assert response._dense_choices is None
        np.testing.assert_array_equal(
            response.choices, [[NO_ANSWER, 1], [0, NO_ANSWER]]
        )
        np.testing.assert_array_equal(
            response.answered_mask, [[False, True], [True, False]]
        )

    def test_triples_construction_never_builds_dense(self, monkeypatch):
        def forbidden(self):  # pragma: no cover - the assertion is the point
            raise AssertionError("dense (m, n) view materialized on the sparse path")

        monkeypatch.setattr(ResponseMatrix, "_materialize_dense", forbidden)
        monkeypatch.setattr(ResponseMatrix, "_materialize_mask", forbidden)
        rng = np.random.default_rng(0)
        response = ResponseMatrix.from_triples(
            rng.permutation(50), np.arange(50) % 10, rng.integers(0, 3, 50),
            shape=(50, 10), num_options=3,
        )
        response.compiled
        response.majority_choices()
        response.choice_entropy()
        response.option_counts(0)
        response.subset_users(np.arange(25)).subset_items([0, 1, 2])
        response.permute_users(rng.permutation(50))
        response.drop_unanswered_items()
        score_against_truth(response, np.zeros(10, dtype=int))
        assert response.is_connected() in (True, False)


@pytest.mark.slow
class TestSparseScale:
    """Acceptance gate: a 200k x 5k, ~0.1%-density crowd ranks with no
    dense ``(m, n)`` allocation anywhere on the path."""

    def test_large_sparse_workload_never_densifies(self, monkeypatch):
        num_users, num_items, num_options = 200_000, 5_000, 4
        nnz_target = int(num_users * num_items * 0.001)
        rng = np.random.default_rng(7)
        keys = np.unique(
            rng.integers(0, num_users * num_items, size=int(nnz_target * 1.1))
        )
        if keys.size > nnz_target:  # random subsample, not a sorted-prefix cut
            keys = np.sort(rng.choice(keys, size=nnz_target, replace=False))
        users = keys // num_items
        items = keys % num_items
        options = rng.integers(0, num_options, size=keys.size)

        def forbidden(self):  # pragma: no cover - the assertion is the point
            raise AssertionError("dense (m, n) view materialized at sparse scale")

        monkeypatch.setattr(ResponseMatrix, "_materialize_dense", forbidden)
        monkeypatch.setattr(ResponseMatrix, "_materialize_mask", forbidden)

        response = ResponseMatrix.from_triples(
            users, items, options,
            shape=(num_users, num_items), num_options=num_options,
        )
        assert response.num_answers == keys.size

        # Iteration caps keep the test fast; the assertion is about memory,
        # not convergence.
        hnd = HNDPower(random_state=0, max_iterations=5).rank(response)
        assert hnd.scores.shape == (num_users,)
        ds = DawidSkeneRanker(max_iterations=2).rank(response)
        assert ds.scores.shape == (num_users,)


class TestValidateAnswerBatch:
    """The one copy of the range rules, called by ``from_triples`` and by
    every accept point: what it refuses, how it names the offender, and
    what it takes."""

    @pytest.mark.parametrize("batch, bounds, message", [
        pytest.param(([[0]], [0], [0]), {}, "users must be a 1-D array",
                     id="two-dimensional-users"),
        pytest.param(([0], [0.5], [0]), {}, "items must contain integers",
                     id="fractional-item"),
        pytest.param(([0], [0], ["a"]), {}, "options must contain integers",
                     id="non-numeric-option"),
        pytest.param(([-1], [0], [0]), {}, r"user indices must be >= 0, got -1",
                     id="negative-user-unbounded"),
        pytest.param(([0], [-2], [0]), {}, r"item indices must be >= 0, got -2",
                     id="negative-item-unbounded"),
        pytest.param(([0, 2], [0, 0], [0, 0]), {"num_users": 2},
                     r"user index 2 is outside \[0, 2\)", id="user-past-the-count"),
        pytest.param(([0, 0, 0], [1, 4, 3], [0, 0, 0]), {"num_items": 3},
                     r"item index 4 is outside \[0, 3\)",
                     id="first-offending-item-named"),
        pytest.param(([0, 0, 0], [2, 1, 0], [3, 3, 2]),
                     {"num_options": np.array([2, 3, 4])},
                     r"item 1 has a choice index >= its number of options \(3\)",
                     id="first-offending-option-named"),
        pytest.param(([0, 0], [0, 5], [0, 2]), {"num_options": 2},
                     r"item 5 has a choice index >= its number of options \(2\)",
                     id="scalar-option-count"),
    ])
    def test_refusals_name_the_offending_entry(self, batch, bounds, message):
        with pytest.raises(InvalidResponseMatrixError, match=message):
            validate_answer_batch(*batch, **bounds)

    def test_integral_floats_are_taken_as_int64(self):
        users, items, options = validate_answer_batch([0.0, 1.0], [2.0, 0.0],
                                                      [1.0, 0.0])
        for array, expected in ((users, [0, 1]), (items, [2, 0]), (options, [1, 0])):
            assert array.dtype == np.int64
            np.testing.assert_array_equal(array, expected)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.inf, -np.inf, 2.0**63, 1e300])
    def test_a_float_int64_cannot_hold_is_not_an_integer(self, tmp_path, value):
        """``inf == floor(inf)``: a whole float past ``int64`` is refused,
        not cast to a value nobody passed."""
        with pytest.raises(InvalidResponseMatrixError, match="^items must contain integers"):
            validate_answer_batch([0, 1], [0.0, value], [1, 0])
        with pytest.raises(InvalidResponseMatrixError, match="^users must contain integers"):
            ResponseMatrix.from_triples([value], [0], [1], shape=(2, 2))
        with pytest.raises(InvalidResponseMatrixError, match="^choices must contain integers"):
            ResponseMatrix(np.array([[0.0, np.nan], [1.0, value]]))
        path = tmp_path / "crowd.npz"
        np.savez(path, users=np.array([0, 1]), items=np.array([0, 1]),
                 options=np.array([1.0, value]), num_options=np.array([2, 2]),
                 shape=np.array([2, 2]))
        with pytest.raises(InvalidResponseMatrixError) as raised:
            ResponseMatrix.load(path)
        assert str(raised.value) == "%s: options must contain integers" % path

    @pytest.mark.parametrize("num_options", [
        pytest.param(np.array([2, 5]), id="array"),
        pytest.param([2, 5], id="list"),
    ])
    def test_per_item_counts_bound_each_item_on_its_own(self, num_options):
        """An option past the smallest count is checked item by item."""
        users, items, options = validate_answer_batch(
            [0, 1], [1, 0], [4, 1], num_items=2, num_options=num_options)
        np.testing.assert_array_equal(options, [4, 1])
        with pytest.raises(InvalidResponseMatrixError, match=r"item 0 .* \(2\)"):
            validate_answer_batch([0], [0], [2], num_items=2, num_options=num_options)

    def test_per_item_counts_bound_the_items_when_none_are_declared(self):
        with pytest.raises(InvalidResponseMatrixError,
                           match=r"item index 5 is outside \[0, 2\)"):
            validate_answer_batch([0], [5], [2], num_options=np.array([2, 3]))
        users, items, options = validate_answer_batch([0, 1], [1, 0], [2, 1],
                                                      num_options=[2, 3])
        np.testing.assert_array_equal(items, [1, 0])

    def test_an_empty_batch_skips_the_range_checks(self):
        users, items, options = validate_answer_batch(
            [], [], [], num_users=1, num_items=1, num_options=1)
        assert users.size == items.size == options.size == 0
        assert users.dtype == items.dtype == options.dtype == np.int64


class TestCanonicalDtype:
    """One dtype rule: each triple component is ``int32`` when its bound
    (``m``, ``n``, the largest option count) fits in ``int32``, else
    ``int64``; digests stay defined over ``int64`` values."""

    def test_every_construction_path_stores_int32(self, tmp_path,
                                                   paper_example_response):
        builder = ResponseBuilder(num_items=4, num_options=3)
        builder.add_answers([0, 1, 1], [2, 3, 0], [1, 2, 0])
        built = builder.build()
        builder.add_answers([2], [1], [1])
        merged = builder.build()
        path = tmp_path / "crowd.npz"
        merged.save(path)
        with np.load(path) as saved:
            assert [saved[name].dtype for name in ("users", "items", "options")] \
                == [np.int32] * 3
        for matrix in (paper_example_response, built, merged,
                       merged.subset_users([2, 0]), merged.subset_items([3, 1]),
                       merged.permute_users([2, 0, 1]), ResponseMatrix.load(path),
                       ResponseMatrix.from_binary(merged.binary, 3)):
            assert [array.dtype for array in matrix.triples] == [np.int32] * 3

    def test_a_user_past_int32_widens_the_users_instead_of_wrapping(self):
        """A build whose shape needs int64 users widens the int32 base
        before it merges: ``np.insert`` would cast the new user to int32."""
        builder = ResponseBuilder(num_items=3, num_options=2)
        builder.add_answers([0, 1], [0, 2], [1, 0])
        assert [array.dtype for array in builder.build().triples] == [np.int32] * 3
        user = 2**31 + 5
        builder.add_answers([user, 1], [1, 1], [1, 1])
        built = builder.build(num_users=2)
        users, items, options = built.triples
        assert users.dtype == np.int64
        assert items.dtype == options.dtype == np.int32
        np.testing.assert_array_equal(users, [0, 1, 1, user])
        np.testing.assert_array_equal(items, [0, 1, 2, 1])
        assert built.num_users == user + 1
        assert built == ResponseMatrix.from_triples(
            [user, 0, 1, 1], [1, 0, 2, 1], [1, 1, 0, 1],
            shape=(user + 1, 3), num_options=2)

    def test_the_content_digests_keep_their_values(self):
        """A fixed crowd's Merkle and flat digests are the literals the
        ``int64`` triples gave, from scratch and merged."""
        users = np.repeat(np.arange(37), 5)
        items = (np.tile(np.arange(5), 37) * 2 + users) % 11
        options = (users * 3 + items) % 3
        per_item = [3 + item % 2 for item in range(11)]
        matrix = ResponseMatrix.from_triples(users, items, options, shape=(40, 11),
                                             num_options=per_item)
        assert matrix.triples[0].dtype == np.int32
        assert matrix.content_hash() == "b2aeca4af423af21aa9c9d3f21e6a8aa"
        assert _flat_content_hash(matrix) == "0622a393462caf0966e133648b9f9d9a"
        builder = ResponseBuilder(num_items=11, num_options=per_item)
        builder.add_answers(users[:100], items[:100], options[:100])
        builder.build(num_users=40).content_hash()
        builder.add_answers(users[100:], items[100:], options[100:])
        assert builder.build(num_users=40).content_hash() == matrix.content_hash()


def _planted_answers(num_users, num_items=2_000, per_user=20, seed=1):
    """Sorted, repeat-free answers: about ``per_user`` items per user."""
    rng = np.random.default_rng(seed)
    items = np.sort(rng.choice(num_items, size=(num_users, per_user)), axis=1).ravel()
    users = np.repeat(np.arange(num_users, dtype=np.int64), per_user)
    fresh = np.concatenate(([True], (users[1:] != users[:-1]) | (items[1:] != items[:-1])))
    users, items = users[fresh], items[fresh].astype(np.int64)
    return users, items, rng.integers(0, 4, size=users.size)


def _traced_peak_per_answer(construct):
    """The matrix ``construct`` returns and its traced peak, per answer."""
    tracemalloc.start()
    try:
        matrix = construct()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return matrix, peak / matrix.num_answers


class TestLeanConstruction:
    """The constructors keep no throwaway copy of the crowd.  A bulk build
    peaked at 122 bytes per answer and ``from_triples`` at 41 with
    ``int64`` triples; the lean paths read 24 and 21, and one more
    ``int64`` copy of a component would add 8.  ``from_triples`` reads 21
    on ``int32`` input too, what a loaded NPZ hands it; widening that
    input before narrowing it read 28."""

    def test_a_bulk_build_peaks_under_28_bytes_per_answer(self):
        users, items, options = _planted_answers(10_000)
        arrival = np.random.default_rng(2).permutation(users.size)
        builder = ResponseBuilder(num_items=2_000, num_options=4)
        for part in np.array_split(arrival, 4):
            builder.add_answers(users[part], items[part], options[part])
        built, per_answer = _traced_peak_per_answer(
            lambda: builder.build(num_users=10_000))
        assert built == ResponseMatrix.from_triples(
            users, items, options, shape=(10_000, 2_000), num_options=4)
        assert per_answer < 28, per_answer

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_from_triples_peaks_under_24_bytes_per_answer(self, dtype):
        users, items, options = (array.astype(dtype)
                                 for array in _planted_answers(10_000))
        matrix, per_answer = _traced_peak_per_answer(
            lambda: ResponseMatrix.from_triples(users, items, options,
                                                shape=(10_000, 2_000), num_options=4))
        assert matrix.num_answers == users.size
        assert per_answer < 24, per_answer

    def test_an_append_build_keys_only_the_users_it_touches(self, monkeypatch):
        builder = ResponseBuilder(num_items=20, num_options=4)
        users = np.repeat(np.arange(300), 5)
        items = np.tile(np.arange(5), 300)
        builder.add_answers(users, items, (users + items) % 4)
        builder.build()

        keyed = []

        def recording(values, *args, _multiply=np.multiply, **kwargs):
            keyed.append(np.size(values))
            return _multiply(values, *args, **kwargs)

        monkeypatch.setattr(np, "multiply", recording)
        new = ([299, 0, 150, 7, 0, 3, 42], [9, 9, 9, 9, 10, 11, 12], [0, 1, 2, 3, 0, 1, 2])
        builder.add_answers(*new)
        built = builder.build()
        monkeypatch.undo()
        # The batch, then the base answers of its six users.
        assert max(keyed) <= 6 * 5 and sum(keyed) <= 2 * 7 + 6 * 5
        union = [np.concatenate((old, added)) for old, added in
                 zip((users, items, (users + items) % 4), new)]
        assert built == ResponseMatrix.from_triples(*union, shape=(300, 20),
                                                    num_options=4)
