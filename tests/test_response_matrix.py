"""Tests for the ResponseMatrix data structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.response import NO_ANSWER, ResponseMatrix, score_against_truth
from repro.exceptions import DisconnectedGraphError, InvalidResponseMatrixError


class TestConstruction:
    def test_basic_shape_properties(self, paper_example_response):
        response = paper_example_response
        assert response.num_users == 4
        assert response.num_items == 3
        assert response.max_options == 3
        assert response.num_option_columns == 9

    def test_choices_are_copied(self):
        choices = np.array([[0, 1], [1, 0]])
        response = ResponseMatrix(choices, num_options=2)
        choices[0, 0] = 1
        assert response.choices[0, 0] == 0

    def test_float_integers_accepted(self):
        response = ResponseMatrix(np.array([[0.0, 1.0], [1.0, np.nan]]), num_options=2)
        assert response.choices[1, 1] == NO_ANSWER

    def test_non_integer_floats_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix(np.array([[0.5, 1.0]]), num_options=2)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix(np.empty((0, 0), dtype=int))

    def test_all_missing_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix(np.full((3, 3), NO_ANSWER), num_options=3)

    def test_choice_out_of_range_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix(np.array([[0, 3]]), num_options=3)

    def test_choice_below_minus_one_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix(np.array([[-2, 0]]), num_options=2)

    def test_per_item_option_counts(self):
        response = ResponseMatrix(np.array([[0, 1], [1, 2]]), num_options=[2, 3])
        np.testing.assert_array_equal(response.num_options, [2, 3])
        assert response.num_option_columns == 5

    def test_wrong_num_options_length_rejected(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix(np.array([[0, 1]]), num_options=[2])

    def test_inferred_num_options(self):
        response = ResponseMatrix(np.array([[0, 2], [1, 0]]))
        assert response.num_options[1] == 3


def _dense_triples(choices):
    users, items = np.nonzero(choices != NO_ANSWER)
    return users, items, choices[users, items]


class TestDenseValidatesThroughTriples:
    """The dense constructor keeps its dense-only checks and hands the
    rest (option counts, per-item range, "no answers") to from_triples."""

    @pytest.mark.parametrize("choices, num_options, message", [
        (np.full((2, 3), NO_ANSWER), None,
         "the response matrix contains no answers at all"),
        (np.array([[0, 3], [NO_ANSWER, 1]]), 3,
         "item 1 has a choice index >= its number of options (3)"),
        (np.array([[0, 1]]), [2], "num_options must have one entry per item (2), got 1"),
    ])
    def test_same_message_as_from_triples(self, choices, num_options, message):
        with pytest.raises(InvalidResponseMatrixError) as dense:
            ResponseMatrix(choices, num_options=num_options)
        with pytest.raises(InvalidResponseMatrixError) as triples:
            ResponseMatrix.from_triples(*_dense_triples(choices), shape=choices.shape,
                                        num_options=num_options)
        assert str(dense.value) == str(triples.value) == message

    @given(
        num_users=st.integers(min_value=1, max_value=10),
        num_items=st.integers(min_value=1, max_value=8),
        max_option=st.integers(min_value=0, max_value=5),
        density=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_dense_equals_triples_with_inferred_option_counts(
        self, num_users, num_items, max_option, density, seed
    ):
        rng = np.random.default_rng(seed)
        choices = rng.integers(0, max_option + 1, size=(num_users, num_items))
        choices[rng.random(choices.shape) >= density] = NO_ANSWER
        choices[:, rng.random(num_items) < 0.3] = NO_ANSWER  # unanswered items
        choices[0, 0] = max(choices[0, 0], 0)  # at least one answer
        via_dense = ResponseMatrix(choices)
        via_triples = ResponseMatrix.from_triples(*_dense_triples(choices),
                                                  shape=choices.shape)
        assert via_dense == via_triples
        assert hash(via_dense) == hash(via_triples)
        assert via_dense.content_hash() == via_triples.content_hash()
        unanswered = np.all(choices == NO_ANSWER, axis=0)
        assert np.all(via_dense.num_options[unanswered] == 2)
        np.testing.assert_array_equal(via_dense.choices, choices)


class TestBinaryRepresentation:
    def test_binary_matches_paper_example(self, paper_example_response):
        binary = paper_example_response.binary_dense
        assert binary.shape == (4, 9)
        # Every user answers every item: one 1 per item block per row.
        assert binary.sum() == 12
        np.testing.assert_array_equal(binary.sum(axis=1), [3, 3, 3, 3])

    def test_binary_one_hot_positions(self):
        response = ResponseMatrix(np.array([[2, 0]]), num_options=3)
        expected = np.array([[0, 0, 1, 1, 0, 0]])
        np.testing.assert_array_equal(response.binary_dense, expected)

    def test_missing_answer_gives_zero_block(self):
        response = ResponseMatrix(np.array([[NO_ANSWER, 1]]), num_options=2)
        np.testing.assert_array_equal(response.binary_dense, [[0, 0, 0, 1]])

    def test_from_binary_roundtrip(self, paper_example_response):
        rebuilt = ResponseMatrix.from_binary(
            paper_example_response.binary_dense, num_options=3
        )
        assert rebuilt == paper_example_response

    def test_from_binary_rejects_double_choice(self):
        bad = np.array([[1, 1, 0, 0]])
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix.from_binary(bad, num_options=2)

    def test_from_binary_rejects_non_binary(self):
        with pytest.raises(InvalidResponseMatrixError):
            ResponseMatrix.from_binary(np.array([[2, 0]]), num_options=2)

    def test_row_normalized_sums(self, paper_example_response):
        row_norm = paper_example_response.row_normalized()
        np.testing.assert_allclose(np.asarray(row_norm.sum(axis=1)).ravel(), np.ones(4))

    def test_column_normalized_sums(self, paper_example_response):
        col_norm = paper_example_response.column_normalized()
        sums = np.asarray(col_norm.sum(axis=0)).ravel()
        # Chosen columns sum to 1, never-chosen columns stay 0.
        assert set(np.round(sums, 6)).issubset({0.0, 1.0})

    def test_user_similarity_diagonal_counts_answers(self, paper_example_response):
        similarity = paper_example_response.user_similarity()
        np.testing.assert_allclose(np.diag(similarity), [3, 3, 3, 3])
        assert similarity[0, 1] == 2  # users 1 and 2 share items 2 and 3 choices


class TestStatisticsAndTransforms:
    def test_answers_per_user_and_item(self):
        choices = np.array([[0, NO_ANSWER], [1, 1]])
        response = ResponseMatrix(choices, num_options=2)
        np.testing.assert_array_equal(response.answers_per_user, [1, 2])
        np.testing.assert_array_equal(response.answers_per_item, [2, 1])
        assert not response.is_complete

    def test_majority_choices(self, paper_example_response):
        np.testing.assert_array_equal(
            paper_example_response.majority_choices(), [2, 0, 0]
        )

    def test_option_counts(self, paper_example_response):
        np.testing.assert_array_equal(
            paper_example_response.option_counts(0), [1, 0, 3]
        )

    def test_choice_entropy_zero_for_unanimous(self):
        response = ResponseMatrix(np.array([[1, 1], [1, 1]]), num_options=2)
        assert response.choice_entropy() == pytest.approx(0.0)

    def test_choice_entropy_maximal_for_uniform(self):
        response = ResponseMatrix(np.array([[0], [1]]), num_options=2)
        assert response.choice_entropy() == pytest.approx(1.0)

    def test_choice_entropy_subset_of_users(self, paper_example_response):
        all_users = paper_example_response.choice_entropy()
        top_only = paper_example_response.choice_entropy([3])
        assert top_only <= all_users

    def test_permute_users(self, paper_example_response):
        permuted = paper_example_response.permute_users([3, 2, 1, 0])
        np.testing.assert_array_equal(permuted.choices[0], paper_example_response.choices[3])

    def test_permute_users_requires_permutation(self, paper_example_response):
        with pytest.raises(ValueError):
            paper_example_response.permute_users([0, 0, 1, 2])

    def test_subset_users_and_items(self, paper_example_response):
        subset = paper_example_response.subset_users([0, 1]).subset_items([1, 2])
        assert subset.num_users == 2
        assert subset.num_items == 2

    def test_drop_unanswered_items(self):
        choices = np.array([[0, NO_ANSWER], [1, NO_ANSWER]])
        response = ResponseMatrix(choices, num_options=2)
        cleaned = response.drop_unanswered_items()
        assert cleaned.num_items == 1

    def test_equality_and_hash(self, paper_example_response):
        clone = ResponseMatrix(paper_example_response.choices, num_options=3)
        assert clone == paper_example_response
        assert hash(clone) == hash(paper_example_response)
        assert paper_example_response != "not a matrix"


class TestConnectivity:
    def test_connected_example(self, paper_example_response):
        assert paper_example_response.is_connected()
        paper_example_response.require_connected()

    def test_disconnected_components_detected(self):
        # Users {0,1} answer only item 0; users {2,3} answer only item 1.
        choices = np.array(
            [[0, NO_ANSWER], [1, NO_ANSWER], [NO_ANSWER, 0], [NO_ANSWER, 1]]
        )
        response = ResponseMatrix(choices, num_options=2)
        assert not response.is_connected()
        with pytest.raises(DisconnectedGraphError):
            response.require_connected()

    def test_shared_option_connects_users(self):
        choices = np.array([[0, NO_ANSWER], [0, 1]])
        response = ResponseMatrix(choices, num_options=2)
        assert response.is_connected()


class TestScoreAgainstTruth:
    def test_counts_correct_answers(self, paper_example_response):
        scores = score_against_truth(paper_example_response, [2, 2, 2])
        np.testing.assert_array_equal(scores, [0, 1, 1, 2])

    def test_missing_answers_never_count(self):
        response = ResponseMatrix(np.array([[NO_ANSWER, 1]]), num_options=2)
        np.testing.assert_array_equal(score_against_truth(response, [0, 1]), [1])

    def test_wrong_truth_length_rejected(self, paper_example_response):
        with pytest.raises(ValueError):
            score_against_truth(paper_example_response, [1, 2])


class TestResponseMatrixProperties:
    @given(
        num_users=st.integers(min_value=1, max_value=12),
        num_items=st.integers(min_value=1, max_value=8),
        num_options=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_binary_roundtrip_property(self, num_users, num_items, num_options, seed):
        rng = np.random.default_rng(seed)
        choices = rng.integers(0, num_options, size=(num_users, num_items))
        response = ResponseMatrix(choices, num_options=num_options)
        rebuilt = ResponseMatrix.from_binary(response.binary_dense, num_options=num_options)
        assert rebuilt == response

    @given(
        num_users=st.integers(min_value=1, max_value=12),
        num_items=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_binary_row_sums_equal_answer_counts(self, num_users, num_items, seed):
        rng = np.random.default_rng(seed)
        choices = rng.integers(-1, 3, size=(num_users, num_items))
        if np.all(choices == NO_ANSWER):
            choices[0, 0] = 0
        response = ResponseMatrix(choices, num_options=3)
        np.testing.assert_array_equal(
            np.asarray(response.binary.sum(axis=1)).ravel(), response.answers_per_user
        )
