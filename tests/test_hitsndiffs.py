"""Tests for the HITSnDIFFS ranker family (the paper's core contribution)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import REGISTRY, rank
from repro.c1p.properties import is_p_matrix
from repro.core.hitsndiffs import HNDDeflation, HNDDirect, HNDPower, hits_n_diffs
from repro.core.response import ResponseMatrix
from repro.core.symmetry import orient_scores
from repro.evaluation.metrics import (
    orientation_agnostic_accuracy,
    spearman_accuracy,
)
from repro.exceptions import DisconnectedGraphError
from repro.irt.generators import generate_c1p_dataset, generate_dataset

ALL_VARIANTS = [HNDPower, HNDDirect, HNDDeflation]


def _variant(cls, **kwargs):
    if cls is HNDDirect:
        kwargs.pop("random_state", None)
    return cls(**kwargs)


class TestIdealC1PRecovery:
    """Theorem 2: HND reconstructs the consistent ordering on pre-P inputs."""

    @pytest.mark.parametrize("ranker_cls", ALL_VARIANTS)
    def test_recovers_c1p_ordering(self, ranker_cls):
        dataset = generate_c1p_dataset(30, 60, 3, random_state=0)
        ranker = _variant(ranker_cls, break_symmetry=False, random_state=1)
        ranking = ranker.rank(dataset.response)
        binary = dataset.response.binary_dense
        assert is_p_matrix(binary[ranking.order])

    @pytest.mark.parametrize("ranker_cls", ALL_VARIANTS)
    def test_orientation_agnostic_accuracy_is_near_perfect(self, ranker_cls):
        dataset = generate_c1p_dataset(50, 100, 3, random_state=5)
        ranking = _variant(ranker_cls, break_symmetry=False, random_state=2).rank(
            dataset.response
        )
        assert orientation_agnostic_accuracy(ranking, dataset.abilities) > 0.99

    def test_symmetry_breaking_gives_positive_correlation(self):
        dataset = generate_c1p_dataset(60, 100, 3, random_state=9)
        ranking = HNDPower(random_state=3).rank(dataset.response)
        assert spearman_accuracy(ranking, dataset.abilities) > 0.99

    def test_all_variants_agree_on_ideal_input(self):
        # Users with identical response rows are interchangeable, so exact
        # orders can differ between variants; every variant must nevertheless
        # produce a valid C1P ordering of the binary matrix.
        dataset = generate_c1p_dataset(25, 50, 3, random_state=13)
        binary = dataset.response.binary_dense
        for cls in ALL_VARIANTS:
            order = _variant(cls, random_state=4).rank(dataset.response).order
            assert is_p_matrix(binary[order])


class TestGeneralInputs:
    @pytest.mark.parametrize("model", ["grm", "bock", "samejima"])
    def test_high_accuracy_on_irt_data(self, model):
        dataset = generate_dataset(model, 80, 120, 3, random_state=17)
        ranking = HNDPower(random_state=5).rank(dataset.response)
        assert spearman_accuracy(ranking, dataset.abilities) > 0.8

    def test_handles_missing_answers(self):
        # With sparse answers the decile-entropy orientation heuristic can
        # occasionally flip, so the ranking quality is judged orientation-
        # agnostically here (orientation is covered by test_symmetry.py).
        dataset = generate_dataset(
            "samejima", 100, 150, 3, answer_probability=0.7, random_state=21
        )
        ranking = HNDPower(random_state=6).rank(dataset.response)
        assert orientation_agnostic_accuracy(ranking, dataset.abilities) > 0.8

    def test_power_and_direct_agree_on_general_input(self):
        dataset = generate_dataset("grm", 50, 80, 3, random_state=23)
        power = HNDPower(break_symmetry=False, random_state=7).rank(dataset.response)
        direct = HNDDirect(break_symmetry=False).rank(dataset.response)
        correlation = abs(spearman_accuracy(power, direct.scores))
        assert correlation > 0.98

    def test_deterministic_given_seed(self):
        dataset = generate_dataset("grm", 40, 60, 3, random_state=29)
        first = HNDPower(random_state=11).rank(dataset.response)
        second = HNDPower(random_state=11).rank(dataset.response)
        np.testing.assert_allclose(first.scores, second.scores)

    def test_diagnostics_reported(self):
        dataset = generate_dataset("grm", 30, 40, 3, random_state=31)
        ranking = HNDPower(random_state=12).rank(dataset.response)
        assert "iterations" in ranking.diagnostics
        assert "converged" in ranking.diagnostics
        assert "symmetry_flipped" in ranking.diagnostics

    def test_single_user_degenerate_case(self):
        response = ResponseMatrix(np.array([[0, 1, 2]]), num_options=3)
        ranking = HNDPower().rank(response)
        assert ranking.num_users == 1

    def test_two_users(self):
        response = ResponseMatrix(np.array([[0, 0], [1, 1]]), num_options=2)
        ranking = HNDPower(random_state=0).rank(response)
        assert ranking.num_users == 2
        assert ranking.scores[0] != pytest.approx(ranking.scores[1])

    def test_connectivity_check_raises(self):
        choices = np.array([[0, -1], [-1, 0]])
        response = ResponseMatrix(choices, num_options=2)
        with pytest.raises(DisconnectedGraphError):
            HNDPower(check_connectivity=True).rank(response)

    def test_connectivity_check_disabled_by_default(self):
        choices = np.array([[0, -1], [-1, 0]])
        response = ResponseMatrix(choices, num_options=2)
        ranking = HNDPower(random_state=0).rank(response)
        assert ranking.num_users == 2


class TestFunctionalEntryPoint:
    def test_variants_dispatch(self, small_grm_dataset):
        for variant in ("power", "direct", "deflation"):
            ranking = hits_n_diffs(small_grm_dataset.response, variant=variant)
            assert ranking.num_users == small_grm_dataset.num_users

    def test_unknown_variant_rejected(self, small_grm_dataset):
        with pytest.raises(ValueError):
            hits_n_diffs(small_grm_dataset.response, variant="nope")


def _tie_refined_order(scores: np.ndarray, abilities: np.ndarray) -> np.ndarray:
    """Score order with genuinely tied entries broken by true ability.

    The 2nd eigenvector can assign *mathematically equal* entries both to
    duplicate users and — empirically (hypothesis seeds 243 and 378, where
    the seed implementation fails the raw assertion identically) — to some
    distinct users; the tie persists at iteration tolerance 1e-13, and only
    certain relative orders of a tie group realize C1P.  A tie therefore
    carries no ordering information, so we break it with the ground-truth
    ability.  Users the eigenvector actually separates (score gap above the
    tolerance, 100x looser than the iteration tolerance used by the test)
    keep the implementation's order, so a genuinely wrong ordering still
    fails.  Scores are first oriented to correlate positively with ability
    (break_symmetry=False leaves the sign arbitrary).

    Returns the refined order and the number of tie groups; the caller must
    check the group count stays high, else a degenerate all-equal score
    vector would collapse into one group ordered entirely by ground truth
    and the property would pass vacuously."""
    if np.corrcoef(scores, abilities)[0, 1] < 0:
        scores = -scores
    order = np.argsort(scores, kind="stable")
    span = float(scores[order[-1]] - scores[order[0]])
    tolerance = 1e-8 * max(span, 1.0)
    refined = []
    groups = 0
    group = [order[0]]
    for user in order[1:]:
        if scores[user] - scores[group[-1]] <= tolerance:
            group.append(user)
        else:
            refined.extend(sorted(group, key=lambda u: abilities[u]))
            groups += 1
            group = [user]
    refined.extend(sorted(group, key=lambda u: abilities[u]))
    groups += 1
    return np.array(refined), groups


class TestHNDProperties:
    @given(seed=st.integers(min_value=0, max_value=500),
           num_users=st.integers(min_value=10, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_c1p_recovery_property(self, seed, num_users):
        """Property: on any ideal consistent-response instance, the HND-power
        ordering turns the binary response matrix into a P-matrix.

        The number of items is kept at three times the number of users so the
        consecutive ones ordering is (with overwhelming probability) unique —
        the precondition of Theorem 2.  With very few items several distinct
        orderings can be valid and the eigenvector may legitimately tie
        distinct users, in which case sorting by score alone can interleave
        tied groups.
        """
        num_items = 3 * num_users
        dataset = generate_c1p_dataset(num_users, num_items, 3, random_state=seed)
        ranking = HNDPower(
            break_symmetry=False, random_state=seed + 1, tolerance=1e-10
        ).rank(dataset.response)
        binary = dataset.response.binary_dense
        order, tie_groups = _tie_refined_order(ranking.scores, dataset.abilities)
        # Most users must be separated by their scores — otherwise the
        # ability tie-break is doing the ordering, not the eigenvector.
        assert tie_groups >= max(2, num_users // 3)
        assert is_p_matrix(binary[order])

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_scores_are_finite(self, seed):
        dataset = generate_dataset("samejima", 30, 40, 3, random_state=seed)
        ranking = HNDPower(random_state=seed).rank(dataset.response)
        assert np.all(np.isfinite(ranking.scores))


#: The five eigenvector rankers, with the seed that makes each solve repeatable.
EIGENVECTOR_METHODS = {
    "HnD": {"random_state": 0},
    "HnD-direct": {},
    "HnD-deflation": {"random_state": 0},
    "ABH": {},
    "ABH-power": {"random_state": 0},
}


@pytest.mark.parametrize("method", list(EIGENVECTOR_METHODS))
def test_eigenvector_frame(method):
    """The frame all five eigenvector rankers share: the connectivity check,
    the one-user crowd and the orientation.  Crowds have at most 16 users,
    so the direct solvers take their deterministic dense path."""
    params = EIGENVECTOR_METHODS[method]
    disconnected = ResponseMatrix(np.array([[0, -1], [-1, 0]]), num_options=2)
    checked = REGISTRY.create(method, check_connectivity=True, **params)
    with pytest.raises(DisconnectedGraphError):
        checked.rank(disconnected)

    single = REGISTRY.create(method, **params).rank(
        ResponseMatrix(np.array([[0, 1, 2]]), num_options=3)
    )
    np.testing.assert_array_equal(single.scores, [0.0])
    assert single.diagnostics == (
        {"iterations": 0, "converged": True, "warm_start": "cold"}
        if method == "HnD" else {}
    )
    assert single.state is None

    crowd = generate_dataset("grm", 16, 30, 3, random_state=3).response
    raw = REGISTRY.create(method, break_symmetry=False, **params).rank(crowd)
    oriented = REGISTRY.create(method, **params).rank(crowd)
    scores, symmetry = orient_scores(crowd, raw.scores)
    np.testing.assert_array_equal(oriented.scores, scores)
    assert oriented.diagnostics == {**raw.diagnostics, **symmetry}


@pytest.mark.parametrize("method", ["HnD-direct", "ABH"])
def test_direct_solves_of_one_crowd_are_bit_identical(method):
    """Both methods are registered cacheable, so a recompute must equal a
    cache or snapshot hit bit for bit.  Past 16 users they call ARPACK,
    which starts from one seeded vector instead of a fresh random one."""
    crowd = generate_dataset("grm", 100, 30, 3, random_state=0).response
    first, *rest = [rank(crowd, method).scores for _ in range(3)]
    for scores in rest:
        assert scores.tobytes() == first.tobytes()
