"""Tests for the production-shaped scenario suite (PR 10).

Three contracts matter: resolution (scenario specs resolve like ranker
specs — did-you-mean errors, parameter validation), reproducibility
(same seed -> bit-identical triples, the foundation of byte-stable
screening artifacts), and structure (each scenario actually contains the
pathology its name promises, with planted truth that reflects it).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import Registry
from repro.core.response import ResponseBuilder
from repro.scenarios import (
    SCENARIOS,
    TripleBatch,
    generate_scenario,
    register_scenario,
)

ALL_SCENARIOS = tuple(SCENARIOS.names())


# --------------------------------------------------------------------------- #
# Registry resolution
# --------------------------------------------------------------------------- #
class TestScenarioRegistry:
    def test_the_lineup_is_registered(self):
        assert set(ALL_SCENARIOS) == {
            "colluding-bloc",
            "drifting-abilities",
            "heavy-tailed-activity",
            "heterogeneous-options",
            "burst-append",
        }

    def test_unknown_scenario_did_you_mean(self):
        with pytest.raises(KeyError, match="did you mean 'colluding-bloc'"):
            SCENARIOS.get("coluding-block")

    def test_case_insensitive_rescue(self):
        assert SCENARIOS.get("Burst-Append").name == "burst-append"

    def test_unknown_parameter_did_you_mean(self):
        with pytest.raises(TypeError, match="did you mean 'collusion'"):
            generate_scenario("colluding-bloc", 8, 8, random_state=0,
                              colusion=0.5)

    def test_contains_and_len(self):
        assert "colluding-bloc" in SCENARIOS
        assert "nope" not in SCENARIOS
        assert len(SCENARIOS) == len(ALL_SCENARIOS)

    def test_conflicting_registration_rejected(self):
        registry = Registry("scenario")

        @register_scenario("dup", registry=registry)
        def first(num_users, num_items, *, random_state=None):
            raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):

            @register_scenario("dup", registry=registry)
            def second(num_users, num_items, *, random_state=None):
                raise NotImplementedError

    def test_summary_falls_back_to_docstring(self):
        spec = SCENARIOS.get("colluding-bloc")
        assert "bloc" in spec.summary.lower()


# --------------------------------------------------------------------------- #
# Reproducibility — the contract screening byte-identity rests on
# --------------------------------------------------------------------------- #
class TestReproducibility:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_same_seed_same_triples(self, name):
        first = generate_scenario(name, 24, 12, random_state=42)
        second = generate_scenario(name, 24, 12, random_state=42)
        for a, b in zip(first.response.triples, second.response.triples):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(first.abilities, second.abilities)
        np.testing.assert_array_equal(first.correct_options,
                                      second.correct_options)
        assert len(first.batches) == len(second.batches)
        for lhs, rhs in zip(first.batches, second.batches):
            np.testing.assert_array_equal(lhs.users, rhs.users)
            np.testing.assert_array_equal(lhs.items, rhs.items)
            np.testing.assert_array_equal(lhs.options, rhs.options)

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_different_seed_different_crowd(self, name):
        first = generate_scenario(name, 24, 12, random_state=1)
        second = generate_scenario(name, 24, 12, random_state=2)
        same = (
            first.num_answers == second.num_answers
            and all(
                np.array_equal(a, b)
                for a, b in zip(first.response.triples,
                                second.response.triples)
            )
        )
        assert not same


# --------------------------------------------------------------------------- #
# Batch replay — appends through the builder reproduce the materialization
# --------------------------------------------------------------------------- #
class TestBatchReplay:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_replaying_batches_reproduces_the_response(self, name):
        instance = generate_scenario(name, 20, 10, random_state=7)
        builder = ResponseBuilder()
        for batch in instance.batches:
            builder.add_answers(batch.users, batch.items, batch.options)
        rebuilt = builder.build(
            num_users=instance.num_users,
            num_items=instance.num_items,
            num_options=instance.response.num_options.tolist(),
        )
        for a, b in zip(rebuilt.triples, instance.response.triples):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_batches_are_disjoint_cells(self, name):
        instance = generate_scenario(name, 20, 10, random_state=3)
        keys = np.concatenate([
            batch.users * instance.num_items + batch.items
            for batch in instance.batches
        ])
        assert np.unique(keys).size == keys.size


# --------------------------------------------------------------------------- #
# Structural properties — every scenario contains its advertised pathology
# --------------------------------------------------------------------------- #
def _realized_accuracy(instance):
    """Fraction of correct answers per user, NaN-free (coverage guarantees >=1)."""
    users, items, options = instance.response.triples
    correct = (options == instance.correct_options[items]).astype(float)
    hits = np.bincount(users, weights=correct, minlength=instance.num_users)
    counts = np.bincount(users, minlength=instance.num_users)
    assert counts.min() >= 1  # every user answered something
    return hits / counts


class TestCoverage:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_every_user_and_item_is_covered(self, name):
        instance = generate_scenario(name, 30, 9, random_state=11)
        users, items, _ = instance.response.triples
        assert np.unique(users).size == instance.num_users
        assert np.unique(items).size == instance.num_items


class TestColludingBloc:
    def test_bloc_is_planted_low_and_answers_badly(self):
        instance = generate_scenario("colluding-bloc", 60, 40, random_state=5)
        bloc = np.asarray(instance.metadata["bloc_users"])
        honest = np.setdiff1d(np.arange(instance.num_users), bloc)
        assert instance.abilities[bloc].max() < instance.abilities[honest].min()
        realized = _realized_accuracy(instance)
        assert realized[bloc].mean() < 0.35
        assert realized[honest].mean() > 0.5

    def test_bloc_agrees_with_itself(self):
        # The attack is coordination: on a shared item, two bloc answers
        # agree far more often than two honest answers do.
        instance = generate_scenario("colluding-bloc", 60, 40, random_state=5,
                                     collusion=1.0)
        bloc = set(instance.metadata["bloc_users"])
        users, items, options = instance.response.triples
        per_item_options = {}
        agreements = 0
        comparisons = 0
        for user, item, option in zip(users, items, options):
            if user not in bloc:
                continue
            if item in per_item_options:
                comparisons += 1
                agreements += int(option == per_item_options[item])
            else:
                per_item_options[item] = option
        assert comparisons > 0
        assert agreements == comparisons  # full collusion: always unanimous

    def test_bad_bloc_fraction_rejected(self):
        with pytest.raises(ValueError, match="bloc_fraction"):
            generate_scenario("colluding-bloc", 10, 10, random_state=0,
                              bloc_fraction=1.5)


class TestDriftingAbilities:
    def test_one_batch_per_phase(self):
        instance = generate_scenario("drifting-abilities", 20, 16,
                                     random_state=9, num_phases=4)
        assert len(instance.batches) == 4
        boundaries = instance.metadata["phase_boundaries"]
        for phase, batch in enumerate(instance.batches[:-1]):
            assert batch.items.min() >= boundaries[phase]
            assert batch.items.max() < boundaries[phase + 1]

    def test_truth_is_answer_weighted_mean(self):
        instance = generate_scenario("drifting-abilities", 20, 16,
                                     random_state=9, num_phases=4)
        trajectory = instance.metadata["phase_abilities"]
        boundaries = instance.metadata["phase_boundaries"]
        users, items, _ = instance.response.triples
        phase_of_item = np.searchsorted(boundaries, items, side="right") - 1
        expected = np.zeros(instance.num_users)
        counts = np.zeros(instance.num_users)
        for user, phase in zip(users, phase_of_item):
            expected[user] += trajectory[phase, user]
            counts[user] += 1
        np.testing.assert_allclose(instance.abilities, expected / counts)

    def test_abilities_actually_drift(self):
        instance = generate_scenario("drifting-abilities", 40, 16,
                                     random_state=2, num_phases=4, drift=0.3)
        trajectory = instance.metadata["phase_abilities"]
        assert np.abs(trajectory[-1] - trajectory[0]).max() > 0.2

    def test_too_few_phases_rejected(self):
        with pytest.raises(ValueError, match="num_phases"):
            generate_scenario("drifting-abilities", 10, 10, random_state=0,
                              num_phases=1)


class TestHeavyTailedActivity:
    def test_activity_is_heavy_tailed(self):
        instance = generate_scenario("heavy-tailed-activity", 300, 50,
                                     random_state=13)
        users, _, _ = instance.response.triples
        counts = np.bincount(users, minlength=instance.num_users)
        assert np.median(counts) <= 2
        assert counts.max() >= 10  # power users exist

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError, match="zipf_exponent"):
            generate_scenario("heavy-tailed-activity", 10, 10, random_state=0,
                              zipf_exponent=1.0)


class TestHeterogeneousOptions:
    def test_option_counts_vary_and_bound_the_answers(self):
        instance = generate_scenario("heterogeneous-options", 40, 60,
                                     random_state=21)
        counts = instance.response.num_options
        assert counts.min() >= 2
        assert np.unique(counts).size > 1
        _, items, options = instance.response.triples
        assert np.all(options < counts[items])
        assert np.all(instance.correct_options < counts)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError, match="min_options"):
            generate_scenario("heterogeneous-options", 10, 10, random_state=0,
                              min_options=5, max_options=3)


class TestBurstAppend:
    def test_burst_dwarfs_the_base(self):
        instance = generate_scenario("burst-append", 50, 40, random_state=17,
                                     burst_multiplier=4.0)
        base, burst = instance.batches
        assert burst.size > 2 * base.size
        assert instance.metadata["base_answers"] == base.size
        assert instance.metadata["burst_answers"] == burst.size

    def test_base_batch_alone_covers_the_grid(self):
        # The pre-burst crowd must already be rankable: coverage fixes ride
        # the base batch, not the burst.
        instance = generate_scenario("burst-append", 50, 40, random_state=17)
        base = instance.batches[0]
        assert np.unique(base.users).size == instance.num_users
        assert np.unique(base.items).size == instance.num_items

    def test_bad_multiplier_rejected(self):
        with pytest.raises(ValueError, match="burst_multiplier"):
            generate_scenario("burst-append", 10, 10, random_state=0,
                              burst_multiplier=0.0)


class TestScenarioInstanceSurface:
    def test_size_properties_mirror_the_response(self):
        instance = generate_scenario("colluding-bloc", 12, 8, random_state=0)
        assert instance.num_users == 12
        assert instance.num_items == 8
        assert instance.num_answers == instance.response.num_answers
        assert isinstance(instance.batches[0], TripleBatch)

    def test_tiny_sizes_rejected(self):
        with pytest.raises(ValueError, match="users"):
            generate_scenario("colluding-bloc", 2, 8, random_state=0)
