"""Tests for the ranker registry (PR 4).

The registry is the single source of truth the experiment suites, the CLI
method table, and the cache fingerprints all resolve through; these tests
pin that deduplication and the registry-driven fingerprint rules.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    REGISTRY,
    Param,
    RankerRegistry,
    method_fingerprint,
    register_ranker,
)
from repro.cli import build_parser, main
from repro.core.hitsndiffs import HNDDeflation, HNDDirect, HNDPower
from repro.core.ranking import AbilityRanker, AbilityRanking
from repro.engine import ranker_fingerprint
from repro.evaluation.experiments import (
    UNSUPERVISED_METHODS,
    accuracy_sweep,
    default_ranker_suite,
)
from repro.exceptions import SchemaError
from repro.irt.generators import generate_dataset
from repro.screening import ScreeningPlan
from repro.serve.schema import PROTOCOL_VERSION, ServeRequest
from repro.truth_discovery import (
    DawidSkeneRanker,
    GLADRanker,
    GRMEstimatorRanker,
    InvestmentRanker,
    TrueAnswerRanker,
)


class TestRegistryContents:
    def test_the_paper_line_up_is_registered(self):
        for name in ("HnD", "ABH", "HITS", "TruthFinder", "Invest", "PooledInv",
                     "MajorityVote", "Dawid-Skene", "GLAD",
                     "True-Answer", "GRM-estimator"):
            assert name in REGISTRY

    def test_specs_map_names_to_factories(self):
        assert REGISTRY.get("HnD").factory is HNDPower
        assert REGISTRY.get("HnD-direct").factory is HNDDirect
        assert REGISTRY.get("HnD-deflation").factory is HNDDeflation
        assert REGISTRY.get("Dawid-Skene").factory is DawidSkeneRanker

    def test_supervised_flagging(self):
        assert REGISTRY.get("True-Answer").supervised
        assert REGISTRY.get("GRM-estimator").supervised
        assert not REGISTRY.get("HnD").supervised
        assert "True-Answer" not in REGISTRY.names(supervised=False)

    def test_registered_names_match_class_name_attributes(self):
        """The registry name is the class's display name — no drift."""
        for spec in REGISTRY:
            assert spec.factory.name == spec.name
            assert spec.factory.registry_name == spec.name


class TestLookup:
    def test_did_you_mean_hint(self):
        with pytest.raises(KeyError, match="did you mean"):
            REGISTRY.get("HnD-power-iteration")
        with pytest.raises(KeyError, match="'MajorityVote'"):
            REGISTRY.get("MajorityVot")
        with pytest.raises(KeyError, match="registered:"):
            REGISTRY.get("zzz-nothing-close")

    def test_case_insensitive_rescue(self):
        assert REGISTRY.get("hnd").name == "HnD"
        assert REGISTRY.get("majorityvote").name == "MajorityVote"

    def test_create_builds_configured_instances(self):
        ranker = REGISTRY.create("HnD", random_state=5, tolerance=1e-8)
        assert isinstance(ranker, HNDPower)
        assert ranker.random_state == 5
        assert ranker.tolerance == 1e-8

    def test_create_rejects_unknown_params_with_hint(self):
        with pytest.raises(TypeError, match="did you mean 'max_iterations'"):
            REGISTRY.create("Dawid-Skene", max_iteration=5)

    def test_param_attr_mapping(self):
        spec = REGISTRY.get("Invest")
        ranker = spec.create(num_iterations=7)
        assert isinstance(ranker, InvestmentRanker)
        assert ranker.max_iterations == 7
        assert spec.takes("num_iterations")
        assert not spec.takes("max_iterations")


class TestSuiteDeduplication:
    """default_ranker_suite and the CLI resolve through the registry."""

    def test_default_suite_resolves_through_registry(self):
        suite = default_ranker_suite(include_majority=True, random_state=0)
        for name, ranker in suite.items():
            assert type(ranker) is REGISTRY.get(name).factory

    def test_unsupervised_methods_all_registered(self):
        for name in UNSUPERVISED_METHODS:
            assert name in REGISTRY

    def test_cli_rank_methods_resolve_through_the_registry(self):
        # Any string parses; resolution happens in the command through
        # REGISTRY.get (did-you-mean on typos) so supervised baselines and
        # unknown names exit 2 with a hint instead of an argparse listing.
        parser = build_parser()
        args = parser.parse_args(["rank", "x.npz", "--method", "GLAD"])
        assert args.method == "GLAD"
        from repro.cli import main as cli_main

        assert cli_main(["rank", "x.npz", "--method", "True-Answer"]) == 2
        assert cli_main(["rank", "x.npz", "--method", "not-a-method"]) == 2

    def test_accuracy_sweep_rejects_unknown_method(self):
        dataset = generate_dataset(
            "grm", num_users=15, num_items=10, num_options=3, random_state=0
        )
        with pytest.raises(KeyError, match="did you mean"):
            accuracy_sweep(
                "n", [10], lambda value, rng: dataset,
                methods=["HnD", "HITS-like"], num_trials=1, random_state=0,
            )

    def test_accuracy_sweep_rejects_out_of_suite_method(self):
        """Registered but not in the sweep's suite -> loud error, not an
        empty sweep."""
        dataset = generate_dataset(
            "grm", num_users=15, num_items=10, num_options=3, random_state=0
        )
        with pytest.raises(KeyError, match="not part of the accuracy-sweep"):
            accuracy_sweep(
                "n", [10], lambda value, rng: dataset,
                methods=["Dawid-Skene"], num_trials=1, random_state=0,
            )

    def test_suite_seeds_only_seedable_methods(self):
        suite = default_ranker_suite(random_state=3)
        assert suite["HnD"].random_state == 3
        assert not hasattr(suite["HITS"], "random_state")


class TestRegistryFingerprints:
    """ranker_fingerprint reads the registry's param spec (satellite fix)."""

    def test_glad_is_now_cacheable(self):
        # The vars() path returned None for GLAD (its np.dtype attribute had
        # no token) — a silent cache bypass the registry param spec fixes.
        a = ranker_fingerprint(GLADRanker())
        assert a is not None
        assert a == ranker_fingerprint(GLADRanker())
        assert a != ranker_fingerprint(GLADRanker(dtype=np.float32))

    def test_invest_fingerprints_via_attr_mapping(self):
        a = ranker_fingerprint(InvestmentRanker(num_iterations=10))
        b = ranker_fingerprint(InvestmentRanker(num_iterations=12))
        assert a is not None and b is not None
        assert a != b

    def test_grm_estimator_stays_uncacheable(self):
        assert ranker_fingerprint(GRMEstimatorRanker()) is None

    def test_supervised_array_params_tokenize(self):
        truth = np.array([0, 1, 2])
        assert ranker_fingerprint(TrueAnswerRanker(truth)) == ranker_fingerprint(
            TrueAnswerRanker(truth.copy())
        )

    def test_unregistered_rankers_fall_back_to_vars(self):
        class Custom(AbilityRanker):
            name = "custom"

            def __init__(self, knob=1):
                self.knob = knob

            def rank(self, response):  # pragma: no cover - never called
                return AbilityRanking(scores=np.zeros(1), method=self.name)

        assert ranker_fingerprint(Custom(1)) == ranker_fingerprint(Custom(1))
        assert ranker_fingerprint(Custom(1)) != ranker_fingerprint(Custom(2))


class TestMethodFingerprint:
    """The one name -> fingerprint path keys exactly what rank() caches."""

    def test_matches_the_ranker_the_parameters_describe(self):
        expected = ranker_fingerprint(HNDPower(random_state=0))
        assert method_fingerprint("HnD", {"random_state": 0}) == expected
        assert method_fingerprint("hnd", {"random_state": 0},
                                  warm_start=True) == expected

    def test_nondeterministic_parameters_have_no_fingerprint(self):
        assert method_fingerprint("HnD", {"random_state": None}) is None
        with pytest.raises(ValueError, match="deterministic, cacheable"):
            method_fingerprint("HnD", {"random_state": None}, warm_start=True)

    def test_warm_start_refuses_a_method_without_warm_starts(self):
        assert method_fingerprint("GLAD", {}) is not None
        with pytest.raises(ValueError, match="does not support warm starts"):
            method_fingerprint("GLAD", {}, warm_start=True)

    def test_unknown_names_carry_the_registry_hints(self):
        with pytest.raises(KeyError, match="did you mean 'HnD'"):
            method_fingerprint("HnDD", {})
        with pytest.raises(TypeError, match="did you mean 'tolerance'"):
            method_fingerprint("HnD", {"tolerence": 1e-6})


def _refusal_from_cli_rank(capsys):
    assert main(["rank", "no-such-file.npz", "--method", "True-Answer"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err[len("error: "):].rstrip("\n")


def _refusal_from_wire_rank(capsys):
    with pytest.raises(SchemaError) as info:
        ServeRequest.from_frame(
            "rank", {"v": PROTOCOL_VERSION, "crowd": "c", "method": "True-Answer"}, {}
        )
    return str(info.value)


def _refusal_from_screening_plan(capsys):
    with pytest.raises(ValueError) as info:
        ScreeningPlan(scenarios=("colluding-bloc",), methods=("True-Answer",),
                      scales=((40, 10),))
    return str(info.value)


@pytest.mark.parametrize("surface", [
    _refusal_from_cli_rank, _refusal_from_wire_rank, _refusal_from_screening_plan,
], ids=["cli-rank", "wire-rank", "screening-plan"])
def test_supervised_method_refused_with_one_message(surface, capsys):
    """Every surface that ranks without ground truth refuses True-Answer
    with the registry's one message."""
    with pytest.raises(ValueError) as registry:
        REGISTRY.get_unsupervised("True-Answer")
    message = surface(capsys)
    assert message == str(registry.value)
    assert "supervised" in message


class TestIsolatedRegistry:
    def test_register_ranker_into_custom_registry(self):
        private = RankerRegistry()

        @register_ranker("probe", params=("alpha", Param("beta", attr="b")),
                         registry=private)
        class Probe(AbilityRanker):
            name = "probe"

            def __init__(self, alpha=0.5, beta=2):
                self.alpha = alpha
                self.b = beta

            def rank(self, response):  # pragma: no cover - never called
                return AbilityRanking(scores=np.zeros(1), method=self.name)

        assert "probe" in private
        assert "probe" not in REGISTRY
        assert private.spec_for(Probe).param_names == ("alpha", "beta")
        instance = private.create("probe", beta=9)
        assert instance.b == 9

    def test_duplicate_name_rejected(self):
        private = RankerRegistry()

        @register_ranker("dup", registry=private)
        class First(AbilityRanker):
            def rank(self, response):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            @register_ranker("dup", registry=private)
            class Second(AbilityRanker):
                def rank(self, response):  # pragma: no cover
                    raise NotImplementedError

