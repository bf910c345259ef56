"""Experiment harness: run ranker suites over generated datasets.

This module turns the paper's experimental protocol into reusable code:

* :func:`default_ranker_suite` builds the method line-up of Figure 4
  (HND, ABH, HITS, TruthFinder, Investment, PooledInvestment) plus the two
  cheating baselines when ground truth is supplied.
* :func:`evaluate_rankers` runs a suite on one dataset and reports the
  Spearman accuracy per method.
* :func:`accuracy_sweep` repeats that over a parameter grid with multiple
  trials, producing the rows behind each accuracy figure.
* :class:`ExperimentResult` / :class:`SweepResult` provide simple tabular
  containers with ``to_rows()`` for printing paper-style tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.ranking import AbilityRanker
from repro.engine.cache import RankCache
from repro.evaluation.metrics import spearman_accuracy
from repro.irt.generators import SyntheticDataset, generate_c1p_dataset, generate_dataset
from repro.registry import REGISTRY

RandomState = Optional[Union[int, np.random.Generator]]

#: The unsupervised method line-up of the paper's accuracy figures; every
#: name resolves through :data:`repro.registry.REGISTRY`.
UNSUPERVISED_METHODS = ("HnD", "ABH", "HITS", "TruthFinder", "Invest", "PooledInv")


def _build_ranker(name: str, random_state: RandomState, **params) -> AbilityRanker:
    """Instantiate a registered method, seeding it only when it is seedable."""
    spec = REGISTRY.get(name)
    if spec.takes("random_state"):
        params.setdefault("random_state", random_state)
    return spec.create(**params)


def default_ranker_suite(
    *,
    include_cheating: bool = False,
    correct_options: Optional[np.ndarray] = None,
    include_majority: bool = False,
    random_state: RandomState = None,
) -> Dict[str, AbilityRanker]:
    """Build the standard method suite used throughout the experiments.

    Every entry resolves through the :data:`~repro.registry.REGISTRY`
    (the CLI and the cache fingerprints use the same source of truth), so
    the suite's names cannot drift from the registered method names.

    Parameters
    ----------
    include_cheating:
        Also include the True-answer and GRM-estimator baselines; requires
        ``correct_options``.
    correct_options:
        Ground-truth correct option per item (needed by the cheating
        baselines only).
    include_majority:
        Also include plain majority vote.
    random_state:
        Seed forwarded to the randomized power-iteration initializations.
    """
    suite: Dict[str, AbilityRanker] = {
        name: _build_ranker(name, random_state) for name in UNSUPERVISED_METHODS
    }
    if include_majority:
        suite["MajorityVote"] = _build_ranker("MajorityVote", random_state)
    if include_cheating:
        if correct_options is None:
            raise ValueError("cheating baselines need correct_options")
        suite["True-Answer"] = _build_ranker(
            "True-Answer", random_state, correct_options=correct_options
        )
        suite["GRM-estimator"] = _build_ranker("GRM-estimator", random_state)
    return suite


@dataclass
class ExperimentResult:
    """Per-method accuracy (and wall-clock time) on a single dataset."""

    dataset_name: str
    accuracies: Dict[str, float]
    durations: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    def to_rows(self) -> List[tuple]:
        """Rows of (method, accuracy, seconds), sorted by accuracy descending."""
        rows = []
        for method, accuracy in sorted(self.accuracies.items(), key=lambda kv: -kv[1]):
            rows.append((method, accuracy, self.durations.get(method, float("nan"))))
        return rows


def evaluate_rankers(
    dataset: SyntheticDataset,
    rankers: Mapping[str, AbilityRanker],
    *,
    reference_abilities: Optional[np.ndarray] = None,
    cache: Optional[RankCache] = None,
) -> ExperimentResult:
    """Run every ranker on ``dataset`` and score it against the ground truth.

    ``reference_abilities`` overrides the dataset's ground-truth abilities,
    which the real-data experiments use to compare against the True-answer
    reference ranking instead.

    ``cache`` serves repeated rankings of unchanged data from a
    :class:`~repro.engine.cache.RankCache` — re-evaluating a suite on the
    same dataset (or overlapping suites across datasets) pays each
    deterministic ``rank()`` once; nondeterministic rankers bypass it.
    The reported duration of a cache hit is the (near-zero) lookup time.
    """
    truth = dataset.abilities if reference_abilities is None else np.asarray(reference_abilities)
    accuracies: Dict[str, float] = {}
    durations: Dict[str, float] = {}
    for name, ranker in rankers.items():
        start = time.perf_counter()
        if cache is not None:
            ranking = cache.rank(ranker, dataset.response)
        else:
            ranking = ranker.rank(dataset.response)
        durations[name] = time.perf_counter() - start
        accuracies[name] = spearman_accuracy(ranking, truth)
    return ExperimentResult(
        dataset_name=dataset.model_name,
        accuracies=accuracies,
        durations=durations,
        metadata={"num_users": dataset.num_users, "num_items": dataset.num_items},
    )


@dataclass
class SweepResult:
    """Accuracy of each method across the values of one swept parameter.

    ``mean_accuracy[method]`` and ``std_accuracy[method]`` are arrays aligned
    with ``parameter_values``.
    """

    parameter_name: str
    parameter_values: List[object]
    mean_accuracy: Dict[str, np.ndarray]
    std_accuracy: Dict[str, np.ndarray]
    num_trials: int

    def to_rows(self) -> List[tuple]:
        """Rows of (parameter_value, method, mean, std) for table printing."""
        rows = []
        for index, value in enumerate(self.parameter_values):
            for method in self.mean_accuracy:
                rows.append(
                    (
                        value,
                        method,
                        float(self.mean_accuracy[method][index]),
                        float(self.std_accuracy[method][index]),
                    )
                )
        return rows

    def best_method_per_value(self) -> List[tuple]:
        """For each parameter value, the method with the highest mean accuracy."""
        winners = []
        for index, value in enumerate(self.parameter_values):
            best = max(self.mean_accuracy, key=lambda method: self.mean_accuracy[method][index])
            winners.append((value, best, float(self.mean_accuracy[best][index])))
        return winners


DatasetFactory = Callable[[object, np.random.Generator], SyntheticDataset]


def accuracy_sweep(
    parameter_name: str,
    parameter_values: Sequence[object],
    dataset_factory: DatasetFactory,
    *,
    methods: Optional[Iterable[str]] = None,
    include_cheating: bool = False,
    num_trials: int = 3,
    random_state: RandomState = None,
) -> SweepResult:
    """Run an accuracy sweep over one parameter (the engine of Figures 4 and 9).

    Parameters
    ----------
    parameter_name:
        Name of the swept parameter (for reporting only).
    parameter_values:
        The grid of values.
    dataset_factory:
        Callable ``(value, rng) -> SyntheticDataset`` generating one dataset
        for a given parameter value.
    methods:
        Restrict the suite to these method names (default: all unsupervised
        methods, plus the cheating ones when ``include_cheating``).  Names
        are validated against the ranker registry up front — a typo raises
        ``KeyError`` with a did-you-mean hint instead of silently shrinking
        the sweep.
    include_cheating:
        Add True-answer and GRM-estimator, fed the dataset's correct options.
    num_trials:
        Number of independently generated datasets per parameter value.
    """
    rng = np.random.default_rng(random_state)
    if methods is not None:
        # Resolve through the registry first: unknown names fail loudly
        # (with a did-you-mean hint) instead of silently dropping a method.
        methods = [REGISTRY.get(name).name for name in methods]
        # ...and then against this sweep's suite: a registered method that
        # the suite does not run (e.g. "GLAD") would otherwise silently
        # shrink the sweep to nothing.
        available = set(UNSUPERVISED_METHODS)
        if include_cheating:
            available |= {"True-Answer", "GRM-estimator"}
        missing = sorted(set(methods) - available)
        if missing:
            raise KeyError(
                "method(s) %s are not part of the accuracy-sweep suite "
                "(available: %s)"
                % (", ".join(repr(m) for m in missing),
                   ", ".join(sorted(available)))
            )
    accuracy_lists: Dict[str, List[List[float]]] = {}
    for value in parameter_values:
        per_method: Dict[str, List[float]] = {}
        for _ in range(num_trials):
            dataset = dataset_factory(value, rng)
            suite = default_ranker_suite(
                include_cheating=include_cheating,
                correct_options=dataset.correct_options if include_cheating else None,
                random_state=rng,
            )
            if methods is not None:
                suite = {name: ranker for name, ranker in suite.items() if name in set(methods)}
            result = evaluate_rankers(dataset, suite)
            for method, accuracy in result.accuracies.items():
                per_method.setdefault(method, []).append(accuracy)
        for method, values in per_method.items():
            accuracy_lists.setdefault(method, []).append(values)

    mean_accuracy = {
        method: np.array([np.mean(trials) for trials in per_value])
        for method, per_value in accuracy_lists.items()
    }
    std_accuracy = {
        method: np.array([np.std(trials) for trials in per_value])
        for method, per_value in accuracy_lists.items()
    }
    return SweepResult(
        parameter_name=parameter_name,
        parameter_values=list(parameter_values),
        mean_accuracy=mean_accuracy,
        std_accuracy=std_accuracy,
        num_trials=num_trials,
    )


# --------------------------------------------------------------------------- #
# Ready-made dataset factories for the paper's sweeps
# --------------------------------------------------------------------------- #
def irt_dataset_factory(
    model_name: str,
    *,
    num_users: int = 100,
    num_items: int = 100,
    num_options: int = 3,
    vary: str = "num_items",
    **generator_kwargs,
) -> DatasetFactory:
    """Build a factory that varies one generator argument (Figures 4a-4g).

    ``vary`` names the :func:`~repro.irt.generators.generate_dataset`
    argument replaced by the swept value; all other arguments are fixed.
    """

    def factory(value: object, rng: np.random.Generator) -> SyntheticDataset:
        kwargs = dict(
            num_users=num_users,
            num_items=num_items,
            num_options=num_options,
            **generator_kwargs,
        )
        kwargs[vary] = value
        return generate_dataset(model_name, random_state=rng, **kwargs)

    return factory


def c1p_dataset_factory(
    *, num_users: int = 100, num_options: int = 3
) -> DatasetFactory:
    """Factory for the ideal consistent-response sweep (Figure 4h)."""

    def factory(value: object, rng: np.random.Generator) -> SyntheticDataset:
        return generate_c1p_dataset(num_users, int(value), num_options, random_state=rng)

    return factory
