"""HITSnDIFFs reproduction: ability discovery via the consecutive ones property.

This library reproduces "HITSnDIFFs: From Truth Discovery to Ability
Discovery by Recovering Matrices with the Consecutive Ones Property"
(Chen, Mitra, Ravi & Gatterbauer, ICDE 2024).

Quickstart
----------
>>> from repro import generate_dataset, rank, spearman_accuracy
>>> dataset = generate_dataset("grm", num_users=50, num_items=80, random_state=0)
>>> ranking = rank(dataset.response, "HnD", random_state=0)
>>> accuracy = spearman_accuracy(ranking, dataset.abilities)

The public API re-exports the most commonly used pieces; see the subpackages
for the full surface:

* :mod:`repro.core` — response matrices (``ResponseMatrix.load`` reads a
  saved NPZ or CSV of answer triples) and the HITSnDIFFS algorithm family
* :mod:`repro.c1p` — consecutive ones property tools (PQ-trees, ABH)
* :mod:`repro.irt` — Item Response Theory models, generators, estimation
* :mod:`repro.truth_discovery` — HITS-style and cheating baselines
* :mod:`repro.datasets` — the real-world-shaped benchmark datasets
* :mod:`repro.evaluation` — metrics, accuracy sweeps, stability and timing
* :mod:`repro.engine` — the hash-keyed rank cache
* :mod:`repro.api` — the unified entry point: the ranker registry,
  :func:`~repro.api.execution.rank` (whose one execution setting is
  ``cache=``), and the stateful :class:`~repro.api.session.CrowdSession`

Unified API
-----------
>>> from repro import CrowdSession, RankCache, rank
>>> cache = RankCache()
>>> ranking = rank(dataset.response, "HnD", random_state=0, cache=cache)
"""

from repro.core import (
    NO_ANSWER,
    AbilityRanker,
    AbilityRanking,
    HNDDeflation,
    HNDDirect,
    HNDPower,
    ResponseBuilder,
    ResponseMatrix,
    SolverState,
    score_against_truth,
)
from repro.c1p import (
    ABHDirect,
    ABHPower,
    find_c1p_ordering,
    is_p_matrix,
    is_pre_p_matrix,
)
from repro.irt import (
    GRMEstimator,
    SyntheticDataset,
    generate_c1p_dataset,
    generate_dataset,
)
from repro.truth_discovery import (
    DawidSkeneRanker,
    GLADRanker,
    GRMEstimatorRanker,
    HITSRanker,
    InvestmentRanker,
    MajorityVoteRanker,
    PooledInvestmentRanker,
    TrueAnswerRanker,
    TruthFinderRanker,
)
from repro.datasets import list_datasets, load_dataset
from repro.engine import RankCache
from repro.api import (
    REGISTRY,
    CrowdSession,
    RankerRegistry,
    SessionManager,
    rank,
    register_ranker,
)
from repro.evaluation import (
    accuracy_sweep,
    default_ranker_suite,
    evaluate_rankers,
    kendall_accuracy,
    measure_scalability,
    spearman_accuracy,
    stability_experiment,
)
from repro.exceptions import (
    ConvergenceError,
    CrowdExistsError,
    DatasetError,
    DisconnectedGraphError,
    EngineError,
    EstimationError,
    InvalidResponseMatrixError,
    NotC1PError,
    ProtocolError,
    RateLimitedError,
    ReproError,
    SchemaError,
    ServeError,
    ServerOverloadedError,
    UnknownCrowdError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "ResponseMatrix",
    "ResponseBuilder",
    "NO_ANSWER",
    "score_against_truth",
    "AbilityRanker",
    "AbilityRanking",
    "SolverState",
    "HNDPower",
    "HNDDirect",
    "HNDDeflation",
    # c1p
    "ABHDirect",
    "ABHPower",
    "is_p_matrix",
    "is_pre_p_matrix",
    "find_c1p_ordering",
    # irt
    "SyntheticDataset",
    "generate_dataset",
    "generate_c1p_dataset",
    "GRMEstimator",
    # truth discovery
    "HITSRanker",
    "TruthFinderRanker",
    "InvestmentRanker",
    "PooledInvestmentRanker",
    "MajorityVoteRanker",
    "TrueAnswerRanker",
    "GRMEstimatorRanker",
    "DawidSkeneRanker",
    "GLADRanker",
    # datasets
    "list_datasets",
    "load_dataset",
    # engine
    "RankCache",
    # api
    "REGISTRY",
    "RankerRegistry",
    "register_ranker",
    "rank",
    "CrowdSession",
    "SessionManager",
    # evaluation
    "spearman_accuracy",
    "kendall_accuracy",
    "evaluate_rankers",
    "default_ranker_suite",
    "accuracy_sweep",
    "stability_experiment",
    "measure_scalability",
    # exceptions
    "ReproError",
    "InvalidResponseMatrixError",
    "DisconnectedGraphError",
    "ConvergenceError",
    "NotC1PError",
    "EstimationError",
    "DatasetError",
    "EngineError",
    "ProtocolError",
    "ServeError",
    "SchemaError",
    "UnknownCrowdError",
    "CrowdExistsError",
    "RateLimitedError",
    "ServerOverloadedError",
]
