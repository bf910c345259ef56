"""Core package: the response matrix and the HITSnDIFFS algorithm family.

The eigenvector rankers (the three HnD variants here and the two ABH
rankers of :mod:`repro.c1p`) share one frame, :class:`EigenvectorRanker`,
and every warm-capable ranker resumes through one rule,
:func:`warm_solve`.
"""

from repro.core.response import (
    NO_ANSWER,
    CompiledResponse,
    ResponseBuilder,
    ResponseMatrix,
    score_against_truth,
)
from repro.core.ranking import (
    AbilityRanker,
    AbilityRanking,
    SupervisedAbilityRanker,
    ranking_from_scores,
)
from repro.core.solver_state import SolverState, fit_iterate, warm_solve
from repro.core.avghits import (
    avghits_fixed_point,
    avghits_step,
    difference_update_matrix,
    hnd_difference_step,
    spectral_gap,
    update_matrix,
)
from repro.core.symmetry import decile_entropies, orient_scores
from repro.core.hitsndiffs import (
    EigenvectorRanker,
    HNDDeflation,
    HNDDirect,
    HNDPower,
)

__all__ = [
    "NO_ANSWER",
    "CompiledResponse",
    "ResponseBuilder",
    "ResponseMatrix",
    "score_against_truth",
    "AbilityRanker",
    "AbilityRanking",
    "SupervisedAbilityRanker",
    "ranking_from_scores",
    "SolverState",
    "fit_iterate",
    "warm_solve",
    "update_matrix",
    "difference_update_matrix",
    "avghits_step",
    "hnd_difference_step",
    "avghits_fixed_point",
    "spectral_gap",
    "decile_entropies",
    "orient_scores",
    "EigenvectorRanker",
    "HNDPower",
    "HNDDirect",
    "HNDDeflation",
]
