"""Dawid–Skene EM for homogeneous-label aggregation (Appendix E-A).

The Dawid–Skene model assigns each user a latent ``k x k`` confusion matrix
(probability of reporting label ``h`` when the truth is ``l``) and jointly
estimates confusion matrices, class priors, and per-item truth posteriors
with EM.  The paper discusses it as the dominant model for *homogeneous*
items and contrasts it with IRT; we include it so the library covers that
comparison point and so examples can demonstrate where it breaks down on
heterogeneous MCQs.

Users are ranked by the prior-weighted mean of their confusion-matrix
diagonal, i.e. their estimated probability of labelling an item correctly.

Both EM steps are pure scatter/gather sums over the ``(user, item, choice)``
answer triples, so this implementation expresses them as two products with
one sparse indicator matrix ``M`` of shape ``(m*k, n)`` (a 1 at row
``u*k + h``, column ``i`` for every answer ``(u, i, h)``):

* M-step confusion counts: ``M @ posteriors`` accumulates the truth
  posterior of every answered item into the answering user's ``(h, l)``
  cell — the former per-user ``np.add.at`` loop.
* E-step log posteriors:   ``M^T @ log_confusion`` accumulates the
  answering users' log confusion rows into each item — the former second
  per-user loop.

``M`` is built once per ``rank()`` call in ``O(nnz)``; each EM iteration
then costs ``O(nnz * k)`` with no Python loop.  The seed loop formulation
is preserved in :mod:`repro.truth_discovery.reference` as the oracle the
equivalence tests compare against (scores match element-wise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.api.registry import register_ranker
from repro.core.ranking import AbilityRanker, AbilityRanking
from repro.core.response import ResponseMatrix
from repro.core.solver_state import SolverState, warm_solve


def initial_posteriors(
    item_index: np.ndarray,
    option_index: np.ndarray,
    num_items: int,
    num_classes: int,
    smoothing: float,
) -> np.ndarray:
    """Soft majority-vote truth posteriors — the EM initialization.

    A pure function of the per-item option histogram.
    """
    counts = np.bincount(
        np.asarray(item_index).astype(np.int64) * num_classes + np.asarray(option_index),
        minlength=num_items * num_classes,
    ).reshape(num_items, num_classes).astype(float)
    totals = counts.sum(axis=1, keepdims=True)
    return np.where(
        totals > 0,
        (counts + smoothing) / (totals + smoothing * num_classes),
        1.0 / num_classes,
    )


@dataclass(frozen=True)
class DawidSkeneEMResult:
    """Converged state of one Dawid–Skene EM run.

    ``residual`` is the final max-change of the truth posteriors — the
    quantity the stopping rule thresholds, captured into the
    :class:`~repro.core.solver_state.SolverState` for warm restarts.
    """

    accuracies: np.ndarray
    posteriors: np.ndarray
    priors: np.ndarray
    confusion: np.ndarray
    iterations: int
    converged: bool
    residual: float = float("inf")


def dawid_skene_em(
    indicator: sp.csr_matrix,
    indicator_t: sp.csr_matrix,
    posteriors: np.ndarray,
    *,
    num_users: int,
    num_classes: int,
    max_iterations: int,
    tolerance: float,
    smoothing: float,
) -> DawidSkeneEMResult:
    """The Dawid–Skene EM loop over the sparse answer indicator.

    Parameters
    ----------
    indicator:
        The ``(m*k, n)`` answer indicator ``M``.  ``M @ posteriors`` has, in
        row ``u*k + h``, the summed truth posteriors of the items user ``u``
        answered with option ``h``.
    indicator_t:
        ``M^T`` in CSR form.  ``M^T @ log_confusion_flat`` has the per-item
        sums of the answering users' log-confusion rows.
    posteriors:
        Initial truth posteriors, from :func:`initial_posteriors`.
    """
    confusion = np.zeros((num_users, num_classes, num_classes))
    priors = np.full(num_classes, 1.0 / num_classes)
    iterations = 0
    converged = False
    change = float("inf")
    for iterations in range(1, max_iterations + 1):
        # M-step: class priors and per-user confusion matrices.
        priors = posteriors.mean(axis=0)
        priors = priors / priors.sum()
        # (m*k, l) -> (u, h, l) -> transpose to (u, l, h) to match the
        # "truth l, reported h" convention.
        counts_flat = np.asarray(indicator @ posteriors)
        confusion = counts_flat.reshape(
            num_users, num_classes, num_classes
        ).transpose(0, 2, 1) + smoothing
        confusion /= confusion.sum(axis=2, keepdims=True)

        # E-step: truth posterior per item.
        log_confusion = np.log(np.clip(confusion, 1e-12, 1.0))
        log_confusion_flat = np.ascontiguousarray(
            log_confusion.transpose(0, 2, 1)
        ).reshape(num_users * num_classes, num_classes)
        new_posteriors = np.log(np.clip(priors, 1e-12, 1.0))[np.newaxis, :] + (
            np.asarray(indicator_t @ log_confusion_flat)
        )
        new_posteriors -= new_posteriors.max(axis=1, keepdims=True)
        np.exp(new_posteriors, out=new_posteriors)
        new_posteriors /= new_posteriors.sum(axis=1, keepdims=True)

        change = float(np.abs(new_posteriors - posteriors).max())
        posteriors = new_posteriors
        if change < tolerance:
            converged = True
            break
        if not np.isfinite(change):
            # Residual blow-up (e.g. a poisoned warm-start posterior table):
            # further iterations cannot recover, so report non-convergence
            # immediately and let warm-start callers rerun cold.
            break

    accuracies = np.einsum("ukk,k->u", confusion, priors)
    return DawidSkeneEMResult(
        accuracies=accuracies,
        posteriors=posteriors,
        priors=priors,
        confusion=confusion,
        iterations=iterations,
        converged=converged,
        residual=change,
    )


def dawid_skene_solve(
    response: ResponseMatrix,
    *,
    max_iterations: int,
    tolerance: float,
    smoothing: float,
    init_state: Optional[SolverState] = None,
) -> Tuple[DawidSkeneEMResult, SolverState, str]:
    """Run :func:`dawid_skene_em` on ``response`` with an optional warm start.

    The warm iterate is the truth-posterior table — the only EM state the
    loop needs (priors and confusion matrices are recomputed from it by the
    first M-step).  Stored rows overwrite the head of the cold (soft
    majority-vote) initialization, so appended items start cold while known
    items resume where the previous solve converged.  Returns
    ``(result, state, warm_mode)``, with ``warm_mode`` decided by
    :func:`~repro.core.solver_state.warm_solve`: a different class count
    or a shrunk item axis is incompatible, and a poisoned state reruns
    cold.
    """
    num_users = response.num_users
    num_items = response.num_items
    num_classes = response.max_options
    users, items, options = response.triples
    # Sparse answer indicator: row u*k + h, column i for answer (u, i, h).
    indicator = sp.csr_matrix(
        (np.ones(users.size), (users.astype(np.int64) * num_classes + options, items)),
        shape=(num_users * num_classes, num_items),
    )
    indicator_t = indicator.T.tocsr()
    cold = initial_posteriors(items, options, num_items, num_classes, smoothing)

    def solve(start: Optional[np.ndarray]) -> DawidSkeneEMResult:
        return dawid_skene_em(
            indicator,
            indicator_t,
            cold if start is None else start,
            num_users=num_users,
            num_classes=num_classes,
            max_iterations=max_iterations,
            tolerance=tolerance,
            smoothing=smoothing,
        )

    result, warm_mode = warm_solve(solve, init_state, "Dawid-Skene",
                                   "posteriors", cold)
    state = SolverState(
        "Dawid-Skene",
        {"posteriors": result.posteriors},
        iterations=result.iterations,
        residual=result.residual,
    )
    return result, state, warm_mode


@register_ranker(
    "Dawid-Skene",
    params=("max_iterations", "tolerance", "smoothing"),
    warm_startable=True,
    summary="Dawid-Skene EM over per-user confusion matrices",
)
class DawidSkeneRanker(AbilityRanker):
    """EM estimation of per-user confusion matrices; ranks by diagonal mass.

    Parameters
    ----------
    max_iterations, tolerance:
        EM stopping rule on the change of the truth posteriors.
    smoothing:
        Additive (Laplace) smoothing applied to confusion-matrix counts so
        that users with few answers keep proper distributions.
    """

    name = "Dawid-Skene"

    def __init__(self, *, max_iterations: int = 100, tolerance: float = 1e-6,
                 smoothing: float = 0.01) -> None:
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.smoothing = smoothing

    def rank(
        self,
        response: ResponseMatrix,
        *,
        init_state: Optional[SolverState] = None,
    ) -> AbilityRanking:
        """EM whose two accumulators are products with the sparse answer
        indicator ``M``; a warm start is only a different initial posterior
        table."""
        result, state, warm_mode = dawid_skene_solve(
            response,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            smoothing=self.smoothing,
            init_state=init_state,
        )
        diagnostics: Dict[str, object] = {
            "iterations": result.iterations,
            "converged": result.converged,
            "discovered_truths": result.posteriors.argmax(axis=1),
            "class_priors": result.priors,
            "warm_start": warm_mode,
        }
        return AbilityRanking(
            scores=result.accuracies, method=self.name,
            diagnostics=diagnostics, state=state,
        )
