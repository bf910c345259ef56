"""GLAD: Generative model of Labels, Abilities and Difficulties.

Whitehill et al. (NeurIPS 2009) propose a crowdsourcing model that the paper
discusses as the binary-IRT special case with all difficulties tied to zero
(Appendix C-A): worker ``j`` labels item ``i`` correctly with probability
``sigma(alpha_j * beta_i)`` where ``alpha_j`` is the worker's ability and
``beta_i > 0`` the item's (inverse) difficulty; an incorrect worker picks one
of the remaining options uniformly at random.

This module implements the multi-class EM estimation of that model so GLAD
can be used as an additional ability-discovery baseline:

* E-step: posterior over each item's true option given current parameters.
* M-step: gradient ascent on the expected complete-data log-likelihood with
  respect to ``alpha`` (per worker) and ``log beta`` (per item).

Users are ranked by their estimated ability ``alpha_j``.

Implementation notes (PR 1, reworked in PR 7): the E-step runs as two
``np.bincount`` scatter-adds over the flat ``(user, item, choice)`` answer
triples instead of a per-item/per-candidate Python loop.  The M-step is
**O(nnz) per gradient step**: the expected log-likelihood only involves
answered ``(worker, item)`` pairs — unanswered cells contribute a zero
residual — so the sigmoid, the residual, and both gradient reductions are
evaluated on the answer triples alone (per-answer gathers plus two
``np.bincount`` scatter-adds), never on a dense ``(m, n)`` grid.  Nothing
on the hot path allocates ``O(m * n)`` memory; the dense formulation
survives only in the seed-faithful oracle
(:mod:`repro.truth_discovery.reference`).  The ``dtype`` parameter
optionally drops the per-answer work buffers to ``float32`` — measured to
cost real ranking quality on hard instances, so ``float64`` stays the
default; the EM parameters ``alpha``/``log beta`` and the truth
posteriors — including the convergence check — always stay ``float64``.

GLAD's EM/gradient dynamics are chaotic — a ``1e-12`` input perturbation
changes the converged scores by ``O(1)`` — so any reordering of float ops
(including the sparse M-step, at either precision) yields different
scores; the equivalence tests therefore compare *rankings* against the
seed-faithful oracle in :mod:`repro.truth_discovery.reference`, not raw
scores.

The same chaos is why GLAD is **not warm-startable** (the registry leaves
``warm_startable=False``, and ``CrowdSession.rank(..., warm_start=True)`` /
``repro.cli rank --warm-start`` reject it with a clear error): restarting
the gradient EM from a previous solution is an ``O(1)`` perturbation of
the trajectory, so the warm result would not be convergence-equivalent to
a cold solve — it would be a different attractor, violating the warm-start
contract that only the iteration count may change.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.api.registry import register_ranker
from repro.core.ranking import AbilityRanker, AbilityRanking
from repro.core.response import ResponseMatrix


@register_ranker(
    "GLAD",
    params=("max_iterations", "gradient_steps", "learning_rate",
            "prior_precision", "tolerance", "dtype"),
    summary="GLAD EM (per-user ability x per-item difficulty, binary graded)",
)
class GLADRanker(AbilityRanker):
    """EM estimation of the GLAD model; ranks users by estimated ability.

    Parameters
    ----------
    max_iterations:
        Number of EM rounds.
    gradient_steps, learning_rate:
        Inner gradient-ascent schedule of each M-step.
    prior_precision:
        Strength of the zero-mean Gaussian prior on ``alpha`` and
        ``log beta`` that keeps the parameters bounded (the original paper
        uses such priors as well).
    tolerance:
        Early-stopping threshold on the change of the truth posteriors.
    dtype:
        Floating dtype of the per-answer sigmoid/residual work buffers.
        ``float32`` cuts the gradient-loop cost further but measurably
        degrades ranking quality on hard instances, so the default is
        ``float64``; parameters and posteriors remain ``float64`` either
        way.
    """

    name = "GLAD"

    def __init__(self, *, max_iterations: int = 30, gradient_steps: int = 10,
                 learning_rate: float = 0.05, prior_precision: float = 0.01,
                 tolerance: float = 1e-5, dtype: "np.typing.DTypeLike" = np.float64) -> None:
        self.max_iterations = max_iterations
        self.gradient_steps = gradient_steps
        self.learning_rate = learning_rate
        self.prior_precision = prior_precision
        self.tolerance = tolerance
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError("dtype must be a floating dtype")

    # ------------------------------------------------------------------ #
    def rank(self, response: ResponseMatrix) -> AbilityRanking:
        compiled = response.compiled
        num_users = response.num_users
        num_items = response.num_items
        num_classes = response.max_options
        num_options = response.num_options
        dtype = self.dtype
        # Widened once per rank: every iteration gathers and counts with
        # these, and numpy would convert int32 indices to intp each time.
        user_idx = compiled.user_index.astype(np.intp)
        item_idx = compiled.item_index.astype(np.intp)
        choice_idx = compiled.option_index
        num_answers = user_idx.size
        # Flat row-major positions of the answers inside the (n, k_max)
        # posterior table, in int64: n * k_max may pass 2**31.
        flat_item_choice = item_idx.astype(np.int64, copy=False) * num_classes + choice_idx
        # Items someone answered keep the seed behaviour of masking the
        # out-of-range candidate columns to -inf; fully unanswered items
        # stay uniform over all k_max columns, exactly like the original
        # per-item loop (which `continue`d before the mask assignment).
        has_answers = compiled.answers_per_item > 0
        invalid_candidate = (
            np.arange(num_classes)[np.newaxis, :] >= num_options[:, np.newaxis]
        ) & has_answers[:, np.newaxis]
        wrong_denominator = np.maximum(num_options[item_idx] - 1, 1).astype(dtype)

        # Preallocated O(nnz) per-answer work buffers.  The likelihood only
        # involves answered (worker, item) pairs — unanswered cells have a
        # zero residual — so nothing here is (m, n).
        work = np.empty(num_answers, dtype=dtype)
        alpha_at = np.empty(num_answers, dtype=dtype)
        beta_at = np.empty(num_answers, dtype=dtype)
        agreement = np.empty(num_answers, dtype=dtype)

        def answer_correct_probability(alpha_work: np.ndarray,
                                       beta_work: np.ndarray) -> np.ndarray:
            """``P(worker of answer a labeled its item correctly)`` into ``work``.

            ``sigma(z) = 1 / (1 + exp(-z))`` written as in-place ufuncs over
            the per-answer gathers; overflow of ``exp`` saturates to ``inf``
            whose reciprocal is 0, which the clip then maps to the same
            1e-6 floor the seed used.
            """
            np.take(alpha_work, user_idx, out=alpha_at)
            np.take(beta_work, item_idx, out=beta_at)
            np.multiply(alpha_at, beta_at, out=work)
            np.negative(work, out=work)
            np.exp(work, out=work)
            np.add(work, 1.0, out=work)
            np.reciprocal(work, out=work)
            np.clip(work, 1e-6, 1.0 - 1e-6, out=work)
            return work

        def truth_posteriors(alpha: np.ndarray, log_beta: np.ndarray) -> np.ndarray:
            """Posterior over each item's true option, shape (n, k_max).

            For item ``i`` and candidate ``c`` the log posterior is
            ``sum_u log(wrong_u)  +  sum_{u: label=c} (log p_u - log wrong_u)``
            over the users who answered ``i`` — two bincount passes over the
            answer triples instead of a per-item/per-candidate loop.
            """
            probability = answer_correct_probability(
                alpha.astype(dtype, copy=False),
                np.exp(log_beta).astype(dtype, copy=False),
            )
            wrong_share = (1.0 - probability) / wrong_denominator
            log_wrong = np.log(wrong_share)
            log_correct = np.log(probability)
            base = np.bincount(item_idx, weights=log_wrong, minlength=num_items)
            adjustment = np.bincount(
                flat_item_choice,
                weights=log_correct - log_wrong,
                minlength=num_items * num_classes,
            ).reshape(num_items, num_classes)
            log_posterior = base[:, np.newaxis] + adjustment
            log_posterior[invalid_candidate] = -np.inf
            log_posterior -= log_posterior.max(axis=1, keepdims=True)
            posterior = np.exp(log_posterior)
            posterior /= posterior.sum(axis=1, keepdims=True)
            return posterior

        def m_step(posterior, alpha, log_beta):
            """Gradient ascent on the expected log-likelihood, O(nnz) per step.

            The dense gradient ``(q - sigma) * answered`` is zero wherever
            nobody answered, so both reductions collapse to scatter-adds
            over the answers: ``grad alpha[j] = sum_{a of j} r_a beta_i(a)``
            and ``grad log beta[i] = beta_i sum_{a of i} r_a alpha_j(a)``.
            """
            # q[a]: probability (under the posterior) that answer a's label
            # equals its item's true option.  (The posterior stays float64;
            # the assignment casts into the dtype-policy buffer.)
            if agreement.dtype == posterior.dtype:
                np.take(posterior.ravel(), flat_item_choice, out=agreement)
            else:
                agreement[...] = posterior.ravel().take(flat_item_choice)
            for _ in range(self.gradient_steps):
                beta = np.exp(log_beta)
                residual = answer_correct_probability(
                    alpha.astype(dtype, copy=False),
                    beta.astype(dtype, copy=False),
                )
                # d/dz of [q log sigma(z) + (1-q) log(1-sigma(z))] = q - sigma(z).
                np.subtract(agreement, residual, out=residual)
                # The gathers alpha_at/beta_at still hold this step's
                # parameter values; fold the residual in for the weights.
                np.multiply(residual, beta_at, out=beta_at)
                grad_alpha = (
                    np.bincount(user_idx, weights=beta_at, minlength=num_users)
                    - self.prior_precision * alpha
                )
                np.multiply(residual, alpha_at, out=alpha_at)
                grad_log_beta = (
                    np.bincount(item_idx, weights=alpha_at, minlength=num_items)
                    * beta
                    - self.prior_precision * log_beta
                )
                alpha = alpha + self.learning_rate * grad_alpha
                log_beta = log_beta + self.learning_rate * grad_log_beta
                log_beta = np.clip(log_beta, -4.0, 4.0)
                alpha = np.clip(alpha, -10.0, 10.0)
            return alpha, log_beta

        alpha = np.ones(num_users)
        log_beta = np.zeros(num_items)
        with np.errstate(over="ignore"):
            posterior = truth_posteriors(alpha, log_beta)
            iterations = 0
            converged = False
            for iterations in range(1, self.max_iterations + 1):
                alpha, log_beta = m_step(posterior, alpha, log_beta)
                new_posterior = truth_posteriors(alpha, log_beta)
                change = float(np.abs(new_posterior - posterior).max())
                posterior = new_posterior
                if change < self.tolerance:
                    converged = True
                    break

        diagnostics: Dict[str, object] = {
            "iterations": iterations,
            "converged": converged,
            "discovered_truths": posterior.argmax(axis=1),
            "item_log_difficulty": -log_beta,
        }
        return AbilityRanking(scores=alpha, method=self.name, diagnostics=diagnostics)
