"""Decile-entropy symmetry breaking (Section III-D of the paper).

Any C1P-style ordering method only determines the user order up to reversal.
The paper breaks the symmetry with an observation borrowed from the
"experts agree" principle: high-ability users converge on the correct
option, so the *top* decile of the true ordering has lower average
per-item choice entropy than the *bottom* decile (who guess more randomly).

Given candidate scores, :func:`orient_scores` computes the average entropy
of the items' option distributions restricted to the top and bottom deciles
and flips the scores when the supposedly-best users look noisier than the
supposedly-worst ones.  HND and ABH both use this heuristic in the paper's
experiments.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.ranking import _stable_pick
from repro.core.response import ResponseMatrix


def decile_entropies(
    response: ResponseMatrix,
    scores: np.ndarray,
    *,
    decile: float = 0.1,
) -> Tuple[float, float]:
    """Average choice entropy of the bottom and top score deciles.

    Parameters
    ----------
    response:
        The observed responses.
    scores:
        Candidate ability scores (orientation unknown).
    decile:
        Fraction of users in each extreme group (default 10%, at least one
        user per group).

    Returns
    -------
    (bottom_entropy, top_entropy)
    """
    scores = np.asarray(scores, dtype=float).ravel()
    if scores.size != response.num_users:
        raise ValueError(
            "scores length %d does not match number of users %d"
            % (scores.size, response.num_users)
        )
    if not 0 < decile <= 0.5:
        raise ValueError("decile must be in (0, 0.5]")
    group_size = max(1, int(round(decile * scores.size)))
    # The first and last group_size users of the stable score order,
    # picked without sorting every user.
    bottom_users = _stable_pick(scores, group_size, largest=False)
    top_users = _stable_pick(scores, group_size, largest=True)
    bottom_entropy = response.choice_entropy(bottom_users)
    top_entropy = response.choice_entropy(top_users)
    return bottom_entropy, top_entropy


def orient_scores(
    response: ResponseMatrix,
    scores: np.ndarray,
    *,
    decile: float = 0.1,
) -> Tuple[np.ndarray, dict]:
    """Return scores oriented so that higher score means higher ability.

    The orientation whose top decile has the *lower* entropy is kept.
    Returns the (possibly negated) scores and a diagnostics dictionary with
    the two entropies and whether a flip happened.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    bottom_entropy, top_entropy = decile_entropies(response, scores, decile=decile)
    flipped = top_entropy > bottom_entropy
    oriented = -scores if flipped else scores.copy()
    diagnostics = {
        "symmetry_bottom_entropy": float(bottom_entropy),
        "symmetry_top_entropy": float(top_entropy),
        "symmetry_flipped": bool(flipped),
    }
    return oriented, diagnostics
