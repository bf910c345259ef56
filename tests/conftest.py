"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import Spec
from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseMatrix
from repro.irt.generators import generate_c1p_dataset, generate_dataset


@pytest.fixture
def rng():
    """A deterministic random generator for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def paper_example_response() -> ResponseMatrix:
    """The running example of Figure 1: 4 users, 3 items, 3 options.

    Choices use 0-based option indices with option order A=2 (best), B=1,
    C=0 (worst) so that the correct option has the highest index, matching
    the library's GRM convention.  User abilities increase with the user
    index: user 0 is the weakest, user 3 the strongest.
    """
    choices = np.array(
        [
            [0, 0, 0],  # u1: C C C   (weakest)
            [2, 0, 0],  # u2: A C C
            [2, 1, 0],  # u3: A B C
            [2, 2, 1],  # u4: A A B   (strongest)
        ]
    )
    return ResponseMatrix(choices, num_options=3)


@pytest.fixture
def small_grm_dataset():
    """A small GRM dataset with ground truth, deterministic seed."""
    return generate_dataset("grm", num_users=40, num_items=60, num_options=3,
                            random_state=7)


@pytest.fixture
def small_c1p_dataset():
    """A small ideal consistent-response dataset."""
    return generate_c1p_dataset(30, 50, num_options=3, random_state=11)


@pytest.fixture
def construction_counts(monkeypatch):
    """Live counts of ``HNDPower.__init__`` and ``Spec.validate_params`` calls.

    The keys are ``built`` and ``checked``; reset them with ``update``.
    """
    counts = {"built": 0, "checked": 0}
    real_init = HNDPower.__init__
    real_validate = Spec.validate_params

    def init(self, *args, **kwargs):
        counts["built"] += 1
        real_init(self, *args, **kwargs)

    def validate(self, params):
        counts["checked"] += 1
        return real_validate(self, params)

    monkeypatch.setattr(HNDPower, "__init__", init)
    monkeypatch.setattr(Spec, "validate_params", validate)
    return counts
