"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.response import ResponseMatrix
from repro.irt.generators import generate_c1p_dataset, generate_dataset


@pytest.fixture(scope="session")
def remote_workers():
    """Addresses of two in-process remote workers on localhost sockets.

    The remote backend's bit-identity tests against the fused backend run
    over these; the workers live for the whole session.
    """
    from repro.engine.remote.worker import WorkerServer

    servers = [WorkerServer(), WorkerServer()]
    for server in servers:
        server.serve_in_background()
    yield ["%s:%d" % (server.host, server.port) for server in servers]
    for server in servers:
        server.shutdown()


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
