"""Seeded planted-truth crowds for the benchmark.

The answer model is the repository's planted-truth scenario: every item
has a true option, every user an ability drawn uniformly from
``[0.4, 0.95]``, and a user answers correctly with probability equal to
their ability, otherwise uniformly among the wrong options.  Unlike the
helper in ``benchmarks/bench_perf.py`` this generator keeps the abilities
(so rankings can be scored against truth) and draws a seeded arrival order
(so workloads can hold back the tail of the stream and append it).

The program under test only ever receives the triples; abilities and the
arrival order stay on the benchmark's side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ABILITY_RANGE = (0.4, 0.95)


@dataclass(frozen=True)
class Crowd:
    """One planted crowd: canonical triples plus the truth behind them."""

    num_users: int
    num_items: int
    num_options: int
    users: np.ndarray  # canonical user-major order, as an NPZ load yields
    items: np.ndarray
    options: np.ndarray
    abilities: np.ndarray  # one per user: the planted truth
    arrival: np.ndarray  # a permutation of answer indices: the arrival order

    @property
    def num_answers(self) -> int:
        return int(self.users.size)

    def take(self, indices: np.ndarray):
        """The ``(users, items, options)`` triples at ``indices``."""
        return self.users[indices], self.items[indices], self.options[indices]


def planted_crowd(num_users: int, num_items: int, answers_per_user: int,
                  num_options: int, seed: int) -> Crowd:
    """A deterministic planted crowd: the same arguments give the same crowd.

    Every user draws ``answers_per_user`` items uniformly with replacement
    and repeats are dropped, so a few users answer one or two items fewer.
    Triples come back sorted user-major, which is the canonical order a
    saved crowd reloads in.
    """
    rng = np.random.default_rng(seed)
    drawn = np.sort(rng.integers(0, num_items, size=(num_users, answers_per_user),
                                 dtype=np.int64), axis=1)
    fresh = np.ones(drawn.shape, dtype=bool)
    fresh[:, 1:] = drawn[:, 1:] != drawn[:, :-1]
    users = np.broadcast_to(np.arange(num_users, dtype=np.int64)[:, None],
                            drawn.shape)[fresh]
    items = drawn[fresh]
    truth = rng.integers(0, num_options, size=num_items)
    abilities = rng.uniform(*ABILITY_RANGE, size=num_users)
    correct = rng.random(users.size) < abilities[users]
    wrong = (truth[items] + rng.integers(1, num_options, size=users.size)) % num_options
    options = np.where(correct, truth[items], wrong)
    arrival = rng.permutation(users.size)
    return Crowd(num_users, num_items, num_options, users, items, options,
                 abilities, arrival)
