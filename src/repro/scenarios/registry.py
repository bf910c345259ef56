"""The scenario line-up: :data:`SCENARIOS` and its decorator.

Every generator registers itself once at function-definition time via the
:func:`register_scenario` decorator::

    @register_scenario("colluding-bloc", params=("bloc_fraction", ...))
    def generate_colluding_bloc(num_users, num_items, *, random_state=None, ...):
        ...

and consumers — the mass-screening orchestrator, the CLI ``screen``
command, tests — look the spec up by name.  :data:`SCENARIOS` is a
:class:`repro.registry.Registry` of noun "scenario", the same class
the ranker line-up uses, so an unknown scenario name fails with the same
did-you-mean ``KeyError`` and an unknown parameter with the same
``TypeError`` naming the accepted ones: a typo in a sweep config is a
loud, actionable error instead of a silently missing sweep row.

The generator module imports this one *during* its own import; it needs
only the stdlib-level :mod:`repro.registry`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.registry import Registry, Spec


class ScenarioSpec(Spec):
    """One registered crowd scenario.

    ``factory(num_users, num_items, *, random_state=..., **params)``
    returns a :class:`~repro.scenarios.generators.ScenarioInstance`;
    ``params`` are the accepted keyword parameters beyond the two sizes
    and the seed.
    """

    noun = "scenario"

    def generate(self, num_users: int, num_items: int, *, random_state=None, **params):
        """Instantiate the scenario, validating parameter names up front."""
        self.validate_params(params)
        return self.factory(num_users, num_items, random_state=random_state, **params)


#: The process-wide registry every ``@register_scenario`` use populates.
SCENARIOS = Registry("scenario")


def register_scenario(
    name: str,
    *,
    params: Sequence[str] = (),
    summary: str = "",
    registry: Optional[Registry] = None,
):
    """Function decorator registering a scenario generator under ``name``."""

    def decorate(func: Callable) -> Callable:
        spec = ScenarioSpec(name=name, factory=func, params=params, summary=summary)
        # Explicit None-check: an empty registry is falsy via __len__.
        (SCENARIOS if registry is None else registry).register(spec)
        func.scenario_name = name
        return func

    return decorate
