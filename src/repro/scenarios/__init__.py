"""Production-shaped crowd scenarios with planted truth (PR 10).

``repro.scenarios`` is the stress-workload counterpart of
``repro.irt.generators``: instead of clean model-sampled crowds, each
registered scenario builds one production-shaped pathology — colluding
voter blocs, abilities drifting across appends, heavy-tailed activity,
heterogeneous option counts, burst append traffic — as canonical triples
plus planted ground truth, seeded and bit-reproducible.

Scenario specs resolve by name through :data:`SCENARIOS`, an instance of
the one registry class that also backs ``repro.api.REGISTRY``
(:class:`repro.registry.Registry`: case-insensitive rescue,
did-you-mean ``KeyError``, parameter ``TypeError``), so screening plans
and CLI arguments share one error contract across both axes of a sweep.
"""

from repro.scenarios.generators import (
    ScenarioInstance,
    TripleBatch,
    generate_burst_append,
    generate_colluding_bloc,
    generate_drifting_abilities,
    generate_heavy_tailed_activity,
    generate_heterogeneous_options,
    generate_scenario,
)
from repro.scenarios.registry import (
    SCENARIOS,
    ScenarioSpec,
    register_scenario,
)

__all__ = [
    "SCENARIOS",
    "ScenarioInstance",
    "ScenarioSpec",
    "TripleBatch",
    "generate_burst_append",
    "generate_colluding_bloc",
    "generate_drifting_abilities",
    "generate_heavy_tailed_activity",
    "generate_heterogeneous_options",
    "generate_scenario",
    "register_scenario",
]
