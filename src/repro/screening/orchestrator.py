"""Resumable mass screening: registry methods x scenarios x scales.

The screening orchestrator sweeps every cell of a
``scenario x scale x method`` grid, scores the ranking each method
produces on the scenario's planted truth, and persists **one artifact per
cell** under ``<out_dir>/cells/``.  Two properties carry the whole
design:

**Checkpoint after every cell, resume by scanning.**  Each cell artifact
is written atomically (tmp file + ``os.replace``) the moment the cell
finishes, so a run killed at any instant — including ``SIGKILL``
mid-write — leaves only complete artifacts behind.  A rerun scans the
output directory, verifies each existing artifact against the plan (same
identity fields, same plan seed), and recomputes only what is missing.
This is the ExplorePipolin mass-screening shape: the corpus iteration is
restartable because the per-item artifact *is* the checkpoint.

**Byte-identical artifacts.**  Cell artifacts contain no timestamps, no
durations, no hostnames — only plan-derived identity and deterministic
results — and are serialized with sorted keys.  A resumed run therefore
produces byte-for-byte the artifacts the uninterrupted run would have
(CI kills a run mid-sweep and diffs the two output trees to enforce
exactly that).  Wall-clock telemetry lives in a ``progress.json``
sidecar that is explicitly outside the identity contract.

Per-cell seeds derive from ``blake2b(plan_seed, scenario, scale, trial)``
— method deliberately excluded, so every method in a cell row faces the
*same* generated crowd and the per-method numbers are comparable.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import REGISTRY, rank
from repro.evaluation.metrics import (
    kendall_accuracy,
    normalized_displacement,
    pairwise_ranking_accuracy,
    ranking_inversion_gap,
    spearman_accuracy,
    top_fraction_precision,
)
from repro.scenarios import SCENARIOS

#: The accuracy numbers every cell artifact records (name -> computation).
METRIC_NAMES = (
    "spearman",
    "kendall",
    "pairwise",
    "displacement",
    "inversion_gap",
    "top_quarter_precision",
)

#: Artifact schema version; bumped when the cell layout changes so stale
#: artifacts are recomputed instead of silently trusted.
ARTIFACT_VERSION = 1

ProgressCallback = Optional[Callable[[str, str], None]]


@dataclass(frozen=True)
class ScreeningCell:
    """One (scenario, scale, method) point of the sweep grid."""

    scenario: str
    num_users: int
    num_items: int
    method: str

    @property
    def cell_id(self) -> str:
        return "%s-%dx%d-%s" % (
            self.scenario, self.num_users, self.num_items, self.method,
        )


@dataclass(frozen=True)
class ScreeningPlan:
    """A validated sweep specification.

    Scenario and method names are resolved against their registries at
    construction time, so a typo fails here — with the registry's
    did-you-mean hint — not three hours into a sweep.  Supervised methods
    are rejected: screening scores rankings against planted truth the
    method must not have seen.
    """

    scenarios: Tuple[str, ...]
    methods: Tuple[str, ...]
    scales: Tuple[Tuple[int, int], ...]
    trials: int = 1
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.scenarios or not self.methods or not self.scales:
            raise ValueError("a screening plan needs at least one scenario, "
                             "method and scale")
        if self.trials < 1:
            raise ValueError("trials must be >= 1, got %d" % self.trials)
        # Canonicalize names through the registries (case-insensitive
        # rescue included) and fail loudly on unknowns.
        object.__setattr__(
            self, "scenarios",
            tuple(SCENARIOS.get(name).name for name in self.scenarios),
        )
        object.__setattr__(
            self, "methods",
            tuple(REGISTRY.get_unsupervised(name).name for name in self.methods),
        )
        for scale in self.scales:
            num_users, num_items = scale
            if num_users < 4 or num_items < 4:
                raise ValueError("scale %r is too small to screen" % (scale,))
        object.__setattr__(
            self, "scales",
            tuple((int(m), int(n)) for m, n in self.scales),
        )

    def cells(self) -> Iterator[ScreeningCell]:
        """The sweep grid in deterministic scenario-major order.

        Methods iterate innermost so the per-(scenario, scale) dataset cache
        in :func:`run_screening` stays hot across a full method row.
        """
        for scenario in self.scenarios:
            for num_users, num_items in self.scales:
                for method in self.methods:
                    yield ScreeningCell(scenario, num_users, num_items, method)

    def cell_count(self) -> int:
        return len(self.scenarios) * len(self.scales) * len(self.methods)


def derive_seed(base_seed: int, *parts) -> int:
    """A stable 63-bit seed from the plan seed and cell coordinates.

    ``blake2b`` over the repr-tuple: collision-free in practice, identical
    across processes and platforms (unlike ``hash()``, which is salted).
    """
    payload = repr((int(base_seed),) + tuple(parts)).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def _score_ranking(scores, truth) -> Dict[str, float]:
    return {
        "spearman": float(spearman_accuracy(scores, truth)),
        "kendall": float(kendall_accuracy(scores, truth)),
        "pairwise": float(pairwise_ranking_accuracy(scores, truth)),
        "displacement": float(normalized_displacement(scores, truth)),
        "inversion_gap": float(ranking_inversion_gap(truth, scores)),
        "top_quarter_precision": float(
            top_fraction_precision(scores, truth, fraction=0.25)
        ),
    }


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Serialize deterministically and publish atomically.

    ``sort_keys`` plus CPython's repr-based float formatting makes the
    byte stream a pure function of the payload; the tmp + ``os.replace``
    dance makes a ``SIGKILL`` at any instant leave either the old file or
    the new file, never a torn one.
    """
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _cell_identity(cell: ScreeningCell, plan: ScreeningPlan) -> dict:
    return {
        "version": ARTIFACT_VERSION,
        "cell_id": cell.cell_id,
        "scenario": cell.scenario,
        "num_users": cell.num_users,
        "num_items": cell.num_items,
        "method": cell.method,
        "trials": plan.trials,
        "seed": plan.seed,
    }


def _load_valid_artifact(path: Path, identity: dict) -> Optional[dict]:
    """The existing artifact, iff it matches the plan's identity fields."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    for key, value in identity.items():
        if payload.get(key) != value:
            return None
    if not isinstance(payload.get("metrics"), dict):
        return None
    return payload


@dataclass
class ScreeningResult:
    """Everything one :func:`run_screening` call produced or reused."""

    cells: Dict[str, dict] = field(default_factory=dict)
    computed: List[str] = field(default_factory=list)
    resumed: List[str] = field(default_factory=list)

    def metric(self, cell_id: str, name: str) -> float:
        return float(self.cells[cell_id]["metrics"][name])


def run_screening(
    plan: ScreeningPlan,
    out_dir,
    *,
    progress: ProgressCallback = None,
) -> ScreeningResult:
    """Run (or resume) the sweep, one atomic artifact per cell.

    Cells whose artifact already exists *and* matches the plan identity
    are loaded, not recomputed — that is the whole resume story.  The
    ``progress`` callback receives ``(cell_id, "computed" | "resumed")``
    after each cell.
    """
    out_dir = Path(out_dir)
    cells_dir = out_dir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    result = ScreeningResult()
    dataset_cache: Dict[tuple, list] = {}
    started = time.monotonic()
    for cell in plan.cells():
        identity = _cell_identity(cell, plan)
        artifact_path = cells_dir / ("%s.json" % cell.cell_id)
        existing = _load_valid_artifact(artifact_path, identity)
        if existing is not None:
            result.cells[cell.cell_id] = existing
            result.resumed.append(cell.cell_id)
            if progress:
                progress(cell.cell_id, "resumed")
            continue
        cell_started = time.monotonic()
        dataset_key = (cell.scenario, cell.num_users, cell.num_items)
        if dataset_key not in dataset_cache:
            # One generated crowd per (scenario, scale, trial), shared by
            # every method in the row: the seed excludes the method on
            # purpose, so per-method numbers are comparable.  Keep only
            # the current row's datasets — the grid is scenario-major.
            dataset_cache.clear()
            dataset_cache[dataset_key] = [
                SCENARIOS.get(cell.scenario).generate(
                    cell.num_users,
                    cell.num_items,
                    random_state=derive_seed(
                        plan.seed, cell.scenario, cell.num_users,
                        cell.num_items, trial,
                    ),
                )
                for trial in range(plan.trials)
            ]
        # Methods with a seedable solver (e.g. HnD's power-iteration init)
        # get a derived per-cell seed: an unseeded random init can flip the
        # eigenvector sign, and when the decile-entropy orientation ties
        # (a unanimous bloc makes both extremes zero-entropy) that sign
        # leaks into the ranking.  The artifact contract is byte-identity,
        # so every stochastic knob must be pinned.  The solver seed *does*
        # include the method — it seeds the solver, not the crowd.
        method_spec = REGISTRY.get(cell.method)
        rank_params = {}
        if method_spec.takes("random_state"):
            rank_params["random_state"] = derive_seed(
                plan.seed, "solver", cell.scenario, cell.num_users,
                cell.num_items, cell.method,
            )
        per_trial = []
        for instance in dataset_cache[dataset_key]:
            ranking = rank(instance.response, cell.method, **rank_params)
            per_trial.append(_score_ranking(ranking.scores,
                                            instance.abilities))
        payload = dict(identity)
        payload["per_trial"] = per_trial
        payload["metrics"] = {
            name: sum(trial[name] for trial in per_trial) / len(per_trial)
            for name in METRIC_NAMES
        }
        _atomic_write_json(artifact_path, payload)
        result.cells[cell.cell_id] = payload
        result.computed.append(cell.cell_id)
        # Wall-clock telemetry rides the sidecar, never the artifact:
        # durations differ between an interrupted and a clean run, and the
        # artifacts must not.
        _atomic_write_json(out_dir / "progress.json", {
            "completed": len(result.cells),
            "total": plan.cell_count(),
            "resumed": len(result.resumed),
            "last_cell": cell.cell_id,
            "last_cell_seconds": round(time.monotonic() - cell_started, 3),
            "elapsed_seconds": round(time.monotonic() - started, 3),
        })
        if progress:
            progress(cell.cell_id, "computed")
    return result


# --------------------------------------------------------------------------- #
# The accuracy-floor gate
# --------------------------------------------------------------------------- #
#: The metric the CI gate floors.  Spearman is the paper's headline
#: accuracy number and every method/scenario produces it.
GATE_METRIC = "spearman"


def write_baseline(
    result: ScreeningResult,
    plan: ScreeningPlan,
    path,
    *,
    floor_margin: float = 0.05,
) -> dict:
    """Freeze per-cell accuracy floors from a screening run.

    The floor is ``observed - floor_margin`` (clamped to [-1, 1]): tight
    enough that a real regression — a method suddenly mis-ranking a
    scenario it used to handle — trips the gate, loose enough that seed-
    stable numerical jitter does not.  The observed values ride along so
    a failing gate can show the drift, not just the breach.
    """
    if floor_margin < 0:
        raise ValueError("floor_margin must be >= 0, got %r" % (floor_margin,))
    floors = {}
    observed = {}
    for cell_id, payload in sorted(result.cells.items()):
        value = float(payload["metrics"][GATE_METRIC])
        observed[cell_id] = value
        floors[cell_id] = max(-1.0, min(1.0, value - floor_margin))
    payload = {
        "version": ARTIFACT_VERSION,
        "metric": GATE_METRIC,
        "floor_margin": floor_margin,
        "plan": {
            "scenarios": list(plan.scenarios),
            "methods": list(plan.methods),
            "scales": [list(scale) for scale in plan.scales],
            "trials": plan.trials,
            "seed": plan.seed,
        },
        "floors": floors,
        "observed": observed,
    }
    _atomic_write_json(Path(path), payload)
    return payload


def check_baseline(result: ScreeningResult, baseline: dict) -> List[str]:
    """Accuracy-floor violations for every cell the run and baseline share.

    Gating happens on the *intersection* so a reduced CI smoke plan (fewer
    methods, one scale) checks against the full committed baseline without
    demanding a full sweep — but zero overlap is an error, not a pass:
    a gate that silently checks nothing is worse than no gate.
    """
    metric = baseline.get("metric", GATE_METRIC)
    floors = baseline.get("floors", {})
    shared = sorted(set(result.cells) & set(floors))
    if not shared:
        raise ValueError(
            "screening run and baseline share no cells — the floor gate "
            "would vacuously pass (run cells: %d, baseline cells: %d)"
            % (len(result.cells), len(floors))
        )
    violations = []
    for cell_id in shared:
        value = result.metric(cell_id, metric)
        floor = float(floors[cell_id])
        if value < floor:
            violations.append(
                "%s: %s %.4f fell below floor %.4f (baseline observed %.4f)"
                % (cell_id, metric, value, floor,
                   float(baseline.get("observed", {}).get(cell_id, floor)))
            )
    return violations


def load_baseline(path) -> dict:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload.get("floors"), dict):
        raise ValueError("%s is not a screening baseline (no floors)" % path)
    return payload
