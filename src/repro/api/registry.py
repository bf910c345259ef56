"""The ranker registry: one source of truth for the method line-up.

The paper's value is its *comparison* of methods (HnD-Power, ABH, the
Dawid–Skene / GLAD / HITS-family baselines) under one protocol — which the
codebase used to encode three times: hand-built dicts in
``evaluation/experiments.py``, a method table in ``cli.py``, and attribute
introspection in ``engine/cache.py``.  :class:`RankerRegistry` replaces all
three.  Every ranking method registers itself once, at class-definition
time, via the :func:`register_ranker` decorator::

    @register_ranker("HnD", params=("tolerance", ..., "random_state"))
    class HNDPower(AbilityRanker):
        ...

and the registered :class:`RankerSpec` carries everything the consumers
need: the display *name*, the *factory* (the class itself), the *param
spec* (which constructor parameters affect the result, and which instance
attribute stores each one), and a *determinism / cacheability* flag.

Unknown method names fail with a ``KeyError`` carrying a did-you-mean
hint, so a typo in a CLI flag or an experiment config is a loud,
actionable error instead of a silently missing table row.

This module deliberately imports nothing from the rest of the package
(stdlib only): the ranker modules import it *during* their own import, so
it must sit at the bottom of the dependency graph.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class Param:
    """One result-affecting constructor parameter of a ranking method.

    Attributes
    ----------
    name:
        The constructor keyword (what :meth:`RankerSpec.create` accepts).
    attr:
        The instance attribute the value is stored under, when it differs
        from ``name`` (e.g. ``InvestmentRanker(num_iterations=...)`` stores
        into ``self.max_iterations``).  The cache fingerprint reads this.
    """

    name: str
    attr: Optional[str] = None

    @property
    def attribute(self) -> str:
        return self.attr or self.name


ParamLike = Union[str, Param]


def _normalize_params(params: Sequence[ParamLike]) -> Tuple[Param, ...]:
    return tuple(p if isinstance(p, Param) else Param(p) for p in params)


@dataclass
class RankerSpec:
    """Everything the library knows about one registered ranking method.

    Attributes
    ----------
    name:
        Canonical method name — the one the paper's tables, the CLI, the
        experiment suites and the cache keys all use.
    factory:
        The single-process ranker class; ``factory(**params)`` builds one.
    params:
        The result-affecting constructor parameters (see :class:`Param`).
        Only these enter a cache key.
    deterministic:
        False for methods whose output varies run-to-run even with fixed
        parameters.  (Seeded methods are deterministic *when* their
        ``random_state`` parameter is a fixed seed; the fingerprint handles
        that case separately.)
    cacheable:
        False when the parameters cannot be fingerprinted faithfully
        (e.g. a live estimator object) — such rankers always bypass the
        rank cache.
    supervised:
        True for the "cheating" baselines that require ground truth at
        construction time; they are excluded from unsupervised serving
        surfaces such as ``repro.cli rank``.
    warm_startable:
        True for iterative methods whose ``rank`` accepts an
        ``init_state`` :class:`~repro.core.solver_state.SolverState` and
        returns the converged state on the ranking — the methods with a
        genuine convergence criterion, where restarting from a previous
        solution changes only the iteration count, never the answer
        (beyond the convergence tolerance).  Methods that run a fixed
        iteration schedule (Invest, PooledInv) or whose dynamics are
        chaotic (GLAD) stay False: a warm start would change *what* they
        compute, not how fast.
    summary:
        One-line description for ``--help`` output and tables.
    """

    name: str
    factory: type
    params: Tuple[Param, ...] = ()
    deterministic: bool = True
    cacheable: bool = True
    supervised: bool = False
    warm_startable: bool = False
    summary: str = ""

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(param.name for param in self.params)

    def takes(self, name: str) -> bool:
        """Whether ``name`` is a declared constructor parameter."""
        return any(param.name == name for param in self.params)

    def validate_params(self, params) -> None:
        """Reject parameter names outside the declared spec (with hints)."""
        unknown = sorted(set(params) - set(self.param_names))
        if unknown:
            hints = []
            for name in unknown:
                close = difflib.get_close_matches(
                    name, self.param_names, n=1, cutoff=0.4
                )
                hints.append(
                    "%r%s" % (name, " (did you mean %r?)" % close[0] if close else "")
                )
            raise TypeError(
                "ranker %r takes parameters (%s); unexpected: %s"
                % (self.name, ", ".join(self.param_names), ", ".join(hints))
            )

    def create(self, **params):
        """Instantiate the method, validating parameter names up front."""
        self.validate_params(params)
        return self.factory(**params)


class RankerRegistry:
    """Name -> :class:`RankerSpec` map with did-you-mean lookup errors.

    Normally used through the module-level :data:`REGISTRY` that
    :func:`register_ranker` populates; independent instances exist only so
    tests can build isolated registries.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, RankerSpec] = {}
        self._by_class: Dict[type, RankerSpec] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, spec: RankerSpec) -> RankerSpec:
        if spec.name in self._specs and self._specs[spec.name].factory is not spec.factory:
            raise ValueError(
                "ranker name %r is already registered to %s"
                % (spec.name, self._specs[spec.name].factory.__qualname__)
            )
        self._specs[spec.name] = spec
        self._by_class[spec.factory] = spec
        return spec

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> RankerSpec:
        """The spec registered under ``name``; ``KeyError`` with a hint otherwise."""
        try:
            return self._specs[name]
        except KeyError:
            pass
        # Case-insensitive exact match rescues the common capitalization slips.
        folded = {existing.lower(): existing for existing in self._specs}
        if name.lower() in folded:
            return self._specs[folded[name.lower()]]
        close = difflib.get_close_matches(name, list(self._specs), n=3, cutoff=0.4)
        hint = "; did you mean %s?" % " or ".join(repr(c) for c in close) if close else ""
        raise KeyError(
            "unknown ranker %r%s (registered: %s)"
            % (name, hint, ", ".join(sorted(self._specs)))
        )

    def create(self, name: str, **params):
        """``get(name).create(**params)`` — the one-stop factory call."""
        return self.get(name).create(**params)

    def spec_for(self, cls: type) -> Optional[RankerSpec]:
        """The spec a ranker class registered under, or ``None``."""
        return self._by_class.get(cls)

    def names(
        self,
        *,
        supervised: Optional[bool] = None,
        warm_startable: Optional[bool] = None,
    ) -> Tuple[str, ...]:
        """Registered names in registration order, optionally filtered."""
        return tuple(
            name
            for name, spec in self._specs.items()
            if (supervised is None or spec.supervised == supervised)
            and (warm_startable is None or spec.warm_startable == warm_startable)
        )

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[RankerSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


#: The process-wide registry every ``@register_ranker`` use populates.
REGISTRY = RankerRegistry()


def register_ranker(
    name: str,
    *,
    params: Sequence[ParamLike] = (),
    deterministic: bool = True,
    cacheable: bool = True,
    supervised: bool = False,
    warm_startable: bool = False,
    summary: str = "",
    registry: Optional[RankerRegistry] = None,
):
    """Class decorator registering a ranking method under ``name``.

    See :class:`RankerSpec` for the meaning of the keyword arguments.  The
    decorated class gains a ``registry_name`` attribute and is returned
    unchanged otherwise.
    """

    def decorate(cls: type) -> type:
        doc_lines = (cls.__doc__ or "").strip().splitlines()
        spec = RankerSpec(
            name=name,
            factory=cls,
            params=_normalize_params(params),
            deterministic=deterministic,
            cacheable=cacheable,
            supervised=supervised,
            warm_startable=warm_startable,
            summary=summary or (doc_lines[0] if doc_lines else ""),
        )
        # Explicit None-check: an empty registry is falsy via __len__.
        (REGISTRY if registry is None else registry).register(spec)
        cls.registry_name = name
        return cls

    return decorate
