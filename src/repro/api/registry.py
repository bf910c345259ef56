"""The registry: one source of truth for every registered name.

The paper's value is its *comparison* of methods (HnD-Power, ABH, the
Dawid–Skene / GLAD / HITS-family baselines) under one protocol — which the
codebase used to encode three times: hand-built dicts in
``evaluation/experiments.py``, a method table in ``cli.py``, and attribute
introspection in ``engine/cache.py``.  :data:`REGISTRY` replaces all
three.  Every ranking method registers itself once, at class-definition
time, via the :func:`register_ranker` decorator::

    @register_ranker("HnD", params=("tolerance", ..., "random_state"))
    class HNDPower(AbilityRanker):
        ...

and the registered :class:`RankerSpec` carries everything the consumers
need: the display *name*, the *factory* (the class itself), the *param
spec* (which constructor parameters affect the result, and which instance
attribute stores each one), and a *cacheability* flag.

One :class:`Registry` class, told its noun, backs both line-ups: the
rankers here and the crowd scenarios of :mod:`repro.scenarios` (``SCENARIOS
= Registry("scenario")``).  This module is the one place that turns a name
into a spec, a did-you-mean hint or a refusal:

* an unknown name fails with a ``KeyError`` from :meth:`Registry.get`
  carrying a did-you-mean hint (:func:`unknown_name`, whose prose the
  session manager's crowd lookup and the wire schema's op check reuse);
* an unknown parameter fails with a ``TypeError`` from
  :meth:`Spec.validate_params` naming the accepted ones;
* a supervised baseline asked for where only unsupervised methods make
  sense (``repro.cli rank``, the wire schema, screening plans) fails with
  the ``ValueError`` of :meth:`Registry.get_unsupervised`.

So a typo in a CLI flag, a request or an experiment config is a loud,
actionable error instead of a silently missing table row.

This module deliberately imports nothing from the rest of the package
(stdlib only): the ranker modules import it *during* their own import, so
it must sit at the bottom of the dependency graph.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Iterator, Optional, Sequence, Tuple, Union


def _did_you_mean(name: object, candidates: Sequence[str], limit: int = 3) -> str:
    """``"did you mean 'a' or 'b'?"`` naming ``name``'s close matches, or ``""``."""
    close = difflib.get_close_matches(str(name), list(candidates), n=limit, cutoff=0.4)
    return "did you mean %s?" % " or ".join(map(repr, close)) if close else ""


def unknown_name(
    noun: str, name: object, known: Sequence[str], listed_as: str = "registered"
) -> str:
    """The refusal prose for a name nobody registered, with its did-you-mean hint.

    >>> unknown_name("op", "rnak", ("rank", "stats"), "ops")
    "unknown op 'rnak'; did you mean 'rank'? (ops: rank, stats)"
    """
    hint = _did_you_mean(name, known)
    return "unknown %s %r%s (%s: %s)" % (
        noun, name, "; " + hint if hint else "", listed_as, ", ".join(known) or "none",
    )


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


@dataclass
class Spec:
    """What a registered name resolves to: a factory and its declared parameters.

    Attributes
    ----------
    name:
        Canonical name — the one the paper's tables, the CLI, the
        experiment suites, the screening artifacts and the cache keys use.
    factory:
        The class or function the spec builds from.
    params:
        The declared keyword parameters (names or :class:`Param`; stored
        as :class:`Param`).  Any other keyword is refused.
    summary:
        One-line description for ``--help`` output and tables; defaults to
        the first line of the factory's docstring.
    """

    name: str
    factory: Callable
    params: Tuple[Param, ...] = ()
    summary: str = ""

    #: What the registered things are called in error messages.
    noun: ClassVar[str] = "ranker"

    def __post_init__(self) -> None:
        self.params = tuple(p if isinstance(p, Param) else Param(p) for p in self.params)
        if not self.summary:
            doc_lines = (self.factory.__doc__ or "").strip().splitlines()
            self.summary = doc_lines[0] if doc_lines else ""

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(param.name for param in self.params)

    def takes(self, name: str) -> bool:
        """Whether ``name`` is a declared constructor parameter."""
        return name in self.param_names

    def validate_params(self, params) -> None:
        """Reject parameter names outside the declared spec (with hints)."""
        unknown = sorted(set(params) - set(self.param_names))
        if unknown:
            hints = []
            for name in unknown:
                hint = _did_you_mean(name, self.param_names, limit=1)
                hints.append("%r%s" % (name, " (%s)" % hint if hint else ""))
            raise TypeError(
                "%s %r takes parameters (%s); unexpected: %s"
                % (self.noun, self.name, ", ".join(self.param_names), ", ".join(hints))
            )


@dataclass
class RankerSpec(Spec):
    """Everything the library knows about one registered ranking method.

    A :class:`Spec` (name, factory class, result-affecting parameters,
    summary) plus the flags below; only the declared parameters enter a
    cache key.

    Attributes
    ----------
    cacheable:
        False when the parameters cannot be fingerprinted faithfully
        (e.g. a live estimator object) — such rankers always bypass the
        rank cache.
    supervised:
        True for the "cheating" baselines that require ground truth at
        construction time; :meth:`Registry.get_unsupervised` refuses them
        on unsupervised surfaces such as ``repro.cli rank``.
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
    """

    cacheable: bool = True
    supervised: bool = False
    warm_startable: bool = False

    def create(self, **params):
        """Instantiate the method, validating parameter names up front."""
        self.validate_params(params)
        return self.factory(**params)


class Registry:
    """Name -> :class:`Spec` map with did-you-mean lookup errors.

    ``noun`` names the registered things in error messages.  Normally used
    through the module-level :data:`REGISTRY` (rankers) and
    :data:`repro.scenarios.SCENARIOS`; independent instances exist only so
    tests can build isolated registries.
    """

    def __init__(self, noun: str = "ranker") -> None:
        self.noun = noun
        self._specs: Dict[str, Spec] = {}
        self._by_class: Dict[Callable, Spec] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, spec: Spec) -> Spec:
        if spec.name in self._specs and self._specs[spec.name].factory is not spec.factory:
            raise ValueError(
                "%s name %r is already registered to %s"
                % (self.noun, spec.name, self._specs[spec.name].factory.__qualname__)
            )
        self._specs[spec.name] = spec
        self._by_class[spec.factory] = spec
        return spec

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def get(self, name: str) -> Spec:
        """The spec registered under ``name``; ``KeyError`` with a hint otherwise."""
        try:
            return self._specs[name]
        except KeyError:
            pass
        # Case-insensitive exact match rescues the common capitalization slips.
        folded = {existing.lower(): existing for existing in self._specs}
        if name.lower() in folded:
            return self._specs[folded[name.lower()]]
        raise KeyError(unknown_name(self.noun, name, sorted(self._specs)))

    def get_unsupervised(self, name: str) -> RankerSpec:
        """``get(name)``, refusing a supervised baseline with ``ValueError``.

        The one refusal, in one message, of every surface that ranks
        without ground truth: ``repro.cli rank``, the wire schema and
        screening plans (which score rankings against planted truth the
        method must not see).
        """
        spec = self.get(name)
        if spec.supervised:
            raise ValueError(
                "method %r is a supervised (cheating) baseline and needs "
                "ground truth; unsupervised methods: %s"
                % (spec.name, ", ".join(sorted(self.names(supervised=False))))
            )
        return spec

    def create(self, name: str, **params):
        """``get(name).create(**params)`` — the one-stop factory call."""
        return self.get(name).create(**params)

    def spec_for(self, cls: type) -> Optional[Spec]:
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

    def __iter__(self) -> Iterator[Spec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


#: The ranker line-up's registry type (a :class:`Registry` of noun "ranker").
RankerRegistry = Registry

#: The process-wide registry every ``@register_ranker`` use populates.
REGISTRY = Registry("ranker")


def register_ranker(
    name: str,
    *,
    params: Sequence[ParamLike] = (),
    cacheable: bool = True,
    supervised: bool = False,
    warm_startable: bool = False,
    summary: str = "",
    registry: Optional[Registry] = None,
):
    """Class decorator registering a ranking method under ``name``.

    See :class:`RankerSpec` for the meaning of the keyword arguments.  The
    decorated class gains a ``registry_name`` attribute and is returned
    unchanged otherwise.
    """

    def decorate(cls: type) -> type:
        spec = RankerSpec(
            name=name,
            factory=cls,
            params=params,
            summary=summary,
            cacheable=cacheable,
            supervised=supervised,
            warm_startable=warm_startable,
        )
        # Explicit None-check: an empty registry is falsy via __len__.
        (REGISTRY if registry is None else registry).register(spec)
        cls.registry_name = name
        return cls

    return decorate
