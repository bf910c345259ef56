"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class.  More specific subclasses communicate which
subsystem rejected the input and why.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class InvalidResponseMatrixError(ReproError):
    """Raised when a response matrix fails structural validation.

    Examples include: a one-hot matrix with more than a single 1 per
    user/item block, negative entries, an empty matrix, or mismatched
    dimensions between the raw choice matrix and the declared number of
    options per item.
    """


class DisconnectedGraphError(ReproError):
    """Raised when the user-option bipartite graph is not connected.

    Spectral ranking methods (HND, ABH, HITS) cannot compare users that
    live in different connected components; callers should either restrict
    to the largest component or add connecting items.
    """


class ConvergenceError(ReproError):
    """Raised when an iterative solver fails to converge within its budget."""

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class EngineError(ReproError, RuntimeError):
    """Base class for transport and execution failures outside the request.

    A serve client raises it for a server-side ``engine_error`` reply; its
    subclass :class:`ProtocolError` covers malformed wire frames.  Also
    derives from :class:`RuntimeError` so callers written against the
    pre-taxonomy errors keep working.
    """


class ProtocolError(EngineError):
    """A wire frame failed validation (bad magic, truncation, checksum
    mismatch, malformed header).  The connection that produced it can no
    longer be trusted and is dropped."""


class ServeError(ReproError):
    """Base class for the serving front end's request failures.

    Every subclass carries a stable wire ``code`` — the string the
    ``repro.serve`` protocol puts in an error response — so clients can
    dispatch on the *kind* of rejection without parsing prose.  These are
    *request* errors: the server stays healthy, the connection stays open,
    and (except for :class:`SchemaError` on an unparseable frame) the
    request is safe to retry after addressing the cause.
    """

    code = "error"


class SchemaError(ServeError):
    """A request failed wire-schema validation.

    Unknown operation, missing or mistyped field, unsupported protocol
    version, or an unknown ranking method (the message carries the ranker
    registry's did-you-mean hint).  Retrying the same bytes will fail the
    same way — fix the request.
    """

    code = "bad_request"


class UnknownCrowdError(ServeError):
    """A request named a crowd the session manager does not host.

    Either it was never created, or the manager's LRU bound evicted it
    (resident sessions are in-memory state).  The message carries a
    did-you-mean hint over the resident crowd names.
    """

    code = "unknown_crowd"


class CrowdExistsError(ServeError):
    """``create`` named a crowd that is already resident.

    Pass ``exist_ok`` to make creation idempotent instead.
    """

    code = "crowd_exists"


class RateLimitedError(ServeError):
    """The client exhausted its token bucket; slow down and retry.

    The HTTP-429 analogue: a *per-client* rejection, typed and instant,
    never a queued wait.  ``retry_after`` is the seconds until the bucket
    refills enough for one request.
    """

    code = "rate_limited"

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServerOverloadedError(ServeError):
    """The server's bounded work queue is full; back off and retry.

    The *global* backpressure rejection: admitting the request would grow
    an unbounded queue, so it is refused immediately instead: degrade,
    don't hang.  ``retry_after`` is a backoff hint, not a reservation.
    """

    code = "overloaded"

    def __init__(self, message: str, *, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class SnapshotError(ReproError):
    """A durable-store record failed validation and cannot be trusted.

    Raised by :mod:`repro.store` when a snapshot or persisted crowd fails
    any integrity check: bad magic, an unknown schema version, a checksum
    mismatch (bit flips), a truncated or zero-length file, a malformed
    header, or a record whose recorded identity does not match the key it
    was looked up under (a foreign or tampered record).

    The store's public lookups catch this internally and **fall back
    cold** — a corrupt record is logged, counted, removed, and treated as
    a miss — so a :class:`SnapshotError` never escapes ``rank()``; it can
    only surface through the explicit maintenance surfaces
    (``repro.cli store verify``) that exist to find exactly these files.
    ``path`` carries the offending file when one is known.
    """

    def __init__(self, message: str, *, path: object = None) -> None:
        super().__init__(message)
        self.path = path


class NotC1PError(ReproError):
    """Raised when a matrix is required to have the consecutive ones property
    (after row permutation) but does not."""


class EstimationError(ReproError):
    """Raised when a statistical estimator (e.g. the GRM estimator) cannot
    produce parameter estimates for the provided data."""


class DatasetError(ReproError):
    """Raised for unknown dataset names or malformed dataset files."""
