"""``repro.serve`` — the async serving front end over named crowds.

An asyncio TCP server (:class:`CrowdServer`) hosting many
:class:`~repro.api.session.CrowdSession` crowds behind a
:class:`~repro.api.manager.SessionManager`, speaking the checksummed
frames of :mod:`repro.engine.remote.protocol` with the versioned request
schema of :mod:`repro.serve.schema`.  The serving mechanics — micro-batched
appends, single-flight rank coalescing, token-bucket rate limiting,
bounded-queue backpressure — live in :mod:`repro.serve.server`;
:class:`ServeClient` is the blocking counterpart.

Start a server from the CLI::

    python -m repro.cli serve --port 8642

and talk to it::

    from repro.serve import ServeClient
    with ServeClient("127.0.0.1", 8642) as client:
        client.create("quiz", num_items=100, num_options=4)
        client.add_answers("quiz", users, items, options)
        result = client.rank("quiz", "HnD", random_state=0)
"""

from repro.serve.client import RankResult, ServeClient, raise_for_response
from repro.serve.ratelimit import TokenBucket
from repro.serve.schema import (
    OPS,
    PROTOCOL_VERSION,
    ServeRequest,
    ServeResponse,
    error_frame,
    ok_frame,
)
from repro.serve.server import CrowdServer, ServeConfig, ServerStats

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "ServeRequest",
    "ServeResponse",
    "ok_frame",
    "error_frame",
    "TokenBucket",
    "CrowdServer",
    "ServeConfig",
    "ServerStats",
    "ServeClient",
    "RankResult",
    "raise_for_response",
]
