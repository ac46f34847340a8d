"""repro.service — Remos as a network service.

The paper positions Remos as a *shared* query service for grid
applications; this package puts the reproduction on the wire.  An
asyncio HTTP/JSON query plane wraps :class:`repro.session.RemosSession`
(flow_info, flow_info_many, topology, node_info, invalidate_cache) and
adds the production-hardening primitives a shared service needs:

* :mod:`repro.service.ratelimit` — per-tenant token-bucket rate limits;
* :mod:`repro.service.breaker` — a circuit breaker around the
  collector/Master backend.  A backend call runs once: failures are
  retried where measurements are taken, in the collectors and the
  Master, and a caller's mistake is ``bad_request`` before any fetch;
* :mod:`repro.service.admission` — admission control that *sheds* to
  last-known-good answers (served ``STALE``) under overload instead of
  queuing requests until they time out;
* :mod:`repro.service.subs` — long-poll subscriptions for flow updates.

The wire contract is the PR 4 ``Answer``/``QueryStatus`` family
serialized canonically (schema v1, ``to_dict``/``from_dict``), carrying
``trace_id``/``provenance``/``data_age_s`` across the wire so
``repro trace`` and the flight recorder keep working for remote
clients.  See ``docs/service.md`` for endpoints and knobs, and
``repro serve`` for the CLI entry point.
"""

from __future__ import annotations

from repro.service.app import RemosService, ServiceConfig, SessionBackend
from repro.service.client import DirectClient, HttpServiceClient, ServiceError
from repro.service.http import start_server
from repro.service.wire import WIRE_SCHEMA_VERSION, canonical_json

__all__ = [
    "DirectClient",
    "HttpServiceClient",
    "RemosService",
    "ServiceConfig",
    "ServiceError",
    "SessionBackend",
    "WIRE_SCHEMA_VERSION",
    "canonical_json",
    "start_server",
]
