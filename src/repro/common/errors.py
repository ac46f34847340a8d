"""Exception hierarchy for the Remos reproduction.

Every error raised by this package derives from :class:`RemosError`, so
applications can catch one type at the API boundary.  Sub-types mirror
the architectural layers: SNMP transport, topology handling, queries
through the collector stack, and RPS prediction.
"""

from __future__ import annotations


class RemosError(Exception):
    """Base class for all errors raised by the repro package."""


class SnmpError(RemosError):
    """SNMP request failed: unreachable agent, bad community, noSuchName."""


class AgentUnreachableError(SnmpError):
    """The target device exists but refuses or cannot answer SNMP."""


class NoSuchObjectError(SnmpError):
    """The requested OID is not instantiated on the agent."""


class AuthorizationError(SnmpError):
    """Community string rejected or source address not allowed."""


class TopologyError(RemosError):
    """Topology is malformed or discovery could not complete."""


class QueryError(RemosError):
    """A Remos query could not be answered."""


class ArgumentError(QueryError, ValueError):
    """The caller asked a question the Modeler cannot take: an unknown
    detail level, an unreadable host, no hosts at all, or a prediction
    or node query no configured provider can answer.

    Raised before the Modeler fetches anything, so a caller's mistake
    costs no collector work; the query service answers it
    ``bad_request``.
    """


class UnknownHostError(QueryError):
    """A queried host is not covered by any collector."""


class CollectorTimeoutError(QueryError):
    """A collector did not respond within its deadline."""


class CollectorUnavailableError(QueryError):
    """A collector is down, crashed, or quarantined.

    ``site`` names the affected site (when known) and ``agent`` the
    unreachable device or collector, so callers can report *what*
    failed, not just that something did.
    """

    def __init__(self, message: str, site: str | None = None, agent: str | None = None) -> None:
        super().__init__(message)
        self.site = site
        self.agent = agent


class PredictionError(RemosError):
    """RPS model fitting or prediction failed."""


class ModelFitError(PredictionError):
    """Insufficient or degenerate data for fitting a model."""
