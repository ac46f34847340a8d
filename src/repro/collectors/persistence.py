"""Collector state persistence: warm restarts.

Fig. 3 prices a cold cache at several times a warm one, so a collector
that loses its caches on every restart wastes exactly that difference.
These helpers serialise the *static* discovery state (topology caches,
route tables, the bridge database) to JSON; dynamic counter history is
deliberately not saved — after a restart the world has moved, and the
collector re-bootstraps dynamics the same way the "Warm-Bridge"
scenario does.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from typing import Any, TypeVar

from repro.common.errors import RemosError, TopologyError
from repro.collectors.bridge_collector import BridgeCollector, L2Database
from repro.collectors.discovery import DiscoveryState
from repro.collectors.protocol import ProtocolError
from repro.collectors.snmp_collector import SnmpCollector

T = TypeVar("T")


class PersistenceError(RemosError):
    """Saved state is malformed or from an incompatible version."""


_VERSION = 1


def _frame(kind: str, record: dict[str, Any]) -> str:
    return json.dumps({"version": _VERSION, "kind": kind, **record})


def _unframe(kind: str, text: str, parse: Callable[[dict[str, Any]], T]) -> T:
    """The record inside a saved document, parsed whole: a document
    that turns out malformed halfway must leave a live collector as it
    was, so the caller assigns only what this returns."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != kind or doc.get("version") != _VERSION:
        raise PersistenceError(f"not a compatible {kind} state")
    try:
        return parse(doc)
    except (KeyError, TypeError, ValueError, AttributeError, TopologyError, ProtocolError) as exc:
        raise PersistenceError(f"malformed {kind} state: {exc!r}") from exc


def save_snmp_state(coll: SnmpCollector) -> str:
    """Serialise the collector's discovery state to JSON."""
    return _frame("snmp-collector", coll.discovery.state.to_dict())


def load_snmp_state(coll: SnmpCollector, text: str) -> None:
    """Restore a discovery state saved by :func:`save_snmp_state`."""
    coll.discovery.state = _unframe("snmp-collector", text, DiscoveryState.from_dict)
    coll.monitors.clear()  # dynamics are always re-bootstrapped


def save_bridge_state(bc: BridgeCollector) -> str:
    """Serialise the bridge database (startup() must have run)."""
    if bc.db is None:
        raise PersistenceError("bridge collector has no database yet")
    return _frame("bridge-collector", bc.db.to_dict())


def load_bridge_state(bc: BridgeCollector, text: str) -> None:
    """Restore a bridge database saved by :func:`save_bridge_state`."""
    bc.db = _unframe("bridge-collector", text, L2Database.from_dict)
