"""Grid Monitoring Architecture (GMA) compatibility layer.

Paper §4 maps Remos onto the Grid Forum's GMA: "each Collector is a
producer.  The Master Collector is a joint consumer/producer ...
Although we view the Modeler as a consumer, it could also be another
joint consumer/producer, providing end-to-end performance predictions
using the component data available from the collectors as a service to
other applications."  This module realises that mapping:

* :class:`GmaEvent` — a typed, timestamped monitoring event.
* :class:`Producer` — query/response and subscription interfaces.
* The GMA directory service is the deployment's SLP directory agent:
  :func:`register_producer` files a producer under each event type it
  serves, and consumers :func:`find_producers` there.
* :class:`CollectorProducer` — any Remos collector as a producer of
  ``remos.topology`` and ``remos.history`` events (the Master, being a
  Collector, is automatically the "joint consumer/producer").
* :class:`ModelerProducer` — the Modeler as a producer of
  ``remos.flow`` events (end-to-end predictions as a service).

Subscriptions are periodic deliveries on the simulation clock — the
streaming half of GMA's producer interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, cast

from repro.common.errors import QueryError
from repro.collectors.base import Collector, HistoryRequest, TopologyRequest
from repro.collectors.slp import DirectoryAgent
from repro.netsim.engine import Timer
from repro.netsim.topology import Network

if TYPE_CHECKING:
    from repro.modeler.api import Modeler

#: well-known Remos event types
EVENT_TOPOLOGY = "remos.topology"
EVENT_HISTORY = "remos.history"
EVENT_FLOW = "remos.flow"
#: GMA producers register under the SLP service type ``service:gma:<event type>``
SERVICE_GMA = "service:gma:"


@dataclass
class GmaEvent:
    """One monitoring event."""

    type: str
    source: str
    timestamp: float
    payload: object


class Consumer(ABC):
    """Anything that can receive events."""

    @abstractmethod
    def deliver(self, event: GmaEvent) -> None: ...


class CollectingConsumer(Consumer):
    """A consumer that just accumulates events (tests, simple apps)."""

    def __init__(self) -> None:
        self.events: list[GmaEvent] = []

    def deliver(self, event: GmaEvent) -> None:
        self.events.append(event)


class Subscription:
    """A periodic event stream from a producer to a consumer."""

    def __init__(self, timer: Timer) -> None:
        self._timer = timer

    def cancel(self) -> None:
        self._timer.cancel()

    @property
    def active(self) -> bool:
        return not self._timer.cancelled


class Producer(ABC):
    """GMA producer: answers queries, serves subscriptions."""

    def __init__(self, name: str, net: Network) -> None:
        self.name = name
        self.net = net
        self.events_produced = 0

    @abstractmethod
    def event_types(self) -> tuple[str, ...]: ...

    @abstractmethod
    def query(self, event_type: str, **params: Any) -> GmaEvent: ...

    def subscribe(
        self,
        event_type: str,
        consumer: Consumer,
        period_s: float,
        **params: Any,
    ) -> Subscription:
        """Deliver a fresh event every ``period_s`` simulated seconds."""
        if event_type not in self.event_types():
            raise QueryError(f"{self.name} does not produce {event_type}")

        def tick() -> None:
            try:
                consumer.deliver(self.query(event_type, **params))
            except QueryError:
                pass  # transiently unanswerable: skip this period

        timer = self.net.engine.every(period_s, tick)
        return Subscription(timer)

    def _emit(self, event_type: str, payload: object) -> GmaEvent:
        self.events_produced += 1
        return GmaEvent(event_type, self.name, self.net.now, payload)


def register_producer(agent: DirectoryAgent, producer: Producer) -> None:
    """Advertise ``producer`` in ``agent``: one SrvReg per event type."""
    for et in producer.event_types():
        agent.register(SERVICE_GMA + et, f"{SERVICE_GMA}{et}://{producer.name}", producer)


def deregister_producer(agent: DirectoryAgent, producer: Producer) -> None:
    """Withdraw every advertisement of ``producer`` (idempotent)."""
    for et in producer.event_types():
        agent.deregister(f"{SERVICE_GMA}{et}://{producer.name}")


def find_producers(agent: DirectoryAgent, event_type: str) -> list[Producer]:
    """The producers of ``event_type`` in ``agent``, in registration order."""
    return [cast(Producer, e.provider) for e in agent.find(SERVICE_GMA + event_type)]


class CollectorProducer(Producer):
    """A Remos collector exposed through the GMA producer interface.

    Wrapping the Master Collector yields GMA's "joint consumer/
    producer": it consumes from the other collectors when queried.
    """

    def __init__(self, collector: Collector) -> None:
        super().__init__(f"gma:{collector.name}", collector.net)
        self.collector = collector

    def event_types(self) -> tuple[str, ...]:
        return (EVENT_TOPOLOGY, EVENT_HISTORY)

    def query(self, event_type: str, **params: Any) -> GmaEvent:
        if event_type == EVENT_TOPOLOGY:
            node_ips = params.get("node_ips")
            if not node_ips:
                raise QueryError("topology query needs node_ips")
            resp = self.collector.topology(TopologyRequest.of(node_ips))
            return self._emit(EVENT_TOPOLOGY, resp)
        if event_type == EVENT_HISTORY:
            a, b = params.get("edge_a"), params.get("edge_b")
            if not a or not b:
                raise QueryError("history query needs edge_a and edge_b")
            resp = self.collector.history(HistoryRequest(a, b))
            if resp is None:
                raise QueryError(f"no history for {a} -- {b}")
            return self._emit(EVENT_HISTORY, resp)
        raise QueryError(f"unknown event type {event_type}")


class ModelerProducer(Producer):
    """The Modeler as a producer of end-to-end flow predictions."""

    def __init__(self, modeler: Modeler) -> None:
        from repro.session import RemosSession

        super().__init__("gma:modeler", modeler.net)
        self.modeler = modeler
        self.session = RemosSession(modeler)

    def event_types(self) -> tuple[str, ...]:
        return (EVENT_FLOW,)

    def query(self, event_type: str, **params: Any) -> GmaEvent:
        if event_type != EVENT_FLOW:
            raise QueryError(f"unknown event type {event_type}")
        src, dst = params.get("src"), params.get("dst")
        if src is None or dst is None:
            raise QueryError("flow query needs src and dst")
        # a degraded answer flows to subscribers (status and
        # all) instead of blowing up the periodic delivery timer
        answer = self.session.flow_info(
            src, dst, predict=bool(params.get("predict", False))
        )
        return self._emit(EVENT_FLOW, answer)
