"""The Modeler layer: the Remos API, topology graphs, and flow math."""

from repro.modeler.api import FlowAnswer, Modeler
from repro.modeler.graph import (
    CLOUD,
    HOST,
    ROUTER,
    SWITCH,
    VSWITCH,
    TopoEdge,
    TopoNode,
    TopologyGraph,
)
from repro.modeler.maxmin import FlowPrediction, predict_flows
from repro.modeler.simplify import simplify

__all__ = [
    "FlowAnswer",
    "Modeler",
    "CLOUD",
    "HOST",
    "ROUTER",
    "SWITCH",
    "VSWITCH",
    "TopoEdge",
    "TopoNode",
    "TopologyGraph",
    "FlowPrediction",
    "predict_flows",
    "simplify",
]
