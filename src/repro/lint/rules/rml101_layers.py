"""RML101 — the import-layering contract.

The Remos stack is a strict layer cake: the simulated network at the
bottom, SNMP on top of it, collectors above that, the modeler above
the collectors, prediction above the modeler, and the session/service
plane on top.  An import that points *up* the cake (a collector
importing the predictor, the prediction layer importing the session
facade) inverts the dependency the architecture promises and tends to
rot into an import cycle held together by lazy imports.

The contract is :data:`ORDER` (rank 0 upward) and :data:`ASSIGN`
(layer -> module prefixes) below.  Module-to-layer assignment is
longest-prefix-wins, so a bare ``"repro"`` prefix in the top layer acts
as the fallback: any module nobody assigned explicitly lands at the
top, where importing it from below fails the gate until someone places
it deliberately.

Imports laundered through ``if TYPE_CHECKING:`` or a function body are
still violations — the cycle they hide is still real at type-check or
call time — and the message says which laundering it saw.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.core import Violation
from repro.lint.project import Project, Rule, violation_at

#: layer names, rank 0 (the foundation) upward
ORDER = [
    "foundation", "netsim", "snmp", "graph",
    "collectors", "modeler", "rps", "session", "entry",
]
#: layer name -> the module prefixes it holds; ``repro.modeler.graph``
#: (the shared topology vocabulary) sits below the collectors that
#: serialize graphs, the rest of ``repro.modeler`` above them
ASSIGN = {
    "foundation": ["repro.common", "repro.obs"],
    "netsim": ["repro.netsim", "repro.faults"],
    "snmp": ["repro.snmp"],
    "graph": ["repro.modeler.graph"],
    "collectors": ["repro.collectors"],
    "modeler": ["repro.modeler"],
    "rps": ["repro.rps"],
    "session": ["repro.session", "repro.service", "repro.apps"],
    "entry": ["repro"],
}

_KIND_NOTE = {
    "lazy": " (laundered through a local import)",
    "type_checking": " (laundered through TYPE_CHECKING)",
}


class LayerMap:
    """Longest-prefix-wins module -> (layer, rank) assignment."""

    def __init__(self, order: list[str], assign: dict[str, list[str]]) -> None:
        self.order = order
        rank = {layer: i for i, layer in enumerate(order)}
        self._prefixes: list[tuple[str, str, int]] = []
        for layer, prefixes in assign.items():
            if layer not in rank:
                continue
            for prefix in prefixes:
                self._prefixes.append((prefix, layer, rank[layer]))
        # longest prefix first so repro.modeler.graph beats repro.modeler
        self._prefixes.sort(key=lambda t: -len(t[0]))

    def place(self, module: str) -> tuple[str, int] | None:
        for prefix, layer, rank in self._prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return layer, rank
        return None


class ImportLayeringRule(Rule):
    code = "RML101"
    name = "import-layering"
    rationale = (
        "imports must point down the declared layer DAG; an upward "
        "import inverts the architecture and breeds lazy-import cycles"
    )

    def check(self, project: Project) -> Iterator[Violation]:
        layers = LayerMap(ORDER, ASSIGN)
        for info in project.src_modules():
            placed = layers.place(info.name)
            if placed is None:
                continue
            src_layer, src_rank = placed
            for imp in info.imports:
                target = self._module_target(project, imp.target)
                if target is None:
                    continue
                t_placed = layers.place(target)
                if t_placed is None:
                    continue
                t_layer, t_rank = t_placed
                if t_rank <= src_rank:
                    continue
                note = _KIND_NOTE.get(imp.kind, "")
                yield violation_at(
                    self, info.path, imp,
                    f"{info.name} (layer '{src_layer}') imports {target} "
                    f"(layer '{t_layer}', above it){note}; dependencies "
                    "must point down the layer DAG",
                )

    def _module_target(self, project: Project, dotted: str) -> str | None:
        """Collapse an import target onto the module that defines it.

        ``from repro import obs`` records ``repro.obs`` (a module);
        ``from repro.session import RemosSession`` records
        ``repro.session.RemosSession`` — a member, so the defining
        module is ``repro.session``.  Only project-internal targets are
        layered; stdlib and third-party imports return None.
        """
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            cand = ".".join(parts[:i])
            if cand in project.graph.modules:
                return cand
        return None
