"""Shared fixtures for the whole test suite.

The centrepiece is :func:`random_wan` — a factory around
:func:`repro.netsim.builders.build_random_wan` that grows seeded random
WANs at the scale the paper never reached (hundreds of sites).  Tests
take the factory rather than a prebuilt world because most of them
mutate the network (flows, faults, mobility): every call returns a
fresh, deterministic world for its seed.

Every test also runs under :func:`catalogued_names_only`, which holds
instrumentation to the metric catalogue of ``docs/observability.md``.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable
from pathlib import Path

import pytest

from repro.netsim.builders import RandomWanWorld, build_random_wan
from repro.obs.registry import MetricsRegistry

OBSERVABILITY_MD = Path(__file__).resolve().parents[1] / "docs" / "observability.md"

#: a catalogue table row: the name in backquotes, labels written
#: ``{label}`` after it, then the kind
_ROW = re.compile(r"^\| `(?P<name>[^`{]+)(?:\{[^`]*\})?` \| (?P<kind>\w+) \|", re.M)


def _checked(
    record: Callable[..., object], names: frozenset[str], strays: list[str]
) -> Callable[..., object]:
    """``record`` (a registry method), noting each uncatalogued name it
    is asked for from a ``repro.*`` call site.  The call site is the
    first frame outside ``repro.obs``, whose module-level helpers only
    forward; it is looked up only when the name is not catalogued."""

    def checked(self: MetricsRegistry, name: str, **labels: object) -> object:
        if name not in names:
            frame = sys._getframe(1)
            module = frame.f_globals.get("__name__", "")
            while module == "repro.obs" or module.startswith("repro.obs."):
                frame = frame.f_back
                module = frame.f_globals.get("__name__", "")
            if module == "repro" or module.startswith("repro."):
                strays.append(
                    f"{record.__name__}({name!r}) at {module}:{frame.f_lineno}"
                )
        return record(self, name, **labels)

    return checked


@pytest.fixture(scope="session")
def metric_catalogue() -> dict[str, frozenset[str]]:
    """Kind (``counter``, ``gauge``, ``histogram``, ``span``) -> the
    names the tables under "Metric catalogue" in ``docs/observability.md``
    list with that kind.  The tables are the one list of names."""
    text = OBSERVABILITY_MD.read_text()
    section = text.split("\n## Metric catalogue\n", 1)[1].split("\n## ", 1)[0]
    kinds: dict[str, set[str]] = {}
    for row in _ROW.finditer(section):
        kinds.setdefault(row["kind"], set()).add(row["name"])
    return {kind: frozenset(names) for kind, names in kinds.items()}


@pytest.fixture(autouse=True)
def catalogued_names_only(monkeypatch, metric_catalogue):
    """Fail a test during which ``repro`` code recorded a metric or span
    name that the catalogue does not list under the kind recorded (a
    gauge on a documented histogram is an offence), f-string names
    included.  Only a live registry is checked (the no-op default hands
    out nothing), and names a test records itself, such as ``"x.y"``,
    are its own business.  Yields the list of offences noted so far."""
    strays: list[str] = []
    for kind in ("counter", "gauge", "histogram", "span"):
        monkeypatch.setattr(
            MetricsRegistry, kind,
            _checked(getattr(MetricsRegistry, kind), metric_catalogue[kind], strays),
        )
    yield strays
    assert not strays, (
        "names missing from docs/observability.md's metric catalogue "
        "under the kind recorded: " + ", ".join(dict.fromkeys(strays))
    )


@pytest.fixture
def random_wan():
    """Factory for seeded random large-topology worlds.

    ``random_wan(n_sites, seed=..., **kw)`` forwards to
    :func:`build_random_wan`; same arguments grow the identical world,
    down to names and addresses, so failures replay exactly.
    """

    def _build(n_sites: int, seed: int = 0, **kw: object) -> RandomWanWorld:
        return build_random_wan(n_sites, seed=seed, **kw)

    return _build


@pytest.fixture
def check_path_memo():
    """``check(net)``: for every ordered host pair the memoized
    ``compute_path`` equals a fresh forwarding walk, hands out a list of
    its own each call, and remembers no unreachable pair.  Returns how
    many pairs were unreachable."""
    from repro.common.errors import TopologyError
    from repro.netsim.paths import _walk, compute_path

    def check(net) -> int:
        unreachable = 0
        hosts = [h for h in net.hosts() if h.interfaces and h.interfaces[0].ip]
        for src in hosts:
            for dst in hosts:
                if src is dst:
                    continue
                try:
                    fresh = _walk(net, src, dst)
                except TopologyError:
                    for _ in range(2):
                        with pytest.raises(TopologyError):
                            compute_path(net, src, dst)
                    assert (src, dst) not in net._path_memo
                    unreachable += 1
                    continue
                first = compute_path(net, src, dst)
                second = compute_path(net, src, dst)
                assert first == fresh and second == fresh
                assert first is not second
                first.clear()  # a caller's list is never the memo's
                assert compute_path(net, src, dst) == fresh
        return unreachable

    return check
