"""The collector directory is a view of its SLP directory agent.

``CollectorDirectory`` answers ``lookup``, ``benchmark_for``,
``registrations`` and ``sites`` from one view of the agent's live
entries, filed again only when that set changes.  The oracle is the
agent itself: a longest-prefix match over its live topology entries,
walked in registration order, where the first registration of a prefix
wins.  Whatever the sequence of SrvRegs, SrvDeRegs, lease refreshes and
clock steps, the directory must answer as the oracle does, and must not
file a table, or send a SrvRqst, for a lookup the agent has not changed
under.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectors import directory as directory_mod
from repro.collectors.directory import CollectorDirectory
from repro.collectors.slp import SERVICE_TOPOLOGY, DirectoryAgent, ServiceEntry
from repro.common.errors import UnknownHostError
from repro.netsim.address import IPv4Address, IPv4Network, PrefixTable


class _Clock:
    """The one thing the agent reads of a network: the simulated time."""

    now = 0.0


#: prefixes that nest and overlap, so matches compete at every length
PREFIXES = (
    "10.0.0.0/8",
    "10.1.0.0/16",
    "10.2.0.0/16",
    "10.1.2.0/24",
    "10.1.2.128/25",
    "10.1.3.0/24",
    "11.0.0.0/8",
)
PROBES = tuple(
    IPv4Address(a)
    for a in ("10.1.2.5", "10.1.2.200", "10.1.3.9", "10.1.9.9", "10.2.0.1",
              "10.9.0.1", "11.3.3.3", "12.0.0.1")
)
COLLECTORS = tuple(SimpleNamespace(name=f"c{i}") for i in range(4))
SITES = ("a", "b", "c")
LIFETIMES = (None, 5.0, 20.0)

register = st.tuples(
    st.just("register"),
    st.sampled_from(COLLECTORS),
    st.lists(st.sampled_from(PREFIXES), min_size=1, max_size=3),
    st.sampled_from(SITES),
    st.sampled_from(LIFETIMES),
)
deregister = st.tuples(st.just("deregister"), st.integers(0, 20))
refresh = st.tuples(st.just("refresh"), st.integers(0, 20), st.sampled_from(LIFETIMES))
advance = st.tuples(st.just("advance"), st.sampled_from((1.0, 4.0, 10.0, 30.0)))
STEPS = st.lists(st.one_of(register, deregister, refresh, advance), max_size=30)


def oracle(agent: DirectoryAgent, addr: IPv4Address) -> ServiceEntry | None:
    """Longest prefix over the live entries in registration order; of
    equal lengths the earliest entry wins."""
    best: tuple[int, ServiceEntry] | None = None
    for entry in agent.find(SERVICE_TOPOLOGY):
        for p in entry.attributes["prefixes"]:
            net = IPv4Network(p)
            if addr in net and (best is None or net.prefixlen > best[0]):
                best = (net.prefixlen, entry)
    return None if best is None else best[1]


@settings(max_examples=150, deadline=None)
@given(STEPS)
def test_lookup_is_the_agents_longest_prefix_match(steps):
    clock = _Clock()
    agent = DirectoryAgent(clock)
    directory = CollectorDirectory(agent)
    urls: list[str] = []
    for step in steps:
        kind = step[0]
        if kind == "register":
            _, collector, prefixes, site, lifetime_s = step
            directory.register(collector, prefixes, site, lifetime_s=lifetime_s)
            urls.append(f"{SERVICE_TOPOLOGY}://{site}/{collector.name}")
        elif kind == "deregister" and urls:
            agent.deregister(urls[step[1] % len(urls)])
        elif kind == "refresh" and urls:
            agent.refresh(urls[step[1] % len(urls)], step[2])
        elif kind == "advance":
            clock.now += step[1]
        for addr in PROBES:
            want = oracle(agent, addr)
            if want is None:
                with pytest.raises(UnknownHostError):
                    directory.lookup(addr)
                continue
            got = directory.lookup(addr)
            assert got is want.provider
            assert got.site == want.attributes["site"]
            assert tuple(map(str, got.prefixes)) == want.attributes["prefixes"]
        live = agent.find(SERVICE_TOPOLOGY)
        assert list(map(id, directory.registrations())) == [id(e.provider) for e in live]
        assert directory.sites() == sorted({e.attributes["site"] for e in live})


def test_one_table_until_the_agent_changes(monkeypatch):
    filed: list[object] = []

    class CountingTable(PrefixTable):
        def __init__(self, *args, **kwargs):
            filed.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(directory_mod, "PrefixTable", CountingTable)
    clock = _Clock()
    agent = DirectoryAgent(clock)
    directory = CollectorDirectory(agent)
    directory.register(COLLECTORS[0], ["10.1.0.0/16"], "a")
    reg = directory.register(COLLECTORS[1], ["10.2.0.0/16"], "b")
    directory.register(COLLECTORS[2], ["11.0.0.0/8"], "c", lifetime_s=50.0)
    directory.lookup("10.1.0.1")
    filed.clear()

    finds = []
    real_find = agent.find
    monkeypatch.setattr(agent, "find", lambda *a: finds.append(a) or real_find(*a))
    for i in range(100):
        clock.now += 0.1
        assert directory.lookup(f"10.2.0.{i + 1}") is reg
        directory.benchmark_for("a")
        directory.registrations()
        directory.sites()
    assert filed == [] and finds == []

    # a SrvReg files one table, however many lookups follow it
    directory.register(COLLECTORS[3], ["10.2.7.0/24"], "d")
    for _ in range(10):
        assert directory.lookup("10.2.7.1").site == "d"
        assert directory.lookup("10.2.0.1") is reg
    assert len(filed) == 1

    # the earliest finite lease running out files one more
    assert directory.lookup("11.0.0.1").site == "c"
    clock.now = 60.0
    with pytest.raises(UnknownHostError):
        directory.lookup("11.0.0.1")
    assert directory.lookup("10.2.0.1") is reg
    assert directory.sites() == ["a", "b", "d"]
    assert len(filed) == 2
