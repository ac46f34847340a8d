"""Shared fixtures for the whole test suite.

The centrepiece is :func:`random_wan` — a factory around
:func:`repro.netsim.builders.build_random_wan` that grows seeded random
WANs at the scale the paper never reached (hundreds of sites).  Tests
take the factory rather than a prebuilt world because most of them
mutate the network (flows, faults, mobility): every call returns a
fresh, deterministic world for its seed.
"""

from __future__ import annotations

import pytest

from repro.netsim.builders import RandomWanWorld, build_random_wan


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
