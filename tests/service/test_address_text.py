"""An address the service is asked about is read strictly.

A dotted quad whose parts ``int()`` would take but an address does not
spell — ``"10.11.0.10_0"``, a sign, a blank, a non-ASCII digit — is a
``bad_request``, not a live answer about some other host
(``"10.11.0.10_0"`` used to be answered as ``10.11.0.100``).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.deploy import deploy_wan
from repro.netsim.builders import build_random_wan
from repro.service import DirectClient, RemosService, ServiceConfig
from repro.service.client import ServiceError


@pytest.fixture(scope="module")
def service_and_hosts():
    world = build_random_wan(3, seed=1, hosts_per_site=(2, 2))
    service = RemosService.from_deployment(deploy_wan(world), ServiceConfig())
    hosts = [str(world.host(name, j).ip) for name in sorted(world.sites) for j in (0, 1)]
    return service, hosts


def _flow_info(service, src, dst):
    async def go():
        return await DirectClient(service).flow_info(src, dst)

    return asyncio.run(go())


@pytest.mark.parametrize(
    "spell",
    [
        lambda ip: ip + "_0",  # int("10_0") is 100
        lambda ip: " " + ip,
        lambda ip: ip + "\n",
        lambda ip: ip.rsplit(".", 1)[0] + ".+" + ip.rsplit(".", 1)[1],
        lambda ip: ip[:-1] + "١",  # ARABIC-INDIC DIGIT ONE
        lambda ip: ip.rsplit(".", 1)[0] + "." + ip.rsplit(".", 1)[1].zfill(4),
    ],
    ids=["underscore", "blank", "newline", "sign", "non-ascii digit", "four digits"],
)
def test_lax_spelling_is_a_bad_request(service_and_hosts, spell):
    service, hosts = service_and_hosts
    with pytest.raises(ServiceError) as err:
        _flow_info(service, hosts[0], spell(hosts[-1]))
    assert err.value.code == "bad_request"


def test_leading_zeros_still_name_the_host(service_and_hosts):
    service, hosts = service_and_hosts
    dst = hosts[-1]
    padded = ".".join(f"{int(p):03d}" for p in dst.split("."))
    assert _flow_info(service, hosts[0], padded).dst == dst
