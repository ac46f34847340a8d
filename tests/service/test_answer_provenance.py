"""A reused answer text is the text of the answer the session gave.

``RemosService`` serves a single answer as the record stored for its
query, restamped with the new ``trace_id``, when both answers come
from the same memoized fetch (``Answer.basis``); it then neither
builds nor encodes the answer.  This property drives a deployed world
through generated sequences of clock steps (inside the query TTL, past
it, across SNMP polls), invalidations, link failures and repairs, and
queries of every detail level with and without prediction.  For every
live single answer it holds the served text to ``json.dumps`` of the
``Answer`` object the session returned for that request, byte for
byte, ``trace_id`` included — so a record reused where the answer
moved on, or kept under an old trace id, fails it.
"""

import asyncio
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.units import MBPS
from repro.deploy import deploy_wan
from repro.netsim.builders import SiteSpec, build_multisite_wan
from repro.netsim.failures import fail_link, repair_link
from repro.rps.service import RpsPredictionService
from repro.service import RemosService, ServiceConfig
from repro.service.wire import canonical_json

#: longer than any one generated run of small steps, shorter than a
#: run with a long step in it
TTL_S = 30.0


def build_world():
    """Two sites polled every 2 s, with a prediction service and a
    flow on each site's LAN, warmed so predictions have history."""
    w = build_multisite_wan(
        [
            SiteSpec("a", access_bps=10 * MBPS, n_hosts=3),
            SiteSpec("b", access_bps=60 * MBPS, n_hosts=3),
        ]
    )
    dep = deploy_wan(w, poll_interval_s=2.0)
    dep.modeler.query_cache_ttl_s = TTL_S
    dep.modeler.prediction_service = RpsPredictionService("AR(4)")
    w.net.flows.start_flow(w.host("a", 2), w.host("a", 1), demand_bps=30 * MBPS)
    w.net.flows.start_flow(w.host("a", 0), w.host("b", 0), demand_bps=3 * MBPS)
    dep.session().topology([str(h.ip) for s in "ab" for h in w.sites[s].hosts])
    dep.start_monitoring()
    w.net.engine.run_until(w.net.now + 40.0)
    return w, dep


def links(w):
    """The links a step may fail: site b's access link and host a1's."""
    access = next(
        l for l in w.net.links if {l.a.device, l.b.device} == {w.sites["b"].router, w.core}
    )
    host = next(l for l in w.net.links if w.host("a", 1) in (l.a.device, l.b.device))
    return {"access_b": access, "host_a1": host}


def bodies(w):
    ip = lambda site, i: str(w.host(site, i).ip)
    flows = [{"src": ip("a", 0), "dst": ip("a", 1)}, {"src": ip("a", 0), "dst": ip("b", 1)}]
    hosts = [[ip("a", 0), ip("a", 1)], [ip("a", 0), ip("b", 0), ip("b", 1)]]
    return flows, hosts


queries = st.one_of(
    st.tuples(st.just("flow_info"), st.integers(0, 1), st.booleans()),
    st.tuples(st.just("topology"), st.integers(0, 1), st.sampled_from(["raw", "simplified", "summary"])),
)
#: a program asks from a menu of a few queries, so that most are asked
#: again — only a repeated query can be served a kept text
programs = st.tuples(
    st.lists(queries, min_size=1, max_size=3, unique=True),
    st.lists(
        st.one_of(
            st.tuples(st.just("advance"), st.sampled_from([0.5, 1.5, 2.5, 7.0, 29.0, 31.0, 45.0])),
            st.tuples(st.just("invalidate"), st.sampled_from([None, "a", "b"])),
            st.tuples(st.sampled_from(["fail", "repair"]), st.sampled_from(["access_b", "host_a1"])),
            st.tuples(st.just("ask"), st.integers(0, 2)),
            st.tuples(st.just("ask"), st.integers(0, 2)),
        ),
        min_size=4,
        max_size=24,
    ),
)


def spy_on(session):
    """Keep the answer object behind every flow and topology call."""
    answers = []
    for name in ("flow_info", "topology"):
        real = getattr(session, name)

        def spy(*args, _real=real, **kwargs):
            answers.append(_real(*args, **kwargs))
            return answers[-1]

        setattr(session, name, spy)
    return answers


@settings(max_examples=100, deadline=None)
@given(programs)
# a forecast moves between two polls inside the TTL
@example(([("flow_info", 0, True)], [("ask", 0), ("advance", 2.5), ("ask", 0)]))
# a new fetch after the TTL says something new under the same query
@example(
    (
        [("flow_info", 1, False), ("topology", 1, "simplified")],
        [("ask", 0), ("ask", 1), ("advance", 31.0), ("ask", 0), ("ask", 1)],
    )
)
def test_every_served_text_is_the_answer_the_session_gave(program):
    menu, steps = program
    w, dep = build_world()
    service = RemosService.from_deployment(dep, ServiceConfig(rate=1e6, burst=1e6))
    answers = spy_on(service.backend.session)
    flows, hosts = bodies(w)
    failable = links(w)
    with obs.scoped_registry():
        for kind, arg in steps:
            if kind == "advance":
                w.net.engine.run_until(w.net.now + arg)
            elif kind == "invalidate":
                body = {} if arg is None else {"sites": [arg]}
                asyncio.run(service.dispatch("invalidate", body))
            elif kind == "fail":
                if failable[arg] in w.net.links:
                    fail_link(w.net, failable[arg])
            elif kind == "repair":
                repair_link(w.net, failable[arg])
            else:
                endpoint, which, variant = menu[arg % len(menu)]
                if endpoint == "flow_info":
                    body = {**flows[which], "predict": variant}
                else:
                    body = {"hosts": hosts[which], "detail": variant}
                asked = len(answers)
                env = asyncio.run(service.dispatch(endpoint, body))
                canonical_json(env)  # what the edge sends; keeps the text
                if env["served"] != "live":
                    continue
                assert len(answers) == asked + 1
                want = json.dumps(answers[-1].to_dict(), sort_keys=True, separators=(",", ":"))
                assert canonical_json(env["result"]) == want
