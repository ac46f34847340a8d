"""A repeated answer is encoded once — seen from the service.

``RemosService`` hands single answers to the last-known-good store as
:class:`~repro.service.wire.AnswerRecord`; an answer that says what the
entry it replaces said takes that entry's canonical text over, and
``canonical_json`` splices it around this request's ``trace_id``.
These tests run under a live registry — the case ``repro serve`` is in,
where every answer carries its own trace id — and hold the result to
``json.dumps`` byte for byte.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.common.units import MBPS
from repro.deploy import deploy_lan
from repro.netsim.builders import build_switched_lan
from repro.service import RemosService, ServiceConfig
from repro.service.wire import AnswerRecord, canonical_json, result_body


def plain_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def make_service(ttl_s: float = 30.0, **config):
    lan = build_switched_lan(8, fanout=4)
    dep = deploy_lan(lan)
    lan.net.engine.run_until(lan.net.now + 10.0)
    dep.modeler.query_cache_ttl_s = ttl_s
    config = ServiceConfig(rate=1e6, burst=1e6, **config)
    service = RemosService.from_deployment(dep, config)
    hosts = [str(h.ip) for h in lan.hosts]
    bodies = {
        "flow_info": {"src": hosts[0], "dst": hosts[5]},
        "topology": {"hosts": hosts[:4]},
    }
    return lan, dep, service, bodies


def texts(reg) -> tuple[int, int]:
    """(reused, encoded) counts of ``service.wire.answer_text``."""
    counters = obs.export.snapshot(reg)["counters"]
    return (
        counters.get("service.wire.answer_text{result=reused}", 0),
        counters.get("service.wire.answer_text{result=encoded}", 0),
    )


def ask(service, endpoint, body, times):
    """``times`` requests in a row, each serialized as the edge would:
    [(envelope, canonical text)]."""

    async def run():
        out = []
        for _ in range(times):
            env = await service.dispatch(endpoint, dict(body))
            out.append((env, canonical_json(env)))
        return out

    return asyncio.run(run())


ENDPOINTS = ["flow_info", "topology"]


@pytest.mark.parametrize("endpoint", ENDPOINTS)
class TestRepeatedAnswers:
    def test_second_identical_call_is_spliced_around_its_own_trace_id(self, endpoint):
        _, _, service, bodies = make_service()
        with obs.scoped_registry() as reg:
            (env1, text1), (env2, text2) = ask(service, endpoint, bodies[endpoint], 2)
            assert texts(reg) == (1, 1)
        assert type(env2["result"]) is AnswerRecord
        assert env2["result"].encoded is env1["result"].encoded
        assert (text1, text2) == (plain_json(env1), plain_json(env2))
        tid1, tid2 = env1["result"]["trace_id"], env2["result"]["trace_id"]
        assert tid1 and tid2 and tid1 != tid2
        assert json.loads(text2)["result"]["trace_id"] == tid2
        assert text1.replace(json.dumps(tid1), json.dumps(tid2)) == text2

    def test_a_warm_service_reuses_nearly_every_answer(self, endpoint):
        """The count the change rests on: of 200 repeated requests under
        a live registry at least 198 are served from kept text, each
        under its own trace id."""
        _, _, service, bodies = make_service()
        with obs.scoped_registry() as reg:
            served = ask(service, endpoint, bodies[endpoint], 200)
            reused, encoded = texts(reg)
        assert reused >= 198 and reused + encoded == 200
        assert len({env["result"]["trace_id"] for env, _ in served}) == 200
        assert all(text == plain_json(env) for env, text in served)

    def test_untraced_answers_are_reused_too(self, endpoint):
        _, _, service, bodies = make_service()
        (env1, text1), (env2, text2) = ask(service, endpoint, bodies[endpoint], 2)
        assert env1["result"]["trace_id"] is None
        assert env2["result"].encoded is env1["result"].encoded
        assert text1 == text2 == plain_json(env2)

    def test_nothing_is_reused_across_an_invalidate(self, endpoint):
        _, _, service, bodies = make_service()

        async def run():
            env1 = await service.dispatch(endpoint, dict(bodies[endpoint]))
            canonical_json(env1)
            await service.dispatch("invalidate", {})
            assert len(service.lkg) == 0
            env2 = await service.dispatch(endpoint, dict(bodies[endpoint]))
            return env1, env2, canonical_json(env2)

        with obs.scoped_registry() as reg:
            env1, env2, text2 = asyncio.run(run())
            assert texts(reg) == (0, 2)
        assert env2["result"].encoded is not env1["result"].encoded
        assert text2 == plain_json(env2)

    def test_a_changed_answer_after_a_ttl_lapse_is_encoded_whole(self, endpoint):
        lan, dep, service, bodies = make_service(ttl_s=2.0)
        dep.start_monitoring()
        with obs.scoped_registry() as reg:
            ((env1, text1),) = ask(service, endpoint, bodies[endpoint], 1)
            lan.net.flows.start_flow(lan.hosts[0], lan.hosts[5], demand_bps=25 * MBPS)
            lan.net.engine.run_until(lan.net.now + 30.0)
            ((env2, text2),) = ask(service, endpoint, bodies[endpoint], 1)
            assert texts(reg) == (0, 2)
        without_tid = lambda env: {k: v for k, v in env["result"].items() if k != "trace_id"}
        assert without_tid(env1) != without_tid(env2)  # the new load shows
        assert (text1, text2) == (plain_json(env1), plain_json(env2))


class TestWhatIsNeverReused:
    def test_failed_answers_are_neither_stored_nor_reused(self):
        _, _, service, _ = make_service()
        body = {"src": "10.99.0.1", "dst": "10.99.0.2"}  # no collector covers these
        with obs.scoped_registry() as reg:
            served = ask(service, "flow_info", body, 2)
            assert texts(reg) == (0, 2)
        assert len(service.lkg) == 0
        assert all(env["result"]["status"] == "failed" for env, _ in served)
        assert all(text == plain_json(env) for env, text in served)

    def test_lists_of_answers_stay_plain(self):
        _, _, service, bodies = make_service()
        hosts = bodies["topology"]["hosts"]
        with obs.scoped_registry() as reg:
            served = ask(service, "node_info", {"hosts": hosts[:2]}, 2)
            served += ask(service, "flow_info_many", {"pairs": [hosts[:2], hosts[2:4]]}, 2)
            assert texts(reg) == (0, 0)
        for env, text in served:
            assert [type(a) for a in env["result"]] == [dict, dict]
            assert text == plain_json(env)

    def test_a_shed_answer_is_a_plain_restamped_copy(self):
        """``serve_stale`` never edits the record it copies from, and the
        copy is encoded as any dict is: status, age and ``served`` are
        what they were before records existed."""
        _, _, service, bodies = make_service(max_inflight=1)
        body = bodies["flow_info"]
        ((live, live_text),) = ask(service, "flow_info", body, 1)
        record = live["result"]
        kept = (dict(record), record.encoded)

        assert service.admission.try_admit()  # hold the only slot
        with obs.scoped_registry() as reg:
            ((shed, shed_text),) = ask(service, "flow_info", body, 1)
            assert texts(reg) == (0, 0)
        service.admission.release()

        assert shed["served"] == "shed_lkg" and type(shed["result"]) is dict
        assert shed["result"]["status"] == "stale" and record["status"] == "ok"
        assert shed["result"]["data_age_s"] >= record["data_age_s"]
        assert shed_text == plain_json(shed)
        assert (dict(record), record.encoded) == kept
        assert canonical_json(result_body(record)) == live_text

    def test_in_process_callers_never_build_the_text(self):
        from repro.service import DirectClient

        _, _, service, bodies = make_service()

        async def run():
            client = DirectClient(service)
            for _ in range(3):
                await client.flow_info(**bodies["flow_info"])
            (_, record), = service.lkg._entries.values()
            return record

        with obs.scoped_registry() as reg:
            record = asyncio.run(run())
            assert texts(reg) == (0, 0)
        assert type(record) is AnswerRecord and record.encoded is None
