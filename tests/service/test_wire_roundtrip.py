"""Wire schema v1: lossless round-trip, byte-identical re-serialization.

The service's equivalence guarantee ("the wire returns the same Answer
as an in-process call") rests on two properties of the
``to_dict``/``from_dict`` family, proven here over generated answers:

* **lossless** — ``from_dict(to_dict(a))`` reconstructs an equal
  answer (same dataclass, same field values, tuples stay tuples);
* **canonical** — serializing an answer, reconstructing it, and
  serializing again yields *byte-identical* JSON under
  ``canonical_json``, so responses can be compared and cached as raw
  bytes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.status import QueryStatus, SiteStatus
from repro.modeler.api import FlowAnswer, NodeAnswer, TopologyAnswer, Answer
from repro.modeler.graph import (
    CLOUD,
    HOST,
    ROUTER,
    SWITCH,
    TopoEdge,
    TopoNode,
    TopologyGraph,
)
from repro.service.admission import LastKnownGoodStore
from repro.service.wire import AnswerRecord, canonical_json, result_body

# -- strategies --------------------------------------------------------

names = st.text(alphabet="abcdefgh0123", min_size=1, max_size=8)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
nonneg = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, width=64)
capacity = st.one_of(st.just(math.inf), nonneg)
statuses = st.sampled_from(list(QueryStatus))
opt_float = st.one_of(st.none(), finite)
trace_ids = st.one_of(st.none(), st.from_regex(r"t[0-9]{4}", fullmatch=True))
provenances = st.lists(names, max_size=4, unique=True).map(tuple)


site_statuses = st.builds(
    SiteStatus,
    site=names,
    status=statuses,
    detail=st.text(max_size=20),
    data_age_s=nonneg,
    attempts=st.integers(min_value=1, max_value=5),
)

flow_answers = st.builds(
    FlowAnswer,
    src=names,
    dst=names,
    available_bps=nonneg,
    bottleneck_bps=nonneg,
    capacity_bps=capacity,
    latency_s=nonneg,
    jitter_s=nonneg,
    path=st.lists(names, max_size=5).map(tuple),
    predicted_bps=opt_float,
    predicted_var=opt_float,
    status=statuses,
    data_age_s=nonneg,
    provenance=provenances,
    trace_id=trace_ids,
)

node_answers = st.builds(
    NodeAnswer,
    ip=names,
    load=opt_float,
    predicted_load=opt_float,
    predicted_var=opt_float,
    status=statuses,
    data_age_s=nonneg,
    provenance=provenances,
    trace_id=trace_ids,
)


@st.composite
def topology_graphs(draw):
    graph = TopologyGraph()
    node_ids = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    kinds = st.sampled_from([HOST, ROUTER, SWITCH, CLOUD])
    for nid in node_ids:
        ips = tuple(draw(st.lists(names, max_size=2, unique=True)))
        graph.add_node(TopoNode(nid, draw(kinds), ips))
    pairs = [
        (a, b) for i, a in enumerate(node_ids) for b in node_ids[i + 1 :]
    ]
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True)) if pairs else []:
        graph.add_edge(
            TopoEdge(
                a,
                b,
                capacity_bps=draw(capacity),
                util_ab_bps=draw(nonneg),
                util_ba_bps=draw(nonneg),
                latency_s=draw(nonneg),
                jitter_s=draw(nonneg),
            )
        )
    return graph


topology_answers = st.builds(
    TopologyAnswer,
    graph=topology_graphs(),
    unresolved=st.lists(names, max_size=3, unique=True).map(tuple),
    site_status=st.dictionaries(names, site_statuses, max_size=3),
    status=statuses,
    data_age_s=nonneg,
    provenance=provenances,
    trace_id=trace_ids,
)

answers = st.one_of(flow_answers, node_answers, topology_answers)


# -- the two load-bearing properties -----------------------------------


class TestLosslessRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(answers)
    def test_from_dict_inverts_to_dict(self, ans):
        back = Answer.from_dict(ans.to_dict())
        assert type(back) is type(ans)
        if isinstance(ans, TopologyAnswer):
            # graphs compare by content, not identity
            assert back.graph.to_dict() == ans.graph.to_dict()
            assert back.unresolved == ans.unresolved
            assert back.site_status == ans.site_status
            assert (back.status, back.data_age_s) == (ans.status, ans.data_age_s)
            assert (back.provenance, back.trace_id) == (ans.provenance, ans.trace_id)
        else:
            assert back == ans

    @settings(max_examples=150, deadline=None)
    @given(answers)
    def test_tuples_stay_tuples(self, ans):
        back = Answer.from_dict(ans.to_dict())
        assert isinstance(back.provenance, tuple)
        if isinstance(back, FlowAnswer):
            assert isinstance(back.path, tuple)
        if isinstance(back, TopologyAnswer):
            assert isinstance(back.unresolved, tuple)


class TestByteIdenticalReserialization:
    @settings(max_examples=150, deadline=None)
    @given(answers)
    def test_canonical_bytes_survive_round_trip(self, ans):
        first = canonical_json(ans.to_dict())
        again = canonical_json(Answer.from_dict(ans.to_dict()).to_dict())
        assert first == again

    @settings(max_examples=50, deadline=None)
    @given(answers)
    def test_serialization_is_deterministic(self, ans):
        assert canonical_json(ans.to_dict()) == canonical_json(ans.to_dict())


def plain_json(obj) -> str:
    """What ``canonical_json`` was before it learned to splice."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


#: text that looks like the JSON around a spliced graph
json_lookalikes = st.sampled_from(
    ['"graph":null', '{"graph":{"edges":[],"nodes":[]}}', '","graph":', "\\", '\u0000"}']
)
tricky_text = st.one_of(names, json_lookalikes, st.text(max_size=12))

tricky_topology_answers = st.builds(
    TopologyAnswer,
    graph=topology_graphs().map(TopologyGraph.freeze),
    unresolved=st.lists(tricky_text, max_size=3, unique=True).map(tuple),
    site_status=st.dictionaries(
        tricky_text,
        st.builds(
            SiteStatus,
            site=tricky_text,
            status=statuses,
            detail=tricky_text,
            data_age_s=nonneg,
            attempts=st.integers(min_value=1, max_value=5),
        ),
        max_size=3,
    ),
    status=statuses,
    data_age_s=nonneg,
    provenance=st.lists(tricky_text, max_size=4, unique=True).map(tuple),
    trace_id=st.one_of(trace_ids, json_lookalikes),
)


class TestSplicedEncodingIsPlainJson:
    """``canonical_json`` reuses the encoding kept on a graph record;
    its output must stay exactly what ``json.dumps`` gives."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(answers, tricky_topology_answers), st.sampled_from(["live", "shed_lkg"]))
    def test_envelope_and_bare_answer(self, ans, served):
        for obj in (ans.to_dict(), result_body(ans, served=served), [ans.to_dict()]):
            want = plain_json(obj)
            assert canonical_json(obj) == want
            assert canonical_json(obj) == want  # now from the kept text

    @settings(max_examples=100, deadline=None)
    @given(tricky_topology_answers, trace_ids, nonneg)
    def test_per_request_fields_are_never_cached(self, ans, trace_id, age):
        """One frozen view, many answers: each carries its own trace
        id, age and status around the shared record."""
        first = canonical_json(result_body(ans))
        later = TopologyAnswer(
            ans.graph, status=QueryStatus.STALE, data_age_s=age, trace_id=trace_id
        )
        assert later.to_dict()["graph"] is ans.to_dict()["graph"]
        assert canonical_json(result_body(later)) == plain_json(result_body(later))
        assert canonical_json(result_body(ans)) == first

    @settings(max_examples=50, deadline=None)
    @given(tricky_topology_answers)
    def test_lkg_restamp_reuses_the_record(self, ans):
        ans.status = QueryStatus.OK
        store = LastKnownGoodStore(clock=iter([10.0, 12.5]).__next__)
        live = ans.to_dict()
        canonical_json(result_body(live))
        assert store.store("k", live)
        shed = store.serve_stale("k")
        assert shed["graph"] is live["graph"]
        assert shed["status"] == QueryStatus.STALE.to_dict()
        assert shed["data_age_s"] == ans.data_age_s + 2.5
        body = result_body(shed, served="shed_lkg")
        assert canonical_json(body) == plain_json(body)

    def test_record_is_encoded_once(self):
        graph = TopologyGraph()
        graph.add_node(TopoNode("a", HOST, ("a",)))
        graph.add_node(TopoNode("b", HOST))
        graph.add_edge(TopoEdge("a", "b"))  # inf capacity
        record = graph.freeze().to_dict()
        assert record.encoded is None
        canonical_json(result_body(TopologyAnswer(graph)))
        assert record.encoded == plain_json(record)
        assert "Infinity" in record.encoded
        # the kept text is what gets spliced from now on
        record.encoded = '"spliced"'
        assert '"graph":"spliced"' in canonical_json(result_body(TopologyAnswer(graph)))

    def test_non_string_keys_fall_back_to_plain_encoding(self):
        record = TopologyGraph().freeze().to_dict()
        for obj in ({2: record, 1: "x"}, {"result": {2: record, 1: record}}):
            assert canonical_json(obj) == plain_json(obj)
        with pytest.raises(TypeError):  # as json.dumps does on keys it cannot order
            canonical_json({1: "x", "graph": record})


#: values ``==`` takes for one another and JSON does not
near_equal = st.sampled_from(
    [1, 1.0, True, 0, 0.0, -0.0, False, np.float64(1.0), np.float64(0.0)]
)
tricky_trace_ids = st.one_of(trace_ids, tricky_text)


@st.composite
def store_sequences(draw):
    """Payloads stored one after another under one query key: mostly
    the same answer again under another ``trace_id`` — what a warm
    service sees — with the neighbours a loose comparison would take
    for it mixed in."""
    base = draw(st.one_of(answers, tricky_topology_answers))
    payloads = []
    while len(payloads) < draw(st.integers(min_value=2, max_value=6)):
        d = base.to_dict()  # fresh containers; a frozen graph hands out its one record
        edit = draw(
            st.sampled_from(["same", "same", "same", "age", "retyped", "status", "regraphed", "other"])
        )
        if edit == "age":
            d["data_age_s"] = draw(nonneg)
        elif edit == "status":
            d["status"] = draw(statuses).to_dict()
        elif edit == "regraphed" and "graph" in d:
            d["graph"] = TopologyGraph.from_dict(d["graph"]).freeze().to_dict()
        elif edit == "other":
            d = draw(answers).to_dict()
        # "retyped": the same answer three times, equal under == each time
        ages = draw(st.lists(near_equal, min_size=3, max_size=3)) if edit == "retyped" else [d["data_age_s"]]
        payloads += [{**d, "data_age_s": age, "trace_id": draw(tricky_trace_ids)} for age in ages]
    return payloads


def flow_record(**fields) -> AnswerRecord:
    ans = FlowAnswer(src="a", dst="b", available_bps=1.0, bottleneck_bps=1.0,
                     capacity_bps=1.0, latency_s=0.0, jitter_s=0.0, path=("a", "b"))
    return AnswerRecord({**ans.to_dict(), **fields})


class TestRepeatedAnswerIsSplicedExactly:
    """A record restamped under another ``trace_id`` carries the text of
    the one it was made from; whatever the store holds, the encoding
    stays exactly what ``json.dumps`` gives."""

    @settings(max_examples=200, deadline=None)
    @given(store_sequences(), st.sampled_from(["live", "shed_lkg"]))
    def test_any_sequence_of_stores_encodes_as_plain_json(self, payloads, served):
        store = LastKnownGoodStore()
        for d in payloads:
            stored = AnswerRecord(d)
            store.store("k", stored)  # a FAILED one is refused; it is still served
            body = result_body(stored, served=served)
            want = plain_json(body)
            assert canonical_json(body) == want  # first encode
            assert canonical_json(body) == want  # reuse
            assert canonical_json(stored) == plain_json(d)
            shed = store.serve_stale("k")
            if shed is not None:  # nothing yet when every answer so far was FAILED
                assert type(shed) is dict and shed["status"] != "failed"
                shed_body = result_body(shed, served="shed_lkg")
                assert canonical_json(shed_body) == plain_json(shed_body)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(answers, tricky_topology_answers), tricky_trace_ids, tricky_trace_ids)
    def test_a_repeat_takes_the_text_over_and_keeps_its_own_trace_id(self, ans, tid1, tid2):
        first = AnswerRecord({**ans.to_dict(), "trace_id": tid1}, basis=7)
        first_text = canonical_json(result_body(first))
        again = first.restamped(tid2)
        assert type(again) is AnswerRecord and again.basis == 7
        assert again.encoded is first.encoded is not None
        assert dict(again) == {**ans.to_dict(), "trace_id": tid2}
        assert json.loads(canonical_json(result_body(again)))["result"]["trace_id"] == tid2
        assert canonical_json(result_body(again)) == plain_json(result_body(again))
        # the record it was made from is not edited
        assert first["trace_id"] == tid1
        assert canonical_json(result_body(first)) == first_text

    @pytest.mark.parametrize(
        "values", [(1, 1.0, True), (0, 0.0, -0.0, False), (1.0, np.float64(1.0), 1.0)]
    )
    def test_near_equal_neighbours_are_not_taken_for_each_other(self, values):
        store = LastKnownGoodStore()
        seen = []
        for v in values:
            stored = flow_record(available_bps=v)
            assert store.store("k", stored)
            assert stored.encoded is None
            assert canonical_json(stored) == plain_json(dict(stored))
            seen.append(canonical_json(result_body(stored)))
        assert len(set(seen)) == len({plain_json(v) for v in values})

    def test_nothing_is_taken_over_from_a_record_never_serialized(self):
        """In-process callers never ask for the text: a record restamped
        before its source was encoded carries none, encodes itself
        whole, and leaves its source without text."""
        first = flow_record()
        again = first.restamped("t0002")
        assert again.encoded is None
        assert canonical_json(again) == plain_json(dict(again))
        assert again.encoded is not None and first.encoded is None

    def test_lists_of_answers_and_shed_copies_stay_plain(self):
        store = LastKnownGoodStore(clock=iter([1.0, 2.0, 3.0, 4.0]).__next__)
        many = [dict(flow_record()), dict(flow_record(src="c"))]
        store.store("many", many)
        assert canonical_json(result_body(many)) == plain_json(result_body(many))
        one = flow_record()
        store.store("one", one)
        text = canonical_json(result_body(one))
        shed = store.serve_stale("one")
        assert type(shed) is dict and shed["status"] == "stale" and shed["data_age_s"] == 1.0
        # the stored record was not edited, nor was its text
        assert one["status"] == "ok" and one["data_age_s"] == 0.0
        assert canonical_json(result_body(one)) == text

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            tricky_text,
            st.one_of(finite, tricky_text, st.dictionaries(st.just("trace_id"), tricky_text)),
            max_size=6,
        ),
        tricky_trace_ids,
        tricky_trace_ids,
    )
    def test_a_record_of_any_members_is_cut_around_its_own_trace_id(self, members, tid1, tid2):
        """Keys sorting before and after ``trace_id``, look-alike keys one
        level down: the halves kept by the one-pass first encode are the
        text before and after the top-level ``trace_id`` value."""
        first = AnswerRecord({**members, "trace_id": tid1})
        assert canonical_json(first) == plain_json(dict(first))
        head, tail = first.encoded
        assert head.endswith('"trace_id":') and head + plain_json(tid1) + tail == plain_json(dict(first))
        again = first.restamped(tid2)  # what the service serves for the same answer
        assert canonical_json(again) == plain_json({**members, "trace_id": tid2})

    def test_a_record_without_a_trace_id_is_encoded_as_a_plain_dict(self):
        record = AnswerRecord({"b": 1, "a": [1.0]})
        assert canonical_json(record) == plain_json({"a": [1.0], "b": 1})
        assert record.encoded is None


class TestScalarWireForms:
    @given(statuses)
    def test_query_status_round_trips(self, status):
        assert QueryStatus.from_dict(status.to_dict()) is status

    @settings(deadline=None)
    @given(site_statuses)
    def test_site_status_round_trips(self, ss):
        assert SiteStatus.from_dict(ss.to_dict()) == ss

    @settings(deadline=None)
    @given(topology_graphs())
    def test_graph_round_trips_bytes(self, graph):
        d = graph.to_dict()
        assert TopologyGraph.from_dict(d).to_dict() == d
        assert canonical_json(TopologyGraph.from_dict(d).to_dict()) == canonical_json(d)


class TestSchemaDiscipline:
    def test_unknown_schema_rejected(self):
        d = FlowAnswer(src="a", dst="b", available_bps=1.0, bottleneck_bps=1.0,
                       capacity_bps=1.0, latency_s=0.0, jitter_s=0.0, path=()).to_dict()
        d["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            Answer.from_dict(d)

    def test_unknown_kind_rejected(self):
        d = NodeAnswer(ip="a", load=None).to_dict()
        d["kind"] = "martian"
        with pytest.raises(ValueError, match="kind"):
            Answer.from_dict(d)

    def test_kind_discriminators_are_stable(self):
        # wire compatibility: these strings are the v1 contract
        assert FlowAnswer.KIND == "flow"
        assert NodeAnswer.KIND == "node"
        assert TopologyAnswer.KIND == "topology"
        assert Answer.from_dict(NodeAnswer(ip="x", load=2.5).to_dict()).load == 2.5

    def test_infinite_capacity_survives_the_wire(self):
        import json

        ans = FlowAnswer(src="a", dst="b", available_bps=1.0, bottleneck_bps=1.0,
                         capacity_bps=math.inf, latency_s=0.0, jitter_s=0.0, path=())
        over_wire = json.loads(canonical_json(ans.to_dict()))
        assert Answer.from_dict(over_wire).capacity_bps == math.inf
