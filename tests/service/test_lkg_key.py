"""A request's last-known-good key, made from the text the client has.

``DirectClient.call`` encodes the body once, for its type-guarding
round trip, and hands that text to the service as the query's key.
The key must be byte for byte the one the service makes from the
decoded body, ``_lkg_key(endpoint, json.loads(text))``, or an in-process
request and the same request over HTTP would find different entries.
``json`` sorts keys that are not strings before it writes them as
strings, so such a body (``{9: …, 10: …}``) must take the decoded path.
"""

import asyncio
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import DirectClient
from repro.service.app import RemosService, SessionBackend
from repro.service.wire import canonical_json


class KeyingService(RemosService):
    """Notes the key each dispatched request would be stored under."""

    def __init__(self) -> None:
        super().__init__(SessionBackend(session=None))
        self.seen: list[tuple[dict | None, str | None, str]] = []

    async def dispatch(self, endpoint, body, tenant="anonymous", *, text=None):
        self.seen.append((body, text, self._lkg_key(endpoint, body, text)))
        return {}


def client_key(body) -> tuple[dict | None, str | None, str]:
    """(body, text, key) as ``DirectClient.call`` hands them on."""
    service = KeyingService()
    asyncio.run(DirectClient(service).call("flow_info", body))
    (seen,) = service.seen
    return seen


scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
number_keys = st.integers(-20, 20) | st.floats(allow_nan=False, width=16)


def dicts(values):
    return st.dictionaries(st.text(max_size=4), values, max_size=4) | st.dictionaries(
        number_keys, values, max_size=4
    )


wire_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4) | dicts(inner), max_leaves=12
)


@settings(max_examples=300, deadline=None)
@given(body=dicts(wire_values))
@example(body={9: "a", 10: "b"})
@example(body={"own_flows": [[1.5, float("nan"), float("inf"), -float("inf")]]})
@example(body={"src": "10.0.0.1", "nested": {9: 1, 10: 2}})
@example(body={"src": "a{b", "dst": "c"})
@example(body={})
def test_the_client_key_is_the_decoded_body_key(body):
    text = canonical_json(body)
    _, _, key = client_key(body)
    assert key == KeyingService()._lkg_key("flow_info", json.loads(text))


def test_a_request_body_is_keyed_by_the_client_text_and_not_decoded():
    """The path every endpoint's own bodies take: the service gets the
    text and no body, so a shed answer neither encodes nor decodes."""
    body = {"src": "10.0.0.1", "dst": "10.0.0.2", "predict": True, "horizon_steps": 3}
    seen_body, text, key = client_key(body)
    assert (seen_body, text) == (None, canonical_json(body))
    assert key == f"flow_info:{text}"


def test_a_body_with_number_keys_is_decoded_first():
    """``{9: …, 10: …}`` encodes as ``{"9":…,"10":…}``, which decodes to
    a body whose text puts ``"10"`` first: the client hands the service
    that decoded body, and the service keys it."""
    seen_body, text, key = client_key({9: "a", 10: "b"})
    assert (seen_body, text) == ({"9": "a", "10": "b"}, None)
    assert key == 'flow_info:{"10":"b","9":"a"}'
