"""The catalogue check every test runs under (``tests/conftest.py``).

The catalogue is the tables of ``docs/observability.md``.  Code is
planted as module ``repro.planted`` with ``exec``, so the check sees a
``repro`` call site without a file under ``src/``.
"""

from repro import obs


def plant(code: str, **names: object) -> None:
    exec(code, {"__name__": "repro.planted", "obs": obs, **names})


def test_uncatalogued_metric_from_repro_code_is_noted(catalogued_names_only):
    with obs.scoped_registry():
        plant('obs.counter("planted.metric").inc()')
    # attributed past repro.obs's forwarding helper, to the caller
    assert catalogued_names_only == ["counter('planted.metric') at repro.planted:1"]
    catalogued_names_only.clear()


def test_span_through_a_registry_handle_is_noted(catalogued_names_only):
    with obs.scoped_registry() as reg:
        plant('with reg.span("planted.span"):\n    pass', reg=reg)
    assert catalogued_names_only == ["span('planted.span') at repro.planted:1"]
    catalogued_names_only.clear()


def test_f_string_names_are_checked(catalogued_names_only):
    with obs.scoped_registry():
        plant('kind = "sharded"\nobs.histogram(f"collectors.{kind}.fanout").observe(1)')
        plant('kind = "typo"\nobs.histogram(f"collectors.{kind}.fanout").observe(1)')
    assert catalogued_names_only == [
        "histogram('collectors.typo.fanout') at repro.planted:2"
    ]
    catalogued_names_only.clear()


def test_a_catalogued_name_recorded_as_another_kind_is_noted(catalogued_names_only):
    with obs.scoped_registry():
        plant('obs.gauge("collectors.sharded.fanout").set(1)')
        plant('obs.counter("session.topology").inc()')
    assert catalogued_names_only == [
        "gauge('collectors.sharded.fanout') at repro.planted:1",
        "counter('session.topology') at repro.planted:1",
    ]
    catalogued_names_only.clear()


def test_the_catalogue_has_every_kind_and_each_name_once(metric_catalogue):
    """A reformatted docs table must not silently empty a kind, and no
    name may be documented as two kinds."""
    assert sorted(metric_catalogue) == ["counter", "gauge", "histogram", "span"]
    assert all(metric_catalogue.values())
    listed = [name for names in metric_catalogue.values() for name in names]
    assert len(listed) == len(set(listed))


def test_catalogued_names_pass(catalogued_names_only):
    with obs.scoped_registry():
        plant('obs.counter("snmp.client.pdus", op="get").inc()')
        plant('with obs.span("session.flow_info"):\n    pass')
    assert catalogued_names_only == []


def test_names_a_test_records_itself_are_exempt(catalogued_names_only):
    with obs.scoped_registry():
        obs.counter("x.y").inc()
        with obs.span("a"):
            pass
    assert catalogued_names_only == []


def test_the_no_op_registry_is_not_checked(catalogued_names_only):
    plant('obs.counter("planted.metric").inc()')
    assert catalogued_names_only == []
