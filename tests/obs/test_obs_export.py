"""Tests for the JSON and Prometheus exporters."""

import json
import math
import re

from repro.obs import export
from repro.obs.registry import MetricsRegistry
from repro.obs.timebase import FixedTimebase

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_RE = re.compile(r'(?P<k>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<v>(?:[^"\\]|\\.)*)"')


def _unescape_label_value(v: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(v):
        ch = v[i]
        if ch == "\\" and i + 1 < len(v):
            nxt = v[i + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def parse_prometheus(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse Prometheus text format back into {(name, labels): value}.

    Supports the subset :func:`repro.obs.export.to_prometheus` emits
    (which is the standard sample syntax), so
    ``parse_prometheus(to_prometheus(r))`` recovers every exported
    sample, escaped label values included.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise ValueError(f"unparseable sample line: {line!r}")
        labels = tuple(
            (lm.group("k"), _unescape_label_value(lm.group("v")))
            for lm in _LABEL_RE.finditer(m.group("labels") or "")
        )
        # float() reads "+Inf", "-Inf" and "NaN" as the exposition means them
        out[(m.group("name"), labels)] = float(m.group("value"))
    return out


def populated_registry() -> MetricsRegistry:
    clock = FixedTimebase()
    reg = MetricsRegistry(clock=clock)
    reg.counter("snmp.client.pdus", op="get").inc(7)
    reg.counter("snmp.client.pdus", op="getnext").inc(3)
    reg.gauge("netsim.engine.queue_depth").set(4)
    for v in (0.1, 0.2, 0.3):
        reg.histogram("rps.fit.wall_s", spec="AR(16)").observe(v)
    with reg.span("modeler.flow_query"):
        clock.advance(1.5)
    return reg


class TestSnapshot:
    def test_snapshot_structure(self):
        snap = export.snapshot(populated_registry())
        assert snap["counters"]["snmp.client.pdus{op=get}"] == 7.0
        assert snap["gauges"]["netsim.engine.queue_depth"] == 4.0
        h = snap["histograms"]["rps.fit.wall_s{spec=AR(16)}"]
        assert h["count"] == 3
        assert h["mean"] == (0.1 + 0.2 + 0.3) / 3
        (span,) = snap["spans"]
        assert span["name"] == "modeler.flow_query"
        assert span["duration_s"] == 1.5

    def test_to_json_is_valid_json(self):
        doc = json.loads(export.to_json(populated_registry()))
        assert "counters" in doc and "spans" in doc

    def test_nonfinite_values_become_null(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(math.inf)
        snap = export.snapshot(reg)
        assert snap["gauges"]["g"] is None
        json.dumps(snap)  # must not raise


class TestPrometheus:
    def test_name_sanitisation(self):
        assert export.prom_name("snmp.client.pdus") == "repro_snmp_client_pdus"

    def test_type_lines_present(self):
        text = export.to_prometheus(populated_registry())
        assert "# TYPE repro_snmp_client_pdus counter" in text
        assert "# TYPE repro_netsim_engine_queue_depth gauge" in text
        assert "# TYPE repro_rps_fit_wall_s summary" in text

    def test_round_trip(self):
        reg = populated_registry()
        samples = parse_prometheus(export.to_prometheus(reg))
        assert samples[("repro_snmp_client_pdus", (("op", "get"),))] == 7.0
        assert samples[("repro_netsim_engine_queue_depth", ())] == 4.0
        assert samples[
            ("repro_rps_fit_wall_s_count", (("spec", "AR(16)"),))
        ] == 3.0
        assert samples[
            ("repro_rps_fit_wall_s_sum", (("spec", "AR(16)"),))
        ] == (0.1 + 0.2 + 0.3)
        # the span's auto-histogram exports too
        assert samples[
            ("repro_modeler_flow_query_duration_s_count", ())
        ] == 1.0

    def test_round_trip_nonfinite(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(math.inf)
        reg.histogram("h")  # empty: quantiles are NaN
        samples = parse_prometheus(export.to_prometheus(reg))
        assert samples[("repro_g", ())] == math.inf
        assert math.isnan(samples[("repro_h", (("quantile", "0.5"),))])

    def test_label_escaping_round_trips(self):
        """Backslashes, quotes, and newlines in label values survive
        the exposition format both ways."""
        nasty = 'C:\\temp\\"quoted"\nline2'
        reg = MetricsRegistry()
        reg.counter("snmp.client.pdus", op=nasty).inc(2)
        text = export.to_prometheus(reg)
        assert "\\n" in text and '\\"' in text  # escaped on the wire
        samples = parse_prometheus(text)
        assert samples[("repro_snmp_client_pdus", (("op", nasty),))] == 2.0

    def test_escape_unescape_inverse(self):
        for v in ("plain", 'a"b', "a\\b", "a\nb", 'mix\\"of\nall'):
            assert _unescape_label_value(export.escape_label_value(v)) == v


class TestEmptyRegistry:
    def test_empty_live_registry_exports_cleanly(self):
        reg = MetricsRegistry()
        snap = export.snapshot(reg)
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}
        assert snap["spans"] == []
        json.loads(export.to_json(reg))  # valid JSON
        text = export.to_prometheus(reg)
        assert parse_prometheus(text) == {}

    def test_null_registry_exports_cleanly(self):
        from repro.obs.registry import NullRegistry

        reg = NullRegistry()
        snap = export.snapshot(reg)
        assert snap["counters"] == {} and snap["spans"] == []
        assert parse_prometheus(export.to_prometheus(reg)) == {}
