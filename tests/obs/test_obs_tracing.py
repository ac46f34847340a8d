"""Tests for span tracing: nesting, clocks, duration histograms."""

from repro.obs import export, traceview
from repro.obs.registry import MetricsRegistry
from repro.obs.timebase import FixedTimebase, SimTimebase
from repro.obs.tracing import NULL_SPAN


class TestSpans:
    def test_span_records_duration_on_registry_clock(self):
        clock = FixedTimebase()
        reg = MetricsRegistry(clock=clock)
        with reg.span("op"):
            clock.advance(2.5)
        (rec,) = reg.spans
        assert rec.name == "op"
        assert rec.duration_s == 2.5
        assert rec.wall_s >= 0.0  # wall clock measured independently

    def test_span_dicts_have_one_shape(self):
        """Snapshots, flight-recorder dumps and traceview read one span
        dict: causality by ids, no nesting depth or parent name; an open
        span is closed at the given instant."""
        clock = FixedTimebase()
        reg = MetricsRegistry(clock=clock)
        with reg.span("outer") as outer:
            with reg.span("inner"):
                clock.advance(1.0)
            clock.advance(0.5)
            opened = traceview.record_to_dict(outer, open_at=clock.now())
        inner_d, outer_d = export.snapshot(reg)["spans"]
        assert [inner_d, outer_d] == [traceview.record_to_dict(s) for s in reg.spans]
        assert set(inner_d) == {
            "name", "labels", "start_s", "duration_s", "wall_s",
            "trace_id", "span_id", "parent_id",
        }
        assert inner_d["parent_id"] == outer_d["span_id"]
        assert opened == {**outer_d, "wall_s": 0.0, "open": True}

    def test_completed_span_feeds_duration_histogram(self):
        clock = FixedTimebase()
        reg = MetricsRegistry(clock=clock)
        for dt in (1.0, 3.0):
            with reg.span("query", collector="c1"):
                clock.advance(dt)
        h = reg.histogram("query.duration_s", collector="c1")
        assert h.count == 2
        assert h.sum == 4.0

    def test_span_survives_exception(self):
        reg = MetricsRegistry(clock=FixedTimebase())
        try:
            with reg.span("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert len(reg.spans) == 1
        assert not reg._span_stack  # stack unwound

    def test_span_cap_is_bounded(self):
        reg = MetricsRegistry(clock=FixedTimebase(), max_spans=4)
        for _ in range(10):
            with reg.span("op"):
                pass
        assert len(reg.spans) == 4

    def test_sim_timebase_reads_engine_like_sources(self):
        class Engine:
            now = 7.0

        assert SimTimebase(Engine()).now() == 7.0

        class Clocky:
            def now(self):
                return 3.0

        # a callable `now` works too (obs never imports netsim)
        assert SimTimebase(Clocky()).now() == 3.0

    def test_null_span_is_reentrant(self):
        with NULL_SPAN:
            with NULL_SPAN:
                pass

    def test_null_span_carries_the_id_surface(self):
        # call sites stamp span.trace_id unconditionally; the no-op
        # span must expose the same attributes, all None
        with NULL_SPAN as sp:
            assert sp.trace_id is None
            assert sp.span_id is None
            assert sp.parent_id is None

    def test_ids_link_children_to_parents(self):
        reg = MetricsRegistry(clock=FixedTimebase())
        with reg.span("outer") as outer:
            with reg.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.trace_id == "t0001"

    def test_out_of_order_exit_keeps_parents_sane(self):
        """A span closed late (generator teardown, exception unwinding)
        must remove itself from the stack, not whatever is on top."""
        reg = MetricsRegistry(clock=FixedTimebase())
        root = reg.span("root")
        child = reg.span("child")
        root.__enter__()
        child.__enter__()
        root.__exit__(None, None, None)  # out of order: root before child
        with reg.span("next_root") as nxt:
            # the still-open child must not become next_root's parent
            assert nxt.parent_id == child.span_id
        child.__exit__(None, None, None)
        assert reg._span_stack == []
