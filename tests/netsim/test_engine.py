"""Unit tests for the discrete-event engine."""

import pytest

from repro.netsim.engine import Engine


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_at_runs_in_order():
    eng = Engine()
    seen = []
    eng.at(2.0, lambda: seen.append("b"))
    eng.at(1.0, lambda: seen.append("a"))
    eng.at(3.0, lambda: seen.append("c"))
    eng.run()
    assert seen == ["a", "b", "c"]
    assert eng.now == 3.0


def test_same_time_fifo():
    eng = Engine()
    seen = []
    for i in range(5):
        eng.at(1.0, lambda i=i: seen.append(i))
    eng.run()
    assert seen == [0, 1, 2, 3, 4]


def test_after_is_relative():
    eng = Engine()
    seen = []
    eng.at(5.0, lambda: eng.after(2.0, lambda: seen.append(eng.now)))
    eng.run()
    assert seen == [7.0]


def test_cannot_schedule_in_past():
    eng = Engine()
    eng.at(5.0, lambda: None)
    eng.step()
    with pytest.raises(ValueError):
        eng.at(4.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Engine().after(-1.0, lambda: None)


def test_run_until_stops_exactly():
    eng = Engine()
    seen = []
    eng.at(1.0, lambda: seen.append(1))
    eng.at(10.0, lambda: seen.append(10))
    eng.run_until(5.0)
    assert seen == [1]
    assert eng.now == 5.0
    eng.run_until(20.0)
    assert seen == [1, 10]
    assert eng.now == 20.0


def test_cancel_timer():
    eng = Engine()
    seen = []
    t = eng.at(1.0, lambda: seen.append(1))
    t.cancel()
    eng.run()
    assert seen == []
    assert t.cancelled


def test_every_fixed_cadence():
    eng = Engine()
    ticks = []
    eng.every(5.0, lambda: ticks.append(eng.now))
    eng.run_until(26.0)
    assert ticks == [5.0, 10.0, 15.0, 20.0, 25.0]


def test_every_with_explicit_start():
    eng = Engine()
    ticks = []
    eng.every(5.0, lambda: ticks.append(eng.now), start=0.0)
    eng.run_until(11.0)
    assert ticks == [0.0, 5.0, 10.0]


def test_every_cancel_stops_ticks():
    eng = Engine()
    ticks = []
    timer = eng.every(1.0, lambda: ticks.append(eng.now))
    eng.at(3.5, timer.cancel)
    eng.run_until(10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_advance_inside_callback_consumes_time():
    eng = Engine()
    times = []

    def busy():
        eng.advance(2.5)
        times.append(eng.now)

    eng.at(1.0, busy)
    eng.at(2.0, lambda: times.append(eng.now))
    eng.run()
    # The second event was scheduled for t=2 but runs late at t=3.5.
    assert times == [3.5, 3.5]


def test_periodic_skips_missed_ticks_after_long_callback():
    eng = Engine()
    ticks = []

    def tick():
        ticks.append(eng.now)
        if len(ticks) == 1:
            eng.advance(12.0)  # long stall spanning >2 intervals

    eng.every(5.0, tick)
    eng.run_until(30.0)
    # First tick at 5 stalls to 17; ticks at 10 and 15 are skipped.
    assert ticks == [5.0, 20.0, 25.0, 30.0]


def test_skipped_ticks_are_counted_and_the_cadence_holds():
    from repro import obs

    eng = Engine()
    ticks = []

    def tick():
        ticks.append(eng.now)
        if len(ticks) == 1:
            eng.advance(2.5)  # from 1.0 past the ticks at 2.0 and 3.0

    eng.every(1.0, tick)
    with obs.scoped_registry() as reg:
        eng.run_until(4.0)
        counters = {c.name: c.value for c in reg.counters()}
    assert eng.ticks_skipped == 2
    assert counters["netsim.engine.ticks_skipped"] == 2
    assert ticks == [1.0, 4.0]  # the next tick is on the 1 s grid
    with obs.scoped_registry() as reg:
        eng.run_until(6.0)  # a run that skips nothing adds nothing
        counters = {c.name: c.value for c in reg.counters()}
    assert ticks == [1.0, 4.0, 5.0, 6.0]
    assert eng.ticks_skipped == 2 and counters["netsim.engine.ticks_skipped"] == 0


def test_advance_rejects_negative():
    with pytest.raises(ValueError):
        Engine().advance(-0.1)


def test_run_raises_if_never_quiesces():
    eng = Engine()

    def reschedule():
        eng.after(1.0, reschedule)

    eng.after(1.0, reschedule)
    with pytest.raises(RuntimeError):
        eng.run(max_events=100)


def test_pending_counts_live_events():
    eng = Engine()
    t1 = eng.at(1.0, lambda: None)
    eng.at(2.0, lambda: None)
    assert eng.pending() == 2
    t1.cancel()
    assert eng.pending() == 1


def test_engine_metrics_survive_a_registry_reset():
    """An engine that has already reported keeps reporting after the
    registry it reports to is reset: its cached handles are the dropped
    ones, so it must resolve them again."""
    from repro import obs

    engine = Engine()
    engine.after(1.0, lambda: None)
    with obs.scoped_registry() as reg:
        engine.run_until(2.0)
        reg.reset()
        engine.after(1.0, lambda: None)
        engine.run_until(4.0)
        counters = {c.name: c.value for c in reg.counters()}
        gauges = {g.name: g.value for g in reg.gauges()}
    assert counters == {
        "netsim.engine.events": 1,
        "netsim.engine.sim_advance_s": 2.0,
        "netsim.engine.ticks_skipped": 0,
    }
    assert gauges["netsim.engine.sim_time_s"] == 4.0
