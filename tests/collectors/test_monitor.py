"""LinkMonitor derives a rate once, on append; readers must see what
the batch derivation over the whole retained history used to give."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectors.monitor import LinkMonitor, MonitorKey

_WRAP32 = 2.0**32


def batch_rate_history(samples, direction):
    """The derivation ``rate_history`` ran per call before the rings:
    convert the retained samples, difference, fix wraps and resets."""
    col = 1 if direction == "in" else 2
    arr = np.asarray(samples, dtype=float)
    if arr.shape[0] < 2:
        return np.empty(0), np.empty(0)
    dt = np.diff(arr[:, 0])
    db = np.diff(arr[:, col])
    db = np.where(db < -_WRAP32 / 2, db + _WRAP32, db)
    db = np.maximum(db, 0.0)
    good = dt > 0
    rates = np.zeros(db.shape)
    rates[good] = db[good] * 8.0 / dt[good]
    return arr[1:, 0], rates


def batch_jitter(samples, capacity_bps, base_latency_s):
    if not np.isfinite(capacity_bps) or capacity_bps <= 0:
        return 0.0
    delays = []
    for direction in ("in", "out"):
        _, rates = batch_rate_history(samples, direction)
        if rates.size < 2:
            continue
        rho = np.clip(rates / capacity_bps, 0.0, 0.95)
        delays.append(base_latency_s * rho / (1.0 - rho))
    if not delays:
        return 0.0
    return float(max(np.std(d) for d in delays))


#: one poll: (time step, in-counter move, out-counter move).  Steps of
#: zero and below give ``dt <= 0``; a move is ordinary growth, a 32-bit
#: wrap (the counter falls by most of the modulus), or a rebase to a
#: small value (device reboot).
_move = st.one_of(
    st.integers(0, 10**9).map(lambda d: ("grow", d)),
    st.integers(0, 10**6).map(lambda d: ("wrap", d)),
    st.integers(0, 10**4).map(lambda d: ("reset", d)),
)
_poll = st.tuples(
    st.one_of(st.just(5.0), st.just(0.0), st.floats(-1.0, 10.0)), _move, _move
)


def _next(counter, move):
    kind, d = move
    if kind == "grow":
        return counter + d
    if kind == "wrap":
        return (counter + _WRAP32 - 1000 + d) % _WRAP32
    return float(d)


@given(st.integers(2, 64), st.lists(_poll, min_size=0, max_size=150))
@settings(max_examples=300, deadline=None)
def test_incremental_series_equal_the_batch_derivation(history_len, polls):
    mon = LinkMonitor(MonitorKey("10.0.0.1", 1), history_len=history_len)
    t, inb, outb = 100.0, 0.0, 4e9
    appended = 0
    for dt, in_move, out_move in polls:
        t, inb, outb = t + dt, _next(inb, in_move), _next(outb, out_move)
        mon.record(t, inb, outb)
        appended += 1
        assert mon.samples_appended == appended
        assert len(mon.samples) == min(appended, history_len)
        assert mon.ready == (len(mon.samples) >= 2)
        retained = list(mon.samples)
        for direction in ("in", "out"):
            times, rates = mon.rate_history(direction)
            want_times, want_rates = batch_rate_history(retained, direction)
            assert times.dtype == want_times.dtype == np.float64
            assert times.tobytes() == want_times.tobytes()
            assert rates.tobytes() == want_rates.tobytes()
        if mon.ready:
            last = tuple(
                float(batch_rate_history(retained, d)[1][-1]) for d in ("in", "out")
            )
            assert mon.rates_bps() == last
        else:
            assert mon.rates_bps() == (0.0, 0.0)
        for cap, lat in ((10e6, 0.001), (1e9, 0.02), (float("inf"), 0.001)):
            assert mon.jitter_estimate(cap, lat) == batch_jitter(retained, cap, lat)


def _filled(n=10):
    mon = LinkMonitor(MonitorKey("10.0.0.1", 1), history_len=8)
    for i in range(n):
        mon.record(5.0 * i, 1000.0 * i * i, 500.0 * i)
    return mon


def test_returned_arrays_are_the_callers_own():
    mon = _filled()
    times, rates = mon.rate_history("in")
    want_times, want_rates = times.copy(), rates.copy()
    times[:] = -1.0
    rates[:] = -1.0
    again_times, again_rates = mon.rate_history("in")
    assert again_times.tobytes() == want_times.tobytes()
    assert again_rates.tobytes() == want_rates.tobytes()
    # and the monitor can still append while a caller holds its arrays
    mon.record(1000.0, 1e6, 1e6)
    assert mon.rate_history("in")[0][-1] == 1000.0


def test_jitter_memo_dies_on_append():
    mon = _filled()
    before = mon.jitter_estimate(10e6, 0.001)
    assert mon.jitter_estimate(10e6, 0.001) == before
    assert mon._jitter  # memoized per (capacity, latency)
    mon.record(50.0, 1e9, 1e9)  # a burst: the series, and so the jitter, moves
    assert not mon._jitter
    after = mon.jitter_estimate(10e6, 0.001)
    assert after != before
    assert after == batch_jitter(list(mon.samples), 10e6, 0.001)


def test_jitter_memo_is_per_capacity_and_latency():
    mon = _filled()
    a = mon.jitter_estimate(10e3, 0.001)
    b = mon.jitter_estimate(20e3, 0.001)
    c = mon.jitter_estimate(10e3, 0.002)
    assert a != b and a != c
    assert mon.jitter_estimate(10e3, 0.001) == a


def test_history_of_one_never_becomes_ready():
    mon = LinkMonitor(MonitorKey("x", 1), history_len=1)
    for i in range(3):
        mon.record(float(i), 10.0 * i, 10.0 * i)
    assert not mon.ready
    assert mon.rates_bps() == (0.0, 0.0)
    assert mon.rate_history("out")[0].size == 0


def test_bad_direction_rejected():
    with pytest.raises(ValueError):
        _filled().rate_history("sideways")


def test_rebase_from_above_the_32bit_range_reads_zero_not_negative():
    """A 64-bit counter that rebases from beyond 2**32 falls by more
    than the wrap modulus.  The series always read that interval as 0;
    the latest-rate reader used to add the modulus and stop there,
    reporting a negative rate.  One derivation, one answer: 0."""
    mon = LinkMonitor(MonitorKey("x", 1))
    mon.record(0.0, 6e10, 6e10)
    mon.record(5.0, 100.0, 6e10 + 5000.0)
    assert mon.rates_bps() == (0.0, 8000.0)
    assert mon.rate_history("in")[1].tolist() == [0.0]


def _bits(x):
    return struct.pack("<d", x)


@given(st.integers(0, 2**32 - 1), st.integers(800, 900))
@settings(max_examples=8, deadline=None)
def test_one_pass_jitter_is_the_batch_jitter_on_full_default_rings(seed, n_polls):
    """Both directions in one pass over a full 719-interval ring give,
    bit for bit, the per-direction derivation over the raw samples."""
    rng = np.random.default_rng(seed)
    mon = LinkMonitor(MonitorKey("10.0.0.1", 1))  # history_len=720
    t, inb, outb = 0.0, 0.0, 4e9
    for i in range(n_polls):
        t += 5.0
        inb = (inb + float(rng.integers(0, 8_000_000))) % _WRAP32
        outb = (outb + float(rng.integers(0, 60_000_000))) % _WRAP32
        mon.record(t, inb, outb)
        if i < n_polls - 40 and i != 1:
            continue
        retained = list(mon.samples)
        for cap, lat in ((10e6, 0.001), (100e6, 0.02), (1.5e6, 0.03)):
            got = mon.jitter_estimate(cap, lat)
            assert _bits(got) == _bits(batch_jitter(retained, cap, lat))
    assert len(mon.samples) == 720
    assert len(mon._intervals) == 3 * 719


def test_one_interval_answers_zero():
    mon = LinkMonitor(MonitorKey("10.0.0.1", 1))
    mon.record(0.0, 0.0, 0.0)
    mon.record(5.0, 1e6, 3e6)
    assert mon.ready
    assert _bits(mon.jitter_estimate(10e6, 0.001)) == _bits(0.0)
    assert batch_jitter(list(mon.samples), 10e6, 0.001) == 0.0
