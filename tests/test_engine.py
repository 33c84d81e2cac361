"""Event kernel: ordering, clock discipline, stream derivation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rplsim.engine import SchedulingError, Simulator, derive_stream, to_us


def test_schedule_at_current_time_fires_first():
    sim = Simulator()
    fired = []
    sim.schedule(0, None, None, lambda: fired.append("a"))
    sim.schedule(10, None, None, lambda: fired.append("b"))
    sim.run_until(10)
    assert fired == ["a", "b"]


def test_equal_times_dequeue_fifo():
    sim = Simulator()
    fired = []
    t = to_us(5.0)
    sim.schedule(t, None, None, lambda: fired.append("A"))
    sim.schedule(t, None, None, lambda: fired.append("B"))
    sim.run_until(t)
    assert fired == ["A", "B"]


def test_schedule_in_past_is_rejected():
    sim = Simulator()
    sim.schedule(to_us(2.0), None, None, lambda: None)
    sim.run_until(to_us(2.0))
    with pytest.raises(SchedulingError):
        sim.schedule(to_us(1.0), None, None, lambda: None)


def test_run_until_empty_queue_advances_clock():
    sim = Simulator()
    end = sim.run_until(to_us(900.0))
    assert end == to_us(900.0)
    assert sim.now == to_us(900.0)
    assert sim.events_processed == 0


def test_future_event_stays_queued():
    sim = Simulator()
    fired = []
    sim.schedule(to_us(10.0), None, None, lambda: fired.append(1))
    sim.run_until(to_us(5.0))
    assert fired == []
    sim.run_until(to_us(10.0))
    assert fired == [1]


def test_run_until_backwards_is_rejected():
    sim = Simulator()
    sim.run_until(100)
    with pytest.raises(SchedulingError):
        sim.run_until(50)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(5, None, None, lambda: fired.append(1))
    handle.cancel()
    sim.run_until(10)
    assert fired == []


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1,
                max_size=50))
def test_events_fire_in_time_then_fifo_order(times):
    sim = Simulator()
    fired = []
    for i, t in enumerate(times):
        sim.schedule(t, None, None,
                     lambda i=i, t=t: fired.append((t, i)))
    sim.run_until(1000)
    assert fired == sorted(fired)


def test_same_triple_gives_identical_draws():
    a = derive_stream(42, "traffic", 7)
    b = derive_stream(42, "traffic", 7)
    assert [a.random() for _ in range(1000)] == [b.random() for _ in range(1000)]


def test_node_scope_separates_streams():
    for node in range(100):
        a = derive_stream(42, "traffic", node)
        b = derive_stream(42, "traffic", node + 100)
        assert [a.random() for _ in range(1000)] != [b.random() for _ in range(1000)]


def test_purpose_separates_streams():
    a = derive_stream(42, "medium")
    b = derive_stream(42, "traffic")
    assert [a.random() for _ in range(100)] != [b.random() for _ in range(100)]


def test_streams_do_not_perturb_each_other():
    solo = derive_stream(7, "medium")
    expected = [solo.random() for _ in range(1000)]

    medium = derive_stream(7, "medium")
    traffic = derive_stream(7, "traffic")
    interleaved = []
    for _ in range(1000):
        interleaved.append(medium.random())
        traffic.random()
        traffic.uniform(0, 10)
    assert interleaved == expected


def test_unknown_purpose_rejected():
    with pytest.raises(ValueError):
        derive_stream(1, "weather")
