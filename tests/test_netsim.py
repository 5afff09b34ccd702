import random

import pytest

from mpqsim.netsim import (
    EventLoop,
    LinkDirection,
    LinkModel,
    TraceSchedule,
    load_trace,
)


# -- event loop ---------------------------------------------------------------


def test_empty_loop_returns_none():
    assert EventLoop().pop() is None


def test_same_time_events_pop_in_insertion_order():
    loop = EventLoop()
    loop.schedule(10, print, "a")
    loop.schedule(10, print, "b")
    loop.schedule(5, print, "c")
    order = [loop.pop() for _ in range(3)]
    assert order == [(5, print, ("c",)), (10, print, ("a",)), (10, print, ("b",))]
    assert loop.now == 10


def test_popped_handler_runs_with_time_and_args():
    calls = []
    loop = EventLoop()
    loop.schedule(7, lambda now, *args: calls.append((now, args)), "x", 2)
    time, handler, args = loop.pop()
    handler(time, *args)
    assert calls == [(7, ("x", 2))]


def test_clear_drops_pending_events_and_keeps_clock():
    loop = EventLoop()
    loop.schedule(3, print)
    loop.schedule(9, print)
    loop.pop()
    loop.clear()
    assert loop.pop() is None
    assert loop.now == 3


def test_scheduling_in_the_past_is_fatal():
    loop = EventLoop()
    loop.schedule(10, print)
    loop.pop()
    with pytest.raises(RuntimeError):
        loop.schedule(5, print)


# -- rate-mode link ------------------------------------------------------------


def test_serialization_plus_propagation():
    link = LinkDirection(delay_us=20_000, rate_bps=10e6)
    arrival = link.transmit(1350, now=0)
    # 1350 B at 10 Mbps is 1.08 ms of serialization
    assert arrival == 1_080 + 20_000


def test_back_to_back_packets_queue_behind_each_other():
    link = LinkDirection(delay_us=0, rate_bps=10e6)
    first = link.transmit(1350, now=0)
    second = link.transmit(1350, now=0)
    assert second - first == 1_080


def test_fifo_per_direction():
    link = LinkDirection(delay_us=5_000, rate_bps=5e6)
    rng = random.Random(3)
    arrivals = []
    now = 0
    for _ in range(200):
        now += rng.randint(0, 400)
        arrival = link.transmit(rng.randint(100, 1350), now)
        if arrival is not None:
            arrivals.append(arrival)
    assert arrivals == sorted(arrivals)


def test_droptail_queue_overflow():
    link = LinkDirection(delay_us=0, rate_bps=8e6, queue_capacity=2)
    # 1000 B at 8 Mbps = 1 ms each; burst of 6 at t=0
    results = [link.transmit(1000, now=0) for _ in range(6)]
    delivered = [r for r in results if r is not None]
    # one in service plus two waiting
    assert len(delivered) == 3
    assert link.queue_drops == 3
    # after the queue drains, transmission resumes
    assert link.transmit(1000, now=10_000) is not None


def test_zero_loss_rate_never_drops():
    link = LinkDirection(delay_us=1_000, rate_bps=100e6, loss_rate=0.0)
    assert all(link.transmit(1000, now=i * 100) is not None for i in range(500))
    assert link.loss_drops == 0


def test_seeded_loss_is_deterministic():
    def run(seed):
        link = LinkDirection(
            delay_us=0, rate_bps=1e9, loss_rate=0.3, rng=random.Random(seed)
        )
        return [link.transmit(100, now=i * 10) is None for i in range(300)]

    assert run("a") == run("a")
    assert run("a") != run("b")
    drops = sum(run("a"))
    assert 50 < drops < 150  # roughly 30%


def test_conservation_of_packets():
    link = LinkDirection(delay_us=0, rate_bps=2e6, loss_rate=0.2,
                         queue_capacity=4, rng=random.Random(1))
    for i in range(400):
        link.transmit(1200, now=i * 500)
    assert link.attempts == 400
    assert link.attempts == link.delivered + link.queue_drops + link.loss_drops


def test_pure_delay_link():
    link = LinkDirection(delay_us=15_000)
    assert link.transmit(999_999, now=42) == 42 + 15_000
    assert link.transmit(1, now=43) == 43 + 15_000


# -- trace-mode link --------------------------------------------------------------


def test_trace_loads_timestamps(tmp_path):
    f = tmp_path / "t.trace"
    f.write_text("0\n1\n2\n")
    trace = load_trace(f)
    assert trace.times_ms == [0, 1, 2]


def test_trace_blank_lines_ignored(tmp_path):
    f = tmp_path / "t.trace"
    f.write_text("1\n\n3\n\n")
    assert load_trace(f).times_ms == [1, 3]


def test_trace_rejects_garbage_with_line_number(tmp_path):
    f = tmp_path / "t.trace"
    f.write_text("1\nxyz\n3\n")
    with pytest.raises(ValueError, match=":2:"):
        load_trace(f)


def test_empty_trace_rejected(tmp_path):
    f = tmp_path / "t.trace"
    f.write_text("\n")
    with pytest.raises(ValueError):
        load_trace(f)


def test_trace_wraps_with_final_timestamp_period():
    trace = TraceSchedule([0, 5])
    link = LinkDirection(delay_us=0, trace=trace)
    assert link.transmit(1350, now=7_000) == 10_000  # 5 + period 5


def test_trace_opportunities_deliver_one_packet_each():
    trace = TraceSchedule([1, 2, 3, 10])
    link = LinkDirection(delay_us=2_000, trace=trace)
    arrivals = [link.transmit(1350, now=0) for _ in range(3)]
    assert arrivals == [3_000, 4_000, 5_000]


def test_trace_queue_overflow():
    trace = TraceSchedule([100])  # one opportunity every 100 ms
    link = LinkDirection(delay_us=0, trace=trace, queue_capacity=1)
    results = [link.transmit(1350, now=0) for _ in range(5)]
    assert sum(r is not None for r in results) == 2
    assert link.queue_drops == 3


def test_link_model_validation():
    with pytest.raises(ValueError):
        LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10, trace=TraceSchedule([1])).validate()
    with pytest.raises(ValueError):
        LinkModel(delay_down_ms=10, delay_up_ms=10, loss_rate=1.0).validate()
    LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10).validate()


def test_mtu_and_queue_capacity_refused_each_with_its_own_message():
    with pytest.raises(ValueError, match="^mtu must be positive$"):
        LinkModel(delay_down_ms=10, delay_up_ms=10, mtu=0).validate()
    with pytest.raises(ValueError, match="^queue_capacity must be non-negative$"):
        LinkModel(delay_down_ms=10, delay_up_ms=10, queue_capacity=-1).validate()
    LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10, queue_capacity=0).validate()
