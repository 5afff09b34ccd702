import random
import sys
from array import array
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpqsim.harness import ConfigError, parse_config_file
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


# -- keyed timers ---------------------------------------------------------------


def assert_one_heap_entry_per_live_timer(loop: EventLoop) -> None:
    """Each `(key, token)` in the loop's live-timer table is carried by
    exactly one event on the heap, due at the table's time."""
    fire = loop._fire
    due = Counter((args[:2], time) for time, _, handler, args in loop._heap if handler == fire)
    for key, (time, token) in loop.timers.items():
        assert due[(key, token), time] == 1


def run_all(loop: EventLoop) -> None:
    """Pop and run every event, checking the live-timer table after each."""
    while (event := loop.pop()) is not None:
        time, handler, args = event
        handler(time, *args)
        assert_one_heap_entry_per_live_timer(loop)


def recorder(calls: list):
    """A handler that records `(time, *args)` of each call in `calls`."""
    return lambda now, *args: calls.append((now, *args))


def test_an_earlier_deadline_supersedes_the_live_event():
    loop, calls = EventLoop(), []
    loop.set_timer("t", 20, recorder(calls), "late")
    loop.set_timer("t", 10, recorder(calls), "early")
    assert loop.timers["t"][0] == 10 and len(loop._heap) == 2
    run_all(loop)
    # the superseded event at 20 still pops, and runs nothing
    assert calls == [(10, "early")]
    assert loop.now == 20 and loop.timers == {}


def test_a_later_or_equal_deadline_schedules_nothing():
    loop, calls = EventLoop(), []
    loop.set_timer("t", 10, recorder(calls), "first")
    live = loop.timers["t"]
    loop.set_timer("t", 10, recorder(calls), "equal")
    loop.set_timer("t", 15, recorder(calls), "later")
    assert loop.timers["t"] == live and len(loop._heap) == 1
    run_all(loop)
    assert calls == [(10, "first")]


def test_timers_of_other_keys_are_independent():
    loop, calls = EventLoop(), []
    loop.set_timer(("ack", 0), 10, recorder(calls), 0)
    loop.set_timer(("ack", 1), 5, recorder(calls), 1)
    run_all(loop)
    assert calls == [(5, 1), (10, 0)]


def test_a_superseded_event_due_with_the_live_one_runs_nothing():
    loop, calls = EventLoop(), []
    loop.set_timer("t", 20, recorder(calls), "superseded")
    loop.set_timer("t", 10, recorder(calls), "early")
    loop.schedule(15, lambda now: loop.set_timer("t", 20, recorder(calls), "live"))
    # the event at 15 sets a new live event at 20, beside the superseded one
    # that pops first; only the token tells them apart
    run_all(loop)
    assert calls == [(10, "early"), (20, "live")]


def test_a_handler_may_set_its_own_timer_again():
    loop, calls = EventLoop(), []

    def tick(now):
        calls.append(now)
        if now < 30:
            loop.set_timer("t", now + 10, tick)

    loop.set_timer("t", 10, tick)
    run_all(loop)
    assert calls == [10, 20, 30]


def test_a_handler_that_returns_a_later_deadline_is_re_armed_at_it():
    loop, calls = EventLoop(), []

    def waits_for_25(now, *args):
        calls.append((now, *args))
        return 25 if now < 25 else None

    loop.set_timer("t", 10, waits_for_25, "x")
    time, handler, args = loop.pop()
    handler(time, *args)
    # one live event, at the returned deadline, with the same handler and args
    assert loop.timers["t"][0] == 25 and len(loop._heap) == 1
    assert_one_heap_entry_per_live_timer(loop)
    run_all(loop)
    assert calls == [(10, "x"), (25, "x")] and loop.timers == {}


def test_a_handler_that_returns_none_is_not_re_armed():
    loop, calls = EventLoop(), []
    loop.set_timer("t", 10, recorder(calls))
    run_all(loop)
    assert calls == [(10,)] and loop.timers == {} and loop._heap == []


@pytest.mark.parametrize("returned", [10, 5])
def test_a_handler_that_returns_a_deadline_no_later_than_now_is_refused(returned):
    # a re-arm at `now` would fire again at the same instant, forever
    loop = EventLoop()
    loop.set_timer("t", 10, lambda now: returned)
    time, handler, args = loop.pop()
    with pytest.raises(RuntimeError, match=f"timer 't' re-armed at {returned}, not after 10"):
        handler(time, *args)
    assert loop.timers == {} and loop._heap == []


def test_clear_leaves_no_live_timer():
    loop, calls = EventLoop(), []
    loop.set_timer("t", 10, recorder(calls))
    loop.clear()
    assert loop.timers == {} and loop.pop() is None
    # the key is free again: a later deadline is live, not held off
    loop.set_timer("t", 20, recorder(calls))
    run_all(loop)
    assert calls == [(20,)]


def test_a_timer_in_the_past_is_refused_and_leaves_the_table_alone():
    loop = EventLoop()
    loop.schedule(10, print)
    loop.pop()
    with pytest.raises(RuntimeError, match="event scheduled in the past"):
        loop.set_timer("t", 5, print)
    assert loop.timers == {} and loop._heap == []


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


class BusyUntilLink:
    """A rate-limited link direction that keeps its serialization clock,
    `busy_until`, beside its queue of departures: a packet starts at
    `max(now, busy_until)`."""

    def __init__(self, delay_us, rate_bps, loss_rate, queue_capacity, rng):
        self.delay_us, self.rate_bps, self.rng = delay_us, rate_bps, rng
        self.loss_rate, self.queue_capacity = loss_rate, queue_capacity
        self.busy_until = 0
        self.departures = deque()
        self.delivered = self.queue_drops = self.loss_drops = 0

    def transmit(self, size, now):
        while self.departures and self.departures[0] <= now:
            self.departures.popleft()
        if len(self.departures) > self.queue_capacity:
            self.queue_drops += 1
            return None
        self.busy_until = max(now, self.busy_until) + int(round(size * 8 * 1e6 / self.rate_bps))
        self.departures.append(self.busy_until)
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.loss_drops += 1
            return None
        self.delivered += 1
        return self.busy_until + self.delay_us


@settings(max_examples=300)
@given(
    rate_bps=st.sampled_from([1e6, 8e6, 40e6, 123_456.7]),
    queue_capacity=st.integers(0, 4),
    loss_rate=st.sampled_from([0.0, 0.1, 0.4]),
    seed=st.integers(0, 1000),
    sends=st.lists(st.tuples(st.integers(0, 3_000), st.integers(1, 1500)), max_size=60),
)
def test_rate_link_matches_a_busy_until_clock(rate_bps, queue_capacity, loss_rate, seed, sends):
    """Starting each packet after the last queued departure, or at once when
    the queue is empty, gives the arrivals and drops of a serialization clock."""
    args = dict(rate_bps=rate_bps, loss_rate=loss_rate, queue_capacity=queue_capacity)
    link = LinkDirection(delay_us=5_000, rng=random.Random(seed), **args)
    reference = BusyUntilLink(delay_us=5_000, rng=random.Random(seed), **args)
    now = 0
    for gap, size in sends:
        now += gap  # non-decreasing, with bursts at one instant
        assert link.transmit(size, now) == reference.transmit(size, now)
    counters = (link.delivered, link.queue_drops, link.loss_drops)
    assert counters == (reference.delivered, reference.queue_drops, reference.loss_drops)
    assert link.attempts == len(sends)


def test_pure_delay_link():
    link = LinkDirection(delay_us=15_000)
    assert link.transmit(999_999, now=42) == 42 + 15_000
    assert link.transmit(1, now=43) == 43 + 15_000


# -- trace-mode link --------------------------------------------------------------


def test_trace_loads_timestamps(tmp_path):
    f = tmp_path / "t.trace"
    f.write_text("0\n1\n2\n")
    trace = load_trace(f)
    assert trace.times_ms.tolist() == [0, 1, 2]


def test_trace_blank_lines_ignored(tmp_path):
    f = tmp_path / "t.trace"
    f.write_text("1\n\n3\n\n")
    assert load_trace(f).times_ms.tolist() == [1, 3]


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


def test_trace_schedule_refuses_timestamps_that_are_not_ints():
    for times in ([0.5, 1.5, 2.5], [True, 2, 3], ["1", "2"], [1, 2.0], [5.0, -3]):
        with pytest.raises(ValueError, match="^trace timestamps must be ints$"):
            TraceSchedule(times)


def test_trace_schedule_refusals_keep_their_order():
    with pytest.raises(ValueError, match="at least one opportunity"):
        TraceSchedule([])
    with pytest.raises(ValueError, match="non-negative"):
        TraceSchedule([5, -3])  # also decreasing: the sign is checked first
    with pytest.raises(ValueError, match="non-decreasing"):
        TraceSchedule([5, 3])


def test_a_trace_is_held_as_one_int64_column(tmp_path):
    times = list(range(1000, 3000))
    f = tmp_path / "t.trace"
    f.write_text("".join(f"{t}\n" for t in times))
    for trace in (load_trace(f), TraceSchedule(times)):
        assert type(trace.times_ms) is array and trace.times_ms.itemsize == 8
        assert sys.getsizeof(trace.times_ms) <= 8 * len(trace.times_ms) + 128
        assert trace.times_ms.tolist() == times


def test_a_timestamp_past_int64_is_refused(tmp_path):
    too_late = 1 << 63
    with pytest.raises(ValueError, match="^trace timestamps must be below 2\\*\\*63 ms$"):
        TraceSchedule([0, too_late])
    TraceSchedule([0, too_late - 1])
    (tmp_path / "late.trace").write_text(f"0\n{too_late}\n")
    reference = (Path(__file__).parent.parent / "scenarios" / "two_path.ini").read_text()
    path = tmp_path / "late.ini"
    path.write_text(reference.replace("rate_mbps = 40\n", "trace = late.trace\n", 1))
    with pytest.raises(ConfigError, match=r"^\[path\.0\] trace: trace timestamps must be below 2\*\*63 ms$"):
        parse_config_file(path)


# -- trace loader against the line-by-line reference ------------------------------


def reference_load_trace(path):
    """The loader as a plain line loop over the decoded file: strip, skip
    blanks, name the bad line. The whole file is decoded first, so a bad
    byte is named at its offset in the file."""
    times = []
    with open(path) as fh:
        text = fh.read()
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            value = int(line)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not an integer timestamp: {line!r}")
        if value < 0:
            raise ValueError(f"{path}:{lineno}: negative timestamp")
        times.append(value)
    return TraceSchedule(times)


def outcome(load, path):
    """The timestamps a loader accepts, or the type and message it raises."""
    try:
        return load(path).times_ms
    except Exception as exc:
        return type(exc), str(exc)


# whitespace that str.strip() removes, ASCII and not; int() keeps U+001C to U+001F
SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]


@st.composite
def trace_lines(draw, last, clean):
    """One line's text and the last int value so far; only padded ints if `clean`."""
    kinds = ["int"] if clean else ["int"] * 6 + ["blank", "space", "neg", "float", "pair", "word"]
    kind = draw(st.sampled_from(kinds))
    pad = st.sampled_from(["", " "]) | st.text(st.sampled_from(SPACES), max_size=2)
    if kind == "blank":
        return "", last
    if kind == "space":
        return draw(pad.filter(bool)), last
    if kind == "neg":
        return f"-{draw(st.integers(0, 5))}", last
    if kind == "float":
        return f"{last}.5", last
    if kind == "pair":
        return f"{last} {last}", last
    if kind == "word":
        return draw(st.sampled_from(["x", "1e3", "0x10", "_1", "1__0", "1_", "+", "--1", "++1"])), last
    value = last + draw(st.integers(0, 30))
    text = str(value)
    if value >= 10 and draw(st.booleans()):
        text = f"{text[0]}_{text[1:]}"
    if draw(st.booleans()):
        text = "+" + text
    return draw(pad) + text + draw(pad), value


@st.composite
def trace_files(draw):
    """Bytes of a trace file: mostly well formed, some with bad lines or bytes."""
    clean = draw(st.booleans())
    lines, last = [], 0
    for _ in range(draw(st.integers(0, 12))):
        text, last = draw(trace_lines(last, clean))
        lines.append(text)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""  # no final newline
    data = "".join(t + e for t, e in zip(lines, ends)).encode()
    if not clean and draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80"])) + data[cut:]
    return data


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("traces")


@settings(derandomize=True, deadline=None, max_examples=400)
@given(trace_files())
@example(b"1\r\n2\r\n3\r\n")  # CRLF endings
@example(b"1\r2\r3")  # bare CR endings, no final newline
@example(b"  1  \n\t2\t\n3 \n")  # ASCII padding
@example("\u30001\xa0\n\u20282\x85\n".encode())  # Unicode whitespace
@example(b"\x1c1\x1f\n2\n")  # whitespace to str.strip() but not to int()
@example(b"+1\n+2\n")  # explicit sign
@example(b"1_0\n2_0\n")  # digit grouping
@example(b"1 2\n")  # two numbers on one line
@example(b"1\x0c2\n")  # a form feed inside a line
@example("\ufeff1\n2\n".encode())  # a byte order mark
@example("\u0661\n\u0662\u0663\n".encode())  # Arabic-Indic digits
@example(b"1\n-2\n3\n")  # a negative value
@example(b"-0\n1\n")  # negative zero is zero
@example(b"1\nxyz\n3\n")  # garbage
@example(b"1\n2\xff\n3\n")  # bad UTF-8
@example(b"1\n" * 5000 + b"\xff\n")  # a bad byte past the first 8 KB: named at 10000
@example(b"1\n2\xe2\x82")  # a truncated sequence at the end: named at 3-4
@example(b"")  # empty
@example(b"\n\n\n")  # blank lines only
@example(b" \n\t\r\n\x0c\n")  # whitespace-only lines
@example(b"1\n\n3\n")  # a blank line among values
@example(b"1.5\n")  # not an integer
@example(b"3\n2\n")  # decreasing
@example(b"0x10\n")  # hexadecimal
@example(b"1e3\n")  # exponent form
@example(b"1\r\n\r\n-5\r\n")  # a blank CRLF line, then a negative
def test_load_trace_matches_the_line_loop(trace_dir, data):
    path = trace_dir / "t.trace"
    path.write_bytes(data)
    assert outcome(load_trace, path) == outcome(reference_load_trace, path)


def test_trace_wraps_with_final_timestamp_period():
    trace = TraceSchedule([0, 5])
    link = LinkDirection(delay_us=0, trace=trace)
    assert link.transmit(1350, now=7_000) == 10_000  # 5 + period 5
    trace = TraceSchedule([0, 2, 5])
    assert [trace.opportunity_us(n) for n in range(7)] == [0, 2_000, 5_000, 5_000, 7_000, 10_000, 10_000]


def test_trace_opportunities_deliver_one_packet_each():
    trace = TraceSchedule([1, 2, 3, 10])
    link = LinkDirection(delay_us=2_000, trace=trace)
    arrivals = [link.transmit(1350, now=0) for _ in range(3)]
    assert arrivals == [3_000, 4_000, 5_000]


def test_an_opportunity_at_the_arrival_instant_is_taken():
    link = LinkDirection(delay_us=0, trace=TraceSchedule([1, 2, 3]))
    assert link.transmit(1350, now=2_000) == 2_000
    assert link.transmit(1350, now=2_000) == 3_000


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
