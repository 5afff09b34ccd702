"""Deterministic discrete-event network model.

Each path is a pair of unidirectional links. The data direction models
serialization rate (or trace-driven delivery opportunities), a droptail
queue, seeded random loss, and a fixed propagation delay; the ACK
direction defaults to a plain constant delay. Events are processed in
(time, insertion order), so a (config, seed) pair fully determines a run.
"""

from __future__ import annotations

import heapq
import math
import random
from array import array
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Literal

from .core import check_field_types


def ms_to_us(ms: float) -> int:
    """Milliseconds to whole microseconds, rounded to the nearest."""
    return round(ms * 1000)


class TraceSchedule:
    """Delivery opportunities from a Mahi-mahi style trace.

    Each timestamp (integer milliseconds) lets the link release one
    MTU-sized packet. Replay wraps around with period equal to the final
    timestamp. The timestamps are held in one ``array("q")`` column, 8
    bytes each, so a timestamp must fit a signed 64-bit int.
    """

    def __init__(self, times_ms: list[int]):
        times = list(times_ms)
        if not times:
            raise ValueError("a trace must contain at least one opportunity")
        if not set(map(type, times)) <= {int}:
            raise ValueError("trace timestamps must be ints")
        if min(times) < 0:
            raise ValueError("trace timestamps must be non-negative")
        if times != sorted(times):
            raise ValueError("trace timestamps must be non-decreasing")
        try:
            self.times_ms = array("q", times)
        except OverflowError:
            raise ValueError("trace timestamps must be below 2**63 ms") from None
        self.period_ms = times[-1] if times[-1] > 0 else 1

    def opportunity_us(self, n: int) -> int:
        """Time of the n-th delivery opportunity (0-based), in microseconds."""
        count = len(self.times_ms)
        cycle, idx = divmod(n, count)
        return (self.times_ms[idx] + cycle * self.period_ms) * 1_000


def load_trace(path: str | Path) -> TraceSchedule:
    """Parse one non-negative integer millisecond timestamp per line.

    Blank lines and whitespace around a value are skipped; a bad line is
    refused with its line number. A file of well-formed lines is decoded in
    one ``map(int)`` pass; ``int`` strips whitespace (all that ``str.strip``
    does but U+001C to U+001F), so a line it accepts has the value the line
    loop gives. Any other file's text is walked line by line, which skips
    the blank lines and names the bad one, so both give the same list or
    error. The file is decoded once, whole, so an undecodable byte is named
    at its offset in the file.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        return TraceSchedule(list(map(int, text.rstrip("\n").split("\n"))))
    except ValueError:  # a blank or bad line, a refused list
        pass
    return TraceSchedule(_read_trace_lines(path, text))


def _read_trace_lines(path: str | Path, text: str) -> list[int]:
    """Line by line: skip blank lines, name the first bad one."""
    times: list[int] = []
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
    return times


@dataclass(slots=True)
class LinkModel:
    """One path's configuration. Rate/queue/loss shape the data direction;
    the ACK direction is an uncongested constant delay."""

    delay_down_ms: float  # data direction propagation delay
    delay_up_ms: float  # ACK return propagation delay
    rate_mbps: float | None = None
    trace: TraceSchedule | None = None
    loss_rate: float = 0.0
    reverse_loss_rate: float = 0.0
    queue_capacity: int = 64
    # Per-path cwnd ceiling in packets. "auto" sizes it to the BDP plus a
    # small queue allowance on rate-limited paths (no cap on trace or
    # pure-delay paths); None means no cap.
    window_packets: int | Literal["auto"] | None = "auto"

    def validate(self) -> None:
        check_field_types(self)
        if self.rate_mbps is not None and self.trace is not None:
            raise ValueError("configure either a rate or a trace, not both")
        if self.rate_mbps is not None and not (0.0 < self.rate_mbps < math.inf):
            raise ValueError("rate_mbps must be positive and finite")
        for name in ("delay_down_ms", "delay_up_ms"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be non-negative and finite")
        # every RTT sample and completion time is then at least 1 µs
        if ms_to_us(self.delay_down_ms) < 1:
            raise ValueError("delay_down_ms must round to at least 1 µs")
        for name in ("loss_rate", "reverse_loss_rate"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must be in [0, 1)")
        if self.queue_capacity < 0:
            raise ValueError("queue_capacity must be non-negative")
        if type(self.window_packets) is int and self.window_packets < 1:
            raise ValueError(f"window_packets must be 'auto', None or at least 1, not {self.window_packets}")


class LinkDirection:
    """One direction of one link; FIFO with droptail queueing and seeded loss."""

    def __init__(
        self,
        delay_us: int,
        rate_bps: float | None = None,
        trace: TraceSchedule | None = None,
        loss_rate: float = 0.0,
        queue_capacity: int = 64,
        rng: random.Random | None = None,
    ):
        self.delay_us = delay_us
        self.rate_bps = rate_bps
        self.trace = trace
        self.loss_rate = loss_rate
        self.queue_capacity = queue_capacity
        self.rng = rng or random.Random(0)
        self._departures: deque[int] = deque()
        self._trace_cursor = 0
        self.attempts = 0
        self.delivered = 0
        self.queue_drops = 0
        self.loss_drops = 0

    def _queue_full(self, now: int) -> bool:
        departures = self._departures
        while departures and departures[0] <= now:
            departures.popleft()
        # capacity counts packets waiting behind the one in service
        return len(departures) > self.queue_capacity

    def transmit(self, size: int, now: int) -> int | None:
        """Accept a packet at `now`; returns its arrival time, or None if dropped."""
        self.attempts += 1
        departures = self._departures
        if self.trace is None and self.rate_bps is None:
            departure = now  # pure-delay link: no queue, no serialization
        elif self._queue_full(now):
            self.queue_drops += 1
            return None
        elif self.trace is not None:
            while self.trace.opportunity_us(self._trace_cursor) < now:
                self._trace_cursor += 1  # unused past opportunities are wasted
            departure = self.trace.opportunity_us(self._trace_cursor)
            self._trace_cursor += 1
            departures.append(departure)
        else:
            # the queue now holds only departures after `now`: the packet
            # starts serializing when the last of them leaves, or at once
            start = departures[-1] if departures else now
            departure = start + int(round(size * 8 * 1e6 / self.rate_bps))
            departures.append(departure)
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.loss_drops += 1
            return None
        self.delivered += 1
        return departure + self.delay_us


class EventLoop:
    """Min-heap of pending calls ordered by (time, insertion sequence), and
    the one live event of each keyed timer."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._seq = 0
        self.now = 0
        # timer key -> (time, token) of its live event
        self.timers: dict[object, tuple[int, int]] = {}

    def schedule(self, time: int, handler: Callable, *args) -> None:
        """Queue `handler(time, *args)` to run at `time`."""
        if time < self.now:
            raise RuntimeError(f"event scheduled in the past: {time} < {self.now}")
        heapq.heappush(self._heap, (time, self._seq, handler, args))
        self._seq += 1

    def set_timer(self, key: object, deadline: int, handler: Callable, *args) -> None:
        """Have `key`'s one live event run `handler(deadline, *args)`, unless one
        is due no later. An earlier deadline supersedes it; the old event pops
        but, told apart by its token (two can share a time), returns at once. A
        handler acts and returns None, or returns the later deadline to re-arm at."""
        if key not in self.timers or deadline < self.timers[key][0]:
            token = self._seq
            self.schedule(deadline, self._fire, key, token, handler, args)
            self.timers[key] = (deadline, token)

    def _fire(self, now: int, key: object, token: int, handler: Callable, args: tuple) -> None:
        if self.timers.get(key) == (now, token):  # else superseded
            del self.timers[key]
            if (later := handler(now, *args)) is not None:
                if later <= now:  # re-armed at `now`, it would fire forever
                    raise RuntimeError(f"timer {key!r} re-armed at {later}, not after {now}")
                self.set_timer(key, later, handler, *args)

    def peek_time(self) -> int | None:
        return self._heap[0][0] if self._heap else None

    def pop(self) -> tuple[int, Callable, tuple] | None:
        """Remove the earliest event; returns (time, handler, args), or None."""
        if not self._heap:
            return None
        time, _, handler, args = heapq.heappop(self._heap)
        self.now = time
        return time, handler, args

    def clear(self) -> None:
        """Drop every pending event and live timer; the clock keeps its value."""
        self._heap.clear()
        self.timers.clear()
