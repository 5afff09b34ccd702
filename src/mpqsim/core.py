"""Core wire-format types shared by sender, receiver, and simulator: ACK
frames, their ranges and encoded size, and the range set a receiver builds
them from; and `Series`, the typed columns a report series is kept in.
Per-packet send state lives with the sender (`mpqsim.sender`).

Packet numbers are plain ints in [0, 2^62), path ids are small ints.
Times are integer microseconds unless noted otherwise.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import types
from array import array
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

MAX_PACKET_NUMBER = (1 << 62) - 1

# QUIC default ack_delay_exponent: encoded delay unit is 2^3 = 8 microseconds.
ACK_DELAY_EXPONENT = 3
# QUIC default max_ack_delay (RFC 9000 §18.2), in microseconds
DEFAULT_MAX_ACK_DELAY = 25_000


class InvariantViolation(ValueError):
    """A structural invariant (range ordering, duplicate numbering) was broken."""


class ProtocolError(ValueError):
    """A peer acknowledged something that was never sent, or before it was sent."""


class ConfigError(ValueError):
    """Invalid scenario or receiver configuration."""


def _admits(hint) -> Callable[[object], bool]:
    """The test of whether a value is of the type `hint` names."""
    origin, args = get_origin(hint), get_args(hint)
    if hint is float:
        return lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    if hint is int or hint is bool:  # exactly: a bool is no int, and an int no bool
        return lambda v: type(v) is hint
    if origin is list:
        item = _admits(args[0])
        return lambda v: type(v) is list and all(map(item, v))
    if origin is Literal:  # any one of the values, each of its own type
        options = [lambda v, a=a: type(v) is type(a) and v == a for a in args]
    elif origin is Union or origin is types.UnionType:
        options = [_admits(a) for a in args]
    else:
        return lambda v: isinstance(v, hint)  # an enum, a class or NoneType
    return functools.reduce(lambda first, rest: lambda v: first(v) or rest(v), options)


@functools.cache
def _field_checks(cls: type) -> list[tuple[str, object, Callable[[object], bool]]]:
    """Each field of a config dataclass: its name, declared type and test."""
    hints = get_type_hints(cls)
    return [(f.name, f.type, _admits(hints[f.name])) for f in fields(cls)]


def check_field_types(config: object) -> None:
    """Refuse the first field of a config dataclass whose value its type hint does not admit.

    An int field takes only an int and a bool field only a bool; a float
    field takes an int or a float, never a bool. An enum field takes a
    member, `X | None` also None and `list[X]` a list of X. Each class's
    hints are turned into tests once.
    """
    for name, declared, admits in _field_checks(type(config)):
        value = getattr(config, name)
        if not admits(value):
            raise ConfigError(f"{name} must be {declared}, not {value!r}")


class SpaceMode(Enum):
    """How packet numbers are assigned across paths of one connection."""

    SPNS = "spns"  # one shared counter for all paths
    MPNS = "mpns"  # an independent counter per path

    def space_of(self, path: int) -> int:
        """The number space `path` sends in: 0 under SPNS, its own id under MPNS."""
        return 0 if self is SpaceMode.SPNS else path

    def spaces(self, num_paths: int) -> range:
        """The space ids of a connection over `num_paths` paths."""
        return range(1 if self is SpaceMode.SPNS else num_paths)


def varint_size(value: int) -> int:
    """Wire size in bytes (1, 2, 4, or 8) of a QUIC variable-length integer."""
    if value < 0 or value > MAX_PACKET_NUMBER:
        raise ValueError(f"varint out of range: {value}")
    if value < 1 << 6:
        return 1
    if value < 1 << 14:
        return 2
    if value < 1 << 30:
        return 4
    return 8


class AckRange(NamedTuple):
    """A contiguous run of acknowledged packet numbers, inclusive on both ends."""

    largest: int
    smallest: int


@dataclass(slots=True)
class AckFrame:
    """Abstract ACK frame: delay and descending ranges.

    `space` identifies the acknowledged number space: 0 for the shared
    connection-wide space, the path id for per-path spaces. The largest
    acknowledged is the first range's top, as on the wire (RFC 9000 §19.3).
    `wire_size`, when the builder knows it, is the frame's encoded size
    without the per-path space varint (see `ack_frame_wire_size`); it
    follows from the other fields, so frames compare without it.
    """

    space: int
    ack_delay: int  # microseconds
    ranges: list[AckRange]
    wire_size: int | None = field(default=None, compare=False)

    @property
    def largest_acked(self) -> int:
        return self.ranges[0].largest

    def validate(self, pns: Iterable[int] = ()) -> list[int]:
        """Check the ranges and return the members of `pns` the frame acknowledges.

        Refuses a frame with a negative `ack_delay`, or with no ranges, or
        whose ranges are not non-negative, descending, disjoint and
        non-adjacent. `pns` must be ascending; the ranges are walked
        bottom-up once, alongside it, and numbers above the largest
        acknowledged are never read.
        """
        if self.ack_delay < 0:
            raise InvariantViolation(f"negative ack_delay {self.ack_delay}")
        ranges = self.ranges
        if not ranges:
            raise InvariantViolation("ACK frame must carry at least one range")
        covered: list[int] = []
        numbers, end = iter(pns), math.inf  # `end` lies above every range
        pn = next(numbers, end)
        below = -2  # largest of the range below; the bottom range starts at 0 or above
        for largest, smallest in reversed(ranges):
            if not below + 1 < smallest <= largest:
                bad = AckRange(largest, smallest)
                raise InvariantViolation(f"range {bad} is inverted, negative, adjacent or misordered")
            below = largest
            while pn < smallest:
                pn = next(numbers, end)
            while pn <= largest:
                covered.append(pn)
                pn = next(numbers, end)
        return covered


def _range_bytes(above_smallest: int, largest: int, smallest: int) -> int:
    """Bytes a range adds to an ACK frame after the range starting at
    `above_smallest`: the varints of its gap and its length."""
    gap, length = above_smallest - largest - 2, largest - smallest
    # varints below 2^6 take 1 byte and below 2^14 take 2
    return (1 if gap < 64 else 2 if gap < 16384 else varint_size(gap)) + (
        1 if length < 64 else 2 if length < 16384 else varint_size(length)
    )


def _header_size(ack_delay: int, ranges: list[AckRange]) -> int:
    """Bytes of an ACK frame up to its first range: type, largest
    acknowledged (the first range's top), encoded delay, range count - 1
    and first range length."""
    largest, smallest = ranges[0]
    return (
        1
        + varint_size(largest)
        + varint_size(ack_delay >> ACK_DELAY_EXPONENT)
        + varint_size(len(ranges) - 1)
        + varint_size(largest - smallest)
    )


def ack_frame_wire_size(frame: AckFrame, mode: SpaceMode) -> int:
    """Exact byte size of `frame` using the standard ACK gap/length encoding.

    Counts 1 byte of frame type, then varints for largest acknowledged,
    encoded ack delay, range count - 1, and the first range length; each
    further range adds varints for gap (previous smallest - largest - 2)
    and length. Per-path spaces carry one extra varint naming the space.

    A frame built from a `RangeSet` carries the size without that last
    varint. A frame built by hand is validated, then summed range by range
    with `_range_bytes`, the rule that fills the set's byte cache.
    """
    size = frame.wire_size
    if size is None:
        frame.validate()
        ranges = frame.ranges
        size = _header_size(frame.ack_delay, ranges)
        size += sum(_range_bytes(above.smallest, *below) for above, below in zip(ranges, ranges[1:]))
    if mode is SpaceMode.MPNS:
        size += varint_size(frame.space)
    return size


_smallest = operator.itemgetter(1)


class RangeSet:
    """Set of packet numbers stored as maximal disjoint inclusive ranges.

    Internally an ascending list of immutable `AckRange(largest, smallest)`
    tuples, bisected on `smallest`; adjacent ranges are merged so the hole
    count is always len(ranges) - 1. `descending` hands out the tuples
    themselves, so frames share them instead of copying.

    A parallel list caches each range's share of an ACK frame: entry k is
    `varint(gap) + varint(length)`, the bytes range k adds when it follows
    range k + 1 in a frame. The top range has no range above it and keeps 0.
    """

    __slots__ = ("_ranges", "_gap_bytes")

    def __init__(self) -> None:
        self._ranges: list[AckRange] = []
        self._gap_bytes: list[int] = []

    def insert(self, pn: int) -> None:
        self.add_range(pn, pn)

    def add_range(self, lo: int, hi: int) -> None:
        if lo < 0 or lo > hi:
            raise InvariantViolation(f"invalid range ({lo}, {hi})")
        ranges, gap_bytes = self._ranges, self._gap_bytes
        if not ranges:
            ranges.append(AckRange(hi, lo))
            gap_bytes.append(0)
            return
        last_hi, last_lo = ranges[-1]
        if lo > last_hi + 1:
            gap_bytes[-1] = _range_bytes(lo, last_hi, last_lo)
            ranges.append(AckRange(hi, lo))
            gap_bytes.append(0)
            return
        if lo >= last_lo:
            # touches or overlaps only the final range, whose entry stays 0
            if hi > last_hi:
                ranges[-1] = AckRange(hi, last_lo)
            return
        i = bisect.bisect_left(ranges, lo, key=_smallest)
        j = i
        if i > 0 and ranges[i - 1].largest + 1 >= lo:
            i -= 1
            lo = ranges[i].smallest
            hi = max(hi, ranges[i].largest)
        while j < len(ranges) and ranges[j].smallest <= hi + 1:
            hi = max(hi, ranges[j].largest)
            j += 1
        # the merged range's entry follows the range above it; the entry of
        # the range below follows the merged range's smallest
        entry = _range_bytes(ranges[j].smallest, hi, lo) if j < len(ranges) else 0
        ranges[i:j] = [AckRange(hi, lo)]
        gap_bytes[i:j] = [entry]
        if i > 0:
            gap_bytes[i - 1] = _range_bytes(lo, *ranges[i - 1])

    def ack_frame(
        self, space: int, ack_delay: int, anchor: int | None = None, limit: int | None = None
    ) -> AckFrame:
        """The ACK frame of `descending(anchor, limit)`, sized from the byte cache."""
        ranges = self.descending(anchor, limit)
        count = len(ranges)
        top = bisect.bisect_left(self._ranges, ranges[0].smallest, key=_smallest)
        size = _header_size(ack_delay, ranges)
        size += sum(self._gap_bytes[top - count + 1 : top])
        return AckFrame(space, ack_delay, ranges, size)

    def __contains__(self, pn: int) -> bool:
        i = bisect.bisect_right(self._ranges, pn, key=_smallest) - 1
        return i >= 0 and self._ranges[i].largest >= pn

    def __repr__(self) -> str:
        body = ", ".join(f"({hi},{lo})" for hi, lo in self._ranges)
        return f"RangeSet[{body}]"

    def span(self, high: int, low: int) -> int:
        """How many ranges run from the one holding `high` down to the one holding `low`."""
        upper = bisect.bisect_right(self._ranges, high, key=_smallest)
        return upper - bisect.bisect_right(self._ranges, low, key=_smallest) + 1

    def holes(self) -> int:
        """Number of gaps between ranges (0 for an empty set)."""
        return max(0, len(self._ranges) - 1)

    def max_value(self) -> int | None:
        return self._ranges[-1].largest if self._ranges else None

    def descending(self, anchor: int | None = None, limit: int | None = None) -> list[AckRange]:
        """Ranges largest first, covering only the numbers up to `anchor`.

        Ranges wholly above `anchor` are left out and the one holding it
        is clipped to end at it; at most `limit` ranges are returned.
        """
        ranges = self._ranges
        top = len(ranges) - 1
        if anchor is not None:
            top = bisect.bisect_right(ranges, anchor, key=_smallest) - 1
            if top < 0:
                return []
        stop = None if limit is None or limit > top else top - limit
        out = ranges[top:stop:-1]
        if out and anchor is not None and out[0].largest > anchor:
            out[0] = AckRange(anchor, out[0].smallest)
        return out


def _merged(runs: list) -> array | list:
    """One ascending run as it is; several merged into one, by a stable sort
    of their concatenation, which Timsort does as a merge of the runs and
    which keeps each run's own objects."""
    return runs[0] if len(runs) == 1 else sorted(chain.from_iterable(runs))


class Series:
    """A report series of `(time_ms, value)` pairs, kept as typed columns.

    `values` is an `array` of `typecode`. The times are the float columns in
    `columns`: one of the series' own, which `append` extends, or those of
    the series in `times_of`, read instead of stored again: one series'
    column, shared, or the ascending columns of several, merged in time
    order. A series that reads other series' times takes `values.append`
    alone, once they have logged the instant.

    It iterates, indexes, slices, measures and compares (with a series or
    a list) as the list of its `(time, value)` pairs; a slice is that list.
    """

    __slots__ = ("columns", "values")

    def __init__(self, typecode: str, times_of: Iterable[Series] = ()) -> None:
        self.columns = tuple(chain.from_iterable(s.columns for s in times_of)) or (array("d"),)
        self.values = array(typecode)

    @classmethod
    def from_pairs(cls, typecode: str, pairs: Iterable) -> Series:
        series = cls(typecode)
        for t, value in pairs:
            series.append(t, value)
        return series

    def append(self, t: float, value: float) -> None:
        self.columns[0].append(t)
        self.values.append(value)

    def times(self) -> array | list:
        """The series' times: its one column, or its columns merged."""
        return _merged(self.columns)

    def pairs(self, floats: dict[int, list[float]]) -> list[tuple]:
        """A fresh list of the `(time, value)` tuples, zipped in C, for export.

        `floats` maps a times column, by id, to its `tolist()`. One dict
        serves a whole export, so each column's floats are built once and
        an instant is the same float object in every series that reads it.
        """
        runs = []
        for column in self.columns:
            if id(column) not in floats:
                floats[id(column)] = column.tolist()
            runs.append(floats[id(column)])
        return list(zip(_merged(runs), self.values.tolist()))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return zip(self.times(), self.values)

    def __getitem__(self, index: int | slice):
        times = self.times()
        if isinstance(index, slice):
            return list(zip(times[index], self.values[index]))
        return times[index], self.values[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Series, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Series({list(self)!r})"
