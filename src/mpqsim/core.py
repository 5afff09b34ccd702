"""Core wire-format types shared by sender, receiver, and simulator.

Packet numbers are plain ints in [0, 2^62), path ids are small ints.
Times are integer microseconds unless noted otherwise.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

MAX_PACKET_NUMBER = (1 << 62) - 1

# QUIC default ack_delay_exponent: encoded delay unit is 2^3 = 8 microseconds.
ACK_DELAY_EXPONENT = 3


class InvariantViolation(ValueError):
    """A structural invariant (range ordering, duplicate numbering) was broken."""


class ProtocolError(ValueError):
    """A peer acknowledged something that was never sent."""


class ConfigError(ValueError):
    """Invalid scenario or receiver configuration."""


class SpaceMode(Enum):
    """How packet numbers are assigned across paths of one connection."""

    SPNS = "spns"  # one shared counter for all paths
    MPNS = "mpns"  # an independent counter per path


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


def varint_encode(value: int) -> bytes:
    """Encode an integer as a QUIC variable-length integer."""
    size = varint_size(value)
    if size == 1:
        return value.to_bytes(1, "big")
    prefix = {2: 0x40, 4: 0x80, 8: 0xC0}[size]
    raw = value.to_bytes(size, "big")
    return bytes([raw[0] | prefix]) + raw[1:]


def varint_decode(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a QUIC varint, returning (value, bytes consumed)."""
    if offset >= len(data):
        raise ValueError("varint: empty input")
    size = 1 << (data[offset] >> 6)
    if offset + size > len(data):
        raise ValueError("varint: truncated input")
    value = data[offset] & 0x3F
    for i in range(1, size):
        value = (value << 8) | data[offset + i]
    return value, size


class AckRange(NamedTuple):
    """A contiguous run of acknowledged packet numbers, inclusive on both ends."""

    largest: int
    smallest: int


@dataclass(slots=True)
class AckFrame:
    """Abstract ACK frame: largest acknowledged, delay, descending ranges.

    `space` identifies the acknowledged number space: 0 for the shared
    connection-wide space, the path id for per-path spaces.
    """

    space: int
    largest_acked: int
    ack_delay: int  # microseconds
    ranges: list[AckRange]

    def validate(self) -> None:
        if not self.ranges:
            raise InvariantViolation("ACK frame must carry at least one range")
        if self.ranges[0].largest != self.largest_acked:
            raise InvariantViolation("first range must start at largest_acked")
        prev = self.ranges[0]
        for r in self.ranges:
            if r.smallest < 0 or r.smallest > r.largest:
                raise InvariantViolation(f"inverted range {r}")
        for r in self.ranges[1:]:
            if r.largest >= prev.smallest - 1:
                raise InvariantViolation("ranges must be descending and non-adjacent")
            prev = r


def ack_frame_wire_size(frame: AckFrame, mode: SpaceMode) -> int:
    """Exact byte size of `frame` using the standard ACK gap/length encoding.

    Counts 1 byte of frame type, then varints for largest acknowledged,
    encoded ack delay, range count - 1, and the first range length; each
    further range adds varints for gap (previous smallest - largest - 2)
    and length. Per-path spaces carry one extra varint naming the space.
    """
    frame.validate()
    ranges = frame.ranges
    size = 1
    size += varint_size(frame.largest_acked)
    size += varint_size(frame.ack_delay >> ACK_DELAY_EXPONENT)
    size += varint_size(len(ranges) - 1)
    size += varint_size(ranges[0].largest - ranges[0].smallest)
    prev_smallest = ranges[0].smallest
    for r in ranges[1:]:
        size += varint_size(prev_smallest - r.largest - 2)
        size += varint_size(r.largest - r.smallest)
        prev_smallest = r.smallest
    if mode is SpaceMode.MPNS:
        size += varint_size(frame.space)
    return size


def _range_lo(pair: list[int]) -> int:
    return pair[0]


class RangeSet:
    """Set of packet numbers stored as maximal disjoint inclusive ranges.

    Internally kept ascending by lower bound; adjacent ranges are merged so
    the hole count is always len(ranges) - 1.
    """

    __slots__ = ("_ranges",)

    def __init__(self) -> None:
        self._ranges: list[list[int]] = []

    def insert(self, pn: int) -> None:
        self.add_range(pn, pn)

    def add_range(self, lo: int, hi: int) -> None:
        if lo < 0 or lo > hi:
            raise InvariantViolation(f"invalid range ({lo}, {hi})")
        ranges = self._ranges
        if not ranges:
            ranges.append([lo, hi])
            return
        last = ranges[-1]
        if lo > last[1] + 1:
            ranges.append([lo, hi])
            return
        if lo >= last[0]:
            # touches or overlaps only the final range
            if hi > last[1]:
                last[1] = hi
            return
        i = bisect.bisect_left(ranges, lo, key=_range_lo)
        j = i
        if i > 0 and ranges[i - 1][1] + 1 >= lo:
            i -= 1
            lo = ranges[i][0]
            hi = max(hi, ranges[i][1])
        while j < len(ranges) and ranges[j][0] <= hi + 1:
            hi = max(hi, ranges[j][1])
            j += 1
        ranges[i:j] = [[lo, hi]]

    def __contains__(self, pn: int) -> bool:
        i = bisect.bisect_right(self._ranges, pn, key=_range_lo) - 1
        return i >= 0 and self._ranges[i][1] >= pn

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._ranges == other._ranges

    def __repr__(self) -> str:
        body = ", ".join(f"({hi},{lo})" for lo, hi in self._ranges)
        return f"RangeSet[{body}]"

    def holes(self) -> int:
        """Number of gaps between ranges (0 for an empty set)."""
        return max(0, len(self._ranges) - 1)

    def max_value(self) -> int | None:
        return self._ranges[-1][1] if self._ranges else None

    def min_value(self) -> int | None:
        return self._ranges[0][0] if self._ranges else None

    def descending(self) -> list[AckRange]:
        """Ranges as AckRange tuples, largest first."""
        return [AckRange(hi, lo) for lo, hi in reversed(self._ranges)]


@dataclass(slots=True)
class SentPacketRecord:
    """Sender-side metadata for one transmitted packet."""

    pn: int
    path: int
    send_time: int  # microseconds
    size: int  # payload bytes
    ack_eliciting: bool
    path_history_index: int  # ordinal position within the path's send order
    payload_offset: int = 0  # byte offset of the carried data, for retransmission
