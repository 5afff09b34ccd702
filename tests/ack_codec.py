"""ACK frames (RFC 9000 §19.3), encoded and decoded byte by byte.

The simulator only counts each frame's size (`mpqsim.core.ack_frame_wire_size`);
the tests encode the frames real runs emit and check that size against the
length of the bytes. The fields, in order: frame type, largest
acknowledged, ack delay `>> ACK_DELAY_EXPONENT`, range count - 1, first
range, then a gap and a length per further range. Under MPNS a varint
naming the number space follows the type. Both the space varint and a
one-byte type in either mode are as the model counts them.
"""

from mpqsim.core import ACK_DELAY_EXPONENT, AckRange, SpaceMode
from varint_codec import varint_decode, varint_encode

ACK_FRAME_TYPE = 0x02  # ACK without ECN counts


def ack_encode(frame, mode: SpaceMode) -> bytes:
    """The frame's bytes: every field as a QUIC varint, ranges largest first."""
    fields = [ACK_FRAME_TYPE]
    if mode is SpaceMode.MPNS:
        fields.append(frame.space)
    largest, smallest = frame.ranges[0]  # the largest acknowledged tops the first range
    fields += [
        largest,
        frame.ack_delay >> ACK_DELAY_EXPONENT,
        len(frame.ranges) - 1,
        largest - smallest,
    ]
    for above, (largest, smallest) in zip(frame.ranges, frame.ranges[1:]):
        fields += [above.smallest - largest - 2, largest - smallest]
    return b"".join(map(varint_encode, fields))


def ack_decode(data: bytes, mode: SpaceMode) -> tuple[int | None, int, int, list[AckRange]]:
    """(space or None under SPNS, largest acknowledged, encoded delay, ranges)
    of a frame that fills `data` exactly."""
    offset = 0

    def read() -> int:
        nonlocal offset
        value, size = varint_decode(data, offset)
        offset += size
        return value

    if read() != ACK_FRAME_TYPE:
        raise ValueError("not an ACK frame")
    space = read() if mode is SpaceMode.MPNS else None
    largest, delay, count = read(), read(), read() + 1
    smallest = largest - read()
    ranges = [AckRange(largest, smallest)]
    for _ in range(count - 1):
        top = smallest - read() - 2
        smallest = top - read()
        ranges.append(AckRange(top, smallest))
    if offset != len(data):
        raise ValueError(f"{len(data) - offset} bytes after the last range")
    return space, largest, delay, ranges
