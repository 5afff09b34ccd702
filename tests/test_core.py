import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpqsim.core import (
    AckFrame,
    AckRange,
    InvariantViolation,
    RangeSet,
    SpaceMode,
    ack_frame_wire_size,
    varint_decode,
    varint_encode,
    varint_size,
)

# -- varints -----------------------------------------------------------------


@pytest.mark.parametrize(
    "value,size",
    [
        (0, 1),
        (63, 1),
        (64, 2),
        (15293, 2),
        (16383, 2),
        (16384, 4),
        ((1 << 30) - 1, 4),
        (1 << 30, 8),
        ((1 << 62) - 1, 8),
    ],
)
def test_varint_size_classes(value, size):
    assert varint_size(value) == size


def test_varint_out_of_range():
    with pytest.raises(ValueError):
        varint_size(1 << 62)
    with pytest.raises(ValueError):
        varint_size(-1)
    with pytest.raises(ValueError):
        varint_encode(1 << 62)


@given(st.integers(min_value=0, max_value=(1 << 62) - 1))
def test_varint_roundtrip(value):
    encoded = varint_encode(value)
    assert len(encoded) == varint_size(value)
    decoded, consumed = varint_decode(encoded)
    assert decoded == value
    assert consumed == len(encoded)


def test_varint_decode_truncated():
    with pytest.raises(ValueError):
        varint_decode(b"")
    with pytest.raises(ValueError):
        varint_decode(varint_encode(20000)[:1])


# -- RangeSet ----------------------------------------------------------------


def ranges_of(rs: RangeSet) -> list[tuple[int, int]]:
    return [(r.largest, r.smallest) for r in rs.descending()]


def _value_count(rs: RangeSet) -> int:
    return sum(r.largest - r.smallest + 1 for r in rs.descending())


def test_rangeset_insert_empty():
    rs = RangeSet()
    rs.insert(0)
    assert ranges_of(rs) == [(0, 0)]


def test_rangeset_insert_detached():
    rs = RangeSet()
    rs.add_range(0, 7)
    rs.insert(13)
    assert ranges_of(rs) == [(13, 13), (7, 0)]


def test_rangeset_insert_bridges_two_holes():
    rs = RangeSet()
    for pn in (13, 8, 9, 10):
        rs.insert(pn)
    rs.add_range(0, 6)
    assert ranges_of(rs) == [(13, 13), (10, 8), (6, 0)]
    rs.insert(7)
    assert ranges_of(rs) == [(13, 13), (10, 0)]


def test_rangeset_holes():
    rs = RangeSet()
    assert rs.holes() == 0
    rs.add_range(0, 10)
    rs.insert(13)
    assert rs.holes() == 1
    assert rs.max_value() == 13
    assert rs.min_value() == 0
    assert _value_count(rs) == 12


def test_rangeset_invalid_range():
    with pytest.raises(InvariantViolation):
        RangeSet().add_range(5, 3)
    with pytest.raises(InvariantViolation):
        RangeSet().add_range(-1, 3)


def _naive_ranges(values: set[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers, descending, via a plain scan."""
    out = []
    for v in sorted(values):
        if out and out[-1][1] == v - 1:
            out[-1][1] = v
        else:
            out.append([v, v])
    return [(hi, lo) for lo, hi in reversed(out)]


@settings(max_examples=300)
@given(st.lists(st.integers(min_value=0, max_value=120), max_size=60))
def test_rangeset_matches_naive_set(values):
    rs = RangeSet()
    seen: set[int] = set()
    for v in values:
        rs.insert(v)
        seen.add(v)
        assert v in rs
    assert ranges_of(rs) == _naive_ranges(seen)
    assert rs.holes() == max(0, len(_naive_ranges(seen)) - 1)
    assert _value_count(rs) == len(seen)
    for probe in range(-1, 122):
        assert (probe in rs) == (probe in seen)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=80), min_size=1, max_size=40))
def test_rangeset_insert_idempotent(values):
    rs = RangeSet()
    for v in values:
        rs.insert(v)
    snapshot = ranges_of(rs)
    for v in values:
        rs.insert(v)
        assert ranges_of(rs) == snapshot


# -- ACK frame wire size -------------------------------------------------------


def test_wire_size_single_range():
    frame = AckFrame(space=0, largest_acked=7, ack_delay=0, ranges=[AckRange(7, 0)])
    assert ack_frame_wire_size(frame, SpaceMode.SPNS) == 5


def test_wire_size_two_ranges():
    frame = AckFrame(
        space=0, largest_acked=13, ack_delay=0, ranges=[AckRange(13, 13), AckRange(10, 0)]
    )
    # type + largest + delay + count + first length + gap + length
    assert ack_frame_wire_size(frame, SpaceMode.SPNS) == 7


def test_wire_size_mpns_adds_space_varint():
    frame = AckFrame(
        space=1, largest_acked=13, ack_delay=0, ranges=[AckRange(13, 13), AckRange(10, 0)]
    )
    assert ack_frame_wire_size(frame, SpaceMode.MPNS) == 8


def test_wire_size_ack_delay_encoding():
    # 8 us units: 504 us encodes as 63 (1 byte), 512 us as 64 (2 bytes)
    small = AckFrame(space=0, largest_acked=0, ack_delay=504, ranges=[AckRange(0, 0)])
    large = AckFrame(space=0, largest_acked=0, ack_delay=512, ranges=[AckRange(0, 0)])
    assert ack_frame_wire_size(large, SpaceMode.SPNS) == ack_frame_wire_size(small, SpaceMode.SPNS) + 1


def test_wire_size_grows_with_each_extra_range():
    # split one long run into k ranges between the same endpoints
    sizes = []
    for k in range(1, 8):
        ranges = [AckRange(100, 100)]
        pn = 98
        for _ in range(k - 1):
            ranges.append(AckRange(pn, pn))
            pn -= 2
        frame = AckFrame(space=0, largest_acked=100, ack_delay=0, ranges=ranges)
        sizes.append(ack_frame_wire_size(frame, SpaceMode.SPNS))
    for smaller, bigger in zip(sizes, sizes[1:]):
        assert bigger >= smaller + 2


def test_wire_size_rejects_malformed():
    with pytest.raises(InvariantViolation):
        ack_frame_wire_size(
            AckFrame(space=0, largest_acked=5, ack_delay=0, ranges=[]), SpaceMode.SPNS
        )
    with pytest.raises(InvariantViolation):
        # first range does not start at largest_acked
        ack_frame_wire_size(
            AckFrame(space=0, largest_acked=9, ack_delay=0, ranges=[AckRange(7, 0)]),
            SpaceMode.SPNS,
        )
    with pytest.raises(InvariantViolation):
        # adjacent ranges must have been merged
        ack_frame_wire_size(
            AckFrame(
                space=0,
                largest_acked=9,
                ack_delay=0,
                ranges=[AckRange(9, 5), AckRange(4, 0)],
            ),
            SpaceMode.SPNS,
        )
    with pytest.raises(InvariantViolation):
        # ascending order
        ack_frame_wire_size(
            AckFrame(
                space=0,
                largest_acked=3,
                ack_delay=0,
                ranges=[AckRange(3, 3), AckRange(9, 7)],
            ),
            SpaceMode.SPNS,
        )
