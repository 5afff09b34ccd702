import pytest

from mpqsim.core import (
    AckFrame,
    AckRange,
    InvariantViolation,
    RangeSet,
    Series,
    SpaceMode,
    ack_frame_wire_size,
    varint_size,
)
from ack_codec import ack_encode
from scenario_draws import each_draw
from varint_codec import varint_decode, varint_encode

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


# the bounds of each varint size class: 1, 2, 4 and 8 bytes
VARINT_CLASSES = [(0, 63), (64, 16383), (16384, (1 << 30) - 1), (1 << 30, (1 << 62) - 1)]


@each_draw(100, lambda c: c.integers(*c.sampled_from(VARINT_CLASSES)))
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
    assert ranges_of(rs)[-1] == (10, 0)
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


@each_draw(300, lambda c: c.lists(lambda: c.integers(0, 120), 0, 60))
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


@each_draw(200, lambda c: c.lists(lambda: c.integers(0, 80), 1, 40))
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
    frame = AckFrame(space=0, ack_delay=0, ranges=[AckRange(7, 0)])
    assert ack_frame_wire_size(frame, SpaceMode.SPNS) == 5


def test_wire_size_two_ranges():
    frame = AckFrame(space=0, ack_delay=0, ranges=[AckRange(13, 13), AckRange(10, 0)])
    # type + largest + delay + count + first length + gap + length
    assert ack_frame_wire_size(frame, SpaceMode.SPNS) == 7


def test_wire_size_mpns_adds_space_varint():
    frame = AckFrame(space=1, ack_delay=0, ranges=[AckRange(13, 13), AckRange(10, 0)])
    assert ack_frame_wire_size(frame, SpaceMode.MPNS) == 8


def test_wire_size_ack_delay_encoding():
    # 8 us units: 504 us encodes as 63 (1 byte), 512 us as 64 (2 bytes)
    small = AckFrame(space=0, ack_delay=504, ranges=[AckRange(0, 0)])
    large = AckFrame(space=0, ack_delay=512, ranges=[AckRange(0, 0)])
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
        frame = AckFrame(space=0, ack_delay=0, ranges=ranges)
        sizes.append(ack_frame_wire_size(frame, SpaceMode.SPNS))
    for smaller, bigger in zip(sizes, sizes[1:]):
        assert bigger >= smaller + 2


def test_wire_size_counts_a_two_byte_range_count_and_gap():
    # 70 single-number ranges 2 apart (gap field 0), then one 100 numbers
    # above them (gap field 98): count - 1 = 70 and that gap both need 2 bytes
    rs = RangeSet()
    for pn in range(0, 140, 2):
        rs.insert(pn)
    rs.add_range(238, 240)
    frame = rs.ack_frame(space=1, ack_delay=0)
    assert len(frame.ranges) == 71
    by_hand = AckFrame(frame.space, frame.ack_delay, frame.ranges)
    for mode in SpaceMode:
        assert ack_frame_wire_size(frame, mode) == len(ack_encode(frame, mode))
        assert ack_frame_wire_size(by_hand, mode) == len(ack_encode(frame, mode))


def test_wire_size_rejects_malformed():
    with pytest.raises(InvariantViolation):
        ack_frame_wire_size(AckFrame(space=0, ack_delay=0, ranges=[]), SpaceMode.SPNS)
    with pytest.raises(InvariantViolation):
        # adjacent ranges must have been merged
        ack_frame_wire_size(
            AckFrame(space=0, ack_delay=0, ranges=[AckRange(9, 5), AckRange(4, 0)]), SpaceMode.SPNS
        )
    with pytest.raises(InvariantViolation):
        # ascending order
        ack_frame_wire_size(
            AckFrame(space=0, ack_delay=0, ranges=[AckRange(3, 3), AckRange(9, 7)]), SpaceMode.SPNS
        )


def test_negative_ack_delay_refused():
    frame = AckFrame(space=0, ack_delay=-40_000, ranges=[AckRange(5, 0)])
    with pytest.raises(InvariantViolation, match="negative ack_delay -40000"):
        frame.validate([0, 5])
    # refused by the check, before the delay's varint is sized
    with pytest.raises(InvariantViolation):
        ack_frame_wire_size(frame, SpaceMode.SPNS)
    frame.ack_delay = 0
    assert frame.validate([0, 5]) == [0, 5]


# -- one-pass frame handling: differential checks ----------------------------


def test_descending_clips_at_anchor_and_stops_at_limit():
    rs = RangeSet()
    rs.add_range(0, 10)
    rs.add_range(13, 20)
    rs.add_range(30, 30)
    assert ranges_of(rs) == [(30, 30), (20, 13), (10, 0)]
    assert rs.descending(15) == [AckRange(15, 13), AckRange(10, 0)]
    assert rs.descending(30, 2) == [AckRange(30, 30), AckRange(20, 13)]
    assert rs.descending(limit=1) == [AckRange(30, 30)]
    assert rs.descending(5, 3) == [AckRange(5, 0)]
    assert rs.descending(12) == [AckRange(10, 0)]  # an anchor in a hole
    empty_below = RangeSet()
    empty_below.add_range(5, 9)
    assert empty_below.descending(3) == []
    # the set keeps its own top range when a frame's copy is clipped
    assert ranges_of(rs)[1] == (20, 13)


def _values_anchor_limit(c) -> tuple[list[int], int, int | None]:
    values = c.lists(lambda: c.integers(0, 60), 1, 60)
    return values, c.sampled_from(values), c.optional(lambda: c.integers(1, 6))


@each_draw(300, _values_anchor_limit)
def test_descending_matches_brute_force(case):
    values, anchor, limit = case
    rs = RangeSet()
    for v in values:
        rs.insert(v)
    for top in (anchor, None):
        below = {v for v in values if top is None or v <= top}
        got = rs.descending(top, limit)
        assert [(r.largest, r.smallest) for r in got] == _naive_ranges(below)[:limit]
        assert all(isinstance(r, AckRange) for r in got)


def _reference_valid(ranges: list[tuple[int, int]]) -> bool:
    """At least one range; descending, non-adjacent, non-inverted, non-negative ranges."""
    if not ranges:
        return False
    if any(smallest < 0 or smallest > largest for largest, smallest in ranges):
        return False
    return all(lower[0] < upper[1] - 1 for upper, lower in zip(ranges, ranges[1:]))


def _range_lists(c) -> tuple[list[tuple[int, int]], list[int]]:
    """Range lists that are valid, valid but for one edit, or arbitrary, and
    the numbers to look up in them."""
    kind = c.sampled_from(["valid", "edited", "arbitrary"])
    if kind == "arbitrary":
        ranges = c.lists(lambda: (c.integers(-2, 40), c.integers(-2, 40)), 0, 6)
    else:
        ranges = _naive_ranges(set(c.lists(lambda: c.integers(0, 40), 1, 20)))
        if kind == "edited":
            i = c.integers(0, len(ranges) - 1)
            largest, smallest = ranges[i]
            edit = c.sampled_from(["largest", "smallest", "swap", "duplicate", "adjacent", "negative"])
            delta = c.integers(-2, 2)
            if edit == "largest":
                ranges[i] = (largest + delta, smallest)
            elif edit == "smallest":
                ranges[i] = (largest, smallest + delta)
            elif edit == "swap":
                j = c.integers(0, len(ranges) - 1)
                ranges[i], ranges[j] = ranges[j], ranges[i]
            elif edit == "duplicate":
                ranges.insert(i, ranges[i])
            elif edit == "adjacent" and i > 0:
                ranges[i] = (ranges[i - 1][1] - 1, smallest)  # closes the hole above
            elif edit == "negative":
                ranges[-1] = (ranges[-1][0], -1)
    return ranges, sorted(set(c.lists(lambda: c.integers(-2, 45), 0, 30)))


@each_draw(400, _range_lists)
def test_validate_refuses_exactly_the_invalid_range_lists(case):
    ranges, _ = case
    frame = AckFrame(space=0, ack_delay=0, ranges=[AckRange(*r) for r in ranges])
    if _reference_valid(ranges):
        frame.validate()
    else:
        with pytest.raises(InvariantViolation):
            frame.validate()


@each_draw(400, _range_lists, [
    ([(9, 7), (4, 2)], [0, 2, 3, 5, 7, 10]),
    ([(5, -1)], [0, 3]),  # negative bottom range
    ([(9, 5), (4, 0)], [4, 5]),  # adjacent ranges
    ([(9, 9), (3, 5)], []),  # inverted range
])
def test_validate_returns_exactly_the_acknowledged_numbers(case):
    ranges, pns = case
    frame = AckFrame(space=0, ack_delay=0, ranges=[AckRange(*r) for r in ranges])
    if _reference_valid(ranges):
        expected = [pn for pn in pns if any(lo <= pn <= hi for hi, lo in ranges)]
        assert frame.validate(pns) == expected
        assert frame.validate(dict.fromkeys(pns)) == expected
        assert frame.validate() == []
    else:
        with pytest.raises(InvariantViolation):
            frame.validate(pns)


# values on both sides of every varint class boundary, or inside one class
VARINT_EDGES = [0, 63, 64, 16383, 16384, (1 << 30) - 1, 1 << 30, (1 << 40) + 5]


def _field(c) -> int:
    top = c.sampled_from([None, 70, 1 << 20, 1 << 42])
    return c.sampled_from(VARINT_EDGES) if top is None else c.integers(0, top)


def _valid_frame(c) -> tuple[AckFrame, SpaceMode]:
    """A frame built ascending from its base: each range is `length` long and
    sits `gap` + 1 numbers above the one below it."""
    ranges = []
    smallest = c.integers(0, 1 << 40)
    for i, (gap, length) in enumerate(c.lists(lambda: (_field(c), _field(c)), 1, 6)):
        if i:
            smallest = ranges[-1].largest + gap + 2
        ranges.append(AckRange(smallest + length, smallest))
    frame = AckFrame(space=c.integers(0, 3), ack_delay=_field(c), ranges=ranges[::-1])
    return frame, c.sampled_from(SpaceMode)


@each_draw(300, _valid_frame)
def test_wire_size_equals_varint_sum_on_valid_frames(case):
    frame, mode = case
    frame.validate()
    assert ack_frame_wire_size(frame, mode) == len(ack_encode(frame, mode))


# gap and length sizes on both sides of the 1/2 and 2/4 byte varint boundaries
SPAN_EDGES = [0, 1, 62, 63, 64, 65, 16382, 16383, 16384, 16385]
_span = lambda c: c.sampled_from(SPAN_EDGES) if c.booleans() else c.integers(0, 80)


def _insert_orders(c):
    """Adds that build a set of ranges with drawn gaps and lengths, split
    into pieces, repeated and shuffled; a frame delay; and four (anchor,
    limit) probes."""
    low = c.integers(0, 20_000)
    layout = []
    for gap, length in c.lists(lambda: (_span(c), _span(c)), 1, 8):
        lo = layout[-1][1] + gap + 2 if layout else low
        layout.append((lo, lo + length))
    pieces = []
    for lo, hi in layout:
        cuts = sorted(c.lists(lambda: c.integers(lo, hi), 0, 2))
        bounds = [lo, *cuts, hi + 1]
        pieces += [(a, b - 1) for a, b in zip(bounds, bounds[1:]) if a < b]
    pieces += c.lists(lambda: c.sampled_from(pieces), 0, 4)  # duplicates
    adds = c.permutations(pieces)
    values = [v for piece in adds for v in piece]
    probes = [(c.sampled_from(values), c.optional(lambda: c.integers(1, 6))) for _ in range(4)]
    return layout, adds, c.sampled_from([0, 504, 512, 1 << 20]), probes


@each_draw(200, _insert_orders)
def test_cached_frame_size_equals_the_range_by_range_sum(case):
    layout, adds, delay, probes = case
    rs = RangeSet()
    for lo, hi in adds:
        rs.add_range(lo, hi)
        # every cache entry, after every add
        frame = rs.ack_frame(0, delay)
        for mode in SpaceMode:
            assert ack_frame_wire_size(frame, mode) == len(ack_encode(frame, mode))
    assert ranges_of(rs) == [(hi, lo) for lo, hi in reversed(layout)]
    for anchor, limit in probes:
        frame = rs.ack_frame(1, delay, anchor, limit)
        assert frame.ranges == rs.descending(anchor, limit)
        assert frame.wire_size is not None
        by_hand = AckFrame(frame.space, frame.ack_delay, frame.ranges)
        assert frame == by_hand
        for mode in SpaceMode:
            assert ack_frame_wire_size(frame, mode) == ack_frame_wire_size(by_hand, mode)
            assert ack_frame_wire_size(frame, mode) == len(ack_encode(frame, mode))


# -- report series -------------------------------------------------------------


def test_empty_series_is_an_empty_list_of_pairs():
    series = Series("q")
    assert len(series) == 0
    assert list(series) == [] and series[:] == []
    assert series == [] and [] == series
    with pytest.raises(IndexError):
        series[-1]


def test_series_appends_read_back_as_typed_pairs():
    pns, holes, rtts = Series("q"), Series("I"), Series("d")
    for t, pn in [(1.0, 0), (1.5, 7), (2.25, 3)]:
        pns.append(t, pn)
        holes.append(t, pn % 2)
        rtts.append(t, pn / 4)
    assert len(pns) == len(holes) == len(rtts) == 3
    assert list(pns) == [(1.0, 0), (1.5, 7), (2.25, 3)]
    for (t, pn), (_, count), (_, ms) in zip(pns, holes, rtts):
        assert (type(t), type(pn), type(count), type(ms)) == (float, int, int, float)


def test_series_indexes_and_slices_as_its_pairs():
    series = Series("q")
    for t, pn in [(1.0, 0), (1.5, 7), (2.25, 3)]:
        series.append(t, pn)
    assert series[0] == (1.0, 0) and series[-1] == (2.25, 3)
    # a reader that has seen `k` entries takes the rest as a list
    assert series[1:] == [(1.5, 7), (2.25, 3)] and series[3:] == []
    assert series[-2:] == list(series)[-2:]


def test_series_compares_with_a_list_of_pairs_both_ways():
    series = Series("d")
    series.append(0.5, 12.5)
    assert series == [(0.5, 12.5)] and [(0.5, 12.5)] == series
    assert series != [(0.5, 12.0)] and [(0.5, 12.0)] != series
    assert series != [] and series != [(0.5, 12.5), (0.5, 12.5)]
    assert series == Series.from_pairs("d", [(0.5, 12.5)])
    assert series != ((0.5, 12.5),)  # only a list or a series compares equal


def test_series_reading_another_series_times_stores_values_only():
    samples = Series("d")
    smoothed = Series("d", times_of=[samples])
    for t, sample in [(1.0, 30.0), (2.0, 50.0)]:
        samples.append(t, sample)
        smoothed.values.append(sample / 2)
    assert smoothed.columns == samples.columns  # the very same column
    assert smoothed == [(1.0, 15.0), (2.0, 25.0)]


def test_series_merges_several_series_times_in_time_order():
    paths = {0: Series("q"), 1: Series("q")}
    holes = Series("I", times_of=paths.values())
    for t, path, pn, count in [(1.0, 0, 0, 0), (1.5, 1, 2, 1), (1.5, 0, 3, 1), (2.0, 1, 1, 0)]:
        paths[path].append(t, pn)
        holes.values.append(count)
    assert holes == [(1.0, 0), (1.5, 1), (1.5, 1), (2.0, 0)]
    assert holes[-1] == (2.0, 0) and holes[2:] == [(1.5, 1), (2.0, 0)]


def test_series_export_builds_each_time_column_once():
    arrivals = {0: Series("q"), 1: Series("q")}
    holes = Series("I", times_of=arrivals.values())
    for t, path, pn in [(1.0, 0, 0), (1.5, 1, 2), (2.0, 0, 1)]:
        arrivals[path].append(t, pn)
        holes.values.append(pn)
    floats: dict = {}
    pairs = {path: series.pairs(floats) for path, series in arrivals.items()}
    merged = holes.pairs(floats)
    assert pairs == {0: [(1.0, 0), (2.0, 1)], 1: [(1.5, 2)]}
    assert merged == [(1.0, 0), (1.5, 2), (2.0, 1)]
    assert [type(pair) for pair in merged] == [tuple] * 3
    # each arrival's time is one float object in both exports
    own = [pairs[0][0][0], pairs[1][0][0], pairs[0][1][0]]
    assert all(t is arrival for (t, _), arrival in zip(merged, own))
