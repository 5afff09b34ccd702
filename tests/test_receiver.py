import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpqsim.core import AckRange, ConfigError, SpaceMode, ack_frame_wire_size
from mpqsim.netsim import LinkModel
from mpqsim.receiver import ReceiverState, RecvConfig
from mpqsim.scenario import ScenarioConfig
from mpqsim.simulation import Simulation

MS = 1000


def make_receiver(mode=SpaceMode.SPNS, paths=2, **cfg) -> ReceiverState:
    return ReceiverState(mode, paths, RecvConfig(**cfg))


def feed(recv, arrivals, start=0, step=100):
    """arrivals: list of (path, pn)."""
    now = start
    for path, pn in arrivals:
        recv.on_packet_received(path, pn, now)
        now += step


# -- ack-eliciting counting and timers ----------------------------------------


def test_first_eliciting_packet_arms_timer():
    recv = make_receiver()
    assert recv.on_packet_received(0, 5, now=0) is False
    assert recv.per_path[0].ack_timer_deadline == 25 * MS


def test_second_eliciting_packet_emits_on_same_path():
    recv = make_receiver()
    recv.on_packet_received(0, 5, now=0)
    assert recv.on_packet_received(0, 6, now=100) is True
    assert recv.per_path[0].ack_eliciting_since_ack == 0
    assert recv.per_path[0].ack_timer_deadline is None


def test_counters_are_per_path():
    recv = make_receiver()
    recv.on_packet_received(0, 0, now=0)
    # one eliciting packet on each path: two armed timers, no ACK yet
    assert recv.on_packet_received(1, 1, now=10) is False
    assert recv.per_path[1].ack_timer_deadline == 10 + 25 * MS
    assert recv.per_path[0].ack_eliciting_since_ack == 1
    assert recv.per_path[1].ack_eliciting_since_ack == 1


def test_duplicate_reception_is_noop():
    recv = make_receiver()
    recv.on_packet_received(0, 5, now=0)
    assert recv.on_packet_received(0, 5, now=50) is False
    assert recv.per_path[0].ack_timer_deadline == 25 * MS
    assert recv.per_path[0].ack_eliciting_since_ack == 1


@pytest.mark.parametrize("mode, holes", [(SpaceMode.SPNS, [0, 1, 0]), (SpaceMode.MPNS, [0, 0, 0])])
def test_each_arrival_is_logged_with_its_space_holes(mode, holes):
    recv = make_receiver(mode=mode)
    recv.on_packet_received(0, 0, now=1000)
    recv.on_packet_received(1, 2, now=1500)  # under SPNS, 1 is missing
    recv.on_packet_received(1, 2, now=1700)  # a duplicate logs nothing
    recv.on_packet_received(0, 1, now=2000)
    assert recv.received_pn == {0: [(1.0, 0), (2.0, 1)], 1: [(1.5, 2)]}
    assert recv.hole_count == list(zip([1.0, 1.5, 2.0], holes))


def test_unknown_path_rejected():
    recv = make_receiver(paths=2)
    with pytest.raises(ValueError):
        recv.on_packet_received(2, 0, now=0)


def test_out_of_order_forces_ack_when_suppression_disabled():
    recv = make_receiver(suppression_enabled=False)
    for pn in range(3):
        recv.on_packet_received(0, pn, now=pn)
    recv.build_ack_frame(0, now=10)
    assert recv.on_packet_received(0, 11, now=20) is True  # gap: 3..10 missing


def test_out_of_order_respects_threshold_when_suppressed():
    recv = make_receiver(suppression_enabled=True, default_limit=4)
    for pn in range(3):
        recv.on_packet_received(0, pn, now=pn)
    recv.build_ack_frame(0, now=10)
    assert recv.on_packet_received(0, 11, now=20) is False
    assert recv.per_path[0].ack_timer_deadline == 20 + 25 * MS
    # still out of order; the threshold of two, not reorder, emits
    assert recv.on_packet_received(0, 9, now=30) is True


# -- ACK frame construction ----------------------------------------------------


def fig_state(mode=SpaceMode.SPNS):
    """Receiver that saw {1,2,6} on path 0 and {0,3,4,5,8,9,10} on path 1."""
    recv = make_receiver(mode=mode, ack_eliciting_threshold=100)
    feed(recv, [(0, 1), (0, 2), (0, 6)])
    feed(recv, [(1, 0), (1, 3), (1, 4), (1, 5), (1, 8), (1, 9), (1, 10)])
    return recv


def test_frame_anchored_at_path_largest_after_gap_fill():
    recv = fig_state()
    recv.on_packet_received(0, 7, now=1000)
    frame = recv.build_ack_frame(0, now=1000)
    assert frame.largest_acked == 7
    assert frame.ranges == [AckRange(7, 0)]
    assert ack_frame_wire_size(frame, SpaceMode.SPNS) == 5


def test_frame_on_slower_path_keeps_own_largest():
    recv = fig_state()
    recv.on_packet_received(0, 7, now=1000)
    recv.on_packet_received(1, 13, now=2000)
    frame = recv.build_ack_frame(1, now=2000)
    assert frame.largest_acked == 13
    assert frame.ranges == [AckRange(13, 13), AckRange(10, 0)]
    assert ack_frame_wire_size(frame, SpaceMode.SPNS) == 7


def test_spns_truncates_ranges_above_path_largest():
    recv = fig_state()
    recv.on_packet_received(1, 13, now=500)
    frame = recv.build_ack_frame(0, now=1000)
    # path 1 has 13, but path 0's largest is 6
    assert frame.largest_acked == 6
    assert frame.ranges == [AckRange(6, 0)]


def test_mpns_per_space_ranges():
    recv = make_receiver(mode=SpaceMode.MPNS, ack_eliciting_threshold=100)
    for pn in range(11):
        recv.on_packet_received(1, pn, now=pn)
    recv.on_packet_received(1, 13, now=100)
    frame = recv.build_ack_frame(1, now=100)
    assert frame.space == 1
    assert frame.ranges == [AckRange(13, 13), AckRange(10, 0)]
    assert ack_frame_wire_size(frame, SpaceMode.MPNS) == 8


def test_single_path_modes_agree_modulo_space_field():
    arrivals = [(0, pn) for pn in (0, 1, 2, 5, 6, 9)]
    spns = make_receiver(mode=SpaceMode.SPNS, paths=1, ack_eliciting_threshold=100)
    mpns = make_receiver(mode=SpaceMode.MPNS, paths=1, ack_eliciting_threshold=100)
    feed(spns, arrivals)
    feed(mpns, arrivals)
    f_s = spns.build_ack_frame(0, now=900)
    f_m = mpns.build_ack_frame(0, now=900)
    assert f_s.ranges == f_m.ranges
    assert f_s.largest_acked == f_m.largest_acked
    assert (
        ack_frame_wire_size(f_m, SpaceMode.MPNS)
        == ack_frame_wire_size(f_s, SpaceMode.SPNS) + 1
    )


def test_ack_delay_measures_largest_hold_time():
    recv = make_receiver()
    recv.on_packet_received(0, 0, now=1000)
    frame = recv.build_ack_frame(0, now=26_000)
    assert frame.ack_delay == 25_000


def test_build_requires_a_received_packet():
    recv = make_receiver()
    with pytest.raises(ValueError):
        recv.build_ack_frame(0, now=0)


def test_connection_anchoring_ablation():
    recv = make_receiver(per_path_anchoring=False)
    feed(recv, [(0, 0), (0, 1), (1, 2), (1, 3)])
    frame = recv.build_ack_frame(0, now=1000)
    # anchored at the space's largest even though path 0 only saw 0 and 1
    assert frame.largest_acked == 3
    assert frame.ranges == [AckRange(3, 0)]


# -- range limiting --------------------------------------------------------------


def seven_ranges():
    # descending, each of width 1, separated by holes
    return [AckRange(2 * k, 2 * k) for k in range(7, 0, -1)]


def suppressed_ranges(ranges, pending, default_limit, maximum_limit):
    """The ranges of the frame path 0 builds when `pending` (None: nothing)
    arrives last, after a frame was built over every other number of `ranges`."""
    recv = make_receiver(
        suppression_enabled=True,
        default_limit=default_limit,
        maximum_limit=maximum_limit,
        ack_eliciting_threshold=100,
    )
    numbers = [pn for hi, lo in reversed(ranges) for pn in range(lo, hi + 1)]
    for pn in numbers:
        if pn != pending:
            recv.on_packet_received(0, pn, now=pn)
    recv.build_ack_frame(0, now=100)
    if pending is not None:
        recv.on_packet_received(0, pending, now=200)
    assert recv.per_path[0].lowest_pending == pending
    return recv.build_ack_frame(0, now=300).ranges


def test_limits_keep_short_lists():
    ranges = seven_ranges()[:3]
    assert suppressed_ranges(ranges, None, 4, 64) == ranges


def test_limits_truncate_to_default():
    ranges = seven_ranges()
    assert suppressed_ranges(ranges, 12, 4, 64) == ranges[:4]


def test_limits_extend_to_cover():
    ranges = seven_ranges()
    # 4 sits in the 6th range
    assert suppressed_ranges(ranges, 4, 4, 64) == ranges[:6]


def test_limits_never_exceed_maximum():
    ranges = seven_ranges()
    # 2 needs 7 ranges, capped at 3
    assert suppressed_ranges(ranges, 2, 2, 3) == ranges[:3]


def test_limits_reject_bad_default():
    with pytest.raises(ConfigError):
        suppressed_ranges(seven_ranges(), None, 0, 64)


def reference_trim(ranges, default_limit, maximum_limit, must_cover):
    """The two-pass rule a suppressed frame was once cut by, kept as the oracle.

    Keeps the newest `default_limit` of a descending range list, extending
    the prefix just far enough to cover packet number `must_cover` (None:
    nothing to cover), but never beyond `maximum_limit` ranges.
    """
    if len(ranges) <= default_limit:
        return ranges
    needed = default_limit
    if must_cover is not None:
        # keep every range before the first one wholly below must_cover
        reaching = next((i for i, r in enumerate(ranges) if r.largest < must_cover), len(ranges))
        needed = max(needed, reaching)
    return ranges[: min(needed, maximum_limit)]


@st.composite
def arrival_runs(draw):
    """A receiver config and arrivals (path, pn, build after it?) in drawn order."""
    default = draw(st.integers(1, 6))
    config = RecvConfig(
        suppression_enabled=True,
        default_limit=default,
        maximum_limit=draw(st.integers(default, 8)),
        per_path_anchoring=draw(st.booleans()),
        ack_eliciting_threshold=draw(st.integers(1, 4)),
    )
    mode, paths = draw(st.sampled_from(SpaceMode)), draw(st.integers(1, 3))
    pns = draw(st.lists(st.integers(0, 60), min_size=1, max_size=50, unique=True))
    arrivals = [(draw(st.integers(0, paths - 1)), pn, draw(st.booleans())) for pn in pns]
    return mode, paths, config, arrivals


@settings(derandomize=True, deadline=None, max_examples=300)
@given(arrival_runs())
def test_suppressed_frames_match_the_two_pass_trim(run):
    """Each frame's ranges follow the two-pass trim, and its delay is the
    time its anchor has been held, under both anchorings and both modes."""
    mode, paths, config, arrivals = run
    recv = ReceiverState(mode, paths, config)
    arrived = {}  # (space, pn) -> arrival time

    def check_build(path, now):
        prs, rs = recv.per_path[path], recv.spaces[mode.space_of(path)]
        anchor = prs.largest_recv_pn if config.per_path_anchoring else rs.max_value()
        expected = reference_trim(
            rs.descending(anchor, config.maximum_limit),
            config.default_limit,
            config.maximum_limit,
            prs.lowest_pending,
        )
        frame = recv.build_ack_frame(path, now)
        assert frame.ranges == expected
        assert frame.ack_delay == now - arrived[frame.space, anchor]

    for now, (path, pn, build) in enumerate(arrivals):
        arrived[mode.space_of(path), pn] = now
        if recv.on_packet_received(path, pn, now) or build:
            check_build(path, now)
    for prs in recv.per_path:
        if prs.largest_recv_pn is not None:
            check_build(prs.path, len(arrivals))


def test_uncovered_must_cover_retries_next_frame():
    recv = make_receiver(
        suppression_enabled=True, default_limit=1, maximum_limit=2, ack_eliciting_threshold=100
    )
    # odd numbers received: every pn is its own range
    for i, pn in enumerate((1, 3, 5, 7, 9)):
        recv.on_packet_received(0, pn, now=i)
    first = recv.build_ack_frame(0, now=100)
    assert [r.largest for r in first.ranges] == [9, 7]  # maximum_limit bites
    # the stranded 1, 3, 5 stay pending; once the holes fill, the next frame
    # must still cover them
    for i, pn in enumerate((2, 4, 6, 8)):
        recv.on_packet_received(0, pn, now=200 + i)
    second = recv.build_ack_frame(0, now=300)
    assert second.ranges == [AckRange(9, 1)]


def _covered(frame) -> set[int]:
    return {pn for r in frame.ranges for pn in range(r.smallest, r.largest + 1)}


def test_coverage_bookkeeping_matches_a_brute_force_union():
    """The never-covered and pending sets agree with a union of every frame.

    Shuffled arrivals (with losses and duplicates) over 1-4 paths, both
    modes, both anchorings and suppression limits 1-5, plus builds forced
    at random times as an ack timer would.
    """
    rng = random.Random(20240)
    for _ in range(1000):
        mode = rng.choice(list(SpaceMode))
        paths = rng.randint(1, 4)
        default = rng.randint(1, 5)
        cfg = RecvConfig(
            ack_eliciting_threshold=rng.randint(1, 3),
            suppression_enabled=rng.random() < 0.6,
            default_limit=default,
            maximum_limit=rng.randint(default, 6),
            per_path_anchoring=rng.random() < 0.5,
        )
        recv = ReceiverState(mode, paths, cfg)
        if mode is SpaceMode.SPNS:
            sent = [(rng.randrange(paths), pn) for pn in range(rng.randint(1, 40))]
        else:
            sent = [(p, pn) for p in range(paths) for pn in range(rng.randint(1, 12))]
        arrivals = [a for a in sent if rng.random() > 0.15]
        arrivals += rng.sample(arrivals, len(arrivals) // 8)  # duplicates
        rng.shuffle(arrivals)
        received = {space: set() for space in recv.spaces}
        covered = {space: set() for space in recv.spaces}
        pending = [set() for _ in range(paths)]  # received on p, no frame of p covered it

        def build(path, now):
            frame = recv.build_ack_frame(path, now)
            frame.validate()
            if cfg.suppression_enabled:
                assert len(frame.ranges) <= cfg.maximum_limit
            in_frame = _covered(frame)
            assert in_frame <= received[frame.space]
            covered[frame.space] |= in_frame
            pending[path] -= in_frame
            assert recv.per_path[path].lowest_pending == min(pending[path], default=None)
            assert all(pn < frame.ranges[-1].smallest for pn in pending[path])

        for now, (path, pn) in enumerate(arrivals):
            space = mode.space_of(path)
            if pn not in received[space]:
                pending[path].add(pn)
            received[space].add(pn)
            if recv.on_packet_received(path, pn, now):
                build(path, now)
            if rng.random() < 0.2:
                heard = [p for p in range(paths) if recv.per_path[p].largest_recv_pn is not None]
                build(rng.choice(heard), now)
            for space in recv.spaces:
                assert recv.uncovered[space] == received[space] - covered[space]


# -- timer-driven ACKs ---------------------------------------------------------
# The simulation fires a path's ack timer at the receiver's deadline by
# building that path's frame.


def timer_sim():
    """One-path simulation with the default receiver whose ACKs are
    recorded as (time, largest acked) instead of sent."""
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10)]
    sim = Simulation(ScenarioConfig(mode=SpaceMode.SPNS, paths=paths, transfer_size=100_000))
    sim.sent = []
    sim._emit_ack = lambda frame, path, now: sim.sent.append((now, frame.largest_acked))
    return sim


def test_timer_expiry_emits_ack():
    sim = timer_sim()
    sim._on_data(0, 0, 0, 1_000, 0)
    sim._on_ack_timer(25 * MS, 0)
    assert sim.sent == [(25 * MS, 0)]
    assert sim.receiver.per_path[0].ack_eliciting_since_ack == 0
    assert sim.receiver.per_path[0].ack_timer_deadline is None


def test_timer_without_pending_packets_is_a_no_op():
    sim = timer_sim()
    sim._on_ack_timer(25 * MS, 0)
    assert sim.sent == []


def test_timer_cleared_after_threshold_ack():
    sim = timer_sim()
    sim._on_data(0, 0, 0, 1_000, 0)
    sim._on_data(10, 0, 1, 1_000, 1_000)
    # the threshold ACK superseded the timer armed by the first packet
    sim._on_ack_timer(25 * MS, 0)
    assert sim.sent == [(10, 1)]
    assert sim.receiver.per_path[0].ack_eliciting_since_ack == 0


def test_timer_superseded_by_a_later_timer_is_a_no_op():
    sim = timer_sim()
    sim._on_data(0, 0, 0, 1_000, 0)
    sim.receiver.build_ack_frame(0, now=MS)
    sim._on_data(2 * MS, 0, 1, 1_000, 1_000)  # re-arms for 27 ms
    sim._on_ack_timer(25 * MS, 0)
    assert sim.sent == []
    sim._on_ack_timer(27 * MS, 0)
    assert sim.sent == [(27 * MS, 1)]


def test_timer_deadline_set_iff_counter_positive():
    recv = make_receiver()
    prs = recv.per_path[0]
    assert prs.ack_timer_deadline is None and prs.ack_eliciting_since_ack == 0
    recv.on_packet_received(0, 0, now=0)
    assert prs.ack_timer_deadline is not None and prs.ack_eliciting_since_ack > 0
    recv.build_ack_frame(0, now=100)
    assert prs.ack_timer_deadline is None and prs.ack_eliciting_since_ack == 0
