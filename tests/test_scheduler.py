import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpqsim.congestion import CongestionController
from mpqsim.scheduler import SchedulerKind, select_path
from mpqsim.sender import PathSendState

MSS = 1350


def make_path(path, srtt_ms=None, cwnd_pkts=10, in_flight_pkts=0, sent=0):
    ps = PathSendState(path, CongestionController(mss=MSS))
    ps.cc.cwnd = cwnd_pkts * MSS
    ps.bytes_in_flight = in_flight_pkts * MSS
    if srtt_ms is not None:
        ps.smoothed_rtt = srtt_ms * 1000.0
    ps.sent_count = sent
    return ps


def select(kind, paths, rr_cursor=-1):
    """One decision with every pacing gate open."""
    return select_path(kind, paths, MSS, 0, rr_cursor)


def test_minrtt_picks_smallest_srtt():
    paths = [make_path(0, srtt_ms=50), make_path(1, srtt_ms=20)]
    path, _, _ = select(SchedulerKind.MIN_RTT, paths)
    assert path == 1


def test_minrtt_ties_break_to_lower_path_id():
    paths = [make_path(0, srtt_ms=20), make_path(1, srtt_ms=20)]
    path, _, _ = select(SchedulerKind.MIN_RTT, paths)
    assert path == 0


def test_cwnd_limited_path_is_skipped():
    paths = [make_path(0, srtt_ms=50), make_path(1, srtt_ms=20, in_flight_pkts=10)]
    path, _, _ = select(SchedulerKind.MIN_RTT, paths)
    assert path == 0


def test_no_path_eligible_returns_none():
    paths = [make_path(0, srtt_ms=50, in_flight_pkts=10), make_path(1, srtt_ms=20, in_flight_pkts=10)]
    path, cursor, wake = select(SchedulerKind.MIN_RTT, paths, rr_cursor=5)
    assert path is None
    assert cursor == 5
    assert wake is None


def test_unprobed_fresh_path_ranks_first_once():
    # path 1 has no sample and nothing sent: probe it before the measured path
    paths = [make_path(0, srtt_ms=20, sent=4), make_path(1)]
    path, _, _ = select(SchedulerKind.MIN_RTT, paths)
    assert path == 1
    # once something is in its history, an unsampled path waits behind
    # measured ones until its sample lands
    paths = [make_path(0, srtt_ms=20, sent=4), make_path(1, sent=1)]
    path, _, _ = select(SchedulerKind.MIN_RTT, paths)
    assert path == 0


def round_robin_picks(paths, count):
    """`count` selections, threading the cursor as the simulation does."""
    cursor, picks = -1, []
    for _ in range(count):
        path, cursor, _ = select(SchedulerKind.ROUND_ROBIN, paths, cursor)
        picks.append(path)
    return picks


def test_round_robin_alternates():
    paths = [make_path(0, srtt_ms=50), make_path(1, srtt_ms=20)]
    picks = round_robin_picks(paths, 6)
    assert picks == [1, 0, 1, 0, 1, 0] or picks == [0, 1, 0, 1, 0, 1]


def test_round_robin_skips_ineligible():
    paths = [make_path(0), make_path(1, in_flight_pkts=10), make_path(2)]
    assert round_robin_picks(paths, 4) == [0, 2, 0, 2]


def test_round_robin_takes_the_next_ready_id_while_a_path_is_pace_blocked():
    paths = [make_path(p) for p in range(4)]
    paths[0].pace_next = 10
    cursor, picks = -1, []
    for _ in range(4):
        path, cursor, wake = select_path(SchedulerKind.ROUND_ROBIN, paths, MSS, 0, cursor)
        assert wake is None
        picks.append(path)
    assert picks == [1, 2, 3, 1]


def test_round_robin_picks_the_only_open_path_above_three_blocked_ones():
    paths = [make_path(p) for p in range(4)]
    for ps in paths[:3]:
        ps.pace_next = 10
    for cursor in (-1, 0, 1, 2, 3):
        assert select_path(SchedulerKind.ROUND_ROBIN, paths, MSS, 0, cursor) == (3, 3, None)


def test_selection_never_violates_cwnd():
    rng = random.Random(7)
    for _ in range(300):
        paths = [
            make_path(
                p,
                srtt_ms=rng.choice([None, rng.uniform(10, 200)]),
                cwnd_pkts=rng.randint(2, 20),
                in_flight_pkts=rng.randint(0, 22),
                sent=rng.randint(0, 5),
            )
            for p in range(rng.randint(1, 4))
        ]
        kind = rng.choice([SchedulerKind.MIN_RTT, SchedulerKind.ROUND_ROBIN])
        path, _, _ = select(kind, paths, rr_cursor=rng.randint(-1, 3))
        if path is not None:
            ps = paths[path]
            assert ps.bytes_in_flight + MSS <= ps.cc.cwnd


def test_minrtt_invariant_under_uniform_scaling():
    rng = random.Random(11)
    for _ in range(100):
        srtts = [rng.uniform(5, 500) for _ in range(3)]
        base = [make_path(p, srtt_ms=srtts[p]) for p in range(3)]
        scaled = [make_path(p, srtt_ms=srtts[p] * 3.7) for p in range(3)]
        pick_base, _, _ = select(SchedulerKind.MIN_RTT, base)
        pick_scaled, _, _ = select(SchedulerKind.MIN_RTT, scaled)
        assert pick_base == pick_scaled


def test_round_robin_shares_evenly():
    for k in (2, 3, 4):
        paths = [make_path(p, srtt_ms=10 * (p + 1), cwnd_pkts=100) for p in range(k)]
        for n in range(1, 50):
            counts = [0] * k
            for path in round_robin_picks(paths, n):
                counts[path] += 1
            assert max(counts) - min(counts) <= 1


# -- the list-based decision the single pass replaced, kept as the reference


def _reference_eligible(ps, packet_size):
    return ps.bytes_in_flight + packet_size <= ps.cc.cwnd


def _reference_min_rtt_key(ps):
    if ps.smoothed_rtt is None:
        bucket = 0 if not ps.sent_count else 1
        return (bucket, math.inf, ps.path)
    return (1, ps.smoothed_rtt, ps.path)


def _reference_select_path(kind, paths, packet_size, rr_cursor, n):
    """Pick among `paths`, a subset of the `n` configured paths."""
    if not paths:
        raise ValueError("no paths configured")
    eligible = [ps for ps in paths if _reference_eligible(ps, packet_size)]
    if not eligible:
        return None, rr_cursor
    if kind is SchedulerKind.MIN_RTT:
        return min(eligible, key=_reference_min_rtt_key).path, rr_cursor
    eligible_ids = {ps.path for ps in eligible}
    for step in range(1, n + 1):
        candidate = (rr_cursor + step) % n
        if candidate in eligible_ids:
            return candidate, candidate
    return None, rr_cursor


def reference_decision(kind, paths, size, pace_next, now, rr_cursor):
    """Pace-eligible paths to the list-based selector, then the wake-up loop."""
    sendable = [ps for ps in paths if now >= pace_next[ps.path]]
    path = None
    if sendable:
        path, rr_cursor = _reference_select_path(kind, sendable, size, rr_cursor, len(paths))
    wake = None
    if path is None:
        for ps in paths:
            gate = pace_next[ps.path]
            if now < gate and ps.bytes_in_flight + size <= ps.cc.cwnd:
                wake = gate if wake is None else min(wake, gate)
    return path, rr_cursor, wake


NOW = 50_000


@st.composite
def decisions(draw):
    """Paths with room on both sides of the packet size and gates around now."""
    size = draw(st.sampled_from([1, 600, MSS]))
    paths, gates = [], []
    for p in range(draw(st.integers(1, 4))):
        ps = PathSendState(p, CongestionController(mss=MSS))
        ps.cc.cwnd = draw(st.integers(2, 20)) * MSS
        room = draw(st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-3 * MSS, 3 * MSS)))
        ps.bytes_in_flight = max(0, ps.cc.cwnd - size - room)
        srtt = draw(st.one_of(st.none(), st.sampled_from([20_000.0, 40_000.0]), st.floats(1.0, 1e6)))
        ps.smoothed_rtt = srtt
        ps.sent_count = draw(st.integers(0, 3))
        paths.append(ps)
        gates.append(NOW + draw(st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-NOW, 20_000))))
    kind = draw(st.sampled_from(SchedulerKind))
    return kind, paths, size, gates, draw(st.integers(-1, 3))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(decisions())
# round robin with path 0 pace-blocked and the cursor at 2: round robin
# takes the next ready id above its cursor, wrapping, so path 3
@example(
    (
        SchedulerKind.ROUND_ROBIN,
        [make_path(p) for p in range(4)],
        MSS,
        [NOW + 1, 0, 0, 0],
        2,
    )
)
def test_single_pass_matches_the_list_based_decision(decision):
    kind, paths, size, gates, cursor = decision
    for ps, gate in zip(paths, gates):
        ps.pace_next = gate
    expected = reference_decision(kind, paths, size, gates, NOW, cursor)
    assert select_path(kind, paths, size, NOW, cursor) == expected


@settings(derandomize=True, deadline=None, max_examples=300)
@given(decisions())
# round robin with paths 0-2 pace-blocked: path 3 is open and has room
@example((SchedulerKind.ROUND_ROBIN, [make_path(p) for p in range(4)], MSS, [NOW + 10] * 3 + [0], -1))
def test_a_path_is_picked_whenever_one_is_past_its_gate_with_room(decision):
    kind, paths, size, gates, cursor = decision
    for ps, gate in zip(paths, gates):
        ps.pace_next = gate
    ready = [ps.path for ps in paths if NOW >= ps.pace_next and ps.bytes_in_flight + size <= ps.cc.cwnd]
    path, _, wake = select_path(kind, paths, size, NOW, cursor)
    assert (path is not None) == bool(ready)
    assert path is None or path in ready
    assert path is None or wake is None
