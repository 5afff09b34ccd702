import random

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


def test_minrtt_picks_smallest_srtt():
    paths = [make_path(0, srtt_ms=50), make_path(1, srtt_ms=20)]
    path, _ = select_path(SchedulerKind.MIN_RTT, paths, MSS)
    assert path == 1


def test_minrtt_ties_break_to_lower_path_id():
    paths = [make_path(0, srtt_ms=20), make_path(1, srtt_ms=20)]
    path, _ = select_path(SchedulerKind.MIN_RTT, paths, MSS)
    assert path == 0


def test_cwnd_limited_path_is_skipped():
    paths = [make_path(0, srtt_ms=50), make_path(1, srtt_ms=20, in_flight_pkts=10)]
    path, _ = select_path(SchedulerKind.MIN_RTT, paths, MSS)
    assert path == 0


def test_no_path_eligible_returns_none():
    paths = [make_path(0, srtt_ms=50, in_flight_pkts=10), make_path(1, srtt_ms=20, in_flight_pkts=10)]
    path, cursor = select_path(SchedulerKind.MIN_RTT, paths, MSS, rr_cursor=5)
    assert path is None
    assert cursor == 5


def test_unprobed_fresh_path_ranks_first_once():
    # path 1 has no sample and nothing sent: probe it before the measured path
    paths = [make_path(0, srtt_ms=20, sent=4), make_path(1)]
    path, _ = select_path(SchedulerKind.MIN_RTT, paths, MSS)
    assert path == 1
    # once something is in its history, an unsampled path waits behind
    # measured ones until its sample lands
    paths = [make_path(0, srtt_ms=20, sent=4), make_path(1, sent=1)]
    path, _ = select_path(SchedulerKind.MIN_RTT, paths, MSS)
    assert path == 0


def round_robin_picks(paths, count):
    """`count` selections, threading the cursor as the simulation does."""
    cursor, picks = -1, []
    for _ in range(count):
        path, cursor = select_path(SchedulerKind.ROUND_ROBIN, paths, MSS, cursor)
        picks.append(path)
    return picks


def test_round_robin_alternates():
    paths = [make_path(0, srtt_ms=50), make_path(1, srtt_ms=20)]
    picks = round_robin_picks(paths, 6)
    assert picks == [1, 0, 1, 0, 1, 0] or picks == [0, 1, 0, 1, 0, 1]


def test_round_robin_skips_ineligible():
    paths = [make_path(0), make_path(1, in_flight_pkts=10), make_path(2)]
    assert round_robin_picks(paths, 4) == [0, 2, 0, 2]


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
        path, _ = select_path(kind, paths, MSS, rr_cursor=rng.randint(-1, 3))
        if path is not None:
            ps = paths[path]
            assert ps.bytes_in_flight + MSS <= ps.cc.cwnd


def test_minrtt_invariant_under_uniform_scaling():
    rng = random.Random(11)
    for _ in range(100):
        srtts = [rng.uniform(5, 500) for _ in range(3)]
        base = [make_path(p, srtt_ms=srtts[p]) for p in range(3)]
        scaled = [make_path(p, srtt_ms=srtts[p] * 3.7) for p in range(3)]
        pick_base, _ = select_path(SchedulerKind.MIN_RTT, base, MSS)
        pick_scaled, _ = select_path(SchedulerKind.MIN_RTT, scaled, MSS)
        assert pick_base == pick_scaled


def test_round_robin_shares_evenly():
    for k in (2, 3, 4):
        paths = [make_path(p, srtt_ms=10 * (p + 1), cwnd_pkts=100) for p in range(k)]
        for n in range(1, 50):
            counts = [0] * k
            for path in round_robin_picks(paths, n):
                counts[path] += 1
            assert max(counts) - min(counts) <= 1
