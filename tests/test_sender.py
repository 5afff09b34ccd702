from array import array
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpqsim.congestion import CcAlgorithm, CongestionController
from mpqsim.core import AckFrame, AckRange, InvariantViolation, ProtocolError, SpaceMode
from mpqsim.sender import SenderState

FIG_PATH_OF_PN = {
    0: 1, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 0, 7: 0,
    8: 1, 9: 1, 10: 1, 11: 0, 12: 0, 13: 1, 14: 1, 15: 1,
}


def make_sender(mode=SpaceMode.SPNS, paths=2):
    return SenderState(mode, [CongestionController() for _ in range(paths)])


def send_fig_history(sender, size=100):
    """Interleave sends so path 0 carries {1,2,6,7,11,12}."""
    for pn in range(16):
        rec = sender.send_packet(FIG_PATH_OF_PN[pn], size, now=pn)
        assert rec.pn == pn
    return sender


def unacked_pns(sender):
    return {pn for ps in sender.paths for pn in ps.unacked}


def acknowledge(sender, arrival_path, frame, now):
    """Process `frame`; return the pns it newly acked and the records it declared lost.

    Newly acked = unacked before - unacked after - declared lost (SPNS only,
    where a pn names one packet). The paths the sender reports are checked
    to be exactly those of the newly acked pns, in path order.
    """
    path_of = {pn: ps.path for ps in sender.paths for pn in ps.unacked}
    lost, acked_paths = sender.on_ack_received(arrival_path, frame, now)
    newly = path_of.keys() - unacked_pns(sender) - {r.pn for r in lost}
    assert acked_paths == [sender.paths[p] for p in sorted({path_of[pn] for pn in newly})]
    return newly, lost


def plain_state(value):
    """A sender's whole state as plain data, to compare before and after a call:
    objects by their attributes, containers by their items in order."""
    if isinstance(value, dict):
        return [(key, plain_state(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple, array)):
        return [plain_state(item) for item in value]
    if isinstance(value, Enum):
        return value
    if hasattr(value, "__dict__"):
        return plain_state(vars(value))
    if hasattr(value, "__slots__"):
        return [(name, plain_state(getattr(value, name))) for name in value.__slots__]
    return value


def ack(space=0, largest=None, ranges=None, delay=0):
    """The frame of `ranges`, or else of every number up to `largest`."""
    return AckFrame(space=space, ack_delay=delay, ranges=ranges or [AckRange(largest, 0)])


# -- numbering -----------------------------------------------------------------


def test_spns_numbers_globally():
    sender = make_sender(SpaceMode.SPNS)
    pns = [sender.send_packet(p, 100, now=0).pn for p in (0, 1, 0, 1, 0, 1)]
    assert pns == [0, 1, 2, 3, 4, 5]


def test_mpns_numbers_per_path():
    sender = make_sender(SpaceMode.MPNS)
    path0 = [sender.send_packet(0, 100, now=0).pn for _ in range(3)]
    path1 = [sender.send_packet(1, 100, now=0).pn for _ in range(3)]
    assert path0 == [0, 1, 2]
    assert path1 == [0, 1, 2]


def test_spns_discontinuous_path_histories():
    sender = send_fig_history(make_sender())

    def history(path):
        # packet numbers in the order of their per-path send index
        records = sorted(sender.paths[path].unacked.values(), key=lambda r: r.path_history_index)
        assert [r.path_history_index for r in records] == list(range(len(records)))
        return [r.pn for r in records]

    assert history(0) == [1, 2, 6, 7, 11, 12]
    assert history(1) == [0, 3, 4, 5, 8, 9, 10, 13, 14, 15]
    assert [ps.sent_count for ps in sender.paths] == [6, 10]


# -- send bookkeeping ------------------------------------------------------------


def test_bytes_in_flight_counts_eliciting_unacked():
    sender = make_sender()
    sender.send_packet(0, 500, now=0)
    sender.send_packet(0, 300, now=1)
    assert sender.paths[0].bytes_in_flight == 800


# -- ack processing ----------------------------------------------------------------


def test_ack_marks_covered_and_samples_arrival_path():
    sender = send_fig_history(make_sender())
    newly, _ = acknowledge(sender, 0, ack(ranges=[AckRange(7, 0)]), now=1000)
    assert newly == set(range(8))
    # logged in ms at the ACK's time: the send time of pn 7 was 7
    assert sender.paths[0].rtt_samples_ms == [(1.0, (1000 - 7) / 1000)]
    assert sender.paths[0].srtt_ms == [(1.0, 0.993)]
    assert sender.paths[1].rtt_samples_ms == []
    assert sender.paths[0].largest_acked_index == 3  # pn 7, path 0's fourth send
    assert sender.paths[1].largest_acked_index == 3  # pn 5, the largest path-1 pn below 8


def test_ack_with_already_credited_largest_gives_no_sample():
    sender = make_sender()
    sender.send_packet(0, 100, now=0)
    sender.send_packet(0, 100, now=1)
    sender.on_ack_received(0, ack(largest=1), now=100)
    assert sender.paths[0].rtt_samples_ms == [(0.1, 0.099)]
    newly, _ = acknowledge(sender, 0, ack(largest=1), now=200)
    assert sender.paths[0].rtt_samples_ms == [(0.1, 0.099)]
    assert newly == set()


def test_ack_reports_only_the_paths_it_newly_acknowledged():
    sender = send_fig_history(make_sender())
    deadlines = [ps.pto_deadline for ps in sender.paths]
    # pns 1 and 2 were sent on path 0; the frame arrives on path 1
    lost, acked_paths = sender.on_ack_received(1, ack(ranges=[AckRange(2, 1)]), now=1000)
    assert lost == [] and acked_paths == [sender.paths[0]]
    assert sender.paths[0].pto_deadline > deadlines[0]
    assert sender.paths[1].pto_deadline == deadlines[1]


def test_ack_of_only_spurious_numbers_reports_no_path():
    sender = make_sender()
    for i in range(5):
        sender.send_packet(0, 100, now=i)
    lost, _ = sender.on_ack_received(0, ack(ranges=[AckRange(4, 4)]), now=1000)
    assert [r.pn for r in lost] == [0, 1]
    deadline = sender.paths[0].pto_deadline
    assert sender.on_ack_received(0, ack(ranges=[AckRange(1, 0)]), now=2000) == ([], [])
    assert sender.spurious_count == 2 and sender.paths[0].pto_deadline == deadline


def test_same_path_ack_below_largest_credited_gives_no_sample():
    # an ACK that reached path 0 after one with a larger largest (which this
    # model cannot deliver) acknowledges packets but yields no sample
    sender = make_sender()
    for t in range(3):
        sender.send_packet(0, 100, now=t)  # pns 0, 1, 2 on path 0
    sender.on_ack_received(0, ack(ranges=[AckRange(2, 2)]), now=100)
    assert sender.paths[0].rtt_samples_ms == [(0.1, 0.098)]
    newly, _ = acknowledge(sender, 0, ack(ranges=[AckRange(1, 0)]), now=150)
    assert newly == {0, 1}
    assert sender.paths[0].rtt_samples_ms == [(0.1, 0.098)]
    assert sender.mixed_samples_ms == []
    assert sender.paths[0].largest_credited == 2


def test_slow_path_still_samples_after_cross_path_coverage():
    # pn 0 goes on the slow path, pn 1 on the fast one; the fast path's ACK
    # covers both first, yet the slow path's own ACK still yields its sample
    sender = make_sender()
    sender.send_packet(1, 100, now=0)  # pn 0 on path 1
    sender.send_packet(0, 100, now=10)  # pn 1 on path 0
    sender.on_ack_received(0, ack(ranges=[AckRange(1, 0)]), now=40)
    assert sender.paths[0].rtt_samples_ms == [(0.04, 0.03)]
    assert sender.paths[1].rtt_samples_ms == []
    newly, _ = acknowledge(sender, 1, ack(ranges=[AckRange(0, 0)]), now=120)
    assert sender.paths[1].rtt_samples_ms == [(0.12, 0.12)]
    assert sender.paths[0].rtt_samples_ms == [(0.04, 0.03)]
    assert newly == set()  # nothing newly acked connection-wide


def test_mismatched_largest_goes_to_mixed_bucket():
    sender = make_sender()
    sender.send_packet(0, 100, now=0)  # pn 0 on path 0
    sender.send_packet(0, 100, now=1)
    sender.on_ack_received(1, ack(ranges=[AckRange(1, 0)]), now=90)
    assert sender.mixed_samples_ms == [(0.09, 0.089)]
    assert [ps.rtt_samples_ms for ps in sender.paths] == [[], []]
    assert [ps.srtt_ms for ps in sender.paths] == [[], []]
    assert sender.paths[0].smoothed_rtt is None
    assert sender.paths[1].smoothed_rtt is None


def test_stale_cross_path_ack_is_of_no_use():
    sender = make_sender()
    sender.send_packet(0, 100, now=0)
    sender.send_packet(0, 100, now=1)
    sender.on_ack_received(1, ack(ranges=[AckRange(1, 0)]), now=90)
    # a second slow-path ACK with the same largest: acked already, no sample
    sender.on_ack_received(1, ack(ranges=[AckRange(1, 0)]), now=150)
    assert [ps.rtt_samples_ms for ps in sender.paths] == [[], []]
    assert sender.mixed_samples_ms == [(0.09, 0.089)]  # no second mixed sample


def test_ack_for_never_sent_packet_is_protocol_error():
    sender = make_sender()
    sender.send_packet(0, 100, now=0)
    with pytest.raises(ProtocolError):
        sender.on_ack_received(0, ack(largest=5), now=10)


def test_refused_frame_changes_no_sender_state():
    sender = send_fig_history(make_sender())
    before = plain_state(sender)
    # the bottom range covers outstanding packets before the walk meets the
    # overlapping range above it
    with pytest.raises(InvariantViolation):
        sender.on_ack_received(0, ack(ranges=[AckRange(9, 6), AckRange(6, 0)]), now=50)
    # a well-formed frame whose largest was never sent
    with pytest.raises(ProtocolError):
        sender.on_ack_received(0, ack(ranges=[AckRange(20, 18), AckRange(6, 0)]), now=50)
    assert plain_state(sender) == before
    newly, _ = acknowledge(sender, 0, ack(ranges=[AckRange(7, 6), AckRange(2, 0)]), now=50)
    assert newly == {0, 1, 2, 6, 7}


def test_ack_no_later_than_its_largest_send_changes_no_sender_state():
    sender = make_sender()
    sender.send_packet(0, 1000, now=5_000)
    before = plain_state(sender)
    # a sample of 0 or less: refused before any record is freed or window credited
    for now in (5_000, 4_000):
        with pytest.raises(ProtocolError, match="sent at 5000"):
            sender.on_ack_received(0, ack(largest=0), now=now)
        assert plain_state(sender) == before
    sender.on_ack_received(0, ack(largest=0), now=5_001)
    assert (sender.paths[0].unacked, sender.paths[0].pto_deadline) == ({}, None)


def test_negative_ack_delay_changes_no_sender_state():
    sender = make_sender()
    sender.send_packet(0, 100, now=0)
    sender.on_ack_received(0, ack(largest=0), now=50_000)
    sender.send_packet(0, 100, now=100_000)
    before = plain_state(sender)
    # a 50 ms sample with it would have raised srtt from 50 to 55 ms
    with pytest.raises(InvariantViolation, match="negative ack_delay"):
        sender.on_ack_received(0, ack(largest=1, delay=-40_000), now=150_000)
    assert plain_state(sender) == before
    assert sender.paths[0].smoothed_rtt == 50_000


def test_mpns_ack_targets_its_space():
    sender = make_sender(SpaceMode.MPNS)
    sender.send_packet(0, 100, now=0)  # path 0 space, pn 0
    sender.send_packet(1, 100, now=5)  # path 1 space, pn 0
    sender.on_ack_received(0, ack(space=1, largest=0), now=100)
    # sample is attributed to the space's path, not the arrival path
    assert sender.paths[1].rtt_samples_ms == [(0.1, 0.095)]
    assert sender.paths[0].rtt_samples_ms == []
    assert sender.mixed_samples_ms == []
    assert sender.paths[1].unacked == {}
    assert 0 in sender.paths[0].unacked
    with pytest.raises(ProtocolError):
        sender.on_ack_received(0, ack(space=7, largest=0), now=200)


def test_spns_refuses_a_frame_naming_another_space():
    sender = send_fig_history(make_sender(SpaceMode.SPNS))
    before = plain_state(sender)
    # the shared space is 0; a frame naming any other acknowledges nothing
    with pytest.raises(ProtocolError, match="unknown space 7"):
        sender.on_ack_received(0, ack(space=7, largest=1), now=100)
    assert plain_state(sender) == before


# -- pacing gate and PTO deadline ------------------------------------------------


def test_pacing_gate_opens_at_cwnd_over_srtt():
    sender = make_sender(paths=1)
    ps = sender.paths[0]
    sender.send_packet(0, 1_000, now=0)
    assert ps.pace_next == 0  # no RTT estimate yet: unpaced
    ps.update_rtt(100_000)
    ps.cc.cwnd = 10_000  # 100 kB/s at 100 ms
    sender.send_packet(0, 1_000, now=5_000)
    assert ps.pace_next == 15_000
    # a send before the gate (a probe) moves it on from the gate, not from now
    sender.send_packet(0, 500, now=6_000)
    assert ps.pace_next == 20_000


def test_pto_deadline_is_set_exactly_while_packets_are_unacked():
    controllers = [CongestionController(), CongestionController()]
    sender = SenderState(SpaceMode.SPNS, controllers, max_ack_delay=10_000)
    ps = sender.paths[0]
    assert ps.pto_deadline is None
    sender.send_packet(0, 100, now=0)
    sender.send_packet(0, 100, now=10)
    assert ps.pto_deadline == 10 + ps.pto_interval(10_000)
    sender.on_ack_received(0, ack(largest=0), now=50_000)
    # restarted from the ACK, with the sample it carried
    assert ps.pto_deadline == 50_000 + ps.pto_interval(10_000) == 50_000 + 50_000 + 100_000 + 10_000
    # an ACK that credits path 0 but acknowledges only path 1 leaves it alone
    sender.send_packet(1, 100, now=60_000)
    sender.on_ack_received(0, ack(ranges=[AckRange(2, 2), AckRange(0, 0)]), now=70_000)
    assert ps.pto_deadline == 50_000 + 160_000
    sender.on_ack_received(0, ack(largest=1), now=80_000)
    assert ps.unacked == {} and ps.pto_deadline is None


# -- RTT estimator ------------------------------------------------------------------


def test_first_sample_initializes_estimator():
    sender = make_sender()
    ps = sender.paths[0]
    ps.update_rtt(100_000)
    assert ps.smoothed_rtt == 100_000
    assert ps.rttvar == 50_000
    assert ps.min_rtt == 100_000


def test_second_sample_updates_var_then_mean():
    ps = make_sender().paths[0]
    ps.update_rtt(100_000)
    ps.update_rtt(100_000, ack_delay=0)
    assert ps.smoothed_rtt == pytest.approx(100_000)
    assert ps.rttvar == pytest.approx(37_500)


def test_constant_samples_converge():
    ps = make_sender().paths[0]
    for _ in range(200):
        ps.update_rtt(80_000)
    assert ps.smoothed_rtt == pytest.approx(80_000, rel=1e-6)
    assert ps.rttvar == pytest.approx(0, abs=1)


def test_ack_delay_subtracted_only_above_min_rtt():
    ps = make_sender().paths[0]
    ps.update_rtt(100_000)
    # 130ms sample with 20ms delay: adjusted to 110ms
    ps.update_rtt(130_000, ack_delay=20_000)
    assert ps.smoothed_rtt == pytest.approx(0.875 * 100_000 + 0.125 * 110_000)
    # sample below min_rtt + delay is used unadjusted
    before = ps.smoothed_rtt
    ps.update_rtt(100_000, ack_delay=50_000)
    assert ps.smoothed_rtt == pytest.approx(0.875 * before + 0.125 * 100_000)


def test_min_rtt_is_a_running_minimum():
    ps = make_sender().paths[0]
    for sample in (90_000, 120_000, 75_000, 100_000):
        ps.update_rtt(sample)
    assert ps.min_rtt == 75_000


def test_non_positive_sample_rejected():
    ps = make_sender().paths[0]
    with pytest.raises(ValueError):
        ps.update_rtt(0)


# -- loss detection -------------------------------------------------------------------


def test_packet_threshold_uses_path_history():
    sender = send_fig_history(make_sender())
    lost, _ = sender.on_ack_received(0, ack(ranges=[AckRange(11, 11)]), now=1000)
    # path 0 history [1,2,6,7,11,12]: 11 sits at index 4, so 1 and 2
    # (indices 0 and 1) are at least kPacketThreshold=3 sends behind
    assert {r.pn for r in lost} == {1, 2}
    assert sender.packet_threshold_losses == 2
    assert 6 in sender.paths[0].unacked and 7 in sender.paths[0].unacked


def test_connection_wide_threshold_would_misfire_but_path_rule_does_not():
    sender = send_fig_history(make_sender())
    acked_pn = 11
    k = 3
    naive_lost = {pn for pn in range(16) if pn <= acked_pn - k and pn != acked_pn}
    # the naive rule would flag path-1 packets 0,3,4,5,8 as lost
    assert {pn for pn in naive_lost if FIG_PATH_OF_PN[pn] == 1} != set()
    sender.on_ack_received(0, ack(ranges=[AckRange(11, 11)]), now=1000)
    assert all(pn in sender.paths[1].unacked for pn in (0, 3, 4, 5, 8, 9, 10))


def test_largest_equal_to_first_send_loses_nothing():
    sender = make_sender()
    sender.send_packet(0, 100, now=0)
    sender.send_packet(0, 100, now=1)
    assert sender.on_ack_received(0, ack(ranges=[AckRange(0, 0)]), now=100) == ([], [sender.paths[0]])


def test_time_threshold_declares_aged_packets():
    sender = make_sender()
    sender.send_packet(0, 100, now=0)  # pn 0, will age out
    sender.send_packet(0, 100, now=200_000)  # pn 1
    lost, _ = sender.on_ack_received(0, ack(ranges=[AckRange(1, 1)]), now=300_000)
    # srtt = 100ms; cutoff = 300ms - 112.5ms; pn 0 sent at 0 is long gone
    assert [r.pn for r in lost] == [0]
    assert sender.time_threshold_losses == 1
    assert sender.packet_threshold_losses == 0


def test_spurious_ack_counted_once_and_flight_not_double_decremented():
    sender = make_sender()
    for i in range(5):
        sender.send_packet(0, 100, now=i)
    sender.on_ack_received(0, ack(ranges=[AckRange(4, 4)]), now=1000)
    assert sender.packet_threshold_losses == 2  # pns 0 and 1
    assert sender.paths[0].bytes_in_flight == 200  # pns 2, 3 still out
    outstanding = sender._spaces[0].outstanding
    assert list(outstanding) == [0, 1, 2, 3]  # the lost pns 0 and 1 stay here
    newly, _ = acknowledge(sender, 0, ack(ranges=[AckRange(4, 0)]), now=2000)
    assert outstanding == {}  # the spurious pns 0 and 1 left with 2 and 3
    assert newly == {2, 3}
    assert sender.paths[0].bytes_in_flight == 0
    assert sender.spurious_count == 2
    sender.on_ack_received(0, ack(ranges=[AckRange(4, 0)]), now=3000)
    assert sender.spurious_count == 2


def test_congestion_notified_once_per_loss_event():
    cc_events = []

    class SpyCc(CongestionController):
        def on_loss(self, now):
            cc_events.append(now)
            super().on_loss(now)

    sender = SenderState(SpaceMode.SPNS, [SpyCc(CcAlgorithm.CUBIC)])
    for i in range(6):
        sender.send_packet(0, 100, now=i)
    sender.on_ack_received(0, ack(ranges=[AckRange(5, 5)]), now=1000)
    assert sender.packet_threshold_losses == 3  # pns 0,1,2 in one event
    assert len(cc_events) == 1


def test_conservation_of_bytes_in_flight():
    sender = send_fig_history(make_sender())
    def check():
        for ps in sender.paths:
            expected = sum(r.size for r in ps.unacked.values())
            assert ps.bytes_in_flight == expected
    check()
    sender.on_ack_received(0, ack(ranges=[AckRange(11, 11)]), now=1000)
    check()
    sender.on_ack_received(1, ack(ranges=[AckRange(10, 8)]), now=2000)
    check()
    sender.on_ack_received(0, ack(ranges=[AckRange(12, 0)]), now=3000)
    check()


def _frame_of(pns: set[int]) -> AckFrame:
    """The frame acknowledging exactly `pns`: maximal runs, largest first."""
    ranges: list[list[int]] = []
    for pn in sorted(pns, reverse=True):
        if ranges and ranges[-1][1] == pn + 1:
            ranges[-1][1] = pn
        else:
            ranges.append([pn, pn])
    return ack(ranges=[AckRange(hi, lo) for hi, lo in ranges])


@settings(max_examples=200)
@given(st.data())
def test_ack_processing_matches_brute_force(data):
    """Newly acked and spurious packets are the unacked and lost packets in the frame."""
    paths = data.draw(st.integers(1, 3))
    sender = make_sender(SpaceMode.SPNS, paths)
    count = data.draw(st.integers(2, 40))
    for t in range(count):
        sender.send_packet(data.draw(st.integers(0, paths - 1)), 100, now=t)
    lost: set[int] = set()
    for round_ in range(data.draw(st.integers(1, 5))):
        acked = set(data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=count)))
        unacked = unacked_pns(sender)
        spurious_before = sender.spurious_count
        assert lost <= set(sender._spaces[0].outstanding)
        newly, declared = acknowledge(
            sender,
            data.draw(st.integers(0, paths - 1)),
            _frame_of(acked),
            now=1000 * (round_ + 1),
        )
        assert newly == unacked & acked
        assert not {r.pn for r in declared} & acked
        assert sender.spurious_count - spurious_before == len(lost & acked)
        assert not (lost & acked) & set(sender._spaces[0].outstanding)
        lost = (lost - acked) | {r.pn for r in declared}
