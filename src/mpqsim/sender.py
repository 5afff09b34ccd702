"""Sender-side (ACK receiver) state machine.

Each number space keeps two columns indexed by packet number, each send's
time and path: one pair shared by every path under SPNS, one per path under
MPNS. `SenderState.send_packet`, the one way to send, numbers a packet by
their length. A `SentPacketRecord` lives only in its path's `unacked`,
until an ACK covers it or it is declared lost; a lost packet's number stays
in its space's `outstanding`, so an ACK covering it marks the loss spurious.
Each packet also has an index in its path's send history, so loss detection
uses per-path packet-count and time thresholds.

RTT samples are attributed per path: an ACK counts toward the path it
arrived on (or the space it names), and yields a sample only when its
largest acknowledged exceeds the largest of every ACK earlier attributed
to that path (RFC 9002 §5.1's newly acknowledged largest, scoped per path
as in draft-ietf-quic-multipath). One int per path suffices because
per-path ACK delivery is FIFO: the return direction has a constant delay
and both anchoring modes only raise the anchor. Samples whose largest was
sent on a different path than the one that carried the ACK land in a mixed
bucket instead of any path's smoothed estimate; with per-path anchored
ACKs this never happens. Each sample is logged where it is taken, in the
report's units (ms), in `Series` columns that the report holds as they
are: a credited one in its path's `rtt_samples_ms`, whose times column its
`srtt_ms` shares, so an instant is stored once; a mixed one in
`SenderState.mixed_samples_ms`.

Each path's state also holds its controller, its pacing gate and its PTO
deadline. A send moves the gate on at cwnd/srtt and restarts the deadline.
An ACK visits every path it newly acknowledges a packet of once, in path
order: the controller's credit, then loss detection, then the deadline,
restarted, or cleared when that path has nothing unacked left.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .congestion import CongestionController
from .core import DEFAULT_MAX_ACK_DELAY, AckFrame, ProtocolError, Series, SpaceMode

K_INITIAL_RTT = 333_000  # microseconds, used for PTO before the first sample
# RFC 9002 §6.1 loss detection; the time threshold is 9/8 of the RTT
K_PACKET_THRESHOLD = 3
K_GRANULARITY = 1_000  # microseconds
# Pacing at cwnd/srtt (RFC 9002 §7.7). Window growth then cannot burst a
# whole newly-acked chunk into a droptail queue at once, and a standing
# queue raises srtt until the pacing rate settles at the bottleneck rate.
PACING_GAIN = 1.0


@dataclass(slots=True)
class SentPacketRecord:
    """One unacked packet; its send time and path are its space's columns."""

    pn: int
    size: int  # payload bytes
    path_history_index: int  # ordinal position within the path's send order
    payload_offset: int = 0  # byte offset of the carried data, for retransmission


class PathSendState:
    """Per-path send history, unacked packets, RTT estimate and samples, cwnd, pacing and PTO."""

    def __init__(self, path: int, cc: CongestionController):
        self.path = path
        self.sent_count = 0  # packets sent so far; the next send's history index
        self.unacked: dict[int, SentPacketRecord] = {}  # insertion = send order
        # send index of the largest acked packet; -1 until one is acked
        self.largest_acked_index: int = -1
        self.latest_rtt: int | None = None
        self.smoothed_rtt: float | None = None
        self.rttvar: float | None = None
        self.min_rtt: int | None = None
        self.bytes_in_flight: int = 0
        self.cc = cc
        # largest acknowledged of every ACK attributed to this path so far
        self.largest_credited: int = -1
        # (ack time ms, value ms) at each sample credited to this path
        self.rtt_samples_ms = Series("d")
        self.srtt_ms = Series("d", times_of=[self.rtt_samples_ms])
        self.pace_next = 0  # pacing gate: the path sends again from this time on
        # PTO deadline (RFC 9002 §6.2.1), None exactly while nothing is unacked
        self.pto_deadline: int | None = None

    def update_rtt(self, sample: int, ack_delay: int = 0) -> None:
        """Fold one RTT sample into latest/min/smoothed/rttvar."""
        if sample <= 0:
            raise ValueError(f"non-positive RTT sample: {sample}")
        self.latest_rtt = sample
        if self.smoothed_rtt is None:
            self.min_rtt = sample
            self.smoothed_rtt = float(sample)
            self.rttvar = sample / 2
            return
        self.min_rtt = min(self.min_rtt, sample)
        adjusted = sample
        if sample >= self.min_rtt + ack_delay:
            adjusted = sample - ack_delay
        self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.smoothed_rtt - adjusted)
        self.smoothed_rtt = 0.875 * self.smoothed_rtt + 0.125 * adjusted

    def pto_interval(self, max_ack_delay: int) -> int:
        srtt = self.smoothed_rtt if self.smoothed_rtt is not None else K_INITIAL_RTT
        var = self.rttvar if self.rttvar is not None else K_INITIAL_RTT / 2
        return int(srtt + 4 * var + max_ack_delay)


class _SpaceState:
    __slots__ = ("outstanding", "send_times", "sent_on")

    def __init__(self) -> None:
        # the numbers an ACK may still newly cover, ascending: each unacked
        # packet's, and each declared-lost one's, which an ACK marks spurious
        self.outstanding: dict[int, None] = {}
        # every send's time and path; index = pn
        self.send_times, self.sent_on = array("q"), array("q")


class SenderState:
    """Connection-level sender: numbering, ack processing, loss detection.

    Path p is controlled by `controllers[p]`. `max_ack_delay` is the
    peer's, which every path's PTO interval adds.
    """

    def __init__(
        self,
        mode: SpaceMode,
        controllers: list[CongestionController],
        max_ack_delay: int = DEFAULT_MAX_ACK_DELAY,
    ):
        num_paths = len(controllers)
        if num_paths < 1:
            raise ValueError("need at least one path")
        self.mode = mode
        self.max_ack_delay = max_ack_delay
        self.paths = [PathSendState(p, cc) for p, cc in enumerate(controllers)]
        self._spaces = {s: _SpaceState() for s in mode.spaces(num_paths)}
        # the space each path sends in, by path id
        self._path_spaces = [self._spaces[mode.space_of(p)] for p in range(num_paths)]
        self.packet_threshold_losses = 0
        self.time_threshold_losses = 0
        self.spurious_count = 0
        self.mixed_samples_ms = Series("d")  # (ack time ms, sample ms)

    def send_packet(self, path: int, size: int, now: int, payload_offset: int = 0) -> SentPacketRecord:
        """Number the next packet of `path`'s space, register the send, and
        move the path's pacing gate and PTO deadline past it."""
        sp, ps = self._path_spaces[path], self.paths[path]
        pn = len(sp.send_times)
        record = ps.unacked[pn] = SentPacketRecord(pn, size, ps.sent_count, payload_offset)
        sp.send_times.append(now)
        sp.sent_on.append(path)
        sp.outstanding[pn] = None
        ps.sent_count += 1
        ps.bytes_in_flight += size
        srtt = ps.smoothed_rtt
        if srtt is not None:
            # paced at cwnd/srtt bytes per second once the path has an estimate
            rate = PACING_GAIN * ps.cc.cwnd / (srtt / 1e6)
            ps.pace_next = max(now, ps.pace_next) + int(size / rate * 1e6)
        ps.pto_deadline = now + ps.pto_interval(self.max_ack_delay)
        return record

    def on_ack_received(
        self, arrival_path: int, frame: AckFrame, now: int
    ) -> tuple[list[SentPacketRecord], list[PathSendState]]:
        """Apply one ACK frame; return the records then declared lost and the paths it visited."""
        space = frame.space
        sp = self._spaces.get(space)
        if sp is None:
            raise ProtocolError(f"ACK names unknown space {space}")
        # under SPNS a sample counts for the path the ACK arrived on
        credit_path = arrival_path if self.mode is SpaceMode.SPNS else space
        # one walk checks the frame and finds the outstanding numbers it covers
        covered = frame.validate(sp.outstanding)
        largest = frame.largest_acked
        if largest >= len(sp.send_times):
            raise ProtocolError(f"ACK covers never-sent packet {largest} in space {space}")
        if now <= sp.send_times[largest]:
            raise ProtocolError(f"ACK at {now} covers packet {largest}, sent at {sp.send_times[largest]}")

        acked_bytes_by_path: dict[int, int] = {}
        outstanding, sent_on, paths = sp.outstanding, sp.sent_on, self.paths
        for pn in covered:
            del outstanding[pn]
            path = sent_on[pn]
            ps = paths[path]
            rec = ps.unacked.pop(pn, None)
            if rec is None:
                self.spurious_count += 1  # declared lost before
                continue
            ps.bytes_in_flight -= rec.size
            # packet numbers rise with send indexes on a path
            if rec.path_history_index > ps.largest_acked_index:
                ps.largest_acked_index = rec.path_history_index
            acked_bytes_by_path[path] = acked_bytes_by_path.get(path, 0) + rec.size

        credit_state = paths[credit_path]
        if largest > credit_state.largest_credited:
            sample = now - sp.send_times[largest]
            if sp.sent_on[largest] == credit_path:
                credit_state.update_rtt(sample, frame.ack_delay)
                credit_state.rtt_samples_ms.append(now / 1000, sample / 1000)
                credit_state.srtt_ms.values.append(credit_state.smoothed_rtt / 1000)
            else:
                self.mixed_samples_ms.append(now / 1000, sample / 1000)
            credit_state.largest_credited = largest

        lost: list[SentPacketRecord] = []
        acked_paths = [paths[path] for path in sorted(acked_bytes_by_path)]
        for ps in acked_paths:
            ps.cc.on_ack(acked_bytes_by_path[ps.path], now)
            lost += self.detect_losses(ps.path, now)
            ps.pto_deadline = now + ps.pto_interval(self.max_ack_delay) if ps.unacked else None
        return lost, acked_paths

    def detect_losses(self, path: int, now: int) -> list[SentPacketRecord]:
        """Declare per-path losses by packet count and time thresholds.

        A packet is lost when the path's largest acked packet was sent at
        least `K_PACKET_THRESHOLD` sends after it, or when it was sent before
        the largest acked and has aged past 9/8 of the path's RTT.
        """
        ps, send_times = self.paths[path], self._path_spaces[path].send_times
        i = ps.largest_acked_index
        rtt_basis = max(ps.smoothed_rtt or 0, ps.latest_rtt or 0)
        time_cutoff = None
        if rtt_basis > 0:
            time_cutoff = now - max(rtt_basis * 9 / 8, K_GRANULARITY)
        out: list[SentPacketRecord] = []
        for rec in ps.unacked.values():
            idx = rec.path_history_index
            if idx >= i:
                break  # sent at or after the largest acked packet
            if idx <= i - K_PACKET_THRESHOLD:
                self.packet_threshold_losses += 1
            elif time_cutoff is not None and send_times[rec.pn] <= time_cutoff:
                self.time_threshold_losses += 1
            else:
                continue
            ps.bytes_in_flight -= rec.size
            if send_times[rec.pn] > ps.cc.recovery_start_time:
                ps.cc.on_loss(now)
            out.append(rec)
        for rec in out:  # the dict cannot shrink while it is walked
            del ps.unacked[rec.pn]  # the number stays in its space's outstanding
        return out
