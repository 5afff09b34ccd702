"""Sender-side (ACK receiver) state machine.

Each number space keeps one list of its sent records, indexed by packet
number: one list shared by every path under SPNS, one per path under MPNS.
`SenderState.send_packet`, the one way to send, numbers a packet by the
length of its space's list. Each packet also has an index in its path's send
history, so loss detection uses per-path packet-count and time thresholds.

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
report's units (ms): a credited one in its path's `rtt_samples_ms` and
`srtt_ms`, a mixed one in `SenderState.mixed_samples_ms`.

Each path's state also holds its pacing gate and its PTO deadline. A send
moves the gate on at cwnd/srtt and restarts the deadline; an ACK restarts
the deadline of every path it newly acknowledges a packet of, and clears
it when that path has nothing unacked left.
"""

from __future__ import annotations

from .congestion import CcAlgorithm, CongestionController
from .core import DEFAULT_MAX_ACK_DELAY, AckFrame, ProtocolError, SentPacketRecord, SpaceMode

K_INITIAL_RTT = 333_000  # microseconds, used for PTO before the first sample
# RFC 9002 §6.1 loss detection; the time threshold is 9/8 of the RTT
K_PACKET_THRESHOLD = 3
K_GRANULARITY = 1_000  # microseconds
# Pacing at cwnd/srtt (RFC 9002 §7.7). Window growth then cannot burst a
# whole newly-acked chunk into a droptail queue at once, and a standing
# queue raises srtt until the pacing rate settles at the bottleneck rate.
PACING_GAIN = 1.0


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
        self.rtt_samples_ms: list[tuple[float, float]] = []
        self.srtt_ms: list[tuple[float, float]] = []
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
    __slots__ = ("outstanding", "records")

    def __init__(self) -> None:
        # unacked and declared-lost records, ascending pn; a record missing
        # from its path's `unacked` was declared lost, and an ACK covering
        # it marks the loss spurious
        self.outstanding: dict[int, SentPacketRecord] = {}
        self.records: list[SentPacketRecord] = []  # every send; index = pn


class SenderState:
    """Connection-level sender: numbering, ack processing, loss detection.

    `max_ack_delay` is the peer's, which every path's PTO interval adds.
    """

    def __init__(
        self,
        mode: SpaceMode,
        num_paths: int,
        cc_factory=None,
        max_ack_delay: int = DEFAULT_MAX_ACK_DELAY,
    ):
        if num_paths < 1:
            raise ValueError("need at least one path")
        self.mode = mode
        self.max_ack_delay = max_ack_delay
        if cc_factory is None:
            cc_factory = lambda path: CongestionController(CcAlgorithm.CUBIC)
        self.paths = [PathSendState(p, cc_factory(p)) for p in range(num_paths)]
        self._spaces = {s: _SpaceState() for s in mode.spaces(num_paths)}
        # the space each path sends in, by path id
        self._path_spaces = [self._spaces[mode.space_of(p)] for p in range(num_paths)]
        self.packet_threshold_losses = 0
        self.time_threshold_losses = 0
        self.spurious_count = 0
        self.mixed_samples_ms: list[tuple[float, float]] = []  # (ack time ms, sample ms)

    def send_packet(self, path: int, size: int, now: int, payload_offset: int = 0) -> SentPacketRecord:
        """Number the next packet of `path`'s space, register the send, and
        move the path's pacing gate and PTO deadline past it."""
        sp, ps = self._path_spaces[path], self.paths[path]
        record = SentPacketRecord(
            pn=len(sp.records),
            path=path,
            send_time=now,
            size=size,
            path_history_index=ps.sent_count,
            payload_offset=payload_offset,
        )
        sp.records.append(record)
        sp.outstanding[record.pn] = ps.unacked[record.pn] = record
        ps.sent_count += 1
        ps.bytes_in_flight += size
        srtt = ps.smoothed_rtt
        if srtt is not None:
            # paced at cwnd/srtt bytes per second once the path has an estimate
            rate = PACING_GAIN * ps.cc.cwnd / (srtt / 1e6)
            ps.pace_next = max(now, ps.pace_next) + int(size / rate * 1e6)
        ps.pto_deadline = now + ps.pto_interval(self.max_ack_delay)
        return record

    def on_ack_received(self, arrival_path: int, frame: AckFrame, now: int) -> list[SentPacketRecord]:
        """Apply one ACK frame and return the records then declared lost."""
        space = frame.space
        sp = self._spaces.get(space)
        if sp is None:
            raise ProtocolError(f"ACK names unknown space {space}")
        # under SPNS a sample counts for the path the ACK arrived on
        credit_path = arrival_path if self.mode is SpaceMode.SPNS else space
        # one walk checks the frame and finds the outstanding numbers it covers
        covered = frame.validate(sp.outstanding)
        if frame.largest_acked >= len(sp.records):
            raise ProtocolError(
                f"ACK covers never-sent packet {frame.largest_acked} in space {space}"
            )
        largest_record = sp.records[frame.largest_acked]

        credit_state = self.paths[credit_path]
        largest_newly_for_path = frame.largest_acked > credit_state.largest_credited

        acked_bytes_by_path: dict[int, int] = {}
        outstanding, paths = sp.outstanding, self.paths
        for pn in covered:
            rec = outstanding.pop(pn)
            ps = paths[rec.path]
            if ps.unacked.pop(pn, None) is None:
                self.spurious_count += 1  # declared lost before
                continue
            ps.bytes_in_flight -= rec.size
            # packet numbers rise with send indexes on a path
            if rec.path_history_index > ps.largest_acked_index:
                ps.largest_acked_index = rec.path_history_index
            acked_bytes_by_path[rec.path] = acked_bytes_by_path.get(rec.path, 0) + rec.size
        for path, acked in acked_bytes_by_path.items():
            self.paths[path].cc.on_ack(acked, now)

        if largest_newly_for_path:
            sample = now - largest_record.send_time
            t_ms = now / 1000
            if largest_record.path == credit_path:
                credit_state.update_rtt(sample, frame.ack_delay)
                credit_state.rtt_samples_ms.append((t_ms, sample / 1000))
                credit_state.srtt_ms.append((t_ms, credit_state.smoothed_rtt / 1000))
            else:
                self.mixed_samples_ms.append((t_ms, sample / 1000))
            credit_state.largest_credited = frame.largest_acked

        lost: list[SentPacketRecord] = []
        for path in sorted(acked_bytes_by_path):
            lost += self.detect_losses(path, now)
            ps = paths[path]
            ps.pto_deadline = now + ps.pto_interval(self.max_ack_delay) if ps.unacked else None
        return lost

    def detect_losses(self, path: int, now: int) -> list[SentPacketRecord]:
        """Declare per-path losses by packet count and time thresholds.

        A packet is lost when the path's largest acked packet was sent at
        least `K_PACKET_THRESHOLD` sends after it, or when it was sent before
        the largest acked and has aged past 9/8 of the path's RTT.
        """
        ps = self.paths[path]
        i = ps.largest_acked_index
        rtt_basis = max(ps.smoothed_rtt or 0, ps.latest_rtt or 0)
        time_cutoff = None
        if rtt_basis > 0:
            time_cutoff = now - max(rtt_basis * 9 / 8, K_GRANULARITY)
        lost: list[tuple[SentPacketRecord, bool]] = []
        for rec in ps.unacked.values():
            idx = rec.path_history_index
            if idx >= i:
                break  # sent at or after the largest acked packet
            if idx <= i - K_PACKET_THRESHOLD:
                lost.append((rec, True))
            elif time_cutoff is not None and rec.send_time <= time_cutoff:
                lost.append((rec, False))
        out = []
        for rec, by_count in lost:
            del ps.unacked[rec.pn]  # the record stays in its space's outstanding
            ps.bytes_in_flight -= rec.size
            if by_count:
                self.packet_threshold_losses += 1
            else:
                self.time_threshold_losses += 1
            if rec.send_time > ps.cc.recovery_start_time:
                ps.cc.on_loss(now)
            out.append(rec)
        return out
