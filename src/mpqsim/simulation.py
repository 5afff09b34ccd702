"""Drives one sender and one receiver over the simulated paths.

The transfer is one-directional: the server streams `transfer_size` bytes
split into MTU-sized packets; the client only returns ACK frames. Lost
payload is retransmitted under a fresh packet number. The run ends when
the client holds every payload byte, or at the duration cap.
"""

from __future__ import annotations

import math
import random
from collections import deque

from .congestion import CongestionController
from .core import ack_frame_wire_size
from .netsim import EventLoop, LinkDirection, LinkModel, ms_to_us
from .receiver import ReceiverState
from .scenario import MetricsReport, ScenarioConfig
from .scheduler import select_path
from .sender import SenderState


def auto_window_packets(link: LinkModel, mtu: int) -> int | None:
    """BDP plus roughly 3 ms of queue allowance, in packets of `mtu` bytes.

    Keeps a rate-limited path busy while bounding droptail occupancy (and
    therefore queueing delay) well below the queue capacity.
    """
    if link.rate_mbps is None:
        return None
    rate_bps = link.rate_mbps * 1e6
    rtt_s = (link.delay_down_ms + link.delay_up_ms) / 1e3
    bdp_packets = math.ceil(rate_bps * rtt_s / (8 * mtu))
    headroom = max(2, int(rate_bps * 0.003 / (8 * mtu)))
    return bdp_packets + headroom


class Simulation:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.mode = config.mode
        self.mtu = config.mtu

        self.down: list[LinkDirection] = []
        self.up: list[LinkDirection] = []
        controllers: list[CongestionController] = []
        for p, lm in enumerate(config.paths):
            self.down.append(
                LinkDirection(
                    delay_us=ms_to_us(lm.delay_down_ms),
                    rate_bps=lm.rate_mbps * 1e6 if lm.rate_mbps is not None else None,
                    trace=lm.trace,
                    loss_rate=lm.loss_rate,
                    queue_capacity=lm.queue_capacity,
                    rng=random.Random(f"{config.seed}/path{p}/down"),
                )
            )
            self.up.append(
                LinkDirection(
                    delay_us=ms_to_us(lm.delay_up_ms),
                    loss_rate=lm.reverse_loss_rate,
                    rng=random.Random(f"{config.seed}/path{p}/up"),
                )
            )
            window = lm.window_packets
            if window == "auto":
                window = auto_window_packets(lm, self.mtu)
            max_cwnd = window * self.mtu if window is not None else None
            controllers.append(CongestionController(config.cc, mss=self.mtu, max_cwnd=max_cwnd))

        self.sender = SenderState(config.mode, controllers, config.recv.max_ack_delay)
        self.receiver = ReceiverState(config.mode, len(config.paths), config.recv)
        self.loop = EventLoop()

        self.retx_queue: deque[tuple[int, int]] = deque()  # (offset, size)
        self.next_offset = 0
        # payload held by the client: every byte below `delivered_to`, and
        # the chunks above it (offset -> size)
        self.delivered_to = 0
        self.delivered_above: dict[int, int] = {}
        self.completion_us: int | None = None
        self.report: MetricsReport | None = None  # set when the run ends

        self.ack_size_sum = 0
        self.ack_frames = 0
        self.range_hist: dict[int, int] = {}

        self._rr_cursor = -1  # the path of the last send select_path picked

    # -- sending ---------------------------------------------------------

    def _send_on_path(self, path: int, size: int, offset: int, now: int) -> None:
        rec = self.sender.send_packet(path, size, now, offset)
        arrival = self.down[path].transmit(size, now)
        if arrival is not None:
            self.loop.schedule(arrival, self._on_data, path, rec.pn, size, offset)
        self.loop.set_timer(("pto", path), self.sender.paths[path].pto_deadline, self._on_pto, path)

    def _try_send(self, now: int) -> None:
        config, paths = self.config, self.sender.paths
        while True:
            if self.retx_queue:
                offset, size = self.retx_queue[0]
            elif self.next_offset < config.transfer_size:
                offset = self.next_offset
                size = min(self.mtu, config.transfer_size - offset)
            else:
                return
            path, wake = select_path(config.scheduler, paths, size, now, self._rr_cursor)
            if path is None:
                # wake up when the earliest pace-blocked path with room frees up
                if wake is not None:
                    self.loop.set_timer("wake", wake, self._try_send)
                return
            self._rr_cursor = path
            if self.retx_queue:
                self.retx_queue.popleft()
            else:
                self.next_offset += size
            self._send_on_path(path, size, offset, now)

    # -- timers ------------------------------------------------------------

    def _on_pto(self, now: int, path: int) -> int | None:
        ps = self.sender.paths[path]
        # the deadline is set exactly while the path has unacked packets
        if ps.pto_deadline is None or now < ps.pto_deadline:
            return ps.pto_deadline
        # probe: resend the oldest unacked payload on this path, ignoring cwnd
        oldest = next(iter(ps.unacked.values()))
        self._send_on_path(path, oldest.size, oldest.payload_offset, now)

    # -- receiving --------------------------------------------------------

    def _record_ack_metrics(self, frame) -> int:
        wire = ack_frame_wire_size(frame, self.mode)
        self.ack_size_sum += wire
        self.ack_frames += 1
        count = len(frame.ranges)
        self.range_hist[count] = self.range_hist.get(count, 0) + 1
        return wire

    def _emit_ack(self, frame, path: int, now: int) -> None:
        wire = self._record_ack_metrics(frame)
        arrival = self.up[path].transmit(wire, now)
        if arrival is not None:
            self.loop.schedule(arrival, self._on_ack, path, frame)

    def _on_data(self, now: int, path: int, pn: int, size: int, offset: int) -> None:
        ack_now = self.receiver.on_packet_received(path, pn, now)
        above = self.delivered_above
        if offset >= self.delivered_to and offset not in above:
            above[offset] = size
            while self.delivered_to in above:
                self.delivered_to += above.pop(self.delivered_to)
            # the chunks partition the payload: this prefix is every byte
            if self.delivered_to == self.config.transfer_size:
                self.completion_us = now
        if ack_now:
            self._emit_ack(self.receiver.build_ack_frame(path, now), path, now)
        else:  # the deadline is None only after a duplicate
            deadline = self.receiver.per_path[path].ack_timer_deadline
            if deadline is not None:
                self.loop.set_timer(("ack", path), deadline, self._on_ack_timer, path)

    def _on_ack_timer(self, now: int, path: int) -> int | None:
        # the deadline is set exactly while the path owes an ACK
        deadline = self.receiver.per_path[path].ack_timer_deadline
        if deadline is None or now < deadline:
            return deadline
        self._emit_ack(self.receiver.build_ack_frame(path, now), path, now)

    def _on_ack(self, now: int, path: int, frame) -> None:
        lost, acked_paths = self.sender.on_ack_received(path, frame, now)
        self.retx_queue.extend((rec.payload_offset, rec.size) for rec in lost)
        # a restarted PTO deadline may be earlier than its path's live event
        for ps in acked_paths:
            if ps.pto_deadline is not None:
                self.loop.set_timer(("pto", ps.path), ps.pto_deadline, self._on_pto, ps.path)
        self._try_send(now)

    # -- main loop ---------------------------------------------------------

    def run(self) -> MetricsReport:
        """Run to the end and return the report; a finished run returns it again."""
        if self.report is not None:
            return self.report
        cap_us = int(self.config.duration_cap_s * 1e6)
        loop = self.loop
        loop.set_timer("wake", 0, self._try_send)
        try:
            while True:
                # one peek before the first event and one after each, the last
                # included, so a wrapper around it sees every event's outcome
                next_time = loop.peek_time()
                if self.completion_us is not None or next_time is None or next_time > cap_us:
                    break
                time, handler, args = loop.pop()
                handler(time, *args)
        finally:
            # Pending handlers are bound methods of this Simulation; dropping
            # them breaks the Simulation <-> EventLoop cycle, so a finished
            # run is freed by reference counting alone.
            loop.clear()
        self._flush_pending_acks()
        self.report = self._build_report()
        return self.report

    def _flush_pending_acks(self) -> None:
        """Emit the ACKs whose timers were still pending when the run ended.

        The transfer stops the instant the last payload byte lands, up to
        max_ack_delay before the receiver would have acknowledged it; those
        frames still count toward ACK metrics and coverage.
        """
        now = self.loop.now
        for prs in self.receiver.per_path:
            if prs.ack_timer_deadline is not None:
                frame = self.receiver.build_ack_frame(prs.path, now)
                self._record_ack_metrics(frame)

    def _build_report(self) -> MetricsReport:
        complete = self.completion_us is not None
        completion_s = self.completion_us / 1e6 if complete else None
        goodput = (self.config.transfer_size / 1000) / completion_s if complete else None
        return MetricsReport(
            mode=self.mode.value,
            seed=self.config.seed,
            complete=complete,
            completion_time_s=completion_s,
            goodput_kBps=goodput,
            avg_ack_frame_size=self.ack_size_sum / self.ack_frames if self.ack_frames else 0.0,
            ack_frames=self.ack_frames,
            ack_range_count_histogram=dict(sorted(self.range_hist.items())),
            srtt_ms={ps.path: ps.srtt_ms for ps in self.sender.paths},
            rtt_samples_ms={ps.path: ps.rtt_samples_ms for ps in self.sender.paths},
            mixed_samples_ms=self.sender.mixed_samples_ms,
            received_pn=self.receiver.received_pn,
            hole_count=self.receiver.hole_count,
            packet_threshold_losses=self.sender.packet_threshold_losses,
            time_threshold_losses=self.sender.time_threshold_losses,
            spurious_retx=self.sender.spurious_count,
            received_never_acked=sum(map(len, self.receiver.uncovered.values())),
            packets_sent=sum(ps.sent_count for ps in self.sender.paths),
            packets_received=len(self.receiver.hole_count),
        )
