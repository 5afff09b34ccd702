"""Receiver-side (ACK sender) state machine.

Each path keeps its own ack-eliciting counter and ack-timer deadline, which
the caller fires by building the frame. ACK frames are always sent back on
the path that triggered them, anchored at that path's largest received
packet number. Range suppression trims frames to a soft Default_Limit,
extending only as far as needed to cover the packets that arrived on the
emitting path and that none of its own frames has covered yet
(`PathRecvState.lowest_pending`), and never past Maximum_Limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DEFAULT_MAX_ACK_DELAY, AckFrame, ConfigError, RangeSet, Series, SpaceMode, check_field_types


@dataclass(slots=True)
class RecvConfig:
    """Receiver settings: when an ACK is owed, and how far range suppression trims it."""

    ack_eliciting_threshold: int = 2
    max_ack_delay: int = DEFAULT_MAX_ACK_DELAY  # microseconds
    suppression_enabled: bool = False
    default_limit: int = 4
    maximum_limit: int = 64
    # When False (ablation), frames are anchored at the space's largest packet
    # regardless of which path received it, reproducing the scheduler-coupled
    # RTT attribution problem.
    per_path_anchoring: bool = True

    def validate(self) -> None:
        check_field_types(self)
        if self.ack_eliciting_threshold < 1:
            raise ConfigError("ack_eliciting_threshold must be >= 1")
        if self.max_ack_delay < 0:
            raise ConfigError("max_ack_delay must be non-negative")
        if not (1 <= self.default_limit <= self.maximum_limit):
            raise ConfigError("need 1 <= default_limit <= maximum_limit")


@dataclass(slots=True)
class PathRecvState:
    """One path's receive side: its largest packet, ack-eliciting count and ack timer."""

    path: int
    largest_recv_pn: int | None = None
    largest_recv_time: int = 0
    ack_eliciting_since_ack: int = 0
    ack_timer_deadline: int | None = None
    # lowest packet received on this path that none of its own frames has
    # covered yet; suppression extends a frame down to it, so every packet
    # is covered at least once unless Maximum_Limit strands it
    lowest_pending: int | None = None


class ReceiverState:
    """Tracks received packet numbers per space and drives ACK emission.

    Each accepted arrival is logged in report units where it is recorded,
    in `Series` columns that the report holds as they are: `(t_ms, pn)` in
    its path's `received_pn` series, and the hole count of its space in
    `hole_count`, which stores counts only and reads its times as the
    merge, in time order, of every path's `received_pn` times.
    """

    def __init__(self, mode: SpaceMode, num_paths: int, config: RecvConfig | None = None):
        if num_paths < 1:
            raise ConfigError("need at least one path")
        self.mode = mode
        self.config = config or RecvConfig()
        self.config.validate()
        self.spaces = {s: RangeSet() for s in mode.spaces(num_paths)}
        self.per_path = [PathRecvState(p) for p in range(num_paths)]
        # per space: received packets that no built frame has covered yet
        self.uncovered: dict[int, set[int]] = {s: set() for s in self.spaces}
        self.received_pn = {p: Series("q") for p in range(num_paths)}
        self.hole_count = Series("I", times_of=self.received_pn.values())

    def _check_path(self, path: int) -> None:
        if not (0 <= path < len(self.per_path)):
            raise ValueError(f"unknown path {path}")

    def on_packet_received(self, path: int, pn: int, now: int) -> bool:
        """Record an arrival; True when `path` owes an ACK now.

        Otherwise the path's ack timer stays or is armed, at
        `per_path[path].ack_timer_deadline` (None only after a duplicate).
        """
        self._check_path(path)
        space = self.mode.space_of(path)
        rs = self.spaces[space]
        if pn in rs:
            return False  # duplicate: ignore without resetting timers
        prev_max = rs.max_value()
        # late or gap-creating arrivals; the first packet of a space is in order
        out_of_order = prev_max is not None and pn != prev_max + 1
        rs.insert(pn)
        self.received_pn[path].append(now / 1000, pn)
        self.hole_count.values.append(rs.holes())
        prs = self.per_path[path]
        if prs.largest_recv_pn is None or pn > prs.largest_recv_pn:
            prs.largest_recv_pn = pn
            prs.largest_recv_time = now
        if prs.lowest_pending is None or pn < prs.lowest_pending:
            prs.lowest_pending = pn
        self.uncovered[space].add(pn)
        prs.ack_eliciting_since_ack += 1
        emit = prs.ack_eliciting_since_ack >= self.config.ack_eliciting_threshold
        if out_of_order and not self.config.suppression_enabled:
            emit = True
        if emit:
            prs.ack_eliciting_since_ack = 0
            prs.ack_timer_deadline = None
            return True
        if prs.ack_timer_deadline is None:
            prs.ack_timer_deadline = now + self.config.max_ack_delay
        return False

    def build_ack_frame(self, path: int, now: int) -> AckFrame:
        """Build the ACK frame this path would send right now.

        Anchored at the path's largest received packet number; ranges above
        it belong to the other paths' frames. The frame carries its wire
        size, read from the space's `RangeSet` byte cache. Resets the path's
        eliciting counter and timer.
        """
        self._check_path(path)
        prs = self.per_path[path]
        if prs.largest_recv_pn is None:
            raise ValueError(f"no packets received on path {path}")
        space = self.mode.space_of(path)
        rs = self.spaces[space]
        # the path whose largest packet anchors the frame: this one, or in the
        # ablation the one the shared space's largest arrived on (under MPNS
        # the space is this path's own, so both anchorings agree)
        anchor = prs
        if not self.config.per_path_anchoring and self.mode is SpaceMode.SPNS:
            top = rs.max_value()
            anchor = next(p for p in self.per_path if p.largest_recv_pn == top)
        largest, ack_delay = anchor.largest_recv_pn, now - anchor.largest_recv_time
        width = None
        if self.config.suppression_enabled:
            # the newest Default_Limit ranges, or down to the range holding the
            # lowest pending packet, which arrived on this path and so lies at
            # or below the anchor; never more than Maximum_Limit
            width = self.config.default_limit
            if prs.lowest_pending is not None:
                width = max(width, rs.span(largest, prs.lowest_pending))
            width = min(width, self.config.maximum_limit)
        frame = rs.ack_frame(space, ack_delay, largest, width)
        # The frame covers exactly the received packets in [lowest, largest].
        # A pending packet Maximum_Limit left below it stays pending so a
        # later frame retries it; otherwise nothing is pending any more.
        lowest = frame.ranges[-1].smallest
        if prs.lowest_pending is not None and prs.lowest_pending >= lowest:
            prs.lowest_pending = None
        self.uncovered[space] = {pn for pn in self.uncovered[space] if not lowest <= pn <= largest}
        prs.ack_eliciting_since_ack = 0
        prs.ack_timer_deadline = None
        return frame
