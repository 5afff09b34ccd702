"""Path selection for outgoing data packets.

Data packets only: ACKs always return on the path that received the
packets they acknowledge and never pass through here.
"""

from __future__ import annotations

import math
from enum import Enum

from .sender import PathSendState


class SchedulerKind(Enum):
    MIN_RTT = "minrtt"
    ROUND_ROBIN = "roundrobin"


def select_path(
    kind: SchedulerKind,
    paths: list[PathSendState],
    packet_size: int,
    now: int,
    rr_cursor: int = -1,
) -> tuple[int | None, int, int | None]:
    """Decide one send in a single pass over `paths`, indexed by path id.

    A path may send when its pacing gate `pace_next` is at or before
    `now` and its congestion window has room for `packet_size`. minRTT
    picks the one with the smallest smoothed RTT; a path with no sample
    is probed once (before anything was sent on it) and after that waits
    behind every measured path until its sample lands; ties go to the
    lower id. Round robin takes the first such path from the cursor on.

    Returns (path id or None, round-robin cursor, wake-up time or None).
    The cursor moves only when round robin picks a path. The wake-up is
    set only when no path was picked: the earliest gate among pace-blocked
    paths with room.
    """
    if not paths:
        raise ValueError("no paths configured")
    round_robin = kind is SchedulerKind.ROUND_ROBIN
    pick = wake = None
    best = math.inf
    sendable = 0  # paths past their pacing gate
    ready = 0  # bit i set: path i may send
    for ps in paths:
        room = ps.bytes_in_flight + packet_size <= ps.cc.cwnd
        gate = ps.pace_next
        if now < gate:
            if room and (wake is None or gate < wake):
                wake = gate
            continue
        sendable += 1
        if not room:
            continue
        if round_robin:
            ready |= 1 << ps.path
            continue
        srtt = ps.smoothed_rtt
        rank = srtt if srtt is not None else (math.inf if ps.sent_count else -1.0)
        if pick is None or rank < best:
            pick, best = ps.path, rank
    if round_robin and ready:
        # Counts modulo the paths past their gate but matches path ids, so
        # an id at or above that count is never picked (ROADMAP item 3a).
        ready &= (1 << sendable) - 1
        start = (rr_cursor + 1) % sendable
        ahead = ready >> start << start
        chosen = ahead or ready
        if chosen:
            pick = rr_cursor = (chosen & -chosen).bit_length() - 1
    if pick is not None:
        wake = None
    return pick, rr_cursor, wake
