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
) -> tuple[int | None, int | None]:
    """Decide one send in a single pass over `paths`, indexed by path id.

    A path is ready when its pacing gate `pace_next` is at or before `now`
    and its congestion window has room for `packet_size`. Every ready path
    gets a rank and the least rank wins, ties to the lower id. minRTT ranks
    a path by its smoothed RTT; a path with no sample is probed once
    (before anything was sent on it) and after that waits behind every
    measured path until its sample lands. Round robin ranks a path by its
    distance past the cursor, `(path - rr_cursor - 1) % len(paths)`, so it
    takes the next ready id above the cursor, wrapping; the caller passes
    the path it last picked.

    Returns (path id or None, wake-up time or None). The wake-up is set
    only when no path was picked: the earliest gate among pace-blocked
    paths with room.
    """
    if not paths:
        raise ValueError("no paths configured")
    round_robin = kind is SchedulerKind.ROUND_ROBIN
    n = len(paths)
    pick = wake = None
    best = math.inf
    for ps in paths:
        if ps.bytes_in_flight + packet_size > ps.cc.cwnd:
            continue
        gate = ps.pace_next
        if now < gate:
            if wake is None or gate < wake:
                wake = gate
            continue
        if round_robin:
            rank = (ps.path - rr_cursor - 1) % n
        else:
            srtt = ps.smoothed_rtt
            rank = srtt if srtt is not None else (math.inf if ps.sent_count else -1.0)
        if pick is None or rank < best:
            pick, best = ps.path, rank
    if pick is None:
        return None, wake
    return pick, None
