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


def _eligible(ps: PathSendState, packet_size: int) -> bool:
    return ps.bytes_in_flight + packet_size <= ps.cc.cwnd


def _min_rtt_key(ps: PathSendState) -> tuple[int, float, int]:
    # A path with no sample is probed once (before anything was sent on it);
    # after that it waits behind every measured path until its sample lands.
    if ps.smoothed_rtt is None:
        bucket = 0 if not ps.sent_count else 1
        return (bucket, math.inf, ps.path)
    return (1, ps.smoothed_rtt, ps.path)


def select_path(
    kind: SchedulerKind,
    paths: list[PathSendState],
    packet_size: int,
    rr_cursor: int = -1,
) -> tuple[int | None, int]:
    """Pick a path with room in its congestion window, or None.

    Returns (path id, advanced round-robin cursor); the cursor is unchanged
    unless round robin picked a path.
    """
    if not paths:
        raise ValueError("no paths configured")
    eligible = [ps for ps in paths if _eligible(ps, packet_size)]
    if not eligible:
        return None, rr_cursor
    if kind is SchedulerKind.MIN_RTT:
        return min(eligible, key=_min_rtt_key).path, rr_cursor
    eligible_ids = {ps.path for ps in eligible}
    n = len(paths)
    for step in range(1, n + 1):
        candidate = (rr_cursor + step) % n
        if candidate in eligible_ids:
            return candidate, candidate
    return None, rr_cursor

