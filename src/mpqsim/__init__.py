"""Multipath QUIC packet-number-space simulator.

Implements packet numbering under a single shared space (SPNS) or one
space per path (MPNS), per-path loss detection and RTT estimation, ACK
range suppression, and a deterministic network simulator over one or more
paths with an experiment harness for comparing the two numbering modes.
"""

from .congestion import CcAlgorithm, CongestionController
from .core import (
    AckFrame,
    AckRange,
    ConfigError,
    InvariantViolation,
    ProtocolError,
    RangeSet,
    Series,
    SpaceMode,
    ack_frame_wire_size,
    varint_size,
)
from .harness import (
    ComparisonReport,
    compare_modes,
    export_range_count_cdf,
    export_report,
    load_report,
    parse_config_file,
    run_scenario,
    sweep_default_limits,
)
from .netsim import EventLoop, LinkDirection, LinkModel, TraceSchedule, load_trace
from .receiver import PathRecvState, ReceiverState, RecvConfig
from .scenario import MetricsReport, ScenarioConfig
from .scheduler import SchedulerKind, select_path
from .sender import PathSendState, SenderState, SentPacketRecord
from .simulation import Simulation, auto_window_packets

__version__ = "0.1.0"

__all__ = [
    "AckFrame",
    "AckRange",
    "CcAlgorithm",
    "ComparisonReport",
    "ConfigError",
    "CongestionController",
    "EventLoop",
    "InvariantViolation",
    "LinkDirection",
    "LinkModel",
    "MetricsReport",
    "PathRecvState",
    "PathSendState",
    "ProtocolError",
    "RangeSet",
    "ReceiverState",
    "RecvConfig",
    "ScenarioConfig",
    "SchedulerKind",
    "SenderState",
    "SentPacketRecord",
    "Series",
    "Simulation",
    "SpaceMode",
    "TraceSchedule",
    "ack_frame_wire_size",
    "auto_window_packets",
    "compare_modes",
    "export_range_count_cdf",
    "export_report",
    "load_report",
    "load_trace",
    "parse_config_file",
    "run_scenario",
    "select_path",
    "sweep_default_limits",
    "varint_size",
]
