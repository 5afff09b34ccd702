"""Scenario configuration and the metrics collected from one run."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, get_args, get_origin, get_type_hints

from .congestion import CcAlgorithm
from .core import ConfigError, SpaceMode, check_field_types
from .netsim import LinkModel
from .receiver import RecvConfig
from .scheduler import SchedulerKind


@dataclass
class ScenarioConfig:
    """Full description of one simulated transfer."""

    mode: SpaceMode
    paths: list[LinkModel]
    transfer_size: int  # bytes
    scheduler: SchedulerKind = SchedulerKind.MIN_RTT
    cc: CcAlgorithm = CcAlgorithm.CUBIC
    recv: RecvConfig = field(default_factory=RecvConfig)
    seed: int = 0
    duration_cap_s: float = 60.0

    def validate(self) -> None:
        if type(self.transfer_size) is not int or self.transfer_size <= 0:
            raise ConfigError(f"transfer_size must be a positive int, not {self.transfer_size!r}")
        check_field_types(self)
        if not self.paths:
            raise ConfigError("need at least one path")
        if not (0.0 < self.duration_cap_s < float("inf")):
            raise ConfigError("duration_cap_s must be positive and finite")
        for p, lm in enumerate(self.paths):
            try:
                lm.validate()
            except ValueError as exc:
                raise ConfigError(f"path {p}: {exc}") from exc
        self.recv.validate()


TimeSeries = list[tuple[float, float]]


@dataclass
class MetricsReport:
    """Everything measured in one run; deterministic per (config, seed)."""

    mode: str
    seed: int
    complete: bool
    completion_time_s: float | None
    goodput_kBps: float | None
    avg_ack_frame_size: float
    ack_frames: int
    ack_range_count_histogram: dict[int, int]
    srtt_ms: dict[int, TimeSeries]  # path -> (time_ms, smoothed rtt ms)
    rtt_samples_ms: dict[int, TimeSeries]  # path -> (time_ms, sample ms)
    mixed_samples_ms: TimeSeries  # samples whose largest came from another path
    received_pn: dict[int, list[tuple[float, int]]]  # path -> (time_ms, pn)
    hole_count: list[tuple[float, int]]  # (time_ms, holes in the arrival's space)
    packet_threshold_losses: int
    time_threshold_losses: int
    spurious_retx: int
    received_never_acked: int
    packets_sent: int
    packets_received: int

    def to_dict(self) -> dict:
        """JSON-ready dict: field order, int map keys as strings.

        Each series is a fresh list holding the report's own pair tuples,
        not copies of them; `json` writes a tuple as the same array.
        """
        return {
            name: getattr(self, name) if codec is None else codec[0](getattr(self, name))
            for name, codec in FIELD_CODECS
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsReport":
        return cls(
            **{
                name: data[name] if codec is None else codec[1](data[name])
                for name, codec in FIELD_CODECS
            }
        )


# (encode, decode) for each kind of non-scalar report field
PER_PATH = (  # path -> series
    lambda v: {str(k): list(s) for k, s in v.items()},
    lambda d: {int(k): [tuple(p) for p in s] for k, s in d.items()},
)
HISTOGRAM = (
    lambda v: {str(k): c for k, c in v.items()},
    lambda d: {int(k): c for k, c in d.items()},
)
SERIES = (list, lambda d: [tuple(p) for p in d])


def _field_codec(hint) -> tuple[Callable, Callable] | None:
    """(encode, decode) for one report field by its type; None for scalars."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is dict:
        return PER_PATH if get_origin(args[1]) is list else HISTOGRAM
    return SERIES if origin is list else None


_HINTS = get_type_hints(MetricsReport)
# every report field with its codec (None for scalars), in declaration order
FIELD_CODECS = [(f.name, _field_codec(_HINTS[f.name])) for f in fields(MetricsReport)]
