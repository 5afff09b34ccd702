"""Scenario configuration and the metrics collected from one run."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Annotated, Callable, get_args, get_origin, get_type_hints

from .congestion import CcAlgorithm
from .core import ConfigError, Series, SpaceMode, check_field_types
from .netsim import LinkModel
from .receiver import RecvConfig
from .scheduler import SchedulerKind

DEFAULT_MTU = 1350  # payload bytes per packet


@dataclass
class ScenarioConfig:
    """Full description of one simulated transfer."""

    mode: SpaceMode
    paths: list[LinkModel]
    transfer_size: int  # bytes
    # one data packet size on every path, so a lost chunk can be resent on
    # any path; each path's MSS and window count packets of this size
    mtu: int = DEFAULT_MTU
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
        if self.mtu <= 0:
            raise ConfigError("mtu must be positive")
        for p, lm in enumerate(self.paths):
            try:
                lm.validate()
                # `LinkDirection.transmit` rounds this to whole µs; a subnormal
                # rate makes it infinite, while a merely tiny one runs to the cap
                rate = lm.rate_mbps
                if rate is not None and not math.isfinite(self.mtu * 8 * 1e6 / (rate * 1e6)):
                    raise ValueError("rate_mbps is too small: one MTU's serialization time overflows")
            except ValueError as exc:
                raise ConfigError(f"path {p}: {exc}") from exc
        self.recv.validate()


# a report series by its value column's typecode: ms, packet numbers, hole counts
MsSeries = Annotated[Series, "d"]
PnSeries = Annotated[Series, "q"]
CountSeries = Annotated[Series, "I"]


@dataclass
class MetricsReport:
    """Everything measured in one run; deterministic per (config, seed).

    Each series is a `Series`: typed columns that iterate, index and
    compare as `(time_ms, value)` pairs. `to_dict` builds the pairs.
    """

    mode: str
    seed: int
    complete: bool
    completion_time_s: float | None
    goodput_kBps: float | None
    avg_ack_frame_size: float
    ack_frames: int
    ack_range_count_histogram: dict[int, int]
    srtt_ms: dict[int, MsSeries]  # path -> (time_ms, smoothed rtt ms)
    rtt_samples_ms: dict[int, MsSeries]  # path -> (time_ms, sample ms)
    mixed_samples_ms: MsSeries  # samples whose largest came from another path
    received_pn: dict[int, PnSeries]  # path -> (time_ms, pn)
    hole_count: CountSeries  # (time_ms, holes in the arrival's space)
    packet_threshold_losses: int
    time_threshold_losses: int
    spurious_retx: int
    received_never_acked: int
    packets_sent: int
    packets_received: int

    def to_dict(self) -> dict:
        """JSON-ready dict: field order, int map keys as strings.

        Each series is a fresh list of `(time, value)` tuples, zipped from
        its columns' `tolist()`. A times column's floats are built once per
        call, so an instant that several series log (an arrival's in
        `received_pn` and `hole_count`, a sample's in `rtt_samples_ms` and
        `srtt_ms`) is one float object; `json` writes a tuple as an array.
        """
        floats: dict[int, list[float]] = {}  # times column id -> its floats
        return {
            name: getattr(self, name) if codec is None else codec[0](getattr(self, name), floats)
            for name, codec, _ in FIELD_CODECS
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsReport":
        return cls(
            **{
                name: data[name] if codec is None else codec[1](data[name], typecode)
                for name, codec, typecode in FIELD_CODECS
            }
        )


# (encode, decode) for each kind of non-scalar report field; a series is
# encoded with the export's shared time floats (`Series.pairs`) and decoded
# into columns of its field's typecode
PER_PATH = (  # path -> series
    lambda v, floats: {str(k): s.pairs(floats) for k, s in v.items()},
    lambda d, typecode: {int(k): Series.from_pairs(typecode, s) for k, s in d.items()},
)
HISTOGRAM = (
    lambda v, floats: {str(k): c for k, c in v.items()},
    lambda d, typecode: {int(k): c for k, c in d.items()},
)
SERIES = (lambda s, floats: s.pairs(floats), lambda d, typecode: Series.from_pairs(typecode, d))


def _field_codec(hint) -> tuple[tuple[Callable, Callable] | None, str | None]:
    """(encode, decode) for one report field by its type, None for scalars;
    and the typecode of its series' values, None for other fields."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        return SERIES, args[1]
    if origin is dict and get_origin(args[1]) is Annotated:
        return PER_PATH, get_args(args[1])[1]
    return (HISTOGRAM if origin is dict else None), None


_HINTS = get_type_hints(MetricsReport, include_extras=True)
# every report field with its codec (None for scalars) and its series'
# typecode (None for other fields), in declaration order
FIELD_CODECS = [(f.name, *_field_codec(_HINTS[f.name])) for f in fields(MetricsReport)]
