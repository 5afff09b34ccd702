"""Experiment orchestration: runs, mode comparisons, sweeps, and export."""

from __future__ import annotations

import configparser
import csv
import dataclasses
import json
from pathlib import Path
from typing import Callable

from .congestion import CcAlgorithm
from .core import ConfigError, SpaceMode
from .netsim import LinkModel, load_trace, ms_to_us
from .receiver import RecvConfig
from .scenario import FIELD_CODECS, HISTOGRAM, PER_PATH, MetricsReport, ScenarioConfig
from .scheduler import SchedulerKind
from .simulation import Simulation


def run_scenario(config: ScenarioConfig) -> MetricsReport:
    """Run one transfer to completion (or the duration cap)."""
    return Simulation(config).run()


def _pct_delta(spns: float, mpns: float) -> float:
    return (spns - mpns) / mpns * 100.0


@dataclasses.dataclass
class ComparisonReport:
    """Same scenario under both numbering modes with identical seeds."""

    spns: MetricsReport
    mpns: MetricsReport
    # (SPNS - MPNS) / MPNS in percent; None unless both runs completed
    speed_delta_pct: float | None
    ack_size_delta_pct: float | None

    def to_dict(self) -> dict:
        """JSON-ready dict in field order, each run through MetricsReport.to_dict."""
        values = ((f.name, getattr(self, f.name)) for f in dataclasses.fields(self))
        return {name: v.to_dict() if isinstance(v, MetricsReport) else v for name, v in values}


def compare_modes(base_config: ScenarioConfig) -> ComparisonReport:
    reports = {}
    for mode in (SpaceMode.SPNS, SpaceMode.MPNS):
        reports[mode] = run_scenario(dataclasses.replace(base_config, mode=mode))
    spns, mpns = reports[SpaceMode.SPNS], reports[SpaceMode.MPNS]
    if not (spns.complete and mpns.complete):
        return ComparisonReport(spns, mpns, None, None)
    speed = _pct_delta(spns.goodput_kBps, mpns.goodput_kBps)
    ack = _pct_delta(spns.avg_ack_frame_size, mpns.avg_ack_frame_size)
    return ComparisonReport(spns, mpns, speed, ack)


def sweep_default_limits(
    base_config: ScenarioConfig, limits: list[int]
) -> list[tuple[int, MetricsReport]]:
    """Run SPNS with suppression at each default_limit, same seed each time."""
    base_config.validate()
    configs = []
    for limit in limits:
        recv = dataclasses.replace(
            base_config.recv, suppression_enabled=True, default_limit=limit
        )
        configs.append(dataclasses.replace(base_config, mode=SpaceMode.SPNS, recv=recv))
        configs[-1].validate()  # every limit, before the first run
    return [(limit, run_scenario(cfg)) for limit, cfg in zip(limits, configs)]


# -- export ----------------------------------------------------------------


# CSV series named apart from their report field
_CSV_SERIES = {"rtt_samples_ms": "rtt_sample_ms", "mixed_samples_ms": "mixed_sample_ms"}


def export_report(report: MetricsReport, fmt: str, path: str | Path) -> None:
    """Write a report as JSON (mirrors field names) or tidy CSV rows."""
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        return
    if fmt != "csv":
        raise ValueError(f"unknown export format: {fmt}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series", "key", "value"])
        # scalar rows first, then each series in declaration order
        for name, codec, _ in sorted(FIELD_CODECS, key=lambda item: item[1] is not None):
            value, series = getattr(report, name), _CSV_SERIES.get(name, name)
            if codec is None:
                writer.writerow([name, "", value])
            elif codec is HISTOGRAM:
                writer.writerows([series, bucket, count] for bucket, count in value.items())
            elif codec is PER_PATH:
                for path_id, points in value.items():
                    writer.writerows([f"{series}_path{path_id}", *point] for point in points)
            else:
                writer.writerows([series, *point] for point in value)


def load_report(path: str | Path) -> MetricsReport:
    with open(path) as fh:
        return MetricsReport.from_dict(json.load(fh))


def export_range_count_cdf(report: MetricsReport, path: str | Path) -> None:
    """CDF of ACK range counts as (range_count, cumulative_fraction) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["range_count", "cumulative_fraction"])
        total = sum(report.ack_range_count_histogram.values())
        if not total:
            return
        running = 0
        for bucket in sorted(report.ack_range_count_histogram):
            running += report.ack_range_count_histogram[bucket]
            writer.writerow([bucket, running / total])


# -- config files ------------------------------------------------------------


def _as_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def _window(raw: str) -> int | str | None:
    raw = raw.lower()
    try:
        return int(raw)
    except ValueError:  # LinkModel.validate refuses every word but auto
        return None if raw == "none" else raw


def _key_tables(base_dir: Path) -> dict[str, dict[str, tuple[str, Callable]]]:
    """Each section's file keys -> (the dataclass field the key sets, its parser).

    Every [path.N] section shares one table. A key the file leaves out keeps
    the default of ScenarioConfig, RecvConfig or LinkModel.
    """
    return {
        "scenario": {
            "mode": ("mode", lambda raw: SpaceMode(raw.lower())),
            "scheduler": ("scheduler", lambda raw: SchedulerKind(raw.lower())),
            "cc": ("cc", lambda raw: CcAlgorithm(raw.lower())),
            "transfer_mb": ("transfer_size", lambda raw: round(float(raw) * 1_000_000)),
            "mtu": ("mtu", int),
            "seed": ("seed", int),
            "duration_cap_s": ("duration_cap_s", float),
        },
        "receiver": {
            "ack_eliciting_threshold": ("ack_eliciting_threshold", int),
            "max_ack_delay_ms": ("max_ack_delay", lambda raw: ms_to_us(float(raw))),
            "suppression": ("suppression_enabled", _as_bool),
            "default_limit": ("default_limit", int),
            "maximum_limit": ("maximum_limit", int),
            "per_path_anchoring": ("per_path_anchoring", _as_bool),
        },
        "path.N": {
            "delay_down_ms": ("delay_down_ms", float),
            "delay_up_ms": ("delay_up_ms", float),
            "rate_mbps": ("rate_mbps", float),
            "trace": ("trace", lambda raw: load_trace(base_dir / raw)),
            "loss_rate": ("loss_rate", float),
            "reverse_loss_rate": ("reverse_loss_rate", float),
            "queue_packets": ("queue_capacity", int),
            "window_packets": ("window_packets", _window),
        },
    }


def parse_config_file(path: str | Path) -> ScenarioConfig:
    """Read a key=value scenario file (see README for the format)."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    return _build_config(parser, Path(path).parent)


def _path_sections(parser: configparser.ConfigParser) -> list[str]:
    """The [path.N] sections in ascending order of N, a distinct integer each."""
    by_number: dict[int, str] = {}
    for section in (s for s in parser.sections() if s.startswith("path.")):
        suffix = section.removeprefix("path.")
        if not (suffix.isascii() and suffix.isdigit()):
            raise ConfigError(f"[{section}]: N in [path.N] must be a non-negative integer")
        n = int(suffix)
        if n in by_number:
            raise ConfigError(f"[{section}] repeats path number {n} of [{by_number[n]}]")
        by_number[n] = section
    return [by_number[n] for n in sorted(by_number)]


def _read_section(parser: configparser.ConfigParser, section: str, table: dict) -> dict:
    """The fields a section sets, by dataclass field name; none if it is absent."""
    keys = parser[section] if parser.has_section(section) else {}
    unknown = sorted(set(keys) - set(table))
    if unknown:
        raise ConfigError(f"[{section}] unknown key(s): {', '.join(unknown)}")
    values = {}
    for key in keys:
        name, parse = table[key]
        try:
            values[name] = parse(keys[key])
        except (ValueError, OverflowError, OSError, configparser.Error) as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
    return values


def _build_config(parser: configparser.ConfigParser, base_dir: Path) -> ScenarioConfig:
    if parser.defaults():
        raise ConfigError("[DEFAULT] sections are not supported")
    tables = _key_tables(base_dir)
    for section in parser.sections():
        if ("path.N" if section.startswith("path.") else section) not in tables:
            raise ConfigError(f"unknown section [{section}]")
    if "scenario" not in parser:
        raise ConfigError("missing [scenario] section")
    scenario = _read_section(parser, "scenario", tables["scenario"])
    if "transfer_size" not in scenario:
        raise ConfigError("[scenario] needs transfer_mb")
    recv = RecvConfig(**_read_section(parser, "receiver", tables["receiver"]))
    paths = []
    for section in _path_sections(parser):
        link = _read_section(parser, section, tables["path.N"])
        if "delay_down_ms" not in link or "delay_up_ms" not in link:
            raise ConfigError(f"[{section}] needs delay_down_ms and delay_up_ms")
        paths.append(LinkModel(**link))
    if not paths:
        raise ConfigError("no [path.N] sections found")
    scenario.setdefault("mode", SpaceMode.SPNS)  # mode has no dataclass default
    config = ScenarioConfig(**scenario, paths=paths, recv=recv)
    config.validate()
    return config
