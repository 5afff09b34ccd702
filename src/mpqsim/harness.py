"""Experiment orchestration: runs, mode comparisons, sweeps, and export."""

from __future__ import annotations

import configparser
import csv
import dataclasses
import json
from pathlib import Path

from .congestion import CcAlgorithm
from .core import ConfigError, SpaceMode
from .netsim import LinkModel, load_trace
from .receiver import RecvConfig
from .scenario import SCALAR_FIELDS, MetricsReport, ScenarioConfig
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
        return {
            "spns": self.spns.to_dict(),
            "mpns": self.mpns.to_dict(),
            "speed_delta_pct": self.speed_delta_pct,
            "ack_size_delta_pct": self.ack_size_delta_pct,
        }


def compare_modes(base_config: ScenarioConfig) -> ComparisonReport:
    reports = {}
    for mode in (SpaceMode.SPNS, SpaceMode.MPNS):
        cfg = dataclasses.replace(base_config, mode=mode, recv=dataclasses.replace(base_config.recv))
        reports[mode] = run_scenario(cfg)
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
    out = []
    for limit in limits:
        recv = dataclasses.replace(
            base_config.recv, suppression_enabled=True, default_limit=limit
        )
        cfg = dataclasses.replace(base_config, mode=SpaceMode.SPNS, recv=recv)
        out.append((limit, run_scenario(cfg)))
    return out


# -- export ----------------------------------------------------------------


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
        for name in SCALAR_FIELDS:
            writer.writerow([name, "", getattr(report, name)])
        for bucket, count in report.ack_range_count_histogram.items():
            writer.writerow(["ack_range_count_histogram", bucket, count])
        for path_id, series in report.srtt_ms.items():
            for t_ms, value in series:
                writer.writerow([f"srtt_ms_path{path_id}", t_ms, value])
        for path_id, series in report.rtt_samples_ms.items():
            for t_ms, value in series:
                writer.writerow([f"rtt_sample_ms_path{path_id}", t_ms, value])
        for t_ms, value in report.mixed_samples_ms:
            writer.writerow(["mixed_sample_ms", t_ms, value])
        for path_id, series in report.received_pn.items():
            for t_ms, pn in series:
                writer.writerow([f"received_pn_path{path_id}", t_ms, pn])
        for t_ms, value in report.hole_count:
            writer.writerow(["hole_count", t_ms, value])


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

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _as_bool(raw: str, key: str) -> bool:
    value = raw.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def parse_config_file(path: str | Path) -> ScenarioConfig:
    """Read a key=value scenario file (see README for the format)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    try:
        return _build_config(parser, Path(path).parent)
    except ConfigError:
        raise
    except (ValueError, KeyError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# the keys each section accepts; every [path.N] section shares one set
_KEYS = {
    "scenario": set("mode scheduler cc transfer_bytes transfer_mb seed duration_cap_s".split()),
    "receiver": set(
        "ack_eliciting_threshold max_ack_delay_ms suppression default_limit maximum_limit"
        " per_path_anchoring".split()
    ),
    "path.N": set(
        "delay_down_ms delay_up_ms rate_mbps trace loss_rate reverse_loss_rate queue_packets mtu"
        " window_packets".split()
    ),
}


def _check_keys(parser: configparser.ConfigParser) -> None:
    """Refuse sections and keys the format does not define, so typos fail loudly."""
    if parser.defaults():
        raise ConfigError("[DEFAULT] sections are not supported")
    for section in parser.sections():
        known = _KEYS.get("path.N" if section.startswith("path.") else section)
        if known is None:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(parser[section]) - known)
        if unknown:
            raise ConfigError(f"[{section}] unknown key(s): {', '.join(unknown)}")


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


def _build_config(parser: configparser.ConfigParser, base_dir: Path) -> ScenarioConfig:
    _check_keys(parser)
    if "scenario" not in parser:
        raise ConfigError("missing [scenario] section")
    sc = parser["scenario"]
    try:
        mode = SpaceMode(sc.get("mode", "spns").lower())
    except ValueError:
        raise ConfigError(f"unknown mode: {sc.get('mode')!r}")
    try:
        scheduler = SchedulerKind(sc.get("scheduler", "minrtt").lower())
    except ValueError:
        raise ConfigError(f"unknown scheduler: {sc.get('scheduler')!r}")
    try:
        cc = CcAlgorithm(sc.get("cc", "cubic").lower())
    except ValueError:
        raise ConfigError(f"unknown congestion control: {sc.get('cc')!r}")
    if "transfer_bytes" in sc:
        transfer = int(sc["transfer_bytes"])
    elif "transfer_mb" in sc:
        transfer = int(float(sc["transfer_mb"]) * 1_000_000)
    else:
        raise ConfigError("scenario needs transfer_bytes or transfer_mb")

    recv = RecvConfig()
    if "receiver" in parser:
        rc = parser["receiver"]
        recv.ack_eliciting_threshold = int(rc.get("ack_eliciting_threshold", recv.ack_eliciting_threshold))
        if "max_ack_delay_ms" in rc:
            recv.max_ack_delay = int(float(rc["max_ack_delay_ms"]) * 1000)
        if "suppression" in rc:
            recv.suppression_enabled = _as_bool(rc["suppression"], "suppression")
        recv.default_limit = int(rc.get("default_limit", recv.default_limit))
        recv.maximum_limit = int(rc.get("maximum_limit", recv.maximum_limit))
        if "per_path_anchoring" in rc:
            recv.per_path_anchoring = _as_bool(rc["per_path_anchoring"], "per_path_anchoring")

    paths = []
    for section in _path_sections(parser):
        ps = parser[section]
        if "delay_down_ms" not in ps or "delay_up_ms" not in ps:
            raise ConfigError(f"[{section}] needs delay_down_ms and delay_up_ms")
        window_raw = ps.get("window_packets", "auto").strip().lower()
        if window_raw in ("auto", ""):
            window = "auto"
        elif window_raw == "none":
            window = None
        else:
            window = int(window_raw)
        trace = None
        if "trace" in ps:
            trace = load_trace(base_dir / ps["trace"])
        rate = float(ps["rate_mbps"]) if "rate_mbps" in ps else None
        paths.append(
            LinkModel(
                delay_down_ms=float(ps["delay_down_ms"]),
                delay_up_ms=float(ps["delay_up_ms"]),
                rate_mbps=rate,
                trace=trace,
                loss_rate=float(ps.get("loss_rate", "0")),
                reverse_loss_rate=float(ps.get("reverse_loss_rate", "0")),
                queue_capacity=int(ps.get("queue_packets", "64")),
                mtu=int(ps.get("mtu", "1350")),
                window_packets=window,
            )
        )
    if not paths:
        raise ConfigError("no [path.N] sections found")

    config = ScenarioConfig(
        mode=mode,
        paths=paths,
        transfer_size=transfer,
        scheduler=scheduler,
        cc=cc,
        recv=recv,
        seed=int(sc.get("seed", "0")),
        duration_cap_s=float(sc.get("duration_cap_s", "60")),
    )
    config.validate()
    return config
