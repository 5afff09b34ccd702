"""Command line entry points: `mpqsim run` and `mpqsim compare`."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .core import ConfigError, SpaceMode
from .harness import (
    compare_modes,
    export_report,
    parse_config_file,
    run_scenario,
    sweep_default_limits,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCOMPLETE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpqsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and report metrics")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--mode", choices=["spns", "mpns"])
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out")
    run_p.add_argument("--format", choices=["csv", "json"], default="json")

    cmp_p = sub.add_parser("compare", help="run the same scenario under SPNS and MPNS")
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--seed", type=int)
    cmp_p.add_argument(
        "--sweep-default-limit",
        help="comma-separated default_limit values to sweep with suppression on",
    )
    cmp_p.add_argument("--out")
    return parser


def _print_summary(report) -> None:
    print(f"mode:              {report.mode}")
    print(f"complete:          {report.complete}")
    if report.complete:
        print(f"completion time:   {report.completion_time_s:.3f} s")
        print(f"goodput:           {report.goodput_kBps:.1f} kB/s")
    print(f"avg ACK frame:     {report.avg_ack_frame_size:.2f} B over {report.ack_frames} frames")
    print(
        "losses:            "
        f"{report.packet_threshold_losses} packet-threshold, "
        f"{report.time_threshold_losses} time-threshold, "
        f"{report.spurious_retx} spurious"
    )


def _pct(delta: float | None) -> str:
    return "incomplete" if delta is None else f"{delta:+.2f}%"


def _check_out(out: str | None) -> None:
    """Refuse an --out that names a directory or lies in a missing one, before any run."""
    if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        raise ConfigError(f"--out {out}: not a file in an existing directory")


def _cmd_run(args) -> int:
    config = parse_config_file(args.config)
    if args.mode:
        config = dataclasses.replace(config, mode=SpaceMode(args.mode))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    report = run_scenario(config)
    _print_summary(report)
    if args.out:
        export_report(report, args.format, args.out)
        print(f"wrote {args.format} report to {args.out}")
    return EXIT_OK if report.complete else EXIT_INCOMPLETE


def _cmd_compare(args) -> int:
    config = parse_config_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    try:
        limits = [int(v) for v in (args.sweep_default_limit or "").split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --sweep-default-limit: {exc}") from exc
    # the sweep runs first, so that a bad limit is refused before any run
    sweep = sweep_default_limits(config, limits)
    comparison = compare_modes(config)
    rows = [
        ("", "Speed (kB/s)", "ACK frame size (Byte)"),
        (
            "MPNS",
            f"{comparison.mpns.goodput_kBps:.1f}" if comparison.mpns.complete else "incomplete",
            f"{comparison.mpns.avg_ack_frame_size:.2f}",
        ),
        (
            "SPNS",
            f"{comparison.spns.goodput_kBps:.1f}" if comparison.spns.complete else "incomplete",
            f"{comparison.spns.avg_ack_frame_size:.2f}",
        ),
        ("Rate", _pct(comparison.speed_delta_pct), _pct(comparison.ack_size_delta_pct)),
    ]
    for row in rows:
        print(f"{row[0]:<6} {row[1]:>16} {row[2]:>22}")

    payload = comparison.to_dict()
    if args.sweep_default_limit:
        print("\nSPNS suppression sweep:")
        print(f"{'default_limit':>13} {'goodput kB/s':>14} {'avg ACK B':>10}")
        payload["sweep"] = []
        for limit, report in sweep:
            goodput = f"{report.goodput_kBps:.1f}" if report.complete else "incomplete"
            print(f"{limit:>13} {goodput:>14} {report.avg_ack_frame_size:>10.2f}")
            payload["sweep"].append({"default_limit": limit, "report": report.to_dict()})
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote comparison to {args.out}")
    incomplete = not (comparison.spns.complete and comparison.mpns.complete)
    return EXIT_INCOMPLETE if incomplete else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
