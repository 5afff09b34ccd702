"""Seeded input generator for the benchmark workloads.

Every input a workload runs is written here from the seed: the scenario
`.ini` files and, for `lossy-4p`, Mahimahi-style delivery traces. The
simulator sees only these files. The same seed gives byte-identical files.

The reference and suppression workloads are loss-free, so their runs do not
depend on the seed; the seed only appears as the scenario's `seed` key,
which the report embeds. At seed 7 they are the acceptance suite's
`star_config` runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """A named set of scenario files run in order as one repetition.

    `runner` is "sims" (one `Simulation` per file) or "compare"
    (`compare_modes` on each file).
    """

    runner: str
    scenarios: tuple[str, ...]


# lossy-4p runs many short seeded variants rather than one long transfer.
# Each loss leaves a permanent hole in the SPNS space that every later ACK
# carries, so ACK work grows with the square of the losses and one long
# transfer's cost swings with its loss draws: 4 x 4 MB spread 19% across
# seeds in total ACK ranges, 8 x 2 MB spread 6%.
LOSSY_VARIANTS = 8
LOSSY_TRANSFER_MB = 2

WORKLOADS = {
    "ref-spns": Workload("sims", ("ref-spns", "ref-spns-ablation")),
    "ref-mpns": Workload("sims", ("ref-mpns",)),
    "suppress": Workload("sims", ("suppress-2", "suppress-64")),
    "lossy-4p": Workload("compare", tuple(f"lossy-4p-{k}" for k in range(LOSSY_VARIANTS))),
}

# The two-path reference of the acceptance suite: (rate Mbps, down ms, up ms).
_REFERENCE_PATHS = ((40, 15, 15), (15, 60, 60))

_TRACE_PERIOD_MS = 2000


def _section(name: str, items: dict) -> str:
    body = "".join(f"{key} = {value}\n" for key, value in items.items())
    return f"[{name}]\n{body}"


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _reference_ini(
    seed: int,
    mode: str,
    suppression: bool = False,
    default_limit: int = 4,
    per_path_anchoring: bool = True,
) -> str:
    sections = [
        _section(
            "scenario",
            {
                "mode": mode,
                "scheduler": "minrtt",
                "cc": "cubic",
                "transfer_mb": 20,
                "seed": seed,
                "duration_cap_s": 60,
            },
        ),
        _section(
            "receiver",
            {
                "ack_eliciting_threshold": 2,
                "max_ack_delay_ms": 25,
                "suppression": _bool(suppression),
                "default_limit": default_limit,
                "maximum_limit": 64,
                "per_path_anchoring": _bool(per_path_anchoring),
            },
        ),
    ]
    for p, (rate, down, up) in enumerate(_REFERENCE_PATHS):
        sections.append(
            _section(
                f"path.{p}",
                {"rate_mbps": rate, "delay_down_ms": down, "delay_up_ms": up, "queue_packets": 64},
            )
        )
    return "\n".join(sections)


def _lossy_ini(seed: int, trace_file: str) -> str:
    paths = [
        {"rate_mbps": 30, "delay_down_ms": 10, "delay_up_ms": 10, "loss_rate": 0.01},
        {
            "rate_mbps": 20,
            "delay_down_ms": 25,
            "delay_up_ms": 30,
            "loss_rate": 0.02,
            "reverse_loss_rate": 0.01,
        },
        # trace-driven, so the automatic window ceiling does not apply
        {"trace": trace_file, "delay_down_ms": 40, "delay_up_ms": 40},
        {
            "rate_mbps": 8,
            "delay_down_ms": 80,
            "delay_up_ms": 60,
            "loss_rate": 0.005,
            "queue_packets": 16,
        },
    ]
    sections = [
        _section(
            "scenario",
            {
                "mode": "spns",
                "scheduler": "roundrobin",
                "cc": "newreno",
                "transfer_mb": LOSSY_TRANSFER_MB,
                "seed": seed,
                "duration_cap_s": 60,
            },
        )
    ]
    sections += [_section(f"path.{p}", items) for p, items in enumerate(paths)]
    return "\n".join(sections)


def bursty_trace(seed: int) -> str:
    """Delivery opportunities (one per line, integer ms) with on/off bursts.

    On periods of 20-150 ms deliver 1-4 MTU packets per millisecond (about
    11-43 Mbps at 1350 B); off periods of 5-80 ms deliver one packet in a
    millisecond with probability 0.3. The mean is near 20 Mbps.
    """
    rng = random.Random(f"lossy-4p-trace/{seed}")
    lines: list[int] = []
    t = 0
    on = True
    while t < _TRACE_PERIOD_MS:
        length = rng.randint(20, 150) if on else rng.randint(5, 80)
        for ms in range(t, min(t + length, _TRACE_PERIOD_MS)):
            if on:
                lines.extend([ms] * rng.randint(1, 4))
            elif rng.random() < 0.3:
                lines.append(ms)
        t += length
        on = not on
    lines.append(_TRACE_PERIOD_MS)  # the last timestamp sets the replay period
    return "".join(f"{ms}\n" for ms in lines)


def _files(name: str, seed: int) -> dict[str, str]:
    if name == "ref-spns":
        return {
            "ref-spns.ini": _reference_ini(seed, "spns"),
            "ref-spns-ablation.ini": _reference_ini(seed, "spns", per_path_anchoring=False),
        }
    if name == "ref-mpns":
        return {"ref-mpns.ini": _reference_ini(seed, "mpns")}
    if name == "suppress":
        return {
            f"suppress-{limit}.ini": _reference_ini(
                seed, "spns", suppression=True, default_limit=limit
            )
            for limit in (2, 64)
        }
    if name == "lossy-4p":
        files = {}
        for k in range(LOSSY_VARIANTS):
            variant_seed = seed * LOSSY_VARIANTS + k
            trace_file = f"lossy-4p-{k}-path2.trace"
            files[f"lossy-4p-{k}.ini"] = _lossy_ini(variant_seed, trace_file)
            files[trace_file] = bursty_trace(variant_seed)
        return files
    raise KeyError(f"unknown workload {name!r}")


def write_inputs(name: str, seed: int, out_dir: Path) -> list[Path]:
    """Write the workload's files into `out_dir`; return its `.ini` paths in run order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for filename, text in _files(name, seed).items():
        (out_dir / filename).write_text(text)
    return [out_dir / f"{scenario}.ini" for scenario in WORKLOADS[name].scenarios]
