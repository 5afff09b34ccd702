"""Fingerprint every benchmark input's reports under both numbering modes.

Writes each scenario file that `bench/inputs.py` produces for the given
seeds into a temporary directory, runs it through `harness.compare_modes`,
and prints one JSON object mapping `seed/input/mode` to the sha256 of the
mode's canonical report (`json.dumps(to_dict(), sort_keys=True)`). A
refactor that leaves the simulator's behaviour alone prints the same object
before and after; compare the two with `cmp`:

    python tests/report_fingerprints.py > after.json
    python tests/report_fingerprints.py --src ../parent-checkout > before.json
    cmp before.json after.json

`--fields` prints each report's fields instead, one line per field, named
`seed/input/mode/field` (and `/path` for a per-path series): scalars and
histograms as they are, each series as `[length, last value, mean]`. The
`diff` of the two outputs is then the table of what a behaviour change moved:

    python tests/report_fingerprints.py --fields > after.txt
    python tests/report_fingerprints.py --fields --src ../parent-checkout > before.txt
    diff before.txt after.txt

`--src` names the checkout whose `src/mpqsim` runs (by default this one);
the inputs always come from this checkout's `bench/inputs.py`. Not a test
module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import statistics
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_inputs():
    """`bench/inputs.py` as a module, without putting `bench` on the path."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def reports(seeds: list[int]) -> Iterator[tuple[str, dict]]:
    """Each `seed/input/mode` with its report's `to_dict()`."""
    from mpqsim.harness import compare_modes, parse_config_file

    inputs = _load_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for workload in inputs.WORKLOADS:
                for ini in inputs.write_inputs(workload, seed, Path(tmp) / f"{seed}-{workload}"):
                    comparison = compare_modes(parse_config_file(ini))
                    for mode in ("spns", "mpns"):
                        yield f"{seed}/{ini.stem}/{mode}", getattr(comparison, mode).to_dict()


def fingerprints(seeds: list[int]) -> dict[str, str]:
    out: dict[str, str] = {}
    for name, report in reports(seeds):
        canonical = json.dumps(report, sort_keys=True).encode()
        out[name] = hashlib.sha256(canonical).hexdigest()
    return out


def _summary(series: list) -> list:
    """A series' `[length, last value, mean]` (`[0, None, None]` when empty)."""
    values = [value for _, value in series]
    return [len(values), values[-1], statistics.fmean(values)] if values else [0, None, None]


def report_fields(seeds: list[int]) -> dict[str, object]:
    """Every field of every report, by `seed/input/mode/field`; a per-path
    series by `.../field/path`."""
    out: dict[str, object] = {}
    for name, report in reports(seeds):
        for field, value in report.items():
            if isinstance(value, list):
                out[f"{name}/{field}"] = _summary(value)
            elif isinstance(value, dict) and any(isinstance(v, list) for v in value.values()):
                for path, series in value.items():
                    out[f"{name}/{field}/{path}"] = _summary(series)
            else:
                out[f"{name}/{field}"] = value
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT, help="checkout whose src/mpqsim runs")
    parser.add_argument("--seeds", default="7,3", help="comma-separated input seeds")
    parser.add_argument("--fields", action="store_true", help="print every field, one per line, not hashes")
    args = parser.parse_args(argv)
    src = args.src.resolve() / "src"
    sys.path.insert(0, str(src))
    import mpqsim

    # a mistyped --src must not fingerprint some other installed copy
    if not Path(mpqsim.__file__).resolve().is_relative_to(src):
        sys.exit(f"mpqsim was imported from {mpqsim.__file__}, not from {src}")
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.fields:
        lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in report_fields(seeds).items()]
        print("{\n" + ",\n".join(lines) + "\n}")
    else:
        print(json.dumps(fingerprints(seeds), indent=1))


if __name__ == "__main__":
    main()
