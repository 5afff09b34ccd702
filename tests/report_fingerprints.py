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
histograms as they are, each series as `[length, last value, mean]`, and
the report's canonical sha256 as `seed/input/mode/sha256`, so a change
inside a series shows even where its summary holds.
`--goldens` prints the JSON and CSV sha256 of each report that
`tests/test_golden.py` pins, computed by the checkout's code.
`--scenarios N` prints, for each of the first N derandomized draws of
the fuzzer's `scenario_configs` (from `tests/test_scenario_fuzz.py`, with
data delays of at least 1 µs), named `scenario/i`, the sha256 of its report
and of its config: random paths, traces, loss and PTO probes that the bench
inputs barely reach. A draw whose run raises is hashed by its error. The
config is hashed as the fuzzer's `comparable(config)`, whose traces are
lists, so a trace held as a list and one held as an array hash alike. The
draws come from the fuzzer of the `--src` checkout, which builds configs
of the shape its own code takes.

`--diff BASE_DIR` is the table of what a behaviour change moved:

    python tests/report_fingerprints.py --diff ../parent-checkout

It runs `--fields` and `--goldens` for `BASE_DIR` and for this checkout
(or `--src`), each in its own interpreter, and prints one row per moved
`seed/input/mode/field`: old, new and relative change, a series summary
element by element. Then it prints each golden whose sha256 moved, old ->
new, then each bench report whose sha256 moved and how many did, and,
with `--scenarios N`, each moved scenario draw, marked "drawn apart" when
its config moved too, and how many drawn configs differ: a draw that
moved with its config tells nothing about the code. It exits 0 when
nothing moved, 1 when something did, and 2 on error.

`--src` names the checkout whose `src/mpqsim` runs (by default this one);
the inputs and the golden configs always come from this checkout. Not a
test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import statistics
import subprocess
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


def canonical_sha256(report: dict) -> str:
    """The sha256 of a report's `to_dict()` as `json.dumps(sort_keys=True)`."""
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def fingerprints(seeds: list[int]) -> dict[str, str]:
    return {name: canonical_sha256(report) for name, report in reports(seeds)}


def scenario_fingerprints(count: int, checkout: Path) -> dict[str, list[str]]:
    """The `[report sha256, config sha256]` of each of the first `count`
    derandomized `scenario_configs` draws of `checkout`'s fuzzer, by `scenario/i`."""
    from hypothesis import HealthCheck, Phase, given, settings

    from mpqsim.simulation import Simulation

    tests = checkout / "tests"
    sys.path.insert(0, str(tests))  # the fuzzer's own imports
    spec = importlib.util.spec_from_file_location("scenario_fuzz", tests / "test_scenario_fuzz.py")
    fuzz = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz)
    out: dict[str, list[str]] = {}

    @settings(
        derandomize=True,
        database=None,
        deadline=None,
        max_examples=count,
        phases=[Phase.generate],
        suppress_health_check=list(HealthCheck),
    )
    @given(fuzz.scenario_configs(min_delay_down_ms=0.001))
    def run(config):
        drawn = hashlib.sha256(repr(fuzz.comparable(config)).encode()).hexdigest()
        try:
            text = json.dumps(Simulation(config).run().to_dict(), sort_keys=True)
        except Exception as exc:  # a run that raises is fingerprinted by its error
            text = f"{type(exc).__name__}: {exc}"
        out[f"scenario/{len(out)}"] = [hashlib.sha256(text.encode()).hexdigest(), drawn]

    run()
    return out


def _summary(series: list) -> list:
    """A series' `[length, last value, mean]` (`[0, None, None]` when empty)."""
    values = [value for _, value in series]
    return [len(values), values[-1], statistics.fmean(values)] if values else [0, None, None]


SHA256 = "/sha256"  # the suffix of a report's sha256 row in `report_fields`


def report_fields(seeds: list[int]) -> dict[str, object]:
    """Every field of every report, by `seed/input/mode/field`; a per-path
    series by `.../field/path`; and each report's canonical sha256, by
    `seed/input/mode/sha256`."""
    out: dict[str, object] = {}
    for name, report in reports(seeds):
        out[name + SHA256] = canonical_sha256(report)
        for field, value in report.items():
            if isinstance(value, list):
                out[f"{name}/{field}"] = _summary(value)
            elif isinstance(value, dict) and any(isinstance(v, list) for v in value.values()):
                for path, series in value.items():
                    out[f"{name}/{field}/{path}"] = _summary(series)
            else:
                out[f"{name}/{field}"] = value
    return out


def golden_fingerprints() -> dict[str, list[str]]:
    """Each golden's `[JSON sha256, CSV sha256]`, from this checkout's configs."""
    from mpqsim.harness import export_report
    from mpqsim.simulation import Simulation

    spec = importlib.util.spec_from_file_location("golden_configs", ROOT / "tests" / "test_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    out: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "report.csv"
        for name, (make_config, _, _) in golden.GOLDEN.items():
            report = Simulation(make_config()).run()
            export_report(report, "csv", csv)
            out[name] = [canonical_sha256(report.to_dict()), hashlib.sha256(csv.read_bytes()).hexdigest()]
    return out


SUMMARY = ("length", "last", "mean")


def moved_rows(old: dict[str, object], new: dict[str, object]) -> list[tuple[str, object, object]]:
    """Each `(name, old, new)` field that differs between two `--fields`
    maps, leaving the sha256 rows to `moved_reports`; a series summary
    compared element by element, a missing key as None."""
    rows: list[tuple[str, object, object]] = []
    for key in {**old, **new}:
        if key.endswith(SHA256):
            continue
        a, b = old.get(key), new.get(key)
        if isinstance(a, list) and isinstance(b, list):
            rows += [(f"{key}[{label}]", x, y) for label, x, y in zip(SUMMARY, a, b) if x != y]
        elif json.dumps(a) != json.dumps(b):
            rows.append((key, a, b))
    return rows


def moved_reports(old: dict[str, object], new: dict[str, object]) -> tuple[int, list[str]]:
    """How many reports' sha256 rows two `--fields` maps hold, and one line
    per report whose sha256 differs, a missing one as None."""
    keys = [key for key in {**old, **new} if key.endswith(SHA256)]
    lines = [
        f"report {key.removesuffix(SHA256)}: {old.get(key)} -> {new.get(key)}"
        for key in keys
        if old.get(key) != new.get(key)
    ]
    return len(keys), lines


def relative_change(old: object, new: object) -> str:
    """`(new - old) / |old|` as a signed percentage, or "n/a" when it has none."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    return f"{(new - old) / abs(old):+.1%}" if numbers and old else "n/a"


def moved_draws(old: dict[str, list[str]], new: dict[str, list[str]]) -> tuple[int, list[str]]:
    """How many draws' configs differ between two `--scenarios` maps, and
    one line per draw whose report moved, "drawn apart" if its config did."""
    apart, lines = 0, []
    for name in {**old, **new}:
        (a, a_config), (b, b_config) = old.get(name, [None, None]), new.get(name, [None, None])
        apart += a_config != b_config
        if a != b:
            lines.append(f"{name}: {a} -> {b}" + (" (drawn apart)" if a_config != b_config else ""))
    return apart, lines


def _snapshot(src: Path, *flags: str) -> dict:
    """The output of the checkout at `src` under `flags`, in its own interpreter."""
    cmd = [sys.executable, __file__, "--src", str(src), *flags]
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode:
        sys.stderr.write(run.stderr)
        sys.exit(2)
    return json.loads(run.stdout)


def diff(base: Path, change: Path, seeds: str, scenarios: int) -> int:
    """Print what moved from `base` to `change`; 1 if anything did, else 0."""
    old, new = (_snapshot(src, "--seeds", seeds, "--fields") for src in (base, change))
    rows = moved_rows(old, new)
    width = max((len(name) for name, _, _ in rows), default=0)
    for name, a, b in rows:
        print(f"{name:<{width}}  {json.dumps(a)} -> {json.dumps(b)}  {relative_change(a, b)}")
    old_g, new_g = (_snapshot(src, "--seeds", seeds, "--goldens") for src in (base, change))
    goldens = 0
    for name in {**old_g, **new_g}:
        for kind, a, b in zip(("json", "csv"), old_g.get(name, [None] * 2), new_g.get(name, [None] * 2)):
            if a != b:
                goldens += 1
                print(f"golden {name} {kind}: {a} -> {b}")
    print(f"{len(rows)} field rows and {goldens} golden sha256s moved")
    count, reports_moved = moved_reports(old, new)
    for line in reports_moved:
        print(line)
    print(f"{len(reports_moved)} of {count} bench report sha256s moved")
    moved: list[str] = []
    if scenarios:
        old_s, new_s = (_snapshot(src, "--scenarios", str(scenarios)) for src in (base, change))
        apart, moved = moved_draws(old_s, new_s)
        for line in moved:
            print(line)
        print(f"{apart} of {len(new_s)} drawn configs differ")
        print(f"{len(moved)} of {len(new_s)} scenario sha256s moved")
    return 1 if rows or goldens or reports_moved or moved else 0


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT, help="checkout whose src/mpqsim runs")
    parser.add_argument("--seeds", default="7,3", help="comma-separated input seeds")
    output = parser.add_mutually_exclusive_group()
    output.add_argument("--fields", action="store_true", help="print every field, one per line, not hashes")
    output.add_argument("--goldens", action="store_true", help="print the golden reports' sha256s")
    output.add_argument("--diff", type=Path, metavar="BASE_DIR", help="print what moved since BASE_DIR")
    parser.add_argument(
        "--scenarios", type=int, default=0, metavar="N", help="hash N fuzzer scenario draws (also in --diff)"
    )
    args = parser.parse_args(argv)
    if args.scenarios and (args.fields or args.goldens):
        parser.error("--scenarios goes alone or with --diff")
    if args.diff:
        sys.exit(diff(args.diff.resolve(), args.src.resolve(), args.seeds, args.scenarios))
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
    elif args.goldens:
        print(json.dumps(golden_fingerprints(), indent=1))
    elif args.scenarios:
        print(json.dumps(scenario_fingerprints(args.scenarios, args.src.resolve()), indent=1))
    else:
        print(json.dumps(fingerprints(seeds), indent=1))


if __name__ == "__main__":
    main()
