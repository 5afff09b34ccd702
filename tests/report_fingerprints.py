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

`--src` names the checkout whose `src/mpqsim` runs (by default this one);
the inputs always come from this checkout's `bench/inputs.py`. Not a test
module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_inputs():
    """`bench/inputs.py` as a module, without putting `bench` on the path."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def fingerprints(seeds: list[int]) -> dict[str, str]:
    from mpqsim.harness import compare_modes, parse_config_file

    inputs = _load_inputs()
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for workload in inputs.WORKLOADS:
                for ini in inputs.write_inputs(workload, seed, Path(tmp) / f"{seed}-{workload}"):
                    comparison = compare_modes(parse_config_file(ini))
                    for mode in ("spns", "mpns"):
                        report = getattr(comparison, mode)
                        canonical = json.dumps(report.to_dict(), sort_keys=True).encode()
                        out[f"{seed}/{ini.stem}/{mode}"] = hashlib.sha256(canonical).hexdigest()
    return out


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT, help="checkout whose src/mpqsim runs")
    parser.add_argument("--seeds", default="7,3", help="comma-separated input seeds")
    args = parser.parse_args(argv)
    src = args.src.resolve() / "src"
    sys.path.insert(0, str(src))
    import mpqsim

    # a mistyped --src must not fingerprint some other installed copy
    if not Path(mpqsim.__file__).resolve().is_relative_to(src):
        sys.exit(f"mpqsim was imported from {mpqsim.__file__}, not from {src}")
    seeds = [int(s) for s in args.seeds.split(",")]
    print(json.dumps(fingerprints(seeds), indent=1))


if __name__ == "__main__":
    main()
