"""mpqsim benchmark: host cost of named workloads run through the public API.

Run from anywhere in a checkout of the repository:

    python3 bench/run.py --workload ref-spns --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Load shape: one process at a time, one thread, closed loop; each
repetition starts when the previous one ends, in a fresh interpreter
(bench/rep.py), for about `--seconds`. Inputs are generated from `--seed`
(bench/inputs.py). Every report is checked; a run that raised, ended
incomplete or failed a check counts as failed. Times are medians of host
seconds; the export time is normalised to host speed by a calibration loop
timed around each export (bench/calib.py), with the raw times in the detail
line.

With `--trace 0` the result holds the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics, from repetitions traced by
bench/tracer.py alternating with untraced ones. The last line of standard
output is the result object; the line before it is the detail: report
fingerprints, per-run times, model counters and acceptance-gate shares.
See bench/NOTES.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import ast
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from inputs import WORKLOADS, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REP = BENCH / "rep.py"
WORK = BENCH / "_work"

EXPORT_REPEATS = 3  # exports timed per repetition; the median of all is kept
MIN_SETUP_SAMPLES = 15  # fresh interpreters timed for set-up in every run
CHILD_TIMEOUT_S = 150


def gate_seconds() -> float:
    """MAX_WALL_CLOCK_S of the acceptance suite, read from its source."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "MAX_WALL_CLOCK_S" for t in node.targets
        ):
            return float(ast.literal_eval(node.value))
    raise LookupError("MAX_WALL_CLOCK_S not found in tests/test_acceptance.py")


def run_child(spec: dict) -> dict:
    """Run one repetition in a fresh interpreter; returns its JSON, or {"crash": text}."""
    try:
        proc = subprocess.run(
            [sys.executable, str(REP), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"crash": proc.stderr[-2000:]}
    return json.loads(proc.stdout.splitlines()[-1])


def top_percentile(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples above it, with the count."""
    n = len(samples)
    if n < 11:
        return {"count": n, "percentile": None, "value": None}
    ordered = sorted(samples)
    return {"count": n, "percentile": round(100 * (n - 10) / n, 1), "value": ordered[n - 11]}


class Accounting:
    """Scenario runs attempted and failed, with report fingerprints."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, list[str]] = {}

    def add(self, rep: dict, scenarios: list[str]) -> bool:
        """Account one repetition; True if it ran to the end, so its timings count.

        A repetition whose reports fail a check still ran to the end.
        """
        if "crash" in rep:
            self.attempted += len(scenarios)
            self.failures += [f"{name}: {rep['crash']}" for name in scenarios]
            return False
        for sc in rep["scenarios"]:
            self.attempted += 1
            name = sc["name"]
            issue = sc.get("error") or "; ".join(sc["problems"])
            if "fingerprint" in sc:
                seen = self.fingerprints.setdefault(name, [])
                if seen and sc["fingerprint"] != seen[0]:
                    issue = f"fingerprint {sc['fingerprint']} differs from {seen[0]}"
                seen.append(sc["fingerprint"])
            if issue:
                self.failures.append(f"{name}: {issue}")
        return not any("error" in sc for sc in rep["scenarios"])


def repeat(specs: list[dict], seconds: float, accounting: Accounting, names: list[str]) -> list[list[dict]]:
    """Cycle through `specs` for about `seconds`.

    A cycle starts if the run would end nearer to `seconds` with it than
    without it, judged by the median cycle so far, so a run overshoots by at
    most half a cycle. Returns, per spec, the repetitions that ran to the end.
    """
    passed: list[list[dict]] = [[] for _ in specs]
    start = time.perf_counter()
    cycles: list[float] = []
    while not cycles or time.perf_counter() - start + statistics.median(cycles) / 2 < seconds:
        cycle_start = time.perf_counter()
        for spec, kept in zip(specs, passed):
            rep = run_child(spec)
            if accounting.add(rep, names):
                kept.append(rep)
        cycles.append(time.perf_counter() - cycle_start)
    return passed


def scenario_names(name: str) -> list[str]:
    workload = WORKLOADS[name]
    if workload.runner == "compare":
        return [f"{scenario}:{mode}" for scenario in workload.scenarios for mode in ("spns", "mpns")]
    return list(workload.scenarios)


def measure(name: str, seed: int, seconds: float, trace: bool, metric_units: dict[str, str]) -> tuple[dict, dict]:
    """Run one workload; returns (result object, detail object)."""
    workload = WORKLOADS[name]
    inputs = write_inputs(name, seed, WORK / f"{name}-seed{seed}")
    base = {"runner": workload.runner, "inputs": [str(p) for p in inputs], "export_repeats": EXPORT_REPEATS}
    names = scenario_names(name)
    accounting = Accounting()
    detail: dict = {"workload": name, "seed": seed, "trace": int(trace)}

    warm = run_child({**base, "mode": "setup"})  # fills the page cache; not kept
    if "crash" in warm:
        raise RuntimeError(f"set-up failed: {warm['crash']}")

    if trace:
        untraced, traced = repeat(
            [{**base, "mode": "run"}, {**base, "mode": "trace"}], seconds, accounting, names
        )
    else:
        (untraced,) = repeat([{**base, "mode": "run"}], seconds, accounting, names)
        traced = []
    if not untraced or (trace and not traced):
        raise RuntimeError("no repetition ran to the end: " + "; ".join(accounting.failures[:4]))

    walls = [rep["wall_s"] for rep in untraced]
    wall_s = statistics.median(walls)
    if trace:
        values = _layer_values(traced, wall_s, accounting, names)
        detail["model_counters"] = traced[0]["model_counters"]
        detail["traced_reps"] = len(traced)
    else:
        setup = [rep["setup_s"] for rep in untraced]
        while len(setup) < MIN_SETUP_SAMPLES:
            rep = run_child({**base, "mode": "setup"})
            if "crash" in rep:
                raise RuntimeError(f"set-up failed: {rep['crash']}")
            setup.append(rep["setup_s"])
        exports = [t for rep in untraced for t in rep["export_s"]]
        scale = calib.factor([t for rep in untraced for t in rep["loop_s"]])
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup),
            "export_s": statistics.median(exports) * scale,
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in untraced),
        }
        detail["setup_s"] = setup
        # raw seconds; export_s is their median times `factor`
        detail["export_s"] = {"raw": exports, "factor": scale}

    detail["wall_s"] = {"median": wall_s, "top": top_percentile(walls), "samples": walls}
    # every single-simulation scenario is a run of the acceptance matrix
    gate = gate_seconds() if workload.runner == "sims" else None
    detail["run_s"] = {}
    for scenario, times in zip(workload.scenarios, zip(*(rep["run_s"] for rep in untraced))):
        median = statistics.median(times)
        detail["run_s"][scenario] = {"median": median, "gate_share": median / gate if gate else None}
    detail["fingerprints"] = {
        sc: prints[0] if len(set(prints)) == 1 else prints for sc, prints in accounting.fingerprints.items()
    }
    detail["report_counts"] = {sc["name"]: sc["counts"] for sc in untraced[0]["scenarios"]}
    detail["failures"] = accounting.failures

    failed = len(accounting.failures)
    result = {
        "correct": failed == 0,
        "attempted": accounting.attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in metric_units.items()},
    }
    return result, detail


def _layer_values(traced: list[dict], wall_s: float, accounting: Accounting, names: list[str]) -> dict:
    """Medians of the traced repetitions' timings; counts must repeat exactly,
    so a repetition whose counts differ from the first fails all its runs."""
    first = traced[0]["layers"]
    counts = {metric: value for metric, value in first.items() if not metric.endswith("_s")}
    for rep in traced[1:]:
        differ = [metric for metric, value in counts.items() if rep["layers"][metric] != value]
        if differ:
            accounting.failures += [f"{name}: traced counts differ: {differ}" for name in names]
    values = {
        metric: statistics.median(rep["layers"][metric] for rep in traced)
        for metric in first
        if metric.endswith("_s")
    }
    values.update(counts)
    values["simulation.us_per_event"] = wall_s / first["netsim.events"] * 1e6
    values["trace.overhead_ratio"] = statistics.median(rep["wall_s"] for rep in traced) / wall_s
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mpqsim" / "__init__.py").is_file():
        print(f"error: no mpqsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    metric_units = {m["name"]: m["unit"] for m in spec[group]}
    compileall.compile_dir(ROOT / "src" / "mpqsim", quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, detail = measure(name, args.seed, args.seconds, bool(args.trace), metric_units)
        results[name] = result
        print(json.dumps({"detail": detail}))
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {
                        f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
