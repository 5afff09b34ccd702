"""One repetition of a benchmark workload, in a fresh interpreter.

Run by bench/run.py as `python3 bench/rep.py '<json spec>'`; prints one
JSON object. The spec names the mode ("setup", "run" or "trace"), the
runner ("sims" or "compare") and the scenario files. Set-up is timed from
before `import mpqsim`, so it includes the package import, the parse of
every file (trace files too) and the construction of each `Simulation`.

Times are raw seconds; `loop_s` holds the calibration loop's timings,
taken around every export, by which bench/run.py normalises the export
time (bench/calib.py).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from calib import Calibration
from tracer import Tracer, layer_metrics

SRC = Path(__file__).resolve().parent.parent / "src"


def fingerprint(report) -> str:
    """sha256 of the report's canonical JSON; equal reports give equal prints."""
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def problems(report, config) -> list[str]:
    """The output checks every benchmark run must pass."""
    found = []
    if not report.complete:
        found.append("incomplete")
    if report.packets_received > report.packets_sent:
        found.append(f"packets_received {report.packets_received} > packets_sent {report.packets_sent}")
    if config.recv.suppression_enabled:
        if report.received_never_acked:
            found.append(f"received_never_acked = {report.received_never_acked}")
        widest = max(report.ack_range_count_histogram, default=0)
        if widest > config.recv.maximum_limit:
            found.append(f"a frame carried {widest} ranges > maximum_limit {config.recv.maximum_limit}")
    return found


def _import_mpqsim():
    sys.path.insert(0, str(SRC))
    import mpqsim

    if Path(mpqsim.__file__).resolve().parent != SRC / "mpqsim":
        raise ImportError(f"mpqsim imported from {mpqsim.__file__}, not from {SRC}")
    return mpqsim


def _run(runner: str, names: list[str], configs: list, sims: list, harness) -> tuple[list, list[float]]:
    """Run the workload once; returns [(name, config, report or error)] and per-file seconds."""
    outcomes, seconds = [], []
    for name, config, sim in zip(names, configs, sims):
        start = time.perf_counter()
        if runner == "sims":
            try:
                outcomes.append((name, config, sim.run()))
            except Exception:
                outcomes.append((name, config, traceback.format_exc()))
        else:
            try:
                cmp = harness.compare_modes(config)
                outcomes += [(f"{name}:spns", config, cmp.spns), (f"{name}:mpns", config, cmp.mpns)]
            except Exception:
                error = traceback.format_exc()
                outcomes += [(f"{name}:{mode}", config, error) for mode in ("spns", "mpns")]
        seconds.append(time.perf_counter() - start)
    return outcomes, seconds


def main(spec: dict) -> dict:
    mode, runner = spec["mode"], spec["runner"]
    paths = [Path(p) for p in spec["inputs"]]
    start = time.perf_counter()
    mpqsim = _import_mpqsim()
    tracer = Tracer()
    if mode == "trace":
        tracer.install()
    try:
        from mpqsim import harness

        configs = [harness.parse_config_file(p) for p in paths]
        sims = [mpqsim.Simulation(c) for c in configs]
        setup_s = time.perf_counter() - start
        if mode == "setup":
            return {"setup_s": setup_s}

        outcomes, seconds = _run(runner, [p.stem for p in paths], configs, sims, harness)
        del sims
        reports = [o for _, _, o in outcomes if not isinstance(o, str)]
        cal = Calibration()
        exports = [
            cal.timed(lambda: sum(len(json.dumps(r.to_dict(), indent=2)) for r in reports))
            for _ in range(spec["export_repeats"] if mode == "run" else 1)
        ]
        report_bytes = exports[0][0]
    finally:
        tracer.restore()

    out: dict = {
        "setup_s": setup_s,
        "wall_s": sum(seconds),
        "run_s": seconds,
        "export_s": [seconds for _, seconds in exports],
        "loop_s": cal.loop_s,
        "report_bytes": report_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "scenarios": [],
    }
    for name, config, outcome in outcomes:
        if isinstance(outcome, str):
            out["scenarios"].append({"name": name, "error": outcome})
            continue
        out["scenarios"].append(
            {
                "name": name,
                "fingerprint": fingerprint(outcome),
                "problems": problems(outcome, config),
                "counts": {
                    key: getattr(outcome, key)
                    for key in (
                        "ack_frames",
                        "packets_sent",
                        "packets_received",
                        "packet_threshold_losses",
                        "time_threshold_losses",
                        "spurious_retx",
                        "received_never_acked",
                    )
                },
            }
        )
    if mode == "trace":
        out["layers"] = layer_metrics(tracer)
        out["layers"]["harness.report_bytes"] = report_bytes
        out["model_counters"] = tracer.runs
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
