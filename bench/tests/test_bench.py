"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import calib  # noqa: E402
import inputs  # noqa: E402
import rep  # noqa: E402
from tracer import Tracer  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_self_time_of_a_nested_call():
    ticks = iter([0.0, 2.0, 5.0, 10.0])  # outer starts, inner starts, inner ends, outer ends
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("core.inner", lambda: None, by_caller=True)
    outer = tracer.wrap("sender.outer", lambda: inner())
    outer()
    assert tracer.spans["sender.outer"] == [1, 10.0, 7.0]  # calls, inclusive, self
    assert tracer.spans["core.inner"] == [1, 3.0, 3.0]
    assert tracer.counts["core.inner.calls.sender"] == 1
    assert tracer.layer_self_s("sender") == 7.0
    assert tracer.layer_self_s("core") == 3.0


def test_calibration_times_loops_around_each_sample():
    cal = calib.Calibration()
    result, seconds = cal.timed(lambda: 42)
    assert result == 42 and seconds >= 0
    assert len(cal.loop_s) == 2 * calib.CHUNKS
    assert calib.factor([calib.REFERENCE_S] * 3) == 1.0
    assert calib.factor([calib.REFERENCE_S * 2, calib.REFERENCE_S * 2, 1.0]) == 0.5


def test_generator_is_deterministic_per_seed(tmp_path):
    for name in inputs.WORKLOADS:
        inputs.write_inputs(name, 3, tmp_path / "a" / name)
        inputs.write_inputs(name, 3, tmp_path / "b" / name)
        assert _files(tmp_path / "a" / name) == _files(tmp_path / "b" / name)
    inputs.write_inputs("lossy-4p", 4, tmp_path / "c")
    assert _files(tmp_path / "a" / "lossy-4p") != _files(tmp_path / "c")


def _mpqsim_namespaces() -> dict:
    """Every attribute of every mpqsim module and of the classes they define."""
    import mpqsim

    modules = [m for name, m in sys.modules.items() if name.startswith("mpqsim.")]
    owners = modules + [
        obj
        for m in modules
        for obj in vars(m).values()
        if isinstance(obj, type) and obj.__module__ == m.__name__
    ]
    return {(o, key): value for o in owners + [mpqsim] for key, value in vars(o).items()}


def test_tracing_restores_wrappers_and_keeps_fingerprints(tmp_path):
    # one short lossy variant, so every traced layer is exercised
    [ini, *_] = inputs.write_inputs("lossy-4p", 5, tmp_path)
    spec = {"runner": "compare", "inputs": [str(ini)], "export_repeats": 1}
    untraced = rep.main({**spec, "mode": "run"})
    before = _mpqsim_namespaces()
    traced = rep.main({**spec, "mode": "trace"})
    after = _mpqsim_namespaces()

    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert [s["fingerprint"] for s in traced["scenarios"]] == [
        s["fingerprint"] for s in untraced["scenarios"]
    ]
    assert all(not s["problems"] for s in traced["scenarios"])

    layers = traced["layers"]
    assert layers["netsim.events"] > 0 and layers["sender.losses"] > 0
    joined_by_run_py = {"simulation.us_per_event", "trace.overhead_ratio"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= layers.keys() | joined_by_run_py


def test_seed_7_reference_inputs_are_the_acceptance_runs(tmp_path):
    from test_acceptance import star_config

    from mpqsim import RecvConfig, SpaceMode, harness

    def suppressed(limit: int) -> RecvConfig:
        return RecvConfig(suppression_enabled=True, default_limit=limit, maximum_limit=64)

    expected = {
        "ref-spns": star_config(SpaceMode.SPNS),
        "ref-spns-ablation": star_config(SpaceMode.SPNS, RecvConfig(per_path_anchoring=False)),
        "ref-mpns": star_config(SpaceMode.MPNS),
        "suppress-2": star_config(SpaceMode.SPNS, suppressed(2)),
        "suppress-64": star_config(SpaceMode.SPNS, suppressed(64)),
    }
    for name in ("ref-spns", "ref-mpns", "suppress"):
        for ini in inputs.write_inputs(name, 7, tmp_path / name):
            assert harness.parse_config_file(ini) == expected.pop(ini.stem)
    assert not expected


def test_benchmark_json_names_the_workloads():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(inputs.WORKLOADS)
