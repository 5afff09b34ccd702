"""The benchmark's tracer, `bench/tracer.py`, on this checkout's package: each
entry point it patches exists and is entered by a short traced run, and
`restore` puts every original back. A rename in `src/` that the tracer's
targets miss fails here, not only in the traced benchmark run."""

import dataclasses
import importlib.util
from pathlib import Path

from mpqsim import harness
from mpqsim.simulation import Simulation

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    """`bench/tracer.py` as a module, without putting `bench` on the path."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_two_path_run_enters_every_patched_entry_point_and_restores_it():
    bench_tracer = load_tracer()
    tracer = bench_tracer.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        reference = harness.parse_config_file(ROOT / "scenarios" / "two_path.ini")
        lossy = dataclasses.replace(reference.paths[0], loss_rate=0.01)  # so that `on_loss` runs too
        config = dataclasses.replace(reference, paths=[lossy, reference.paths[1]], transfer_size=300_000)
        report = Simulation(config).run()
        report.to_dict()
        metrics = bench_tracer.layer_metrics(tracer)
    finally:
        tracer.restore()
    assert report.complete
    assert [name for name, (calls, _, _) in tracer.spans.items() if not calls] == []
    assert metrics["sender.losses"] > 0 and metrics["simulation.ack_frames"] == report.ack_frames
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
