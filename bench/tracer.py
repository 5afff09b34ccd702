"""Call tracing from outside the program, for the per-layer benchmark run.

`Tracer.install` replaces public entry points of the mpqsim modules with
timing wrappers; `Tracer.restore` puts every original back. Each wrapper
keeps a call stack, so a call's self time is its duration minus the time
spent in wrapped calls it made. Aggregates stay in memory until
`layer_metrics` reads them at the end of the run.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable

LAYERS = ("simulation", "netsim", "core", "receiver", "sender", "congestion", "scheduler", "harness")


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # span name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # open spans: [layer, seconds spent in child spans]
        self._patches: list[tuple[object, str, object]] = []
        # model counters of each finished Simulation.run, in run order
        self.runs: list[dict] = []

    def wrap(self, name: str, fn: Callable, observe=None, by_caller: bool = False) -> Callable:
        """Return `fn` wrapped in a span called `name` ("<layer>.<function>").

        `observe(tracer, args, result)` runs after each call. With
        `by_caller`, calls are also counted under the layer of the
        enclosing span, as "<name>.calls.<layer>".
        """
        layer = name.split(".", 1)[0]
        stack, clock, counts = self._stack, self.clock, self.counts
        span = self.spans.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            if by_caller:
                counts[f"{name}.calls.{stack[-1][0] if stack else 'root'}"] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, **options) -> None:
        """Replace `owner.attr` (a class or module attribute) by a traced wrapper."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **options))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the entry points of every layer of the importable mpqsim package."""
        from mpqsim import congestion, core, harness, netsim, receiver, scenario, sender, simulation

        targets = [
            (netsim.EventLoop, "schedule", "netsim.schedule", {}),
            (netsim.EventLoop, "pop", "netsim.pop", {}),
            (netsim.LinkDirection, "transmit", "netsim.transmit", {}),
            (receiver.ReceiverState, "on_packet_received", "receiver.on_packet_received", {}),
            (receiver.ReceiverState, "build_ack_frame", "receiver.build_ack_frame", {"observe": _frame_built}),
            (sender.SenderState, "send_packet", "sender.send_packet", {}),
            (sender.SenderState, "on_ack_received", "sender.on_ack_received", {"observe": _ack_received}),
            (sender.SenderState, "detect_losses", "sender.detect_losses", {}),
            (congestion.CongestionController, "on_ack", "congestion.on_ack", {}),
            (congestion.CongestionController, "on_loss", "congestion.on_loss", {}),
            (core.RangeSet, "add_range", "core.add_range", {"by_caller": True}),
            (core.RangeSet, "descending", "core.descending", {"observe": _descended}),
            (core.AckFrame, "validate", "core.validate", {}),
            (simulation.Simulation, "run", "simulation.run", {"observe": _run_finished}),
            # the simulation module's own references, which it looks up per call
            (simulation, "select_path", "scheduler.select_path", {"observe": _path_selected}),
            (simulation, "ack_frame_wire_size", "core.wire_size", {}),
            (harness, "parse_config_file", "harness.parse", {}),
            (scenario.MetricsReport, "to_dict", "harness.to_dict", {}),
        ]
        for owner, attr, name, options in targets:
            self.patch(owner, attr, name, **options)

    def layer_self_s(self, layer: str) -> float:
        return sum(span[2] for name, span in self.spans.items() if name.startswith(layer + "."))


def _frame_built(tracer: Tracer, args, frame) -> None:
    tracer.counts["receiver.ranges_emitted"] += len(frame.ranges)


def _ack_received(tracer: Tracer, args, result) -> None:
    tracer.counts["sender.ack_ranges"] += len(args[2].ranges)


def _descended(tracer: Tracer, args, ranges) -> None:
    tracer.counts["core.descending.ranges"] += len(ranges)


def _path_selected(tracer: Tracer, args, result) -> None:
    if result[0] is None:
        tracer.counts["scheduler.no_path"] += 1


def _run_finished(tracer: Tracer, args, report) -> None:
    tracer.runs.append(model_counters(args[0]))


def model_counters(sim) -> dict:
    """Counters a finished Simulation keeps in public attributes."""

    def link(direction) -> dict:
        return {
            "attempts": direction.attempts,
            "delivered": direction.delivered,
            "queue_drops": direction.queue_drops,
            "loss_drops": direction.loss_drops,
        }

    sender = sim.sender
    return {
        "ack_frames": sim.ack_frames,
        "packet_threshold_losses": sender.packet_threshold_losses,
        "time_threshold_losses": sender.time_threshold_losses,
        "spurious": sender.spurious_count,
        "down": [link(d) for d in sim.down],
        "up": [link(u) for u in sim.up],
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, before the untraced ones
    (`simulation.us_per_event`, `trace.overhead_ratio`) are joined in."""
    spans, counts, runs = tracer.spans, tracer.counts, tracer.runs

    def calls(name: str) -> int:
        return spans[name][0]

    def self_s(name: str) -> float:
        return spans[name][2]

    def total(key: str, direction: str | None = None) -> int:
        if direction is None:
            return sum(run[key] for run in runs)
        return sum(link[key] for run in runs for link in run[direction])

    frames = calls("receiver.build_ack_frame")
    losses = total("packet_threshold_losses") + total("time_threshold_losses")
    out = {
        "core.add_range.calls.sender": counts["core.add_range.calls.sender"],
        "core.add_range.calls.simulation": counts["core.add_range.calls.simulation"],
        "core.add_range.calls.receiver": counts["core.add_range.calls.receiver"],
        "core.add_range.self_s": self_s("core.add_range"),
        "core.descending.self_s": self_s("core.descending"),
        "core.wire_size.self_s": self_s("core.wire_size"),
        "core.validate.per_frame": _ratio(calls("core.validate"), frames),
        "receiver.on_packet_received.self_s": self_s("receiver.on_packet_received"),
        "receiver.build_ack_frame.calls": frames,
        "receiver.build_ack_frame.self_s": self_s("receiver.build_ack_frame"),
        "receiver.ranges_kept_ratio": _ratio(
            counts["receiver.ranges_emitted"], counts["core.descending.ranges"]
        ),
        "sender.on_ack_received.calls": calls("sender.on_ack_received"),
        "sender.on_ack_received.self_s": self_s("sender.on_ack_received"),
        "sender.detect_losses.self_s": self_s("sender.detect_losses"),
        "sender.send_packet.self_s": self_s("sender.send_packet"),
        "sender.ranges_per_ack": _ratio(counts["sender.ack_ranges"], calls("sender.on_ack_received")),
        "sender.losses": losses,
        "sender.spurious_ratio": _ratio(total("spurious"), losses),
        "simulation.ack_frames": total("ack_frames"),
        "netsim.events": calls("netsim.pop"),
        "netsim.transmit.calls": calls("netsim.transmit"),
        "netsim.queue_drops": total("queue_drops", "down") + total("queue_drops", "up"),
        "netsim.loss_drops": total("loss_drops", "down") + total("loss_drops", "up"),
        "congestion.on_loss.calls": calls("congestion.on_loss"),
        "scheduler.select_path.calls": calls("scheduler.select_path"),
        "scheduler.select_path.self_s": self_s("scheduler.select_path"),
        "scheduler.no_path_ratio": _ratio(counts["scheduler.no_path"], calls("scheduler.select_path")),
        "harness.parse_s": spans["harness.parse"][1],
        "harness.to_dict_s": spans["harness.to_dict"][1],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    return out
