"""Whole random scenarios: the file format round trip, per-event and
end-of-run checks, and the single-path SPNS/MPNS differential.

Every test is derandomised, so a failure reproduces on every run.
"""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpqsim.congestion import CcAlgorithm
from mpqsim.core import AckFrame, ConfigError, SpaceMode, ack_frame_wire_size
from mpqsim.harness import compare_modes, parse_config_file
from mpqsim.netsim import LinkModel, TraceSchedule, ms_to_us
from mpqsim.receiver import RecvConfig
from mpqsim.scenario import MetricsReport, ScenarioConfig
from mpqsim.scheduler import SchedulerKind
from mpqsim.simulation import Simulation


@st.composite
def links(draw, min_delay_down_ms):
    """One path, rate- or trace-driven."""
    if draw(st.booleans()):
        rate, trace = draw(st.floats(0.1, 1e8)), None
    else:
        times = draw(st.lists(st.integers(0, 40), min_size=1, max_size=30))
        rate, trace = None, TraceSchedule(sorted(times))
    return LinkModel(
        delay_down_ms=draw(st.floats(min_delay_down_ms, 100.0)),
        delay_up_ms=draw(st.floats(0.0, 100.0)),
        rate_mbps=rate,
        trace=trace,
        loss_rate=draw(st.floats(0.0, 0.1)),
        reverse_loss_rate=draw(st.floats(0.0, 0.05)),
        queue_capacity=draw(st.integers(0, 64)),
        mtu=draw(st.sampled_from([1200, 1280, 1350, 1500])),
        window_packets=draw(st.one_of(st.just("auto"), st.none(), st.integers(1, 64))),
    )


@st.composite
def receiver_configs(draw):
    """Suppression off, or on with both limits in 1-8."""
    recv = RecvConfig(
        ack_eliciting_threshold=draw(st.integers(1, 4)),
        max_ack_delay=draw(st.integers(0, 50_000)),
        per_path_anchoring=draw(st.booleans()),
    )
    if draw(st.booleans()):
        recv.suppression_enabled = True
        recv.default_limit = draw(st.integers(1, 8))
        recv.maximum_limit = draw(st.integers(recv.default_limit, 8))
    return recv


@st.composite
def scenario_configs(draw, max_paths=4, min_delay_down_ms=0.0):
    """A whole ScenarioConfig of 1 to `max_paths` paths.

    Data delays start at `min_delay_down_ms`; from 0 they include delays
    under 1 µs, which validation refuses.
    """
    num_paths = draw(st.integers(1, max_paths))
    return ScenarioConfig(
        mode=draw(st.sampled_from(SpaceMode)),
        paths=[draw(links(min_delay_down_ms)) for _ in range(num_paths)],
        transfer_size=draw(st.integers(50_000, 400_000)),
        scheduler=draw(st.sampled_from(SchedulerKind)),
        cc=draw(st.sampled_from(CcAlgorithm)),
        recv=draw(receiver_configs()),
        seed=draw(st.integers(0, 2**32)),
        duration_cap_s=draw(st.floats(0.05, 60.0)),
    )


def write_scenario_file(config: ScenarioConfig, directory: Path) -> Path:
    """The config as a scenario file, each trace in a file beside it."""
    recv = config.recv
    lines = [
        "[scenario]",
        f"mode = {config.mode.value}",
        f"scheduler = {config.scheduler.value}",
        f"cc = {config.cc.value}",
        f"transfer_mb = {config.transfer_size / 1e6!r}",
        f"seed = {config.seed}",
        f"duration_cap_s = {config.duration_cap_s!r}",
        "[receiver]",
        f"ack_eliciting_threshold = {recv.ack_eliciting_threshold}",
        f"max_ack_delay_ms = {recv.max_ack_delay / 1000!r}",
        f"suppression = {str(recv.suppression_enabled).lower()}",
        f"default_limit = {recv.default_limit}",
        f"maximum_limit = {recv.maximum_limit}",
        f"per_path_anchoring = {str(recv.per_path_anchoring).lower()}",
    ]
    for p, lm in enumerate(config.paths):
        lines.append(f"[path.{p}]")
        if lm.trace is None:
            lines.append(f"rate_mbps = {lm.rate_mbps!r}")
        else:
            (directory / f"path{p}.trace").write_text("".join(f"{t}\n" for t in lm.trace.times_ms))
            lines.append(f"trace = path{p}.trace")
        lines += [
            f"delay_down_ms = {lm.delay_down_ms!r}",
            f"delay_up_ms = {lm.delay_up_ms!r}",
            f"loss_rate = {lm.loss_rate!r}",
            f"reverse_loss_rate = {lm.reverse_loss_rate!r}",
            f"queue_packets = {lm.queue_capacity}",
            f"mtu = {lm.mtu}",
            f"window_packets = {str(lm.window_packets).lower()}",
        ]
    path = directory / "scenario.ini"
    path.write_text("\n".join(lines) + "\n")
    return path


def comparable(config: ScenarioConfig) -> tuple:
    """The config with each trace replaced by its timestamps."""
    links = [dataclasses.replace(lm, trace=None) for lm in config.paths]
    traces = [lm.trace.times_ms if lm.trace else None for lm in config.paths]
    return dataclasses.replace(config, paths=links), traces


@settings(derandomize=True, deadline=None, max_examples=200)
@given(scenario_configs())
def test_scenario_file_round_trip(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenario_file(config, Path(tmp))
        if any(ms_to_us(lm.delay_down_ms) < 1 for lm in config.paths):
            with pytest.raises(ConfigError, match="delay_down_ms must round to at least 1 µs"):
                parse_config_file(path)
        else:
            assert comparable(parse_config_file(path)) == comparable(config)


# for every config field, values of a type its hint does not admit
WRONG_TYPES = {
    ScenarioConfig: {
        "mode": ["spns", 0, None],
        "paths": [None, "path", (), [None]],
        "transfer_size": [2.5, True, "100000"],
        "scheduler": ["minrtt", None],
        "cc": ["cubic", 1],
        "recv": [None, {}],
        "seed": [2.5, True, "7", None],
        "duration_cap_s": [True, "60", None],
    },
    LinkModel: {
        "delay_down_ms": [True, "10", None],
        "delay_up_ms": [False, "10", None],
        "rate_mbps": [True, "10"],
        "trace": [[0, 1], "path0.trace"],
        "loss_rate": [False, "0", None],
        "reverse_loss_rate": [False, None],
        "queue_capacity": [2.5, True, None],
        "mtu": [1350.0, True, None],
        "window_packets": ["big", "none", True, 2.5],
    },
    RecvConfig: {
        "ack_eliciting_threshold": [2.0, True, None],
        "max_ack_delay": [25_000.5, False, None],
        "suppression_enabled": ["false", 0, None],
        "default_limit": [4.0, True],
        "maximum_limit": [64.0, None],
        "per_path_anchoring": ["no", 1, None],
    },
}


def test_wrong_type_table_covers_every_field():
    for cls, wrong in WRONG_TYPES.items():
        assert list(wrong) == [f.name for f in dataclasses.fields(cls)]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(scenario_configs(min_delay_down_ms=0.001))
def test_a_field_of_the_wrong_type_is_refused_before_the_run(config):
    # one field at a time, in the scenario, its receiver config and each path
    for owner in [config, config.recv, *config.paths]:
        for name, values in WRONG_TYPES[type(owner)].items():
            good = getattr(owner, name)
            for value in values:
                setattr(owner, name, value)
                # only a path's message carries a prefix, "path N: "
                with pytest.raises(ConfigError, match=rf"^(path \d+: )?{name} must be "):
                    Simulation(config)
            setattr(owner, name, good)
    Simulation(config)


def watch_invariants(sim: Simulation) -> dict:
    """Check the protocol invariants after every event and on every built frame.

    The run peeks at its event loop once before the first event and once
    after each one; the checks run in a wrapper around that peek. Returns
    the counts of peeks and pops and the latest peeked time, for the
    end-of-run checks.
    """
    config, receiver, sender, loop = sim.config, sim.receiver, sim.sender, sim.loop
    build = receiver.build_ack_frame
    widest = config.recv.maximum_limit if config.recv.suppression_enabled else None
    received = {space: set() for space in receiver.spaces}  # from the arrival series
    read = dict.fromkeys(sim.received_pn, 0)

    def checked_build(path: int, now: int) -> AckFrame:
        frame = build(path, now)
        assert frame.validate() == []
        for p, series in sim.received_pn.items():
            received[sim.mode.space_of(p)].update(pn for _, pn in series[read[p] :])
            read[p] = len(series)
        got = received[frame.space]
        assert all(pn in got for hi, lo in frame.ranges for pn in range(lo, hi + 1))
        by_hand = dataclasses.replace(frame, wire_size=None)
        assert ack_frame_wire_size(frame, sim.mode) == ack_frame_wire_size(by_hand, sim.mode)
        assert widest is None or len(frame.ranges) <= widest
        return frame

    receiver.build_ack_frame = checked_build
    watched = {"peeks": 0, "pops": 0, "next_event": None, "clock": loop.now}
    timer, pto = sim._on_ack_timer, sim._on_pto
    gates = [ps.pace_next for ps in sender.paths]
    peek, pop = loop.peek_time, loop.pop

    def counted_pop():
        watched["pops"] += 1
        return pop()

    def checked_peek():
        watched["peeks"] += 1
        for ps in sender.paths:
            assert ps.bytes_in_flight == sum(r.size for r in ps.unacked.values()) >= 0
            # an unacked record is its space's outstanding one; the others
            # there were declared lost
            outstanding = sender._path_spaces[ps.path].outstanding
            assert all(outstanding.get(pn) is rec for pn, rec in ps.unacked.items())
            # the PTO deadline is set exactly while the path has unacked packets
            assert (ps.pto_deadline is None) == (not ps.unacked)
            # the pacing gate never moves back
            assert ps.pace_next >= gates[ps.path]
            gates[ps.path] = ps.pace_next
        for space, sp in sender._spaces.items():
            # ascending, as `AckFrame.validate` walks it
            pns = list(sp.outstanding)
            assert all(a < b for a, b in zip(pns, pns[1:]))
            # the space's records are its paths' sends, each at its number
            sends = sum(ps.sent_count for ps in sender.paths if sim.mode.space_of(ps.path) == space)
            assert len(sp.records) == sends
            assert not sp.records or sp.records[-1].pn == sends - 1
        # at most one pending ack-timer and one PTO event per path, and one
        # while its deadline is set
        pending = {timer: {}, pto: {}}
        for time, _, handler, args in loop._heap:
            if handler in pending:
                assert args[0] not in pending[handler]
                pending[handler][args[0]] = time
        # an ack-timer event is due no later than its deadline. A PTO event
        # may be due later: a deadline moved earlier, as the first RTT sample
        # does, keeps the event armed for the one before
        for prs in receiver.per_path:
            deadline = prs.ack_timer_deadline
            assert deadline is None or pending[timer].get(prs.path, math.inf) <= deadline
        for ps in sender.paths:
            assert ps.pto_deadline is None or ps.path in pending[pto]
        assert sim.delivered_bytes <= config.transfer_size
        assert loop.now >= watched["clock"]
        watched["clock"] = loop.now
        watched["next_event"] = peek()
        return watched["next_event"]

    loop.peek_time, loop.pop = checked_peek, counted_pop
    return watched


def checked_run(config: ScenarioConfig) -> MetricsReport:
    """Run to the end, checking the per-event invariants, then check what
    must hold of every finished run."""
    sim = Simulation(config)
    watched = watch_invariants(sim)
    report = sim.run()
    # the invariants were checked after every event
    assert watched["peeks"] == watched["pops"] + 1
    # complete, or stopped with events still due past the cap
    next_event = watched["next_event"]
    assert report.complete or (
        next_event is not None and next_event > config.duration_cap_s * 1e6
    )
    assert report.packets_received <= report.packets_sent
    assert config.recv.suppression_enabled or report.received_never_acked == 0
    # a sample's largest comes from another path only when an SPNS frame is
    # anchored at the space's largest packet rather than its path's
    if config.mode is SpaceMode.MPNS or config.recv.per_path_anchoring:
        assert report.mixed_samples_ms == []
    # each credited sample updates its path's srtt at the same instant
    assert report.srtt_ms.keys() == report.rtt_samples_ms.keys()
    for path, samples in report.rtt_samples_ms.items():
        assert [t for t, _ in report.srtt_ms[path]] == [t for t, _ in samples]
    assert MetricsReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report
    return report


@settings(derandomize=True, deadline=None, max_examples=150)
@given(scenario_configs(min_delay_down_ms=0.001))
def test_random_scenarios_end_cleanly_and_repeat_exactly(config):
    first = checked_run(config)
    second = Simulation(config).run()
    assert json.dumps(second.to_dict()) == json.dumps(first.to_dict())


@settings(derandomize=True, deadline=None, max_examples=100)
@given(scenario_configs(max_paths=1, min_delay_down_ms=0.001))
def test_one_path_spns_and_mpns_agree(config):
    comparison = compare_modes(config)
    spns, mpns = comparison.spns, comparison.mpns
    assert spns.completion_time_s == mpns.completion_time_s
    assert spns.packets_sent == mpns.packets_sent
    assert spns.packet_threshold_losses == mpns.packet_threshold_losses
    assert spns.time_threshold_losses == mpns.time_threshold_losses
