"""Whole random scenarios, the seeded draws `seeded_config(i)`, which no literal
moves: the file format round trip, refusing a field of the wrong type, per-event
and end-of-run checks (`checked_run`) and the one-path SPNS/MPNS differential.
"""

import dataclasses
import json
import math
import tempfile
from collections import Counter
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Callable

import pytest

from ack_codec import ack_decode, ack_encode
from mpqsim.core import ACK_DELAY_EXPONENT, AckFrame, ConfigError, SpaceMode, ack_frame_wire_size
from mpqsim.harness import compare_modes, parse_config_file
from mpqsim.netsim import LinkModel, ms_to_us
from mpqsim.receiver import RecvConfig
from mpqsim.scenario import MetricsReport, ScenarioConfig
from mpqsim.simulation import Simulation
from scenario_draws import check_draws, comparable, scenario_config, seeded_config
from test_netsim import assert_one_heap_entry_per_live_timer


def check_scenarios(indices: range, check: Callable[[ScenarioConfig], object], **params) -> None:
    """`check_draws` of the scenario draws `scenario/{i}` of `scenario_config(c, **params)`."""
    return check_draws("scenario", indices, partial(scenario_config, **params), check, shown=comparable)


def test_a_failing_draw_is_reported_by_its_label():
    drawn = comparable(seeded_config(17))
    with pytest.raises(AssertionError) as failure:
        check_scenarios(range(15, 20), lambda config: comparable(config) != drawn or pytest.fail())
    assert str(failure.value) == f"scenario/17: {drawn}"


def write_scenario_file(config: ScenarioConfig, directory: Path) -> Path:
    """The config as a scenario file, each trace in a file beside it."""
    recv = config.recv
    lines = [
        "[scenario]",
        f"mode = {config.mode.value}",
        f"scheduler = {config.scheduler.value}",
        f"cc = {config.cc.value}",
        f"transfer_mb = {config.transfer_size / 1e6!r}",
        f"mtu = {config.mtu}",
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
            f"window_packets = {str(lm.window_packets).lower()}",
        ]
    path = directory / "scenario.ini"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_scenario_file_round_trip():
    def round_trip(config: ScenarioConfig) -> str:
        with tempfile.TemporaryDirectory() as tmp:
            path = write_scenario_file(config, Path(tmp))
            if any(ms_to_us(lm.delay_down_ms) < 1 for lm in config.paths):
                with pytest.raises(ConfigError, match="delay_down_ms must round to at least 1 µs"):
                    parse_config_file(path)
                return "refused"
            assert comparable(parse_config_file(path)) == comparable(config)
            return "read back"

    # from a floor of 0 ms, a drawn bound gives a delay under 1 µs: both branches run
    branches = set()
    check_scenarios(range(200), lambda config: branches.add(round_trip(config)), min_delay_down_ms=0.0)
    assert branches == {"refused", "read back"}


# for every config field, values of a type its hint does not admit
WRONG_TYPES = {
    ScenarioConfig: {
        "mode": ["spns", 0, None],
        "paths": [None, "path", (), [None]],
        "transfer_size": [2.5, True, "100000"],
        "mtu": [1350.0, True, None],
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


def test_a_field_of_the_wrong_type_is_refused_before_the_run():
    def refused(config: ScenarioConfig) -> None:
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

    check_scenarios(range(100), refused)


def check_encoding(frame: AckFrame, mode: SpaceMode) -> None:
    """The model's size of `frame` is that of its RFC 9000 encoding, which
    decodes back to the frame."""
    data = ack_encode(frame, mode)
    assert len(data) == ack_frame_wire_size(frame, mode)
    space = frame.space if mode is SpaceMode.MPNS else None
    delay = frame.ack_delay >> ACK_DELAY_EXPONENT
    assert ack_decode(data, mode) == (space, frame.largest_acked, delay, frame.ranges)


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
    read = dict.fromkeys(receiver.received_pn, 0)

    def checked_build(path: int, now: int) -> AckFrame:
        frame = build(path, now)
        assert frame.validate() == []
        for p, series in receiver.received_pn.items():
            received[sim.mode.space_of(p)].update(pn for _, pn in series[read[p] :])
            read[p] = len(series)
        got = received[frame.space]
        assert all(pn in got for hi, lo in frame.ranges for pn in range(lo, hi + 1))
        by_hand = dataclasses.replace(frame, wire_size=None)
        assert ack_frame_wire_size(frame, sim.mode) == ack_frame_wire_size(by_hand, sim.mode)
        check_encoding(frame, sim.mode)
        assert widest is None or len(frame.ranges) <= widest
        return frame

    receiver.build_ack_frame = checked_build
    watched = {"peeks": 0, "pops": 0, "next_event": None, "clock": loop.now}
    gates = [ps.pace_next for ps in sender.paths]
    peek, pop = loop.peek_time, loop.pop

    def counted_pop():
        watched["pops"] += 1
        return pop()

    def checked_peek():
        watched["peeks"] += 1
        for space, sp in sender._spaces.items():
            # ascending, as `AckFrame.validate` walks it, and each one sent
            pns = list(sp.outstanding)
            assert all(a < b for a, b in zip(pns, pns[1:]))
            assert all(pn < len(sp.send_times) for pn in pns)
            # the space's columns hold one entry per send of its paths
            sends = sum(ps.sent_count for ps in sender.paths if sim.mode.space_of(ps.path) == space)
            assert len(sp.send_times) == len(sp.sent_on) == sends
        for ps in sender.paths:
            assert ps.bytes_in_flight == sum(r.size for r in ps.unacked.values()) >= 0
            # an unacked number is outstanding in its space, sent on this path;
            # the other outstanding numbers were declared lost
            sp = sender._path_spaces[ps.path]
            assert all(pn in sp.outstanding and sp.sent_on[pn] == ps.path for pn in ps.unacked)
            # the PTO deadline is set exactly while the path has unacked packets
            assert (ps.pto_deadline is None) == (not ps.unacked)
            # the pacing gate never moves back
            assert ps.pace_next >= gates[ps.path]
            gates[ps.path] = ps.pace_next
        # each live timer has exactly one event on the heap, due at its time
        live = loop.timers
        assert_one_heap_entry_per_live_timer(loop)
        # a set ack-timer or PTO deadline has a live event due no later
        for prs in receiver.per_path:
            deadline = prs.ack_timer_deadline
            # the path owes an ACK exactly while its deadline is set, the
            # condition the end-of-run flush reads
            assert (prs.ack_eliciting_since_ack > 0) == (deadline is not None)
            assert deadline is None or live.get(("ack", prs.path), (math.inf,))[0] <= deadline
        for ps in sender.paths:
            deadline = ps.pto_deadline
            assert deadline is None or live.get(("pto", ps.path), (math.inf,))[0] <= deadline
        # the delivered prefix and the chunks above it hold each byte once
        above = sim.delivered_above
        assert sim.delivered_to + sum(above.values()) <= config.transfer_size
        assert all(offset > sim.delivered_to for offset in above)
        assert loop.now >= watched["clock"]
        watched["clock"] = loop.now
        watched["next_event"] = peek()
        return watched["next_event"]

    loop.peek_time, loop.pop = checked_peek, counted_pop
    return watched


# the regimes a run can reach; the seeded draws must reach the first eight
REGIMES = (
    "queue drop",
    "random drop",
    "a PTO probe",
    "two or more PTO probes",
    "time-threshold loss",
    "spurious retransmission",
    "an ACK-frame gap of 32-63",
    "an ACK-frame gap of 64+",
    "a frame of 65+ ranges",
    "a packet received, never acknowledged",
)
REACHED = REGIMES[:8]


def watch_regimes(sim: Simulation) -> Callable[[], list[str]]:
    """Count the packets the run's PTO expiries send and the gaps of its frames;
    the returned call names the `REGIMES` the finished run reached."""
    probes, gaps = 0, set()
    on_pto, build = sim._on_pto, sim.receiver.build_ack_frame

    def counted_pto(now: int, path: int) -> int | None:
        nonlocal probes
        ps = sim.sender.paths[path]
        sent = ps.sent_count
        later = on_pto(now, path)
        probes += ps.sent_count - sent
        return later

    def gapped_build(path: int, now: int) -> AckFrame:
        frame = build(path, now)
        gaps.update(above.smallest - below.largest - 2 for above, below in zip(frame.ranges, frame.ranges[1:]))
        return frame

    sim._on_pto, sim.receiver.build_ack_frame = counted_pto, gapped_build

    def reached() -> list[str]:
        links, report = sim.down + sim.up, sim.report
        hits = (
            any(link.queue_drops for link in links),
            any(link.loss_drops for link in links),
            probes >= 1,
            probes >= 2,
            report.time_threshold_losses > 0,
            report.spurious_retx > 0,
            any(32 <= gap <= 63 for gap in gaps),
            max(gaps, default=0) >= 64,
            max(report.ack_range_count_histogram, default=0) >= 65,
            report.received_never_acked > 0,
        )
        return [name for name, hit in zip(REGIMES, hits) if hit]

    return reached


def checked_run(config: ScenarioConfig) -> tuple[MetricsReport, list[str]]:
    """Run `config` to the end, checking the per-event invariants, then check
    what must hold of every finished run; run it again, which must give the
    same report bytes. Returns the report and the `REGIMES` the run reached."""
    sim = Simulation(config)
    watched = watch_invariants(sim)
    regimes = watch_regimes(sim)
    report = sim.run()
    # the invariants were checked after every event
    assert watched["peeks"] == watched["pops"] + 1
    # complete, or stopped with events still due past the cap
    next_event = watched["next_event"]
    assert report.complete or (next_event is not None and next_event > config.duration_cap_s * 1e6)
    assert report.packets_received <= report.packets_sent
    # one hole count per arrival, logged at the same instant
    assert len(report.hole_count) == report.packets_received
    arrivals = sorted(t for series in report.received_pn.values() for t, _ in series)
    assert [t for t, _ in report.hole_count] == arrivals
    assert config.recv.suppression_enabled or report.received_never_acked == 0
    # a sample's largest comes from another path only when an SPNS frame is
    # anchored at the space's largest packet rather than its path's
    if config.mode is SpaceMode.MPNS or config.recv.per_path_anchoring:
        assert report.mixed_samples_ms == []
    # each credited sample updates its path's srtt at the same instant
    assert report.srtt_ms.keys() == report.rtt_samples_ms.keys()
    for path, samples in report.rtt_samples_ms.items():
        assert [t for t, _ in report.srtt_ms[path]] == [t for t, _ in samples]
    data = json.dumps(report.to_dict())
    assert MetricsReport.from_dict(json.loads(data)) == report
    assert json.dumps(Simulation(config).run().to_dict()) == data
    return report, regimes()


def encoded_frames(config: ScenarioConfig) -> list[AckFrame]:
    """Run `config` to completion; every frame it builds, each checked by `check_encoding`."""
    sim = Simulation(config)
    build, frames = sim.receiver.build_ack_frame, []

    def checked_build(path: int, now: int) -> AckFrame:
        frame = build(path, now)
        check_encoding(frame, sim.mode)
        frames.append(frame)
        return frame

    sim.receiver.build_ack_frame = checked_build
    assert sim.run().complete
    return frames


def test_a_lossy_reference_run_encodes_its_frames_of_65_ranges_exactly():
    # the two-path reference at 4 MB, 3% loss on both paths, SPNS without
    # suppression: lost numbers stay holes, so about a quarter of the frames
    # carry 65 or more ranges and a 2-byte range count
    reference = parse_config_file(Path(__file__).parent.parent / "scenarios" / "two_path.ini")
    lossy = [dataclasses.replace(link, loss_rate=0.03) for link in reference.paths]
    config = dataclasses.replace(reference, transfer_size=4_000_000, paths=lossy)
    assert (config.mode, config.seed, config.recv.suppression_enabled) == (SpaceMode.SPNS, 7, False)
    assert max(len(frame.ranges) for frame in encoded_frames(config)) >= 65
    # a fast path held to a 2-packet window beside a slow one with a wide
    # window, SPNS: the fast path's frames skip runs of 64 or more of the
    # slow path's numbers still in flight, gaps that need a 2-byte varint
    fast = LinkModel(5, 5, rate_mbps=100, window_packets=2)
    slow = LinkModel(100, 100, rate_mbps=400)
    frames = encoded_frames(ScenarioConfig(SpaceMode.SPNS, [fast, slow], 8_000_000, seed=7))
    gaps = [
        above.smallest - below.largest - 2 for f in frames for above, below in zip(f.ranges, f.ranges[1:])
    ]
    assert max(gaps) >= 64


def test_random_scenarios_end_cleanly_and_repeat_exactly():
    # the reach pin below checks draws 0-149
    check_scenarios(range(150, 300), checked_run)


def test_the_fuzzers_draws_reach_each_regime():
    reached = Counter()
    check_scenarios(range(150), lambda config: reached.update(checked_run(config)[1]))
    counts = {name: reached[name] for name in REGIMES}
    assert all(counts[name] for name in REACHED), counts


def test_one_path_spns_and_mpns_agree():
    agreed = attrgetter("completion_time_s", "packets_sent", "packet_threshold_losses", "time_threshold_losses")

    def agree(config: ScenarioConfig) -> None:
        comparison = compare_modes(config)
        assert agreed(comparison.spns) == agreed(comparison.mpns)

    check_scenarios(range(100), agree, max_paths=1)
