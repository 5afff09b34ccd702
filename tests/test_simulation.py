import functools
import gc
import tracemalloc
import weakref

import pytest

from mpqsim.congestion import CcAlgorithm
from mpqsim.core import AckFrame, AckRange, ConfigError, SpaceMode
from mpqsim.netsim import LinkModel, TraceSchedule
from mpqsim.receiver import RecvConfig
from mpqsim.scenario import ScenarioConfig
from mpqsim.scheduler import SchedulerKind
from mpqsim.sender import SentPacketRecord
from mpqsim.simulation import Simulation, auto_window_packets
from test_golden import GOLDEN
from test_netsim import assert_one_heap_entry_per_live_timer


def two_path_config(mode=SpaceMode.SPNS, transfer=400_000, seed=3, **kw):
    paths = [
        LinkModel(delay_down_ms=15, delay_up_ms=15, rate_mbps=40),
        LinkModel(delay_down_ms=60, delay_up_ms=60, rate_mbps=15),
    ]
    return ScenarioConfig(mode=mode, paths=paths, transfer_size=transfer, seed=seed, **kw)


def test_auto_window_covers_bdp_with_small_headroom():
    link = LinkModel(delay_down_ms=15, delay_up_ms=15, rate_mbps=40)
    window = auto_window_packets(link, 1350)
    bdp_packets = 40e6 * 0.030 / 8 / 1350
    assert bdp_packets < window < bdp_packets + 16
    assert auto_window_packets(LinkModel(delay_down_ms=1, delay_up_ms=1), 1350) is None


def test_the_scenario_mtu_sizes_every_chunk_mss_and_window():
    paths = [
        LinkModel(delay_down_ms=15, delay_up_ms=15, rate_mbps=40, window_packets=12),
        LinkModel(delay_down_ms=60, delay_up_ms=60, rate_mbps=15),
    ]
    sim = Simulation(ScenarioConfig(SpaceMode.SPNS, paths, transfer_size=100_000, mtu=1200))
    assert sim.mtu == 1200
    assert [ps.cc.mss for ps in sim.sender.paths] == [1200, 1200]
    assert sim.sender.paths[0].cc.max_cwnd == 12 * 1200
    assert sim.sender.paths[1].cc.max_cwnd == auto_window_packets(paths[1], 1200) * 1200
    sizes = []
    send = sim._send_on_path
    sim._send_on_path = lambda path, size, offset, now: sizes.append(size) or send(path, size, offset, now)
    assert sim.run().complete
    # 83 full chunks and the 400-byte rest, each sent at least once
    assert set(sizes) == {1200, 400} and len(sizes) >= 84


def test_mtu_must_be_positive():
    cfg = two_path_config(mtu=0)
    with pytest.raises(ConfigError, match="^mtu must be positive$"):
        Simulation(cfg)
    cfg.mtu = 1
    Simulation(cfg)


def test_transfer_completes_and_accounts_bytes():
    sim = Simulation(two_path_config())
    report = sim.run()
    assert report.complete
    assert (sim.delivered_to, sim.delivered_above) == (400_000, {})
    assert report.goodput_kBps == pytest.approx(400 / report.completion_time_s)
    assert report.packets_sent >= report.packets_received
    # both paths carried traffic
    assert all(len(report.received_pn[p]) > 0 for p in (0, 1))


def test_each_delivered_chunk_counts_once():
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10)]
    sim = Simulation(ScenarioConfig(mode=SpaceMode.SPNS, paths=paths, transfer_size=4_500))
    sim._emit_ack = lambda frame, path, now: None
    # (offset, size, delivered prefix after it, chunks above the prefix)
    arrivals = [
        (2_000, 1_000, 0, {2_000: 1_000}),  # out of order
        (0, 1_000, 1_000, {2_000: 1_000}),
        (2_000, 1_000, 1_000, {2_000: 1_000}),  # again, above the prefix
        (0, 1_000, 1_000, {2_000: 1_000}),  # a retransmission below the prefix
        (4_000, 500, 1_000, {2_000: 1_000, 4_000: 500}),
        (1_000, 1_000, 3_000, {4_000: 500}),  # fills the gap: folds 2_000 in
        (1_000, 1_000, 3_000, {4_000: 500}),  # again, now below the prefix
        (3_000, 1_000, 4_500, {}),
    ]
    delivered = set()
    for pn, (offset, size, prefix, above) in enumerate(arrivals):
        sim._on_data(pn, 0, pn, size, offset)
        delivered.add((offset, size))
        held = sim.delivered_to + sum(sim.delivered_above.values())
        assert held == sum(size for _, size in delivered)
        assert (sim.delivered_to, sim.delivered_above) == (prefix, above)
        assert (sim.completion_us is not None) == (pn == len(arrivals) - 1)
    assert sim.delivered_to == 4_500


@pytest.mark.parametrize(
    "make_config",
    [pytest.param(functools.partial(two_path_config, mode), id=str(mode)) for mode in SpaceMode]
    # lossy runs: a packet declared lost leaves no record behind
    + [
        pytest.param(GOLDEN[name][0], id=name)
        for name in ("spns-lossy-suppress-1", "lossy-4p-roundrobin-newreno")
    ],
)
def test_a_finished_run_keeps_only_its_unacked_records(make_config):
    sim = Simulation(make_config())
    assert sim.run().complete
    gc.collect()
    live = {id(obj) for obj in gc.get_objects() if isinstance(obj, SentPacketRecord)}
    held = {id(rec) for ps in sim.sender.paths for rec in ps.unacked.values()}
    assert live == held


def test_a_report_holds_under_64_bytes_a_received_packet():
    # the bytes freed with the report: its series are typed columns, and
    # each instant is stored once
    tracemalloc.start()
    try:
        sim = Simulation(two_path_config(transfer=2_000_000, seed=7))
        report = sim.run()
        del sim
        gc.collect()
        with_report = tracemalloc.get_traced_memory()[0]
        assert report.complete and report.packets_received > 1_000
        packets = report.packets_received
        del report
        gc.collect()
        held = with_report - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / packets < 64


def test_export_builds_each_instant_once():
    data = Simulation(two_path_config(transfer=2_000_000, seed=7)).run().to_dict()
    # the hole counts' times are the arrivals' time objects, each once
    arrivals = [t for series in data["received_pn"].values() for t, _ in series]
    hole_times = [t for t, _ in data["hole_count"]]
    assert hole_times == sorted(arrivals)
    assert sorted(map(id, hole_times)) == sorted(map(id, arrivals))
    # a path's smoothed RTT is logged at its samples' time objects
    for path, samples in data["rtt_samples_ms"].items():
        smoothed = data["srtt_ms"][path]
        assert len(smoothed) == len(samples) > 0
        assert all(s is t for (s, _), (t, _) in zip(smoothed, samples))


def test_single_path_modes_complete_identically():
    paths = lambda: [LinkModel(delay_down_ms=20, delay_up_ms=20, rate_mbps=20)]
    times = {}
    for mode in (SpaceMode.SPNS, SpaceMode.MPNS):
        cfg = ScenarioConfig(mode=mode, paths=paths(), transfer_size=300_000, seed=1)
        times[mode] = Simulation(cfg).run().completion_time_s
    assert times[SpaceMode.SPNS] == times[SpaceMode.MPNS]


def test_bytes_in_flight_conserved_after_every_event():
    sim = Simulation(two_path_config(transfer=200_000))
    peek = sim.loop.peek_time

    def check():
        # the run peeks once before the first event and once after each one
        for ps in sim.sender.paths:
            expected = sum(r.size for r in ps.unacked.values())
            assert ps.bytes_in_flight == expected
        return peek()

    sim.loop.peek_time = check
    assert sim.run().complete


def test_finished_simulation_is_freed_without_cyclic_gc():
    gc.disable()
    try:
        sim = Simulation(two_path_config(transfer=50_000))
        sim.run()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
        # also after a run that stops at its cap with events still pending
        sim = Simulation(two_path_config(transfer=50_000_000, duration_cap_s=0.05))
        assert not sim.run().complete
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "link, recv",
    [
        ({"rate_mbps": 0}, {}),
        ({"rate_mbps": -5}, {}),
        ({"delay_down_ms": -1}, {}),
        ({"delay_up_ms": -1}, {}),
        ({"delay_down_ms": float("nan")}, {}),
        ({"reverse_loss_rate": 1.0}, {}),
        ({"reverse_loss_rate": -0.1}, {}),
        ({"window_packets": 0}, {}),
        ({"window_packets": "big"}, {}),
        ({}, {"max_ack_delay": -1}),
        # a data delay under 1 µs would give a zero RTT sample or completion time
        ({"delay_down_ms": 0, "delay_up_ms": 0}, {}),
        ({"delay_down_ms": 0.0001}, {}),
        ({"rate_mbps": 1e8, "delay_down_ms": 0, "delay_up_ms": 0}, {}),
        ({"rate_mbps": None, "trace": TraceSchedule([0, 1]), "delay_down_ms": 0}, {}),
        # one MTU's serialization time would be infinite
        ({"rate_mbps": 5e-324}, {}),
        # non-int receiver settings; the first two would otherwise fail
        # mid-run, in slicing and in the varint encoding
        ({}, {"suppression_enabled": True, "default_limit": 2.5}),
        ({}, {"max_ack_delay": 25000.5}),
        ({}, {"maximum_limit": 64.0}),
        ({}, {"ack_eliciting_threshold": True}),
        # non-int link sizes; each would otherwise run, a bool as 1
        ({"queue_capacity": True}, {}),
        ({"window_packets": True}, {}),
        ({"window_packets": 12.0}, {}),
        ({"queue_capacity": 2.5}, {}),
    ],
)
def test_bad_link_and_receiver_values_refused_before_the_run(link, recv):
    paths = [LinkModel(**{"delay_down_ms": 10, "delay_up_ms": 10, "rate_mbps": 10, **link})]
    cfg = ScenarioConfig(
        mode=SpaceMode.SPNS, paths=paths, transfer_size=10_000, recv=RecvConfig(**recv)
    )
    with pytest.raises(ConfigError):
        cfg.validate()
    with pytest.raises(ConfigError):
        Simulation(cfg)


@pytest.mark.parametrize("size", [2.5, True, 10_000.0])
def test_non_int_transfer_size_refused_before_the_run(size):
    # 2.5 would otherwise complete after one 2.5-byte packet
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10)]
    cfg = ScenarioConfig(mode=SpaceMode.SPNS, paths=paths, transfer_size=size)
    with pytest.raises(ConfigError, match="transfer_size must be a positive int"):
        Simulation(cfg)


# each would otherwise run another algorithm than it names, run a bool as 1,
# or fail inside the simulator
@pytest.mark.parametrize(
    "owner, name, value",
    [
        ("scenario", "cc", "cubic"),
        ("scenario", "scheduler", "roundrobin"),
        ("scenario", "mode", "spns"),
        ("scenario", "recv", None),
        ("scenario", "duration_cap_s", True),
        ("scenario", "seed", 2.5),
        ("scenario", "mtu", True),
        ("scenario", "mtu", 1350.5),
        ("recv", "suppression_enabled", "false"),
        ("recv", "per_path_anchoring", "no"),
        ("path", "rate_mbps", True),
        ("path", "delay_down_ms", True),
    ],
)
def test_wrong_field_type_refused_before_the_run(owner, name, value):
    cfg = two_path_config()
    setattr({"scenario": cfg, "recv": cfg.recv, "path": cfg.paths[1]}[owner], name, value)
    where = "path 1: " if owner == "path" else ""
    with pytest.raises(ConfigError, match=f"^{where}{name} must be "):
        Simulation(cfg)


def test_ints_in_float_fields_are_accepted():
    paths = [LinkModel(delay_down_ms=15, delay_up_ms=15, rate_mbps=40, loss_rate=0)]
    cfg = ScenarioConfig(mode=SpaceMode.SPNS, paths=paths, transfer_size=10_000, duration_cap_s=5)
    assert Simulation(cfg).run().complete


def test_tiny_finite_rate_runs_to_the_cap():
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=1e-300)]
    cfg = ScenarioConfig(mode=SpaceMode.SPNS, paths=paths, transfer_size=10_000, duration_cap_s=1)
    report = Simulation(cfg).run()
    assert not report.complete
    assert report.packets_received == 0


def test_the_serialization_check_counts_the_scenario_mtu():
    # at 1e-306 Mbps one 1350-byte packet takes an infinite time, one byte a finite one
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=1e-306)]
    cfg = ScenarioConfig(SpaceMode.SPNS, paths, transfer_size=10_000, duration_cap_s=1)
    with pytest.raises(ConfigError, match="^path 0: rate_mbps is too small"):
        Simulation(cfg)
    cfg.mtu = 1
    assert not Simulation(cfg).run().complete


def test_link_conservation_counters():
    sim = Simulation(two_path_config(transfer=200_000))
    sim.run()
    for link in sim.down + sim.up:
        assert link.attempts == link.delivered + link.queue_drops + link.loss_drops


def test_ack_leaves_at_the_later_deadline_after_a_superseded_timer():
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10)]
    recv = RecvConfig(ack_eliciting_threshold=2, max_ack_delay=25_000)
    sim = Simulation(ScenarioConfig(mode=SpaceMode.SPNS, paths=paths, transfer_size=100_000, recv=recv))
    sent = []
    sim._emit_ack = lambda frame, path, now: sent.append((now, frame.largest_acked))
    loop, timer, fired = sim.loop, sim._on_ack_timer, []

    def counted_timer(now, path):
        fired.append(now)
        return timer(now, path)

    sim._on_ack_timer = counted_timer
    # pn 0 arms a timer for 25 ms; pn 1 reaches the threshold and is
    # acknowledged at once, which supersedes it; pn 2 arms one for 27 ms
    # while the first timer's event is still live
    for pn in range(3):
        loop.schedule(pn * 1_000, sim._on_data, 0, pn, 1_000, pn * 1_000)
    while loop.peek_time() is not None:
        time, handler, args = loop.pop()
        handler(time, *args)
        assert_one_heap_entry_per_live_timer(loop)
    assert sent == [(1_000, 1), (27_000, 2)]
    assert fired == [25_000, 27_000]


def test_the_pto_event_is_due_no_later_than_its_deadline_after_the_first_rtt_sample():
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10)]
    sim = Simulation(ScenarioConfig(mode=SpaceMode.SPNS, paths=paths, transfer_size=100_000))
    ps, loop = sim.sender.paths[0], sim.loop
    loop.set_timer("wake", 0, sim._try_send)
    while not ps.rtt_samples_ms:
        time, handler, args = loop.pop()
        handler(time, *args)
    # the first send set a deadline about 1 s out; the sample moved it to
    # a few RTTs, and the ACK's handler sent again
    assert ps.pto_deadline < 200_000
    assert loop.timers[("pto", 0)][0] <= ps.pto_deadline


def test_an_ack_that_moves_the_pto_deadline_earlier_moves_its_event():
    # the whole transfer leaves in the initial window, so the ACK that
    # brings the first RTT sample is followed by no send
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10)]
    sim = Simulation(ScenarioConfig(mode=SpaceMode.SPNS, paths=paths, transfer_size=10 * 1350))
    ps, loop = sim.sender.paths[0], sim.loop
    loop.set_timer("wake", 0, sim._try_send)
    while not ps.rtt_samples_ms:
        time, handler, args = loop.pop()
        handler(time, *args)
    assert sim.next_offset == sim.config.transfer_size
    assert ps.pto_deadline == 113_640
    assert loop.timers[("pto", 0)][0] <= ps.pto_deadline


def test_an_spns_ack_on_one_path_moves_the_pto_event_of_the_path_it_acks():
    # four packets leave at 0, the whole transfer: minRTT probes each path
    # once, then ties to path 0, so pns 0, 2 and 3 go on path 0, pn 1 on path 1
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10) for _ in range(2)]
    sim = Simulation(ScenarioConfig(mode=SpaceMode.SPNS, paths=paths, transfer_size=4 * 1350))
    ps, loop = sim.sender.paths[0], sim.loop
    sim._try_send(0)
    assert [list(p.unacked) for p in sim.sender.paths] == [[0, 2, 3], [1]]
    assert loop.timers[("pto", 0)][0] == 1_024_000
    # path 1's frame acks pn 0 first, so path 0's own frame for it brings
    # path 0 its RTT sample (30 ms) but restarts no deadline
    sim._on_ack(20_000, 1, AckFrame(space=0, ack_delay=0, ranges=[AckRange(1, 0)]))
    sim._on_ack(30_000, 0, AckFrame(space=0, ack_delay=0, ranges=[AckRange(0, 0)]))
    assert ps.smoothed_rtt == 30_000 and ps.pto_deadline == 1_044_000
    # a frame on path 1 newly acks path 0's pn 2 and restarts its deadline
    # at 40 ms plus a 115 ms interval, far before its live event
    sim._on_ack(40_000, 1, AckFrame(space=0, ack_delay=0, ranges=[AckRange(2, 0)]))
    assert ps.pto_deadline == 155_000
    assert loop.timers[("pto", 0)][0] == ps.pto_deadline


def test_a_lost_last_packet_is_probed_at_the_deadline_its_send_set():
    # a one-packet ceiling leaves the two-packet floor window: the ACK that
    # brings the first RTT sample acks both packets, so the path has no
    # deadline until the last packet, which the link drops, sets one
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10, window_packets=1)]
    sim = Simulation(ScenarioConfig(mode=SpaceMode.SPNS, paths=paths, transfer_size=3 * 1350))
    ps, link, sends = sim.sender.paths[0], sim.down[0], []
    transmit = link.transmit

    def dropping_the_last_data_packet(size, now):
        sends.append((now, ps.pto_deadline))
        return None if len(sends) == 3 else transmit(size, now)

    link.transmit = dropping_the_last_data_packet
    report = sim.run()
    assert report.complete and report.packets_sent == len(sends) == 4
    assert len(ps.rtt_samples_ms) == 1
    # the probe goes out at that deadline, a few RTTs out, not about 1 s
    # out where the first send's deadline was
    (dropped_at, deadline), (probed_at, _) = sends[2:]
    assert dropped_at < probed_at == deadline < 200_000


def test_deterministic_repeat_runs():
    first = Simulation(two_path_config()).run()
    second = Simulation(two_path_config()).run()
    assert first == second
    assert first.to_dict() == second.to_dict()


def test_a_finished_run_returns_its_report_again():
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10)]
    sim = Simulation(ScenarioConfig(mode=SpaceMode.SPNS, paths=paths, transfer_size=20_000))
    first = sim.run()
    frames, now = sim.ack_frames, sim.loop.now
    assert sim.run() == first
    assert (sim.ack_frames, sim.loop.now) == (frames, now)


def test_lossy_forward_path_recovers_and_completes():
    cfg = two_path_config(transfer=300_000)
    cfg.paths[0].loss_rate = 0.03
    cfg.paths[1].loss_rate = 0.05
    report = Simulation(cfg).run()
    assert report.complete
    assert report.packet_threshold_losses + report.time_threshold_losses > 0
    assert report.packets_sent > report.packets_received  # drops really happened


def test_lossy_run_is_deterministic_too():
    def go():
        cfg = two_path_config(transfer=250_000, seed=9)
        cfg.paths[0].loss_rate = 0.05
        return Simulation(cfg).run()

    assert go() == go()


def test_heavy_reverse_loss_survives_via_probes():
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=10, reverse_loss_rate=0.9)]
    cfg = ScenarioConfig(
        mode=SpaceMode.SPNS, paths=paths, transfer_size=10_000, seed=2, duration_cap_s=30
    )
    report = Simulation(cfg).run()
    assert report.complete


def test_duration_cap_flags_incomplete():
    cfg = two_path_config(transfer=50_000_000, duration_cap_s=0.2)
    report = Simulation(cfg).run()
    assert not report.complete
    assert report.completion_time_s is None
    assert report.goodput_kBps is None


def test_round_robin_scheduler_runs():
    cfg = two_path_config(transfer=300_000, scheduler=SchedulerKind.ROUND_ROBIN)
    report = Simulation(cfg).run()
    assert report.complete
    # both paths carry traffic; the slow path stays cwnd-limited, so no
    # strict 50/50 split at this transfer size
    assert len(report.received_pn[0]) > 0
    assert len(report.received_pn[1]) > 10


def test_a_round_robin_run_takes_its_paths_in_turn():
    paths = [LinkModel(delay_down_ms=d, delay_up_ms=d, rate_mbps=r) for d, r in ((15, 40), (60, 15), (30, 20))]
    sim = Simulation(ScenarioConfig(SpaceMode.SPNS, paths, 300_000, scheduler=SchedulerKind.ROUND_ROBIN))
    picks = []
    send = sim._send_on_path
    sim._send_on_path = lambda path, size, offset, now: picks.append(path) or send(path, size, offset, now)
    assert sim.run().complete
    # every window is open at the start, so the cursor alone orders the picks
    assert picks[:9] == [0, 1, 2] * 3


def test_newreno_scenario_runs():
    cfg = two_path_config(transfer=300_000, cc=CcAlgorithm.NEW_RENO)
    assert Simulation(cfg).run().complete


def test_trace_driven_path():
    # one delivery opportunity per ms: about 1350 kB/s of capacity
    trace = TraceSchedule(list(range(1000)))
    paths = [LinkModel(delay_down_ms=10, delay_up_ms=10, trace=trace, window_packets=30)]
    cfg = ScenarioConfig(mode=SpaceMode.SPNS, paths=paths, transfer_size=150_000, seed=4)
    report = Simulation(cfg).run()
    assert report.complete
    # capacity-bound: cannot beat one packet per opportunity
    assert report.completion_time_s >= 150_000 / 1350 / 1000


def test_mpns_in_order_spaces_have_no_holes():
    report = Simulation(two_path_config(mode=SpaceMode.MPNS)).run()
    assert all(holes == 0 for _, holes in report.hole_count)


def test_spns_shared_space_accumulates_holes():
    report = Simulation(two_path_config(mode=SpaceMode.SPNS)).run()
    assert max(holes for _, holes in report.hole_count) > 0
