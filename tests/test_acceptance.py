"""Acceptance suite for the two-path reference scenario.

Reference scenario: path A at 40 Mbps / 15 ms one-way, path B at 15 Mbps /
60 ms one-way, zero configured loss, droptail queues of 64 packets, a
20 MB transfer, Cubic, minRTT scheduling, fixed seed. Each criterion
prints one PASS/FAIL line.
"""

import functools
import hashlib
import json
import random
import time

import pytest

from mpqsim.core import (
    AckFrame,
    AckRange,
    RangeSet,
    SpaceMode,
    ack_frame_wire_size,
    varint_size,
)
from mpqsim.netsim import LinkModel
from mpqsim.receiver import ReceiverState, RecvConfig
from mpqsim.scenario import ScenarioConfig
from mpqsim.sender import K_PACKET_THRESHOLD, SenderState
from mpqsim.simulation import Simulation
from varint_codec import varint_decode, varint_encode

SEED = 7
TRANSFER = 20_000_000
RTT_MS = {0: 30.0, 1: 120.0}
MAX_WALL_CLOCK_S = 10.0


def star_config(mode: SpaceMode, recv: RecvConfig | None = None, transfer: int = TRANSFER):
    paths = [
        LinkModel(delay_down_ms=15, delay_up_ms=15, rate_mbps=40, queue_capacity=64),
        LinkModel(delay_down_ms=60, delay_up_ms=60, rate_mbps=15, queue_capacity=64),
    ]
    return ScenarioConfig(
        mode=mode,
        paths=paths,
        transfer_size=transfer,
        recv=recv or RecvConfig(),
        seed=SEED,
        duration_cap_s=60,
    )


def timed_run(config):
    started = time.perf_counter()
    report = Simulation(config).run()
    wall = time.perf_counter() - started
    assert wall < MAX_WALL_CLOCK_S, f"run took {wall:.1f}s"
    assert report.complete
    return report


@functools.lru_cache(maxsize=None)
def spns_base():
    return timed_run(star_config(SpaceMode.SPNS))


@functools.lru_cache(maxsize=None)
def mpns_base():
    return timed_run(star_config(SpaceMode.MPNS))


@functools.lru_cache(maxsize=None)
def spns_suppressed(default_limit: int):
    recv = RecvConfig(suppression_enabled=True, default_limit=default_limit, maximum_limit=64)
    return timed_run(star_config(SpaceMode.SPNS, recv))


@functools.lru_cache(maxsize=None)
def spns_ablation():
    recv = RecvConfig(per_path_anchoring=False)
    return timed_run(star_config(SpaceMode.SPNS, recv))


# sha256 of each run's canonical JSON (`json.dumps(to_dict(), sort_keys=True)`).
# At seed 7 these are also the `ref-spns`, `ref-mpns` and `suppress` bench
# fingerprints (bench/NOTES.md), so a change to any of them is a change in
# behaviour, like a golden's.
RUN_FINGERPRINTS = {
    "spns_base": (
        spns_base,
        "1609b40b3a49bff055d5bc10bcfa3f20c28f56781511b16453b32eaf127805d0",
    ),
    "mpns_base": (
        mpns_base,
        "c4533259b8a7a613e2a4719f72e6a9347cc6753ddfabb1b6e3e863e0dcdf2a55",
    ),
    "spns_ablation": (
        spns_ablation,
        "0714314c9590be84e1f7f7dedc9f2d9d0e63150d0b21e9b37b804bf6cda43114",
    ),
    "spns_suppressed(2)": (
        lambda: spns_suppressed(2),
        "311d851b6d756219e1457e54b2d085f49304dfe1d77ee29f63119412b81bbcee",
    ),
    "spns_suppressed(4)": (
        lambda: spns_suppressed(4),
        "a1fa38ce84a2208e0c2724316a49ef8c5e7c1aa991d244884234c214ea640923",
    ),
    "spns_suppressed(8)": (
        lambda: spns_suppressed(8),
        "fbc6c932070df21e8b811ae4124c7d02947bb22526ee2ec801e71093e9ea30a3",
    ),
    "spns_suppressed(64)": (
        lambda: spns_suppressed(64),
        "8d6c9f633d00079d2faa9538ba2c3ea51bd7de5e0777ff317b17107805cc758e",
    ),
}


@pytest.mark.parametrize("name", list(RUN_FINGERPRINTS))
def test_acceptance_run_keeps_its_fingerprint(name):
    run, fingerprint = RUN_FINGERPRINTS[name]
    canonical = json.dumps(run().to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest() == fingerprint


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def cdf(histogram: dict[int, int]) -> dict[int, float]:
    total = sum(histogram.values())
    out = {}
    running = 0
    for bucket in sorted(histogram):
        running += histogram[bucket]
        out[bucket] = running / total
    return out


# -- 1. ACK inflation -----------------------------------------------------------


def test_criterion_1_ack_inflation():
    spns, mpns = spns_base(), mpns_base()
    ratio = spns.avg_ack_frame_size / mpns.avg_ack_frame_size
    f_spns, f_mpns = cdf(spns.ack_range_count_histogram), cdf(mpns.ack_range_count_histogram)
    support = sorted(set(f_spns) | set(f_mpns))

    def at(f, k):
        value = 0.0
        for bucket in sorted(f):
            if bucket > k:
                break
            value = f[bucket]
        return value

    dominated = all(at(f_spns, k) <= at(f_mpns, k) + 1e-12 for k in support)
    strictly = any(at(f_spns, k) < at(f_mpns, k) - 1e-12 for k in support)
    verdict(
        "C1 ack-inflation",
        ratio >= 1.30 and dominated and strictly,
        f"SPNS {spns.avg_ack_frame_size:.2f} B vs MPNS {mpns.avg_ack_frame_size:.2f} B "
        f"(x{ratio:.2f}), range-count CDF dominance={dominated}",
    )


# -- 2. near-parity throughput -----------------------------------------------------


def test_criterion_2_throughput_parity():
    spns, mpns = spns_base(), mpns_base()
    delta = abs(spns.goodput_kBps - mpns.goodput_kBps) / mpns.goodput_kBps
    verdict(
        "C2 throughput-parity",
        delta <= 0.05,
        f"SPNS {spns.goodput_kBps:.1f} kB/s vs MPNS {mpns.goodput_kBps:.1f} kB/s "
        f"(|delta| {delta * 100:.2f}%)",
    )


# -- 3. holes without loss ----------------------------------------------------------


def test_criterion_3_holes_without_loss():
    spns, mpns = spns_base(), mpns_base()
    spns_peak = max(holes for _, holes in spns.hole_count)
    mpns_peak = max(holes for _, holes in mpns.hole_count)
    no_loss = (
        spns.packet_threshold_losses + spns.time_threshold_losses == 0
        and mpns.packet_threshold_losses + mpns.time_threshold_losses == 0
    )
    verdict(
        "C3 holes-without-loss",
        spns_peak >= 5 and mpns_peak == 0 and no_loss,
        f"SPNS peak holes {spns_peak}, MPNS peak holes {mpns_peak}, loss-free={no_loss}",
    )


# -- 4. suppression trade-off ----------------------------------------------------------


def test_criterion_4_suppression_tradeoff():
    unsuppressed = spns_base()
    sizes = {}
    goodputs = {}
    for limit in (2, 4, 8, 64):
        report = spns_suppressed(limit)
        sizes[limit] = report.avg_ack_frame_size
        goodputs[limit] = report.goodput_kBps
    monotone = sizes[2] <= sizes[4] <= sizes[8] <= sizes[64]
    reduction = 1 - sizes[4] / unsuppressed.avg_ack_frame_size
    goodput_trend = goodputs[2] <= goodputs[64] + 1e-9
    verdict(
        "C4 suppression-tradeoff",
        monotone and reduction >= 0.20 and goodput_trend,
        f"sizes {sizes[2]:.1f}/{sizes[4]:.1f}/{sizes[8]:.1f}/{sizes[64]:.1f} B "
        f"for limits 2/4/8/64, reduction@4 {reduction * 100:.0f}% vs "
        f"{unsuppressed.avg_ack_frame_size:.1f} B, goodput(2)<=goodput(64)={goodput_trend}",
    )


# -- 5. RTT attribution -----------------------------------------------------------------


def sample_bounds_ok(report, path):
    low = RTT_MS[path]
    high = RTT_MS[path] + 25.0 + 5.0
    values = [v for _, v in report.rtt_samples_ms[path]]
    return values and all(low <= v <= high for v in values), values


def cadence_ok(report, path):
    limit = 4 * RTT_MS[path]
    sample_times = [t for t, _ in report.rtt_samples_ms[path]]
    activity = [t for t, _ in report.received_pn[path]]
    if not sample_times or not activity:
        return False
    if sample_times[0] > activity[0] + limit:
        return False
    if sample_times[-1] < activity[-1] - limit:
        return False
    return all(b - a <= limit for a, b in zip(sample_times, sample_times[1:]))


def test_criterion_5_rtt_attribution():
    spns = spns_base()
    ok_a, values_a = sample_bounds_ok(spns, 0)
    ok_b, values_b = sample_bounds_ok(spns, 1)
    cadence = cadence_ok(spns, 0) and cadence_ok(spns, 1)
    verdict(
        "C5a rtt-purity",
        ok_a and ok_b and cadence,
        f"path A {min(values_a):.1f}..{max(values_a):.1f} ms in [30, 60], "
        f"path B {min(values_b):.1f}..{max(values_b):.1f} ms in [120, 150], "
        f"cadence<=4RTT per path={cadence}",
    )


def test_criterion_5_ablation_mixes_samples():
    report = spns_ablation()
    attributed = {p: len(report.rtt_samples_ms[p]) for p in (0, 1)}
    total = attributed[0] + attributed[1]
    fast_share = attributed[0] / total if total else 0.0
    mixed = len(report.mixed_samples_ms)
    mixed_values_corrupt = all(30.0 <= v < 120.0 for _, v in report.mixed_samples_ms)
    verdict(
        "C5b rtt-ablation",
        fast_share >= 0.80 and mixed >= 1 and mixed_values_corrupt,
        f"fast-path share {fast_share * 100:.1f}% of {total} attributed samples, "
        f"{mixed} mixed samples, all mixed within neither path's true RTT={mixed_values_corrupt}",
    )


# -- 6. loss-detection oracle ---------------------------------------------------------------


def ack_frame_for(pn):
    return AckFrame(space=0, largest_acked=pn, ack_delay=0, ranges=[AckRange(pn, pn)])


def test_criterion_6_loss_detection_oracle():
    rng = random.Random(1234)
    threshold = K_PACKET_THRESHOLD
    for _ in range(1000):
        count = rng.randint(2, 200)
        sender = SenderState(SpaceMode.SPNS, 2)
        path_of = {}
        index_on_path = {}
        for i in range(count):
            path = rng.randint(0, 1)
            record = sender.send_packet(path, 100, now=i)
            path_of[record.pn] = path
            index_on_path[record.pn] = record.path_history_index
        ack_order = rng.sample(range(count), rng.randint(1, count))
        declared = set()
        acked = set()
        expected = set()
        for pn in ack_order:
            lost = sender.on_ack_received(path_of[pn], ack_frame_for(pn), now=count + 50)
            declared |= {r.pn for r in lost}
            # independent replay: acking pn condemns every not-yet-acked
            # packet at least `threshold` sends earlier on the same path
            for other, path in path_of.items():
                if (
                    other not in acked
                    and other not in expected
                    and path == path_of[pn]
                    and index_on_path[other] <= index_on_path[pn] - threshold
                ):
                    expected.add(other)
            acked.add(pn)
            assert declared == expected
    verdict("C6a loss-oracle", True, "1000 randomized micro-scenarios match the replay oracle")


def test_criterion_6_no_false_loss_under_pure_reorder():
    # heterogeneous per-path delivery delays, every packet acknowledged via
    # per-path anchored full-coverage frames, no loss anywhere
    rng = random.Random(99)
    for _ in range(200):
        sender = SenderState(SpaceMode.SPNS, 2)
        delays = {0: 10, 1: rng.randint(40, 120)}
        sends = []
        t = 0
        for _ in range(rng.randint(4, 120)):
            path = rng.randint(0, 1)
            record = sender.send_packet(path, 100, now=t)
            sends.append((t + delays[path], path, record.pn))
            t += rng.randint(1, 4)
        received = RangeSet()
        frames = []
        count_on_path = {0: 0, 1: 0}
        largest_on_path = {0: None, 1: None}
        for arrival, path, pn in sorted(sends):
            received.insert(pn)
            count_on_path[path] += 1
            largest_on_path[path] = max(largest_on_path[path] or 0, pn)
            if count_on_path[path] >= 2:
                count_on_path[path] = 0
                largest = largest_on_path[path]
                ranges = [
                    AckRange(min(r.largest, largest), r.smallest)
                    for r in received.descending()
                    if r.smallest <= largest
                ]
                frame = AckFrame(space=0, largest_acked=largest, ack_delay=0, ranges=ranges)
                frames.append((arrival + delays[path], path, frame))
        for arrival, path, frame in sorted(frames, key=lambda item: item[0]):
            sender.on_ack_received(path, frame, now=arrival)
        assert sender.packet_threshold_losses == 0
    spns = spns_base()
    assert spns.packet_threshold_losses == 0
    verdict(
        "C6b no-false-loss",
        True,
        "zero packet-threshold losses across 200 reorder trials and the zero-loss reference run",
    )


# -- 7. at-least-once acknowledgement ------------------------------------------------------------


def test_criterion_7_at_least_once():
    report = spns_suppressed(4)
    max_ranges = max(report.ack_range_count_histogram)
    verdict(
        "C7 at-least-once",
        report.received_never_acked == 0 and max_ranges <= 64,
        f"{report.received_never_acked} received packets never acknowledged, "
        f"largest frame carried {max_ranges} ranges (cap 64)",
    )


# -- 8. core property suites ------------------------------------------------------------------


def test_criterion_8_varint_properties():
    boundaries = [0, 1, 63, 64, 16383, 16384, (1 << 30) - 1, 1 << 30, (1 << 62) - 1]
    for value in boundaries:
        encoded = varint_encode(value)
        assert len(encoded) == varint_size(value)
        assert varint_decode(encoded) == (value, len(encoded))
    rng = random.Random(5)
    for _ in range(100_000):
        value = rng.randrange(1 << 62)
        encoded = varint_encode(value)
        assert len(encoded) == varint_size(value)
        assert varint_decode(encoded)[0] == value
    with pytest.raises(ValueError):
        varint_size(1 << 62)
    verdict("C8a varint-roundtrip", True, "boundaries exhaustive plus 100000 random values")


def test_criterion_8_rangeset_oracle():
    rng = random.Random(6)
    for _ in range(10_000):
        rs = RangeSet()
        seen = set()
        for _ in range(rng.randint(1, 25)):
            pn = rng.randint(0, 60)
            rs.insert(pn)
            seen.add(pn)
        runs = []
        for v in sorted(seen):
            if runs and runs[-1][1] == v - 1:
                runs[-1][1] = v
            else:
                runs.append([v, v])
        assert [(r.largest, r.smallest) for r in rs.descending()] == [
            (hi, lo) for lo, hi in reversed(runs)
        ]
        assert rs.holes() == len(runs) - 1
        probe = rng.randint(0, 60)
        assert (probe in rs) == (probe in seen)
    verdict("C8b rangeset-oracle", True, "10000 random insertion sequences match the naive set")


def test_criterion_8_golden_frames():
    recv = ReceiverState(SpaceMode.SPNS, 2, RecvConfig(ack_eliciting_threshold=100))
    for path, pn in [(0, 1), (0, 2), (0, 6), (1, 0), (1, 3), (1, 4), (1, 5), (1, 8), (1, 9), (1, 10)]:
        recv.on_packet_received(path, pn, now=0)
    recv.on_packet_received(0, 7, now=10)
    frame_a = recv.build_ack_frame(0, now=10)
    recv.on_packet_received(1, 13, now=20)
    frame_b = recv.build_ack_frame(1, now=20)
    ok = (
        frame_a.ranges == [AckRange(7, 0)]
        and ack_frame_wire_size(frame_a, SpaceMode.SPNS) == 5
        and frame_b.ranges == [AckRange(13, 13), AckRange(10, 0)]
        and ack_frame_wire_size(frame_b, SpaceMode.SPNS) == 7
    )
    verdict(
        "C8c golden-frames",
        ok,
        f"path 0 frame {[(r.largest, r.smallest) for r in frame_a.ranges]} = 5 B, "
        f"path 1 frame {[(r.largest, r.smallest) for r in frame_b.ranges]} = 7 B",
    )


def test_criterion_8_determinism():
    config = lambda: star_config(SpaceMode.SPNS, transfer=2_000_000)
    first = Simulation(config()).run()
    second = Simulation(config()).run()
    identical = first == second and first.to_dict() == second.to_dict()
    verdict("C8d determinism", identical, "same (config, seed) twice gives bit-identical reports")
