"""Golden reports: short runs whose report bytes are pinned by sha256.

A refactor of the simulator must leave every report bit-identical. These
runs cover both numbering modes, the anchoring ablation (every frame
anchored at the space's largest packet), ACK suppression (one run with
lossy paths and a single range per frame, which leaves packets never
acknowledged), and a lossy four-path round-robin NewReno transfer with a
trace-driven path; each pins the
sha256 of the canonical JSON (`json.dumps(to_dict(), sort_keys=True)`)
and of the CSV export. A change to any pinned value is a change in
behaviour and needs its own justification, not a new constant.
"""

import hashlib
import json

import pytest

from mpqsim.congestion import CcAlgorithm
from mpqsim.core import SpaceMode
from mpqsim.harness import export_report
from mpqsim.netsim import LinkModel, TraceSchedule
from mpqsim.receiver import RecvConfig
from mpqsim.scenario import ScenarioConfig
from mpqsim.scheduler import SchedulerKind
from mpqsim.simulation import Simulation


def _reference(mode, recv=None, loss_rate=0.0, transfer_size=400_000):
    return ScenarioConfig(
        mode=mode,
        paths=[
            LinkModel(delay_down_ms=15, delay_up_ms=15, rate_mbps=40, loss_rate=loss_rate),
            LinkModel(delay_down_ms=60, delay_up_ms=60, rate_mbps=15, loss_rate=loss_rate),
        ],
        transfer_size=transfer_size,
        recv=recv or RecvConfig(),
        seed=7,
    )


def _lossy_suppress_1():
    # one range per frame on lossy paths strands packets: the only golden
    # whose received_never_acked is not 0 (it is 4)
    recv = RecvConfig(suppression_enabled=True, default_limit=1, maximum_limit=1)
    return _reference(SpaceMode.SPNS, recv, loss_rate=0.02, transfer_size=300_000)


def _lossy_four_path():
    # bursty delivery opportunities: 1-3 packets per ms, 100 ms period
    trace = TraceSchedule([ms for ms in range(100) for _ in range(ms % 3 + 1)] + [100])
    return ScenarioConfig(
        mode=SpaceMode.SPNS,
        paths=[
            LinkModel(delay_down_ms=10, delay_up_ms=10, rate_mbps=30, loss_rate=0.03),
            LinkModel(
                delay_down_ms=25,
                delay_up_ms=30,
                rate_mbps=20,
                loss_rate=0.05,
                reverse_loss_rate=0.05,
            ),
            LinkModel(delay_down_ms=40, delay_up_ms=40, trace=trace),
            LinkModel(
                delay_down_ms=80, delay_up_ms=60, rate_mbps=8, loss_rate=0.02, queue_capacity=16
            ),
        ],
        transfer_size=400_000,
        scheduler=SchedulerKind.ROUND_ROBIN,
        cc=CcAlgorithm.NEW_RENO,
        seed=11,
    )


GOLDEN = {
    "spns": (
        lambda: _reference(SpaceMode.SPNS),
        "b2e9ab384a9a00ae448b0ea1ca91a4be17c244ace5fac5dbb301b40fe987629d",
        "19b1f62368b518812ca8c490343218a7ecb0838c6cd8e664dc342356e3b06885",
    ),
    "mpns": (
        lambda: _reference(SpaceMode.MPNS),
        "35f27a18880a038943a5d8ece06ae64e325bf46ed2354d73df8c9382b8055a24",
        "2340dba76090ebd8cd0ff9a2397a7bc55d10eef60071b9a4282264824d6e0a1f",
    ),
    "spns-ablation": (
        lambda: _reference(SpaceMode.SPNS, RecvConfig(per_path_anchoring=False)),
        "a5103ba7f2de09ceed23767342dd16e847c740dbbf330975f576f9dce57d3e6d",
        "37748713f26c27655f39b4e3865b5b9bd4943c7165a585ae80e4a5b1344455fd",
    ),
    "spns-suppress-2": (
        lambda: _reference(SpaceMode.SPNS, RecvConfig(suppression_enabled=True, default_limit=2)),
        "70439d6223ec60b9dc2afeec8b9b73ec4bbf131cd43bdf345818e73d337af2a8",
        "7f689eb3f9e6e84cfabddb4a86b854f77d4003385a18c9f163c5aeb9c70b7877",
    ),
    "lossy-4p-roundrobin-newreno": (
        _lossy_four_path,
        "9e76d4a548c7f80f4beaacf0ee94ba68760e3fe5b6ab1324e7336b3f143bf1f8",
        "48c854cacdbaa3f815e1adbeb7704b09e47bf2153b708c84dde39f5768b77bc8",
    ),
    "spns-lossy-suppress-1": (
        _lossy_suppress_1,
        "dd3bbbc400adcb74b5cc346f1eaf27deaa07073bdb537b9f4cae815e78f43622",
        "7a740f3a7f0b7043f9d2aa9ac5e1f00749c2f4944813bdd18b6e9abf281ecb38",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_report(name, tmp_path):
    make_config, fingerprint, csv_sha = GOLDEN[name]
    report = Simulation(make_config()).run()
    assert report.complete
    canonical = json.dumps(report.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest() == fingerprint
    export_report(report, "csv", tmp_path / "report.csv")
    assert hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest() == csv_sha
