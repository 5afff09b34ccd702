import csv
import dataclasses
import json
import re
from pathlib import Path

import pytest

from mpqsim import cli, harness
from mpqsim.core import ConfigError, SpaceMode
from mpqsim.harness import (
    compare_modes,
    export_range_count_cdf,
    export_report,
    load_report,
    parse_config_file,
    run_scenario,
    sweep_default_limits,
)
from mpqsim.netsim import LinkModel
from mpqsim.receiver import RecvConfig
from mpqsim.scenario import MetricsReport, ScenarioConfig
from mpqsim.simulation import Simulation, auto_window_packets

CONFIG_TEXT = """\
[scenario]
mode = spns
scheduler = minrtt
cc = cubic
transfer_bytes = 200000
seed = 5
duration_cap_s = 30

[receiver]
ack_eliciting_threshold = 2
max_ack_delay_ms = 25
suppression = false
default_limit = 4
maximum_limit = 64

[path.0]
rate_mbps = 40
delay_down_ms = 15
delay_up_ms = 15
loss_rate = 0
queue_packets = 64

[path.1]
rate_mbps = 15
delay_down_ms = 60
delay_up_ms = 60
loss_rate = 0
queue_packets = 64
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(CONFIG_TEXT)
    return path


def small_config(mode=SpaceMode.SPNS, transfer=200_000, seed=5):
    paths = [
        LinkModel(delay_down_ms=15, delay_up_ms=15, rate_mbps=40),
        LinkModel(delay_down_ms=60, delay_up_ms=60, rate_mbps=15),
    ]
    return ScenarioConfig(mode=mode, paths=paths, transfer_size=transfer, seed=seed)


# -- config parsing ------------------------------------------------------------


def test_parse_config_file(config_file):
    config = parse_config_file(config_file)
    assert config.mode is SpaceMode.SPNS
    assert config.transfer_size == 200_000
    assert config.seed == 5
    assert len(config.paths) == 2
    assert config.paths[1].rate_mbps == 15
    assert config.recv.max_ack_delay == 25_000


REPO = Path(__file__).resolve().parent.parent


def test_readme_example_and_shipped_scenario_parse(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    example = tmp_path / "readme.ini"
    example.write_text(blocks[0])
    config = parse_config_file(example)
    assert (config.mode, config.transfer_size, config.seed) == (SpaceMode.SPNS, 20_000_000, 7)
    assert config.recv == RecvConfig()
    assert config.paths == [LinkModel(delay_down_ms=15, delay_up_ms=15, rate_mbps=40)]

    shipped = parse_config_file(REPO / "scenarios" / "two_path.ini")
    assert [(lm.rate_mbps, lm.delay_down_ms) for lm in shipped.paths] == [(40, 15), (15, 60)]
    assert shipped.recv == RecvConfig()


def test_parse_rejects_unknown_mode(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG_TEXT.replace("mode = spns", "mode = qqq"))
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_parse_rejects_missing_paths(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nmode = spns\ntransfer_bytes = 10\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_parse_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "nope.ini")


def test_parse_trace_path(tmp_path):
    trace = tmp_path / "cell.trace"
    trace.write_text("0\n1\n2\n")
    text = CONFIG_TEXT.replace("rate_mbps = 15\n", "trace = cell.trace\n")
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    config = parse_config_file(path)
    assert config.paths[1].trace is not None
    assert config.paths[1].rate_mbps is None


@pytest.mark.parametrize(
    "section, old, new",
    [
        ("receiver", "suppression = false", "supression = true"),
        ("path.0", "queue_packets = 64", "queue_pakets = 64"),
        ("scenario", "seed = 5", "sed = 5"),
    ],
)
def test_parse_rejects_unknown_keys(tmp_path, section, old, new):
    path = tmp_path / "typo.ini"
    path.write_text(CONFIG_TEXT.replace(old, new, 1))
    with pytest.raises(ConfigError, match=rf"\[{section}\].*{new.split()[0]}"):
        parse_config_file(path)


def test_parse_orders_path_sections_by_number(tmp_path):
    # twelve sections, written in shuffled order; by string, 10 and 11
    # would sort before 2
    head = CONFIG_TEXT[: CONFIG_TEXT.index("[path.0]")]
    sections = [
        f"[path.{n}]\ndelay_down_ms = {n + 1}\ndelay_up_ms = 5\nrate_mbps = 10\n"
        for n in (7, 11, 0, 3, 10, 1, 9, 2, 5, 8, 4, 6)
    ]
    path = tmp_path / "twelve.ini"
    path.write_text(head + "\n".join(sections))
    config = parse_config_file(path)
    assert [lm.delay_down_ms for lm in config.paths] == [n + 1 for n in range(12)]


@pytest.mark.parametrize(
    "extra, message",
    [
        ("[path.x]", r"\[path\.x\].*integer"),
        ("[path.-1]", r"\[path\.-1\].*integer"),
        ("[path.]", r"\[path\.\].*integer"),
        ("[path.01]", r"\[path\.(01|1)\] repeats path number 1"),
        ("[path]", r"unknown section \[path\]"),
    ],
)
def test_parse_rejects_bad_path_section_names(tmp_path, extra, message):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG_TEXT + f"\n{extra}\ndelay_down_ms = 5\ndelay_up_ms = 5\n")
    with pytest.raises(ConfigError, match=message):
        parse_config_file(path)


def test_parse_rejects_unknown_sections(tmp_path):
    path = tmp_path / "typo.ini"
    path.write_text(CONFIG_TEXT + "\n[pathx]\nrate_mbps = 10\n")
    with pytest.raises(ConfigError, match=r"\[pathx\]"):
        parse_config_file(path)
    path.write_text("[DEFAULT]\nloss_rate = 0\n" + CONFIG_TEXT)
    with pytest.raises(ConfigError, match="DEFAULT"):
        parse_config_file(path)


def test_window_packets_auto_none_and_integer(tmp_path):
    def max_cwnd(window_line):
        path = tmp_path / "window.ini"
        path.write_text(CONFIG_TEXT.replace("[path.0]\n", f"[path.0]\n{window_line}", 1))
        sim = Simulation(parse_config_file(path))
        return sim.sender.paths[0].cc.max_cwnd

    bdp_cap = auto_window_packets(LinkModel(delay_down_ms=15, delay_up_ms=15, rate_mbps=40), 1350) * 1350
    assert max_cwnd("") == bdp_cap
    assert max_cwnd("window_packets = auto\n") == bdp_cap
    assert max_cwnd("window_packets = none\n") is None  # no cap on a rate path
    assert max_cwnd("window_packets = 12\n") == 12 * 1350
    with pytest.raises(ConfigError, match="path 0: window_packets"):
        max_cwnd("window_packets = 0\n")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("queue_packets = 64", "queue_packets = x", r"\[path\.0\] queue_packets: invalid literal"),
        ("suppression = false", "suppression = maybe", r"\[receiver\] suppression: expected a bool"),
        ("max_ack_delay_ms = 25", "max_ack_delay_ms = inf", r"\[receiver\] max_ack_delay_ms: "),
        ("seed = 5", "seed = 5\ntransfer_mb = 0.2", r"\[scenario\] transfer_mb: transfer_size is already"),
        ("rate_mbps = 15\n", "trace = missing.trace\n", r"\[path\.1\] trace: .*missing\.trace"),
        ("seed = 5", "seed = 5\nseed = 6", r"option 'seed' in section 'scenario' already exists"),
        ("rate_mbps = 15\n", "rate_mbps = 5e-324\n", r"path 1: rate_mbps is too small"),
    ],
)
def test_parse_refusals_name_the_section_and_key(tmp_path, old, new, message):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG_TEXT.replace(old, new, 1))
    with pytest.raises(ConfigError, match=message):
        parse_config_file(path)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"0\n1\xff\n2\n", r"^\[path\.1\] trace: .*codec can't decode byte 0xff"),
        (b"0\n1\n-2\n", r"^\[path\.1\] trace: .*bad\.trace:3: negative timestamp$"),
        (b"0\n1 2\n", r"^\[path\.1\] trace: .*bad\.trace:2: not an integer timestamp: '1 2'$"),
    ],
)
def test_parse_refuses_a_bad_trace_file_naming_the_key(tmp_path, data, message):
    (tmp_path / "bad.trace").write_bytes(data)
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG_TEXT.replace("rate_mbps = 15\n", "trace = bad.trace\n"))
    with pytest.raises(ConfigError, match=message):
        parse_config_file(path)


def test_unit_conversions_round(tmp_path):
    path = tmp_path / "fractions.ini"
    text = CONFIG_TEXT.replace("transfer_bytes = 200000", "transfer_mb = 4.1")
    text = text.replace("max_ack_delay_ms = 25", "max_ack_delay_ms = 32.3")
    path.write_text(text.replace("delay_down_ms = 15", "delay_down_ms = 32.3", 1))
    config = parse_config_file(path)
    assert (config.transfer_size, config.recv.max_ack_delay) == (4_100_000, 32_300)
    assert Simulation(config).down[0].delay_us == 32_300


def test_validation_errors_are_config_errors():
    bad = [("transfer_size", 0), ("duration_cap_s", float("nan")), ("duration_cap_s", float("inf"))]
    for field, value in bad:
        config = dataclasses.replace(small_config(), **{field: value})
        with pytest.raises(ConfigError):
            run_scenario(config)


# -- comparisons and sweeps -------------------------------------------------------


def test_compare_modes_uses_same_seed_and_signs_deltas():
    comparison = compare_modes(small_config())
    assert comparison.spns.seed == comparison.mpns.seed
    expected = (
        (comparison.spns.goodput_kBps - comparison.mpns.goodput_kBps)
        / comparison.mpns.goodput_kBps
        * 100
    )
    assert comparison.speed_delta_pct == pytest.approx(expected)
    assert comparison.ack_size_delta_pct > 0  # shared space always inflates ACKs


def test_compare_of_incomplete_runs_reports_no_deltas(tmp_path, capsys):
    config = small_config(transfer=5_000_000)
    config.duration_cap_s = 0.3
    comparison = compare_modes(config)
    assert not comparison.spns.complete and not comparison.mpns.complete
    assert comparison.speed_delta_pct is None
    assert comparison.ack_size_delta_pct is None

    text = CONFIG_TEXT.replace("transfer_bytes = 200000", "transfer_bytes = 5000000")
    path = tmp_path / "slow.ini"
    path.write_text(text.replace("duration_cap_s = 30", "duration_cap_s = 0.3"))
    out = tmp_path / "cmp.json"
    assert cli.main(["compare", "--config", str(path), "--out", str(out)]) == 3
    rate_row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("Rate"))
    assert rate_row.split()[1:] == ["incomplete", "incomplete"]
    data = json.loads(out.read_text())
    assert data["speed_delta_pct"] is None and data["ack_size_delta_pct"] is None


def test_compare_modes_refuses_a_missing_receiver_config():
    config = dataclasses.replace(small_config(), recv=None)
    with pytest.raises(ConfigError, match="^recv must be RecvConfig, not None$"):
        compare_modes(config)


def test_sweep_refuses_a_missing_receiver_config():
    config = dataclasses.replace(small_config(), recv=None)
    with pytest.raises(ConfigError, match="^recv must be RecvConfig, not None$"):
        sweep_default_limits(config, [2, 8])


def test_sweep_runs_each_limit():
    results = sweep_default_limits(small_config(), [2, 8])
    assert [limit for limit, _ in results] == [2, 8]
    for limit, report in results:
        assert report.complete
        assert max(report.ack_range_count_histogram) <= 64


# -- export ----------------------------------------------------------------------


def test_json_roundtrip_is_identity(tmp_path):
    report = run_scenario(small_config())
    out = tmp_path / "report.json"
    export_report(report, "json", out)
    assert load_report(out) == report


def test_csv_export_is_tidy(tmp_path):
    report = run_scenario(small_config())
    out = tmp_path / "report.csv"
    export_report(report, "csv", out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["series", "key", "value"]
    series = {row[0] for row in rows[1:]}
    assert {"goodput_kBps", "hole_count", "srtt_ms_path0"} <= series


def test_cdf_export(tmp_path):
    report = run_scenario(small_config())
    out = tmp_path / "cdf.csv"
    export_range_count_cdf(report, out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["range_count", "cumulative_fraction"]
    assert float(rows[-1][1]) == pytest.approx(1.0)


def test_cdf_export_empty_histogram_is_header_only(tmp_path):
    report = run_scenario(small_config())
    report.ack_range_count_histogram = {}
    out = tmp_path / "cdf.csv"
    export_range_count_cdf(report, out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["range_count", "cumulative_fraction"]]


def test_unknown_format_rejected(tmp_path):
    report = run_scenario(small_config())
    with pytest.raises(ValueError):
        export_report(report, "xml", tmp_path / "r.xml")


# -- CLI ----------------------------------------------------------------------


def test_cli_run_ok(config_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["run", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    assert "goodput" in capsys.readouterr().out
    assert json.loads(out.read_text())["complete"] is True


def test_cli_run_mode_and_seed_override(config_file, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(
        ["run", "--config", str(config_file), "--mode", "mpns", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["mode"] == "mpns"
    assert data["seed"] == 9


def test_cli_run_config_error_exits_2(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nmode = nope\ntransfer_bytes = 1\n")
    assert cli.main(["run", "--config", str(bad)]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "missing.ini")]) == 2


def test_cli_run_incomplete_exits_3(config_file, tmp_path):
    text = CONFIG_TEXT.replace("transfer_bytes = 200000", "transfer_bytes = 80000000")
    text = text.replace("duration_cap_s = 30", "duration_cap_s = 0.2")
    slow = tmp_path / "slow.ini"
    slow.write_text(text)
    assert cli.main(["run", "--config", str(slow)]) == 3


def test_cli_compare_with_sweep(config_file, tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code = cli.main(
        ["compare", "--config", str(config_file), "--sweep-default-limit", "2,64", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "MPNS" in stdout and "SPNS" in stdout and "Rate" in stdout
    data = json.loads(out.read_text())
    assert {entry["default_limit"] for entry in data["sweep"]} == {2, 64}
    assert "speed_delta_pct" in data


@pytest.mark.parametrize("limits", ["2,100", "2,x", "0,4"])
def test_cli_bad_sweep_limit_refused_before_any_run(config_file, tmp_path, capsys, monkeypatch, limits):
    def no_run(config):
        raise AssertionError("a scenario ran before the limits were checked")

    monkeypatch.setattr(harness, "run_scenario", no_run)
    out = tmp_path / "cmp.json"
    code = cli.main(
        ["compare", "--config", str(config_file), "--sweep-default-limit", limits, "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("target", ["missing/r.json", "."])
def test_cli_unwritable_out_refused_before_any_run(
    config_file, tmp_path, capsys, monkeypatch, command, target
):
    def no_run(config):
        raise AssertionError("a scenario ran before --out was checked")

    monkeypatch.setattr(harness, "run_scenario", no_run)
    monkeypatch.setattr(cli, "run_scenario", no_run)
    out = tmp_path / target
    code = cli.main([command, "--config", str(config_file), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: --out {out}:")
    assert not (tmp_path / "missing").exists()


def test_report_from_dict_restores_types():
    report = run_scenario(small_config(transfer=100_000))
    clone = MetricsReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert clone == report
    assert isinstance(next(iter(clone.ack_range_count_histogram)), int)
