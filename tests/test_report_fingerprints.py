import importlib.util
import sys
from pathlib import Path

import report_fingerprints
from report_fingerprints import diff, moved_draws, moved_reports, moved_rows, relative_change, scenario_fingerprints


def test_diff_rows_name_each_moved_scalar_and_series_element_only():
    old = {
        "7/in/spns/packets_sent": 100,
        "7/in/spns/srtt_ms/0": [10, 32.5, 30.0],
        "7/in/spns/complete": True,
        "7/in/spns/gone": 1,
    }
    new = {
        "7/in/spns/packets_sent": 120,
        "7/in/spns/srtt_ms/0": [10, 33.0, 30.0],
        "7/in/spns/complete": True,
        "7/in/spns/added": 2,
    }
    assert moved_rows(old, new) == [
        ("7/in/spns/packets_sent", 100, 120),
        ("7/in/spns/srtt_ms/0[last]", 32.5, 33.0),
        ("7/in/spns/gone", 1, None),
        ("7/in/spns/added", None, 2),
    ]
    assert moved_rows(old, dict(old)) == []
    assert relative_change(100, 120) == "+20.0%"
    assert relative_change(0, 2) == relative_change(None, 2) == relative_change(True, False) == "n/a"


def test_diff_counts_drawn_configs_apart_and_marks_their_moved_reports():
    old = {
        "scenario/0": ["r0", "c0"],
        "scenario/1": ["r1", "c1"],
        "scenario/2": ["r2", "c2"],
        "scenario/3": ["r3", "c3"],
    }
    new = {
        "scenario/0": ["r0", "c0"],
        "scenario/1": ["r1*", "c1"],
        "scenario/2": ["r2*", "c2*"],
        "scenario/3": ["r3", "c3*"],
    }
    assert moved_draws(old, new) == (
        2,
        ["scenario/1: r1 -> r1*", "scenario/2: r2 -> r2* (drawn apart)"],
    )
    assert moved_draws(old, dict(old)) == (0, [])
    assert moved_draws({}, {"scenario/0": ["r0", "c0"]}) == (1, ["scenario/0: None -> r0 (drawn apart)"])


def test_diff_counts_a_report_whose_sha256_alone_moved():
    # a change inside a series that keeps its length, last value and mean
    old = {
        "7/in/spns/sha256": "aaa",
        "7/in/spns/srtt_ms/0": [3, 30.0, 20.0],
        "7/in/mpns/sha256": "bbb",
        "7/in/mpns/srtt_ms/0": [3, 30.0, 20.0],
    }
    new = {**old, "7/in/spns/sha256": "ccc"}
    assert moved_rows(old, new) == []
    assert moved_reports(old, new) == (2, ["report 7/in/spns: aaa -> ccc"])
    assert moved_reports(old, dict(old)) == (2, [])
    assert moved_reports({}, {"7/in/spns/sha256": "ccc"}) == (1, ["report 7/in/spns: None -> ccc"])


def test_no_literal_of_a_loaded_module_moves_the_seeded_draws(tmp_path, monkeypatch):
    def drawn_configs():
        return [drawn for _, drawn in scenario_fingerprints(20).values()]

    before = drawn_configs()
    # a module of new int and float literals, loaded as the code's own are:
    # Hypothesis draws some of its numbers from such literals
    module = tmp_path / "new_literals.py"
    module.write_text("NEW_LITERALS = (0.0371, 17, 23, 0.0123, 41.5, 7.25, 211, 98765.4321, 3, 0.07)\n")
    spec = importlib.util.spec_from_file_location("new_literals", module)
    loaded = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, loaded)
    spec.loader.exec_module(loaded)
    assert drawn_configs() == before


def test_diff_exits_2_when_a_drawn_config_differs(monkeypatch, capsys):
    # both sides draw from one generator, so a config that differs is an
    # error even where no report moved
    drawn = {"scenario/0": ["r0", "c0"], "scenario/1": ["r1", "c1"]}
    maps = {Path("base"): drawn, Path("apart"): {**drawn, "scenario/1": ["r1", "c1*"]}}

    def snapshot(src, *flags):  # each side's draws, and no fields or goldens
        return maps[src] if "--scenarios" in flags else {}

    monkeypatch.setattr(report_fingerprints, "_snapshot", snapshot)
    assert diff(Path("base"), Path("base"), "7", 2) == 0
    assert "0 of 2 drawn configs differ" in capsys.readouterr().out
    assert diff(Path("base"), Path("apart"), "7", 2) == 2
    out = capsys.readouterr().out
    assert "1 of 2 drawn configs differ" in out and "0 of 2 scenario sha256s moved" in out
