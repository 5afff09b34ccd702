from report_fingerprints import moved_draws, moved_rows, relative_change


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
