from report_fingerprints import moved_rows, relative_change


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
