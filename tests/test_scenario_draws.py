"""The seeded chooser, the driver that runs checks on its draws, and the
bounds its scenario draws reach."""

from collections import Counter

import pytest

from scenario_draws import EDGE, NONE, check_draws, seeded, seeded_config


def test_the_seeded_chooser_returns_each_bound_at_its_rate():
    def draws(chooser) -> tuple[list[int], list[float]]:
        return [chooser.integers(0, 9) for _ in range(2000)], [chooser.floats(0.0, 1.0) for _ in range(2000)]

    ints, floats = draws(seeded("t"))
    assert draws(seeded("t")) == (ints, floats)  # one seed, one sequence
    assert all(type(n) is int and 0 <= n <= 9 for n in ints)
    assert all(0.0 <= x <= 1.0 for x in floats)
    # a bound of `integers` also takes its share of the uniform draws; each
    # rate within 0.025, over three standard deviations at 2,000 draws
    int_rate = EDGE + (1 - 2 * EDGE) / 10
    for drawn, bound, rate in [(ints, 0, int_rate), (ints, 9, int_rate), (floats, 0.0, EDGE), (floats, 1.0, EDGE)]:
        assert abs(drawn.count(bound) / 2000 - rate) <= 0.025, (bound, drawn.count(bound))


def test_the_seeded_chooser_draws_lists_permutations_and_optional_values():
    items = [3, 1, 4, 1, 5, 9]

    def draws(chooser) -> tuple[list, list, list]:
        return (
            [chooser.lists(lambda: chooser.integers(0, 9), 2, 5) for _ in range(2000)],
            [chooser.permutations(items) for _ in range(2000)],
            [chooser.optional(lambda: 7) for _ in range(2000)],
        )

    lists, permutations, optionals = draws(seeded("t"))
    assert draws(seeded("t")) == (lists, permutations, optionals)  # one seed, one sequence
    assert {len(drawn) for drawn in lists} == {2, 3, 4, 5}  # each bound, and nothing outside them
    assert all(Counter(drawn) == Counter(items) for drawn in permutations)
    assert all({drawn[k] for drawn in permutations} == set(items) for k in range(6))  # each item in each place
    assert set(optionals) == {None, 7}
    # within 0.03, over three standard deviations at 2,000 draws
    assert abs(optionals.count(None) / 2000 - NONE) <= 0.03, optionals.count(None)


def test_a_failing_case_is_reported_by_its_label():
    def below_ten(n):
        assert n < 10

    with pytest.raises(AssertionError, match=r"^t case 2: 12$"):
        check_draws("t", range(5), lambda chooser: chooser.integers(0, 9), below_ten, [3, 9, 12])


def test_the_seeded_draws_reach_each_bound():
    # bounds that a uniform draw all but never returns, over the fuzzer's
    # reach pin's draws
    configs = [seeded_config(i) for i in range(150)]
    links = [lm for config in configs for lm in config.paths]
    assert any(config.recv.max_ack_delay == 0 for config in configs)
    assert any(lm.delay_up_ms == 0 for lm in links)  # the ACK direction
    assert any(config.transfer_size in (50_000, 150_000) for config in configs)  # its branch's minimum
    assert any(lm.rate_mbps == 0.1 for lm in links)
