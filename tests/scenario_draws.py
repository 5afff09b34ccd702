"""Every randomized test draws from `seeded`, a chooser over `random.Random`,
so no literal of a loaded module moves its draws. `check_draws` (or
the `each_draw` decorator) runs a check on explicit cases, then on seeded
draws, and names the one that fails. The scenario distribution's draws
`seeded_config(i)` feed the report gate and the whole-run tests.
"""

from __future__ import annotations

import dataclasses
import random
from types import SimpleNamespace
from typing import Callable, Iterable

import pytest

from mpqsim.congestion import CcAlgorithm
from mpqsim.core import SpaceMode
from mpqsim.netsim import LinkModel, TraceSchedule
from mpqsim.receiver import RecvConfig
from mpqsim.scenario import ScenarioConfig
from mpqsim.scheduler import SchedulerKind


def link(c, min_delay_down_ms: float) -> LinkModel:
    """One path, rate- or trace-driven."""
    if c.booleans():
        rate, trace = c.floats(0.1, 1e8), None
    else:
        rate, trace = None, TraceSchedule(sorted(c.integers(0, 40) for _ in range(c.integers(1, 30))))
    return LinkModel(
        delay_down_ms=c.floats(min_delay_down_ms, 100.0),
        delay_up_ms=c.floats(0.0, 100.0),
        rate_mbps=rate,
        trace=trace,
        loss_rate=c.floats(0.0, 0.1),
        reverse_loss_rate=c.floats(0.0, 0.05),
        queue_capacity=c.integers(0, 64),
        window_packets=c.sampled_from(["auto", None, c.integers(1, 64)]),
    )


def receiver_config(c) -> RecvConfig:
    """Suppression off, or on with both limits in 1-8."""
    recv = RecvConfig(
        ack_eliciting_threshold=c.integers(1, 4),
        max_ack_delay=c.integers(0, 50_000),
        per_path_anchoring=c.booleans(),
    )
    if c.booleans():
        recv.suppression_enabled = True
        recv.default_limit = c.integers(1, 8)
        recv.maximum_limit = c.integers(recv.default_limit, 8)
    return recv


def fast_beside_slow_twins(c, num_paths: int) -> list[LinkModel]:
    """A fast path held to a window of one or two packets beside `num_paths - 1`
    identical uncapped slow paths, whose windows go out back to back: under
    SPNS, once the slow paths send their second windows, the fast path's frames
    skip 20 to 60 of their numbers in flight, gaps that other draws seldom reach."""
    down, up, rate, window = c.floats(1.0, 10.0), c.floats(1.0, 10.0), c.floats(10.0, 100.0), c.integers(1, 2)
    fast = LinkModel(down, up, rate_mbps=rate, window_packets=window)
    down, up, rate = c.floats(50.0, 150.0), c.floats(50.0, 150.0), c.floats(100.0, 400.0)
    return [fast] + [LinkModel(down, up, rate_mbps=rate, window_packets=None) for _ in range(num_paths - 1)]


def acks_back_fast_beside_slow(c, num_paths: int) -> list[LinkModel]:
    """Paths alike on the way down whose ACKs return in 1-10 ms on the first
    and in 50-150 ms on the others: under SPNS the first path's frames ack the
    others' packets first and restart their PTO deadlines, often earlier."""
    down, rate = c.floats(1.0, 50.0), c.floats(1.0, 100.0)
    ups = [c.floats(1.0, 10.0)] + [c.floats(50.0, 150.0) for _ in range(num_paths - 1)]
    return [LinkModel(down, up, rate_mbps=rate) for up in ups]


def scenario_config(c, max_paths: int = 4, min_delay_down_ms: float = 0.001) -> ScenarioConfig:
    """A ScenarioConfig of 1 to `max_paths` paths, half the draws of 2 or more
    an arm over at least 150 kB: ACKs back fast beside slow at 2 paths, the
    twins, which reach ACK-frame gaps of 32 and more, from 3.
    Data delays start at `min_delay_down_ms`, by default 1 µs, which every
    run takes; from 0 they include some under 1 µs, which validation refuses."""
    num_paths = c.integers(1, max_paths)
    arm = fast_beside_slow_twins if num_paths >= 3 else acks_back_fast_beside_slow
    if num_paths >= 2 and c.booleans():
        paths, min_transfer = arm(c, num_paths), 150_000
    else:
        paths, min_transfer = [link(c, min_delay_down_ms) for _ in range(num_paths)], 50_000
    return ScenarioConfig(
        mode=c.sampled_from(SpaceMode),
        paths=paths,
        transfer_size=c.integers(min_transfer, 400_000),
        mtu=c.sampled_from([1200, 1280, 1350, 1500]),
        scheduler=c.sampled_from(SchedulerKind),
        cc=c.sampled_from(CcAlgorithm),
        recv=receiver_config(c),
        seed=c.integers(0, 2**32),
        duration_cap_s=c.floats(0.05, 60.0),
    )


EDGE = 1 / 20  # the chance of each bound in `seeded`'s `integers` and `floats`
NONE = 1 / 4  # the chance of None from `seeded`'s `optional`


def seeded(seed: str) -> SimpleNamespace:
    """The chooser over `random.Random(seed)`. Every draw comes from
    `random()`, the one sequence Python keeps the same across versions.
    `lists` and `optional` take a function that draws one value."""
    draw = random.Random(seed).random

    def bound_or(lo, hi, uniform):
        u = draw()
        return lo if u < EDGE else hi if u >= 1 - EDGE else uniform(lo, hi)

    def uniform_int(lo: int, hi: int) -> int:
        return min(hi, lo + int(draw() * (hi - lo + 1)))

    return SimpleNamespace(
        integers=lambda lo, hi: bound_or(lo, hi, uniform_int),
        floats=lambda lo, hi: bound_or(lo, hi, lambda lo, hi: lo + draw() * (hi - lo)),
        booleans=lambda: draw() < 0.5,
        sampled_from=lambda values: list(values)[uniform_int(0, len(values) - 1)],
        lists=lambda element, lo, hi: [element() for _ in range(bound_or(lo, hi, uniform_int))],
        permutations=lambda values: sorted(values, key=lambda _: draw()),
        optional=lambda value: None if draw() < NONE else value(),
    )


def seeded_config(i: int) -> ScenarioConfig:
    """The scenario draw `scenario/{i}`."""
    return scenario_config(seeded(f"scenario/{i}"))


def check_draws(name: str, indices: Iterable[int], draw: Callable, check: Callable, cases=(), shown=repr) -> None:
    """`check(case)` of each explicit case, then of `draw(seeded(f"{name}/{i}"))` for each `i`; a
    failure is re-raised naming the case (`name case k`) or draw (`name/i`) and `shown(case)`."""
    labelled = [(f"{name} case {k}", case) for k, case in enumerate(cases)]
    labelled += [(f"{name}/{i}", draw(seeded(f"{name}/{i}"))) for i in indices]
    for label, case in labelled:
        try:
            check(case)
        except (Exception, pytest.fail.Exception) as exc:
            raise AssertionError(f"{label}: {shown(case)}") from exc


def each_draw(count: int, draw: Callable, cases=()) -> Callable:
    """Make the decorated `check(case)` a test that runs `check_draws` under
    the check's name, on the explicit cases and on `count` draws."""
    return lambda check: lambda: check_draws(check.__name__, range(count), draw, check, cases)


def comparable(config: ScenarioConfig) -> tuple:
    """The config with each trace replaced by the list of its timestamps."""
    links = [dataclasses.replace(lm, trace=None) for lm in config.paths]
    traces = [list(lm.trace.times_ms) if lm.trace else None for lm in config.paths]
    return dataclasses.replace(config, paths=links), traces
