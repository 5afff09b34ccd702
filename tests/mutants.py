"""Named mutants of the simulator, each with the tests that must kill it.

Each entry of `MUTANTS` names one small wrong change to a file of the
package: the exact old text, the new text, and the test node ids that
must fail under it. For every mutant the runner copies this checkout's
`src/`, `tests/`, `scenarios/`, `README.md` and `pyproject.toml` into a
fresh temporary directory, requires the old text to occur exactly once in
the copy's file, applies the change and runs only the named tests there,
within `MEMORY_LIMIT_B` of address space, so that a mutant which makes a
test allocate without end fails it with `MemoryError`.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
    python tests/mutants.py --list

Before the mutants, the named tests run once on an unchanged copy, where
each must pass (an expected failure counts as a pass), and the copy must
import its own `mpqsim`. The run exits 1 when a named test fails there,
when a mutant's old text is missing or not unique, or when a mutant
survives (some named test still passes under it), times out, or crashes
(pytest exits with a status other than 0 or 1, or by a signal). A
refactor that moves the old text updates the entry. Not a test module:
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scenarios", "README.md", "pyproject.toml")
TIMEOUT_S = 600  # per pytest run; a mutant that makes a run hang fails the check
# the address space of each pytest run; the control run peaks near 70 MiB
MEMORY_LIMIT_B = 3 * 2**30


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # the keyed timers of `EventLoop`
    Mutant(
        "timer-stale-by-time",
        "src/mpqsim/netsim.py",
        "if self.timers.get(key) == (now, token):",
        "if self.timers.get(key, (now,))[0] == now:",
        (
            "tests/test_netsim.py::test_an_earlier_deadline_supersedes_the_live_event",
            "tests/test_netsim.py::test_a_superseded_event_due_with_the_live_one_runs_nothing",
        ),
    ),
    Mutant(
        "timer-schedules-every-set",
        "src/mpqsim/netsim.py",
        "if key not in self.timers or deadline < self.timers[key][0]:",
        "if True:",
        ("tests/test_netsim.py::test_a_later_or_equal_deadline_schedules_nothing",),
    ),
    Mutant(
        "timer-clear-keeps-table",
        "src/mpqsim/netsim.py",
        "        self._heap.clear()\n        self.timers.clear()\n",
        "        self._heap.clear()\n",
        ("tests/test_netsim.py::test_clear_leaves_no_live_timer",),
    ),
    Mutant(
        "timer-no-early-rearm",
        "src/mpqsim/netsim.py",
        "                self.set_timer(key, later, handler, *args)\n",
        "",
        (
            "tests/test_netsim.py::test_a_handler_that_returns_a_later_deadline_is_re_armed_at_it",
            "tests/test_simulation.py::test_ack_leaves_at_the_later_deadline_after_a_superseded_timer",
            "tests/test_scenario_fuzz.py::test_random_scenarios_end_cleanly_and_repeat_exactly",
            "tests/test_scenario_fuzz.py::test_the_fuzzers_draws_reach_each_regime",
        ),
    ),
    Mutant(
        "timer-re-arm-at-now-allowed",
        "src/mpqsim/netsim.py",
        "if later <= now:",
        "if later < now:",
        ("tests/test_netsim.py::test_a_handler_that_returns_a_deadline_no_later_than_now_is_refused[10]",),
    ),
    # the trace path: `TraceSchedule` and a trace-driven link
    Mutant(
        "trace-accepts-decreasing",
        "src/mpqsim/netsim.py",
        '        if times != sorted(times):\n            raise ValueError("trace timestamps must be non-decreasing")\n',
        "",
        ("tests/test_netsim.py::test_trace_schedule_refusals_keep_their_order",),
    ),
    Mutant(
        "trace-period-one-short",
        "src/mpqsim/netsim.py",
        "cycle * self.period_ms",
        "cycle * (self.period_ms - 1)",
        ("tests/test_netsim.py::test_trace_wraps_with_final_timestamp_period",),
    ),
    Mutant(
        "trace-cursor-kept-after-departure",
        "src/mpqsim/netsim.py",
        "            departure = self.trace.opportunity_us(self._trace_cursor)\n            self._trace_cursor += 1\n",
        "            departure = self.trace.opportunity_us(self._trace_cursor)\n",
        (
            "tests/test_netsim.py::test_trace_opportunities_deliver_one_packet_each",
            "tests/test_simulation.py::test_trace_driven_path",
            "tests/test_golden.py::test_golden_report[lossy-4p-roundrobin-newreno]",
        ),
    ),
    Mutant(
        "trace-skips-the-opportunity-at-now",
        "src/mpqsim/netsim.py",
        "opportunity_us(self._trace_cursor) < now",
        "opportunity_us(self._trace_cursor) <= now",
        (
            "tests/test_netsim.py::test_an_opportunity_at_the_arrival_instant_is_taken",
            "tests/test_golden.py::test_golden_report[lossy-4p-roundrobin-newreno]",
        ),
    ),
    # the timers of `Simulation`
    Mutant(
        "pto-guard-restored",
        "src/mpqsim/simulation.py",
        '        self.loop.set_timer(("pto", path), self.sender.paths[path].pto_deadline, self._on_pto, path)\n',
        '        if ("pto", path) not in self.loop.timers:\n'
        '            self.loop.set_timer(("pto", path), self.sender.paths[path].pto_deadline, self._on_pto, path)\n',
        (
            "tests/test_simulation.py::test_a_lost_last_packet_is_probed_at_the_deadline_its_send_set",
            "tests/test_scenario_fuzz.py::test_random_scenarios_end_cleanly_and_repeat_exactly",
            "tests/test_scenario_fuzz.py::test_the_fuzzers_draws_reach_each_regime",
        ),
    ),
    Mutant(
        "ack-offers-no-pto",
        "src/mpqsim/simulation.py",
        "        for ps in acked_paths:\n"
        "            if ps.pto_deadline is not None:\n"
        '                self.loop.set_timer(("pto", ps.path), ps.pto_deadline, self._on_pto, ps.path)\n',
        "",
        (
            "tests/test_simulation.py::test_an_ack_that_moves_the_pto_deadline_earlier_moves_its_event",
            "tests/test_scenario_fuzz.py::test_random_scenarios_end_cleanly_and_repeat_exactly",
            "tests/test_scenario_fuzz.py::test_the_fuzzers_draws_reach_each_regime",
        ),
    ),
    Mutant(
        "pto-offered-for-arrival-path-only",
        "src/mpqsim/simulation.py",
        "        for ps in acked_paths:\n",
        "        for ps in [self.sender.paths[path]]:\n",
        (
            "tests/test_simulation.py::test_an_spns_ack_on_one_path_moves_the_pto_event_of_the_path_it_acks",
            "tests/test_scenario_fuzz.py::test_random_scenarios_end_cleanly_and_repeat_exactly",
            "tests/test_scenario_fuzz.py::test_the_fuzzers_draws_reach_each_regime",
        ),
    ),
    # the ACK frame builder and the sizes behind the headline metric
    Mutant(
        "frame-size-counts-the-range-below",
        "src/mpqsim/core.py",
        "sum(self._gap_bytes[top - count + 1 : top])",
        "sum(self._gap_bytes[top - count : top])",
        (
            "tests/test_core.py::test_wire_size_counts_a_two_byte_range_count_and_gap",
            "tests/test_core.py::test_cached_frame_size_equals_the_range_by_range_sum",
            "tests/test_golden.py::test_golden_report[spns]",
        ),
    ),
    Mutant(
        "frame-ignores-the-limit",
        "src/mpqsim/core.py",
        "self.descending(anchor, limit)",
        "self.descending(anchor)",
        (
            "tests/test_core.py::test_cached_frame_size_equals_the_range_by_range_sum",
            "tests/test_receiver.py::test_suppressed_frames_match_the_two_pass_trim",
            "tests/test_golden.py::test_golden_report[spns-suppress-2]",
        ),
    ),
    Mutant(
        "hand-built-size-skips-the-bottom-range",
        "src/mpqsim/core.py",
        "zip(ranges, ranges[1:])",
        "zip(ranges, ranges[1:-1])",
        (
            "tests/test_core.py::test_wire_size_equals_varint_sum_on_valid_frames",
            "tests/test_core.py::test_cached_frame_size_equals_the_range_by_range_sum",
            "tests/test_scenario_fuzz.py::test_random_scenarios_end_cleanly_and_repeat_exactly",
            "tests/test_scenario_fuzz.py::test_the_fuzzers_draws_reach_each_regime",
        ),
    ),
    Mutant(
        "space-varint-under-spns",
        "src/mpqsim/core.py",
        "if mode is SpaceMode.MPNS:",
        "if mode is SpaceMode.SPNS:",
        (
            "tests/test_core.py::test_wire_size_mpns_adds_space_varint",
            "tests/test_core.py::test_wire_size_equals_varint_sum_on_valid_frames",
            "tests/test_golden.py::test_golden_report[mpns]",
        ),
    ),
    # named in CHANGES.md by earlier changes
    Mutant(
        "range-count-one-byte",
        "src/mpqsim/core.py",
        "        + varint_size(len(ranges) - 1)\n",
        "        + 1\n",
        (
            "tests/test_core.py::test_wire_size_counts_a_two_byte_range_count_and_gap",
            "tests/test_scenario_fuzz.py::test_a_lossy_reference_run_encodes_its_frames_of_65_ranges_exactly",
        ),
    ),
    Mutant(
        "gap-one-byte-below-128",
        "src/mpqsim/core.py",
        "return (1 if gap < 64 else",
        "return (1 if gap < 128 else",
        (
            "tests/test_core.py::test_wire_size_counts_a_two_byte_range_count_and_gap",
            "tests/test_core.py::test_wire_size_equals_varint_sum_on_valid_frames",
            "tests/test_core.py::test_cached_frame_size_equals_the_range_by_range_sum",
            "tests/test_scenario_fuzz.py::test_a_lossy_reference_run_encodes_its_frames_of_65_ranges_exactly",
            "tests/test_scenario_fuzz.py::test_the_fuzzers_draws_reach_each_regime",
        ),
    ),
    Mutant(
        "wake-at-the-latest-gate",
        "src/mpqsim/scheduler.py",
        "            if wake is None or gate < wake:\n",
        "            if wake is None or gate > wake:\n",
        ("tests/test_scheduler.py::test_single_pass_matches_the_list_based_decision",),
    ),
    Mutant(
        "room-needs-a-spare-byte",
        "src/mpqsim/scheduler.py",
        "        if ps.bytes_in_flight + packet_size > ps.cc.cwnd:\n",
        "        if ps.bytes_in_flight + packet_size >= ps.cc.cwnd:\n",
        (
            "tests/test_scheduler.py::test_single_pass_matches_the_list_based_decision",
            "tests/test_scheduler.py::test_a_path_is_picked_whenever_one_is_past_its_gate_with_room",
        ),
    ),
    Mutant(
        "gap-one-byte-below-32",
        "src/mpqsim/core.py",
        "return (1 if gap < 64 else",
        "return (1 if gap < 32 else",
        (
            "tests/test_core.py::test_wire_size_equals_varint_sum_on_valid_frames",
            "tests/test_scenario_fuzz.py::test_random_scenarios_end_cleanly_and_repeat_exactly",
            "tests/test_scenario_fuzz.py::test_the_fuzzers_draws_reach_each_regime",
        ),
    ),
    Mutant(
        "validate-walk-stops-below-largest",
        "src/mpqsim/core.py",
        "            while pn <= largest:\n",
        "            while pn < largest:\n",
        ("tests/test_core.py::test_validate_returns_exactly_the_acknowledged_numbers",),
    ),
    Mutant(
        "validate-lets-adjacent-ranges-through",
        "src/mpqsim/core.py",
        "            if not below + 1 < smallest <= largest:\n",
        "            if not below < smallest <= largest:\n",
        (
            "tests/test_core.py::test_validate_refuses_exactly_the_invalid_range_lists",
            "tests/test_core.py::test_validate_returns_exactly_the_acknowledged_numbers",
        ),
    ),
    Mutant(
        "validate-floor-lets-a-negative-range-through",
        "src/mpqsim/core.py",
        "        below = -2  #",
        "        below = -3  #",
        (
            "tests/test_core.py::test_validate_refuses_exactly_the_invalid_range_lists",
            "tests/test_core.py::test_validate_returns_exactly_the_acknowledged_numbers",
        ),
    ),
    Mutant(
        "unprobed-ranks-swapped",
        "src/mpqsim/scheduler.py",
        "(math.inf if ps.sent_count else -1.0)",
        "(-1.0 if ps.sent_count else math.inf)",
        (
            "tests/test_scheduler.py::test_unprobed_fresh_path_ranks_first_once",
            "tests/test_scheduler.py::test_single_pass_matches_the_list_based_decision",
        ),
    ),
    Mutant(
        "rank-ties-to-the-higher-id",
        "src/mpqsim/scheduler.py",
        "        if pick is None or rank < best:\n",
        "        if pick is None or rank <= best:\n",
        (
            "tests/test_scheduler.py::test_minrtt_ties_break_to_lower_path_id",
            "tests/test_scheduler.py::test_single_pass_matches_the_list_based_decision",
        ),
    ),
    Mutant(
        "round-robin-cursor-not-advanced",
        "src/mpqsim/simulation.py",
        "            self._rr_cursor = path\n",
        "",
        (
            "tests/test_simulation.py::test_a_round_robin_run_takes_its_paths_in_turn",
            "tests/test_golden.py::test_golden_report[lossy-4p-roundrobin-newreno]",
        ),
    ),
    Mutant(
        "wake-kept-after-a-pick",
        "src/mpqsim/scheduler.py",
        "    return pick, None\n",
        "    return pick, wake\n",
        ("tests/test_scheduler.py::test_single_pass_matches_the_list_based_decision",),
    ),
    Mutant(
        "float-admits-bool",
        "src/mpqsim/core.py",
        "return lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)",
        "return lambda v: isinstance(v, (int, float))",
        (
            "tests/test_simulation.py::test_wrong_field_type_refused_before_the_run[path-rate_mbps-True]",
            "tests/test_scenario_fuzz.py::test_a_field_of_the_wrong_type_is_refused_before_the_run",
        ),
    ),
    Mutant(
        "int-admits-bool",
        "src/mpqsim/core.py",
        "return lambda v: type(v) is hint",
        "return lambda v: isinstance(v, hint)",
        ("tests/test_scenario_fuzz.py::test_a_field_of_the_wrong_type_is_refused_before_the_run",),
    ),
    Mutant(
        "list-items-unchecked",
        "src/mpqsim/core.py",
        "return lambda v: type(v) is list and all(map(item, v))",
        "return lambda v: type(v) is list",
        ("tests/test_scenario_fuzz.py::test_a_field_of_the_wrong_type_is_refused_before_the_run",),
    ),
    Mutant(
        "literal-admits-any-value-of-its-type",
        "src/mpqsim/core.py",
        "options = [lambda v, a=a: type(v) is type(a) and v == a for a in args]",
        "options = [lambda v, a=a: type(v) is type(a) for a in args]",
        ("tests/test_scenario_fuzz.py::test_a_field_of_the_wrong_type_is_refused_before_the_run",),
    ),
    Mutant(
        "union-checks-first-arm",
        "src/mpqsim/core.py",
        "options = [_admits(a) for a in args]",
        "options = [_admits(args[0])]",
        (
            "tests/test_netsim.py::test_link_model_validation",
            "tests/test_harness.py::test_parse_config_file",
            "tests/test_scenario_fuzz.py::test_a_field_of_the_wrong_type_is_refused_before_the_run",
        ),
    ),
    Mutant(
        "pairs-rebuilds-floats-per-series",
        "src/mpqsim/core.py",
        "            if id(column) not in floats:\n",
        "            if True:\n",
        (
            "tests/test_core.py::test_series_export_builds_each_time_column_once",
            "tests/test_simulation.py::test_export_builds_each_instant_once",
        ),
    ),
    Mutant(
        "mpns-credit-to-arrival-path",
        "src/mpqsim/sender.py",
        "credit_path = arrival_path if self.mode is SpaceMode.SPNS else space",
        "credit_path = arrival_path",
        ("tests/test_sender.py::test_mpns_ack_targets_its_space",),
    ),
    Mutant(
        "ablation-delay-from-emitting-path",
        "src/mpqsim/receiver.py",
        "largest, ack_delay = anchor.largest_recv_pn, now - anchor.largest_recv_time",
        "largest, ack_delay = anchor.largest_recv_pn, now - prs.largest_recv_time",
        (
            "tests/test_receiver.py::test_suppressed_frames_match_the_two_pass_trim",
            "tests/test_golden.py::test_golden_report[spns-ablation]",
            "tests/test_acceptance.py::test_acceptance_run_keeps_its_fingerprint[spns_ablation]",
        ),
    ),
    Mutant(
        "pto-deadline-before-loss-detection",
        "src/mpqsim/sender.py",
        "            lost += self.detect_losses(ps.path, now)\n"
        "            ps.pto_deadline = now + ps.pto_interval(self.max_ack_delay) if ps.unacked else None\n",
        "            ps.pto_deadline = now + ps.pto_interval(self.max_ack_delay) if ps.unacked else None\n"
        "            lost += self.detect_losses(ps.path, now)\n",
        (
            "tests/test_scenario_fuzz.py::test_random_scenarios_end_cleanly_and_repeat_exactly",
            "tests/test_scenario_fuzz.py::test_the_fuzzers_draws_reach_each_regime",
        ),
    ),
    Mutant(
        "declared-losses-stay-unacked",
        "src/mpqsim/sender.py",
        "del ps.unacked[rec.pn]  # the number stays in its space's outstanding",
        "pass",
        (
            "tests/test_sender.py::test_ack_of_only_spurious_numbers_reports_no_path",
            "tests/test_sender.py::test_spurious_ack_counted_once_and_flight_not_double_decremented",
            "tests/test_sender.py::test_conservation_of_bytes_in_flight",
            "tests/test_sender.py::test_ack_processing_matches_brute_force",
            "tests/test_simulation.py::test_a_finished_run_keeps_only_its_unacked_records[spns-lossy-suppress-1]",
            "tests/test_simulation.py::test_lossy_forward_path_recovers_and_completes",
            "tests/test_simulation.py::test_lossy_run_is_deterministic_too",
            "tests/test_golden.py::test_golden_report[spns-lossy-suppress-1]",
            "tests/test_acceptance.py::test_criterion_6_loss_detection_oracle",
            "tests/test_scenario_fuzz.py::test_a_lossy_reference_run_encodes_its_frames_of_65_ranges_exactly",
            "tests/test_scenario_fuzz.py::test_random_scenarios_end_cleanly_and_repeat_exactly",
            "tests/test_scenario_fuzz.py::test_the_fuzzers_draws_reach_each_regime",
        ),
    ),
]


def copy_checkout(into: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, into / name)


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_B, MEMORY_LIMIT_B))


def run_tests(where: Path, tests: tuple[str, ...]) -> tuple[int | None, set[str]]:
    """Run `tests` in the copy at `where`, within `MEMORY_LIMIT_B`; returns
    pytest's exit status (negative for a signal, None on a timeout) and the
    node ids it reported failed or errored."""
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests]
    try:
        run = subprocess.run(
            cmd, cwd=where, env=env, capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=limit_memory
        )
    except subprocess.TimeoutExpired:
        return None, set()
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M))
    return run.returncode, failed


def check_control(mutants: list[Mutant]) -> bool:
    """The named tests pass on an unchanged copy, which imports its own package."""
    tests = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        copy_checkout(where)
        env = {**os.environ, "PYTHONPATH": str(where / "src")}
        probe = [sys.executable, "-c", "import mpqsim; print(mpqsim.__file__)"]
        imported = subprocess.run(probe, cwd=where, env=env, capture_output=True, text=True).stdout.strip()
        if not Path(imported).resolve().is_relative_to(where.resolve()):
            print(f"control: the copy imported mpqsim from {imported!r}, not from {where}")
            return False
        status, failed = run_tests(where, tests)
    if status != 0 or failed:
        print(f"control: exit {status}, failed on the unchanged copy: {sorted(failed)}")
        return False
    print(f"control: {len(tests)} named tests pass on the unchanged copy")
    return True


def check_mutant(mutant: Mutant) -> bool:
    """Whether `mutant` applies once and every named test fails under it."""
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        copy_checkout(where)
        target = where / mutant.file
        text = target.read_text()
        count = text.count(mutant.old)
        if count != 1:
            print(f"{mutant.name}: old text occurs {count} times in {mutant.file}, not once")
            return False
        target.write_text(text.replace(mutant.old, mutant.new))
        status, failed = run_tests(where, mutant.tests)
    survivors = [t for t in mutant.tests if t not in failed]
    if status is None:
        outcome = "TIMED OUT"
    elif status not in (0, 1):  # pytest's own error, or a signal: no test result to trust
        outcome = f"CRASHED (exit {status})"
    elif not mutant.tests or survivors:
        outcome = f"SURVIVED (exit {status}); still passing: {survivors}"
    else:
        print(f"{mutant.name}: killed, all {len(mutant.tests)} named tests failed")
        return True
    print(f"{mutant.name}: {outcome}")
    return False


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="print each mutant's name and tests")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"no mutant named {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] if args.names else MUTANTS
    if args.list:
        for m in chosen:
            print(m.name, *m.tests, sep="\n  ")
        return
    ok = check_control(chosen)
    ok = all([check_mutant(m) for m in chosen]) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
