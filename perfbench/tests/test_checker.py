"""Hand-built instances with known answers for the schedule checker.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

from collections import namedtuple

import pytest

from perfbench.checker import check_schedule

EI = namedtuple("EI", "resource_id start finish")


def test_single_ei_inside_and_outside_window():
    profiles = [[[EI(0, 3, 5)]], [[EI(1, 3, 5)]]]
    report = check_schedule(profiles, [(0, 5), (1, 6)], budget=2)
    assert report.captured == {(0, 0)}
    assert report.total == 2
    assert report.gc == 0.5


def test_probe_on_other_resource_does_not_capture():
    profiles = [[[EI(0, 1, 9)]]]
    report = check_schedule(profiles, [(1, 4)], budget=1)
    assert report.captured == frozenset()
    assert report.gc == 0.0


def test_tinterval_needs_every_ei():
    # t-interval 0 needs resources 0 and 1; only resource 0 is probed
    # in time. t-interval 1 is captured by the same probe (free rider).
    profiles = [[[EI(0, 1, 2), EI(1, 1, 2)], [EI(0, 2, 4)]]]
    report = check_schedule(profiles, [(0, 2), (1, 3)], budget=1)
    assert report.captured == {(0, 1)}
    assert report.total == 2


def test_window_edges_are_inclusive():
    profiles = [[[EI(2, 4, 4)]], [[EI(2, 7, 9)]]]
    report = check_schedule(profiles, [(2, 4), (2, 9)], budget=1)
    assert report.captured == {(0, 0), (1, 0)}
    assert report.gc == 1.0


def test_budget_overflow_is_reported_per_chronon():
    profiles = [[[EI(r, 1, 1)] for r in range(3)]]
    report = check_schedule(profiles, [(0, 1), (1, 1), (2, 1), (0, 2)],
                            budget=2)
    assert report.max_load == 3
    assert report.over_budget == (1,)
    assert not report.budget_ok
    assert len(report.captured) == 3


def test_budget_callable_per_chronon():
    profiles = [[[EI(0, 1, 1)]]]
    probes = [(0, 1), (1, 1), (0, 2), (1, 2)]
    report = check_schedule(profiles, probes,
                            budget=lambda chronon: 2 if chronon == 1 else 1)
    assert report.over_budget == (2,)


def test_duplicate_probe_breaks_budget():
    report = check_schedule([[[EI(0, 1, 1)]]], [(0, 1), (0, 1)], budget=5)
    assert report.duplicate_probes == 1
    assert not report.budget_ok


def test_visibility_window_clips_captures():
    # Profile 0 arrives at chronon 3: the probe at 2 is before it was
    # registered. Profile 1 leaves at chronon 5: the probe at 6 is late.
    profiles = [[[EI(0, 1, 4)]], [[EI(1, 4, 8)]], [[EI(0, 1, 4)]]]
    probes = [(0, 2), (1, 6)]
    report = check_schedule(profiles, probes, budget=2,
                            windows={0: (3, None), 1: (None, 5)})
    assert report.captured == {(2, 0)}


def test_empty_schedule_and_empty_profiles():
    assert check_schedule([], [], budget=1).gc == 1.0
    report = check_schedule([[[EI(0, 1, 1)]]], [], budget=1)
    assert report.captured == frozenset()
    assert report.max_load == 0
    assert report.budget_ok


def test_agrees_with_program_on_real_profile_objects():
    core = pytest.importorskip("repro.core.intervals")
    profile_mod = pytest.importorskip("repro.core.profile")
    schedule_mod = pytest.importorskip("repro.core.schedule")
    completeness = pytest.importorskip("repro.core.completeness")
    ExecutionInterval = core.ExecutionInterval
    TInterval = core.TInterval
    profiles = profile_mod.ProfileSet([
        profile_mod.Profile([
            TInterval([ExecutionInterval(0, 1, 3),
                       ExecutionInterval(1, 2, 4)]),
            TInterval([ExecutionInterval(2, 5, 5)]),
        ]),
        profile_mod.Profile([TInterval([ExecutionInterval(1, 4, 6)])]),
    ])
    schedule = schedule_mod.Schedule([(0, 2), (1, 4), (2, 6)])
    report = check_schedule(profiles, schedule.probes(), budget=1)
    expected = completeness.evaluate_schedule(profiles, schedule)
    assert report.captured == {(0, 0), (1, 0)}
    assert len(report.captured) == expected.captured
    assert report.gc == expected.gc
