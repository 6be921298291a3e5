"""Independent schedule checker.

Recomputes, from nothing but the raw probes and the profiles' execution
intervals, which t-intervals a schedule captures, whether any chronon
carries more probes than its budget, and the gained completeness
(captured t-intervals over all t-intervals, the paper's GC).

It shares no code with the program's own capture accounting
(``Schedule.captures_tinterval`` / ``evaluate_schedule``): the probes
are packed into one sorted ``resource * stride + chronon`` key array,
and an execution interval ``[start, finish]`` on resource ``r`` is
captured when that array holds a key in ``[r*stride + start,
r*stride + finish]`` — one vectorized ``searchsorted`` pair over every
execution interval at once.

An optional per-profile visibility window ``(arrive, leave)`` clips
every execution interval of the profile to chronons the profile was
registered for; this is how churn plans are checked (a profile added at
chronon T takes part from T+1, and a removed one stops at its removal
chronon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CheckReport", "check_schedule", "ei_table"]


@dataclass(frozen=True)
class CheckReport:
    """What the checker recomputed for one schedule."""

    captured: frozenset       # {(profile_index, tinterval_index)}
    total: int                # t-intervals checked
    max_load: int             # most probes on one chronon
    over_budget: tuple        # chronons whose probes exceed the budget
    duplicate_probes: int     # (resource, chronon) pairs listed twice

    @property
    def gc(self) -> float:
        return len(self.captured) / self.total if self.total else 1.0

    @property
    def budget_ok(self) -> bool:
        return not self.over_budget and not self.duplicate_probes


def ei_table(profiles, windows=None):
    """Flatten profiles into EI columns.

    ``profiles`` is a sequence of profiles, each a sequence of
    t-intervals, each a sequence of objects with ``resource_id``,
    ``start`` and ``finish``. ``windows`` maps a profile's position to
    its ``(arrive, leave)`` visibility window (inclusive); profiles
    missing from it are visible throughout.

    Returns ``(res, start, finish, owner)`` int64 arrays — one row per
    execution interval — and ``keys``, the ``(profile_index,
    tinterval_index)`` of each t-interval in ``owner`` order.
    """
    res: list[int] = []
    start: list[int] = []
    finish: list[int] = []
    owner: list[int] = []
    keys: list[tuple[int, int]] = []
    windows = windows or {}
    for p_index, profile in enumerate(profiles):
        arrive, leave = windows.get(p_index, (None, None))
        for t_index, eta in enumerate(profile):
            row = len(keys)
            keys.append((p_index, t_index))
            for ei in eta:
                lo, hi = ei.start, ei.finish
                if arrive is not None:
                    lo = max(lo, arrive)
                if leave is not None:
                    hi = min(hi, leave)
                res.append(ei.resource_id)
                start.append(lo)
                finish.append(hi)
                owner.append(row)
    as_int = lambda values: np.asarray(values, dtype=np.int64)  # noqa: E731
    return as_int(res), as_int(start), as_int(finish), as_int(owner), keys


def check_schedule(profiles, probes, budget, windows=None) -> CheckReport:
    """Check ``probes`` (an iterable of ``(resource_id, chronon)``)
    against ``profiles`` and a per-chronon ``budget``.

    ``budget`` is an int (constant) or a callable ``chronon -> int``.
    """
    pairs = np.asarray(list(probes), dtype=np.int64).reshape(-1, 2)
    res, start, finish, owner, keys = ei_table(profiles, windows)
    top = max(int(pairs[:, 1].max(initial=0)),
              int(finish.max(initial=0)), int(start.max(initial=0)))
    stride = top + 2
    probe_keys = np.sort(pairs[:, 0] * stride + pairs[:, 1])
    duplicates = int(np.count_nonzero(np.diff(probe_keys) == 0))

    lo = np.searchsorted(probe_keys, res * stride + start, side="left")
    hi = np.searchsorted(probe_keys, res * stride + finish, side="right")
    ei_hit = (hi > lo) & (start <= finish)
    # A t-interval is captured when none of its EIs is missed.
    missed = np.zeros(len(keys), dtype=np.int64)
    np.add.at(missed, owner, ~ei_hit)
    has_ei = np.bincount(owner, minlength=len(keys)) > 0
    captured = frozenset(keys[i] for i in
                         np.flatnonzero((missed == 0) & has_ei))

    chronons, loads = np.unique(pairs[:, 1], return_counts=True)
    cap = budget if callable(budget) else (lambda _chronon: budget)
    over = tuple(int(c) for c, n in zip(chronons, loads) if n > cap(int(c)))
    return CheckReport(captured=captured, total=len(keys),
                       max_load=int(loads.max(initial=0)),
                       over_budget=over, duplicate_probes=duplicates)
