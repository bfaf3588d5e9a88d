"""Explicit, incrementally maintained schedule state (ledger + dirty set).

The seed runtime manager kept its run state implicit: every decision that
needed a fact about the committed schedule re-derived it by scanning the
segment list — ``completion_time`` walked all segments per overdue job,
ghost pruning walked all segments per finish round just to discover that
nothing needed pruning, and the budget admission check re-materialised a
truncated :class:`~repro.core.segment.Schedule` per admitted arrival.

:class:`ScheduleState` makes that state explicit.  It is rebuilt in one pass
per *commit* (the only time the committed schedule changes) and answers the
hot-path questions in O(1):

* ``completion_time(name)`` — the end of the job's last committed segment,
  exactly the value ``Schedule.completion_time`` scans for;
* ``needs_prune(finished, now)`` — whether any newly finished job still owns
  a segment ending after ``now``, i.e. whether the seed's
  ``_without_finished`` scan would return a changed schedule;
* ``dirty`` — the job names whose arrival/finish perturbed the schedule
  since the last solve (the delta the next activation is about).

:class:`LoadLedger` is the per-segment load side: lazily computed, cached
per-cluster busy-core rows for whichever consumer (governor, budget check,
analytical accounting) asks first — the rows are integer sums, so sharing
them across consumers cannot change any float downstream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.core.segment import TIME_EPSILON

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.segment import MappingSegment, Schedule
    from repro.optable.table import OpTable


class LoadLedger:
    """Lazy per-segment busy-core rows, keyed by segment identity.

    One ledger accompanies one committed (or planned) schedule; rows are
    computed on first demand with the exact integer arithmetic of
    :func:`repro.optable.adapters.segment_busy_counts` and shared across the
    governor, the budget admission check and the analytical accounting.
    """

    __slots__ = ("_optables", "_dimension", "_rows")

    def __init__(self, optables: Mapping[str, "OpTable"], dimension: int):
        self._optables = optables
        self._dimension = dimension
        #: id(segment) → (segment, busy row); the segment reference keeps the
        #: id stable for the lifetime of the entry.
        self._rows: dict[int, tuple] = {}

    def busy_counts(self, segment: "MappingSegment") -> list[int]:
        """Per-cluster busy-core counts of ``segment`` (cached)."""
        entry = self._rows.get(id(segment))
        if entry is not None and entry[0] is segment:
            return entry[1]
        optables = self._optables
        if self._dimension == 2:
            # Unrolled two-cluster sum: the same integer adds in the same
            # mapping order as the generic loop, without the inner range().
            c0 = c1 = 0
            for mapping in segment:
                row = optables[mapping.application].resources[mapping.config_index]
                c0 += row[0]
                c1 += row[1]
            counts = [c0, c1]
        else:
            counts = [0] * self._dimension
            for mapping in segment:
                row = optables[mapping.application].resources[mapping.config_index]
                for k in range(self._dimension):
                    counts[k] += row[k]
        self._rows[id(segment)] = (segment, counts)
        return counts


class ScheduleState:
    """The committed schedule's incremental companion state.

    Rebuilt by :meth:`rebind` on every commit; read by the admission
    pipeline between commits.
    """

    __slots__ = ("schedule", "job_last_end", "dirty", "commits")

    def __init__(self) -> None:
        self.schedule: "Schedule | None" = None
        #: job name → end of its last committed segment.
        self.job_last_end: dict[str, float] = {}
        #: Names whose arrival/finish perturbed the schedule since the last
        #: scheduler activation (the delta the next solve is about; its size
        #: is reported per solve in the run's ``KERNEL`` event).
        self.dirty: set[str] = set()
        self.commits = 0

    def rebind(self, schedule: "Schedule") -> None:
        """Re-derive the state for a freshly committed schedule (one pass)."""
        last_end: dict[str, float] = {}
        for segment in schedule:
            end = segment.end
            for mapping in segment:
                last_end[mapping.job_name] = end
        self.schedule = schedule
        self.job_last_end = last_end
        self.commits += 1

    def completion_time(self, name: str) -> float | None:
        """O(1) twin of ``Schedule.completion_time`` for the committed plan."""
        return self.job_last_end.get(name)

    def needs_prune(self, finished: list[str], now: float) -> bool:
        """Would the seed's ghost-segment prune change the schedule?

        ``_without_finished`` returns a new schedule iff some no-longer
        active job is mapped in a segment ending after ``now``; every such
        job is one of the just-``finished`` ones (earlier finishes were
        pruned at their own finish time), so checking their last committed
        segment ends answers the question without scanning.
        """
        job_last_end = self.job_last_end
        boundary = now + TIME_EPSILON
        for name in finished:
            end = job_last_end.get(name)
            if end is not None and end > boundary:
                return True
        return False
