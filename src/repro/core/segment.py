"""Mapping segments and schedules.

A schedule :math:`\\kappa` is a list of *mapping segments*.  Each segment owns
a half-open time interval :math:`[\\mathrm{start}, \\mathrm{end})` and a
mapping :math:`\\mu`: the set of job mappings active during that interval.  A
job mapping :math:`\\nu = \\langle\\sigma, \\lambda, j\\rangle` states that job
:math:`\\sigma` runs its application with configuration index ``j`` during the
segment.  Jobs not mentioned in a segment are suspended for its duration —
this is exactly how the adaptive mapper of the motivational example suspends
:math:`\\sigma_1` while :math:`\\sigma_2` occupies the platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.config import ConfigTable, OperatingPoint
from repro.core.request import Job
from repro.exceptions import SchedulingError
from repro.platforms.resources import ResourceVector

#: Numerical slack for time comparisons (seconds).
TIME_EPSILON = 1e-9


@dataclass(frozen=True)
class JobMapping:
    """One job running one configuration within a segment (:math:`\\nu`)."""

    job: Job
    config_index: int

    def __post_init__(self) -> None:
        if self.config_index < 0:
            raise SchedulingError("configuration index must be non-negative")

    @property
    def job_name(self) -> str:
        """Name of the mapped job."""
        return self.job.name

    @property
    def application(self) -> str:
        """Application executed by the mapped job."""
        return self.job.application

    def operating_point(self, tables: Mapping[str, ConfigTable]) -> OperatingPoint:
        """Resolve the configuration index against the application tables."""
        try:
            table = tables[self.application]
        except KeyError:
            raise SchedulingError(
                f"no configuration table for application {self.application!r}"
            ) from None
        return table[self.config_index]


class MappingSegment:
    """One segment :math:`\\mu \\times \\Delta_\\mu` of a schedule.

    Parameters
    ----------
    start, end:
        Boundaries of the half-open interval :math:`[\\mathrm{start},
        \\mathrm{end})`; ``end`` must be strictly greater than ``start``.
    mappings:
        The job mappings active during the segment.  At most one mapping per
        job is allowed (constraint (2c)).
    """

    def __init__(self, start: float, end: float, mappings: Iterable[JobMapping] = ()):
        if end <= start + TIME_EPSILON:
            raise SchedulingError(
                f"segment end {end} must be greater than start {start}"
            )
        mapping_list = tuple(mappings)
        names = [m.job_name for m in mapping_list]
        if len(set(names)) != len(names):
            raise SchedulingError(f"duplicate job mappings in segment: {names}")
        self._start = float(start)
        self._end = float(end)
        self._mappings = mapping_list

    @classmethod
    def _trusted(
        cls, start: float, end: float, mappings: tuple[JobMapping, ...]
    ) -> "MappingSegment":
        """Construct without validation (internal fast paths only).

        The caller guarantees the constructor invariants: ``end > start +
        TIME_EPSILON``, at most one mapping per job, float boundaries.  The
        columnar EDF packer maintains them structurally and materialises its
        final segments through here.
        """
        segment = cls.__new__(cls)
        segment._start = start
        segment._end = end
        segment._mappings = mappings
        return segment

    # ------------------------------------------------------------------ #
    # Interval accessors
    # ------------------------------------------------------------------ #
    @property
    def start(self) -> float:
        """Begin of the segment interval."""
        return self._start

    @property
    def end(self) -> float:
        """End of the segment interval (exclusive)."""
        return self._end

    @property
    def duration(self) -> float:
        """Length :math:`|\\Delta_\\mu|` of the segment in seconds."""
        return self._end - self._start

    @property
    def mappings(self) -> tuple[JobMapping, ...]:
        """The job mappings active in the segment."""
        return self._mappings

    def __len__(self) -> int:
        return len(self._mappings)

    def __iter__(self) -> Iterator[JobMapping]:
        return iter(self._mappings)

    def __repr__(self) -> str:
        jobs = ", ".join(f"{m.job_name}:c{m.config_index}" for m in self._mappings)
        return f"MappingSegment([{self._start:.3f}, {self._end:.3f}), {{{jobs}}})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MappingSegment):
            return NotImplemented
        return (
            abs(self._start - other._start) <= TIME_EPSILON
            and abs(self._end - other._end) <= TIME_EPSILON
            and set((m.job_name, m.config_index) for m in self._mappings)
            == set((m.job_name, m.config_index) for m in other._mappings)
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def job_names(self) -> set[str]:
        """Names of the jobs mapped in the segment."""
        return {m.job_name for m in self._mappings}

    def mapping_for(self, job_name: str) -> JobMapping | None:
        """The mapping of ``job_name`` in the segment, or ``None`` if suspended."""
        for mapping in self._mappings:
            if mapping.job_name == job_name:
                return mapping
        return None

    def resource_usage(
        self, tables: Mapping[str, ConfigTable], dimension: int
    ) -> ResourceVector:
        """Total core demand of the segment (left side of constraint (2b))."""
        return ResourceVector.sum(
            [m.operating_point(tables).resources for m in self._mappings], dimension
        )

    def energy(self, tables: Mapping[str, ConfigTable]) -> float:
        """Energy consumed during the segment (one summand of objective (2a))."""
        duration = self._end - self._start
        total = 0.0
        for mapping in self._mappings:
            try:
                table = tables[mapping.application].optable
            except KeyError:
                raise SchedulingError(
                    f"no configuration table for application {mapping.application!r}"
                ) from None
            config_index = mapping.config_index
            total += table.energies[config_index] * duration / table.times[config_index]
        return total

    def progress_of(self, job_name: str, tables: Mapping[str, ConfigTable]) -> float:
        """Progress ratio the named job achieves during this segment."""
        mapping = self.mapping_for(job_name)
        if mapping is None:
            return 0.0
        point = mapping.operating_point(tables)
        return self.duration / point.execution_time

    # ------------------------------------------------------------------ #
    # Functional updates used by the EDF packer
    # ------------------------------------------------------------------ #
    def with_mapping(self, mapping: JobMapping) -> "MappingSegment":
        """Return a copy of the segment with ``mapping`` added."""
        if self.mapping_for(mapping.job_name) is not None:
            raise SchedulingError(
                f"job {mapping.job_name!r} is already mapped in this segment"
            )
        return MappingSegment(self._start, self._end, self._mappings + (mapping,))

    def split_at(self, time: float) -> tuple["MappingSegment", "MappingSegment"]:
        """Split the segment into two consecutive segments at ``time``.

        Both halves carry the same job mappings; the caller is responsible for
        adding/removing mappings afterwards (Algorithm 2, line 13).
        """
        if not (self._start + TIME_EPSILON < time < self._end - TIME_EPSILON):
            raise SchedulingError(
                f"split time {time} outside open interval ({self._start}, {self._end})"
            )
        first = MappingSegment(self._start, time, self._mappings)
        second = MappingSegment(time, self._end, self._mappings)
        return first, second


class Schedule:
    """An ordered list of consecutive mapping segments (:math:`\\kappa`).

    The class enforces that segments are sorted by start time; contiguity is
    checked by :meth:`is_contiguous` and by the problem validator rather than
    at construction time, because intermediate schedules built by the EDF
    packer legitimately contain gaps until later jobs fill them.
    """

    def __init__(self, segments: Iterable[MappingSegment] = ()):
        ordered = sorted(segments, key=lambda s: s.start)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start < earlier.end - TIME_EPSILON:
                raise SchedulingError(
                    f"overlapping segments: [{earlier.start}, {earlier.end}) and "
                    f"[{later.start}, {later.end})"
                )
        self._segments = tuple(ordered)

    @classmethod
    def _trusted(cls, segments: tuple[MappingSegment, ...]) -> "Schedule":
        """Construct from segments already sorted and disjoint (fast paths).

        The columnar EDF packer keeps its working list in start-time order
        with pairwise-disjoint intervals at all times, so the sort and the
        overlap scan of the public constructor are redundant there.
        """
        schedule = cls.__new__(cls)
        schedule._segments = segments
        return schedule

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    @property
    def segments(self) -> tuple[MappingSegment, ...]:
        """The segments in ascending time order."""
        return self._segments

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[MappingSegment]:
        return iter(self._segments)

    def __getitem__(self, index: int) -> MappingSegment:
        return self._segments[index]

    def __bool__(self) -> bool:
        return bool(self._segments)

    def __repr__(self) -> str:
        return f"Schedule({len(self._segments)} segments, end={self.end:.3f})" if self._segments else "Schedule(empty)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._segments == other._segments

    # ------------------------------------------------------------------ #
    # Global queries
    # ------------------------------------------------------------------ #
    @property
    def start(self) -> float:
        """Start time of the first segment (0.0 for an empty schedule)."""
        return self._segments[0].start if self._segments else 0.0

    @property
    def end(self) -> float:
        """End time of the last segment (0.0 for an empty schedule)."""
        return self._segments[-1].end if self._segments else 0.0

    @property
    def makespan(self) -> float:
        """Total time span covered by the schedule."""
        return self.end - self.start if self._segments else 0.0

    def job_names(self) -> set[str]:
        """Names of all jobs appearing anywhere in the schedule."""
        names: set[str] = set()
        for segment in self._segments:
            names |= segment.job_names()
        return names

    def is_contiguous(self) -> bool:
        """Return ``True`` iff consecutive segments share their boundary."""
        for earlier, later in zip(self._segments, self._segments[1:]):
            if abs(later.start - earlier.end) > 1e-6:
                return False
        return True

    def segments_of(self, job_name: str) -> list[MappingSegment]:
        """All segments in which ``job_name`` is mapped."""
        return [s for s in self._segments if s.mapping_for(job_name) is not None]

    def completion_time(self, job_name: str) -> float | None:
        """Finish time of ``job_name`` (end of its last segment), or ``None``."""
        own = self.segments_of(job_name)
        return own[-1].end if own else None

    def total_energy(self, tables: Mapping[str, ConfigTable]) -> float:
        """The objective (2a): total energy of the schedule in joules."""
        return sum(segment.energy(tables) for segment in self._segments)

    def total_progress(self, job_name: str, tables: Mapping[str, ConfigTable]) -> float:
        """Total progress ratio the named job achieves over the whole schedule."""
        return sum(s.progress_of(job_name, tables) for s in self._segments)

    def configuration_changes(self, job_name: str) -> int:
        """Number of times the named job switches configuration (or resumes)."""
        indices = [
            s.mapping_for(job_name).config_index
            for s in self._segments
            if s.mapping_for(job_name) is not None
        ]
        return sum(1 for a, b in zip(indices, indices[1:]) if a != b)

    # ------------------------------------------------------------------ #
    # Functional updates
    # ------------------------------------------------------------------ #
    def with_segment(self, segment: MappingSegment) -> "Schedule":
        """Return a copy of the schedule with ``segment`` added."""
        return Schedule(self._segments + (segment,))

    def replace_segment(
        self, old: MappingSegment, new: Sequence[MappingSegment]
    ) -> "Schedule":
        """Return a copy with ``old`` replaced by the segments in ``new``."""
        remaining = [s for s in self._segments if s is not old]
        if len(remaining) == len(self._segments):
            raise SchedulingError("segment to replace is not part of the schedule")
        return Schedule(tuple(remaining) + tuple(new))

    def truncated_before(self, time: float) -> "Schedule":
        """Return the part of the schedule at or after ``time``.

        Segments that straddle ``time`` are cut; segments that end before
        ``time`` are dropped.  Used by the runtime manager when a new request
        arrives in the middle of a previously computed schedule.
        """
        kept: list[MappingSegment] = []
        for segment in self._segments:
            if segment.end <= time + TIME_EPSILON:
                continue
            if segment.start >= time - TIME_EPSILON:
                kept.append(segment)
            else:
                kept.append(MappingSegment(time, segment.end, segment.mappings))
        return Schedule(kept)

    def truncated_after(self, time: float) -> "Schedule":
        """Return the part of the schedule strictly before ``time``."""
        kept: list[MappingSegment] = []
        for segment in self._segments:
            if segment.start >= time - TIME_EPSILON:
                continue
            if segment.end <= time + TIME_EPSILON:
                kept.append(segment)
            else:
                kept.append(MappingSegment(segment.start, time, segment.mappings))
        return Schedule(kept)
