"""Reference EDF mapping-segment packer (Algorithm 2, list form).

Places one job at a time through the :class:`~repro.core.segment.Schedule`
functional updates (``with_mapping``, ``split_at``, ``replace_segment``),
re-deriving every segment's resource usage per probe.  Slow by design.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.core.segment import JobMapping, MappingSegment, Schedule, TIME_EPSILON
from repro.exceptions import SchedulingError

#: Remaining-ratio threshold below which a job counts as finished.
_RATIO_EPSILON = 1e-9


def pack_jobs_edf(
    problem: SchedulingProblem, assignment: Mapping[str, int]
) -> Schedule | None:
    """Build mapping segments for the jobs listed in ``assignment``.

    Same contract as :func:`repro.schedulers.edf_packer.pack_jobs_edf`:
    jobs missing from ``assignment`` are ignored, an out-of-range
    configuration raises :class:`SchedulingError` before any placement, and
    ``None`` means some assigned job misses its deadline.
    """
    jobs = [job for job in problem.jobs if job.name in assignment]
    for job in jobs:
        config_index = assignment[job.name]
        table = problem.table_for(job)
        if config_index not in table.indices():
            raise SchedulingError(
                f"job {job.name!r}: configuration {config_index} out of range"
            )

    schedule = Schedule()
    # EDF: place jobs in non-decreasing order of their absolute deadline.
    for job in sorted(jobs, key=lambda j: (j.deadline, j.name)):
        schedule = _place_job(problem, schedule, job, assignment[job.name])
        if schedule is None:
            return None
    return schedule


def _place_job(
    problem: SchedulingProblem,
    schedule: Schedule,
    job: Job,
    config_index: int,
) -> Schedule | None:
    """Place one job into the schedule (the body of Algorithm 2's outer loop)."""
    point = problem.table_for(job)[config_index]
    capacity = problem.capacity
    dimension = len(capacity)
    remaining_ratio = job.remaining_ratio
    finish_time: float | None = None

    index = 0
    while index < len(schedule) and remaining_ratio > _RATIO_EPSILON:
        segment = schedule[index]
        usage = segment.resource_usage(problem.tables, dimension)
        if not (usage + point.resources).fits_into(capacity):
            index += 1
            continue

        required = point.remaining_time(min(1.0, remaining_ratio))
        if required >= segment.duration - TIME_EPSILON:
            # The job is busy for the whole segment (Algorithm 2, lines 9-11).
            new_segment = segment.with_mapping(JobMapping(job, config_index))
            schedule = schedule.replace_segment(segment, [new_segment])
            remaining_ratio -= segment.duration / point.execution_time
            if remaining_ratio <= _RATIO_EPSILON:
                remaining_ratio = 0.0
                finish_time = new_segment.end
                break
            index += 1
        else:
            # The job finishes inside the segment: split it and map the job
            # only onto the first half (Algorithm 2, lines 13-17).
            split_time = segment.start + required
            first, second = segment.split_at(split_time)
            first = first.with_mapping(JobMapping(job, config_index))
            schedule = schedule.replace_segment(segment, [first, second])
            remaining_ratio = 0.0
            finish_time = first.end
            break

    if remaining_ratio > _RATIO_EPSILON:
        # Remaining work after the last existing segment: append a new segment
        # at the end of the schedule (Algorithm 2, lines 19-22).
        start = max(problem.now, schedule.end if len(schedule) else problem.now)
        required = point.remaining_time(min(1.0, remaining_ratio))
        new_segment = MappingSegment(
            start, start + required, [JobMapping(job, config_index)]
        )
        schedule = schedule.with_segment(new_segment)
        finish_time = new_segment.end

    # Deadline check (Algorithm 2, line 23).
    if finish_time is None or finish_time > job.deadline + 1e-9:
        return None
    return schedule
