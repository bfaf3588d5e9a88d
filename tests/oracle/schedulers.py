"""Reference MMKP-MDF and MMKP-LR schedulers over operating-point lists.

Both classes report the production scheduler names (``"mmkp-mdf"`` and
``"mmkp-lr"``) so their results, logs and batch fingerprints are directly
comparable with the production schedulers'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.config import ConfigTable, OperatingPoint
from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.core.segment import JobMapping, MappingSegment, Schedule, TIME_EPSILON
from repro.knapsack import MMKPItem, MMKPProblem, solve_lagrangian
from repro.schedulers.base import Scheduler, SchedulingResult
from repro.schedulers.policies import JobSelectionPolicy
from tests.oracle.packer import pack_jobs_edf

#: Numerical slack for capacity/deadline filtering.
_EPSILON = 1e-9
_RATIO_EPSILON = 1e-9


# --------------------------------------------------------------------- #
# Objective (2a)
# --------------------------------------------------------------------- #
def segment_energy(segment: MappingSegment, tables: Mapping[str, ConfigTable]) -> float:
    """Energy consumed during one segment, from operating points."""
    total = 0.0
    for mapping in segment:
        point = mapping.operating_point(tables)
        total += point.energy * segment.duration / point.execution_time
    return total


def schedule_energy(schedule: Schedule, tables: Mapping[str, ConfigTable]) -> float:
    """The objective (2a): total energy of the schedule in joules."""
    return sum(segment_energy(segment, tables) for segment in schedule)


# --------------------------------------------------------------------- #
# MMKP-MDF (Algorithm 1)
# --------------------------------------------------------------------- #
class ListMaximumDifferencePolicy(JobSelectionPolicy):
    """The paper's MDF policy, priorities from sorted operating-point lists."""

    name = "mdf"

    def select(self, candidates, tables, now):
        hopeless = self._hopeless(candidates)
        if hopeless is not None:
            return hopeless

        def priority(entry: tuple[Job, list[int]]) -> float:
            job, indices = entry
            table = tables[job.application]
            energies = sorted(
                table[i].remaining_energy(job.remaining_ratio) for i in indices
            )
            if len(energies) == 1:
                return float("inf")
            return energies[1] - energies[0]

        return max(candidates, key=lambda entry: (priority(entry), entry[0].name))


class MMKPMDFOracle(Scheduler):
    """List-based Algorithm 1 driving the list-based packer."""

    name = "mmkp-mdf"

    def __init__(self, policy: JobSelectionPolicy | None = None):
        self._policy = policy if policy is not None else ListMaximumDifferencePolicy()

    def _solve(self, problem: SchedulingProblem) -> SchedulingResult:
        containers = problem.processing_capacity()
        assignment: dict[str, int] = {}
        schedule = None
        packer_calls = 0
        policy_calls = 0

        unassigned = {job.name for job in problem.jobs}
        while unassigned:
            candidates = [
                (job, self._feasible_configs(job, problem, containers))
                for job in problem.jobs
                if job.name in unassigned
            ]
            policy_calls += 1
            job, config_indices = self._policy.select(
                candidates, problem.tables, problem.now
            )

            # Try configurations in non-decreasing remaining-energy order
            # (Algorithm 1, lines 5-14).
            table = problem.table_for(job)
            ordered = sorted(
                config_indices,
                key=lambda i: table[i].remaining_energy(job.remaining_ratio),
            )
            committed = False
            for config_index in ordered:
                trial = dict(assignment)
                trial[job.name] = config_index
                packer_calls += 1
                trial_schedule = pack_jobs_edf(problem, trial)
                if trial_schedule is None:
                    continue
                assignment = trial
                schedule = trial_schedule
                self._consume(containers, table, config_index, job)
                committed = True
                break

            if not committed:
                # No configuration of this job yields a feasible packing: the
                # request set is rejected (Algorithm 1, line 6).
                return SchedulingResult(
                    schedule=None,
                    statistics={
                        "packer_calls": packer_calls,
                        "policy_calls": policy_calls,
                    },
                )
            unassigned.remove(job.name)

        energy = (
            schedule_energy(schedule, problem.tables)
            if schedule is not None
            else float("inf")
        )
        return SchedulingResult(
            schedule=schedule,
            assignment=assignment,
            energy=energy,
            statistics={"packer_calls": packer_calls, "policy_calls": policy_calls},
        )

    @staticmethod
    def _feasible_configs(
        job: Job, problem: SchedulingProblem, containers: list[float]
    ) -> list[int]:
        """Filter the configurations of ``job`` (NEXTJOBMDF step (i)).

        A configuration is kept when (a) running the job's remaining work with
        it from *now* would meet the deadline and (b) the processing time it
        requires still fits into the knapsack containers.
        """
        table = problem.table_for(job)
        budget = job.deadline - problem.now
        feasible = []
        for index, point in enumerate(table):
            remaining = point.remaining_time(job.remaining_ratio)
            if remaining > budget + _EPSILON:
                continue
            demand_fits = all(
                point.resources[k] * remaining <= containers[k] + _EPSILON
                for k in range(len(containers))
            )
            if not demand_fits:
                continue
            feasible.append(index)
        return feasible

    @staticmethod
    def _consume(
        containers: list[float], table: ConfigTable, config_index: int, job: Job
    ) -> None:
        """Charge the committed configuration to the containers (line 12)."""
        point = table[config_index]
        remaining = point.remaining_time(job.remaining_ratio)
        for k in range(len(containers)):
            containers[k] -= point.resources[k] * remaining


# --------------------------------------------------------------------- #
# MMKP-LR (single-segment Lagrangian baseline)
# --------------------------------------------------------------------- #
@dataclass
class _PendingJob:
    """Mutable remaining-work record used while segments are being built."""

    job: Job
    remaining_ratio: float

    @property
    def name(self) -> str:
        return self.job.name

    def finished(self) -> bool:
        return self.remaining_ratio <= _RATIO_EPSILON


class MMKPLROracle(Scheduler):
    """List-based MMKP-LR: one fresh Lagrangian solve per segment."""

    name = "mmkp-lr"

    def __init__(self, max_subgradient_iterations: int = 100):
        self._max_iterations = max_subgradient_iterations

    def _solve(self, problem: SchedulingProblem) -> SchedulingResult:
        pending = [
            _PendingJob(job, job.remaining_ratio)
            for job in sorted(problem.jobs, key=lambda j: j.name)
        ]
        segments: list[MappingSegment] = []
        first_config: dict[str, int] = {}
        now = problem.now
        subgradient_iterations = 0
        segment_count = 0

        while any(not p.finished() for p in pending):
            active = [p for p in pending if not p.finished()]

            # Every unfinished job must still have a chance to meet its
            # deadline; otherwise the request set is rejected.
            for record in active:
                fastest = problem.table_for(record.job).fastest().execution_time
                if now + fastest * record.remaining_ratio > record.job.deadline + 1e-6:
                    return self._reject(subgradient_iterations, segment_count)

            assignment, iterations = self._assign_segment(problem, active, now)
            subgradient_iterations += iterations
            if not assignment:
                # No job could be mapped onto the empty platform: no progress
                # is possible, reject.
                return self._reject(subgradient_iterations, segment_count)

            # The segment ends when the first mapped job finishes.
            segment_end = min(
                now
                + problem.table_for(record.job)[
                    assignment[record.name]
                ].remaining_time(record.remaining_ratio)
                for record in active
                if record.name in assignment
            )
            duration = segment_end - now
            if duration <= TIME_EPSILON:
                return self._reject(subgradient_iterations, segment_count)

            mappings = []
            for record in active:
                if record.name not in assignment:
                    continue
                config_index = assignment[record.name]
                first_config.setdefault(record.name, config_index)
                mappings.append(JobMapping(record.job, config_index))
                execution_time = problem.table_for(record.job)[
                    config_index
                ].execution_time
                record.remaining_ratio -= duration / execution_time
                if record.remaining_ratio <= _RATIO_EPSILON:
                    record.remaining_ratio = 0.0
                    if segment_end > record.job.deadline + 1e-6:
                        return self._reject(subgradient_iterations, segment_count)
            segments.append(MappingSegment(now, segment_end, mappings))
            segment_count += 1
            now = segment_end

        schedule = Schedule(segments)
        return SchedulingResult(
            schedule=schedule,
            assignment=first_config,
            energy=schedule_energy(schedule, problem.tables),
            statistics={
                "subgradient_iterations": subgradient_iterations,
                "segments": segment_count,
            },
        )

    @staticmethod
    def _reject(subgradient_iterations: int, segment_count: int) -> SchedulingResult:
        return SchedulingResult(
            schedule=None,
            statistics={
                "subgradient_iterations": subgradient_iterations,
                "segments": segment_count,
            },
        )

    def _assign_segment(
        self,
        problem: SchedulingProblem,
        active: list[_PendingJob],
        now: float,
    ) -> tuple[dict[str, int], int]:
        """Pick one configuration per job for the segment starting at ``now``.

        Returns the assignment (jobs left out are suspended for the segment)
        and the number of subgradient iterations spent.
        """
        capacity = problem.capacity

        # Build the single-segment MMKP: values are negated remaining energies,
        # weights are the per-type core demands, capacities are the cores.
        groups = []
        candidates: list[list[tuple[int, OperatingPoint]]] = []
        for record in active:
            table = problem.table_for(record.job)
            feasible = [
                (index, point)
                for index, point in enumerate(table)
                if point.resources.fits_into(capacity)
            ]
            candidates.append(feasible)
            groups.append(
                [
                    MMKPItem(
                        value=-point.remaining_energy(record.remaining_ratio),
                        weights=tuple(float(c) for c in point.resources),
                        label=index,
                    )
                    for index, point in feasible
                ]
                or [MMKPItem(value=0.0, weights=tuple(0.0 for _ in capacity), label=None)]
            )

        mmkp = MMKPProblem([float(c) for c in capacity], groups)
        relaxation = solve_lagrangian(mmkp, max_iterations=self._max_iterations)
        multipliers = relaxation.multipliers

        def reduced_cost(record: _PendingJob, point: OperatingPoint) -> float:
            energy = point.remaining_energy(record.remaining_ratio)
            penalty = sum(
                multiplier * resource
                for multiplier, resource in zip(multipliers, point.resources)
            )
            return energy + penalty

        # Map jobs in increasing order of their minimum configuration cost.
        ordering = []
        for record, feasible in zip(active, candidates):
            if feasible:
                minimum = min(reduced_cost(record, point) for _, point in feasible)
            else:
                minimum = float("inf")
            ordering.append((minimum, record, feasible))
        ordering.sort(key=lambda entry: (entry[0], entry[1].name))

        assignment: dict[str, int] = {}
        remaining = capacity
        # Estimated end of the segment under construction: the earliest
        # completion among the jobs assigned so far.  The optimistic deadline
        # check assumes the job switches to its fastest configuration at that
        # point.
        estimated_end = float("inf")
        for _, record, feasible in ordering:
            table = problem.table_for(record.job)
            deadline = record.job.deadline
            fastest = table.fastest().execution_time
            for index, point in sorted(
                feasible, key=lambda item: reduced_cost(record, item[1])
            ):
                if not point.resources.fits_into(remaining):
                    continue
                completion = now + point.remaining_time(record.remaining_ratio)
                if completion <= deadline + 1e-9:
                    accepted = True
                else:
                    # Optimistic check: run this configuration until the end
                    # of the segment, then reconfigure to the fastest one.
                    segment_end = min(estimated_end, completion)
                    progressed = (segment_end - now) / point.execution_time
                    left_after = max(0.0, record.remaining_ratio - progressed)
                    accepted = (
                        segment_end + fastest * left_after <= deadline + 1e-9
                    )
                if not accepted:
                    continue
                assignment[record.name] = index
                remaining = remaining - point.resources
                estimated_end = min(estimated_end, completion)
                break

        return assignment, relaxation.iterations


#: Registry name -> reference scheduler class.  The other built-in
#: schedulers (EX-MEM, the fixed mapper) never had a second implementation.
ORACLE_SCHEDULERS = {"mmkp-mdf": MMKPMDFOracle, "mmkp-lr": MMKPLROracle}


def oracle_scheduler(name: str) -> Scheduler:
    """A fresh reference scheduler for a registry name.

    Falls back to the production build for names without a reference twin.
    """
    factory = ORACLE_SCHEDULERS.get(name)
    if factory is not None:
        return factory()
    from repro.api.registry import schedulers

    return schedulers.build(name)
