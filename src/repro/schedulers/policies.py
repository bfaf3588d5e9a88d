"""Job-selection policies for the MMKP mapping heuristic.

The paper's Algorithm 1 selects the next job to map with *Maximum Difference
First* (MDF): the job whose energy penalty would be largest if it could not
use its most efficient feasible configuration.  For the ablation study
(DESIGN.md, Section 5) we also provide simpler orders so the benefit of MDF
can be quantified.

Every policy receives the list of not-yet-assigned jobs together with their
currently feasible configuration indices and returns the job to handle next.
"""

from __future__ import annotations

import abc
import random
from typing import Mapping, Sequence

from repro.core.config import ConfigTable
from repro.core.request import Job


class JobSelectionPolicy(abc.ABC):
    """Strategy object deciding which unassigned job Algorithm 1 maps next."""

    name: str = "policy"

    @abc.abstractmethod
    def select(
        self,
        candidates: Sequence[tuple[Job, list[int]]],
        tables: Mapping[str, ConfigTable],
        now: float,
    ) -> tuple[Job, list[int]]:
        """Pick one ``(job, feasible configuration indices)`` pair.

        ``candidates`` is never empty.  Jobs with an empty configuration list
        are passed through as well; policies should return such a job
        immediately because the overall problem is then infeasible and
        Algorithm 1 can terminate early.
        """

    @staticmethod
    def _hopeless(candidates: Sequence[tuple[Job, list[int]]]):
        """Return a job with no feasible configuration, if any."""
        for job, indices in candidates:
            if not indices:
                return job, indices
        return None


def mdf_priority(
    energies: Sequence[float], indices: Sequence[int], ratio: float
) -> float:
    """The MDF priority of a job with feasible configurations ``indices``.

    The gap between the two smallest remaining energies
    (``energies[i] * ratio``); infinite when only one configuration is
    feasible.  Only the two smallest values are tracked, which gives the same
    floats as sorting the full list.
    """
    if len(indices) == 1:
        return float("inf")
    smallest = second = float("inf")
    for index in indices:
        value = energies[index] * ratio
        if value < smallest:
            smallest, second = value, smallest
        elif value < second:
            second = value
    return second - smallest


class MaximumDifferencePolicy(JobSelectionPolicy):
    """The paper's MDF policy.

    The priority of a job is the energy difference between its best (lowest
    remaining energy) feasible configuration and the second best one; a job
    with a single feasible configuration gets infinite priority because not
    scheduling it with that configuration means rejecting it.
    """

    name = "mdf"

    def select(self, candidates, tables, now):
        hopeless = self._hopeless(candidates)
        if hopeless is not None:
            return hopeless

        # Priorities read the interned energy column.
        def priority(entry: tuple[Job, list[int]]) -> float:
            job, indices = entry
            return mdf_priority(
                tables[job.application].optable.energies, indices, job.remaining_ratio
            )

        return max(candidates, key=lambda entry: (priority(entry), entry[0].name))


class EarliestDeadlinePolicy(JobSelectionPolicy):
    """Map the job with the earliest absolute deadline first."""

    name = "edf"

    def select(self, candidates, tables, now):
        hopeless = self._hopeless(candidates)
        if hopeless is not None:
            return hopeless
        return min(candidates, key=lambda entry: (entry[0].deadline, entry[0].name))


class ArrivalOrderPolicy(JobSelectionPolicy):
    """Map jobs in the order they arrived (FIFO)."""

    name = "arrival"

    def select(self, candidates, tables, now):
        hopeless = self._hopeless(candidates)
        if hopeless is not None:
            return hopeless
        return min(candidates, key=lambda entry: (entry[0].arrival, entry[0].name))


class MinimumLaxityPolicy(JobSelectionPolicy):
    """Map the job with the least slack (deadline minus fastest remaining time)."""

    name = "laxity"

    def select(self, candidates, tables, now):
        hopeless = self._hopeless(candidates)
        if hopeless is not None:
            return hopeless

        def laxity(entry: tuple[Job, list[int]]) -> float:
            job, indices = entry
            table = tables[job.application]
            fastest = min(table[i].remaining_time(job.remaining_ratio) for i in indices)
            return job.deadline - now - fastest

        return min(candidates, key=lambda entry: (laxity(entry), entry[0].name))


class RandomPolicy(JobSelectionPolicy):
    """Map jobs in uniformly random order (ablation control)."""

    name = "random"

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def select(self, candidates, tables, now):
        hopeless = self._hopeless(candidates)
        if hopeless is not None:
            return hopeless
        return candidates[self._rng.randrange(len(candidates))]
