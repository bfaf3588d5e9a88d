"""MMKP-MDF — the mapping heuristic proposed by the paper (Algorithm 1).

The multi-application mapping problem is treated as a multiple-choice
multi-dimensional knapsack problem: core types are knapsacks whose capacity is
*processing time per type* (cores × analysis horizon), job configurations are
items whose weight is the processing time they consume, and the value is the
(negated) energy.  The heuristic assigns one configuration per job:

1. Select the next job with the *Maximum Difference First* policy — the job
   that would be penalised most if its best feasible configuration were not
   available.
2. Try that job's feasible configurations in non-decreasing energy order; each
   tentative assignment is validated by building the actual mapping segments
   with the EDF packer (Algorithm 2).
3. On success, commit the assignment, keep the packed schedule and charge the
   consumed processing time to the knapsack containers.

If a job ends up with no configuration that yields a feasible packing, the
whole request set is rejected.
"""

from __future__ import annotations

from repro.core.problem import SchedulingProblem
from repro.schedulers.base import Scheduler, SchedulingResult
from repro.schedulers.edf_packer import pack_jobs_edf
from repro.schedulers.policies import (
    JobSelectionPolicy,
    MaximumDifferencePolicy,
    mdf_priority,
)

#: Numerical slack for capacity/deadline filtering.
_EPSILON = 1e-9


class MMKPMDFScheduler(Scheduler):
    """The paper's MMKP-MDF heuristic.

    Parameters
    ----------
    policy:
        Job-selection policy; defaults to the paper's MDF.  Alternative
        policies exist purely for the ablation benchmarks.

    Examples
    --------
    >>> from repro.workload.motivational import motivational_problem
    >>> result = MMKPMDFScheduler().schedule(motivational_problem("S1"))
    >>> result.feasible
    True
    """

    name = "mmkp-mdf"

    def __init__(self, policy: JobSelectionPolicy | None = None):
        self._policy = policy if policy is not None else MaximumDifferencePolicy()

    @property
    def policy(self) -> JobSelectionPolicy:
        """The job-selection policy in use."""
        return self._policy

    # ------------------------------------------------------------------ #
    # Algorithm 1
    # ------------------------------------------------------------------ #
    def _solve(self, problem: SchedulingProblem) -> SchedulingResult:
        """Algorithm 1 on the shared columnar :class:`ProblemView`.

        The feasibility filter, the energy ordering and the container
        bookkeeping read the interned OpTable columns, and the rounds avoid
        rescanning what cannot have changed:

        * Deadlines and remaining ratios are fixed for the whole activation,
          so the time-feasibility half of NEXTJOBMDF step (i) is computed
          once per job, and the per-entry container demand
          ``row[k] * remaining`` is materialised once.
        * Containers only shrink as configurations commit, so feasibility is
          *monotone*: an entry that failed a round can never pass a later
          one.  Each job keeps its surviving entries plus their per-type
          maximum demand; a round whose containers still cover that maximum
          reuses the previous feasible set without scanning at all.
        * With the paper's MDF policy, a job's selection priority depends
          only on its feasible set; it is recomputed only when that set
          shrank.  The inlined selection replays the policy's exact
          arithmetic and its ``max((priority, name))`` tie-break.

        The EDF packer underneath resumes from shared placement prefixes
        (see :mod:`repro.kernel.packmemo`), which is where the bulk of the
        arrival-handling speed comes from.
        """
        view = problem.view()
        containers = problem.processing_capacity()
        dimensions = len(containers)
        epsilon = _EPSILON
        assignment: dict[str, int] = {}
        schedule = None
        packer_calls = 0
        policy_calls = 0

        #: name → [entries, max_demand, feasible_indices, cached_priority]
        records: dict[str, list] = {}
        for job in problem.jobs:
            table = view.optable(job.application)
            budget = job.deadline - view.now
            ratio = job.remaining_ratio
            times = table.times
            resources = table.resources
            entries = []
            for index in range(len(times)):
                remaining = times[index] * ratio
                if remaining <= budget + epsilon:
                    row = resources[index]
                    entries.append(
                        (index, tuple(row[k] * remaining for k in range(dimensions)))
                    )
            records[job.name] = [
                entries,
                [
                    max((entry[1][k] for entry in entries), default=0.0)
                    for k in range(dimensions)
                ],
                [entry[0] for entry in entries],
                None,
            ]

        def feasible_now(name: str) -> tuple[list[int], bool]:
            """The job's feasible indices plus whether the set just shrank."""
            rec = records[name]
            max_demand = rec[1]
            for k in range(dimensions):
                if max_demand[k] > containers[k] + epsilon:
                    break
            else:
                return rec[2], False
            survivors = []
            for entry in rec[0]:
                demand = entry[1]
                fits = True
                for k in range(dimensions):
                    if demand[k] > containers[k] + epsilon:
                        fits = False
                        break
                if fits:
                    survivors.append(entry)
            rec[0] = survivors
            rec[1] = [
                max((entry[1][k] for entry in survivors), default=0.0)
                for k in range(dimensions)
            ]
            rec[2] = [entry[0] for entry in survivors]
            rec[3] = None
            return rec[2], True

        inline_mdf = type(self._policy) is MaximumDifferencePolicy
        unassigned = {job.name for job in problem.jobs}
        while unassigned:
            policy_calls += 1
            if inline_mdf:
                # Inlined MDF selection with cached priorities.  Matches the
                # policy exactly: the first candidate (in problem.jobs
                # order) with no feasible configuration is hopeless and
                # selected immediately; otherwise the maximum of
                # ``(priority, name)`` wins — identical to the policy's
                # ``max(candidates, key=...)`` because names are unique.
                job = None
                config_indices: list[int] = []
                best_key = None
                for candidate in problem.jobs:
                    name = candidate.name
                    if name not in unassigned:
                        continue
                    indices, shrank = feasible_now(name)
                    if not indices:
                        job, config_indices = candidate, indices
                        break
                    rec = records[name]
                    priority = rec[3]
                    if shrank or priority is None:
                        priority = mdf_priority(
                            view.optable(candidate.application).energies,
                            indices,
                            candidate.remaining_ratio,
                        )
                        rec[3] = priority
                    key = (priority, name)
                    if best_key is None or key > best_key:
                        best_key = key
                        job, config_indices = candidate, indices
            else:
                candidates = [
                    (candidate, feasible_now(candidate.name)[0])
                    for candidate in problem.jobs
                    if candidate.name in unassigned
                ]
                job, config_indices = self._policy.select(
                    candidates, problem.tables, problem.now
                )

            # Try configurations in non-decreasing remaining-energy order
            # (Algorithm 1, lines 5-14); the packer underneath resumes from
            # shared placement prefixes.
            table = view.optable(job.application)
            energies = table.energies
            ratio = job.remaining_ratio
            ordered = sorted(config_indices, key=lambda i: energies[i] * ratio)
            committed = False
            for config_index in ordered:
                # Mutated in place (and undone on rejection) instead of
                # copied per trial: the packer sees the identical mapping.
                assignment[job.name] = config_index
                packer_calls += 1
                trial_schedule = pack_jobs_edf(problem, assignment)
                if trial_schedule is None:
                    continue
                schedule = trial_schedule
                # Charge the committed configuration to the containers
                # (Algorithm 1, line 12).
                remaining = table.times[config_index] * ratio
                row = table.resources[config_index]
                for k in range(len(containers)):
                    containers[k] -= row[k] * remaining
                committed = True
                break

            if not committed:
                # No configuration of this job yields a feasible packing: the
                # request set is rejected (Algorithm 1, line 6).
                assignment.pop(job.name, None)
                return SchedulingResult(
                    schedule=None,
                    statistics={
                        "packer_calls": packer_calls,
                        "policy_calls": policy_calls,
                    },
                )
            unassigned.remove(job.name)

        energy = problem.energy_of(schedule) if schedule is not None else float("inf")
        return SchedulingResult(
            schedule=schedule,
            assignment=assignment,
            energy=energy,
            statistics={"packer_calls": packer_calls, "policy_calls": policy_calls},
        )
