"""Reference runtime manager: full re-solves on every activation.

:class:`OracleRuntimeManager` reuses the production execution engine (time
advance, interval accounting, commits, governor planning) and replaces only
the decision path: every arrival and every finish-time reschedule poses the
full active set as a fresh :class:`~repro.core.problem.SchedulingProblem`,
overdue deadlines are relaxed by scanning the committed segments, and every
finish re-scans the committed schedule for ghost mappings.  The scheduler
never sees the run's :class:`~repro.kernel.pipeline.KernelRun`, so
schedulers with kernel warm starts (EX-MEM's shared candidate columns)
derive everything cold on the reference side.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping

from repro.api.events import RunEvent, RunEventKind
from repro.core.config import ConfigTable
from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.obs import tracer as obs
from repro.runtime.manager import RuntimeManager, _FINISH_TOLERANCE, _Plan
from tests.oracle.schedulers import oracle_scheduler


class _ColdRun:
    """A scheduler with its kernel-run hooks hidden.

    The production manager hands every run's kernel caches to
    ``scheduler.begin_run``; behind this proxy they are never adopted.
    """

    def __init__(self, scheduler) -> None:
        self.inner = scheduler
        self.name = scheduler.name

    def schedule(self, problem):
        return self.inner.schedule(problem)

    def begin_run(self, kernel) -> None:
        pass

    def end_run(self, kernel) -> None:
        pass


class OracleRuntimeManager(RuntimeManager):
    """A :class:`RuntimeManager` whose activations are full re-solves."""

    def _configure(self, platform, tables, scheduler, **options) -> None:
        super()._configure(platform, tables, _ColdRun(scheduler), **options)

    def _admit_arrival(self, ctx, event) -> None:
        job = Job(
            name=event.name,
            application=event.application,
            arrival=event.time,
            deadline=event.absolute_deadline,
        )
        ctx.request_info[event.name] = event
        if ctx.observer is not None:
            ctx.observer(
                RunEvent(
                    RunEventKind.ARRIVAL,
                    event.time,
                    event.name,
                    {
                        "application": event.application,
                        "deadline": event.absolute_deadline,
                    },
                )
            )
        candidate_jobs = self._active_for_problem(ctx, event.time) + [job]
        problem = SchedulingProblem(
            self._capacity, self._tables, candidate_jobs, now=event.time
        )
        result = self._scheduler.schedule(problem)
        ctx.log.activations += 1

        if result.feasible:
            candidates = dict(ctx.active)
            candidates[job.name] = job
            plan = self._plan(ctx, result.schedule, candidates)
            if self._budget is not None:
                verdict = self._budget.admits(
                    plan.schedule,
                    self._tables,
                    now=event.time,
                    consumed_joules=ctx.log.total_energy,
                    platform=self._platform,
                    decision=plan.decision,
                )
                if not verdict:
                    # Deadline-feasible but over the power/energy envelope:
                    # rejected like an infeasible request.
                    ctx.log.budget_rejections += 1
                    ctx.admissions[event.name] = (False, result.search_time)
                    self._emit_decision(ctx, event, False, result, reason="budget")
                    return
            ctx.active[job.name] = job
            self._commit(ctx, plan=plan)
            ctx.admissions[event.name] = (True, result.search_time)
            self._emit_decision(ctx, event, True, result)
        else:
            # The new request is rejected; the previously committed schedule
            # keeps serving the already admitted jobs.
            ctx.admissions[event.name] = (False, result.search_time)
            self._emit_decision(ctx, event, False, result, reason="infeasible")

    def _collect_finished(self, ctx, time: float) -> list[str]:
        """Remove completed jobs and prune their ghosts (always scans)."""
        finished = []
        for name, job in list(ctx.active.items()):
            if job.remaining_ratio <= _FINISH_TOLERANCE:
                ctx.completions[name] = time
                del ctx.active[name]
                finished.append(name)
                if ctx.observer is not None:
                    ctx.observer(RunEvent(RunEventKind.FINISH, time, name))
        if finished and ctx.active:
            pruned = self._without_finished(ctx.schedule, ctx.active, ctx.now)
            if pruned is not ctx.schedule:
                self._commit(ctx, plan=_Plan(pruned, ctx.speed, ctx.decision))
        return finished

    def _active_for_problem(self, ctx, now: float) -> list[Job]:
        """The active jobs as scheduler candidates.

        Overdue jobs (a deadline-violating governor may leave some) get
        their deadline relaxed to their committed completion time, found by
        scanning the committed segments.
        """
        candidates = []
        for job in ctx.active.values():
            if job.deadline < now:
                committed = ctx.schedule.completion_time(job.name)
                relaxed = max(now, committed if committed is not None else now)
                candidates.append(replace(job, deadline=relaxed))
            else:
                candidates.append(job)
        return candidates

    def _reschedule_at(self, ctx, time: float) -> None:
        """Re-activate the scheduler for the remaining jobs (remap on finish)."""
        with obs.span("rm.reschedule", category="runtime"):
            problem = SchedulingProblem(
                self._capacity,
                self._tables,
                self._active_for_problem(ctx, time),
                now=time,
            )
            result = self._scheduler.schedule(problem)
            ctx.log.activations += 1
            if result.feasible:
                self._commit(ctx, self._plan(ctx, result.schedule, ctx.active))
            # If rescheduling fails the previously committed schedule (which
            # is still feasible for the remaining jobs) stays in force.


def oracle_manager(
    platform, tables: Mapping[str, ConfigTable], scheduler, **options
) -> OracleRuntimeManager:
    """The reference manager around ``scheduler`` (an instance or a name).

    A registry name resolves to its reference twin (see
    :func:`~tests.oracle.schedulers.oracle_scheduler`); ``options`` are the
    keyword options of :meth:`RuntimeManager.from_components`.
    """
    if isinstance(scheduler, str):
        scheduler = oracle_scheduler(scheduler)
    return OracleRuntimeManager.from_components(platform, tables, scheduler, **options)
