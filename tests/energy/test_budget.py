"""Tests for power-cap / energy-budget admission control."""

import pytest

from repro.energy import EnergyBudget, PerformanceGovernor
from repro.exceptions import EnergyError
from repro.runtime import RuntimeManager
from repro.schedulers import MMKPMDFScheduler
from repro.workload.motivational import (
    motivational_platform,
    motivational_tables,
    motivational_trace,
)


def _trace():
    return motivational_trace("S1")


def _run(budget=None, governor=None):
    manager = RuntimeManager.from_components(
        motivational_platform(),
        motivational_tables(),
        MMKPMDFScheduler(),
        governor=governor,
        budget=budget,
    )
    return manager.run(_trace())


class TestValidation:
    def test_non_positive_limits_rejected(self):
        with pytest.raises(EnergyError):
            EnergyBudget(power_cap_watts=0.0)
        with pytest.raises(EnergyError):
            EnergyBudget(energy_budget_joules=-1.0)

    def test_unconstrained_budget_is_a_no_op(self):
        unconstrained = _run(budget=EnergyBudget())
        baseline = _run()
        assert unconstrained.total_energy == baseline.total_energy
        assert unconstrained.budget_rejections == 0


class TestPowerCap:
    def test_generous_cap_changes_nothing(self):
        baseline = _run()
        capped = _run(budget=EnergyBudget(power_cap_watts=1000.0))
        assert capped.total_energy == baseline.total_energy
        assert capped.acceptance_rate == 1.0
        assert capped.budget_rejections == 0

    def test_tight_cap_rejects_the_second_request(self):
        # sigma1 runs 2L1B at 8.9 J / 5.3 s ~ 1.68 W; admitting sigma2 needs
        # a segment at ~1.91 W (2L1B of lambda2), so a 1.85 W cap admits the
        # first request and rejects the second.
        baseline = _run()
        capped = _run(budget=EnergyBudget(power_cap_watts=1.85))
        assert capped.budget_rejections == 1
        assert capped.acceptance_rate < baseline.acceptance_rate
        # The first schedule stays in force: sigma1 still completes.
        assert capped.completion_of("sigma1") is not None
        assert not capped.deadline_misses

    def test_impossible_cap_rejects_everything(self):
        capped = _run(budget=EnergyBudget(power_cap_watts=0.1))
        assert capped.acceptance_rate == 0.0
        assert capped.budget_rejections == 2
        assert capped.total_energy == 0.0


class TestEnergyBudgetJoules:
    def test_budget_admits_until_exhausted(self):
        baseline = _run()
        assert baseline.total_energy == pytest.approx(14.63, abs=0.01)
        # Enough for sigma1's cheapest full run but not for both jobs.
        budgeted = _run(budget=EnergyBudget(energy_budget_joules=10.0))
        assert budgeted.budget_rejections >= 1
        assert budgeted.total_energy <= 10.0 + 1e-9
        generous = _run(budget=EnergyBudget(energy_budget_joules=100.0))
        assert generous.total_energy == baseline.total_energy
        assert generous.budget_rejections == 0

    def test_budget_checked_against_analytical_plan_in_governor_mode(self):
        fixed = _run(governor=PerformanceGovernor())
        # Analytical accounting charges the whole platform during segments,
        # so the same 10 J budget is even tighter under a governor.
        budgeted = _run(
            governor=PerformanceGovernor(),
            budget=EnergyBudget(energy_budget_joules=10.0),
        )
        assert budgeted.budget_rejections >= 1
        assert budgeted.total_energy < fixed.total_energy


def _run_engine(engine, budget=None, governor=None, trace=None):
    manager = RuntimeManager.from_components(
        motivational_platform(),
        motivational_tables(),
        MMKPMDFScheduler(),
        governor=governor,
        budget=budget,
        engine=engine,
    )
    return manager.run(trace if trace is not None else _trace())


def _log_key(log):
    return (
        repr(log.total_energy),
        log.budget_rejections,
        [(o.name, o.accepted, repr(o.completion_time)) for o in log.outcomes],
        [(repr(i.start), repr(i.end), i.job_configs, repr(i.energy))
         for i in log.timeline],
        sorted((k, repr(v)) for k, v in log.job_energy.items()),
    )


class TestEventEngineAdmission:
    """Governor + budget admission under the heap :class:`EventQueue` engine.

    The budget/governor combination was previously only pinned on the
    linear engine; these tests drive the same envelopes through the event
    engine — including a budget rejection that arrives *mid-interval*,
    while a committed segment is still executing — and assert the two
    engines stay bit-identical.
    """

    def _mid_interval_trace(self):
        # sigma1 commits [0, 5.3); the second request arrives at t=2.0,
        # strictly inside that executing segment.
        from repro.runtime.trace import RequestEvent, RequestTrace

        return RequestTrace(
            [
                RequestEvent(0.0, "lambda1", 9.0, "sigma1"),
                RequestEvent(2.0, "lambda2", 6.0, "sigma2"),
            ]
        )

    @pytest.mark.parametrize(
        "budget",
        [
            EnergyBudget(power_cap_watts=1.85),
            EnergyBudget(energy_budget_joules=10.0),
            EnergyBudget(power_cap_watts=1.85, energy_budget_joules=10.0),
        ],
    )
    def test_engines_agree_on_budget_rejections(self, budget):
        events = _run_engine("events", budget=budget)
        linear = _run_engine("linear", budget=budget)
        assert events.budget_rejections == linear.budget_rejections >= 1
        assert _log_key(events) == _log_key(linear)

    @pytest.mark.parametrize("governor_name", ["schedule-aware", "ondemand"])
    def test_engines_agree_under_governor_plus_budget(self, governor_name):
        from repro.api.registry import governors

        budget = EnergyBudget(power_cap_watts=6.0, energy_budget_joules=40.0)
        events = _run_engine(
            "events", budget=budget, governor=governors.build(governor_name)
        )
        linear = _run_engine(
            "linear", budget=budget, governor=governors.build(governor_name)
        )
        assert _log_key(events) == _log_key(linear)

    def test_mid_interval_budget_rejection_splits_the_interval(self):
        trace = self._mid_interval_trace()
        open_run = _run_engine("events", trace=trace)
        assert open_run.acceptance_rate == 1.0

        tight = EnergyBudget(energy_budget_joules=9.0)
        log = _run_engine("events", budget=tight, trace=trace)
        # The arrival at t=2.0 interrupts the executing segment, is checked
        # against the envelope (consumed + planned joules) and rejected; the
        # committed schedule stays in force and sigma1 still completes on
        # its original timeline.
        assert log.budget_rejections == 1
        assert [o.accepted for o in log.outcomes] == [True, False]
        boundaries = [(i.start, i.end) for i in log.timeline]
        assert any(end == 2.0 for _, end in boundaries)
        assert any(start == 2.0 for start, _ in boundaries)
        # With sigma2 rejected the committed plan is exactly the solo run.
        from repro.runtime.trace import RequestEvent, RequestTrace

        solo = _run_engine(
            "events",
            trace=RequestTrace([RequestEvent(0.0, "lambda1", 9.0, "sigma1")]),
        )
        assert log.completion_of("sigma1") == solo.completion_of("sigma1")
        # Exactly one job ever executed, so the mid-interval check charged
        # only the consumed prefix plus the committed remainder.
        assert log.total_energy < open_run.total_energy

    def test_mid_interval_rejection_agrees_across_engines_and_kernel(self):
        trace = self._mid_interval_trace()
        tight = EnergyBudget(energy_budget_joules=9.0)
        events = _run_engine("events", budget=tight, trace=trace)
        linear = _run_engine("linear", budget=tight, trace=trace)
        assert _log_key(events) == _log_key(linear)
        from tests.oracle import oracle_manager

        seed_events = oracle_manager(
            motivational_platform(), motivational_tables(), "mmkp-mdf", budget=tight
        ).run(trace)
        assert _log_key(events) == _log_key(seed_events)

    def test_governor_budget_rejection_mid_interval_on_event_engine(self):
        from repro.api.registry import governors

        trace = self._mid_interval_trace()
        # 15 J covers sigma1's analytical plan but not sigma2's admission at
        # t=2.0 (the governor-mode check integrates whole-platform power).
        budget = EnergyBudget(energy_budget_joules=15.0)
        log = _run_engine(
            "events", budget=budget, governor=governors.build("schedule-aware"), trace=trace
        )
        linear = _run_engine(
            "linear", budget=budget, governor=governors.build("schedule-aware"), trace=trace
        )
        assert _log_key(log) == _log_key(linear)
        assert log.budget_rejections == 1
        assert log.completion_of("sigma1") is not None
