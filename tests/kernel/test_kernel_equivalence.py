"""Bit-identity of the incremental kernel against full re-solves.

Acceptance contract of the ``repro.kernel`` engine: schedules, batch
fingerprints and energy totals must be *identical* — not merely close —
between the delta-based admission pipeline and the frozen full-re-solve
oracle (:mod:`tests.oracle`: reference manager plus list-based MMKP-MDF and
MMKP-LR), on the motivational workload and the (scaled) census, for all
four schedulers (MMKP-MDF, MMKP-LR, EX-MEM and the fixed mapper).
"""

import pytest

from repro.dse import paper_operating_points, reduced_tables
from repro.energy import EnergyBudget
from repro.platforms import odroid_xu4
from repro.runtime.manager import RuntimeManager
from repro.runtime.trace import poisson_trace
from repro.schedulers import (
    ExMemScheduler,
    FixedMinEnergyScheduler,
    MMKPLRScheduler,
    MMKPMDFScheduler,
)
from repro.workload.motivational import (
    motivational_platform,
    motivational_problem,
    motivational_tables,
    motivational_trace,
)
from tests.oracle import oracle_manager, oracle_scheduler, run_batch

#: name, production factory, is it census-tractable (EX-MEM is exponential).
SCHEDULERS = [
    ("mmkp-mdf", MMKPMDFScheduler, True),
    ("mmkp-lr", MMKPLRScheduler, True),
    ("ex-mem", lambda: ExMemScheduler(max_configs_per_job=3), False),
    ("fixed", FixedMinEnergyScheduler, False),
]


def reference_scheduler(name, factory):
    """The oracle twin of a scheduler (EX-MEM and fixed have a single body)."""
    if name in ("mmkp-mdf", "mmkp-lr"):
        return oracle_scheduler(name)
    return factory()


def log_key(log):
    """Every deterministic field of an execution log, floats kept exact."""
    return (
        log.fingerprint(),
        repr(log.total_energy),
        log.activations,
        log.budget_rejections,
        tuple(
            (o.name, o.accepted, repr(o.completion_time), repr(o.energy))
            for o in log.outcomes
        ),
        tuple(
            (repr(i.start), repr(i.end), repr(i.energy), i.job_configs)
            for i in log.timeline
        ),
        tuple(sorted((name, repr(value)) for name, value in log.job_energy.items())),
        tuple(
            (name, repr(entry["busy"]), repr(entry["idle"]))
            for name, entry in sorted(log.cluster_energy.items())
        ),
    )


@pytest.fixture(scope="module")
def census_setup():
    platform = odroid_xu4()
    tables = reduced_tables(paper_operating_points(platform), max_points=6)
    trace = poisson_trace(tables, arrival_rate=0.8, num_requests=30, seed=2020)
    return platform, tables, trace


class TestSchedulerActivationEquivalence:
    @pytest.mark.parametrize("name,factory,_", SCHEDULERS)
    @pytest.mark.parametrize("scenario", ["S1", "S2"])
    def test_motivational_activation(self, name, factory, _, scenario):
        fast = factory().schedule(motivational_problem(scenario))
        seed = reference_scheduler(name, factory).schedule(
            motivational_problem(scenario)
        )
        assert (fast.schedule is None) == (seed.schedule is None)
        if fast.schedule is not None:
            assert fast.schedule == seed.schedule
            for a, b in zip(fast.schedule, seed.schedule):
                assert a.start == b.start and a.end == b.end
            assert fast.energy == seed.energy
        assert fast.assignment == seed.assignment
        assert dict(fast.statistics) == dict(seed.statistics)


def _pair(name, factory, platform, tables, trace, **options):
    """``(production log, oracle log)`` of one trace."""
    fast = RuntimeManager.from_components(platform, tables, factory(), **options)
    seed = oracle_manager(
        platform, tables, reference_scheduler(name, factory), **options
    )
    return fast.run(trace), seed.run(trace)


class TestRuntimeManagerEquivalence:
    @pytest.mark.parametrize("name,factory,_", SCHEDULERS)
    @pytest.mark.parametrize("scenario", ["S1", "S2"])
    @pytest.mark.parametrize("engine", ["events", "linear"])
    def test_motivational_runs(self, name, factory, _, scenario, engine):
        fast, seed = _pair(
            name,
            factory,
            motivational_platform(),
            motivational_tables(),
            motivational_trace(scenario),
            engine=engine,
        )
        assert log_key(fast) == log_key(seed)

    @pytest.mark.parametrize(
        "name,factory",
        [(n, f) for n, f, tractable in SCHEDULERS if tractable],
    )
    def test_census_runs(self, name, factory, census_setup):
        fast, seed = _pair(name, factory, *census_setup)
        assert log_key(fast) == log_key(seed)

    def test_census_run_exmem_sample(self, census_setup):
        platform, tables, _ = census_setup
        trace = poisson_trace(tables, arrival_rate=0.25, num_requests=8, seed=11)
        fast, seed = _pair(
            "ex-mem",
            lambda: ExMemScheduler(max_configs_per_job=3),
            platform,
            tables,
            trace,
        )
        assert log_key(fast) == log_key(seed)

    @pytest.mark.parametrize("governor", ["schedule-aware", "ondemand", "powersave"])
    def test_governor_energy_totals(self, governor, census_setup):
        from repro.api.registry import governors

        fast, seed = _pair(
            "mmkp-mdf",
            MMKPMDFScheduler,
            *census_setup,
            governor=governors.build(governor),
        )
        assert log_key(fast) == log_key(seed)

    @pytest.mark.parametrize(
        "budget",
        [
            EnergyBudget(power_cap_watts=6.0),
            EnergyBudget(energy_budget_joules=150.0),
            EnergyBudget(power_cap_watts=7.5, energy_budget_joules=400.0),
        ],
    )
    def test_budget_admission_equivalence(self, budget, census_setup):
        fast, seed = _pair("mmkp-mdf", MMKPMDFScheduler, *census_setup, budget=budget)
        assert fast.budget_rejections == seed.budget_rejections
        assert log_key(fast) == log_key(seed)

    @pytest.mark.parametrize("name,factory,_", SCHEDULERS)
    def test_remap_on_finish_equivalence(self, name, factory, _):
        fast, seed = _pair(
            name,
            factory,
            motivational_platform(),
            motivational_tables(),
            motivational_trace("S2"),
            remap_on_finish=True,
        )
        assert log_key(fast) == log_key(seed)


class TestBatchFingerprintEquivalence:
    def test_service_batch_fingerprints_match(self):
        from repro.service import SimulationJob, SimulationService, TraceSpec

        jobs = [
            SimulationJob(
                f"job-{i}",
                scheduler=scheduler,
                trace_spec=TraceSpec(arrival_rate=0.3, num_requests=8, seed=50 + i),
                governor="schedule-aware" if i == 1 else None,
                power_cap_watts=8.0 if i == 2 else None,
            )
            for i, scheduler in enumerate(["mmkp-mdf", "mmkp-lr", "mmkp-mdf"])
        ]
        # A cache hit reuses a time-shifted schedule, which is not float-exact
        # against a fresh solve, so each mode is compared with its own twin.
        fast = SimulationService(use_cache=False).run_batch(jobs).fingerprint()
        assert fast == run_batch(jobs).fingerprint()
        cached = SimulationService().run_batch(jobs).fingerprint()
        assert cached == run_batch(jobs, use_cache=True).fingerprint()

    def test_worker_count_is_immaterial_under_the_kernel(self):
        from repro.service import BatchSpec, SimulationService

        spec = BatchSpec.sweep(
            arrival_rates=[0.2, 0.4], traces_per_point=2, num_requests=6
        )
        serial = SimulationService(workers=1).run_batch(spec).fingerprint()
        threaded = (
            SimulationService(workers=4, executor="thread")
            .run_batch(spec)
            .fingerprint()
        )
        assert serial == threaded
