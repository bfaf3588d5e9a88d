"""Bit-identity of the columnar schedulers against the list-based oracle.

Acceptance contract of the ``repro.optable`` kernel: schedules, batch
fingerprints and energy accounting must be *identical* — not merely close —
between the columnar schedulers and the frozen ``list[OperatingPoint]``
reference implementations in :mod:`tests.oracle`, on both the motivational
workload and the (scaled) Table III census.
"""

import pytest

from repro.dse import paper_operating_points, reduced_tables
from repro.platforms import odroid_xu4
from repro.runtime.manager import RuntimeManager
from repro.schedulers import ExMemScheduler, MMKPLRScheduler, MMKPMDFScheduler
from repro.workload import EvaluationSuite
from repro.workload.motivational import (
    motivational_platform,
    motivational_problem,
    motivational_tables,
    motivational_trace,
)
from repro.workload.suite import scaled_census
from tests.oracle import (
    MMKPLROracle,
    MMKPMDFOracle,
    oracle_manager,
    run_batch,
    schedule_energy,
)

#: Production scheduler → its list-based reference twin.  EX-MEM has a single
#: body (it never had a list twin); running it twice still pins determinism
#: and its objective against the list-based schedule energy.
SCHEDULERS = [
    pytest.param(MMKPMDFScheduler, MMKPMDFOracle, id="MMKPMDFScheduler"),
    pytest.param(MMKPLRScheduler, MMKPLROracle, id="MMKPLRScheduler"),
    pytest.param(ExMemScheduler, ExMemScheduler, id="ExMemScheduler"),
]


@pytest.fixture(scope="module")
def census_problems():
    platform = odroid_xu4()
    tables = reduced_tables(paper_operating_points(platform), max_points=6)
    suite = EvaluationSuite.generate(tables, scaled_census(0.03), seed=2020)
    return [case.problem(platform, tables) for case in suite.cases]


def assert_results_identical(columnar, seed, tables):
    assert (columnar.schedule is None) == (seed.schedule is None)
    if columnar.schedule is not None:
        assert columnar.schedule == seed.schedule
        segments = list(zip(columnar.schedule, seed.schedule))
        for fast_segment, seed_segment in segments:
            # Schedule equality is tolerance-based; the refactor promises the
            # exact same floats, so compare boundaries bit-for-bit too.
            assert fast_segment.start == seed_segment.start
            assert fast_segment.end == seed_segment.end
        assert columnar.energy == seed.energy
        assert columnar.energy == schedule_energy(columnar.schedule, tables)
    assert columnar.assignment == seed.assignment
    assert dict(columnar.statistics) == dict(seed.statistics)


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("scheduler_cls,oracle_cls", SCHEDULERS)
    @pytest.mark.parametrize("scenario", ["S1", "S2"])
    def test_motivational_scenarios(self, scheduler_cls, oracle_cls, scenario):
        problem = motivational_problem(scenario)
        columnar = scheduler_cls().schedule(problem)
        seed = oracle_cls().schedule(motivational_problem(scenario))
        assert_results_identical(columnar, seed, problem.tables)

    @pytest.mark.parametrize("scheduler_cls,oracle_cls", SCHEDULERS[:2])
    def test_census_workload(self, scheduler_cls, oracle_cls, census_problems):
        scheduler = scheduler_cls()
        oracle = oracle_cls()
        for problem in census_problems:
            assert_results_identical(
                scheduler.schedule(problem), oracle.schedule(problem), problem.tables
            )

    def test_census_workload_exmem_sample(self, census_problems):
        # EX-MEM is exponential; a sample keeps the equivalence suite fast.
        scheduler = ExMemScheduler(max_configs_per_job=4)
        for problem in census_problems[:10]:
            assert_results_identical(
                scheduler.schedule(problem), scheduler.schedule(problem), problem.tables
            )

    def test_lr_batched_admission_matches_oracle(self, census_problems):
        batched = MMKPLRScheduler().schedule_many(census_problems)
        oracle = MMKPLROracle()
        for fast, problem in zip(batched, census_problems):
            assert_results_identical(fast, oracle.schedule(problem), problem.tables)


class TestRuntimeManagerEquivalence:
    @pytest.mark.parametrize("scenario", ["S1", "S2"])
    @pytest.mark.parametrize("engine", ["events", "linear"])
    def test_motivational_runs(self, scenario, engine):
        columnar = RuntimeManager.from_components(
            motivational_platform(),
            motivational_tables(),
            MMKPMDFScheduler(),
            engine=engine,
        ).run(motivational_trace(scenario))
        seed = oracle_manager(
            motivational_platform(), motivational_tables(), "mmkp-mdf", engine=engine
        ).run(motivational_trace(scenario))
        assert columnar.total_energy == seed.total_energy
        assert len(columnar.timeline) == len(seed.timeline)
        for fast, slow in zip(columnar.timeline, seed.timeline):
            assert fast.start == slow.start
            assert fast.end == slow.end
            assert fast.energy == slow.energy
            assert fast.job_configs == slow.job_configs
        assert columnar.job_energy == seed.job_energy
        assert columnar.cluster_energy == seed.cluster_energy
        assert [o.accepted for o in columnar.outcomes] == [
            o.accepted for o in seed.outcomes
        ]
        assert [o.completion_time for o in columnar.outcomes] == [
            o.completion_time for o in seed.outcomes
        ]


class TestBatchFingerprintEquivalence:
    def test_service_batch_fingerprints_match(self):
        from repro.service import SimulationJob, SimulationService, TraceSpec

        jobs = [
            SimulationJob(
                f"job-{i}",
                scheduler=scheduler,
                trace_spec=TraceSpec(arrival_rate=0.25, num_requests=6, seed=40 + i),
            )
            for i, scheduler in enumerate(["mmkp-mdf", "mmkp-lr", "mmkp-mdf"])
        ]

        columnar = SimulationService(use_cache=False).run_batch(jobs).fingerprint()
        assert columnar == run_batch(jobs).fingerprint()
        # The default (activation-cached) service against the cached oracle.
        cached = SimulationService().run_batch(jobs).fingerprint()
        assert cached == run_batch(jobs, use_cache=True).fingerprint()
