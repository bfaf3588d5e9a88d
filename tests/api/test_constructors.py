"""How a :class:`RuntimeManager` is built: the two classmethod constructors.

``RuntimeManager.from_components`` and ``RuntimeManager.from_spec`` are the
only constructors (``repro.api.Session`` builds on the latter).  The library's
own code paths — spec resolution, registries, the admission pipeline, the
batch service — must run without emitting a single
:class:`DeprecationWarning`.
"""

import warnings

import pytest

import repro.service.jobs
from repro.api import EnergySpec, ExperimentSpec, SchedulerSpec, Session, WorkloadSpec
from repro.runtime.manager import RuntimeManager
from repro.schedulers import MMKPMDFScheduler
from repro.workload.motivational import (
    motivational_platform,
    motivational_tables,
    motivational_trace,
)


class TestConstructors:
    def test_positional_construction_is_rejected(self):
        with pytest.raises(TypeError):
            RuntimeManager(
                motivational_platform(), motivational_tables(), MMKPMDFScheduler()
            )

    def test_from_components_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            RuntimeManager.from_components(
                motivational_platform(), motivational_tables(), MMKPMDFScheduler()
            )

    @pytest.mark.parametrize(
        ("scenario", "remap_on_finish", "engine"),
        [("S1", False, "events"), ("S2", True, "linear")],
    )
    def test_from_spec_matches_from_components(
        self, scenario, remap_on_finish, engine
    ):
        spec = ExperimentSpec(
            name="constructors",
            workload=WorkloadSpec.scenario(scenario),
            scheduler=SchedulerSpec(name="mmkp-mdf", remap_on_finish=remap_on_finish),
            energy=EnergySpec(governor="performance"),
            engine=engine,
        )
        from_spec = RuntimeManager.from_spec(spec)
        from_components = RuntimeManager.from_components(
            motivational_platform(),
            motivational_tables(),
            MMKPMDFScheduler(),
            remap_on_finish=remap_on_finish,
            engine=engine,
            governor=spec.energy.build_governor(),
        )
        trace = motivational_trace(scenario)
        assert (
            from_spec.run(trace).fingerprint()
            == from_components.run(trace).fingerprint()
        )


class TestNoDeprecatedPaths:
    def test_service_jobs_builds_through_the_registries_only(self):
        assert not hasattr(repro.service.jobs, "build_scheduler")
        assert not hasattr(repro.service.jobs, "build_platform")

    def test_batch_service_path_does_not_warn(self):
        from repro.service import BatchSpec, SimulationService

        spec = BatchSpec.sweep(
            arrival_rates=[0.2], traces_per_point=2, num_requests=3
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            results = SimulationService(workers=1).run_batch(spec)
        assert results.failures == []

    def test_session_and_kernel_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            spec = ExperimentSpec(
                name="clean", workload=WorkloadSpec.scenario("S1")
            )
            log = Session.from_spec(spec).run()
        assert log.acceptance_rate == 1.0
