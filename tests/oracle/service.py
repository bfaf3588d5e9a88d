"""Reference batch runner: every job on the reference manager, serially."""

from __future__ import annotations

import time
from typing import Iterable

from repro.api.registry import governors
from repro.energy import EnergyBudget
from repro.service import (
    ActivationCache,
    BatchResults,
    CachingScheduler,
    SimulationJob,
    SimulationResult,
)
from tests.oracle.manager import oracle_manager
from tests.oracle.schedulers import oracle_scheduler


def run_batch(
    jobs: Iterable[SimulationJob], *, use_cache: bool = False
) -> BatchResults:
    """Simulate ``jobs`` (a list or a ``BatchSpec``) in order.

    Mirrors :meth:`repro.service.SimulationService.run_batch` job for job,
    so the two :meth:`~repro.service.BatchResults.fingerprint` values are
    directly comparable.  ``use_cache=True`` mirrors the service's default
    cached mode: each job's reference scheduler is wrapped in a
    :class:`~repro.service.CachingScheduler` over one
    :class:`~repro.service.ActivationCache` shared by the whole batch.
    """
    cache = ActivationCache() if use_cache else None
    results = []
    for job in jobs:
        started = time.perf_counter()
        tables = job.resolve_tables()
        budget = None
        if job.power_cap_watts is not None or job.energy_budget_joules is not None:
            budget = EnergyBudget(
                power_cap_watts=job.power_cap_watts,
                energy_budget_joules=job.energy_budget_joules,
            )
        scheduler = oracle_scheduler(job.scheduler)
        if cache is not None:
            scheduler = CachingScheduler(scheduler, cache)
        manager = oracle_manager(
            job.resolve_platform(),
            tables,
            scheduler,
            remap_on_finish=job.remap_on_finish,
            engine=job.engine,
            governor=governors.build(job.governor) if job.governor else None,
            budget=budget,
        )
        log = manager.run(job.resolve_trace(tables))
        results.append(
            SimulationResult.from_log(job, log, time.perf_counter() - started)
        )
    return BatchResults(results)
