"""The batch workload: a factorial batch through the cluster executor and a store.

Per-job compute is small (about 20 requests per trace), so job dispatch,
pickling, the per-process store reopen and the store's reads (hits, for the
half of the jobs pre-computed in set-up) and writes (misses, for the other
half) dominate.  Every batch starts from a fresh copy of the pre-filled
store, so each one sees the same hit/miss mix.

The run repeats the identical batch until the measuring window is over,
with probe loops on every CPU before and after each batch
(:func:`perfbench.common.probe_seconds`).  Each batch's jobs per second
and each job's worker-side wall time are divided by how much slower than
the reference host the host ran in that batch; ``ops_per_s`` is the
median over the batches, and the latencies are percentiles of each job's
median wall time.  (Pooled over the batches instead, the first job of
each fresh worker process would sit right at the p99.)
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sqlite3
import tempfile
import time
from collections import defaultdict
from contextlib import closing
from pathlib import Path

from perfbench.common import (
    OUT_DIR,
    Tally,
    deadline_violations,
    median,
    peak_rss_mb,
    percentile,
    probe_each_cpu,
    slowdown_between,
)

from repro import obs
from repro.dse import paper_operating_points, reduced_tables
from repro.platforms import odroid_xu4
from repro.runtime.trace import poisson_trace
from repro.service import SimulationService
from repro.service.jobs import SimulationJob

#: Arrival rates (requests per simulated second) of the factorial batch.
RATES = (0.5, 1.0, 1.5, 2.0, 2.5)
#: Traces per rate; RATES x TRACES_PER_RATE jobs per batch.
TRACES_PER_RATE = 40
#: Requests per trace.
REQUESTS_PER_TRACE = 20
#: Worker processes of the cluster executor (the host has two CPUs).
WORKERS = 2
#: Environment variable naming the directory traced workers report into.
STATS_ENV = "PERFBENCH_WORKER_STATS"


class BatchWorkload:
    name = "batch-cluster"

    def setup(self, seed: int) -> dict[str, float]:
        started = time.perf_counter()
        tables = reduced_tables(paper_operating_points(odroid_xu4()), max_points=8)
        dse_s = time.perf_counter() - started
        rng = random.Random(seed)
        self.jobs = [
            SimulationJob(
                name=f"rate{rate:g}-t{index:03d}",
                scheduler="mmkp-mdf",
                platform="odroid-xu4",
                tables=tables,
                trace=poisson_trace(
                    tables,
                    arrival_rate=rate,
                    num_requests=REQUESTS_PER_TRACE,
                    seed=rng.randrange(2**31),
                ),
            )
            for rate in RATES
            for index in range(TRACES_PER_RATE)
        ]
        OUT_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="batch-", dir=OUT_DIR))
        self.template = self.workdir / "template.sqlite"
        prefill = SimulationService(workers=1, executor="serial", store=str(self.template))
        try:
            # Every other job: the measured batches hit the store for these
            # and miss (compute and write) for the rest.
            self.prefilled = {
                result.job_name: result.fingerprint_key()
                for result in prefill.run_batch(self.jobs[::2])
            }
        finally:
            prefill.store.close()
        self.copies = 0
        return {"dse.tables_s": dse_s, "api.session_build_s": 0.0}

    def teardown(self) -> None:
        workdir = getattr(self, "workdir", None)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    def _fresh_store(self) -> str:
        self.copies += 1
        path = self.workdir / f"store-{self.copies}.sqlite"
        with closing(sqlite3.connect(self.template)) as source:
            with closing(sqlite3.connect(path)) as target:
                source.backup(target)
        return str(path)

    def _batches(self, seconds: float, tally: Tally, probe: bool = False):
        """Run the batch on fresh store copies until ``seconds`` pass.

        Yields each batch's results, wall time and cluster counters, and,
        with ``probe``, how much slower than the reference host it ran.
        """
        deadline = time.perf_counter() + seconds
        probes = probe_each_cpu() if probe else None
        while True:
            path = self._fresh_store()
            started = time.perf_counter()
            service = SimulationService(workers=WORKERS, executor="cluster", store=path)
            try:
                results = service.run_batch(self.jobs)
            finally:
                service.store.close()
            elapsed = time.perf_counter() - started
            slowdown = None
            if probe:
                before, probes = probes, probe_each_cpu()
                slowdown = slowdown_between(before, probes)
            for suffix in ("", "-wal", "-shm"):
                Path(path + suffix).unlink(missing_ok=True)
            self._check(results, tally)
            yield results, elapsed, service.cluster_stats, slowdown
            if time.perf_counter() >= deadline:
                return

    def _check(self, results, tally: Tally) -> None:
        tally.attempted += len(self.jobs)
        failures = results.failures
        if failures:
            tally.fail(len(failures), f"job failed: {failures[0].error}")
        fingerprint = results.fingerprint()
        if getattr(self, "fingerprint", None) is None:
            self.fingerprint = fingerprint
            self.reference = results
            for result in results:
                violations = deadline_violations(result.outcomes)
                if violations:
                    tally.fail(1, f"{result.job_name}: {violations} deadline violations")
                expected = self.prefilled.get(result.job_name)
                if expected is not None and expected != result.fingerprint_key():
                    tally.fail(1, f"{result.job_name}: differs from the serial run")
        elif fingerprint != self.fingerprint:
            tally.fail(len(self.jobs), "batch results differ from the first batch")

    def measure(self, seconds: float, tally: Tally):
        batches = list(self._batches(seconds, tally, probe=True))
        self.units, self.samples = len(batches), len(self.jobs)
        reference = self.reference.results
        requests = sum(result.requests for result in reference)
        accepted = sum(result.accepted for result in reference)
        quality = {
            "acceptance_rate": (accepted / requests, "ratio"),
            "energy_per_admitted_j": (
                sum(result.total_energy for result in reference) / accepted, "J"
            ),
        }
        timings = []
        for scaled in (True, False):
            rates, walls = [], []
            for results, elapsed, _, slowdown in batches:
                slowdown = slowdown if scaled else 1.0
                rates.append(len(self.jobs) / elapsed * slowdown)
                walls.append([result.wall_time / slowdown for result in results])
            latencies = sorted(median(job) for job in zip(*walls))
            timings.append({
                "ops_per_s": (median(rates), "1/s"),
                "op_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
                "op_p99_ms": (percentile(latencies, 0.99) * 1e3, "ms"),
                **quality,
            })
        return tuple(timings)

    def peak_rss_mb(self) -> float:
        # The pool workers have been joined, so they count as children.
        return peak_rss_mb(include_children=True)

    def measure_layers(self, seconds: float, tally: Tally) -> dict[str, float]:
        untraced = [
            len(self.jobs) / elapsed
            for _, elapsed, _, _ in self._batches(seconds / 2, tally)
        ]
        from repro.cluster import coordinator

        stats_dir = self.workdir / "worker-stats"
        stats_dir.mkdir()
        os.environ[STATS_ENV] = str(stats_dir)
        original = coordinator._process_run_unit
        coordinator._process_run_unit = traced_run_unit
        values: dict[str, float] = defaultdict(float)
        traced = []
        tracer = obs.Tracer(name="bench.batches")
        try:
            with tracer:
                batches = self._batches(seconds / 2, tally)
                while True:
                    with obs.span("bench.batch", category="service"):
                        step = next(batches, None)
                    if step is None:
                        break
                    results, elapsed, cluster, _ = step
                    traced.append(len(self.jobs) / elapsed)
                    busy = sum(result.wall_time for result in results)
                    values["service.job_busy_s"] += busy
                    values["search_s"] += sum(r.search_time_total for r in results)
                    values["worker_s"] += WORKERS * elapsed
                    for key in ("units", "steals", "retries", "failed_units"):
                        values[f"cluster.{key}"] += getattr(cluster, key)
                    for report in stats_dir.iterdir():
                        for key, amount in json.loads(report.read_text()).items():
                            values[key] += amount
                        report.unlink()
        finally:
            coordinator._process_run_unit = original
            del os.environ[STATS_ENV]
        obs.write_chrome_trace(OUT_DIR / f"{self.name}.trace.json", tracer)
        busy = values["service.job_busy_s"]
        lookups = values["hits"] + values["misses"]
        return {
            **values,
            "service.search_share": values["search_s"] / busy if busy else 0.0,
            "cluster.overhead_s": values["worker_s"] - busy,
            "cluster.core_efficiency": busy / values["worker_s"],
            "store.hit_ratio": values["hits"] / lookups if lookups else 0.0,
            "obs.traced_wall_s": sum(len(self.jobs) / rate for rate in traced),
            "obs.tracing_overhead": median(untraced) / median(traced) - 1.0,
        }


# ---------------------------------------------------------------------- #
# Worker side of the traced batches
# ---------------------------------------------------------------------- #
_STORE_SECONDS = {"store.get_s": 0.0, "store.put_s": 0.0}


def _timed(method, key: str):
    def wrapper(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            return method(self, *args, **kwargs)
        finally:
            _STORE_SECONDS[key] += time.perf_counter() - started

    wrapper.__wrapped__ = method
    return wrapper


def traced_run_unit(job_datas, cache_size, store_token=None):
    """The cluster's worker entry, timing the store from inside the worker.

    Runs :func:`repro.service.pool._process_run_unit` unchanged, then writes
    this process's cumulative store counters and get/put seconds to
    ``$PERFBENCH_WORKER_STATS/<pid>.json`` (each batch has fresh workers).
    """
    from repro.service import pool
    from repro.store.content import ContentStore

    if not hasattr(ContentStore.get, "__wrapped__"):
        ContentStore.get = _timed(ContentStore.get, "store.get_s")
        ContentStore.put = _timed(ContentStore.put, "store.put_s")
    results = pool._process_run_unit(job_datas, cache_size, store_token)
    fields = {
        "hits": "hits",
        "misses": "misses",
        "puts": "store.entries_written",
        "bytes_written": "store.bytes_written",
    }
    report = dict(_STORE_SECONDS, **dict.fromkeys(fields.values(), 0))
    store = pool._PROCESS_STORE
    for kind in store.counters().values() if store is not None else ():
        for counter, key in fields.items():
            report[key] += kind.get(counter, 0)
    target = Path(os.environ[STATS_ENV]) / f"{os.getpid()}.json"
    partial = target.with_suffix(".tmp")
    partial.write_text(json.dumps(report))
    partial.replace(target)
    return results
