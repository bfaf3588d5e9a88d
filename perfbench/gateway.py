"""The gateway workload: two tenants in a closed loop against the daemon.

The daemon (``python -m repro.cli serve``) runs in its own process.  Each
tenant drives one keep-alive connection: ``POST /runs``, then the
``/wait`` long-poll, then the next submission.  A submission is a small
odroid MMKP-MDF run whose trace comes from a pool of specs; the seed makes
the pool's traces.

A round is a fixed, shuffled sequence of submissions per tenant: draws
with Zipf weights (entry k with weight 1/(k+1)) over the hot entries, each
in a named session of its own that stays in the daemon's per-tenant LRU,
as popular sessions are reused more often; and two submissions of one
more entry, each in a session named for that round.  The daemon evicts
older rounds' cold sessions and builds the new ones from scratch: the
tail of the latency distribution.  The sequences are fixed, so every seed sees the
same pattern of warm and cold sessions.

A warm-up round opens the hot sessions; then rounds repeat until the
window is over, with probe loops on every CPU between them
(:func:`perfbench.common.probe_seconds`).  Every submission keeps its
best round trip over the rounds: the rounds are identical, and waits for
a CPU the host gives to other load (which the probes do not see) only
ever add to a round trip.  The bests are divided by how much slower than
the reference host the host ran in the median round.  Each tenant's
throughput is its submissions over the sum of its bests, and
``ops_per_s`` adds the two; the latencies are percentiles of the bests.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import re
import subprocess
import sys
import threading
import time

from perfbench.common import (
    OUT_DIR,
    ROOT,
    Tally,
    deadline_violations,
    median,
    percentile,
    probe_each_cpu,
    slowdown_between,
    stratified_poisson_trace,
)

from repro import obs
from repro.api import ExperimentSpec, PlatformSpec, SchedulerSpec, Session
from repro.api import WorkloadSpec
from repro.dse import paper_operating_points, reduced_tables
from repro.gateway.client import GatewayClient
from repro.gateway.store import SessionStore
from repro.platforms import odroid_xu4
from repro.runtime.manager import RuntimeManager
from repro.schedulers import MMKPMDFScheduler

TENANTS = ("tenant-a", "tenant-b")
#: Pool entries drawn into long-lived named sessions.
HOT_ENTRIES = 24
#: Hot submissions per tenant and round.
HOT_PER_ROUND = 38
#: Submissions per tenant and round of the one cold pool entry, each in a
#: new named session.
COLD_PER_ROUND = 2
# The hot sessions outlive two rounds' cold ones in the daemon's LRU.
assert HOT_ENTRIES + 2 * COLD_PER_ROUND <= SessionStore.MAX_NAMED_SESSIONS
RATE = 2.0
REQUESTS = 12
#: The daemon prints this once it listens.
BANNER = re.compile(r"listening on (http://\S+)")
STARTUP_TIMEOUT_S = 60.0
#: Measured rounds a run makes at least, however long they take.
MIN_ROUNDS = 3


class GatewayWorkload:
    name = "gateway-closed-loop"

    def setup(self, seed: int) -> dict[str, float]:
        started = time.perf_counter()
        platform = odroid_xu4()
        # The "paper-reduced" set that the submissions name.
        tables = reduced_tables(paper_operating_points(), max_points=8)
        dse_s = time.perf_counter() - started
        rng = random.Random(seed)
        pool = HOT_ENTRIES + 1
        self.specs, self.expected = [], []
        for index in range(pool):
            trace = stratified_poisson_trace(
                tables, arrival_rate=RATE, num_requests=REQUESTS,
                seed=rng.randrange(2**31),
            )
            self.specs.append(
                ExperimentSpec(
                    name=f"gw-{index}",
                    platform=PlatformSpec(name="odroid-xu4"),
                    workload=WorkloadSpec.from_trace(trace),
                    scheduler=SchedulerSpec(name="mmkp-mdf"),
                    tables="paper-reduced",
                )
            )
            log = RuntimeManager.from_components(
                platform, tables, MMKPMDFScheduler()
            ).run(trace)
            if deadline_violations(log.outcomes):
                raise RuntimeError(f"reference run gw-{index} breaks a deadline")
            self.expected.append(log)
        self.fingerprints = [log.fingerprint() for log in self.expected]
        self.fingerprint = hashlib.sha256("".join(self.fingerprints).encode()).hexdigest()
        started = time.perf_counter()
        session = Session.from_spec(self.specs[0])
        session.tables
        session.trace()
        api_s = time.perf_counter() - started
        self._start_daemon()
        weights = [1 / (index + 1) for index in range(HOT_ENTRIES)]
        self.sequences = {}
        for tenant in TENANTS:
            draws = random.Random(tenant)
            sequence = [
                (index, f"s{index}")
                for index in draws.choices(range(HOT_ENTRIES), weights, k=HOT_PER_ROUND)
            ]
            sequence += [(HOT_ENTRIES, f"c{slot}") for slot in range(COLD_PER_ROUND)]
            draws.shuffle(sequence)
            self.sequences[tenant] = sequence
        self.rounds = 0
        # Warm-up: the daemon's imports, one submission per tenant.
        for tenant in TENANTS:
            client = GatewayClient(self.base_url, tenant=tenant)
            try:
                client.run(self.specs[0], session="s0")
            finally:
                client.close()
        return {"dse.tables_s": dse_s, "api.session_build_s": api_s}

    def _start_daemon(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.log_path = OUT_DIR / f"daemon-{os.getpid()}.log"
        self.log_file = open(self.log_path, "w+", encoding="utf-8")
        self.daemon = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
             "--max-concurrent", "8", "--max-per-tenant", "2"],
            cwd=ROOT,
            stdout=self.log_file,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            match = BANNER.search(self.log_path.read_text(encoding="utf-8"))
            if match:
                self.base_url = match.group(1)
                return
            if self.daemon.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(
            "gateway daemon did not start:\n"
            + self.log_path.read_text(encoding="utf-8")[-2000:]
        )

    def teardown(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is not None:
            if daemon.poll() is None:
                daemon.terminate()
                try:
                    daemon.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    daemon.kill()
                    daemon.wait()
            self.log_file.close()
            self.log_path.unlink(missing_ok=True)
            self.daemon = None

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #
    def _round(self, tally: Tally, tracers: list | None = None):
        """Both tenants submit their sequences back to back, once.

        Returns each tenant's round trips in sequence order (``inf`` for a
        failed submission) and the round's wall time.
        """
        latencies = {tenant: [] for tenant in TENANTS}
        lock = threading.Lock()
        self.rounds += 1
        suffix = f"-{self.rounds}"

        def session(name: str) -> str:
            return name + suffix if name.startswith("c") else name

        def tenant_loop(tenant: str) -> None:
            client = GatewayClient(self.base_url, tenant=tenant)
            tracer = obs.Tracer(name=f"bench.{tenant}") if tracers is not None else None
            mine = latencies[tenant]
            try:
                if tracer is not None:
                    tracer.__enter__()
                for index, name in self.sequences[tenant]:
                    began = time.perf_counter()
                    try:
                        with obs.span("bench.gateway.run", category="gateway"):
                            status = client.run(self.specs[index], session=session(name))
                    except Exception as error:  # noqa: BLE001 — counted as failed
                        mine.append(math.inf)
                        with lock:
                            tally.fail(1, f"{type(error).__name__}: {error}")
                        continue
                    mine.append(time.perf_counter() - began)
                    result = status.get("result") or {}
                    if result.get("fingerprint") != self.fingerprints[index]:
                        with lock:
                            tally.fail(1, f"gw-{index}: differs from the in-process run")
                    elif result.get("deadline_misses") != 0:
                        with lock:
                            tally.fail(1, f"gw-{index}: deadline misses")
            finally:
                if tracer is not None:
                    tracer.__exit__(None, None, None)
                client.close()
                with lock:
                    tally.attempted += len(mine)
                    if tracer is not None:
                        tracers.append(tracer)

        started = time.perf_counter()
        threads = [
            threading.Thread(target=tenant_loop, args=(tenant,), daemon=True)
            for tenant in TENANTS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return latencies, time.perf_counter() - started

    def _window(self, seconds: float, tally: Tally, tracers: list | None = None):
        """Rounds until ``seconds`` pass: pooled round trips and wall time."""
        pooled, elapsed = [], 0.0
        deadline = time.perf_counter() + seconds
        while True:
            latencies, took = self._round(tally, tracers)
            pooled.extend(x for tenant in TENANTS for x in latencies[tenant])
            elapsed += took
            if time.perf_counter() >= deadline:
                return pooled, elapsed

    def measure(self, seconds: float, tally: Tally):
        # Warm-up: opens every tenant's hot sessions.
        self._round(tally)
        rounds = []
        probes = probe_each_cpu()
        deadline = time.perf_counter() + seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            latencies, _ = self._round(tally)
            before, probes = probes, probe_each_cpu()
            rounds.append((latencies, slowdown_between(before, probes)))
            if len(rounds) == 1:
                # After one measured round, so every run reads it after
                # the same work.
                self.rss_mb = self._daemon_rss_mb()
        self.units = len(rounds)
        self.samples = sum(map(len, rounds[0][0].values()))
        requests = sum(len(log.outcomes) for log in self.expected)
        accepted = sum(len(log.accepted) for log in self.expected)
        energy = sum(log.total_energy for log in self.expected)
        quality = {
            "acceptance_rate": (accepted / requests, "ratio"),
            "energy_per_admitted_j": (energy / accepted, "J"),
        }
        # The best of each submission over the rounds, divided by the run's
        # median slowdown: dividing each round by its own would make the
        # best the round whose probes read slowest.
        best = {
            tenant: [min(op) for op in zip(*(latencies[tenant] for latencies, _ in rounds))]
            for tenant in TENANTS
        }
        slowdown = median([slowdown for _, slowdown in rounds])
        timings = []
        for divisor in (slowdown, 1.0):
            divided = {tenant: [x / divisor for x in best[tenant]] for tenant in TENANTS}
            pooled = sorted(x for tenant in TENANTS for x in divided[tenant])
            timings.append({
                "ops_per_s": (sum(len(d) / sum(d) for d in divided.values()), "1/s"),
                "op_p50_ms": (percentile(pooled, 0.50) * 1e3, "ms"),
                "op_p99_ms": (percentile(pooled, 0.99) * 1e3, "ms"),
                **quality,
            })
        return tuple(timings)

    def peak_rss_mb(self) -> float:
        """The daemon's peak RSS after the first measured round."""
        return self.rss_mb

    def _daemon_rss_mb(self) -> float:
        """Peak RSS of the daemon process so far (Linux ``VmHWM``)."""
        with open(f"/proc/{self.daemon.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM line for the daemon")

    def _scrape(self) -> dict[str, float]:
        client = GatewayClient(self.base_url)
        try:
            text = client.metrics_text()
        finally:
            client.close()
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values

    def measure_layers(self, seconds: float, tally: Tally) -> dict[str, float]:
        self._round(tally)
        untraced, untraced_s = self._window(seconds / 2, tally)
        before = self._scrape()
        tracers = []
        latencies, elapsed = self._window(seconds / 2, tally, tracers)
        after = self._scrape()
        obs.write_chrome_trace(OUT_DIR / f"{self.name}.trace.json", tracers[0])

        def window_mean(metric: str) -> float:
            count = after[f"{metric}_count"] - before[f"{metric}_count"]
            total = after[f"{metric}_sum"] - before[f"{metric}_sum"]
            return total / count if count else 0.0

        prefix = "repro_gateway_"
        values = {}
        for metric in ("queue_wait", "run_wall"):
            for label, quantile in (("p50", "0.5"), ("p99", "0.99")):
                values[f"gateway.{metric}_ms_{label}"] = 1e3 * after.get(
                    f'{prefix}{metric}_s{{quantile="{quantile}"}}', 0.0
                )
        round_trip = sum(latencies) / len(latencies)
        values["gateway.http_ms"] = 1e3 * (
            round_trip
            - window_mean(f"{prefix}queue_wait_s")
            - window_mean(f"{prefix}run_wall_s")
        )
        values["gateway.runs_failed"] = after[f"{prefix}runs_failed"]
        values["obs.traced_wall_s"] = elapsed
        values["obs.tracing_overhead"] = (
            (len(untraced) / untraced_s) / (len(latencies) / elapsed) - 1.0
        )
        return values
