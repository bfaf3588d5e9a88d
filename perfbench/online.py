"""The two online workloads: long Poisson traces through the runtime manager.

Both replay each trace as a closed loop in host time: the runtime manager
handles the next arrival as soon as the previous decision commits.  One
replayer process per CPU, each pinned to its CPU, replays the
:data:`TRACES` traces of the seed in turn, each through a fresh manager,
until the measuring window is over.  A replayer's first log of a trace
must keep the firm-deadline invariant, its later replays of the trace
must reproduce that log's fingerprint, and the replayers' fingerprints
must agree.  The traced run (``--trace 1``) replays the first trace only.

Each arrival is an operation with two timings per replay: its decision
latency (ARRIVAL to ADMIT/REJECT) and its cycle (ARRIVAL to the next
ARRIVAL, which adds the time advance and execution in between).  A probe
loop (:func:`perfbench.common.probe_seconds`) runs before each replay and
after every few decisions, outside the timed cycles, and each timing is
divided by how much slower than the reference host the probes on either
side of it ran.  Other load slows each CPU by itself for seconds at a
time, and the probes follow it.  The run keeps, per operation, the median
of its divided timings over the replays of both replayers.
``ops_per_s`` divides the arrivals by the sum of the median cycles;
``op_p50_ms`` and ``op_p99_ms`` are percentiles of the median latencies.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import time

from perfbench.common import (
    OUT_DIR,
    REFERENCE_PROBE_S,
    Tally,
    deadline_violations,
    median,
    peak_rss_mb,
    percentile,
    probe_seconds,
    stratified_poisson_trace,
)
from perfbench.layers import BoundarySpans, LayerTotals, SpannedBudget

from repro import obs
from repro.api import DSESpec, EnergySpec, ExperimentSpec, PlatformSpec, SchedulerSpec
from repro.api import Session, WorkloadSpec
from repro.api.events import RunEventKind
from repro.dse import paper_operating_points, reduced_tables
from repro.energy.budget import EnergyBudget
from repro.energy.governor import build_governor
from repro.platforms import odroid_xu4
from repro.runtime.manager import RuntimeManager
from repro.schedulers import MMKPLRScheduler, MMKPMDFScheduler

#: The paper's runtime manager at high load: about half the requests are
#: admitted, MMKP-MDF and its EDF packer do almost all the work, and the
#: knapsack solver, the store and the gateway stay idle.
ONLINE_MDF = {
    "points": 16,
    "rate": 2.5,
    "requests": 4000,
    "scheduler": MMKPMDFScheduler,
    "scheduler_name": "mmkp-mdf",
    "governor": None,
    "power_cap_watts": None,
}
#: The MMKP-LR baseline with DVFS: the Lagrangian solver dominates, the
#: schedule-aware governor stretches schedules, and a 6 W power cap rejects
#: a visible share of deadline-feasible requests; the EDF packer is idle.
ONLINE_LR_DVFS = {
    "points": 8,
    "rate": 0.7,
    "requests": 800,
    "scheduler": MMKPLRScheduler,
    "scheduler_name": "mmkp-lr",
    "governor": "schedule-aware",
    "power_cap_watts": 6.0,
}

#: Spans kept per traced replay (one replay is a few hundred thousand).
MAX_SPANS = 1_000_000
#: Replays of each trace each replayer process makes at least.
MIN_REPLAYS = 1
#: Host-speed probes inside each measured replay.
PROBES_PER_REPLAY = 40
#: Traces a measuring run replays, each made from its own seed: every
#: replayer replays them in turn, starting from a different one.
TRACES = 2


class DecisionTimer:
    """The minimal run observer: host times of each ARRIVAL and its decision.

    The manager decides one arrival at a time, so the last ARRIVAL is the
    one the next ADMIT/REJECT answers.  Every ``probe_every``-th decision
    is followed by a probe loop (:func:`perfbench.common.probe_seconds`)
    that samples the host's speed there; its time is taken out of that
    arrival's cycle.
    """

    __slots__ = ("arrivals", "latencies", "kernel", "probe_every", "probes", "paused")

    def __init__(self, probe_every: int = 0, first_probe_s: float | None = None):
        self.arrivals: list[float] = []
        self.latencies: list[float] = []
        self.kernel = None
        self.probe_every = probe_every
        self.probes: list[float] = [first_probe_s] if probe_every else []
        self.paused: dict[int, float] = {}

    def __call__(self, event) -> None:
        kind = event.kind
        if kind is RunEventKind.ARRIVAL:
            self.arrivals.append(time.perf_counter())
        elif kind is RunEventKind.ADMIT or kind is RunEventKind.REJECT:
            decided = time.perf_counter()
            self.latencies.append(decided - self.arrivals[-1])
            if self.probe_every and len(self.latencies) % self.probe_every == 0:
                self.probes.append(probe_seconds())
                self.paused[len(self.arrivals)] = time.perf_counter() - decided
        elif kind is RunEventKind.KERNEL:
            self.kernel = event.data

    def cycles(self, started: float, ended: float) -> list[float]:
        """Set-up before the first arrival, then each arrival's cycle."""
        marks = [started, *self.arrivals, ended]
        cycles = [after - before for before, after in zip(marks, marks[1:])]
        for index, seconds in self.paused.items():
            cycles[index] -= seconds
        return cycles

    def slowdowns(self) -> list[float]:
        """Per decision, how much slower than the reference host the host ran.

        From the faster of the probes just before and just after the
        decision, so one probe that was interrupted does not count.
        """
        probes, every = self.probes, self.probe_every
        last = len(probes) - 1
        return [
            min(probes[index // every], probes[min(index // every + 1, last)])
            / REFERENCE_PROBE_S
            for index in range(len(self.latencies))
        ]


class OnlineWorkload:
    def __init__(self, name: str, config: dict):
        self.name = name
        self.config = config

    # ------------------------------------------------------------------ #
    # Set-up
    # ------------------------------------------------------------------ #
    def setup(self, seed: int) -> dict[str, float]:
        """Build tables and the trace; return the set-up's layer timings."""
        config = self.config
        started = time.perf_counter()
        platform = odroid_xu4()
        tables = reduced_tables(
            paper_operating_points(platform), max_points=config["points"]
        )
        dse_s = time.perf_counter() - started
        traces = [
            stratified_poisson_trace(
                tables, arrival_rate=config["rate"], num_requests=config["requests"],
                seed=seed * TRACES + index,
            )
            for index in range(TRACES)
        ]
        trace = traces[0]
        started = time.perf_counter()
        spec = ExperimentSpec(
            name=self.name,
            platform=PlatformSpec(name="odroid-xu4"),
            workload=WorkloadSpec.from_trace(trace),
            scheduler=SchedulerSpec(name=config["scheduler_name"]),
            energy=EnergySpec(
                governor=config["governor"],
                power_cap_watts=config["power_cap_watts"],
            ),
            dse=DSESpec(max_points=config["points"]),
            tables=None,
        )
        session = Session.from_spec(spec)
        self.platform = session.platform
        self.tables = session.tables
        self.trace = session.trace()
        api_s = time.perf_counter() - started
        if list(self.trace) != list(trace) or sorted(self.tables) != sorted(tables):
            raise RuntimeError("Session resolved other inputs than were generated")
        self.traces = [self.trace, *traces[1:]]
        self.fingerprints: dict[int, str] = {}
        self.references: dict = {}
        return {"dse.tables_s": dse_s, "api.session_build_s": api_s}

    @property
    def fingerprint(self) -> str:
        """One fingerprint over the logs of every trace replayed so far."""
        joined = "".join(self.fingerprints[index] for index in sorted(self.fingerprints))
        return hashlib.sha256(joined.encode()).hexdigest()

    def _manager(self, traced: bool) -> RuntimeManager:
        config = self.config
        budget = None
        if config["power_cap_watts"] is not None:
            budget = EnergyBudget(power_cap_watts=config["power_cap_watts"])
            if traced:
                budget = SpannedBudget(budget)
        governor = config["governor"]
        return RuntimeManager.from_components(
            self.platform,
            self.tables,
            config["scheduler"](),
            governor=build_governor(governor) if governor else None,
            budget=budget,
        )

    # ------------------------------------------------------------------ #
    # Measurement
    # ------------------------------------------------------------------ #
    def _replays(self, seconds: float, tally: Tally, traced: bool = False):
        """Replay the trace until ``seconds`` pass; yield per-replay facts."""
        deadline = time.perf_counter() + seconds
        replays = 0
        cpus = sorted(os.sched_getaffinity(0))
        try:
            while True:
                os.sched_setaffinity(0, {cpus[replays % len(cpus)]})
                yield self._replay(tally, traced)
                replays += 1
                if time.perf_counter() >= deadline:
                    return
        finally:
            os.sched_setaffinity(0, cpus)

    def _replay(
        self, tally: Tally, traced: bool, timer: DecisionTimer | None = None, index: int = 0
    ):
        """Replay trace ``index`` once through a fresh manager."""
        # Every replay starts from the same collector state, so collections
        # fall on the same operations in each replay.
        gc.collect()
        trace = self.traces[index]
        timer = timer or DecisionTimer()
        tracer = obs.Tracer(name="bench.replay", max_spans=MAX_SPANS) if traced else None
        started = time.perf_counter()
        if tracer is None:
            log = self._manager(False).run(trace, observer=timer)
        else:
            with tracer:
                log = self._manager(True).run(trace, observer=timer)
        ended = time.perf_counter()
        self._check(log, tally, index)
        return log, timer, started, ended, tracer

    def _check(self, log, tally: Tally, index: int) -> None:
        requests = len(self.traces[index])
        tally.attempted += requests
        if len(log.outcomes) != requests:
            tally.fail(requests, f"{len(log.outcomes)} outcomes for {requests} requests")
            return
        fingerprint = log.fingerprint()
        if index not in self.fingerprints:
            self.fingerprints[index] = fingerprint
            self.references[index] = log
            violations = deadline_violations(log.outcomes)
            if violations:
                tally.fail(violations, f"{violations} firm-deadline violations")
        elif fingerprint != self.fingerprints[index]:
            tally.fail(requests, f"replay of trace {index} differs from its first replay")

    def measure(self, seconds: float, tally: Tally):
        context = multiprocessing.get_context("fork")
        replayers = []
        try:
            for cpu in sorted(os.sched_getaffinity(0)):
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(
                    target=self._replayer, args=(cpu, seconds, sender), daemon=True
                )
                process.start()
                sender.close()
                replayers.append((process, receiver))
            reports = [receiver.recv() for _, receiver in replayers]
        finally:
            for process, receiver in replayers:
                receiver.close()
                process.join(timeout=30)
                if process.is_alive():
                    process.kill()
                    process.join()
        for report in reports:
            tally.attempted += report["attempted"]
            for count, reason in report["failures"]:
                tally.fail(count, reason)
        self.fingerprints = reports[0]["fingerprints"]
        if any(report["fingerprints"] != self.fingerprints for report in reports):
            tally.fail(sum(map(len, self.traces)), "the replayers' logs differ")
        self.units = sum(len(report["replays"]) for report in reports)
        self.samples = sum(map(len, self.traces))
        requests, accepted, joules = map(sum, zip(*reports[0]["outcomes"].values()))
        quality = {
            "acceptance_rate": (accepted / requests, "ratio"),
            "energy_per_admitted_j": (joules / accepted, "J"),
        }
        replays = [replay for report in reports for replay in report["replays"]]
        return (
            {**self._timings(replays, scaled=True), **quality},
            {**self._timings(replays, scaled=False), **quality},
        )

    def _timings(self, replays, scaled: bool) -> dict[str, tuple[float, str]]:
        """Each operation's median timing over its replays, as metrics."""
        cycles, latencies = [], []
        for index in range(len(self.traces)):
            trace_cycles, trace_latencies = [], []
            for replayed, cycle, latency, slowdown in replays:
                if replayed != index:
                    continue
                if not scaled:
                    slowdown = [1.0] * len(latency)
                # The set-up before the first arrival goes with the first.
                trace_cycles.append(
                    [c / s for c, s in zip(cycle, [slowdown[0], *slowdown])]
                )
                trace_latencies.append([x / s for x, s in zip(latency, slowdown)])
            cycles += [median(op) for op in zip(*trace_cycles)]
            latencies += [median(op) for op in zip(*trace_latencies)]
        latencies.sort()
        return {
            "ops_per_s": (self.samples / sum(cycles), "1/s"),
            "op_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
            "op_p99_ms": (percentile(latencies, 0.99) * 1e3, "ms"),
        }

    def _replayer(self, cpu: int, seconds: float, sender) -> None:
        """Body of one replayer process: replay on ``cpu``, send the timings."""
        os.sched_setaffinity(0, {cpu})
        # This replayer's first log of each trace is its reference.
        self.fingerprints, self.references = {}, {}
        tally = Tally()
        replays = []
        deadline = time.perf_counter() + seconds
        while len(replays) < MIN_REPLAYS * len(self.traces) or time.perf_counter() < deadline:
            index = (cpu + len(replays)) % len(self.traces)
            every = max(1, len(self.traces[index]) // PROBES_PER_REPLAY)
            timer = DecisionTimer(every, probe_seconds())
            _, timer, started, ended, _ = self._replay(tally, False, timer, index)
            replays.append(
                (index, timer.cycles(started, ended), timer.latencies, timer.slowdowns())
            )
        sender.send({
            "fingerprints": self.fingerprints,
            "outcomes": {
                index: (len(log.outcomes), len(log.accepted), log.total_energy)
                for index, log in self.references.items()
            },
            "replays": replays,
            "attempted": tally.attempted,
            "failures": [(tally.failed, "; ".join(tally.reasons))] if tally.failed else [],
        })
        sender.close()

    def peak_rss_mb(self) -> float:
        # The replayers have been joined, so they count as children.
        return peak_rss_mb(include_children=True)

    def measure_layers(self, seconds: float, tally: Tally) -> dict[str, float]:
        """Half the window untraced, half traced; return per-layer figures."""
        untraced = [
            len(self.trace) / (ended - started)
            for _, _, started, ended, _ in self._replays(seconds / 2, tally)
        ]
        totals = LayerTotals()
        traced = []
        artifact = None
        with BoundarySpans():
            for log, timer, started, ended, tracer in self._replays(
                seconds / 2, tally, traced=True
            ):
                traced.append(len(self.trace) / (ended - started))
                totals.add_tracer(tracer)
                totals.add_run(log, timer.kernel)
                if artifact is None:
                    artifact = OUT_DIR / f"{self.name}.trace.json"
                    OUT_DIR.mkdir(exist_ok=True)
                    obs.write_chrome_trace(artifact, tracer)
        values = totals.metrics()
        values["obs.tracing_overhead"] = median(untraced) / median(traced) - 1.0
        return values
