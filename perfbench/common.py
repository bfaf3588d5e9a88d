"""Shared pieces of the benchmark: environment pinning, host probe, checks.

Nothing here imports :mod:`repro` at module level, so :func:`pin_environment`
can run before the first ``repro`` import of the process.
"""

from __future__ import annotations

import json
import math
import os
import platform as host_platform
import random
import resource
import sys
import time
from pathlib import Path

#: The repository root (the benchmark lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
#: Where runs leave their artifacts (listed in the root ``.gitignore``).
OUT_DIR = ROOT / ".perfbench-out"

#: Completion-time tolerance of the firm-deadline check; the runtime
#: manager's own finish tolerance is 1e-6 as well.
DEADLINE_TOLERANCE = 1e-6

#: The paper's Fig. 1 motivational numbers: scenario S1 energy in joules for
#: (a) the fixed mapper remapping at start, (b) at start and finish, and
#: (c) the adaptive MMKP-MDF mapper; then the scenario S2 acceptance rates
#: of the same three.  They are the only reference results in the paper
#: that the model can be checked against.
FIG1_S1_JOULES = (16.96, 15.49, 14.63)
FIG1_S2_ACCEPTANCE = (0.5, 0.5, 1.0)
#: What the quality metrics can and cannot claim (kept with every result).
VALIDATION_NOTE = (
    "The Fig. 1 motivational numbers are the only reference results; the "
    "platform, power and timing model is otherwise unvalidated against hardware."
)


def pin_environment() -> dict[str, str]:
    """Drop every ``REPRO_*`` switch so each one takes its default.

    The switches (``REPRO_KERNEL``, ``REPRO_OPTABLE``, ``REPRO_OPTABLE_NUMPY``,
    ``REPRO_SOLVER_NUMPY``, ``REPRO_STORE``) are read from the environment
    at use, and worker processes and the gateway daemon inherit it, so
    removing them here pins the whole system under test.  Returns what was
    removed, for the run record.
    """
    removed = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in removed:
        del os.environ[key]
    return removed


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` directory."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src if not path else f"{src}{os.pathsep}{path}"


#: Iterations of the host-speed probe loop (about 7 ms of pure Python).
PROBE_ITERATIONS = 100_000
#: The probe's time on the reference host (an Intel Xeon KVM guest, Python
#: 3.11, in its faster state).  Every end-to-end timing but ``setup_s`` is
#: reported as it would read on that host.
REFERENCE_PROBE_S = 0.0072


def probe_seconds() -> float:
    """One timing of the probe loop: the host's speed at this moment.

    The host is a share of a machine whose speed moves by up to 1.6x, per
    CPU for seconds at a time and for the whole host over minutes.  The
    workloads time the same work repeatedly and divide each timing by how
    much slower than :data:`REFERENCE_PROBE_S` the probes next to it ran,
    which removes both; a change to the program moves the divided timings
    as much as the raw ones.
    """
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_ITERATIONS):
        total += value * value % 7
    return time.perf_counter() - started


def probe_each_cpu(probes: int = 3) -> list[float]:
    """The best of ``probes`` probe timings on each CPU this process may use."""
    cpus = os.sched_getaffinity(0)
    best = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            best.append(min(probe_seconds() for _ in range(probes)))
    finally:
        os.sched_setaffinity(0, cpus)
    return best


def slowdown_between(before: list[float], after: list[float]) -> float:
    """How much slower than the reference the host ran between two probings.

    Work between :func:`probe_each_cpu` calls ``before`` and ``after`` may
    run on any CPU, so this averages the CPUs, each at the faster of its
    two probes (one interrupted probe does not count).
    """
    best = [min(pair) for pair in zip(before, after)]
    return sum(best) / len(best) / REFERENCE_PROBE_S


def host_probe(removed_env: dict[str, str]) -> dict:
    """The facts about the host that a result should be read against."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": host_platform.python_version(),
        "numpy": numpy_version,
        "calibration_s": min(probe_seconds() for _ in range(3)),
        "repro_env_removed": sorted(removed_env),
    }


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[index]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process (or of its waited children)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        own = max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1024 * 1024 if sys.platform == "darwin" else 1024
    return own / scale


def stratified_poisson_trace(
    tables, arrival_rate: float, num_requests: int, seed: int,
    deadline_factor_range: tuple[float, float] = (1.5, 4.0),
):
    """:func:`repro.runtime.trace.poisson_trace` with a seed-independent load.

    The same recipe (exponential inter-arrival times, a uniform choice of
    application, a deadline of a random configuration's execution time
    times a uniform factor), but the inter-arrival times are the
    exponential distribution's quantiles at ``(i + 0.5) / n``, the
    applications come round-robin and the deadline factors are evenly
    spaced, each in an order shuffled by ``seed``.  Every seed then offers
    the same load; only its order, and so the bursts, differ.
    """
    from repro.runtime.trace import RequestEvent, RequestTrace

    rng = random.Random(seed)
    n = num_requests
    gaps = [-math.log(1.0 - (i + 0.5) / n) / arrival_rate for i in range(n)]
    applications = sorted(tables)
    chosen = [applications[i % len(applications)] for i in range(n)]
    low, high = deadline_factor_range
    factors = [low + (high - low) * (i + 0.5) / n for i in range(n)]
    for values in (gaps, chosen, factors):
        rng.shuffle(values)
    events = []
    time_s = 0.0
    for index, (gap, application, factor) in enumerate(zip(gaps, chosen, factors)):
        time_s += gap
        table = tables[application]
        point = table[rng.randrange(len(table))]
        events.append(
            RequestEvent(
                time_s, application, point.execution_time * factor,
                name=f"req{index:04d}",
            )
        )
    return RequestTrace(events)


def deadline_violations(outcomes) -> int:
    """Requests breaking the firm-deadline invariant of the paper.

    Every admitted request must complete by its absolute deadline (within
    :data:`DEADLINE_TOLERANCE`) and no rejected request may complete.
    """
    violations = 0
    for outcome in outcomes:
        if outcome.accepted:
            done = outcome.completion_time
            if done is None or done > outcome.deadline + DEADLINE_TOLERANCE:
                violations += 1
        elif outcome.completion_time is not None:
            violations += 1
    return violations


def check_fig1() -> list[str]:
    """Re-run the paper's motivational example; return every mismatch."""
    from repro.runtime import RuntimeManager
    from repro.schedulers import FixedMinEnergyScheduler, MMKPMDFScheduler
    from repro.workload.motivational import (
        motivational_platform,
        motivational_tables,
        motivational_trace,
    )

    variants = (
        (FixedMinEnergyScheduler, False),
        (FixedMinEnergyScheduler, True),
        (MMKPMDFScheduler, False),
    )
    problems = []
    for (scheduler, remap), joules, acceptance in zip(
        variants, FIG1_S1_JOULES, FIG1_S2_ACCEPTANCE
    ):
        logs = {}
        for scenario in ("S1", "S2"):
            manager = RuntimeManager.from_components(
                motivational_platform(),
                motivational_tables(),
                scheduler(),
                remap_on_finish=remap,
            )
            logs[scenario] = manager.run(motivational_trace(scenario))
        label = f"{scheduler.__name__}(remap_on_finish={remap})"
        if round(logs["S1"].total_energy, 2) != joules:
            problems.append(
                f"{label}: S1 energy {logs['S1'].total_energy!r} J, paper {joules} J"
            )
        if logs["S2"].acceptance_rate != acceptance:
            problems.append(
                f"{label}: S2 acceptance {logs['S2'].acceptance_rate!r}, "
                f"paper {acceptance}"
            )
    return problems


class Tally:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)


def result_line(tally: Tally, metrics: dict[str, tuple[float, str]]) -> str:
    """The benchmark's final output line."""
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
