"""Per-layer attribution for the traced runs.

The end-to-end metrics come from untraced runs.  A traced run adds spans
from the benchmark's side of each layer's public boundary, on top of the
``repro.obs`` spans the program already opens:

* ``bench.pack`` around :func:`repro.schedulers.edf_packer.pack_jobs_edf`
  as MMKP-MDF calls it,
* ``bench.knapsack`` around :func:`repro.knapsack.solve_lagrangian` and
  :func:`repro.knapsack.solve_lagrangian_many` as MMKP-LR calls them,
* ``bench.budget`` around :meth:`repro.energy.budget.EnergyBudget.admits`,
  through a delegating budget object.

A span's self time is its duration minus the union of its children's
intervals.  Every span's self time is charged to the layer of its own name
or, for a name this file does not know, to the layer of its nearest known
ancestor; the self times of one tree therefore add up to the duration of
its root exactly, and nothing a later change instruments is lost.
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs import tracer as obs

#: Span name -> the per-layer metric its self time is charged to.
SELF_BUCKETS = {
    "bench.replay": "runtime.build_s",
    "rm.run": "runtime.self_s",
    "rm.reschedule": "runtime.self_s",
    "rm.arrival": "runtime.arrival_s",
    "phase.snapshot": "kernel.snapshot_s",
    "phase.candidates": "kernel.candidates_s",
    "phase.solve": "kernel.solve_s",
    "phase.commit": "kernel.commit_s",
    "solve": "schedulers.self_s",
    "bench.pack": "edf_packer.pack_s",
    "bench.knapsack": "knapsack.solve_s",
    "governor": "energy.governor_s",
    "bench.budget": "energy.budget_s",
    "energy.accounting": "energy.accounting_s",
}

#: Every per-layer metric, in report order: name, unit, which direction is
#: better, and the end-to-end metric and workload it should move.  Each
#: traced run prints all of them; a layer a workload does not use reads 0.
_MDF_OPS = "ops_per_s on online-mdf"
_MDF_P50 = "op_p50_ms on online-mdf"
_MDF_P99 = "op_p99_ms on online-mdf"
_SCHED = "op_p50_ms on online-mdf (MMKP-MDF) and online-lr-dvfs (MMKP-LR)"
_PACK = "ops_per_s and op_p99_ms on online-mdf; 0 on online-lr-dvfs"
_KNAP = "ops_per_s and op_p99_ms on online-lr-dvfs; 0 on online-mdf"
_LR_OPS = "ops_per_s on online-lr-dvfs"
_BATCH = "ops_per_s on batch-cluster"
_GW = "op_p99_ms on gateway-closed-loop"
_SETUP = "setup_s on every workload"
_REPORT = "reported only"
PER_LAYER = (
    ("runtime.run_s", "s", "lower", _MDF_OPS),
    ("runtime.self_s", "s", "lower", _MDF_OPS),
    ("runtime.arrival_s", "s", "lower", _MDF_OPS),
    ("runtime.build_s", "s", "lower", _MDF_OPS),
    ("runtime.activations", "count", "lower", _MDF_OPS),
    ("kernel.snapshot_s", "s", "lower", _MDF_P50),
    ("kernel.candidates_s", "s", "lower", _MDF_P50),
    ("kernel.solve_s", "s", "lower", _MDF_P50),
    ("kernel.commit_s", "s", "lower", _MDF_P50),
    ("kernel.delta_share", "ratio", "higher", _MDF_P99),
    ("kernel.dirty_jobs_per_activation", "count", "lower", _MDF_P99),
    ("schedulers.schedule_calls", "count", "lower", _SCHED),
    ("schedulers.schedule_s", "s", "lower", _SCHED),
    ("schedulers.self_s", "s", "lower", _SCHED),
    ("schedulers.feasible_share", "ratio", "higher", _SCHED),
    ("edf_packer.pack_calls", "count", "lower", _PACK),
    ("edf_packer.pack_s", "s", "lower", _PACK),
    ("edf_packer.packs_per_activation", "count", "lower", _PACK),
    ("edf_packer.resume_share", "ratio", "higher", _PACK),
    ("knapsack.solve_calls", "count", "lower", _KNAP),
    ("knapsack.solve_s", "s", "lower", _KNAP),
    ("knapsack.subgradient_iterations", "count", "lower", _KNAP),
    ("knapsack.solve_cache_hit_ratio", "ratio", "higher", _KNAP),
    ("energy.governor_calls", "count", "lower", _LR_OPS),
    ("energy.governor_s", "s", "lower", _LR_OPS),
    ("energy.budget_checks", "count", "lower", _LR_OPS),
    ("energy.budget_s", "s", "lower", _LR_OPS),
    ("energy.budget_reject_share", "ratio", "lower", _LR_OPS),
    ("energy.accounting_s", "s", "lower", _LR_OPS),
    ("energy.intervals", "count", "lower", _LR_OPS),
    ("service.job_busy_s", "s", "lower", _BATCH),
    ("service.search_share", "ratio", "higher", _BATCH),
    ("cluster.units", "count", "lower", _BATCH),
    ("cluster.steals", "count", "lower", _BATCH),
    ("cluster.retries", "count", "lower", _BATCH),
    ("cluster.failed_units", "count", "lower", _BATCH),
    ("cluster.overhead_s", "s", "lower", _BATCH),
    ("cluster.core_efficiency", "ratio", "higher", _BATCH),
    ("store.hit_ratio", "ratio", "higher", _BATCH),
    ("store.get_s", "s", "lower", _BATCH),
    ("store.put_s", "s", "lower", _BATCH + "; setup_s on batch-cluster"),
    ("store.entries_written", "count", "lower", _BATCH),
    ("store.bytes_written", "count", "lower", _BATCH),
    ("gateway.queue_wait_ms_p50", "ms", "lower", _GW),
    ("gateway.queue_wait_ms_p99", "ms", "lower", _GW),
    ("gateway.run_wall_ms_p50", "ms", "lower", _GW),
    ("gateway.run_wall_ms_p99", "ms", "lower", _GW),
    ("gateway.http_ms", "ms", "lower", _GW),
    ("gateway.runs_failed", "count", "lower", _GW),
    ("api.session_build_s", "s", "lower", _SETUP + "; " + _GW + " (cold sessions)"),
    ("dse.tables_s", "s", "lower", _SETUP),
    ("obs.traced_wall_s", "s", "lower", _REPORT),
    ("obs.attributed_share", "ratio", "higher", _REPORT),
    ("obs.tracing_overhead", "ratio", "lower", _REPORT),
)


def _spanned(function, name: str, category: str, iterations: bool = False):
    """``function`` wrapped in a span (a no-op when no tracer is active)."""

    def wrapper(*args, **kwargs):
        with obs.span(name, category=category) as span:
            result = function(*args, **kwargs)
            if iterations and span is not obs.NOOP_SPAN:
                solved = result if isinstance(result, list) else [result]
                span.count("relaxations", len(solved))
                span.count("iterations", sum(r.iterations for r in solved))
        return result

    wrapper.__wrapped__ = function
    return wrapper


class BoundarySpans:
    """Context manager adding the ``bench.*`` spans at layer boundaries.

    The wrappers replace the names MMKP-MDF and MMKP-LR call through (the
    module attributes of :mod:`repro.schedulers.mdf` and
    :mod:`repro.schedulers.lr`), and are removed on exit.
    """

    def __enter__(self) -> "BoundarySpans":
        from repro.schedulers import lr, mdf

        self._saved = [
            (mdf, "pack_jobs_edf", mdf.pack_jobs_edf),
            (lr, "solve_lagrangian", lr.solve_lagrangian),
            (lr, "solve_lagrangian_many", lr.solve_lagrangian_many),
        ]
        mdf.pack_jobs_edf = _spanned(mdf.pack_jobs_edf, "bench.pack", "edf_packer")
        for attribute in ("solve_lagrangian", "solve_lagrangian_many"):
            setattr(
                lr,
                attribute,
                _spanned(getattr(lr, attribute), "bench.knapsack", "knapsack", True),
            )
        return self

    def __exit__(self, *exc) -> bool:
        for module, attribute, original in self._saved:
            setattr(module, attribute, original)
        return False


class SpannedBudget:
    """Delegates to an :class:`~repro.energy.budget.EnergyBudget`, in a span."""

    def __init__(self, budget):
        self._budget = budget
        self.unconstrained = budget.unconstrained

    def admits(self, *args, **kwargs):
        with obs.span("bench.budget", category="energy") as span:
            verdict = self._budget.admits(*args, **kwargs)
            span.annotate(admitted=bool(verdict))
        return verdict


class LayerTotals:
    """Accumulates per-layer figures over the traced replays of one run."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.solves_feasible = 0
        self.budget_rejects = 0

    def add_tracer(self, tracer) -> None:
        """Fold one finished tracer (root span = one replay) into the totals."""
        spans = tracer.spans()
        by_id = {span.span_id: span for span in spans}
        children: dict[int, list] = defaultdict(list)
        for span in spans:
            if span.parent_id is not None:
                children[span.parent_id].append(span)

        def bucket(span) -> str | None:
            while span is not None:
                known = SELF_BUCKETS.get(span.name)
                if known is not None:
                    return known
                span = by_id.get(span.parent_id)
            return None

        values = self.values
        for span in spans:
            name = span.name
            if span.parent_id is None:
                self.wall_s += span.duration
            covered = _covered(span, children.get(span.span_id, ()))
            target = bucket(span)
            if target is not None:
                values[target] += span.duration - covered
            if name == "rm.run":
                values["runtime.run_s"] += span.duration
            elif name == "solve":
                values["schedulers.schedule_calls"] += 1
                values["schedulers.schedule_s"] += span.duration
                if span.annotations.get("feasible"):
                    self.solves_feasible += 1
            elif name == "bench.pack":
                values["edf_packer.pack_calls"] += 1
            elif name == "bench.knapsack":
                values["knapsack.solve_calls"] += span.counts.get("relaxations", 0)
            elif name == "governor":
                values["energy.governor_calls"] += 1
            elif name == "bench.budget":
                values["energy.budget_checks"] += 1
                if not span.annotations.get("admitted"):
                    self.budget_rejects += 1
            for counter, amount in span.counts.items():
                self.counts[counter] += amount

    def add_run(self, log, kernel_summary) -> None:
        """Fold the run's own figures: its log and its ``KERNEL`` event."""
        self.values["runtime.activations"] += log.activations
        self.values["energy.intervals"] += len(log.timeline)
        if kernel_summary:
            for key in ("activations", "dirty_jobs", "resumed_steps", "replayed_steps"):
                self.counts[f"kernel.{key}"] += kernel_summary[key]

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics these traced replays support."""
        values = dict(self.values)
        counts = self.counts
        calls = values.get("schedulers.schedule_calls", 0)
        values["schedulers.feasible_share"] = _share(self.solves_feasible, calls)
        activations = counts.get("kernel.activations", 0)
        values["kernel.dirty_jobs_per_activation"] = _share(
            counts.get("kernel.dirty_jobs", 0), activations
        )
        resumed = counts.get("kernel.resumed_steps", 0)
        values["kernel.delta_share"] = _share(
            resumed, resumed + counts.get("kernel.replayed_steps", 0)
        )
        values["edf_packer.packs_per_activation"] = _share(
            values.get("edf_packer.pack_calls", 0), values.get("runtime.activations", 0)
        )
        pack_resumes = counts.get("pack.resume", 0)
        values["edf_packer.resume_share"] = _share(
            pack_resumes, pack_resumes + counts.get("pack.scratch", 0)
        )
        values["knapsack.subgradient_iterations"] = counts.get("iterations", 0)
        hits = counts.get("cache.solve.hit", 0)
        values["knapsack.solve_cache_hit_ratio"] = _share(
            hits, hits + counts.get("cache.solve.miss", 0)
        )
        values["energy.budget_reject_share"] = _share(
            self.budget_rejects, values.get("energy.budget_checks", 0)
        )
        attributed = sum(values.get(bucket, 0.0) for bucket in set(SELF_BUCKETS.values()))
        values["obs.traced_wall_s"] = self.wall_s
        values["obs.attributed_share"] = _share(attributed, self.wall_s)
        return values


def _covered(span, kids) -> float:
    """Length of the union of ``kids``' intervals inside ``span``."""
    if not kids:
        return 0.0
    start, end = span.start, span.start + span.duration
    intervals = sorted(
        (max(kid.start, start), min(kid.start + kid.duration, end)) for kid in kids
    )
    covered = 0.0
    open_start, open_end = intervals[0]
    for low, high in intervals[1:]:
        if low > open_end:
            covered += max(0.0, open_end - open_start)
            open_start, open_end = low, high
        else:
            open_end = max(open_end, high)
    return covered + max(0.0, open_end - open_start)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric, 0 where ``values`` has none."""
    return {name: (float(values.get(name, 0.0)), unit) for name, unit, _, _ in PER_LAYER}
