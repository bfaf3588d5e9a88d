"""Plain-text renderings of the paper's tables and figures.

The benchmark harness (``benchmarks/bench_*.py``, one file per table or
figure) prints these so the regenerated rows/series can be compared side by
side with the numbers reported in the paper.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.experiments import SuiteResults
from repro.analysis.stats import BoxplotStats
from repro.workload.suite import EvaluationSuite
from repro.workload.testgen import DeadlineLevel


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))


def format_table_iii(suite: EvaluationSuite) -> str:
    """Render the test-case census in the layout of Table III."""
    census = suite.census()
    job_counts = sorted({jobs for _, jobs in census})
    lines = ["Table III: number of test cases per deadline level and job count"]
    header = ["Deadline"] + [f"{jobs} job(s)" for jobs in job_counts] + ["total"]
    widths = [10] + [9] * len(job_counts) + [7]
    lines.append(_format_row(header, widths))
    for level in (DeadlineLevel.WEAK, DeadlineLevel.TIGHT):
        row = [level.value]
        total = 0
        for jobs in job_counts:
            count = census.get((level, jobs), 0)
            total += count
            row.append(str(count))
        row.append(str(total))
        lines.append(_format_row(row, widths))
    lines.append(f"total test cases: {len(suite)}")
    return "\n".join(lines)


def format_fig2_scheduling_rate(
    results: SuiteResults,
    schedulers: Sequence[str],
    deadline_level: DeadlineLevel = DeadlineLevel.TIGHT,
) -> str:
    """Render the scheduling success rates of Fig. 2."""
    job_counts = results.job_counts()
    lines = [
        f"Fig. 2: scheduling rate [%] for {deadline_level.value} deadlines"
    ]
    widths = [12] + [9] * len(job_counts)
    lines.append(_format_row(["scheduler"] + [f"{j} job(s)" for j in job_counts], widths))
    for scheduler in schedulers:
        rates = results.scheduling_rate(scheduler, deadline_level)
        row = [scheduler] + [f"{rates.get(j, float('nan')):.1f}" for j in job_counts]
        lines.append(_format_row(row, widths))
    return "\n".join(lines)


def format_table_iv(
    results: SuiteResults, schedulers: Sequence[str], reference: str
) -> str:
    """Render the geometric-mean relative energy table (Table IV)."""
    table = results.relative_energy_table(schedulers, reference)
    job_counts = results.job_counts()
    lines = [f"Table IV: geometric mean of energy relative to {reference}"]
    header = ["# Jobs"]
    for scheduler in schedulers:
        header += [f"{scheduler}/weak", f"{scheduler}/tight"]
    widths = [7] + [max(14, len(h)) for h in header[1:]]
    lines.append(_format_row(header, widths))

    def cell(scheduler: str, level: DeadlineLevel, jobs: int) -> str:
        value = table[scheduler].get((level, jobs))
        return f"{value:.4f}" if value is not None and value == value else "-"

    for jobs in job_counts:
        row = [str(jobs)]
        for scheduler in schedulers:
            row += [
                cell(scheduler, DeadlineLevel.WEAK, jobs),
                cell(scheduler, DeadlineLevel.TIGHT, jobs),
            ]
        lines.append(_format_row(row, widths))
    row = ["Overall"]
    for scheduler in schedulers:
        row += [
            cell(scheduler, DeadlineLevel.WEAK, 0),
            cell(scheduler, DeadlineLevel.TIGHT, 0),
        ]
    lines.append(_format_row(row, widths))
    row = ["All"]
    for scheduler in schedulers:
        value = table[scheduler].get((None, 0))
        rendered = f"{value:.4f}" if value is not None and value == value else "-"
        row += [rendered, ""]
    lines.append(_format_row(row, widths))
    return "\n".join(lines)


def format_fig3_scurve(
    results: SuiteResults,
    schedulers: Sequence[str],
    reference: str,
    num_points: int = 10,
) -> str:
    """Render a down-sampled view of the Fig. 3 S-curves."""
    lines = [f"Fig. 3: S-curves of energy relative to {reference} (sampled)"]
    for scheduler in schedulers:
        curve = results.relative_energy_curve(scheduler, reference)
        optimal = results.optimal_share(scheduler, reference)
        if not curve:
            lines.append(f"{scheduler}: no commonly scheduled tests")
            continue
        step = max(1, len(curve) // num_points)
        samples = [f"{curve[i]:.3f}" for i in range(0, len(curve), step)]
        lines.append(
            f"{scheduler}: n={len(curve)}, optimal share={optimal * 100:.1f}%, "
            f"curve={samples}"
        )
    return "\n".join(lines)


def format_schedule_gantt(
    schedule, tables, width: int = 60
) -> str:
    """Render a schedule as a textual Gantt chart (one row per job).

    This is the textual analogue of Fig. 1 of the paper: time runs left to
    right, every row is one job, and each character cell shows the
    configuration index the job uses during that slice (``.`` = suspended).
    """
    if not schedule:
        return "(empty schedule)"
    start, end = schedule.start, schedule.end
    span = max(end - start, 1e-9)
    job_names = sorted(schedule.job_names())
    lines = [f"Gantt [{start:.2f} s .. {end:.2f} s], one column = {span / width:.3f} s"]
    for job_name in job_names:
        cells = []
        for column in range(width):
            time = start + (column + 0.5) * span / width
            symbol = "."
            for segment in schedule:
                if segment.start <= time < segment.end:
                    mapping = segment.mapping_for(job_name)
                    if mapping is not None:
                        symbol = str(mapping.config_index % 10)
                    break
            cells.append(symbol)
        lines.append(f"{job_name:>12s} |{''.join(cells)}|")
    return "\n".join(lines)


def format_energy_breakdown(
    clusters: Mapping[str, Mapping[str, float]], title: str = "energy breakdown"
) -> str:
    """Render a per-cluster busy/idle/total energy table.

    ``clusters`` maps cluster (processor-type) names to ``{"busy": J,
    "idle": J, "total": J}`` entries as produced by
    :meth:`~repro.energy.accounting.EnergyMeter.cluster_breakdown` or
    :meth:`~repro.service.pool.BatchResults.cluster_energy`.  In table-mode
    accounting the busy/idle split is not observable, so idle reads zero and
    the totals carry the attribution.
    """
    if not clusters:
        return f"{title}: no cluster data (bare capacity vector?)"
    total = sum(entry["total"] for entry in clusters.values())
    lines = [f"{title} [total {total:.3f} J]"]
    widths = [10, 12, 12, 12, 8]
    lines.append(
        _format_row(["cluster", "busy [J]", "idle [J]", "total [J]", "share"], widths)
    )
    for name in sorted(clusters):
        entry = clusters[name]
        share = entry["total"] / total if total > 0 else 0.0
        lines.append(
            _format_row(
                [
                    name,
                    f"{entry['busy']:.3f}",
                    f"{entry['idle']:.3f}",
                    f"{entry['total']:.3f}",
                    f"{share * 100:.1f}%",
                ],
                widths,
            )
        )
    return "\n".join(lines)


def format_fig4_search_time(
    results: SuiteResults, schedulers: Sequence[str]
) -> str:
    """Render the search-time summary of Fig. 4."""
    lines = ["Fig. 4: scheduling overhead per job count [seconds]"]
    widths = [12, 7, 12, 12, 12, 12]
    lines.append(
        _format_row(
            ["scheduler", "#jobs", "median", "mean", "q3", "max"], widths
        )
    )
    for scheduler in schedulers:
        stats: Mapping[int, BoxplotStats] = results.search_time_stats(scheduler)
        for num_jobs, stat in stats.items():
            lines.append(
                _format_row(
                    [
                        scheduler,
                        str(num_jobs),
                        f"{stat.median:.6f}",
                        f"{stat.mean:.6f}",
                        f"{stat.q3:.6f}",
                        f"{stat.maximum:.6f}",
                    ],
                    widths,
                )
            )
    return "\n".join(lines)
