"""Ablation A2 — sensitivity to the operating-point table size.

The runtime manager consumes Pareto tables produced at design time; their size
trades scheduling quality against runtime overhead.  This ablation sweeps the
per-application table-size cap and reports MMKP-MDF's scheduling rate, energy
and overhead for each cap, quantifying the cost of the EX-MEM-motivated table
reduction the harness applies (``REPRO_BENCH_MAX_POINTS``, see conftest.py).
"""

from repro.analysis import evaluate_suite
from repro.analysis.stats import geometric_mean
from repro.dse import reduced_tables
from repro.schedulers import MMKPMDFScheduler
from repro.workload import EvaluationSuite
from repro.workload.suite import scaled_census
from repro.workload.testgen import DeadlineLevel

#: Table-size caps swept by the ablation.
CAPS = (2, 4, 8, 16)


def test_ablation_table_size(benchmark, full_tables, platform, scale_note):
    """Sweep the operating-point cap and report quality/overhead."""
    print(f"\nA2 — operating-point table size ablation {scale_note}")
    print(f"{'cap':>4s} {'avg points':>11s} {'sched rate':>11s} {'geomean energy':>15s} {'mean time [ms]':>15s}")

    baseline_energy = None
    rows = []
    for cap in CAPS:
        tables = reduced_tables(full_tables, max_points=cap)
        suite = EvaluationSuite.generate(tables, scaled_census(0.02), seed=99)
        results = evaluate_suite(suite, platform, tables, [MMKPMDFScheduler()])
        runs = results.runs_of("mmkp-mdf")
        feasible = [r for r in runs if r.feasible]
        rate = 100.0 * len(feasible) / len(runs)
        energy = geometric_mean([r.energy for r in feasible]) if feasible else float("nan")
        mean_time = sum(r.search_time for r in runs) / len(runs)
        average_points = sum(len(t) for t in tables.values()) / len(tables)
        rows.append((cap, average_points, rate, energy, mean_time))
        print(
            f"{cap:4d} {average_points:11.1f} {rate:10.1f}% {energy:15.3f} "
            f"{mean_time * 1000:15.3f}"
        )
        if baseline_energy is None:
            baseline_energy = energy

    # Larger tables should not noticeably hurt the scheduling rate (they give
    # the heuristic strictly more options; small fluctuations are sampling
    # noise on the reduced workload)...
    assert rows[-1][2] >= rows[0][2] - 10.0
    # ...and they cost more scheduling time than the smallest cap.
    assert rows[-1][4] >= rows[0][4] * 0.5

    # Benchmark an activation with the largest cap (the most expensive case).
    tables = reduced_tables(full_tables, max_points=CAPS[-1])
    suite = EvaluationSuite.generate(tables, scaled_census(0.01), seed=5)
    problem = suite.filtered(DeadlineLevel.TIGHT, 4)[0].problem(platform, tables)
    benchmark(MMKPMDFScheduler().schedule, problem)
