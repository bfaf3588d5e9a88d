"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import BoxplotStats, geometric_mean, s_curve
from repro.core.config import ConfigTable, OperatingPoint, pareto_filter_points
from repro.core.problem import SchedulingProblem
from repro.core.request import Job
from repro.dse.pareto import pareto_front
from repro.exceptions import SchedulingError
from repro.knapsack import MMKPItem, MMKPProblem, solve_exact, solve_greedy, solve_lagrangian
from repro.platforms.resources import ResourceVector
from repro.schedulers import MMKPLRScheduler, MMKPMDFScheduler
from repro.schedulers.edf_packer import pack_jobs_edf
from tests import oracle

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
counts = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4)


def vector_pairs():
    """Two resource vectors of the same dimension."""
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda dim: st.tuples(
            st.lists(st.integers(0, 6), min_size=dim, max_size=dim),
            st.lists(st.integers(0, 6), min_size=dim, max_size=dim),
        )
    )


@st.composite
def operating_points(draw, dimension=2, max_points=6):
    """A non-empty list of operating points of fixed dimension."""
    num = draw(st.integers(min_value=1, max_value=max_points))
    points = []
    for _ in range(num):
        resources = draw(
            st.lists(st.integers(0, 3), min_size=dimension, max_size=dimension).filter(
                lambda c: any(c)
            )
        )
        time = draw(st.floats(min_value=0.5, max_value=20.0, allow_nan=False))
        energy = draw(st.floats(min_value=0.1, max_value=30.0, allow_nan=False))
        points.append(OperatingPoint(ResourceVector(resources), time, energy))
    return points


@st.composite
def scheduling_problems(draw):
    """Small random scheduling problems on a 2-type platform."""
    capacity = ResourceVector(
        [draw(st.integers(1, 4)), draw(st.integers(1, 4))]
    )
    points = [
        point
        for point in draw(operating_points(dimension=2, max_points=5))
        if point.resources.fits_into(capacity)
    ]
    if not points:
        points = [OperatingPoint(ResourceVector([1, 0]), 5.0, 1.0)]
    table = ConfigTable("app", points)
    num_jobs = draw(st.integers(1, 3))
    jobs = []
    for index in range(num_jobs):
        remaining = draw(st.floats(min_value=0.1, max_value=1.0))
        slack = draw(st.floats(min_value=0.5, max_value=4.0))
        deadline = table.fastest().execution_time * remaining * slack
        jobs.append(
            Job(f"job{index}", "app", arrival=0.0, deadline=deadline, remaining_ratio=remaining)
        )
    return SchedulingProblem(capacity, {"app": table}, jobs, now=0.0)


@st.composite
def mixed_problems(draw):
    """Random problems with two applications, up to four jobs, ``now > 0``."""
    capacity = ResourceVector([draw(st.integers(1, 4)), draw(st.integers(1, 4))])
    tables = {}
    for application in ("a", "b"):
        points = [
            point
            for point in draw(operating_points(dimension=2, max_points=5))
            if point.resources.fits_into(capacity)
        ] or [OperatingPoint(ResourceVector([1, 0]), 5.0, 1.0)]
        tables[application] = ConfigTable(application, points)
    now = draw(st.floats(min_value=0.0, max_value=10.0))
    jobs = []
    for index in range(draw(st.integers(1, 4))):
        application = draw(st.sampled_from(("a", "b")))
        remaining = draw(st.floats(min_value=0.1, max_value=1.0))
        slack = draw(st.floats(min_value=0.5, max_value=4.0))
        fastest = tables[application].fastest().execution_time
        jobs.append(
            Job(
                f"job{index}",
                application,
                arrival=0.0,
                deadline=now + fastest * remaining * slack,
                remaining_ratio=remaining,
            )
        )
    return SchedulingProblem(capacity, tables, jobs, now=now)


def _schedule_key(schedule):
    """Segment boundaries (exact floats) and mappings of a schedule."""
    if schedule is None:
        return None
    return [
        (segment.start, segment.end, [(m.job_name, m.config_index) for m in segment])
        for segment in schedule
    ]


def _result_key(result):
    return (
        _schedule_key(result.schedule),
        dict(result.assignment),
        repr(result.energy),
        dict(result.statistics),
    )


# --------------------------------------------------------------------- #
# ResourceVector properties
# --------------------------------------------------------------------- #
class TestResourceVectorProperties:
    @given(vector_pairs())
    def test_addition_is_commutative(self, pair):
        a, b = ResourceVector(pair[0]), ResourceVector(pair[1])
        assert a + b == b + a

    @given(vector_pairs())
    def test_addition_then_subtraction_is_identity(self, pair):
        a, b = ResourceVector(pair[0]), ResourceVector(pair[1])
        assert (a + b) - b == a

    @given(vector_pairs())
    def test_fits_into_is_consistent_with_dominates(self, pair):
        a, b = ResourceVector(pair[0]), ResourceVector(pair[1])
        assert a.fits_into(b) == b.dominates(a)

    @given(counts)
    def test_sum_with_zero_is_identity(self, values):
        vector = ResourceVector(values)
        assert vector + ResourceVector.zeros(len(vector)) == vector


# --------------------------------------------------------------------- #
# Pareto filtering properties
# --------------------------------------------------------------------- #
class TestParetoProperties:
    @given(operating_points())
    def test_filtered_points_are_mutually_non_dominated(self, points):
        survivors = pareto_filter_points(points)
        assert survivors, "at least one point always survives"
        for a in survivors:
            for b in survivors:
                if a is not b:
                    assert not a.dominates(b)

    @given(operating_points())
    def test_every_dropped_point_is_dominated_or_duplicate(self, points):
        survivors = pareto_filter_points(points)
        for point in points:
            if point in survivors:
                continue
            dominated = any(other.dominates(point) for other in points)
            duplicate = any(
                other.resources == point.resources
                and other.execution_time == point.execution_time
                and other.energy == point.energy
                for other in survivors
            )
            assert dominated or duplicate

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=12))
    def test_front_never_grows(self, points):
        front = pareto_front(points, objectives=lambda p: p)
        assert len(front) <= len(points)
        assert all(p in points for p in front)

    @given(operating_points())
    def test_filter_is_idempotent(self, points):
        once = pareto_filter_points(points)
        twice = pareto_filter_points(once)
        assert once == twice


# --------------------------------------------------------------------- #
# Statistics properties
# --------------------------------------------------------------------- #
class TestStatisticsProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=30))
    def test_geometric_mean_is_bounded_by_extremes(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=30))
    def test_geometric_mean_scales_linearly(self, values):
        scaled = [2.0 * v for v in values]
        assert geometric_mean(scaled) == _approx(2.0 * geometric_mean(values))

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30))
    def test_boxplot_ordering(self, values):
        stats = BoxplotStats.from_samples(values)
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
        # The mean is computed in floating point, so allow round-off slack.
        assert stats.minimum - 1e-9 <= stats.mean <= stats.maximum + 1e-9
        assert stats.count == len(values)

    @given(st.lists(st.floats(min_value=-10, max_value=10), max_size=20))
    def test_s_curve_is_sorted_permutation(self, values):
        curve = s_curve(values)
        assert curve == sorted(curve)
        assert len(curve) == len(values)


def _approx(value):
    import pytest

    return pytest.approx(value, rel=1e-9)


# --------------------------------------------------------------------- #
# Knapsack properties
# --------------------------------------------------------------------- #
@st.composite
def mmkp_instances(draw):
    dims = draw(st.integers(1, 2))
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        items = []
        for _ in range(draw(st.integers(1, 3))):
            items.append(
                MMKPItem(
                    value=draw(st.floats(min_value=0.0, max_value=10.0)),
                    weights=tuple(
                        draw(st.floats(min_value=0.0, max_value=3.0)) for _ in range(dims)
                    ),
                )
            )
        groups.append(items)
    capacities = [draw(st.floats(min_value=1.0, max_value=6.0)) for _ in range(dims)]
    return MMKPProblem(capacities, groups)


class TestKnapsackProperties:
    @given(mmkp_instances())
    @settings(max_examples=40, deadline=None)
    def test_heuristics_never_beat_the_exact_solver(self, problem):
        exact = solve_exact(problem)
        greedy = solve_greedy(problem)
        lagrangian = solve_lagrangian(problem, max_iterations=30)
        if greedy.feasible:
            assert exact.feasible
            assert greedy.value <= exact.value + 1e-6
        if lagrangian.solution.feasible:
            assert exact.feasible
            assert lagrangian.solution.value <= exact.value + 1e-6
            assert lagrangian.dual_bound >= exact.value - 1e-6

    @given(mmkp_instances())
    @settings(max_examples=40, deadline=None)
    def test_solutions_respect_capacities(self, problem):
        for solution in (solve_exact(problem), solve_greedy(problem)):
            if solution.feasible:
                assert problem.is_feasible(solution.selection)


# --------------------------------------------------------------------- #
# Scheduler properties
# --------------------------------------------------------------------- #
class TestSchedulerProperties:
    @given(scheduling_problems())
    @settings(max_examples=40, deadline=None)
    def test_edf_packing_of_arbitrary_assignments_is_valid_or_rejected(self, problem):
        table = problem.table_for("app")
        # Assign every job its most efficient configuration.
        cheapest = min(table.indices(), key=lambda i: table[i].energy)
        assignment = {job.name: cheapest for job in problem.jobs}
        schedule = pack_jobs_edf(problem, assignment)
        if schedule is None:
            return
        report = problem.validate(schedule)
        assert report.feasible, report.violations

    @given(scheduling_problems())
    @settings(max_examples=40, deadline=None)
    def test_mdf_schedules_are_always_valid(self, problem):
        result = MMKPMDFScheduler().schedule(problem)
        if not result.feasible:
            return
        report = problem.validate(result.schedule)
        assert report.feasible, report.violations
        assert math.isfinite(result.energy)
        assert result.energy >= 0.0

    @given(mixed_problems(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_packer_matches_the_oracle_on_random_assignments(self, problem, data):
        # Several packs on one problem exercise the prefix-resumed packer
        # (later packs share placement prefixes with earlier ones).
        for _ in range(data.draw(st.integers(1, 4))):
            assignment = {
                job.name: data.draw(
                    st.integers(0, len(problem.table_for(job)) - 1)
                )
                for job in problem.jobs
                if data.draw(st.booleans())
            }
            packed = pack_jobs_edf(problem, assignment)
            reference = oracle.pack_jobs_edf(problem, assignment)
            assert _schedule_key(packed) == _schedule_key(reference)

    @given(mixed_problems(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_out_of_range_configuration_raises_like_the_oracle(self, problem, data):
        assignment = {
            job.name: data.draw(st.integers(0, len(problem.table_for(job)) - 1))
            for job in problem.jobs
        }
        victim = data.draw(st.sampled_from(problem.jobs))
        assignment[victim.name] = len(problem.table_for(victim)) + data.draw(
            st.integers(0, 3)
        )
        with pytest.raises(SchedulingError) as packed:
            pack_jobs_edf(problem, assignment)
        with pytest.raises(SchedulingError) as reference:
            oracle.pack_jobs_edf(problem, assignment)
        assert str(packed.value) == str(reference.value)

    @given(st.one_of(scheduling_problems(), mixed_problems()))
    @settings(max_examples=60, deadline=None)
    def test_mdf_matches_the_oracle(self, problem):
        result = MMKPMDFScheduler().schedule(problem)
        reference = oracle.MMKPMDFOracle().schedule(problem)
        assert _result_key(result) == _result_key(reference)

    @given(st.one_of(scheduling_problems(), mixed_problems()))
    @settings(max_examples=40, deadline=None)
    def test_lr_matches_the_oracle(self, problem):
        result = MMKPLRScheduler().schedule(problem)
        reference = oracle.MMKPLROracle().schedule(problem)
        assert _result_key(result) == _result_key(reference)
