"""Pareto-dominance tests."""

from repro.analysis import ParetoPoint, dominated_by


def P(name, perf, power):
    return ParetoPoint(name=name, performance=perf, power_w=power)


class TestDominance:
    def test_strictly_better_dominates(self):
        assert P("a", 10, 5).dominates(P("b", 8, 6))

    def test_equal_does_not_dominate(self):
        assert not P("a", 10, 5).dominates(P("b", 10, 5))

    def test_better_on_one_axis_only(self):
        assert P("a", 10, 5).dominates(P("b", 10, 6))
        assert P("a", 11, 5).dominates(P("b", 10, 5))

    def test_crossed_points_do_not_dominate(self):
        a, b = P("a", 10, 5), P("b", 12, 8)
        assert not a.dominates(b)
        assert not b.dominates(a)


class TestFront:
    def test_dominated_by_map(self):
        points = [P("king", 10, 1), P("pawn", 5, 2), P("bishop", 8, 3)]
        dom = dominated_by(points)
        assert dom["king"] == []
        assert dom["pawn"] == ["king"]
        assert dom["bishop"] == ["king"]


class TestFleetFrontier:
    def test_fleet_frontier_and_tgi_agree_on_extremes(self, paper_context):
        """Across the sweep's scale points, the highest-TGI point must not
        be Pareto-dominated in (aggregate suite performance proxy, power)."""
        sweep = paper_context.sweep
        points = []
        for i, cores in enumerate(sweep.cores):
            suite = sweep.suites[i]
            # HPL perf as the performance proxy; suite-mean power
            perf = suite["HPL"].performance
            power = sum(suite.powers_w.values()) / 3
            points.append(P(f"{cores}c", perf, power))
        dom = dominated_by(points)
        # full scale delivers the most HPL performance: never dominated
        assert dom["128c"] == []
