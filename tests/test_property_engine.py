"""Property-based tests on the discrete-event engine (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RankProgram, SimulationEngine, barrier, compute_phase
from repro.sim.workload import PhaseKind

from .oracles import interval_lists, list_makespan

durations = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


@st.composite
def synchronized_programs(draw):
    """Random per-rank phase durations arranged into barrier-separated
    super-steps shared by all ranks."""
    num_ranks = draw(st.integers(min_value=1, max_value=6))
    num_steps = draw(st.integers(min_value=1, max_value=4))
    table = [
        [draw(durations) for _ in range(num_steps)] for _ in range(num_ranks)
    ]
    programs = []
    for rank in range(num_ranks):
        program = RankProgram(rank=rank)
        for step in range(num_steps):
            program.append(compute_phase(table[rank][step]))
            program.append(barrier())
        programs.append(program)
    return programs, table


class TestEngineProperties:
    @given(data=synchronized_programs())
    @settings(max_examples=80, deadline=None)
    def test_makespan_is_sum_of_step_maxima(self, data):
        """With a barrier after every step, the makespan is exactly the sum
        over steps of the slowest rank's duration — an independent oracle
        for the event engine."""
        programs, table = data
        intervals = interval_lists(SimulationEngine(programs).run_arrays())
        expected = sum(max(row[s] for row in table) for s in range(len(table[0])))
        assert list_makespan(intervals) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @given(data=synchronized_programs())
    @settings(max_examples=80, deadline=None)
    def test_busy_plus_wait_equals_makespan(self, data):
        """Every rank's intervals tile [0, makespan] exactly (no lost or
        double-counted time)."""
        programs, _ = data
        intervals = interval_lists(SimulationEngine(programs).run_arrays())
        makespan = list_makespan(intervals)
        for per_rank in intervals:
            covered = sum(iv.duration for iv in per_rank)
            assert covered == pytest.approx(makespan, rel=1e-9, abs=1e-9)

    @given(data=synchronized_programs())
    @settings(max_examples=80, deadline=None)
    def test_wait_only_for_non_slowest(self, data):
        """In every super-step, the slowest rank never waits."""
        programs, table = data
        intervals = interval_lists(SimulationEngine(programs).run_arrays())
        num_steps = len(table[0])
        for s in range(num_steps):
            slowest = max(range(len(table)), key=lambda r: table[r][s])
            step_max = table[slowest][s]
            # total wait of the slowest rank in this step must be ~0 unless
            # there is a tie (another rank equally slow)
            ties = sum(1 for row in table if row[s] == step_max)
            if ties == 1:
                waits = [
                    iv
                    for iv in intervals[slowest]
                    if iv.phase.kind is PhaseKind.WAIT
                ]
                # slowest overall may wait in OTHER steps; check it computes
                # through this step's barrier without waiting right before it
                # (hard to index directly; assert global wait < sum of other
                # steps' gaps)
                total_wait = sum(iv.duration for iv in waits)
                others = sum(
                    max(row[t] for row in table) - table[slowest][t]
                    for t in range(num_steps)
                )
                assert total_wait == pytest.approx(others, rel=1e-9, abs=1e-6)

    @given(data=synchronized_programs())
    @settings(max_examples=40, deadline=None)
    def test_run_is_deterministic(self, data):
        programs, _ = data
        a = interval_lists(SimulationEngine(programs).run_arrays())
        b = interval_lists(SimulationEngine(programs).run_arrays())
        assert [
            [(iv.t_start, iv.t_end) for iv in per_rank] for per_rank in a
        ] == [[(iv.t_start, iv.t_end) for iv in per_rank] for per_rank in b]


class TestPlacementProperties:
    """Placement invariants over arbitrary rank counts (hypothesis)."""

    from hypothesis import given as _given, settings as _settings
    from hypothesis import strategies as _st

    @_given(p=_st.integers(min_value=1, max_value=128))
    @_settings(max_examples=60, deadline=None)
    def test_breadth_first_counts_sum_and_balance(self, p):
        from repro.cluster import presets
        from repro.sim import breadth_first_placement

        fire = presets.fire()
        placement = breadth_first_placement(fire, p)
        counts = [placement.ranks_per_node(n) for n in range(8)]
        assert sum(counts) == p
        # round-robin balance: max and min differ by at most 1
        assert max(counts) - min(counts) <= 1

    @_given(p=_st.integers(min_value=1, max_value=128))
    @_settings(max_examples=60, deadline=None)
    def test_packed_fills_prefix(self, p):
        from repro.cluster import presets
        from repro.sim import packed_placement

        fire = presets.fire()
        placement = packed_placement(fire, p)
        counts = [placement.ranks_per_node(n) for n in range(8)]
        assert sum(counts) == p
        # all-full nodes precede the partial node, which precedes empties
        seen_partial = False
        for c in counts:
            if c == 16 and not seen_partial:
                continue
            if 0 < c < 16:
                assert not seen_partial
                seen_partial = True
            elif c == 0:
                seen_partial = True
            else:
                assert c == 0 or not seen_partial

    @_given(p=_st.integers(min_value=1, max_value=128))
    @_settings(max_examples=60, deadline=None)
    def test_policies_agree_on_totals(self, p):
        from repro.cluster import presets
        from repro.sim import breadth_first_placement, packed_placement

        fire = presets.fire()
        a = breadth_first_placement(fire, p)
        b = packed_placement(fire, p)
        assert a.num_ranks == b.num_ranks == p
