"""Discrete-event engine tests."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.sim import RankProgram, SimulationEngine, barrier, compute_phase, idle_phase
from repro.sim.workload import PhaseKind

from .oracles import interval_arrays, interval_lists, list_makespan, run_event_heap


def programs_of(*phase_lists):
    return [RankProgram(rank=i, phases=list(pl)) for i, pl in enumerate(phase_lists)]


def run_sweep(programs):
    """The production engine's run, as per-rank interval lists."""
    return interval_lists(SimulationEngine(programs).run_arrays())


class TestBasicExecution:
    def test_single_rank_sequence(self):
        intervals = run_sweep(
            programs_of([compute_phase(2.0), compute_phase(3.0)])
        )
        assert len(intervals[0]) == 2
        assert intervals[0][0].t_start == 0.0
        assert intervals[0][1].t_end == pytest.approx(5.0)
        assert list_makespan(intervals) == pytest.approx(5.0)

    def test_two_ranks_independent(self):
        intervals = run_sweep(
            programs_of([compute_phase(2.0)], [compute_phase(5.0)])
        )
        assert list_makespan(intervals) == pytest.approx(5.0)
        assert intervals[0][-1].t_end == pytest.approx(2.0)

    def test_zero_duration_phase_skipped_in_intervals(self):
        intervals = run_sweep(programs_of([compute_phase(0.0), compute_phase(1.0)]))
        assert len(intervals[0]) == 1


class TestBarriers:
    def test_barrier_synchronizes(self):
        intervals = run_sweep(
            programs_of(
                [compute_phase(1.0), barrier(), compute_phase(1.0)],
                [compute_phase(4.0), barrier(), compute_phase(1.0)],
            )
        )
        # rank 0 waits 3 s at the barrier
        waits = [iv for iv in intervals[0] if iv.phase.kind is PhaseKind.WAIT]
        assert len(waits) == 1
        assert waits[0].duration == pytest.approx(3.0)
        # both finish together
        assert intervals[0][-1].t_end == pytest.approx(5.0)
        assert intervals[1][-1].t_end == pytest.approx(5.0)

    def test_fast_rank_gets_no_wait_when_synchronized(self):
        intervals = run_sweep(
            programs_of(
                [compute_phase(2.0), barrier()],
                [compute_phase(2.0), barrier()],
            )
        )
        for per_rank in intervals:
            assert all(iv.phase.kind is not PhaseKind.WAIT for iv in per_rank)

    def test_multiple_barriers(self):
        intervals = run_sweep(
            programs_of(
                [compute_phase(1.0), barrier(), compute_phase(3.0), barrier()],
                [compute_phase(2.0), barrier(), compute_phase(1.0), barrier()],
            )
        )
        assert list_makespan(intervals) == pytest.approx(5.0)
        # rank 1 waits at both barriers? first: no (it is slower); second: yes
        waits1 = [iv for iv in intervals[1] if iv.phase.kind is PhaseKind.WAIT]
        assert len(waits1) == 1
        assert waits1[0].duration == pytest.approx(2.0)

    def test_mismatched_barrier_counts_rejected(self):
        with pytest.raises(SimulationError, match="barrier"):
            SimulationEngine(
                programs_of(
                    [compute_phase(1.0), barrier()],
                    [compute_phase(1.0)],
                )
            )

    def test_many_ranks_barrier_releases_at_max(self):
        programs = programs_of(*[[compute_phase(float(i + 1)), barrier(), compute_phase(1.0)] for i in range(8)])
        intervals = run_sweep(programs)
        assert list_makespan(intervals) == pytest.approx(9.0)


class TestTimelineIntegrity:
    def test_intervals_are_gap_free(self):
        intervals = run_sweep(
            programs_of(
                [compute_phase(1.5), barrier(), idle_phase(2.0), compute_phase(0.5)],
                [compute_phase(3.0), barrier(), compute_phase(1.0)],
            )
        )
        for per_rank in intervals:
            t = 0.0
            for iv in per_rank:
                assert iv.t_start == pytest.approx(t)
                t = iv.t_end

    def test_rank_ids_must_be_dense(self):
        with pytest.raises(SimulationError):
            SimulationEngine([RankProgram(rank=5, phases=[compute_phase(1.0)])])

    def test_empty_program_list_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine([])

    def test_idle_phase_recorded_but_core_free(self):
        intervals = run_sweep(programs_of([idle_phase(2.0)]))
        assert intervals[0][0].phase.occupies_core is False


#: The production sweep and the event-heap oracle, each returning per-rank
#: interval lists.
ENGINES = {"vectorized": run_sweep, "reference": run_event_heap}


class TestEngineEdgeCases:
    """Edge cases exercised against *both* implementations."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_rank(self, engine):
        intervals = ENGINES[engine](
            programs_of([compute_phase(2.0), barrier(), compute_phase(1.0)])
        )
        # a lone rank never waits at its own barrier
        assert [iv.phase.kind for iv in intervals[0]] == [
            PhaseKind.COMPUTE,
            PhaseKind.COMPUTE,
        ]
        assert list_makespan(intervals) == pytest.approx(3.0)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_barriers(self, engine):
        intervals = ENGINES[engine](
            programs_of([compute_phase(1.0)], [compute_phase(4.0)], [idle_phase(2.0)])
        )
        assert list_makespan(intervals) == pytest.approx(4.0)
        assert [len(per_rank) for per_rank in intervals] == [1, 1, 1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_barrier_program(self, engine):
        intervals = ENGINES[engine](programs_of(*[[barrier(), barrier(), barrier()]] * 4))
        assert list_makespan(intervals) == 0.0
        assert all(per_rank == [] for per_rank in intervals)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_programs(self, engine):
        intervals = ENGINES[engine](programs_of([], [], []))
        assert list_makespan(intervals) == 0.0
        assert all(per_rank == [] for per_rank in intervals)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mismatched_barrier_counts_error_parity(self, engine):
        """Both engines reject mismatched barrier counts (the would-be
        deadlock) with the same SimulationError."""
        with pytest.raises(SimulationError, match="same number of barriers"):
            ENGINES[engine](
                programs_of(
                    [compute_phase(1.0), barrier()],
                    [compute_phase(1.0)],
                )
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_odd_sequence_among_sharers_rejected(self, engine):
        """Barrier counts are validated per distinct sequence: 63 ranks
        sharing a 3-barrier template cannot hide rank 63's 2-barrier one."""
        template = (compute_phase(1.0), barrier()) * 3
        odd = (compute_phase(1.0), barrier()) * 2
        programs = [RankProgram(rank=r, phases=template) for r in range(63)]
        programs.append(RankProgram(rank=63, phases=odd))
        with pytest.raises(SimulationError, match="same number of barriers"):
            ENGINES[engine](programs)


class TestIntervalArraysValidation:
    """Continuity validation on the columnar path."""

    @staticmethod
    def _arrays():
        programs = programs_of(
            [compute_phase(1.0), barrier(), compute_phase(2.0)],
            [compute_phase(3.0), barrier(), compute_phase(0.5)],
        )
        return SimulationEngine(programs).run_arrays()

    def test_clean_run_validates(self):
        self._arrays().validate()  # no exception

    def test_gap_detected(self):
        arrays = self._arrays()
        arrays.t_start[1] += 0.5  # open a hole after rank 0's first interval
        with pytest.raises(SimulationError, match="gap in rank 0"):
            arrays.validate()

    def test_overlap_detected(self):
        arrays = self._arrays()
        arrays.t_start[1] -= 0.5  # slide interval back over its predecessor
        with pytest.raises(SimulationError, match="overlapping intervals for rank 0"):
            arrays.validate()

    def test_nonzero_origin_detected(self):
        arrays = self._arrays()
        arrays.t_start[0] = 0.25  # rank 0's timeline no longer starts at 0
        with pytest.raises(SimulationError, match="gap in rank 0"):
            arrays.validate()

    def test_round_trip_through_lists(self):
        arrays = self._arrays()
        round_tripped = interval_arrays(interval_lists(arrays))
        assert np.array_equal(round_tripped.rank, arrays.rank)
        assert np.array_equal(round_tripped.t_start, arrays.t_start)
        assert np.array_equal(round_tripped.t_end, arrays.t_end)
        assert round_tripped.makespan == arrays.makespan
        assert [
            round_tripped.phases[r] for r in round_tripped.phase_row
        ] == [arrays.phases[r] for r in arrays.phase_row]

    def test_demand_table_matches_phases(self):
        arrays = self._arrays()
        table = arrays.demand_table()
        assert table.shape == (len(arrays.phases), 6)
        for row, phase in enumerate(arrays.phases):
            assert tuple(table[row]) == phase.demand_vector()
