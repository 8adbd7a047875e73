"""Power-trace and piecewise-power tests."""

import numpy as np
import pytest

from repro.exceptions import PowerModelError
from repro.power import PiecewisePower, PowerTrace


class TestPiecewisePower:
    def test_constant_energy(self):
        truth = PiecewisePower.constant(100.0, 60.0)
        assert truth.energy() == pytest.approx(6000.0)

    def test_segment_energy_sums(self):
        truth = PiecewisePower([(0, 10, 100), (10, 30, 200)])
        assert truth.energy() == pytest.approx(1000 + 4000)

    def test_mean_power(self):
        truth = PiecewisePower([(0, 10, 100), (10, 30, 200)])
        assert truth.mean_power() == pytest.approx(5000 / 30)

    def test_max_power(self):
        truth = PiecewisePower([(0, 10, 100), (10, 30, 200)])
        assert truth.max_power() == 200.0

    def test_power_at(self):
        truth = PiecewisePower([(0, 10, 100), (10, 30, 200)])
        assert truth.power_at(5) == 100.0
        assert truth.power_at(15) == 200.0
        assert truth.power_at(30) == 200.0

    def test_power_at_many_matches_scalar(self):
        truth = PiecewisePower([(0, 10, 100), (10, 30, 200)])
        times = [0.5, 9.9, 10.1, 29.9]
        many = truth.power_at(np.array(times))
        assert list(many) == [truth.power_at(t) for t in times]
        assert all(type(truth.power_at(t)) is float for t in times)

    def test_rejects_gap(self):
        with pytest.raises(PowerModelError):
            PiecewisePower([(0, 10, 100), (11, 20, 100)])

    def test_rejects_overlap(self):
        with pytest.raises(PowerModelError):
            PiecewisePower([(0, 10, 100), (9, 20, 100)])

    def test_rejects_negative_power(self):
        with pytest.raises(PowerModelError):
            PiecewisePower([(0, 10, -1)])

    def test_rejects_reversed_segment(self):
        with pytest.raises(PowerModelError):
            PiecewisePower([(10, 0, 100)])

    def test_drops_zero_length_segments(self):
        truth = PiecewisePower([(0, 10, 100), (10, 10, 500), (10, 20, 100)])
        assert truth.max_power() == 100.0

    def test_query_outside_interval_rejected(self):
        truth = PiecewisePower.constant(100, 10)
        with pytest.raises(PowerModelError):
            truth.power_at(11)

    def test_unsorted_segments_accepted(self):
        truth = PiecewisePower([(10, 20, 200), (0, 10, 100)])
        assert truth.power_at(5) == 100.0


class TestPowerTrace:
    def test_trapezoid_energy(self):
        trace = PowerTrace([0, 1, 2], [100, 200, 100])
        assert trace.energy() == pytest.approx(np.trapezoid([100, 200, 100], [0, 1, 2]))

    def test_mean_power_time_weighted(self):
        trace = PowerTrace([0, 1, 3], [100, 100, 400])
        # energy = 100 + 2*(250) = 600 over 3 s
        assert trace.mean_power() == pytest.approx(600 / 3)

    def test_single_sample(self):
        trace = PowerTrace([5.0], [250.0])
        assert trace.energy() == 0.0
        assert trace.mean_power() == 250.0

    def test_min_max(self):
        trace = PowerTrace([0, 1, 2], [100, 300, 200])
        assert trace.max_power() == 300.0
        assert trace.min_power() == 100.0

    def test_slice(self):
        trace = PowerTrace([0, 1, 2, 3], [10, 20, 30, 40])
        part = trace.slice(1, 2)
        assert list(part.watts) == [20, 30]

    def test_slice_empty_rejected(self):
        trace = PowerTrace([0, 1], [10, 20])
        with pytest.raises(PowerModelError):
            trace.slice(5, 6)

    def test_rejects_conflicting_duplicate_timestamps(self):
        with pytest.raises(PowerModelError, match="conflicting duplicate"):
            PowerTrace([0, 0, 1], [1, 2, 3])

    def test_rejects_negative_power(self):
        with pytest.raises(PowerModelError):
            PowerTrace([0, 1], [5, -5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(PowerModelError):
            PowerTrace([0, 1, 2], [5, 5])

    def test_views_are_read_only(self):
        trace = PowerTrace([0, 1], [10, 20])
        with pytest.raises(ValueError):
            trace.watts[0] = 99


class TestPowerTraceEnergyCache:
    """A trace integrates its samples once; nothing the caller does later moves it."""

    @staticmethod
    def _bits(x: float) -> int:
        return int(np.float64(x).view(np.int64))

    @pytest.mark.parametrize("unsorted", [False, True])
    def test_energy_is_a_fresh_trapezoid(self, unsorted):
        rng = np.random.default_rng(3)
        times = np.cumsum(rng.uniform(0.5, 1.5, 200))
        watts = rng.uniform(0.0, 900.0, 200)
        if unsorted:
            order = rng.permutation(200)
            times, watts = times[order], watts[order]
        trace = PowerTrace(times, watts)
        fresh = float(np.trapezoid(trace.watts, trace.times))
        assert self._bits(trace.energy()) == self._bits(fresh)
        assert self._bits(trace.energy()) == self._bits(fresh)  # the cached read
        assert self._bits(trace.mean_power()) == self._bits(fresh / trace.duration)

    def test_single_sample_energy_is_zero(self):
        trace = PowerTrace([4.0], [250.0])
        assert trace.energy() == 0.0
        assert trace.mean_power() == 250.0

    def test_writing_the_callers_arrays_changes_nothing(self):
        times = np.array([0.0, 1.0, 2.0, 3.0])
        watts = np.array([100.0, 200.0, 300.0, 400.0])
        trace = PowerTrace(times, watts)
        before = trace.energy()
        times[:] = [0.0, 10.0, 20.0, 30.0]
        watts[:] = 0.0
        assert trace.times.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert trace.watts.tolist() == [100.0, 200.0, 300.0, 400.0]
        assert self._bits(trace.energy()) == self._bits(before)
        fresh = float(np.trapezoid(trace.watts, trace.times))
        assert self._bits(trace.energy()) == self._bits(fresh)

    def test_writing_the_callers_arrays_before_the_first_read_changes_nothing(self):
        watts = np.array([100.0, 300.0, 200.0])
        trace = PowerTrace(np.array([0.0, 1.0, 2.0]), watts)
        watts *= 2.0
        assert trace.energy() == pytest.approx(450.0)
        assert trace.watts.tolist() == [100.0, 300.0, 200.0]


class TestPowerTraceNormalization:
    """Merged meter logs: sorting, dedup, and conflict rejection."""

    def test_unsorted_samples_are_sorted(self):
        trace = PowerTrace([2.0, 0.0, 1.0], [30.0, 10.0, 20.0])
        assert list(trace.times) == [0.0, 1.0, 2.0]
        assert list(trace.watts) == [10.0, 20.0, 30.0]
        # same energy as the pre-sorted construction
        assert trace.energy() == PowerTrace([0, 1, 2], [10, 20, 30]).energy()

    def test_agreeing_duplicates_deduplicated(self):
        # e.g. two meter logs that overlap on one boundary sample
        trace = PowerTrace([0.0, 1.0, 1.0, 2.0], [10.0, 20.0, 20.0, 30.0])
        assert len(trace) == 3
        assert list(trace.times) == [0.0, 1.0, 2.0]
        assert list(trace.watts) == [10.0, 20.0, 30.0]

    def test_unsorted_agreeing_duplicates_deduplicated(self):
        trace = PowerTrace([1.0, 0.0, 1.0], [20.0, 10.0, 20.0])
        assert len(trace) == 2
        assert list(trace.watts) == [10.0, 20.0]

    def test_conflicting_duplicates_report_the_timestamp(self):
        with pytest.raises(PowerModelError, match=r"t=1\.5"):
            PowerTrace([0.0, 1.5, 1.5], [10.0, 20.0, 21.0])

    def test_unsorted_conflicting_duplicates_still_rejected(self):
        # the conflict only becomes adjacent after the stable sort
        with pytest.raises(PowerModelError, match="conflicting duplicate"):
            PowerTrace([1.0, 0.0, 1.0], [20.0, 10.0, 21.0])

    def test_all_samples_identical_collapse_to_one(self):
        trace = PowerTrace([3.0, 3.0, 3.0], [50.0, 50.0, 50.0])
        assert len(trace) == 1
        assert trace.mean_power() == 50.0


class TestPiecewiseFromArrays:
    def test_adopts_arrays_without_copy(self):
        starts = np.array([0.0, 1.0])
        ends = np.array([1.0, 2.0])
        watts = np.array([100.0, 200.0])
        truth = PiecewisePower.from_arrays(starts, ends, watts)
        assert truth.energy() == pytest.approx(300.0)
        assert truth.watts_array.base is watts  # adopted, not copied

    def test_rejects_empty_arrays(self):
        with pytest.raises(PowerModelError, match="at least one"):
            PiecewisePower.from_arrays(np.empty(0), np.empty(0), np.empty(0))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(PowerModelError, match="differ in length"):
            PiecewisePower.from_arrays(
                np.array([0.0]), np.array([1.0]), np.array([1.0, 2.0])
            )

    def test_rejects_non_1d(self):
        with pytest.raises(PowerModelError, match="1-D"):
            PiecewisePower.from_arrays(
                np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))
            )

    def test_single_segment(self):
        truth = PiecewisePower.from_arrays(
            np.array([2.0]), np.array([5.0]), np.array([400.0])
        )
        assert truth.t_start == 2.0
        assert truth.duration == 3.0
        assert truth.power_at(3.5) == 400.0

    def test_matches_validating_constructor(self):
        segments = [(0.0, 1.5, 100.0), (1.5, 4.0, 250.0), (4.0, 4.5, 50.0)]
        checked = PiecewisePower(segments)
        adopted = PiecewisePower.from_arrays(
            checked.starts_array.copy(),
            checked.ends_array.copy(),
            checked.watts_array.copy(),
        )
        assert adopted.segments == checked.segments
        assert adopted.energy() == checked.energy()

    def test_array_views_read_only(self):
        truth = PiecewisePower([(0, 1, 100), (1, 2, 200)])
        for view in (truth.starts_array, truth.ends_array, truth.watts_array):
            with pytest.raises(ValueError):
                view[0] = 99.0
