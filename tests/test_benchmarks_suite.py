"""BenchmarkSuite / SuiteResult / scaling-sweep tests."""

import pytest

from repro.benchmarks import (
    BenchmarkSuite,
    HPLBenchmark,
    IOzoneBenchmark,
    StreamBenchmark,
    run_sweep,
)
from repro.exceptions import BenchmarkError


class TestBenchmarkSuite:
    def test_names_in_order(self, quick_suite):
        assert quick_suite.names == ["HPL", "STREAM", "IOzone"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(BenchmarkError):
            BenchmarkSuite([StreamBenchmark(), StreamBenchmark()])

    def test_empty_suite_rejected(self):
        with pytest.raises(BenchmarkError):
            BenchmarkSuite([])

    def test_scale_for_iozone_maps_cores_to_nodes(self, quick_suite, executor):
        iozone = quick_suite.benchmarks[2]
        assert quick_suite.scale_for(iozone, 16, executor) == 1
        assert quick_suite.scale_for(iozone, 64, executor) == 4
        assert quick_suite.scale_for(iozone, 128, executor) == 8

    def test_scale_for_others_is_cores(self, quick_suite, executor):
        hpl = quick_suite.benchmarks[0]
        assert quick_suite.scale_for(hpl, 48, executor) == 48

    def test_run_produces_all_members(self, quick_suite, executor):
        result = quick_suite.run(executor, 32)
        assert result.names == ["HPL", "STREAM", "IOzone"]
        assert result.cores == 32


class TestSuiteResult:
    @pytest.fixture
    def suite_result(self, quick_suite, executor):
        return quick_suite.run(executor, 32)

    def test_getitem(self, suite_result):
        assert suite_result["STREAM"].benchmark == "STREAM"

    def test_getitem_missing(self, suite_result):
        with pytest.raises(KeyError):
            suite_result["LINPACK"]

    def test_len_and_iter(self, suite_result):
        assert len(suite_result) == 3
        assert len(list(suite_result)) == 3

    def test_convenience_maps_consistent(self, suite_result):
        for r in suite_result:
            name = r.benchmark
            assert suite_result.performances[name] == r.performance
            assert suite_result.powers_w[name] == r.power_w
            assert suite_result.times_s[name] == r.time_s
            assert suite_result.energies_j[name] == r.energy_j
            assert suite_result.efficiencies[name] == r.energy_efficiency

    def test_energy_is_power_times_time(self, suite_result):
        for r in suite_result:
            assert r.energy_j == pytest.approx(r.power_w * r.time_s)

    def test_efficiency_definition(self, suite_result):
        for r in suite_result:
            assert r.energy_efficiency == pytest.approx(r.performance / r.power_w)


class TestScalingSweep:
    def test_sweep_collects_all_points(self, quick_suite, executor):
        sweep = run_sweep(quick_suite, executor, [16, 32])
        assert sweep.cores == [16, 32]
        assert len(sweep) == 2

    def test_series_extraction(self, quick_suite, executor):
        sweep = run_sweep(quick_suite, executor, [16, 32])
        perf = sweep.series("STREAM", "performance")
        assert perf.shape == (2,)
        assert perf[1] > perf[0]

    def test_efficiency_series(self, quick_suite, executor):
        sweep = run_sweep(quick_suite, executor, [16, 32])
        ee = sweep.efficiency_series("IOzone")
        assert (ee > 0).all()

    def test_unsorted_core_counts_rejected(self, quick_suite, executor):
        with pytest.raises(BenchmarkError, match="ascending"):
            run_sweep(quick_suite, executor, [32, 16])

    def test_duplicate_core_counts_rejected(self, quick_suite, executor):
        with pytest.raises(BenchmarkError, match="distinct"):
            run_sweep(quick_suite, executor, [16, 16])

    def test_empty_core_counts_rejected(self, quick_suite, executor):
        with pytest.raises(BenchmarkError, match="at least one"):
            run_sweep(quick_suite, executor, [])
