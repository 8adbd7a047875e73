"""Serialization round-trip tests."""

import pytest

from repro.benchmarks import run_sweep
from repro.core import ReferenceSet, TGICalculator
from repro.exceptions import ReproError
from repro.serialization import (
    FORMAT_VERSION,
    benchmark_result_from_dict,
    benchmark_result_to_dict,
    load_json,
    reference_from_dict,
    reference_to_dict,
    save_json,
    suite_result_from_dict,
    suite_result_to_dict,
    sweep_result_from_dict,
    sweep_result_to_dict,
)


@pytest.fixture
def suite_result(quick_suite, executor):
    return quick_suite.run(executor, 32)


class TestBenchmarkResultRoundTrip:
    def test_scalar_fields_preserved(self, suite_result):
        original = suite_result["STREAM"]
        restored = benchmark_result_from_dict(benchmark_result_to_dict(original))
        assert restored.benchmark == original.benchmark
        assert restored.performance == original.performance
        assert restored.scale == original.scale
        assert restored.details == original.details

    def test_derived_quantities_preserved(self, suite_result):
        original = suite_result["HPL"]
        restored = benchmark_result_from_dict(benchmark_result_to_dict(original))
        assert restored.time_s == pytest.approx(original.time_s)
        assert restored.power_w == pytest.approx(original.power_w)
        assert restored.energy_j == pytest.approx(original.energy_j)
        assert restored.energy_efficiency == pytest.approx(original.energy_efficiency)

    def test_truth_and_trace_preserved(self, suite_result):
        original = suite_result["IOzone"]
        restored = benchmark_result_from_dict(benchmark_result_to_dict(original))
        assert restored.record.true_energy_j == pytest.approx(
            original.record.true_energy_j
        )
        assert len(restored.record.trace) == len(original.record.trace)

    def test_cluster_reattachment(self, suite_result, fire):
        data = benchmark_result_to_dict(suite_result["HPL"])
        restored = benchmark_result_from_dict(data, cluster=fire)
        assert restored.record.cluster is fire

    def test_version_check(self, suite_result):
        data = benchmark_result_to_dict(suite_result["HPL"])
        data["format_version"] = 99
        with pytest.raises(ReproError, match="version"):
            benchmark_result_from_dict(data)


class TestSuiteAndSweepRoundTrip:
    def test_suite_round_trip(self, suite_result):
        restored = suite_result_from_dict(suite_result_to_dict(suite_result))
        assert restored.names == suite_result.names
        assert restored.cores == suite_result.cores
        assert restored.efficiencies == pytest.approx(suite_result.efficiencies)

    def test_sweep_round_trip_preserves_tgi(self, quick_suite, executor):
        """The acid test: TGI computed from the archive equals TGI computed
        live, bit for bit on every series value."""
        sweep = run_sweep(quick_suite, executor, [16, 32])
        ref = ReferenceSet.from_suite_result(sweep.suites[0], system_name="self")
        live = TGICalculator(ref).compute_series(sweep).values
        restored_sweep = sweep_result_from_dict(sweep_result_to_dict(sweep))
        restored_ref = reference_from_dict(reference_to_dict(ref))
        archived = TGICalculator(restored_ref).compute_series(restored_sweep).values
        assert (live == archived).all()

    def test_json_file_round_trip(self, suite_result, tmp_path):
        path = tmp_path / "suite.json"
        save_json(suite_result_to_dict(suite_result), path)
        restored = suite_result_from_dict(load_json(path))
        assert restored.performances == suite_result.performances


class TestReferenceRoundTrip:
    def test_round_trip(self):
        ref = ReferenceSet({"HPL": 2.26e8, "STREAM": 2.6e7}, system_name="SystemG")
        restored = reference_from_dict(reference_to_dict(ref))
        assert restored.system_name == "SystemG"
        assert restored.as_dict() == ref.as_dict()
