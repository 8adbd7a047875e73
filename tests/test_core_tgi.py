"""TGI computation tests (Eq. 4 and the Section II algorithm)."""

import pytest

from repro.benchmarks import run_sweep
from repro.core import (
    ArithmeticMeanWeights,
    CustomWeights,
    EnergyWeights,
    InverseEDP,
    ReferenceSet,
    TGICalculator,
    TimeWeights,
    tgi_from_components,
)
from repro.exceptions import MetricError, WeightError


@pytest.fixture
def suite_result(quick_suite, executor):
    return quick_suite.run(executor, 32)


@pytest.fixture
def reference(quick_suite, small_executor, fire_small):
    ref_result = quick_suite.run(small_executor, fire_small.total_cores)
    return ReferenceSet.from_suite_result(ref_result, system_name="mini-ref")


class TestTgiFromComponents:
    def test_eq4(self):
        ree = {"a": 2.0, "b": 0.5}
        weights = {"a": 0.25, "b": 0.75}
        assert tgi_from_components(ree, weights) == pytest.approx(0.875)

    def test_coverage_mismatch(self):
        with pytest.raises(MetricError):
            tgi_from_components({"a": 1.0}, {"b": 1.0})

    def test_invalid_weights(self):
        with pytest.raises(WeightError):
            tgi_from_components({"a": 1.0}, {"a": 0.5})

    def test_non_positive_ree(self):
        with pytest.raises(MetricError):
            tgi_from_components({"a": 0.0}, {"a": 1.0})

    def test_bounded_by_ree_extremes(self):
        ree = {"a": 0.4, "b": 2.0, "c": 1.1}
        weights = {"a": 0.2, "b": 0.3, "c": 0.5}
        tgi = tgi_from_components(ree, weights)
        assert min(ree.values()) <= tgi <= max(ree.values())


class TestTGICalculator:
    def test_reference_system_scores_one(self, quick_suite, small_executor, fire_small):
        """A system measured against itself has REE = 1 everywhere, hence
        TGI = 1 under any valid weighting — the core invariant."""
        result = quick_suite.run(small_executor, fire_small.total_cores)
        ref = ReferenceSet.from_suite_result(result)
        for weighting in (ArithmeticMeanWeights(), TimeWeights(), EnergyWeights()):
            tgi = TGICalculator(ref, weighting=weighting).compute(result)
            assert tgi.value == pytest.approx(1.0)
            assert all(v == pytest.approx(1.0) for v in tgi.ree.values())

    def test_components_recorded(self, suite_result, reference):
        tgi = TGICalculator(reference).compute(suite_result)
        assert set(tgi.ree) == set(suite_result.names)
        assert set(tgi.weights) == set(suite_result.names)
        assert tgi.reference_name == "mini-ref"
        assert tgi.weighting_name == "arithmetic-mean"

    def test_value_consistent_with_components(self, suite_result, reference):
        tgi = TGICalculator(reference).compute(suite_result)
        manual = sum(tgi.weights[n] * tgi.ree[n] for n in tgi.ree)
        assert tgi.value == pytest.approx(manual)

    def test_least_efficient_benchmark(self, suite_result, reference):
        tgi = TGICalculator(reference).compute(suite_result)
        assert tgi.least_efficient_benchmark == min(tgi.ree, key=tgi.ree.get)

    def test_missing_reference_entry_rejected(self, suite_result):
        partial = ReferenceSet({"HPL": 1.0, "STREAM": 1.0})
        with pytest.raises(Exception):
            TGICalculator(partial).compute(suite_result)

    def test_custom_weights_change_value(self, suite_result, reference):
        am = TGICalculator(reference).compute(suite_result).value
        skewed = TGICalculator(
            reference,
            weighting=CustomWeights({"HPL": 0.98, "STREAM": 0.01, "IOzone": 0.01}),
        ).compute(suite_result).value
        assert skewed != pytest.approx(am)

    def test_edp_metric_supported(self, quick_suite, small_executor, fire_small):
        """Section II: TGI works with any EE metric, e.g. inverse EDP."""
        result = quick_suite.run(small_executor, fire_small.total_cores)
        ref = ReferenceSet.from_suite_result(result, metric=InverseEDP())
        tgi = TGICalculator(ref, metric=InverseEDP()).compute(result)
        assert tgi.value == pytest.approx(1.0)

    def test_doubling_efficiency_doubles_tgi(self, suite_result, reference):
        """TGI is linear in the REEs: halving every reference efficiency
        doubles TGI."""
        tgi = TGICalculator(reference).compute(suite_result).value
        halved = ReferenceSet(
            {k: v / 2 for k, v in reference.as_dict().items()}, system_name="halved"
        )
        tgi2 = TGICalculator(halved).compute(suite_result).value
        assert tgi2 == pytest.approx(2 * tgi)


class TestTGISeries:
    def test_series_over_sweep(self, quick_suite, executor, reference):
        sweep = run_sweep(quick_suite, executor, [16, 32])
        series = TGICalculator(reference).compute_series(sweep)
        assert len(series) == 2
        assert series.cores == (16, 32)
        assert series.values.shape == (2,)

    def test_component_series(self, quick_suite, executor, reference):
        sweep = run_sweep(quick_suite, executor, [16, 32])
        series = TGICalculator(reference).compute_series(sweep)
        assert series.ree_series("HPL").shape == (2,)
        assert series.weight_series("HPL").shape == (2,)
        assert (series.efficiency_series("IOzone") > 0).all()
