"""Geometric-TGI tests, including the reference-invariance theorem."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GeometricTGICalculator,
    ReferenceSet,
    TGICalculator,
    geometric_tgi_from_components,
    tgi_from_components,
)
from repro.exceptions import MetricError

positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False)
BENCHES = ("HPL", "STREAM", "IOzone")


@st.composite
def ee_dicts(draw):
    return {name: draw(positive) for name in BENCHES}


@st.composite
def weight_dicts(draw):
    raw = [draw(st.floats(min_value=0.05, max_value=1.0)) for _ in BENCHES]
    total = sum(raw)
    return {name: r / total for name, r in zip(BENCHES, raw)}


class TestGeometricComponents:
    def test_equal_ree_collapses(self):
        ree = {"a": 2.0, "b": 2.0}
        weights = {"a": 0.5, "b": 0.5}
        assert geometric_tgi_from_components(ree, weights) == pytest.approx(2.0)

    def test_below_arithmetic_mean(self):
        """AM-GM: geometric TGI never exceeds the paper's arithmetic TGI."""
        ree = {"a": 0.4, "b": 3.0, "c": 1.1}
        weights = {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}
        assert geometric_tgi_from_components(ree, weights) <= tgi_from_components(
            ree, weights
        )

    def test_self_reference_is_one(self):
        ree = {name: 1.0 for name in BENCHES}
        weights = {name: 1 / 3 for name in BENCHES}
        assert geometric_tgi_from_components(ree, weights) == pytest.approx(1.0)

    def test_rejects_non_positive(self):
        with pytest.raises(MetricError):
            geometric_tgi_from_components({"a": 0.0}, {"a": 1.0})

    def test_rejects_coverage_mismatch(self):
        with pytest.raises(MetricError):
            geometric_tgi_from_components({"a": 1.0}, {"b": 1.0})


class TestReferenceInvarianceTheorem:
    @given(
        system_a=ee_dicts(),
        system_b=ee_dicts(),
        ref_1=ee_dicts(),
        ref_2=ee_dicts(),
        weights=weight_dicts(),
    )
    @settings(max_examples=100, deadline=None)
    def test_gm_ratio_independent_of_reference(
        self, system_a, system_b, ref_1, ref_2, weights
    ):
        """GTGI_R(A)/GTGI_R(B) is the same for every reference R."""

        def gtgi(system, ref):
            ree = {n: system[n] / ref[n] for n in BENCHES}
            return geometric_tgi_from_components(ree, weights)

        ratio_1 = gtgi(system_a, ref_1) / gtgi(system_b, ref_1)
        ratio_2 = gtgi(system_a, ref_2) / gtgi(system_b, ref_2)
        assert ratio_1 == pytest.approx(ratio_2, rel=1e-9)

    @given(
        system_a=ee_dicts(),
        system_b=ee_dicts(),
        ref_1=ee_dicts(),
        ref_2=ee_dicts(),
    )
    @settings(max_examples=100, deadline=None)
    def test_arithmetic_mean_lacks_the_property(self, system_a, system_b, ref_1, ref_2):
        """For contrast: the arithmetic ratio does depend on the reference
        (not for every draw, but the invariance must not hold identically —
        we assert only that the geometric ratios matched above while
        arithmetic ones are free to differ; no assertion needed here beyond
        being computable)."""
        weights = {n: 1 / 3 for n in BENCHES}

        def tgi(system, ref):
            ree = {n: system[n] / ref[n] for n in BENCHES}
            return tgi_from_components(ree, weights)

        # computable and positive; the flip *possibility* is demonstrated
        # deterministically by the next test
        assert tgi(system_a, ref_1) > 0
        assert tgi(system_b, ref_2) > 0

    def test_arithmetic_order_flips_with_the_reference(self):
        """Two systems with crossed strengths (A computes, B writes): a
        reference weak on I/O ranks B first by TGI, one weak on CPU ranks A
        first (Smith 1988).  Their geometric ratio is the same under both."""
        system_a = {"HPL": 400e6, "STREAM": 50e6, "IOzone": 0.4e6}
        system_b = {"HPL": 150e6, "STREAM": 60e6, "IOzone": 1.6e6}
        weak_io = {"HPL": 300e6, "STREAM": 55e6, "IOzone": 0.1e6}
        weak_cpu = {"HPL": 50e6, "STREAM": 55e6, "IOzone": 1.0e6}
        weights = {n: 1 / 3 for n in BENCHES}

        def ratio(mean, ref):
            ree_a = {n: system_a[n] / ref[n] for n in BENCHES}
            ree_b = {n: system_b[n] / ref[n] for n in BENCHES}
            return mean(ree_a, weights) / mean(ree_b, weights)

        assert ratio(tgi_from_components, weak_io) < 1 < ratio(tgi_from_components, weak_cpu)
        assert ratio(geometric_tgi_from_components, weak_io) == pytest.approx(
            ratio(geometric_tgi_from_components, weak_cpu), rel=1e-12
        )


class TestGeometricCalculator:
    def test_pipeline_value(self, quick_suite, executor):
        result = quick_suite.run(executor, 32)
        ref = ReferenceSet.from_suite_result(result)
        gm = GeometricTGICalculator(ref).compute_value(result)
        assert gm == pytest.approx(1.0)

    def test_ordering_reference_invariant_end_to_end(self, quick_suite, executor, small_executor, fire_small):
        big = quick_suite.run(executor, 128)
        small = quick_suite.run(small_executor, fire_small.total_cores)
        for ref_source in (big, small):
            ref = ReferenceSet.from_suite_result(ref_source)
            calc = GeometricTGICalculator(ref)
            # the ratio between the two systems is reference-independent
            ratio = calc.compute_value(big) / calc.compute_value(small)
            if ref_source is big:
                first_ratio = ratio
        assert ratio == pytest.approx(first_ratio, rel=1e-9)

    def test_am_gm_ordering_on_real_results(self, quick_suite, executor):
        result = quick_suite.run(executor, 64)
        ref = ReferenceSet.from_suite_result(quick_suite.run(executor, 16))
        am = TGICalculator(ref).compute(result).value
        gm = GeometricTGICalculator(ref).compute_value(result)
        assert gm <= am + 1e-12
