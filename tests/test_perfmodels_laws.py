"""Parallel-efficiency and roofline helper tests."""

import pytest

from repro.exceptions import MetricError
from repro.perfmodels import RooflineModel, arithmetic_intensity, parallel_efficiency


class TestParallelEfficiency:
    def test_ideal(self):
        assert parallel_efficiency(16.0, 16) == pytest.approx(1.0)

    def test_half(self):
        assert parallel_efficiency(8.0, 16) == pytest.approx(0.5)


class TestRoofline:
    def test_arithmetic_intensity(self):
        assert arithmetic_intensity(100.0, 50.0) == pytest.approx(2.0)

    def test_intensity_rejects_zero_bytes(self):
        with pytest.raises(MetricError):
            arithmetic_intensity(1.0, 0.0)

    def test_triad_is_memory_bound_on_fire(self, fire):
        roof = RooflineModel(node=fire.node)
        # Triad: 2 flops per 24 bytes
        assert roof.is_memory_bound(2 / 24)

    def test_dgemm_is_compute_bound_on_fire(self, fire):
        roof = RooflineModel(node=fire.node)
        # blocked DGEMM with nb=224 has intensity ~ nb/12 flops/byte
        assert not roof.is_memory_bound(224 / 12)

    def test_attainable_below_ridge_scales_with_intensity(self, fire):
        roof = RooflineModel(node=fire.node)
        low = roof.attainable_flops(0.01)
        assert low == pytest.approx(0.01 * roof.memory_bandwidth)

    def test_attainable_caps_at_peak(self, fire):
        roof = RooflineModel(node=fire.node)
        assert roof.attainable_flops(1e6) == roof.peak_flops

    def test_ridge_point_consistency(self, fire):
        roof = RooflineModel(node=fire.node)
        at_ridge = roof.attainable_flops(roof.ridge_point)
        assert at_ridge == pytest.approx(roof.peak_flops)
