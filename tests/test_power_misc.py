"""Cooling models and DVFS tests."""

import pytest

from repro.cluster import presets
from repro.exceptions import PowerModelError
from repro.power import (
    COPCooling,
    DVFSModel,
    DVFSOperatingPoint,
    FixedPUECooling,
    PiecewisePower,
)


class TestCooling:
    def test_fixed_pue(self):
        cooling = FixedPUECooling(pue=1.7)
        assert cooling.facility_watts(1000) == pytest.approx(1700)

    def test_pue_below_one_rejected(self):
        with pytest.raises(PowerModelError):
            FixedPUECooling(pue=0.9)

    def test_unity_pue_is_free_cooling(self):
        assert FixedPUECooling(pue=1.0).facility_watts(1234) == pytest.approx(1234)

    def test_cop_cooling(self):
        cooling = COPCooling(cop=4.0, overhead_watts=100)
        assert cooling.facility_watts(1000) == pytest.approx(1000 * 1.25 + 100)

    def test_cop_effective_pue(self):
        cooling = COPCooling(cop=4.0)
        assert cooling.effective_pue(1000) == pytest.approx(1.25)

    def test_apply_lifts_whole_curve(self):
        truth = PiecewisePower([(0, 10, 100), (10, 20, 200)])
        lifted = FixedPUECooling(pue=2.0).apply(truth)
        assert lifted.energy() == pytest.approx(2 * truth.energy())
        assert lifted.duration == pytest.approx(truth.duration)


class TestDVFS:
    @pytest.fixture
    def ladder(self):
        points = (
            DVFSOperatingPoint(frequency_hz=2.3e9, voltage_v=1.20),
            DVFSOperatingPoint(frequency_hz=1.8e9, voltage_v=1.05),
            DVFSOperatingPoint(frequency_hz=1.2e9, voltage_v=0.95),
        )
        return DVFSModel(nominal=points[0], points=points)

    def test_dynamic_scale_at_nominal_is_one(self, ladder):
        assert ladder.dynamic_power_scale(ladder.points[0]) == pytest.approx(1.0)

    def test_lower_point_saves_power(self, ladder):
        assert ladder.dynamic_power_scale(ladder.points[2]) < 0.5

    def test_scale_cpu_rescales_clock_and_power(self, ladder):
        cpu = presets.fire().node.cpu
        scaled = ladder.scale_cpu(cpu, ladder.points[1])
        assert scaled.base_clock_hz == pytest.approx(1.8e9)
        assert scaled.tdp_watts < cpu.tdp_watts
        assert scaled.idle_watts < cpu.idle_watts
        assert scaled.peak_flops < cpu.peak_flops

    def test_scale_cpu_rejects_foreign_point(self, ladder):
        cpu = presets.fire().node.cpu
        foreign = DVFSOperatingPoint(frequency_hz=3.0e9, voltage_v=1.3)
        with pytest.raises(PowerModelError):
            ladder.scale_cpu(cpu, foreign)

    def test_points_must_descend(self):
        points = (
            DVFSOperatingPoint(frequency_hz=1.2e9, voltage_v=0.95),
            DVFSOperatingPoint(frequency_hz=2.3e9, voltage_v=1.20),
        )
        with pytest.raises(PowerModelError):
            DVFSModel(nominal=points[1], points=points)

    def test_nominal_must_be_in_ladder(self):
        points = (DVFSOperatingPoint(frequency_hz=2.3e9, voltage_v=1.20),)
        with pytest.raises(PowerModelError):
            DVFSModel(
                nominal=DVFSOperatingPoint(frequency_hz=2.0e9, voltage_v=1.1),
                points=points,
            )
