"""PSU efficiency-curve tests."""

import numpy as np
import pytest

from repro.exceptions import PowerModelError
from repro.power import IDEAL_PSU, PSUModel


class TestPSUModel:
    def test_efficiency_interpolates(self):
        psu = PSUModel(rated_watts=1000)
        # halfway between (0.10, 0.75) and (0.20, 0.83)
        assert psu.efficiency(150) == pytest.approx(0.79)

    def test_wall_watts_exceed_dc(self):
        psu = PSUModel(rated_watts=400)
        assert psu.wall_watts(200) > 200

    def test_zero_load_zero_wall(self):
        assert PSUModel(rated_watts=400).wall_watts(0) == 0.0

    def test_light_load_less_efficient_than_half_load(self):
        psu = PSUModel(rated_watts=1000)
        assert psu.efficiency(50) < psu.efficiency(500)

    def test_overload_clamps_to_full_load(self):
        psu = PSUModel(rated_watts=100)
        assert psu.efficiency(500) == pytest.approx(psu.efficiency(100))

    def test_rejects_negative_dc(self):
        psu = PSUModel(rated_watts=100)
        with pytest.raises(PowerModelError):
            psu.efficiency(-1)
        with pytest.raises(PowerModelError):
            psu.wall_watts(np.array([100.0, -1.0]))

    def test_ideal_psu_is_lossless(self):
        assert IDEAL_PSU.wall_watts(123.4) == pytest.approx(123.4)

    def test_curve_must_be_sorted(self):
        with pytest.raises(PowerModelError):
            PSUModel(rated_watts=100, curve=((0.0, 0.8), (0.6, 0.9), (0.5, 0.85), (1.0, 0.8)))

    def test_curve_must_span_unit_interval(self):
        with pytest.raises(PowerModelError):
            PSUModel(rated_watts=100, curve=((0.1, 0.8), (1.0, 0.85)))

    def test_curve_efficiency_bounds(self):
        with pytest.raises(PowerModelError):
            PSUModel(rated_watts=100, curve=((0.0, 0.0), (1.0, 0.9)))
        with pytest.raises(PowerModelError):
            PSUModel(rated_watts=100, curve=((0.0, 0.5), (1.0, 1.2)))

    def test_wall_power_monotone_in_dc(self):
        psu = PSUModel(rated_watts=1000)
        walls = [psu.wall_watts(dc) for dc in (10, 50, 100, 300, 600, 900, 1000)]
        assert walls == sorted(walls)
