"""Property-based tests on the power substrate (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power import (
    NodePowerModel,
    NodeUtilization,
    PiecewisePower,
    PowerTrace,
    PSUModel,
)
from repro.cluster import presets

fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def utilizations(draw):
    return NodeUtilization(
        cpu_active_fraction=draw(fractions),
        cpu_intensity=draw(fractions),
        memory=draw(fractions),
        storage=draw(fractions),
        nic=draw(fractions),
    )


@st.composite
def piecewise_powers(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    durations = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    watts = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    segments = []
    t = 0.0
    for d, w in zip(durations, watts):
        segments.append((t, t + d, w))
        t += d
    return PiecewisePower(segments)


class TestNodePowerProperties:
    @given(util=utilizations())
    @settings(max_examples=60, deadline=None)
    def test_power_within_nominal_envelope(self, util):
        """Any utilization maps inside [idle, max] DC watts."""
        model = NodePowerModel(node=presets.fire().node)
        dc = model.dc_power(util)
        node = presets.fire().node
        assert node.nominal_idle_watts - 1e-9 <= dc <= node.nominal_max_watts + 1e-9

    @given(util=utilizations())
    @settings(max_examples=60, deadline=None)
    def test_wall_at_least_dc(self, util):
        model = NodePowerModel(node=presets.fire().node)
        assert model.wall_power(util) >= model.dc_power(util)

    @given(a=fractions, b=fractions)
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_each_component(self, a, b):
        model = NodePowerModel(node=presets.fire().node)
        lo, hi = min(a, b), max(a, b)
        for field in ("memory", "storage", "nic"):
            p_lo = model.dc_power(NodeUtilization(**{field: lo}))
            p_hi = model.dc_power(NodeUtilization(**{field: hi}))
            assert p_hi >= p_lo - 1e-9


class TestPiecewiseProperties:
    @given(truth=piecewise_powers())
    @settings(max_examples=60, deadline=None)
    def test_energy_equals_mean_times_duration(self, truth):
        assert truth.energy() == pytest.approx(truth.mean_power() * truth.duration)

    @given(truth=piecewise_powers())
    @settings(max_examples=60, deadline=None)
    def test_mean_bounded_by_extremes(self, truth):
        watts = [w for _, _, w in truth.segments]
        assert min(watts) - 1e-9 <= truth.mean_power() <= max(watts) + 1e-9

    @given(truth=piecewise_powers(), scale=st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_energy_linear_in_power(self, truth, scale):
        scaled = PiecewisePower(
            [(t0, t1, w * scale) for t0, t1, w in truth.segments]
        )
        assert scaled.energy() == pytest.approx(scale * truth.energy(), rel=1e-9)


class TestTraceProperties:
    @given(
        watts=st.lists(
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
            min_size=2,
            max_size=50,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_trapezoid_energy_bounds(self, watts):
        times = np.arange(len(watts), dtype=float)
        trace = PowerTrace(times, watts)
        duration = trace.duration
        assert (
            min(watts) * duration - 1e-6
            <= trace.energy()
            <= max(watts) * duration + 1e-6
        )

    @given(
        watts=st.lists(
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
            min_size=2,
            max_size=50,
        ),
        dt=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, watts, dt):
        times = np.arange(len(watts), dtype=float)
        trace = PowerTrace(times, watts)
        shifted = PowerTrace(times + dt, watts)
        assert shifted.energy() == pytest.approx(trace.energy())


class TestPSUProperties:
    @given(dc=st.floats(min_value=0, max_value=500, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_efficiency_in_unit_interval(self, dc):
        psu = PSUModel(rated_watts=400)
        assert 0 < psu.efficiency(dc) <= 1

    @given(
        dc_a=st.floats(min_value=1, max_value=500),
        dc_b=st.floats(min_value=1, max_value=500),
    )
    @settings(max_examples=60, deadline=None)
    def test_wall_monotone(self, dc_a, dc_b):
        psu = PSUModel(rated_watts=400)
        lo, hi = min(dc_a, dc_b), max(dc_a, dc_b)
        assert psu.wall_watts(hi) >= psu.wall_watts(lo) - 1e-9


class TestSerializationProperties:
    @given(truth=piecewise_powers())
    @settings(max_examples=40, deadline=None)
    def test_piecewise_round_trips_through_archive_form(self, truth):
        """PiecewisePower survives the segments-list form serialization
        uses, preserving energy exactly."""
        rebuilt = PiecewisePower([tuple(s) for s in truth.segments])
        assert rebuilt.energy() == pytest.approx(truth.energy(), rel=1e-12)
        assert rebuilt.duration == pytest.approx(truth.duration, rel=1e-12)

    @given(
        watts=st.lists(
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_trace_round_trips_through_lists(self, watts):
        trace = PowerTrace(np.arange(len(watts), dtype=float), watts)
        rebuilt = PowerTrace(trace.times.tolist(), trace.watts.tolist())
        assert rebuilt.energy() == pytest.approx(trace.energy(), rel=1e-12)
