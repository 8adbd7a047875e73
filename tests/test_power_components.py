"""Component power-model tests."""

import pytest

from repro.cluster import presets
from repro.exceptions import PowerModelError
from repro.power import (
    AcceleratorPowerModel,
    CPUPowerModel,
    MemoryPowerModel,
    NICPowerModel,
    NodeUtilization,
    StoragePowerModel,
)


@pytest.fixture
def fire_node():
    return presets.fire().node


class TestNodeUtilization:
    def test_idle_is_all_zero(self):
        idle = NodeUtilization.idle()
        assert idle.cpu_active_fraction == 0.0
        assert idle.memory == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(PowerModelError):
            NodeUtilization(cpu_active_fraction=1.2)
        with pytest.raises(PowerModelError):
            NodeUtilization(memory=-0.1)


class TestCPUPowerModel:
    def test_idle_power(self, fire_node):
        model = CPUPowerModel(spec=fire_node.cpu, sockets=2)
        assert model.power(NodeUtilization.idle()) == pytest.approx(2 * 24.0)

    def test_full_load_hits_tdp(self, fire_node):
        model = CPUPowerModel(spec=fire_node.cpu, sockets=2)
        full = NodeUtilization(cpu_active_fraction=1.0, cpu_intensity=1.0)
        assert model.power(full) == pytest.approx(2 * 85.0)

    def test_awake_floor_charges_stalled_cores(self, fire_node):
        """A busy-but-stalled core must burn more than idle but less than
        a compute-bound one (the mechanism behind HPL vs STREAM power)."""
        model = CPUPowerModel(spec=fire_node.cpu, sockets=2)
        stalled = NodeUtilization(cpu_active_fraction=1.0, cpu_intensity=0.0)
        compute = NodeUtilization(cpu_active_fraction=1.0, cpu_intensity=1.0)
        idle = model.power(NodeUtilization.idle())
        assert idle < model.power(stalled) < model.power(compute)
        # floor fraction of the dynamic range
        dyn = model.power(compute) - idle
        assert model.power(stalled) - idle == pytest.approx(0.45 * dyn)

    def test_monotone_in_active_fraction(self, fire_node):
        model = CPUPowerModel(spec=fire_node.cpu, sockets=2)
        powers = [
            model.power(NodeUtilization(cpu_active_fraction=f, cpu_intensity=0.8))
            for f in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert powers == sorted(powers)

    def test_rejects_zero_sockets(self, fire_node):
        with pytest.raises(PowerModelError):
            CPUPowerModel(spec=fire_node.cpu, sockets=0)


class TestLinearComponents:
    def test_memory_spans_envelope(self, fire_node):
        model = MemoryPowerModel(spec=fire_node.memory, sockets=2)
        lo = model.power(NodeUtilization.idle())
        hi = model.power(NodeUtilization(memory=1.0))
        assert lo == pytest.approx(2 * fire_node.memory.idle_watts)
        assert hi == pytest.approx(2 * fire_node.memory.active_watts)

    def test_memory_halfway(self, fire_node):
        model = MemoryPowerModel(spec=fire_node.memory, sockets=2)
        lo = model.power(NodeUtilization.idle())
        hi = model.power(NodeUtilization(memory=1.0))
        mid = model.power(NodeUtilization(memory=0.5))
        assert mid == pytest.approx(0.5 * (lo + hi))

    def test_storage_spans_envelope(self, fire_node):
        model = StoragePowerModel(spec=fire_node.storage)
        assert model.power(NodeUtilization.idle()) == pytest.approx(5.0)
        assert model.power(NodeUtilization(storage=1.0)) == pytest.approx(9.5)

    def test_nic_spans_envelope(self, fire_node):
        model = NICPowerModel(spec=fire_node.nic)
        assert model.power(NodeUtilization.idle()) == pytest.approx(
            fire_node.nic.idle_watts
        )
        assert model.power(NodeUtilization(nic=1.0)) == pytest.approx(
            fire_node.nic.active_watts
        )

    def test_accelerator_spans_envelope(self):
        node = presets.gpu_cluster().node
        model = AcceleratorPowerModel(spec=node.accelerators[0])
        assert model.power(NodeUtilization.idle()) == pytest.approx(30.0)
        assert model.power(NodeUtilization(accelerator=1.0)) == pytest.approx(225.0)
