"""Struct-of-arrays fleet packing tests."""

import pytest

from repro.cluster import presets
from repro.cluster.generator import generate_fleet
from repro.exceptions import FleetError
from repro.fleet import FleetColumns, is_batchable, require_batchable
from repro.power.node_power import PSU_SIZING_FACTOR


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(6, era="2011", seed=20)


class TestPack:
    def test_columns_mirror_specs(self, fleet):
        cols = FleetColumns.pack(fleet)
        assert len(cols) == 6
        assert cols.names == tuple(s.name for s in fleet)
        for i, spec in enumerate(fleet):
            node = spec.node
            assert cols.num_nodes[i] == spec.num_nodes
            assert cols.sockets[i] == node.sockets
            assert cols.cpu_cores[i] == node.cpu.cores
            assert cols.clock_hz[i] == node.cpu.base_clock_hz
            assert cols.mem_sustained_bw[i] == node.memory.sustained_bandwidth
            assert cols.storage_write_bw[i] == node.storage.seq_write_bandwidth
            assert cols.nic_latency_s[i] == node.nic.latency_s
            assert cols.base_watts[i] == node.base_watts
            assert cols.psu_rated_w[i] == pytest.approx(
                PSU_SIZING_FACTOR * node.nominal_max_watts
            )

    def test_derived_columns(self, fleet):
        cols = FleetColumns.pack(fleet)
        for i, spec in enumerate(fleet):
            assert cols.node_cores[i] == spec.node.cores
            assert cols.total_cores[i] == spec.total_cores
            assert cols.node_memory_bytes[i] == spec.node.memory_bytes
            assert cols.node_sustained_bw[i] == pytest.approx(
                spec.node.sustained_memory_bandwidth
            )

    def test_empty_rejected(self):
        with pytest.raises(FleetError):
            FleetColumns.pack([])

    def test_accelerated_rejected(self):
        with pytest.raises(FleetError):
            FleetColumns.pack([presets.gpu_cluster()])


class TestBatchable:
    def test_cpu_only_is_batchable(self, fleet):
        assert all(is_batchable(s) for s in fleet)
        assert is_batchable(presets.fire())

    def test_accelerated_is_not(self):
        gpu = presets.gpu_cluster()
        assert not is_batchable(gpu)
        with pytest.raises(FleetError):
            require_batchable(gpu)

    def test_require_returns_spec(self, fleet):
        assert require_batchable(fleet[0]) is fleet[0]


class TestSlicing:
    def test_shape_mismatch_rejected(self, fleet):
        cols = FleetColumns.pack(fleet)
        import dataclasses

        with pytest.raises(FleetError):
            dataclasses.replace(cols, clock_hz=cols.clock_hz[:-1])
