"""Node and cluster assembly tests."""

import pytest

from repro.cluster import ClusterSpec, presets
from repro.cluster.topology import ring_topology, star_topology
from repro.exceptions import SpecError


class TestNodeSpec:
    def test_cores(self, fire):
        assert fire.node.cores == 16

    def test_peak_flops(self, fire):
        # 16 cores x 2.3 GHz x 4 flops/cycle
        assert fire.node.peak_flops == pytest.approx(147.2e9)

    def test_memory_bytes(self, fire):
        assert fire.node.memory_bytes == pytest.approx(32 * 2**30)

    def test_nominal_envelope_ordering(self, fire):
        node = fire.node
        assert 0 < node.nominal_idle_watts < node.nominal_max_watts

    def test_accelerator_aggregation(self):
        gpu_node = presets.gpu_cluster().node
        assert gpu_node.accelerator_peak_flops == pytest.approx(2 * 515e9)
        assert gpu_node.total_peak_flops > gpu_node.peak_flops

    def test_no_accelerators_on_paper_systems(self, fire):
        assert fire.node.accelerators == ()
        assert fire.node.accelerator_peak_flops == 0.0


class TestClusterSpec:
    def test_total_cores(self, fire):
        assert fire.total_cores == 128

    def test_peak_flops(self, fire):
        assert fire.peak_flops == pytest.approx(1177.6e9)

    def test_default_topology_is_star(self, fire):
        assert fire.topology.kind == "star"

    def test_topology_size_mismatch_rejected(self, fire):
        with pytest.raises(SpecError):
            ClusterSpec(name="bad", node=fire.node, num_nodes=8, topology=star_topology(4))

    def test_with_nodes_resizes(self, fire):
        small = fire.with_nodes(2)
        assert small.num_nodes == 2
        assert small.total_cores == 32
        assert small.topology.num_nodes == 2

    def test_with_nodes_rejects_zero(self, fire):
        with pytest.raises(SpecError):
            fire.with_nodes(0)

    def test_custom_topology_accepted(self, fire):
        ring = ClusterSpec(name="ringed", node=fire.node, num_nodes=8, topology=ring_topology(8))
        assert ring.topology.kind == "ring"

    def test_aggregates_scale_linearly(self, fire):
        double = fire.with_nodes(16)
        assert double.peak_flops == pytest.approx(2 * fire.peak_flops)
        assert double.nominal_idle_watts == pytest.approx(2 * fire.nominal_idle_watts)

    def test_str_contains_name(self, fire):
        assert "Fire" in str(fire)


class TestPresets:
    def test_fire_matches_paper(self, fire):
        """Section IV: 8 nodes, 2x Opteron 6134 @ 2.3 GHz, 128 cores, 32 GB."""
        assert fire.num_nodes == 8
        assert fire.total_cores == 128
        assert fire.node.sockets == 2
        assert fire.node.cpu.base_clock_hz == pytest.approx(2.3e9)
        assert "6134" in fire.node.cpu.model

    def test_system_g_matches_paper(self):
        """Section IV: 128 nodes used, 1024 cores, 2x 2.8 GHz quad-core."""
        g = presets.system_g()
        assert g.num_nodes == 128
        assert g.total_cores == 1024
        assert g.node.cpu.cores == 4
        assert g.node.cpu.base_clock_hz == pytest.approx(2.8e9)

    def test_system_g_uses_qdr_ib(self):
        assert "InfiniBand" in presets.system_g().node.nic.name

    def test_presets_are_fresh_instances(self):
        assert presets.fire() is not presets.fire()

    def test_gpu_cluster_has_accelerators(self):
        gpu = presets.gpu_cluster()
        assert len(gpu.node.accelerators) == 2

    def test_modern_cluster_peaks_higher_per_node(self, fire):
        modern = presets.modern_cluster()
        assert modern.node.peak_flops > 10 * fire.node.peak_flops
