"""Property-based tests on the performance models (hypothesis).

Specs are generated over wide parameter ranges so the invariants hold for
*any* plausible machine, not just the calibrated presets.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import presets
from repro.cluster.cluster import ClusterSpec
from repro.perfmodels import HPLModel, IOzoneModel, StreamModel
from repro.perfmodels.iozone import CACHE_BANDWIDTH


@st.composite
def fire_variants(draw):
    """Fire-shaped clusters with randomized memory/disk/NIC parameters."""
    fire = presets.fire()
    mem = dataclasses.replace(
        fire.node.memory,
        stream_efficiency=draw(st.floats(min_value=0.1, max_value=0.9)),
        cores_to_saturate=draw(st.integers(min_value=1, max_value=8)),
        channel_bandwidth=draw(st.floats(min_value=1e9, max_value=4e10)),
    )
    sto = dataclasses.replace(
        fire.node.storage,
        seq_write_bandwidth=draw(st.floats(min_value=2e7, max_value=1e9)),
    )
    nic = dataclasses.replace(
        fire.node.nic,
        latency_s=draw(st.floats(min_value=1e-6, max_value=1e-4)),
        bandwidth=draw(st.floats(min_value=5e7, max_value=5e9)),
    )
    node = dataclasses.replace(fire.node, memory=mem, storage=sto, nic=nic)
    return ClusterSpec(name="variant", node=node, num_nodes=8)


class TestStreamProperties:
    @given(cluster=fire_variants(), k=st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_node_bandwidth_bounded_and_positive(self, cluster, k):
        model = StreamModel(cluster=cluster)
        bw = model.node_bandwidth(k)
        assert 0 < bw <= cluster.node.sustained_memory_bandwidth * (1 + 1e-9)

    @given(cluster=fire_variants())
    @settings(max_examples=50, deadline=None)
    def test_node_bandwidth_monotone_in_ranks(self, cluster):
        model = StreamModel(cluster=cluster)
        rates = [model.node_bandwidth(k) for k in range(1, 17)]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    @given(
        cluster=fire_variants(),
        p=st.sampled_from([16, 32, 64, 128]),
        iters=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=50, deadline=None)
    def test_time_linear_in_iterations(self, cluster, p, iters):
        model = StreamModel(cluster=cluster)
        t1 = model.predict(p, iterations=1).time_s
        tn = model.predict(p, iterations=iters).time_s
        assert tn == pytest.approx(iters * t1, rel=1e-9)


class TestHPLProperties:
    @given(
        cluster=fire_variants(),
        n=st.integers(min_value=1, max_value=200),
        p=st.sampled_from([1, 16, 64, 128]),
    )
    @settings(max_examples=50, deadline=None)
    def test_performance_positive_and_below_peak(self, cluster, n, p):
        model = HPLModel(cluster=cluster)
        pred = model.predict(n * 224, p)
        assert 0 < pred.performance_flops < cluster.peak_flops

    @given(cluster=fire_variants(), p=st.sampled_from([16, 64, 128]))
    @settings(max_examples=50, deadline=None)
    def test_time_components_non_negative(self, cluster, p):
        pred = HPLModel(cluster=cluster).predict(20160, p)
        assert pred.compute_time_s > 0
        assert pred.comm_volume_time_s >= 0
        assert pred.comm_latency_time_s >= 0
        assert 0 < pred.parallel_efficiency <= 1

    @given(cluster=fire_variants(), n=st.integers(min_value=5, max_value=300))
    @settings(max_examples=50, deadline=None)
    def test_bigger_matrix_takes_longer(self, cluster, n):
        model = HPLModel(cluster=cluster)
        small = model.predict(n * 224, 64)
        large = model.predict((n + 10) * 224, 64)
        assert large.total_time_s > small.total_time_s


class TestIOzoneProperties:
    @given(
        cluster=fire_variants(),
        file_gb=st.floats(min_value=1.0, max_value=500.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_measured_rate_between_device_and_cache(self, cluster, file_gb):
        model = IOzoneModel(cluster=cluster)
        pred = model.predict(1, file_bytes=file_gb * 1e9)
        assert model.device_rate() - 1e-9 <= pred.per_node_bandwidth
        assert pred.per_node_bandwidth <= CACHE_BANDWIDTH + 1e-9

    @given(
        cluster=fire_variants(),
        nodes=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_aggregate_exactly_linear_in_nodes(self, cluster, nodes):
        model = IOzoneModel(cluster=cluster)
        one = model.predict(1, file_bytes=64e9)
        many = model.predict(nodes, file_bytes=64e9)
        assert many.aggregate_bandwidth == pytest.approx(
            nodes * one.aggregate_bandwidth, rel=1e-9
        )

    @given(
        cluster=fire_variants(),
        seconds=st.floats(min_value=5.0, max_value=600.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_file_size_for_time_inverts_predict(self, cluster, seconds):
        model = IOzoneModel(cluster=cluster)
        size = model.file_size_for_time(seconds)
        pred = model.predict(1, file_bytes=size)
        assert pred.time_s == pytest.approx(seconds, rel=1e-6)
