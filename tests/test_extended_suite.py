"""Tests for the extended suite members (RandomAccess, b_eff) and the
five-benchmark TGI they enable ("TGI is not limited by the number of
benchmarks", Section IV-A)."""

import pytest

from repro.benchmarks import (
    BenchmarkSuite,
    EffectiveBandwidthBenchmark,
    HPLBenchmark,
    IOzoneBenchmark,
    RandomAccessBenchmark,
    StreamBenchmark,
)
from repro.cluster import presets
from repro.core import ReferenceSet, TGICalculator
from repro.exceptions import BenchmarkError
from repro.perfmodels import EffectiveBandwidthModel, RandomAccessModel
from repro.sim import ClusterExecutor


class TestRandomAccessModel:
    @pytest.fixture
    def model(self, fire):
        return RandomAccessModel(cluster=fire)

    def test_per_core_rate_is_latency_bound(self, model, fire):
        expected = 6.0 / fire.node.memory.access_latency_s
        assert model.per_core_rate() == pytest.approx(expected)

    def test_node_rate_saturates(self, model, fire):
        full = model.node_memory_rate(fire.node.cores)
        # 2 sockets x 3 cores' worth of misses
        assert full == pytest.approx(2 * 3 * model.per_core_rate())

    def test_single_node_is_memory_bound(self, model):
        pred = model.predict(8, ranks_per_node=8)
        assert not pred.network_limited

    def test_multi_node_on_gige_is_network_bound(self, model):
        """The classic GUPS cliff: bucketed exchanges over GigE throttle
        the update rate far below the DRAM-latency bound."""
        pred = model.predict(128)
        assert pred.network_limited
        assert pred.updates_per_second < 0.2 * pred.memory_bound_rate

    def test_updates_for_time_roundtrip(self, model):
        updates = model.updates_for_time(30.0, 64)
        pred = model.predict(64, updates_per_rank=updates)
        assert pred.time_s == pytest.approx(30.0, rel=1e-6)

    def test_gups_unit(self, model):
        pred = model.predict(16)
        assert pred.gups == pytest.approx(pred.updates_per_second / 1e9)

    def test_overflow_rejected(self, model, fire):
        with pytest.raises(BenchmarkError):
            model.predict(fire.total_cores + 1)


class TestEffectiveBandwidthModel:
    @pytest.fixture
    def model(self, fire):
        return EffectiveBandwidthModel(cluster=fire)

    def test_per_rank_below_link_rate(self, model, fire):
        bw = model.per_rank_bandwidth(16)  # 2 ranks/node share the link
        assert bw < fire.node.nic.bandwidth

    def test_sharing_reduces_per_rank_bandwidth(self, model):
        spread = model.per_rank_bandwidth(16)   # 2 per node
        packed = model.per_rank_bandwidth(128)  # 16 per node
        assert packed < spread

    def test_small_messages_latency_dominated(self, fire):
        tiny = EffectiveBandwidthModel(cluster=fire, message_sizes=(100.0,))
        huge = EffectiveBandwidthModel(cluster=fire, message_sizes=(8e6,))
        assert tiny.per_rank_bandwidth(8) < huge.per_rank_bandwidth(8)

    def test_rounds_for_time(self, model):
        rounds = model.rounds_for_time(20.0, 32)
        pred = model.predict(32, rounds=rounds)
        assert pred.time_s == pytest.approx(20.0, rel=0.1)

    def test_empty_ladder_rejected(self, fire):
        with pytest.raises(BenchmarkError):
            EffectiveBandwidthModel(cluster=fire, message_sizes=())

    def test_single_node_cluster_latency(self, fire):
        # One node: shared-memory latency (0.4 us) and copy rate (4 GB/s).
        model = EffectiveBandwidthModel(cluster=fire.with_nodes(1), message_sizes=(1e3,))
        assert model.per_rank_bandwidth(1) == 1e3 / (0.4e-6 + 1e3 / 4e9)


class TestExtendedBenchmarks:
    def test_randomaccess_runs(self, executor):
        result = RandomAccessBenchmark(target_seconds=10).run(executor, 64)
        assert result.benchmark == "RandomAccess"
        assert result.performance > 0
        assert result.time_s == pytest.approx(10.0, rel=0.1)

    def test_beff_runs(self, executor):
        result = EffectiveBandwidthBenchmark(target_seconds=10).run(executor, 64)
        assert result.benchmark == "b_eff"
        assert result.time_s == pytest.approx(10.0, rel=0.1)

    def test_beff_power_below_compute(self, executor):
        """Network-bound ranks burn far less CPU than HPL's compute."""
        beff = EffectiveBandwidthBenchmark(target_seconds=10).run(executor, 128)
        hpl = HPLBenchmark(sizing=("fixed", 8960), rounds=1).run(executor, 128)
        assert beff.power_w < hpl.power_w

    def test_randomaccess_power_between_io_and_stream(self, executor):
        gups = RandomAccessBenchmark(target_seconds=10).run(executor, 128)
        io = IOzoneBenchmark(target_seconds=10).run(executor, 8)
        stream = StreamBenchmark(target_seconds=10).run(executor, 128)
        assert io.power_w < gups.power_w < stream.power_w


class TestFiveBenchmarkTGI:
    def test_five_member_suite_tgi(self, fire_small):
        """The TGI pipeline is agnostic to suite size: five members, one
        number, reference invariant preserved."""
        suite = BenchmarkSuite(
            [
                HPLBenchmark(sizing=("fixed", 4480), rounds=1),
                StreamBenchmark(target_seconds=5),
                IOzoneBenchmark(target_seconds=5),
                RandomAccessBenchmark(target_seconds=5),
                EffectiveBandwidthBenchmark(target_seconds=5),
            ]
        )
        executor = ClusterExecutor(fire_small, rng=3)
        result = suite.run(executor, fire_small.total_cores)
        assert len(result) == 5
        ref = ReferenceSet.from_suite_result(result)
        tgi = TGICalculator(ref).compute(result)
        assert tgi.value == pytest.approx(1.0)
        assert all(w == pytest.approx(1 / 5) for w in tgi.weights.values())
