"""Suite-member benchmark tests (HPL, STREAM, IOzone through the simulator)."""

import pytest

from repro.benchmarks import (
    EffectiveBandwidthBenchmark,
    HPLBenchmark,
    IOzoneBenchmark,
    RandomAccessBenchmark,
    StreamBenchmark,
)
from repro.exceptions import BenchmarkError


class TestHPLBenchmark:
    def test_reported_performance_matches_model(self, executor):
        bench = HPLBenchmark(sizing=("fixed", 8960), rounds=2)
        result = bench.run(executor, 32)
        # simulated makespan equals predicted time, so GFLOPS match
        assert result.time_s == pytest.approx(result.details["predicted_time_s"], rel=1e-6)
        assert result.performance == pytest.approx(
            result.details["flops"] / result.time_s, rel=1e-6
        )

    def test_metric_label(self, executor):
        result = HPLBenchmark(sizing=("fixed", 4480), rounds=1).run(executor, 16)
        assert result.metric_label == "FLOP/s"
        assert result.benchmark == "HPL"

    def test_memory_sizing_mode(self, small_executor):
        bench = HPLBenchmark(sizing=("memory", 0.05), rounds=1)
        result = bench.run(small_executor, 8)
        assert result.details["problem_size"] > 0

    def test_time_sizing_mode(self, small_executor):
        bench = HPLBenchmark(sizing=("time", 30.0), rounds=1)
        result = bench.run(small_executor, 8)
        assert result.time_s == pytest.approx(30.0, rel=0.2)

    def test_invalid_sizing_mode(self):
        with pytest.raises(BenchmarkError):
            HPLBenchmark(sizing=("magic", 1))

    def test_fixed_n_below_block_rejected_at_build(self, executor):
        bench = HPLBenchmark(sizing=("fixed", 100))
        with pytest.raises(BenchmarkError):
            bench.build(executor, 16)

    def test_strong_scaling_ee_is_peaked(self, executor):
        """The calibrated Fig-2 configuration must yield a rise-then-fall
        energy-efficiency curve — the paper's qualitative HPL shape."""
        bench = HPLBenchmark(
            sizing=("fixed", 36288),
            rounds=2,
            comm_volume_factor=2.0,
            contention_threshold=4,
            contention_slope=1.5,
        )
        ee = [bench.run(executor, p).energy_efficiency for p in (16, 64, 128)]
        assert ee[1] > ee[0]  # rises
        assert ee[1] > ee[2]  # rolls off

    def test_power_rises_with_ranks(self, executor):
        bench = HPLBenchmark(sizing=("fixed", 8960), rounds=1)
        p16 = bench.run(executor, 16).power_w
        p128 = bench.run(executor, 128).power_w
        assert p128 > p16


class TestStreamBenchmark:
    def test_reported_bandwidth_matches_model(self, executor, fire):
        from repro.perfmodels import StreamModel

        bench = StreamBenchmark(iterations=50)
        result = bench.run(executor, 32)
        model = StreamModel(cluster=fire)
        expected = model.predict(32, iterations=50).aggregate_bandwidth
        assert result.performance == pytest.approx(expected, rel=1e-6)

    def test_target_seconds_controls_runtime(self, executor):
        result = StreamBenchmark(target_seconds=20).run(executor, 64)
        assert result.time_s == pytest.approx(20.0, rel=0.1)

    def test_intensity_changes_power(self, executor):
        hot = StreamBenchmark(target_seconds=15, intensity=0.9).run(executor, 64)
        cool = StreamBenchmark(target_seconds=15, intensity=0.2).run(executor, 64)
        assert hot.power_w > cool.power_w

    def test_invalid_intensity(self):
        with pytest.raises(BenchmarkError):
            StreamBenchmark(intensity=1.5)

    def test_bandwidth_saturates_at_full_node(self, executor, fire):
        """Aggregate MB/s must stop growing once every socket is saturated."""
        bench = StreamBenchmark(target_seconds=10)
        almost = bench.run(executor, 112).performance
        full = bench.run(executor, 128).performance
        assert full == pytest.approx(almost, rel=0.01)


class TestIOzoneBenchmark:
    def test_scale_is_node_count(self, executor):
        result = IOzoneBenchmark(file_bytes=32e9).run(executor, 4)
        assert result.scale == 4
        assert result.record.num_ranks == 4

    def test_reported_bandwidth_matches_model(self, executor, fire):
        from repro.perfmodels import IOzoneModel

        result = IOzoneBenchmark(file_bytes=64e9).run(executor, 8)
        expected = IOzoneModel(cluster=fire).predict(8, file_bytes=64e9)
        assert result.performance == pytest.approx(expected.aggregate_bandwidth, rel=1e-6)

    def test_scale_beyond_nodes_rejected(self, executor):
        with pytest.raises(BenchmarkError):
            IOzoneBenchmark(file_bytes=1e9).build(executor, 9)

    def test_ee_rises_with_nodes(self, executor):
        """Figure 4's shape: idle-cluster power is amortized over more
        writing nodes."""
        bench = IOzoneBenchmark(target_seconds=15)
        ee = [bench.run(executor, k).energy_efficiency for k in (1, 4, 8)]
        assert ee[0] < ee[1] < ee[2]

    def test_power_ordering_vs_compute(self, executor):
        io = IOzoneBenchmark(target_seconds=15).run(executor, 8)
        hpl = HPLBenchmark(sizing=("fixed", 8960), rounds=1).run(executor, 128)
        assert io.power_w < hpl.power_w

    def test_invalid_file_bytes(self):
        with pytest.raises(BenchmarkError):
            IOzoneBenchmark(file_bytes=0)


class TestRenderingInvariance:
    def test_hpl_rounds_do_not_change_measurements(self, executor):
        """The compute/comm super-step count is a rendering choice: it must
        not move the reported performance, time, or (noise-free) energy."""
        from repro.power.meter import PERFECT_METER, WallPlugMeter
        from repro.sim import ClusterExecutor

        fire = executor.cluster
        results = []
        for rounds in (1, 8):
            exact = ClusterExecutor(fire, meter=WallPlugMeter(PERFECT_METER, rng=0))
            bench = HPLBenchmark(sizing=("fixed", 8960), rounds=rounds)
            results.append(bench.run(exact, 64))
        a, b = results
        assert a.performance == pytest.approx(b.performance, rel=1e-9)
        assert a.time_s == pytest.approx(b.time_s, rel=1e-9)
        assert a.record.true_energy_j == pytest.approx(b.record.true_energy_j, rel=1e-9)

    def test_stream_rounds_do_not_change_measurements(self, executor):
        from repro.power.meter import PERFECT_METER, WallPlugMeter
        from repro.sim import ClusterExecutor

        fire = executor.cluster
        results = []
        for rounds in (1, 6):
            exact = ClusterExecutor(fire, meter=WallPlugMeter(PERFECT_METER, rng=0))
            bench = StreamBenchmark(iterations=50, rounds=rounds)
            results.append(bench.run(exact, 64))
        a, b = results
        assert a.performance == pytest.approx(b.performance, rel=1e-9)
        assert a.record.true_energy_j == pytest.approx(b.record.true_energy_j, rel=1e-9)


class TestSharedRankPrograms:
    @pytest.mark.parametrize(
        "bench, distinct",
        [
            (HPLBenchmark(), 3),  # update, bcast, barrier
            (StreamBenchmark(), 2),  # triad, barrier
            (IOzoneBenchmark(), 1),  # write
            (EffectiveBandwidthBenchmark(), 2),  # exchange, barrier
            (RandomAccessBenchmark(), 2),  # update, barrier
        ],
        ids=lambda v: getattr(v, "name", None),
    )
    def test_every_rank_shares_one_template(self, executor, bench, distinct):
        """At Fire's full scale every rank holds the same phase tuple, and
        the whole build holds only the template's distinct phases."""
        fire = executor.cluster
        scale = fire.num_nodes if bench.name == "IOzone" else fire.total_cores
        built = bench.build(executor, scale)
        assert len(built.programs) == scale
        template = built.programs[0].phases
        assert isinstance(template, tuple)
        assert all(program.phases is template for program in built.programs)
        phase_ids = {id(p) for program in built.programs for p in program.phases}
        assert len(phase_ids) == distinct
