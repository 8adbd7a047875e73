"""HPL performance-model tests."""

import pytest

from repro.exceptions import BenchmarkError
from repro.perfmodels import HPLModel
from repro.perfmodels.hpl import BLOCK_SIZE


@pytest.fixture
def model(fire):
    return HPLModel(cluster=fire)


class TestFlopCount:
    def test_formula(self):
        n = 1000
        assert HPLModel.flop_count(n) == pytest.approx(2 / 3 * n**3 + 2 * n**2)

    def test_rejects_zero(self):
        with pytest.raises(BenchmarkError):
            HPLModel.flop_count(0)


class TestProblemSizing:
    def test_memory_sizing_is_block_multiple(self, model):
        n = model.problem_size_from_memory(memory_fraction=0.8)
        assert n % BLOCK_SIZE == 0

    def test_memory_sizing_fits_memory(self, model, fire):
        n = model.problem_size_from_memory(memory_fraction=0.8)
        assert 8 * n * n <= 0.8 * fire.total_memory_bytes

    def test_memory_sizing_is_tight(self, model, fire):
        """One more block row must overflow the budget."""
        n = model.problem_size_from_memory(memory_fraction=0.8)
        n_next = n + BLOCK_SIZE
        assert 8 * n_next * n_next > 0.8 * fire.total_memory_bytes

    def test_subset_of_nodes(self, model):
        n_all = model.problem_size_from_memory(memory_fraction=0.8)
        n_one = model.problem_size_from_memory(memory_fraction=0.8, nodes=1)
        assert n_one < n_all

    def test_rejects_zero_fraction(self, model):
        with pytest.raises(BenchmarkError):
            model.problem_size_from_memory(memory_fraction=0.0)


class TestPrediction:
    def test_single_rank_has_no_comm(self, model):
        pred = model.predict(4480, 1)
        assert pred.comm_time_s == 0.0
        assert pred.parallel_efficiency == 1.0

    def test_performance_below_peak(self, model, fire):
        pred = model.predict(36288, 128)
        assert pred.performance_flops < fire.peak_flops

    def test_compute_time_scales_inverse_in_ranks_without_contention(self, model):
        t16 = model.predict(36288, 16, ranks_per_node=2).compute_time_s
        t32 = model.predict(36288, 32, ranks_per_node=4).compute_time_s
        assert t16 == pytest.approx(2 * t32)

    def test_contention_slows_packed_nodes(self, model):
        free = model.predict(36288, 64, ranks_per_node=4)
        packed = model.predict(36288, 64, ranks_per_node=16)
        assert packed.compute_time_s > free.compute_time_s

    def test_contention_factor_boundary(self, model):
        assert model.contention_factor(4) == pytest.approx(1.0)
        assert model.contention_factor(16) > model.contention_factor(12) > 1.0

    def test_contention_factor_rejects_overflow(self, model):
        with pytest.raises(BenchmarkError):
            model.contention_factor(17)

    def test_comm_volume_shrinks_with_sqrt_p(self, model):
        """Per-rank broadcast volume ~ N^2 log p / sqrt p."""
        v16 = model.predict(36288, 16).comm_volume_time_s
        v64 = model.predict(36288, 64).comm_volume_time_s
        # ratio = (log2 64 / log2 16) * (4/8) = (6/4) * 0.5 = 0.75
        assert v64 / v16 == pytest.approx(0.75, rel=1e-6)

    def test_strong_scaling_efficiency_declines(self, model):
        effs = [model.predict(20160, p).parallel_efficiency for p in (16, 32, 64, 128)]
        assert effs == sorted(effs, reverse=True)

    def test_too_many_ranks_rejected(self, model):
        with pytest.raises(BenchmarkError):
            model.predict(4480, 1000)

    def test_faster_network_means_faster_run(self, fire):
        from repro.cluster import presets

        gige_pred = HPLModel(cluster=fire).predict(36288, 128)
        ib_pred = HPLModel(cluster=presets.system_g(num_nodes=8)).predict(36288, 64)
        # not directly comparable systems; just assert IB comm share smaller
        assert (
            ib_pred.comm_time_s / ib_pred.total_time_s
            < gige_pred.comm_time_s / gige_pred.total_time_s
        )

    def test_capability_run_efficiency_band(self, model, fire):
        """Memory-sized HPL on Fire should land at a plausible fraction of
        peak (the paper's capability quote is ~76 %; GigE costs some of
        that — accept a broad band and pin the exact value in
        EXPERIMENTS.md)."""
        n = model.problem_size_from_memory(memory_fraction=0.8)
        pred = model.predict(n, 128, ranks_per_node=16)
        fraction = pred.performance_flops / fire.peak_flops
        assert 0.35 < fraction < 0.9


class TestValidation:
    def test_negative_contention_slope(self, fire):
        with pytest.raises(BenchmarkError):
            HPLModel(cluster=fire, contention_slope=-1)
